//! Fleet-level allocation regression gate — the multi-vehicle
//! counterpart of `crates/core/tests/zero_alloc.rs`.
//!
//! A counting global allocator measures one simulated second of fleet
//! steady state *under flood* and demands **zero** heap allocations per
//! quantum once the pools are warm: pooled packet buffers and the shared
//! flood payload on every bridge network, run-length-encoded flood
//! bursts in the link queues, the airspace buffer pool feeding the GCS
//! downlink, pre-sized recorders, and the reused core assignment in
//! every vehicle's scheduler. N = 1000 fleet sweeps are only affordable
//! because this property holds.
//!
//! Observability (cd-obs) is compiled into every layer these windows
//! measure, with all surfaces *detached*: trace ports are `None`
//! branches, no metrics registry is attached, no network counters are
//! wired. These gates therefore also pin that unobserved runs pay
//! nothing — attaching a sink or registry is the explicit opt-in
//! (`Fleet::attach_trace` pre-allocates the rings up front).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use cd_fleet::{Fleet, FleetConfig};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::SimTime;

/// The allocation counter is process-global, so the measurement windows
/// must never overlap: each test serializes on this lock.
static MEASUREMENT: Mutex<()> = Mutex::new(());

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method delegates to `System` with the caller's exact
// layout/pointer arguments, so `System`'s contract is upheld verbatim;
// the only addition is a relaxed atomic increment, which allocates
// nothing and cannot unwind.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAllocator = CountingAllocator;

/// One simulated second of a 3-vehicle fleet in Figure-7 flood steady
/// state on the quantum-stepped reference executor (`with_leap(false)`)
/// must not allocate at all. The warmup is pool-aware: it runs well past
/// the 8 s flood onset and the Simplex switches, so the link queues
/// carry their steady burst load, the GCS pools are primed by dozens of
/// poll/drain cycles, and the one-off switch/violation records have been
/// written.
#[test]
fn fleet_flood_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    // fig7 for every vehicle: a static timeline, so no fleet-script
    // rotation re-arms attacks (and allocates) inside the window.
    let mut fleet = Fleet::new(FleetConfig::new(ScenarioConfig::fig7(), 3).with_leap(false));
    fleet.run_until(SimTime::from_secs(12));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    fleet.run_until(SimTime::from_secs(13)); // one simulated second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "fleet steady-state step allocated {} times in one simulated second",
        after - before
    );

    // The window really was a flooded, GCS-polled fleet — not a silently
    // degenerate run.
    let report = fleet.finish();
    assert_eq!(report.quanta_leaped, 0, "the window must run stepped");
    assert_eq!(report.crashes(), 0);
    assert_eq!(report.switches(), 3, "every monitor must have switched");
    for o in &report.outcomes {
        assert!(
            o.result.flood_sent > 4 * 20_000,
            "vehicle {} unflooded",
            o.index
        );
        assert!(
            o.gcs.packets > 0,
            "vehicle {} never reached the GCS",
            o.index
        );
    }
}

/// The leap executor's counterpart: one simulated second of a healthy
/// fleet advanced in whole poll-boundary batches ([`Fleet::run_until`],
/// the executor behind [`Fleet::run`]) must be allocation-free once
/// warm. This covers the leap-path scratch the stepped gate never
/// touches: every machine's replay/demand/fair-order buffers.
#[test]
fn fleet_leap_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut fleet = Fleet::new(FleetConfig::new(ScenarioConfig::healthy(), 3));

    // Warmup on the same executor the window measures, so every span
    // scratch buffer has reached capacity.
    fleet.run_until(SimTime::from_secs(3));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    fleet.run_until(SimTime::from_secs(4)); // one simulated second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "fleet leap steady-state batch allocated {} times in one simulated second",
        after - before
    );

    // The window really ran the leap executor over a healthy fleet.
    let report = fleet.finish();
    assert_eq!(report.crashes(), 0);
    assert!(
        report.quanta_leaped * 2 > report.sim_steps,
        "a healthy fleet batch run must leap most quanta: {} of {}",
        report.quanta_leaped,
        report.sim_steps
    );
}

/// The flooded batch-executor gate — the fleet twin of the core crate's
/// `udp_flood_leap_steady_state_allocates_nothing`. One simulated second
/// of a 3-vehicle Figure-7 flood advanced in poll-boundary batches must
/// be allocation-free: flood spans leap through the attack window in
/// closed form, the skipped emissions replay as run-length-encoded
/// bursts, and the bulk token-bucket settlement books whole runs without
/// materializing a packet. Any of those falling back to per-datagram
/// heap traffic fails here.
#[test]
fn fleet_flood_leap_steady_state_allocates_nothing() {
    let _window = MEASUREMENT.lock().expect("serialize measurement");
    let mut fleet = Fleet::new(FleetConfig::new(ScenarioConfig::fig7(), 3));

    // Pool-aware warmup on the batch executor itself, well past the 8 s
    // onset and the Simplex switches: RLE link entries, replay cursors
    // and every machine's span scratch reach steady capacity.
    fleet.run_until(SimTime::from_secs(12));

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(before > 0, "counter must have registered setup allocations");
    fleet.run_until(SimTime::from_secs(13)); // one simulated flood second
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "fleet flood batch allocated {} times in one simulated second",
        after - before
    );

    // The window really was a flooded fleet riding the leap executor.
    let report = fleet.finish();
    assert_eq!(report.crashes(), 0);
    assert_eq!(report.switches(), 3, "every monitor must have switched");
    assert!(
        report.quanta_leaped * 2 > report.sim_steps,
        "a flooded fleet batch run must still leap most quanta: {} of {}",
        report.quanta_leaped,
        report.sim_steps
    );
    for o in &report.outcomes {
        assert!(
            o.result.flood_sent > 4 * 20_000,
            "vehicle {} unflooded",
            o.index
        );
    }
}
