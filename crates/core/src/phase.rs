//! Opt-in phase accounting for the executor hot loop.
//!
//! The perf harness needs to know *where* a row's wall time goes — network
//! step, scheduler quantum, physics catch-up, or datagram parsing — so the
//! next performance floor is diagnosable from the committed BENCH files
//! instead of ad-hoc probes. The runner cannot read a wall clock itself
//! (cd-lint's determinism rule bans wall-clock access in sim crates, and
//! rightly so), so the design is a function-pointer clock:
//!
//! - by default no clock is installed and [`now`] returns 0, so the
//!   accumulators stay zero and the per-bracket cost is one relaxed atomic
//!   load and a branch;
//! - a measurement harness (cd-bench's perf bin — *not* a sim crate)
//!   installs a monotonic-nanosecond clock via [`install_clock`], and the
//!   same brackets start attributing real time.
//!
//! Simulation results never depend on the clock: the accumulators are
//! scratch drained at report time and excluded from every equivalence
//! comparison.

use std::sync::atomic::{AtomicPtr, Ordering};

/// Phase index: [`Network::step`](virt_net::net::Network::step) plus
/// delivery routing.
pub const NET: usize = 0;
/// Phase index: machine stepping/leaping (the scheduler quantum work).
pub const SCHED: usize = 1;
/// Phase index: physics catch-up
/// ([`World::advance_to`](uav_dynamics::world::World::advance_to)).
pub const PHYSICS: usize = 2;
/// Phase index: rx-thread datagram parsing.
pub const PARSE: usize = 3;
/// Number of tracked phases.
pub const COUNT: usize = 4;
/// Stable wire names for the BENCH row fields, by phase index.
pub const NAMES: [&str; COUNT] = ["net", "sched", "physics", "parse"];

static CLOCK: AtomicPtr<()> = AtomicPtr::new(std::ptr::null_mut());

/// Installs the monotonic-nanosecond clock the phase brackets read.
/// Process-global; call once before running measured work. Only
/// measurement harnesses should call this — simulation behavior is
/// independent of it by construction.
pub fn install_clock(clock: fn() -> u64) {
    CLOCK.store(clock as *mut (), Ordering::Relaxed);
}

/// Removes the installed clock: [`now`] returns 0 again and the brackets
/// go back to costing one relaxed load. The perf harness brackets *its
/// timed repeats* with this — reading the clock twice per phase bracket
/// is measurable overhead (tens of ms on a leap-dense 30 s row), so wall
/// time is always measured clock-off and the phase breakdown comes from
/// one separate clock-on iteration of the same deterministic work.
pub fn uninstall_clock() {
    CLOCK.store(std::ptr::null_mut(), Ordering::Relaxed);
}

/// The current phase-clock reading, or 0 when no clock is installed.
/// Public so the fleet executor can bracket its own network steps with
/// the same clock.
#[inline]
pub fn now() -> u64 {
    let p = CLOCK.load(Ordering::Relaxed);
    if p.is_null() {
        return 0;
    }
    // SAFETY: the only non-null store into CLOCK is `install_clock`
    // casting a `fn() -> u64`, and function pointers round-trip
    // losslessly through thin raw-pointer casts on all supported
    // platforms.
    let f: fn() -> u64 = unsafe { std::mem::transmute::<*mut (), fn() -> u64>(p) };
    f()
}
