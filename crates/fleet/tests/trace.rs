//! The trace stream's determinism guarantee: the JSONL bytes a fleet
//! run drains through [`Fleet::attach_trace`] are a pure function of the
//! configuration — thread count and shard assignment must never move,
//! add, drop or reorder a single byte (under the default
//! [`TraceMask::DETERMINISTIC`] mask).

use attacks::fleet::{FleetScript, FleetTarget};
use attacks::script::AttackEvent;
use attacks::udp_flood::UdpFlood;
use cd_fleet::{Fleet, FleetConfig, SwarmConfig};
use cd_obs::{TraceMask, TraceSink};
use containerdrone_core::scenario::ScenarioConfig;
use sim_core::time::{SimDuration, SimTime};

/// The acceptance campaign: a rolling onboard flood, a targeted
/// controller kill, V2V swarm streams, and external attacker nodes
/// flooding an uplink and jamming a swarm port — every trace kind's
/// emitter gets exercised.
fn traced_config(n: usize) -> FleetConfig {
    let script = FleetScript::new()
        .at(
            SimTime::from_secs(1),
            FleetTarget::Rolling {
                period: SimDuration::from_millis(500),
            },
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_secs(1),
            FleetTarget::GcsUplink(3),
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_millis(1500),
            FleetTarget::SwarmJam(5),
            AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
        )
        .at(
            SimTime::from_secs(2),
            FleetTarget::Vehicle(3),
            AttackEvent::KillComplex,
        )
        .at(
            SimTime::from_millis(2500),
            FleetTarget::GcsUplink(3),
            AttackEvent::CeaseFire,
        );
    let base = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3));
    FleetConfig::new(base, n)
        .with_script(script)
        .with_swarm(SwarmConfig::default())
}

fn traced_run(threads: usize, mask: TraceMask) -> Vec<u8> {
    let mut fleet = Fleet::new(traced_config(25).with_threads(threads));
    let (sink, buf) = TraceSink::in_memory();
    fleet.attach_trace(sink.with_mask(mask));
    let report = fleet.run();
    assert!(report.outcomes.len() == 25);
    buf.take()
}

/// The tentpole pin: byte-identical JSONL at 1, 2 and 8 threads on the
/// 25-UAV mixed campaign.
#[test]
fn trace_stream_is_byte_identical_across_thread_counts() {
    let serial = traced_run(1, TraceMask::DETERMINISTIC);
    let text = String::from_utf8(serial.clone()).expect("JSONL is UTF-8");
    // Non-degeneracy: the campaign actually emitted every event class
    // the deterministic mask keeps.
    for kind in [
        "attack_arm",
        "attack_cease",
        "simplex_switch",
        "leap_span",
        "gcs_window",
        "swarm_window",
    ] {
        assert!(text.contains(kind), "no `{kind}` event in the trace");
    }
    assert!(
        !text.contains("shard_rebalance"),
        "deterministic mask leaked a shard_rebalance event"
    );
    for threads in [2usize, 8] {
        let parallel = traced_run(threads, TraceMask::DETERMINISTIC);
        assert!(
            serial == parallel,
            "trace stream diverged at {threads} threads"
        );
    }
}

/// `TraceMask::ALL` opts into the thread-count-dependent shard
/// rebalance events on parallel runs; they carry the shard ordinal.
#[test]
fn all_mask_adds_shard_rebalances_on_parallel_runs() {
    let bytes = traced_run(4, TraceMask::ALL);
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    assert!(
        text.contains("shard_rebalance"),
        "ALL mask never saw a shard rebalance on a 4-thread run"
    );
}

/// Every line of the stream parses as the documented flat JSON object
/// (spot-checked without a JSON dependency: brace-delimited, known keys,
/// ns timestamps).
#[test]
fn trace_lines_are_wellformed_jsonl() {
    let bytes = traced_run(2, TraceMask::DETERMINISTIC);
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    assert!(text.lines().count() > 100, "suspiciously sparse trace");
    for line in text.lines() {
        assert!(
            line.starts_with("{\"t_ns\":") && line.ends_with('}'),
            "{line}"
        );
        assert!(line.contains("\"ord\":"), "{line}");
        assert!(line.contains("\"kind\":\""), "{line}");
        assert!(line.contains("\"a\":") && line.contains("\"b\":"), "{line}");
    }
}
