//! Smoke tests for the scenario runner: short flights exercising both
//! pilot modes, result plumbing and telemetry integrity — fast checks that
//! complement the full 30 s reproductions under `/tests`.

use containerdrone_core::prelude::*;
use sim_core::time::{SimDuration, SimTime};

fn short(cfg: ScenarioConfig) -> ScenarioResult {
    Scenario::new(cfg.with_duration(SimDuration::from_secs(3))).run()
}

#[test]
fn cce_simplex_mode_spawns_the_full_task_set() {
    let r = short(ScenarioConfig::healthy());
    let names: Vec<&str> = r.task_report.iter().map(|(n, _)| n.as_str()).collect();
    for expected in [
        "sensor-driver",
        "motor-driver",
        "security-monitor",
        "rx-thread",
        "safety-controller",
        "cce-pipeline",
        "cce-rate-loop",
    ] {
        assert!(
            names.contains(&expected),
            "missing task {expected}: {names:?}"
        );
    }
    assert!(!names.contains(&"hce-flight-stack"));
}

#[test]
fn hce_direct_mode_spawns_the_pilot_stack_only() {
    let r = short(ScenarioConfig::fig4());
    let names: Vec<&str> = r.task_report.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.contains(&"hce-flight-stack"));
    assert!(
        !names.contains(&"cce-pipeline"),
        "no CCE controller in fig4/5 mode"
    );
    assert!(!names.contains(&"rx-thread"));
}

#[test]
fn every_task_actually_runs() {
    let r = short(ScenarioConfig::healthy());
    for (name, stats) in &r.task_report {
        assert!(
            stats.completions > 0,
            "task {name} never completed a job: {stats:?}"
        );
    }
}

#[test]
fn telemetry_is_sampled_at_the_configured_rate() {
    let r = short(ScenarioConfig::healthy());
    // 3 s at 50 Hz: one row per 20 ms (within one sample of the ideal).
    let rows = r.telemetry.series().rows();
    assert!((145..=152).contains(&rows), "rows {rows}");
    // Time column strictly increasing (checked by construction, but make
    // sure the CSV round-trips the full row count).
    let csv = r.telemetry.to_csv();
    assert_eq!(csv.lines().count(), rows + 1 + r.telemetry.markers().len());
}

#[test]
fn summary_mentions_the_key_facts() {
    let r = short(ScenarioConfig::fig6());
    let s = r.summary();
    assert!(s.contains("outcome:"));
    assert!(s.contains("attack onset: 12"));
    assert!(s.contains("idle rates:"));
}

#[test]
fn monitor_disabled_spawns_no_monitor_task() {
    let mut cfg = ScenarioConfig::healthy();
    cfg.framework.protections.monitor = false;
    let r = short(cfg);
    let names: Vec<&str> = r.task_report.iter().map(|(n, _)| n.as_str()).collect();
    assert!(!names.contains(&"security-monitor"));
}

#[test]
fn attack_before_end_of_short_run_is_launched() {
    let mut cfg = ScenarioConfig::fig6();
    cfg.attacks = AttackScript::single(SimTime::from_secs(1), AttackEvent::KillComplex);
    let r = short(cfg);
    assert_eq!(r.attack_onset, Some(SimTime::from_secs(1)));
    assert!(r
        .telemetry
        .markers()
        .iter()
        .any(|m| m.label == "attack start: kill-complex"));
    // 3 s run: kill at 1 s, switch by ~1.6 s.
    assert!(r.switch_time.is_some());
}

#[test]
fn stream_rates_scale_with_duration() {
    let r = short(ScenarioConfig::healthy());
    let imu = r.streams.iter().find(|s| s.name == "IMU").unwrap();
    assert!((imu.measured_hz - 250.0).abs() < 5.0, "{}", imu.measured_hz);
    let motor = r.streams.iter().find(|s| s.name == "Motor Output").unwrap();
    assert!(
        (motor.measured_hz - 400.0).abs() < 8.0,
        "{}",
        motor.measured_hz
    );
}

#[test]
fn rx_socket_sees_exactly_the_motor_stream_when_healthy() {
    let r = short(ScenarioConfig::healthy());
    let stats = r.rx_socket_stats;
    assert_eq!(stats.dropped_overflow, 0);
    assert_eq!(stats.dropped_ratelimit, 0);
    // Motor frames at 400 Hz plus 1 Hz heartbeats.
    let expected = 3 * 400 + 3;
    let got = stats.delivered as i64;
    assert!(
        (got - expected).abs() <= 8,
        "delivered {got}, expected ≈{expected}"
    );
}

#[test]
fn determinism_holds_for_short_runs_too() {
    let a = short(ScenarioConfig::healthy());
    let b = short(ScenarioConfig::healthy());
    assert_eq!(a.telemetry.to_csv(), b.telemetry.to_csv());
}

#[test]
fn set_attacks_swaps_only_the_unfired_tail() {
    let kill_at =
        |ms: u64| AttackScript::single(SimTime::from_millis(ms), AttackEvent::KillComplex);
    let mut fork =
        Scenario::new(ScenarioConfig::healthy().with_duration(SimDuration::from_secs(3))).start();
    // At t = 0 nothing has fired, not even an entry due at 0.
    assert!(fork.clone().set_attacks(kill_at(0)).is_ok());
    fork.advance_to_leap(SimTime::from_millis(500));
    // Due by now but never fired: refused, and the run is untouched.
    let refused = fork.set_attacks(kill_at(200)).expect_err("due, unfired");
    assert_eq!((refused.now, refused.entry), (SimTime::from_millis(500), 0));
    // Still ahead: accepted. The fork then finishes exactly as the kill
    // variant flown from t = 0.
    fork.set_attacks(kill_at(1500)).expect("unfired tail");
    let forked = fork.run_to_end();
    let mut kill = ScenarioConfig::healthy();
    kill.attacks = kill_at(1500);
    let fresh = short(kill);
    assert_eq!(forked.config, fresh.config);
    assert_eq!(forked.attack_onset, Some(SimTime::from_millis(1500)));
    assert_eq!(forked.attack_log, fresh.attack_log);
    assert_eq!(forked.switch_time, fresh.switch_time);
    assert_eq!(forked.telemetry.to_csv(), fresh.telemetry.to_csv());
    assert_eq!(
        (forked.sim_steps, forked.quanta_leaped),
        (fresh.sim_steps, fresh.quanta_leaped)
    );
}
