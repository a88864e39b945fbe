//! Fork equivalence: a run forked from a snapshot of a sibling is
//! byte-identical to the same run flown from t = 0.
//!
//! This pins the property the workers' shared-prefix fast path rests
//! on: nothing reads an attack-timeline entry before it fires, except
//! the span clamp. It covers the whole spec vocabulary — every attack ×
//! every protection set × two seeds — on flights long enough to cross
//! both onsets (3 s and 6 s), and compares whole records,
//! `quanta_leaped` included. `cd-orch --reference` stays the oracle: it
//! flies every variant from t = 0.

use cd_bench::campaign::{run_one, run_one_windowed, Fork};
use cd_orch::prefix::Groups;
use cd_orch::worker::HEARTBEAT_WINDOW as WINDOW;
use cd_orch::OrchSpec;
use containerdrone_core::RunningScenario;
use sim_core::time::SimTime;

const SPEC: &str = "name: fork\nduration_ms: 7000\nseeds: 1 2\n\
    attacks: none kill hog hog+kill flood spoof\n\
    protections: stock no-monitor no-memguard no-iptables bare\n";

#[test]
fn every_attacked_variant_forks_byte_identically_at_every_branch_point() {
    let campaign = OrchSpec::parse(SPEC).expect("spec").campaign();
    let variants = campaign.variants();
    let groups = Groups::new(variants, WINDOW);
    assert_eq!(groups.len(), 10, "5 protection sets × 2 seeds");
    let (mut forks, mut skipped) = (0, 0);
    for group in 0..groups.len() {
        let points = groups.branch_points(group, variants);
        assert_eq!(points.len(), 2, "one branch point per onset");

        // Fly every member from t = 0, cut at every branch point, and
        // keep the snapshots. The cuts alone must change nothing.
        let mut snapshots: Vec<(usize, RunningScenario)> = Vec::new();
        let mut reference = Vec::new();
        for &run in groups.members(group) {
            let variant = &variants[run];
            let fresh = run_one(variant).jsonl_record();
            let cut = run_one_windowed(
                variant,
                WINDOW,
                &mut |_| {},
                Fork {
                    from: None,
                    points: &points,
                    snapshot: Some(&mut |s: RunningScenario| snapshots.push((run, s))),
                },
            );
            assert_eq!(
                cut.jsonl_record(),
                fresh,
                "{}: cutting changed the record",
                variant.label
            );
            reference.push((run, fresh));
        }

        // Fork every attacked member at every branch point its flight
        // reaches: from a sibling's snapshot where one agrees with its
        // fired entries, else from its own.
        for (run, fresh) in &reference {
            let variant = &variants[*run];
            if variant.config.attacks.is_empty() {
                continue;
            }
            for &point in &points {
                let at_point = || snapshots.iter().filter(|(_, s)| s.now() == point);
                if !at_point().any(|(origin, _)| origin == run) {
                    // The flight was over (1 s past a crash) before the
                    // point: there is nothing left to fork.
                    assert!(fresh.contains("\"crashed\":true"), "{}", variant.label);
                    skipped += 1;
                    continue;
                }
                let adopt = |s: &RunningScenario| {
                    let mut fork = s.clone();
                    fork.set_attacks(variant.config.attacks.clone())
                        .ok()
                        .map(|()| fork)
                };
                let fork = at_point()
                    .filter(|(origin, _)| origin != run)
                    .find_map(|(_, s)| adopt(s))
                    .or_else(|| at_point().find_map(|(_, s)| adopt(s)))
                    .expect("a run always agrees with its own snapshot");
                let forked = run_one_windowed(
                    variant,
                    WINDOW,
                    &mut |_| {},
                    Fork {
                        from: Some(fork),
                        ..Fork::default()
                    },
                );
                assert_eq!(
                    &forked.jsonl_record(),
                    fresh,
                    "{} forked at {point}",
                    variant.label
                );
                forks += 1;
            }
        }
    }
    // Every attacked variant at both points, less the few flights that
    // crashed and ended before the second.
    assert_eq!(forks + skipped, 10 * 5 * 2);
    assert!(forks >= 90, "only {forks} forks");
}

#[test]
fn a_snapshot_refuses_a_script_that_disagrees_with_what_it_fired() {
    let campaign =
        OrchSpec::parse("duration_ms: 7000\nattacks: none kill hog hog+kill\nprotections: stock\n")
            .expect("spec")
            .campaign();
    let variants = campaign.variants();
    let point = SimTime::from_millis(5750);
    let mut hog = None;
    run_one_windowed(
        &variants[2],
        WINDOW,
        &mut |_| {},
        Fork {
            from: None,
            points: &[point],
            snapshot: Some(&mut |s: RunningScenario| hog = Some(s)),
        },
    );
    let mut hog = hog.expect("hog reached 5.75 s");
    // none and kill disagree with hog's fired history, and a refused
    // swap leaves the run as it was; hog+kill agrees.
    let script = |run: usize| variants[run].config.attacks.clone();
    let refused = hog.set_attacks(script(0)).expect_err("none fired nothing");
    assert_eq!((refused.now, refused.entry), (point, 0));
    assert!(hog.set_attacks(script(1)).is_err());
    assert!(hog.set_attacks(script(3)).is_ok());
}
