//! End-to-end orchestrator resilience tests, against real worker
//! processes (the compiled `cd-orch` binary).
//!
//! The load-bearing invariant in every test: the merged JSONL stream
//! is **byte-identical** to the in-process `Campaign` reference — no
//! matter the worker count, the injected crash/stall/garbage schedule,
//! or a SIGKILL of the orchestrator itself halfway through.

use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cd_orch::orchestrator::{self, quarantine_record, OrchOptions};
use cd_orch::{InjectConfig, LedgerError, OrchError, OrchSpec, RetryPolicy, RunOutcome};

const SPEC: &str =
    "name: it\nduration_ms: 900\nseeds: 1 2\nattacks: none kill\nprotections: stock no-monitor\n";

/// Long enough to cross both attack onsets (3 s and 6 s), so every
/// attack fires and workers fork siblings from shared-prefix snapshots.
const ATTACK_SPEC: &str = "name: fork\nduration_ms: 6500\nseeds: 1 2\n\
    attacks: none kill hog hog+kill flood spoof\nprotections: stock bare\n";

fn worker_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_cd-orch"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cd-orch-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

fn opts(tag: &str, spec: &str) -> OrchOptions {
    let mut o = OrchOptions::new(
        spec,
        tmp(&format!("{tag}.jsonl")),
        tmp(&format!("{tag}.ledger")),
    );
    o.worker_exe = worker_exe();
    o
}

#[test]
fn merged_stream_is_byte_identical_across_worker_counts() {
    for (tag, spec) in [("wc", SPEC), ("wc-attack", ATTACK_SPEC)] {
        let runs = OrchSpec::parse(spec).expect("spec").len();
        let reference = orchestrator::reference_bytes(spec).expect("reference");
        assert!(!reference.is_empty());
        // The merged wire format must carry the executor's leap counter,
        // and worker runs must actually leap — a zero here is the old
        // reporting bug (orchestrated rows always claimed
        // quanta_leaped: 0) coming back.
        let text = String::from_utf8(reference.clone()).expect("utf8");
        assert!(
            text.lines().all(|l| l.contains("\"quanta_leaped\":")),
            "every merged record must report quanta_leaped: {text}"
        );
        assert!(
            text.lines().any(|l| !l.contains("\"quanta_leaped\":0,")),
            "orchestrated runs must leap somewhere in the sweep: {text}"
        );
        for workers in [1usize, 2, 8] {
            let mut o = opts(&format!("{tag}{workers}"), spec);
            o.workers = workers;
            let summary = orchestrator::run(&o).expect("orchestrate");
            assert_eq!(summary.runs, runs);
            assert_eq!(summary.completed, runs);
            assert_eq!(summary.failed, 0);
            let merged = std::fs::read(&o.out).expect("merged");
            assert_eq!(
                merged, reference,
                "{tag}, workers={workers}: merged stream diverged from the in-process reference"
            );
        }
    }
}

#[test]
fn injected_faults_change_nothing_but_the_retry_count() {
    for (tag, spec) in [("inject", SPEC), ("inject-attack", ATTACK_SPEC)] {
        let runs = OrchSpec::parse(spec).expect("spec").len();
        let reference = orchestrator::reference_bytes(spec).expect("reference");
        let mut o = opts(tag, spec);
        o.workers = 4;
        o.inject = InjectConfig::parse("kill:0.4,stall:0.1,garbage:0.1").expect("inject");
        o.inject_seed = 2019;
        o.deadline_ms = 3000; // stalls are reaped by this deadline
                              // The deterministic schedule for seed 2019 has a 12-deep
                              // fault streak on one run; 16 attempts lets every run clear.
        o.policy = RetryPolicy {
            max_attempts: 16,
            base_delay_ms: 5,
            cap_delay_ms: 50,
        };
        let summary = orchestrator::run(&o).expect("orchestrate");
        assert_eq!(
            summary.completed, runs,
            "{tag}: faults must be survived, not reported"
        );
        assert_eq!(summary.failed, 0);
        assert!(
            summary.retries > 0,
            "a 0.6 per-attempt fault rate over {runs} runs must trigger retries"
        );
        // Every fault costs its worker; a replacement starts with an
        // empty snapshot cache and flies its runs from t = 0.
        assert_eq!(summary.worker_restarts, summary.retries);
        let merged = std::fs::read(&o.out).expect("merged");
        assert_eq!(
            merged, reference,
            "{tag}: injected faults leaked into the output bytes"
        );
    }
}

#[test]
#[allow(clippy::disallowed_methods)] // kill-timing poll loop; wall time never reaches the compared bytes
fn sigkilled_orchestrator_resumes_and_finishes_remaining_work() {
    let reference = orchestrator::reference_bytes(SPEC).expect("reference");
    let spec_path = tmp("resume.spec");
    std::fs::write(&spec_path, SPEC).expect("spec");
    let out = tmp("resume.jsonl");
    let ledger = tmp("resume.ledger");
    std::fs::remove_file(&ledger).ok();

    // Run the real binary so SIGKILL hits the whole orchestrator, and
    // slow it down (1 worker) so the kill lands mid-sweep.
    let mut child = Command::new(worker_exe())
        .arg("--spec")
        .arg(&spec_path)
        .arg("--workers")
        .arg("1")
        .arg("--out")
        .arg(&out)
        .arg("--ledger")
        .arg(&ledger)
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn orchestrator");

    // Wait until the ledger holds at least one settled run, then kill.
    let deadline = Instant::now() + Duration::from_secs(120);
    let progressed = loop {
        if let Ok(bytes) = std::fs::read(&ledger) {
            if let Ok(load) = cd_orch::ledger::parse(&bytes) {
                if !load.records.is_empty() {
                    break true;
                }
            }
        }
        match child.try_wait().expect("try_wait") {
            Some(_) => break false, // finished before we could kill it
            None if Instant::now() > deadline => panic!("no ledger progress in 120s"),
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    if progressed {
        child.kill().expect("SIGKILL"); // Child::kill is SIGKILL on unix
    }
    child.wait().expect("reap");

    // Resume in-process (for the summary) and byte-check the merge.
    let settled_before = cd_orch::ledger::parse(&std::fs::read(&ledger).expect("ledger"))
        .expect("parse")
        .records
        .len();
    let mut o = opts("resume", SPEC);
    o.out = out;
    o.ledger = ledger;
    o.resume = true;
    let summary = orchestrator::run(&o).expect("resume");
    assert_eq!(summary.runs, 8);
    assert_eq!(summary.completed, 8);
    assert_eq!(summary.resumed, settled_before);
    if progressed {
        assert!(summary.resumed > 0, "resume replayed nothing");
    }
    let merged = std::fs::read(&o.out).expect("merged");
    assert_eq!(
        merged, reference,
        "the SIGKILL + --resume boundary leaked into the output bytes"
    );
}

#[test]
fn permanently_failing_runs_quarantine_without_wedging_the_sweep() {
    // Every attempt draws Kill: no run can ever complete.
    let spec = "name: q\nduration_ms: 600\nseeds: 1 2\nattacks: none\nprotections: stock\n";
    let mut o = opts("quarantine", spec);
    o.workers = 2;
    o.inject = InjectConfig::parse("kill:1").expect("inject");
    o.policy = RetryPolicy {
        max_attempts: 3,
        base_delay_ms: 1,
        cap_delay_ms: 5,
    };
    let summary = orchestrator::run(&o).expect("must settle, not wedge");
    assert_eq!(summary.completed, 0);
    assert_eq!(summary.failed, 2);
    assert_eq!(summary.retries, 2 * 2); // 2 runs × (3 attempts - 1)
    let merged = String::from_utf8(std::fs::read(&o.out).expect("merged")).expect("utf8");
    let spec = OrchSpec::parse(spec).expect("spec");
    let campaign = spec.campaign();
    let expected: String = campaign
        .variants()
        .iter()
        .map(|v| quarantine_record(&v.label, v.config.seed))
        .collect();
    assert_eq!(
        merged, expected,
        "quarantine records must be synthesized in spec order"
    );

    // The ledger agrees: every run settled as Failed.
    let load = cd_orch::ledger::parse(&std::fs::read(&o.ledger).expect("ledger")).expect("parse");
    assert_eq!(load.records.len(), 2);
    assert!(load.records.iter().all(|r| r.outcome == RunOutcome::Failed));
}

#[test]
fn resume_refuses_a_corrupt_ledger_naming_the_offset() {
    let mut o = opts("corrupt", SPEC);
    o.workers = 2;
    orchestrator::run(&o).expect("first pass");

    // Damage a byte inside the second record's body, then resume.
    let mut bytes = std::fs::read(&o.ledger).expect("ledger");
    let second = cd_orch::ledger::parse(&bytes).expect("parse").records[1].offset;
    bytes[second as usize + 10] ^= 0xFF;
    std::fs::write(&o.ledger, &bytes).expect("rewrite");

    o.resume = true;
    match orchestrator::run(&o) {
        Err(OrchError::Ledger(LedgerError::Corrupt { offset, reason })) => {
            assert_eq!(offset, second, "error must name the damaged record");
            assert!(reason.contains("checksum"), "reason: {reason}");
        }
        other => panic!("wanted Corrupt at {second}, got {other:?}"),
    }
}

#[test]
fn resume_refuses_a_ledger_from_a_different_spec() {
    let mut o = opts("digest", SPEC);
    o.workers = 2;
    orchestrator::run(&o).expect("first pass");
    o.spec_text = SPEC.replace("seeds: 1 2", "seeds: 3 4");
    o.resume = true;
    match orchestrator::run(&o) {
        Err(OrchError::Ledger(LedgerError::DigestMismatch { .. })) => {}
        other => panic!("wanted DigestMismatch, got {other:?}"),
    }
}

#[test]
fn metrics_registry_counts_the_sweep() {
    let registry = Arc::new(cd_obs::Registry::new());
    let mut o = opts("metrics", SPEC);
    o.workers = 2;
    o.inject = InjectConfig::parse("kill:0.3").expect("inject");
    o.inject_seed = 7;
    o.policy = RetryPolicy {
        max_attempts: 12,
        base_delay_ms: 5,
        cap_delay_ms: 50,
    };
    o.metrics = Some(Arc::clone(&registry));
    let summary = orchestrator::run(&o).expect("orchestrate");
    let text = registry.render_prometheus();
    assert!(
        text.contains("cd_orch_runs_total{outcome=\"ok\"} 8"),
        "{text}"
    );
    assert!(
        text.contains(&format!("cd_orch_retries_total {}", summary.retries)),
        "{text}"
    );
    assert!(
        text.contains(&format!(
            "cd_orch_worker_restarts_total {}",
            summary.worker_restarts
        )),
        "{text}"
    );
    assert!(text.contains("cd_orch_runs_pending 0"), "{text}");
}
