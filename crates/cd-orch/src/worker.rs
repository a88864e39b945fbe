//! The worker side of the orchestrator: `cd-orch --worker`.
//!
//! A worker is a thin, disposable shell around
//! [`cd_bench::campaign::run_one_windowed`]. Its whole conversation
//! with the parent:
//!
//! ```text
//! stdin  (text):  SPEC <len>\n<len spec bytes>   once, at startup
//! stdout (frame): Ready { digest }               handshake
//! stdin  (text):  RUN <run> <attempt>\n          repeated
//! stdout (frame): Heartbeat { run } …            one per sim window
//! stdout (frame): Result { run, jsonl }          the settled record
//! stdin  (text):  EXIT\n  (or EOF)               shut down
//! ```
//!
//! The worker never prints anything else on stdout — frames only —
//! and never makes a retry/ordering decision; all policy lives in the
//! parent. Under `--inject` the worker consults the deterministic
//! per-`(run, attempt)` draw and misbehaves on cue: aborts mid-run,
//! stalls forever (heartbeats stop, the parent's deadline reaps it),
//! or corrupts its result frame's checksum.
//!
//! **Shared prefixes.** The parent hands a worker the runs of one
//! [`prefix`](crate::prefix) group in a row. While flying a run, the
//! worker snapshots it at the branch points its not-yet-flown siblings
//! can fork from, and starts each run from the deepest snapshot whose
//! fired timeline entries agree with its own. It keeps snapshots for
//! the current group only, at most one per branch point, and drops them
//! when the group changes. A fresh worker — a replacement after a
//! crash — starts with none and flies from t = 0. Either way the record
//! is byte-identical.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};

use cd_bench::campaign::{run_one_windowed, CampaignOutcome, Fork, Variant};
use containerdrone_core::RunningScenario;
use sim_core::time::{SimDuration, SimTime};

use crate::inject::{Fault, InjectConfig};
use crate::prefix::Groups;
use crate::spec::OrchSpec;
use crate::wire::{encode, Frame};

/// Sim-time window between heartbeats: small enough that a handful of
/// windows fit even the shortest smoke flight, large enough that the
/// leap executor still skips quiescent stretches inside a window.
/// Shared-prefix branch points fall on its multiples.
pub const HEARTBEAT_WINDOW: SimDuration = SimDuration::from_millis(250);

/// The flying half of a worker: the grid, its groups, and the snapshot
/// cache of the group being flown.
struct Runner {
    variants: Vec<Variant>,
    groups: Groups,
    /// The group the cache belongs to.
    group: Option<usize>,
    /// Runs of that group this worker has flown.
    flown: Vec<usize>,
    /// Snapshots by branch point.
    snapshots: BTreeMap<SimTime, RunningScenario>,
}

impl Runner {
    fn new(variants: &[Variant]) -> Runner {
        Runner {
            variants: variants.to_vec(),
            groups: Groups::new(variants, HEARTBEAT_WINDOW),
            group: None,
            flown: Vec::new(),
            snapshots: BTreeMap::new(),
        }
    }

    /// Flies run `run`, from the deepest usable snapshot, handing out
    /// the snapshots its siblings need; `progress` sees every window.
    fn fly(&mut self, run: usize, progress: &mut dyn FnMut(SimTime)) -> CampaignOutcome {
        let group = self.groups.group_of(run);
        if self.group != Some(group) {
            self.group = Some(group);
            self.flown.clear();
            self.snapshots.clear();
        }
        let variant = &self.variants[run];
        let from = self.snapshots.values().rev().find_map(|snapshot| {
            let mut fork = snapshot.clone();
            fork.set_attacks(variant.config.attacks.clone())
                .ok()
                .map(|()| fork)
        });
        let flown = &self.flown;
        let points = self
            .groups
            .snapshot_points(run, &self.variants, |s| !flown.contains(&s));
        let snapshots = &mut self.snapshots;
        let outcome = run_one_windowed(
            variant,
            HEARTBEAT_WINDOW,
            progress,
            Fork {
                from,
                points: &points,
                snapshot: Some(&mut |snapshot: RunningScenario| {
                    snapshots.insert(snapshot.now(), snapshot);
                }),
            },
        );
        self.flown.push(run);
        outcome
    }
}

/// Runs the worker protocol over this process's stdin/stdout until
/// `EXIT` or EOF. Returns the process exit code.
pub fn worker_main(inject: InjectConfig, inject_seed: u64) -> i32 {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut input = stdin.lock();
    let mut output = stdout.lock();
    match serve(&mut input, &mut output, inject, inject_seed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("cd-orch worker: {e}");
            1
        }
    }
}

/// The worker protocol loop, factored over generic streams for tests.
pub fn serve<R: BufRead, W: Write>(
    input: &mut R,
    output: &mut W,
    inject: InjectConfig,
    inject_seed: u64,
) -> Result<(), String> {
    // Preamble: the spec bytes, length-prefixed on a text line.
    let mut line = String::new();
    if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
        return Ok(()); // parent vanished before the spec: quiet exit
    }
    let len: usize = line
        .trim()
        .strip_prefix("SPEC ")
        .ok_or_else(|| format!("expected `SPEC <len>`, got `{}`", line.trim()))?
        .parse()
        .map_err(|e| format!("bad SPEC length: {e}"))?;
    let mut spec_bytes = vec![0u8; len];
    input
        .read_exact(&mut spec_bytes)
        .map_err(|e| format!("reading {len} spec bytes: {e}"))?;
    let spec_text = String::from_utf8(spec_bytes).map_err(|e| format!("spec not UTF-8: {e}"))?;
    let spec = OrchSpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let mut runner = Runner::new(spec.campaign().variants());

    send(
        output,
        &Frame::Ready {
            digest: spec.digest(),
        },
    )?;

    loop {
        let mut line = String::new();
        if input.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Ok(()); // EOF: parent closed our stdin
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line == "EXIT" {
            return Ok(());
        }
        let mut parts = line.split_whitespace();
        let (cmd, run, attempt) = (parts.next(), parts.next(), parts.next());
        let (Some("RUN"), Some(run), Some(attempt), None) = (cmd, run, attempt, parts.next())
        else {
            return Err(format!("unknown command `{line}`"));
        };
        let run: u32 = run.parse().map_err(|e| format!("RUN index: {e}"))?;
        let attempt: u32 = attempt.parse().map_err(|e| format!("RUN attempt: {e}"))?;
        let runs = runner.variants.len();
        if run as usize >= runs {
            return Err(format!("RUN {run} outside the {runs}-variant grid"));
        }

        let fault = inject.draw(inject_seed, run, attempt);
        let mut window_no = 0u64;
        let outcome = runner.fly(run as usize, &mut |_now| {
            window_no += 1;
            if window_no == 1 {
                match fault {
                    // Die exactly as an OOM-kill would: no
                    // unwinding, no farewell frame.
                    Some(Fault::Kill) => std::process::abort(),
                    // Stop making progress; the parent's deadline
                    // reaps us. Sleep in a loop so a spurious
                    // wakeup can't resurrect the run.
                    Some(Fault::Stall) => loop {
                        std::thread::sleep(std::time::Duration::from_secs(3600));
                    },
                    _ => {}
                }
            }
            // Heartbeats ride stdout between result frames. A
            // failed write means the parent is gone; dying loudly
            // here is fine — the run will be retried elsewhere.
            let _ = send_heartbeat(output, run);
        });

        let mut frame = encode(&Frame::Result {
            run,
            jsonl: outcome.jsonl_record().into_bytes(),
        });
        if fault == Some(Fault::Garbage) {
            // Corrupt the checksum field: the frame still parses as a
            // well-formed header, but the CRC check must catch it.
            frame[6] ^= 0xA5;
        }
        output.write_all(&frame).map_err(|e| e.to_string())?;
        output.flush().map_err(|e| e.to_string())?;
    }
}

fn send<W: Write>(output: &mut W, frame: &Frame) -> Result<(), String> {
    output
        .write_all(&encode(frame))
        .map_err(|e| e.to_string())?;
    output.flush().map_err(|e| e.to_string())
}

fn send_heartbeat<W: Write>(output: &mut W, run: u32) -> std::io::Result<()> {
    output.write_all(&encode(&Frame::Heartbeat { run }))?;
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::FrameReader;
    use std::io::Cursor;

    const SPEC: &str = "name: t\nduration_ms: 1200\nseeds: 1\nattacks: none\nprotections: stock\n";

    fn feed(commands: &str) -> Vec<u8> {
        let mut input = format!("SPEC {}\n", SPEC.len());
        input.push_str(SPEC);
        input.push_str(commands);
        let mut out = Vec::new();
        serve(
            &mut Cursor::new(input.into_bytes()),
            &mut out,
            InjectConfig::default(),
            0,
        )
        .expect("serve");
        out
    }

    #[test]
    fn handshakes_runs_and_exits() {
        let out = feed("RUN 0 1\nEXIT\n");
        let mut reader = FrameReader::new(out.as_slice());
        let spec = OrchSpec::parse(SPEC).expect("spec");
        assert_eq!(
            reader.next_frame().expect("ready"),
            Some(Frame::Ready {
                digest: spec.digest()
            })
        );
        let mut heartbeats = 0;
        let result = loop {
            match reader.next_frame().expect("frame") {
                Some(Frame::Heartbeat { run }) => {
                    assert_eq!(run, 0);
                    heartbeats += 1;
                }
                Some(Frame::Result { run, jsonl }) => break (run, jsonl),
                other => panic!("unexpected {other:?}"),
            }
        };
        // 1200ms flight / 250ms windows → at least 4 heartbeats.
        assert!(heartbeats >= 4, "only {heartbeats} heartbeats");
        assert_eq!(result.0, 0);
        // The record is exactly what the in-process reference emits.
        let reference = cd_bench::campaign::run_one(&spec.campaign().variants()[0]);
        assert_eq!(result.1, reference.jsonl_record().into_bytes());
        assert!(reader.next_frame().expect("eof").is_none());
    }

    #[test]
    fn garbage_fault_corrupts_the_result_frame_only() {
        let mut input = format!("SPEC {}\n", SPEC.len());
        input.push_str(SPEC);
        input.push_str("RUN 0 1\nEXIT\n");
        let mut out = Vec::new();
        // garbage:1.0 → every attempt draws Garbage.
        let inject = InjectConfig::parse("garbage:1").expect("inject");
        serve(&mut Cursor::new(input.into_bytes()), &mut out, inject, 7).expect("serve");
        let mut reader = FrameReader::new(out.as_slice());
        assert!(matches!(
            reader.next_frame().expect("ready"),
            Some(Frame::Ready { .. })
        ));
        // Heartbeats arrive intact; the result frame's CRC must fail.
        let err = loop {
            match reader.next_frame() {
                Ok(Some(Frame::Heartbeat { .. })) => {}
                Err(e) => break e,
                other => panic!("expected checksum failure, got {other:?}"),
            }
        };
        assert!(matches!(err, crate::wire::WireError::Checksum { .. }));
    }

    #[test]
    fn a_group_flown_in_reverse_forks_from_its_own_snapshots() {
        // Two groups (one per seed) of all six attacks, crossing both
        // onsets. Reverse order flies hog+kill (run 6) before hog
        // (run 4), so hog must fork from hog+kill's 5.75 s snapshot.
        let spec = OrchSpec::parse(
            "duration_ms: 6500\nseeds: 1 2\nattacks: none kill hog hog+kill flood spoof\n",
        )
        .expect("spec");
        let campaign = spec.campaign();
        let variants = campaign.variants();
        let mut runner = Runner::new(variants);
        let bound = runner.groups.branch_points(0, variants).len();
        assert_eq!(bound, 2);
        let (early, late) = (SimTime::from_millis(2750), SimTime::from_millis(5750));
        for run in [10, 8, 6, 4, 2, 0] {
            let outcome = runner.fly(run, &mut |_| {});
            let reference = cd_bench::campaign::run_one(&variants[run]);
            assert_eq!(
                outcome.jsonl_record(),
                reference.jsonl_record(),
                "run {run}"
            );
            assert!(runner.snapshots.len() <= bound, "run {run}");
            if run == 6 {
                let held: Vec<SimTime> = runner.snapshots.keys().copied().collect();
                assert_eq!(held, [early, late], "hog+kill snapshots for its siblings");
            }
        }
        // A run of the other group drops the first group's snapshots.
        runner.fly(1, &mut |_| {});
        let held: Vec<SimTime> = runner.snapshots.keys().copied().collect();
        assert_eq!(held, [early]);
    }

    #[test]
    fn rejects_out_of_grid_runs_and_unknown_commands() {
        let mut input = format!("SPEC {}\n", SPEC.len());
        input.push_str(SPEC);
        input.push_str("RUN 99 1\n");
        let mut out = Vec::new();
        let err = serve(
            &mut Cursor::new(input.into_bytes()),
            &mut out,
            InjectConfig::default(),
            0,
        )
        .expect_err("out of grid");
        assert!(err.contains("99"));

        let mut input = format!("SPEC {}\n", SPEC.len());
        input.push_str(SPEC);
        input.push_str("FROB\n");
        let err = serve(
            &mut Cursor::new(input.into_bytes()),
            &mut Vec::new(),
            InjectConfig::default(),
            0,
        )
        .expect_err("unknown command");
        assert!(err.contains("FROB"));
    }
}
