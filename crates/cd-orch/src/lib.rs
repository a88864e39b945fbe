//! `cd-orch` — a crash-resilient multi-process campaign orchestrator.
//!
//! The `cd-bench` [`Campaign`](cd_bench::CampaignSpec) layer is a
//! one-shot in-process thread pool: a single worker panic or OOM kill
//! loses the whole sweep. This crate holds the sweep infrastructure to
//! the same standard the paper holds the UAV to — detect failure,
//! bound the damage, and provably recover:
//!
//! * **Worker processes, not threads.** The orchestrator shards
//!   scenario runs across `cd-orch --worker` child processes over
//!   stdin/stdout pipes ([`wire`] frames, length-prefixed and
//!   CRC32-checksummed). A worker dying, hanging, or emitting garbage
//!   costs one attempt of one run, never the sweep.
//! * **Heartbeats and deadlines.** Workers emit a heartbeat frame per
//!   simulated window; a worker silent past the run deadline is
//!   killed and its run retried under capped exponential backoff
//!   ([`retry`] — attempt-counter-driven; wall time never reaches the
//!   output bytes).
//! * **Fault injection built in.** `--inject kill:R,stall:R,garbage:R`
//!   makes workers abort mid-run, hang forever, or corrupt their
//!   result frame on a deterministic per-`(run, attempt)` schedule
//!   ([`inject`]) — the recovery machinery is exercised by CI on every
//!   push, not trusted on faith.
//! * **Quarantine.** A run that keeps failing is quarantined after a
//!   bounded number of attempts and reported as `"outcome":"failed"`;
//!   it can never wedge the sweep.
//! * **Shared prefixes.** Runs that differ only in their attack
//!   timelines fly the same flight until their timelines part. The
//!   parent dispatches such a [`prefix`] group to one worker, which
//!   flies the shared prefix once and forks the siblings from
//!   snapshots — byte-identical to flying each from t = 0.
//! * **Snapshot/resume.** Every completed run is appended to a
//!   checksummed [`ledger`]; after a SIGKILL, `--resume` replays the
//!   intact prefix (a torn tail from a mid-append kill is truncated;
//!   corruption is a structured error naming the bad record offset)
//!   and finishes only the remaining work.
//!
//! The determinism discipline of the fleet executor carries over:
//! results are buffered per-variant and merged in **spec order**, so
//! the merged JSONL stream is byte-identical regardless of worker
//! count, crash schedule, retry history, or resume point — pinned in
//! tests and CI against the in-process `Campaign` reference
//! ([`cd_bench::CampaignReport::jsonl_bytes`]).
//!
//! Live `cd_orch_*` counters (runs, retries, quarantines, worker
//! restarts) register in the existing `cd-obs` registry and serve via
//! `--metrics-addr`.

#![warn(missing_docs)]

pub mod inject;
pub mod ledger;
pub mod orchestrator;
pub mod prefix;
pub mod retry;
pub mod spec;
pub mod wire;
pub mod worker;

pub use inject::{Fault, InjectConfig};
pub use ledger::{Ledger, LedgerError, LedgerRecord, RunOutcome, Tail};
pub use orchestrator::{OrchError, OrchOptions, OrchSummary};
pub use retry::{FailAction, Phase, RetryPolicy, SweepBook};
pub use spec::{OrchSpec, SpecError};
