//! The parent side: worker pool, heartbeat deadlines, retry/backoff,
//! quarantine, the ledger, and the byte-stable merged stream.
//!
//! The event loop is a single thread over an mpsc channel fed by one
//! reader thread per worker. All *liveness* decisions (deadlines,
//! backoff pacing) read wall time through the crate's one
//! [`liveness_now`] site; all *output* decisions are pure functions of
//! the spec and the attempt counters, which is what makes the merged
//! JSONL stream byte-identical across worker counts, crash schedules,
//! retry histories, and resume points.
//!
//! **Ordered-prefix emission.** Results land out of order (workers
//! finish when they finish), but the merged file only ever grows by
//! the longest settled prefix in spec order: record `k` is written the
//! moment runs `0..=k` have all settled. Incremental streaming and
//! byte-determinism at once.
//!
//! **Group dispatch.** Runs that share a flight prefix (one
//! [`prefix`](crate::prefix) group) go to the same worker, which flies
//! the prefix once and forks the rest from a snapshot. An idle worker
//! takes the lowest pending run of the group it last ran; otherwise a
//! run of the lowest group no other worker holds; otherwise the lowest
//! pending run. Records therefore settle group by group, and `--stream`
//! emits them in bursts; the bytes are unchanged.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cd_obs::{Counter, Gauge, Registry};

use crate::inject::InjectConfig;
use crate::ledger::{self, Ledger, LedgerError, RunOutcome, Tail};
use crate::prefix::Groups;
use crate::retry::{FailAction, Phase, RetryPolicy, SweepBook};
use crate::spec::{OrchSpec, SpecError};
use crate::wire::{Frame, FrameReader, WireError};
use crate::worker::HEARTBEAT_WINDOW;

/// The crate's single wall-clock read. Liveness only — heartbeat
/// deadlines and backoff pacing; the value never reaches an output
/// byte, a ledger byte, or a metric that tests compare.
#[allow(clippy::disallowed_methods)]
fn liveness_now() -> Instant {
    Instant::now() // cd-lint: allow(wall_clock) -- liveness only (deadlines, backoff pacing); never feeds output bytes
}

/// Everything an orchestration needs to run.
#[derive(Debug, Clone)]
pub struct OrchOptions {
    /// The campaign spec text (see [`OrchSpec::parse`]).
    pub spec_text: String,
    /// Worker process count (≥ 1).
    pub workers: usize,
    /// Merged JSONL output path.
    pub out: PathBuf,
    /// Ledger path (created fresh unless `resume`).
    pub ledger: PathBuf,
    /// Resume from an existing ledger instead of starting fresh.
    pub resume: bool,
    /// Fault-injection rates forwarded to workers.
    pub inject: InjectConfig,
    /// Seed for the deterministic fault schedule.
    pub inject_seed: u64,
    /// Retry/backoff/quarantine limits.
    pub policy: RetryPolicy,
    /// A worker silent this long (no heartbeat, no result) is killed
    /// and its run retried.
    pub deadline_ms: u64,
    /// Path to the `cd-orch` binary to spawn as workers.
    pub worker_exe: PathBuf,
    /// Metrics registry to book `cd_orch_*` series into, if any.
    pub metrics: Option<Arc<Registry>>,
    /// Echo each merged record to stdout as it settles.
    pub stream: bool,
}

impl OrchOptions {
    /// Defaults for everything but the spec: 2 workers, fresh ledger,
    /// no injection, 5 s deadline, this binary as the worker.
    pub fn new(spec_text: impl Into<String>, out: PathBuf, ledger: PathBuf) -> OrchOptions {
        OrchOptions {
            spec_text: spec_text.into(),
            workers: 2,
            out,
            ledger,
            resume: false,
            inject: InjectConfig::default(),
            inject_seed: 0,
            policy: RetryPolicy::default(),
            deadline_ms: 5000,
            worker_exe: std::env::current_exe().unwrap_or_else(|_| PathBuf::from("cd-orch")),
            metrics: None,
            stream: false,
        }
    }
}

/// What a finished orchestration reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchSummary {
    /// Grid size.
    pub runs: usize,
    /// Runs completed successfully (including prior-session ones
    /// replayed from the ledger on resume).
    pub completed: usize,
    /// Runs quarantined as failed.
    pub failed: usize,
    /// Runs replayed from the ledger (resume only).
    pub resumed: usize,
    /// Attempts that failed and were retried.
    pub retries: u64,
    /// Worker processes restarted after a crash, hang, or bad frame.
    pub worker_restarts: u64,
}

/// An orchestration failure.
#[derive(Debug)]
pub enum OrchError {
    /// The spec did not parse.
    Spec(SpecError),
    /// The ledger could not be created, read, or trusted.
    Ledger(LedgerError),
    /// Filesystem/pipe failure outside the ledger.
    Io(std::io::Error),
    /// Workers died repeatedly before ever completing the handshake —
    /// the worker binary or environment is broken, not one run.
    WorkersKeepDying {
        /// Consecutive pre-handshake deaths observed.
        deaths: u32,
    },
}

impl fmt::Display for OrchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchError::Spec(e) => write!(f, "{e}"),
            OrchError::Ledger(e) => write!(f, "{e}"),
            OrchError::Io(e) => write!(f, "i/o error: {e}"),
            OrchError::WorkersKeepDying { deaths } => write!(
                f,
                "{deaths} consecutive workers died before completing the handshake; \
                 the worker binary or environment is broken"
            ),
        }
    }
}

impl std::error::Error for OrchError {}

impl From<SpecError> for OrchError {
    fn from(e: SpecError) -> Self {
        OrchError::Spec(e)
    }
}

impl From<LedgerError> for OrchError {
    fn from(e: LedgerError) -> Self {
        OrchError::Ledger(e)
    }
}

impl From<std::io::Error> for OrchError {
    fn from(e: std::io::Error) -> Self {
        OrchError::Io(e)
    }
}

/// `cd_orch_*` series, registered once per orchestration.
struct Meters {
    runs_ok: Counter,
    runs_failed: Counter,
    retries: Counter,
    quarantines: Counter,
    restarts: Counter,
    workers: Gauge,
    pending: Gauge,
}

impl Meters {
    fn register(registry: &Registry) -> Meters {
        Meters {
            runs_ok: registry.counter(
                "cd_orch_runs_total",
                "Scenario runs settled by the orchestrator",
                &[("outcome", "ok")],
            ),
            runs_failed: registry.counter(
                "cd_orch_runs_total",
                "Scenario runs settled by the orchestrator",
                &[("outcome", "failed")],
            ),
            retries: registry.counter(
                "cd_orch_retries_total",
                "Failed attempts re-dispatched under backoff",
                &[],
            ),
            quarantines: registry.counter(
                "cd_orch_quarantines_total",
                "Runs quarantined after exhausting attempts",
                &[],
            ),
            restarts: registry.counter(
                "cd_orch_worker_restarts_total",
                "Worker processes restarted after crash, hang, or bad frame",
                &[],
            ),
            workers: registry.gauge("cd_orch_workers", "Live worker processes", &[]),
            pending: registry.gauge("cd_orch_runs_pending", "Runs not yet settled", &[]),
        }
    }
}

enum Event {
    Frame(u64, Frame),
    /// The worker's stdout produced an undecodable frame.
    Broken(u64, WireError),
    /// The worker's stdout closed (it exited or was killed).
    Gone(u64),
}

enum WorkerState {
    Handshaking,
    Idle,
    Busy { run: usize },
}

struct Worker {
    child: Child,
    stdin: ChildStdin,
    state: WorkerState,
    last_seen: Instant,
    /// The group of the last run dispatched to this worker — the group
    /// whose snapshots it holds.
    group: Option<usize>,
}

/// Runs an orchestration to completion.
pub fn run(opts: &OrchOptions) -> Result<OrchSummary, OrchError> {
    let spec = OrchSpec::parse(&opts.spec_text)?;
    let campaign = spec.campaign();
    let variants = campaign.variants();
    let runs = variants.len();
    let groups = Groups::new(variants, HEARTBEAT_WINDOW);
    let canonical = spec.canonical();
    let digest = spec.digest();

    // ---- Ledger: fresh, or replayed for --resume. -------------------
    let mut slots: Vec<Option<Vec<u8>>> = vec![None; runs];
    let mut book = SweepBook::new(runs, opts.policy);
    let mut resumed = 0usize;
    let mut failed_prior = 0usize;
    let mut ledger = if opts.resume {
        let load = ledger::load(&opts.ledger)?;
        if load.digest != digest {
            return Err(OrchError::Ledger(LedgerError::DigestMismatch {
                ledger: load.digest,
                spec: digest,
            }));
        }
        let keep = match load.tail {
            Tail::Clean => None,
            Tail::Torn { offset } => {
                eprintln!(
                    "cd-orch: ledger has a torn tail record at offset {offset} \
                     (interrupted append); truncating and resuming"
                );
                Some(offset)
            }
        };
        for record in &load.records {
            let run = record.run as usize;
            if run >= runs {
                return Err(OrchError::Ledger(LedgerError::RunOutOfRange {
                    offset: record.offset,
                    run: record.run,
                    runs,
                }));
            }
            if slots[run].is_some() {
                continue; // duplicate append; first record wins
            }
            slots[run] = Some(record.jsonl.clone());
            let failed = record.outcome == RunOutcome::Failed;
            book.mark_done_prior(run, failed);
            resumed += 1;
            if failed {
                failed_prior += 1;
            }
        }
        let keep = keep.unwrap_or(std::fs::metadata(&opts.ledger)?.len());
        Ledger::open_append(&opts.ledger, keep)?
    } else {
        Ledger::create(&opts.ledger, digest)?
    };

    // ---- Merged output: ordered-prefix emission. --------------------
    // On resume the file is rewritten from scratch; replayed records
    // re-emit first, so the final bytes never depend on where the
    // previous session died.
    let mut out = BufWriter::new(File::create(&opts.out)?);
    let mut next_emit = 0usize;
    let emit_prefix = |slots: &[Option<Vec<u8>>],
                       next_emit: &mut usize,
                       out: &mut BufWriter<File>,
                       stream: bool|
     -> Result<(), OrchError> {
        while let Some(Some(jsonl)) = slots.get(*next_emit) {
            out.write_all(jsonl)?;
            if stream {
                let mut stdout = std::io::stdout().lock();
                stdout.write_all(jsonl)?;
                stdout.flush()?;
            }
            *next_emit += 1;
        }
        out.flush()?;
        Ok(())
    };
    emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;

    let meters = opts.metrics.as_ref().map(|r| Meters::register(r));
    if let Some(m) = &meters {
        m.pending.set(book.remaining() as f64);
    }

    // ---- Worker pool. -----------------------------------------------
    let (tx, rx): (Sender<Event>, Receiver<Event>) = channel();
    let mut pool: BTreeMap<u64, Worker> = BTreeMap::new();
    let mut next_wid: u64 = 0;
    let mut restarts: u64 = 0;
    let mut retries: u64 = 0;
    let mut quarantined = 0usize;
    // Consecutive worker deaths with no handshake ever completing —
    // the "worker binary is broken" fuse. Reset on every Ready.
    let mut handshake_deaths: u32 = 0;
    const HANDSHAKE_FUSE: u32 = 8;

    let want_workers = opts.workers.max(1).min(runs.max(1));
    for _ in 0..want_workers {
        if book.remaining() == 0 {
            break;
        }
        spawn_worker(opts, &canonical, &tx, &mut pool, &mut next_wid)?;
    }
    if let Some(m) = &meters {
        m.workers.set(pool.len() as f64);
    }

    let deadline = Duration::from_millis(opts.deadline_ms.max(1));
    let mut last_tick = liveness_now();

    while !book.all_settled() {
        // -- Pace backoff delays by real elapsed time. ----------------
        let now = liveness_now();
        let elapsed_ms = now.duration_since(last_tick).as_millis() as u64;
        if elapsed_ms > 0 {
            book.pace(elapsed_ms);
            last_tick = now;
        }

        // -- Reap workers silent past the deadline. -------------------
        let mut dead: Vec<u64> = Vec::new();
        for (&wid, worker) in &pool {
            let silent = now.duration_since(worker.last_seen) > deadline;
            if silent && !matches!(worker.state, WorkerState::Idle) {
                dead.push(wid);
            }
        }
        for wid in dead {
            let why = "no heartbeat within deadline";
            fail_worker(
                wid,
                why,
                opts,
                &canonical,
                &tx,
                &mut pool,
                &mut next_wid,
                &mut book,
                &mut slots,
                &mut ledger,
                variants,
                &meters,
                &mut retries,
                &mut quarantined,
                &mut restarts,
                &mut handshake_deaths,
            )?;
            emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
        }
        if handshake_deaths >= HANDSHAKE_FUSE {
            shutdown(&mut pool, &rx);
            return Err(OrchError::WorkersKeepDying {
                deaths: handshake_deaths,
            });
        }

        // -- Dispatch pending runs to idle workers. -------------------
        let mut idle: Vec<u64> = pool
            .iter()
            .filter(|(_, w)| matches!(w.state, WorkerState::Idle))
            .map(|(&wid, _)| wid)
            .collect();
        for wid in idle.drain(..) {
            let last = pool.get(&wid).and_then(|w| w.group);
            let held = |group| {
                pool.iter()
                    .any(|(&other, w)| other != wid && w.group == Some(group))
            };
            let Some(run) = groups.pick(last, |r| book.phase(r) == Phase::Pending, held) else {
                break;
            };
            let attempt = book.start(run);
            let ok = {
                let worker = pool.get_mut(&wid).expect("idle wid is in the pool");
                worker.state = WorkerState::Busy { run };
                worker.group = Some(groups.group_of(run));
                worker.last_seen = liveness_now();
                writeln!(worker.stdin, "RUN {run} {attempt}")
                    .and_then(|_| worker.stdin.flush())
                    .is_ok()
            };
            if !ok {
                // Its pipe is gone: the worker died between frames.
                fail_worker(
                    wid,
                    "stdin pipe closed",
                    opts,
                    &canonical,
                    &tx,
                    &mut pool,
                    &mut next_wid,
                    &mut book,
                    &mut slots,
                    &mut ledger,
                    variants,
                    &meters,
                    &mut retries,
                    &mut quarantined,
                    &mut restarts,
                    &mut handshake_deaths,
                )?;
                emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
            }
        }
        if let Some(m) = &meters {
            m.pending.set(book.remaining() as f64);
            m.workers.set(pool.len() as f64);
        }

        // -- Wait for the next event. ---------------------------------
        let event = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(event) => event,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => {
                // All reader threads gone with work remaining; the
                // loop above will respawn on the next deadline pass.
                continue;
            }
        };
        match event {
            Event::Frame(wid, frame) => {
                if let Some(worker) = pool.get_mut(&wid) {
                    worker.last_seen = liveness_now();
                } else {
                    continue; // late frame from an already-reaped worker
                }
                match frame {
                    Frame::Ready {
                        digest: worker_digest,
                    } => {
                        if worker_digest == digest {
                            handshake_deaths = 0;
                            if let Some(worker) = pool.get_mut(&wid) {
                                if matches!(worker.state, WorkerState::Handshaking) {
                                    worker.state = WorkerState::Idle;
                                }
                            }
                        } else {
                            // A worker that parsed the same bytes to a
                            // different digest is a broken build; the
                            // handshake fuse stops the respawn churn.
                            fail_worker(
                                wid,
                                "handshake digest mismatch",
                                opts,
                                &canonical,
                                &tx,
                                &mut pool,
                                &mut next_wid,
                                &mut book,
                                &mut slots,
                                &mut ledger,
                                variants,
                                &meters,
                                &mut retries,
                                &mut quarantined,
                                &mut restarts,
                                &mut handshake_deaths,
                            )?;
                        }
                    }
                    Frame::Heartbeat { .. } => {}
                    Frame::Result { run, jsonl } => {
                        let expected = pool.get(&wid).is_some_and(
                            |w| matches!(w.state, WorkerState::Busy { run: r } if r == run as usize),
                        );
                        if !expected {
                            // A result we did not ask this worker for:
                            // treat the worker as compromised.
                            fail_worker(
                                wid,
                                "unsolicited result frame",
                                opts,
                                &canonical,
                                &tx,
                                &mut pool,
                                &mut next_wid,
                                &mut book,
                                &mut slots,
                                &mut ledger,
                                variants,
                                &meters,
                                &mut retries,
                                &mut quarantined,
                                &mut restarts,
                                &mut handshake_deaths,
                            )?;
                        } else {
                            let run = run as usize;
                            if let Some(worker) = pool.get_mut(&wid) {
                                worker.state = WorkerState::Idle;
                            }
                            book.complete(run);
                            ledger.append(run as u32, RunOutcome::Ok, &jsonl)?;
                            slots[run] = Some(jsonl);
                            if let Some(m) = &meters {
                                m.runs_ok.inc();
                            }
                            emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
                        }
                    }
                }
            }
            Event::Broken(wid, why) => {
                let why = format!("bad frame: {why}");
                fail_worker(
                    wid,
                    &why,
                    opts,
                    &canonical,
                    &tx,
                    &mut pool,
                    &mut next_wid,
                    &mut book,
                    &mut slots,
                    &mut ledger,
                    variants,
                    &meters,
                    &mut retries,
                    &mut quarantined,
                    &mut restarts,
                    &mut handshake_deaths,
                )?;
                emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
            }
            Event::Gone(wid) => {
                fail_worker(
                    wid,
                    "worker exited",
                    opts,
                    &canonical,
                    &tx,
                    &mut pool,
                    &mut next_wid,
                    &mut book,
                    &mut slots,
                    &mut ledger,
                    variants,
                    &meters,
                    &mut retries,
                    &mut quarantined,
                    &mut restarts,
                    &mut handshake_deaths,
                )?;
                emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
            }
        }
    }

    emit_prefix(&slots, &mut next_emit, &mut out, opts.stream)?;
    debug_assert_eq!(next_emit, runs);
    shutdown(&mut pool, &rx);
    if let Some(m) = &meters {
        m.pending.set(0.0);
        m.workers.set(0.0);
    }

    Ok(OrchSummary {
        runs,
        completed: runs - failed_prior - quarantined,
        failed: failed_prior + quarantined,
        resumed,
        retries,
        worker_restarts: restarts,
    })
}

/// Spawns one worker, writes its spec preamble, and starts its reader
/// thread.
fn spawn_worker(
    opts: &OrchOptions,
    canonical: &str,
    tx: &Sender<Event>,
    pool: &mut BTreeMap<u64, Worker>,
    next_wid: &mut u64,
) -> Result<(), OrchError> {
    let wid = *next_wid;
    *next_wid += 1;
    let mut cmd = Command::new(&opts.worker_exe);
    cmd.arg("--worker")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if !opts.inject.is_off() {
        cmd.arg("--inject")
            .arg(opts.inject.render())
            .arg("--inject-seed")
            .arg(opts.inject_seed.to_string());
    }
    let mut child = cmd.spawn()?;
    let mut stdin = child.stdin.take().expect("stdin was piped");
    let stdout = child.stdout.take().expect("stdout was piped");

    // The preamble may hit a pipe the child already closed (it died
    // instantly); the reader thread reports that as Gone.
    let _ = write!(stdin, "SPEC {}\n{canonical}", canonical.len());
    let _ = stdin.flush();

    let reader_tx = tx.clone();
    std::thread::Builder::new()
        .name(format!("cd-orch-reader-{wid}"))
        .spawn(move || {
            let mut frames = FrameReader::new(stdout);
            loop {
                match frames.next_frame() {
                    Ok(Some(frame)) => {
                        if reader_tx.send(Event::Frame(wid, frame)).is_err() {
                            return;
                        }
                    }
                    Ok(None) => {
                        let _ = reader_tx.send(Event::Gone(wid));
                        return;
                    }
                    Err(e) => {
                        let _ = reader_tx.send(Event::Broken(wid, e));
                        return;
                    }
                }
            }
        })?;

    pool.insert(
        wid,
        Worker {
            child,
            stdin,
            state: WorkerState::Handshaking,
            last_seen: liveness_now(),
            group: None,
        },
    );
    Ok(())
}

/// Kills and removes a failed worker, books the failure of whatever it
/// was running (retry or quarantine), and respawns a replacement if
/// work remains.
#[allow(clippy::too_many_arguments)] // one call path; a struct would just rename the lines
fn fail_worker(
    wid: u64,
    why: &str,
    opts: &OrchOptions,
    canonical: &str,
    tx: &Sender<Event>,
    pool: &mut BTreeMap<u64, Worker>,
    next_wid: &mut u64,
    book: &mut SweepBook,
    slots: &mut [Option<Vec<u8>>],
    ledger: &mut Ledger,
    variants: &[cd_bench::campaign::Variant],
    meters: &Option<Meters>,
    retries: &mut u64,
    quarantined: &mut usize,
    restarts: &mut u64,
    handshake_deaths: &mut u32,
) -> Result<(), OrchError> {
    let Some(mut worker) = pool.remove(&wid) else {
        return Ok(()); // already reaped by an earlier event
    };
    let _ = worker.child.kill();
    let _ = worker.child.wait();

    match worker.state {
        WorkerState::Handshaking => {
            *handshake_deaths += 1;
        }
        WorkerState::Idle => {}
        WorkerState::Busy { run } => match book.fail(run) {
            FailAction::Retry { attempt, delay_ms } => {
                *retries += 1;
                if let Some(m) = meters {
                    m.retries.inc();
                }
                eprintln!(
                    "cd-orch: worker {wid} lost run {run} ({why}); \
                     retry as attempt {attempt} after {delay_ms}ms"
                );
            }
            FailAction::Quarantine => {
                *quarantined += 1;
                if let Some(m) = meters {
                    m.quarantines.inc();
                    m.runs_failed.inc();
                }
                let variant = &variants[run];
                let jsonl = quarantine_record(&variant.label, variant.config.seed);
                eprintln!(
                    "cd-orch: run {run} ({}) quarantined after {} attempts ({why})",
                    variant.label,
                    book.failures(run),
                );
                ledger.append(run as u32, RunOutcome::Failed, jsonl.as_bytes())?;
                slots[run] = Some(jsonl.into_bytes());
            }
        },
    }

    if book.remaining() > 0 {
        *restarts += 1;
        if let Some(m) = meters {
            m.restarts.inc();
        }
        spawn_worker(opts, canonical, tx, pool, next_wid)?;
    }
    Ok(())
}

/// The synthesized record for a quarantined run. Attempt counts and
/// timings are deliberately absent: the record must be a pure function
/// of the variant so the merged stream stays byte-stable.
pub fn quarantine_record(label: &str, seed: u64) -> String {
    format!("{{\"variant\":\"{label}\",\"seed\":{seed},\"outcome\":\"failed\"}}\n")
}

/// Asks every worker to exit and reaps each one once its stdout closes
/// (its reader thread's `Gone`), all within one 500 ms deadline; kills
/// whatever is still running at the deadline.
fn shutdown(pool: &mut BTreeMap<u64, Worker>, rx: &Receiver<Event>) {
    for (_, worker) in pool.iter_mut() {
        let _ = writeln!(worker.stdin, "EXIT");
        let _ = worker.stdin.flush();
    }
    let deadline = liveness_now() + Duration::from_millis(500);
    while !pool.is_empty() {
        let left = deadline.saturating_duration_since(liveness_now());
        let (wid, exited) = match rx.recv_timeout(left) {
            Ok(Event::Gone(wid)) => (wid, true),
            // The reader stopped on a bad frame; the process may live on.
            Ok(Event::Broken(wid, _)) => (wid, false),
            Ok(Event::Frame(..)) => continue,
            Err(_) => break,
        };
        if let Some(mut worker) = pool.remove(&wid) {
            if !exited {
                let _ = worker.child.kill();
            }
            let _ = worker.child.wait();
        }
    }
    for (_, mut worker) in std::mem::take(pool) {
        let _ = worker.child.kill();
        let _ = worker.child.wait();
    }
}

/// Runs the spec **in-process** through the `Campaign` layer — the
/// reference the orchestrator's merged stream is byte-compared
/// against in tests and CI.
pub fn reference_bytes(spec_text: &str) -> Result<Vec<u8>, OrchError> {
    let spec = OrchSpec::parse(spec_text)?;
    Ok(spec.campaign().run().jsonl_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_record_is_minimal_and_stable() {
        assert_eq!(
            quarantine_record("kill/stock/seed7", 7),
            "{\"variant\":\"kill/stock/seed7\",\"seed\":7,\"outcome\":\"failed\"}\n"
        );
    }

    #[test]
    fn options_default_to_this_binary_and_no_injection() {
        let opts = OrchOptions::new("", PathBuf::from("o"), PathBuf::from("l"));
        assert_eq!(opts.workers, 2);
        assert!(opts.inject.is_off());
        assert!(!opts.resume);
        assert_eq!(opts.policy.max_attempts, 8);
    }
}
