//! The structured trace layer: sim-time-stamped events in pre-allocated
//! per-source ring buffers, drained to JSONL by the coordinating thread.
//!
//! Determinism by construction: an event carries the virtual clock and a
//! stable source ordinal (vehicle or shard index), never a wall-clock or
//! thread identity. Each simulation source records into its *own*
//! [`ObsPort`] while it advances (possibly on a worker thread); at every
//! poll boundary the coordinating thread drains the ports in
//! vehicle-index order into one [`TraceSink`]. The stream order is
//! therefore `(poll window, source ordinal, emission order)` — a pure
//! function of the simulation, byte-identical at any thread count and
//! under any shard partition.
//!
//! The one deliberately nondeterministic event class, shard rebalances
//! ([`TraceKind::ShardRebalance`] — driven by wall-clock EWMA cost
//! observations, so thread-count-dependent), is masked out of the
//! default stream; [`TraceMask::ALL`] opts into it for executor
//! diagnostics.

use std::io::Write;
use std::sync::{Arc, Mutex};

use sim_core::time::SimTime;

/// What happened. The set is closed on purpose: pre-registering the
/// vocabulary keeps every event fixed-size (no allocation on the record
/// path) and the JSONL schema enumerable in the README.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// An attack-timeline entry armed a driver (`label` = attack name).
    AttackArm,
    /// A cease-fire halted every armed driver.
    AttackCease,
    /// The security monitor killed the rx thread and switched actuation
    /// to the safety controller (the paper's Simplex switch).
    SimplexSwitch,
    /// The vehicle's physics declared a crash (`label` = crash kind).
    Crash,
    /// A periodic release was skipped under overrun (`a` = task ordinal,
    /// `b` = release time in ns) — the deadline-miss indicator.
    DeadlineSkip,
    /// The time-leap executor advanced `a` quanta in closed form and
    /// stopped (`label` = stop reason: `release`, `event`, `declined`,
    /// `target`).
    LeapSpan,
    /// Per-poll-window GCS delta for one vehicle: `a` = telemetry
    /// datagrams dropped by the ingress rate limit, `b` = malformed
    /// datagrams booked. Emitted only when nonzero — per-packet events
    /// at flood rates (20 kpps) would swamp any ring.
    GcsWindow,
    /// Per-poll-window swarm delta for one vehicle: `a` = datagrams the
    /// jam footprint dropped (rate limit + overflow), `b` = garbage that
    /// got past the limiter. Emitted only when nonzero.
    SwarmWindow,
    /// The load balancer moved vehicles between shards
    /// (`ord` = shard, `a` = vehicles in the shard). Wall-clock-driven
    /// and thread-count-dependent — excluded from [`TraceMask::default`].
    ShardRebalance,
}

impl TraceKind {
    const COUNT: usize = 9;

    fn bit(self) -> u16 {
        1 << self.index()
    }

    fn index(self) -> usize {
        match self {
            TraceKind::AttackArm => 0,
            TraceKind::AttackCease => 1,
            TraceKind::SimplexSwitch => 2,
            TraceKind::Crash => 3,
            TraceKind::DeadlineSkip => 4,
            TraceKind::LeapSpan => 5,
            TraceKind::GcsWindow => 6,
            TraceKind::SwarmWindow => 7,
            TraceKind::ShardRebalance => 8,
        }
    }

    /// The event kind's name on the wire (the JSONL `kind` field).
    pub fn key(self) -> &'static str {
        match self {
            TraceKind::AttackArm => "attack_arm",
            TraceKind::AttackCease => "attack_cease",
            TraceKind::SimplexSwitch => "simplex_switch",
            TraceKind::Crash => "crash",
            TraceKind::DeadlineSkip => "deadline_skip",
            TraceKind::LeapSpan => "leap_span",
            TraceKind::GcsWindow => "gcs_window",
            TraceKind::SwarmWindow => "swarm_window",
            TraceKind::ShardRebalance => "shard_rebalance",
        }
    }
}

/// Which event kinds a sink keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceMask(u16);

impl TraceMask {
    /// Every kind, including the thread-count-dependent shard
    /// rebalances. Streams written under this mask are not byte-comparable
    /// between runs: the rebalances follow wall-clock cost estimates.
    pub const ALL: TraceMask = TraceMask((1 << TraceKind::COUNT as u16) - 1);

    /// The deterministic vocabulary: everything except
    /// [`TraceKind::ShardRebalance`]. Streams under this mask are
    /// byte-identical at any thread count.
    pub const DETERMINISTIC: TraceMask = TraceMask(TraceMask::ALL.0 & !(1 << 8));

    /// `true` when the mask keeps `kind`.
    pub fn keeps(self, kind: TraceKind) -> bool {
        self.0 & kind.bit() != 0
    }
}

impl Default for TraceMask {
    fn default() -> Self {
        TraceMask::DETERMINISTIC
    }
}

/// One fixed-size trace event. `a`/`b` are kind-specific payload words
/// (see [`TraceKind`]); `label` is a static string — attack names, leap
/// stop reasons and crash kinds are all `&'static str` in the sim, so
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Virtual-clock timestamp.
    pub t: SimTime,
    /// Stable source ordinal: vehicle index, or shard index for
    /// [`TraceKind::ShardRebalance`].
    pub ord: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Kind-specific static annotation (empty when unused).
    pub label: &'static str,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl Default for TraceEvent {
    fn default() -> Self {
        TraceEvent {
            t: SimTime::ZERO,
            ord: 0,
            kind: TraceKind::Crash,
            label: "",
            a: 0,
            b: 0,
        }
    }
}

/// Appends one event as a JSONL line. Integer-only fields (`t_ns`
/// instead of float seconds), so the rendering is exact and the
/// byte-identity guarantee never hinges on float formatting.
pub fn write_jsonl(ev: &TraceEvent, out: &mut String) {
    use std::fmt::Write as _;
    let _ = write!(
        out,
        "{{\"t_ns\":{},\"ord\":{},\"kind\":\"{}\"",
        ev.t.as_nanos(),
        ev.ord,
        ev.kind.key()
    );
    if !ev.label.is_empty() {
        let _ = write!(out, ",\"label\":\"{}\"", ev.label);
    }
    let _ = writeln!(out, ",\"a\":{},\"b\":{}}}", ev.a, ev.b);
}

/// The pre-allocated event ring behind an attached [`ObsPort`]: capacity
/// fixed at attach time, drop-oldest on overflow (with a counter, so a
/// saturated window is visible rather than silent). Overflow is as
/// deterministic as everything else — same events, same capacity, same
/// drops on every run.
#[derive(Debug)]
pub struct TraceBuf {
    ord: u32,
    buf: Box<[TraceEvent]>,
    start: usize,
    len: usize,
    overwritten: u64,
}

impl TraceBuf {
    fn new(capacity: usize, ord: u32) -> Self {
        TraceBuf {
            ord,
            buf: vec![TraceEvent::default(); capacity.max(1)].into_boxed_slice(),
            start: 0,
            len: 0,
            overwritten: 0,
        }
    }

    fn record(&mut self, ev: TraceEvent) {
        let cap = self.buf.len();
        if self.len < cap {
            self.buf[(self.start + self.len) % cap] = ev;
            self.len += 1;
        } else {
            self.buf[self.start] = ev;
            self.start = (self.start + 1) % cap;
            self.overwritten += 1;
        }
    }
}

/// One simulation source's trace attachment point. Detached (the
/// default) it is a single `Option` discriminant — the whole cost of
/// observability compiled in but unused. Attached, it owns a
/// pre-allocated [`TraceBuf`] stamped with the source's stable ordinal.
#[derive(Debug, Default)]
pub struct ObsPort {
    buf: Option<Box<TraceBuf>>,
}

impl ObsPort {
    /// A port with no buffer: [`ObsPort::enabled`] is `false`,
    /// recording is a no-op branch.
    pub const fn detached() -> Self {
        ObsPort { buf: None }
    }

    /// Attaches a fresh ring of `capacity` events, stamped `ord`. This
    /// is the only allocation the trace path ever performs — do it
    /// before the measured/steady-state window.
    pub fn attach(&mut self, capacity: usize, ord: u32) {
        self.buf = Some(Box::new(TraceBuf::new(capacity, ord)));
    }

    /// Drops the buffer; the port is a no-op branch again.
    pub fn detach(&mut self) {
        self.buf = None;
    }

    /// `true` when a buffer is attached — the [`emit!`](crate::emit)
    /// guard.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.buf.as_ref().map_or(0, |b| b.len)
    }

    /// `true` when nothing is buffered (or no buffer is attached).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events dropped (oldest-first) because the ring wrapped.
    pub fn overwritten(&self) -> u64 {
        self.buf.as_ref().map_or(0, |b| b.overwritten)
    }

    /// Records one event. Call through [`emit!`](crate::emit) so the
    /// payload expressions are skipped when the port is detached.
    #[inline]
    pub fn record(&mut self, t: SimTime, kind: TraceKind, label: &'static str, a: u64, b: u64) {
        if let Some(buf) = &mut self.buf {
            let ord = buf.ord;
            buf.record(TraceEvent {
                t,
                ord,
                kind,
                label,
                a,
                b,
            });
        }
    }

    /// Drains the buffered events, oldest first, into `f`, leaving the
    /// ring empty (capacity kept). Called by the coordinating thread at
    /// poll boundaries.
    pub fn drain(&mut self, mut f: impl FnMut(&TraceEvent)) {
        let Some(buf) = &mut self.buf else {
            return;
        };
        let cap = buf.buf.len();
        for k in 0..buf.len {
            f(&buf.buf[(buf.start + k) % cap]);
        }
        buf.start = 0;
        buf.len = 0;
    }
}

/// A shared in-memory byte sink for [`TraceSink::in_memory`] — the
/// test-side handle that outlives the sink and yields the final stream.
#[derive(Debug, Clone, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// Takes the bytes written so far.
    pub fn take(&self) -> Vec<u8> {
        std::mem::take(&mut self.0.lock().expect("trace buffer poisoned"))
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace buffer poisoned")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The JSONL endpoint the coordinating thread drains every port into.
/// Owns the writer, the kind mask, and one reused line buffer (the
/// drain path allocates nothing in steady state). Write errors are
/// counted, not propagated — a full disk must not poison simulation
/// state mid-run.
pub struct TraceSink {
    out: Box<dyn Write + Send>,
    mask: TraceMask,
    line: String,
    events: u64,
    io_errors: u64,
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("mask", &self.mask)
            .field("events", &self.events)
            .field("io_errors", &self.io_errors)
            .finish_non_exhaustive()
    }
}

impl TraceSink {
    /// Wraps any writer under the default (deterministic) mask.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        TraceSink {
            out,
            mask: TraceMask::default(),
            line: String::with_capacity(160),
            events: 0,
            io_errors: 0,
        }
    }

    /// Replaces the kind mask (see [`TraceMask::ALL`]).
    #[must_use]
    pub fn with_mask(mut self, mask: TraceMask) -> Self {
        self.mask = mask;
        self
    }

    /// A buffered sink writing JSONL to `path`.
    pub fn to_file(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// An in-memory sink plus the shared handle that collects its bytes
    /// — the determinism tests compare these across thread counts.
    pub fn in_memory() -> (Self, SharedBuf) {
        let buf = SharedBuf::default();
        (TraceSink::new(Box::new(buf.clone())), buf)
    }

    /// Writes one event as a JSONL line, if the mask keeps its kind.
    pub fn write_event(&mut self, ev: &TraceEvent) {
        if !self.mask.keeps(ev.kind) {
            return;
        }
        self.line.clear();
        write_jsonl(ev, &mut self.line);
        if self.out.write_all(self.line.as_bytes()).is_err() {
            self.io_errors += 1;
        } else {
            self.events += 1;
        }
    }

    /// Events successfully written.
    pub fn events_written(&self) -> u64 {
        self.events
    }

    /// Write errors swallowed (0 on a healthy sink).
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Flushes the underlying writer.
    pub fn flush(&mut self) {
        if self.out.flush().is_err() {
            self.io_errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t_ms: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t: SimTime::from_millis(t_ms),
            ord: 2,
            kind,
            label: "",
            a: 1,
            b: 0,
        }
    }

    #[test]
    fn detached_port_records_nothing() {
        let mut port = ObsPort::detached();
        assert!(!port.enabled());
        port.record(SimTime::ZERO, TraceKind::Crash, "", 0, 0);
        assert_eq!(port.len(), 0);
        let mut seen = 0;
        port.drain(|_| seen += 1);
        assert_eq!(seen, 0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut port = ObsPort::detached();
        port.attach(3, 9);
        for k in 0..5u64 {
            port.record(
                SimTime::from_millis(k),
                TraceKind::LeapSpan,
                "release",
                k,
                0,
            );
        }
        assert_eq!(port.len(), 3);
        assert_eq!(port.overwritten(), 2);
        let mut seen = Vec::new();
        port.drain(|e| seen.push((e.ord, e.a)));
        assert_eq!(seen, vec![(9, 2), (9, 3), (9, 4)]);
        assert!(port.is_empty());
        // The ring is reusable after a drain.
        port.record(SimTime::ZERO, TraceKind::Crash, "ground", 7, 0);
        assert_eq!(port.len(), 1);
    }

    #[test]
    fn jsonl_shape_is_stable() {
        let mut line = String::new();
        write_jsonl(
            &TraceEvent {
                t: SimTime::from_millis(100),
                ord: 3,
                kind: TraceKind::LeapSpan,
                label: "release",
                a: 1999,
                b: 0,
            },
            &mut line,
        );
        assert_eq!(
            line,
            "{\"t_ns\":100000000,\"ord\":3,\"kind\":\"leap_span\",\"label\":\"release\",\"a\":1999,\"b\":0}\n"
        );
        line.clear();
        write_jsonl(&ev(1, TraceKind::GcsWindow), &mut line);
        assert_eq!(
            line,
            "{\"t_ns\":1000000,\"ord\":2,\"kind\":\"gcs_window\",\"a\":1,\"b\":0}\n"
        );
    }

    #[test]
    fn default_mask_drops_shard_rebalance_only() {
        let (mut sink, buf) = TraceSink::in_memory();
        sink.write_event(&ev(1, TraceKind::ShardRebalance));
        sink.write_event(&ev(2, TraceKind::SimplexSwitch));
        sink.flush();
        assert_eq!(sink.events_written(), 1);
        let text = String::from_utf8(buf.take()).unwrap();
        assert!(text.contains("simplex_switch"));
        assert!(!text.contains("shard_rebalance"));

        let (mut all, buf) = TraceSink::in_memory();
        all = all.with_mask(TraceMask::ALL);
        all.write_event(&ev(1, TraceKind::ShardRebalance));
        assert_eq!(all.events_written(), 1);
        assert!(String::from_utf8(buf.take())
            .unwrap()
            .contains("shard_rebalance"));
    }
}
