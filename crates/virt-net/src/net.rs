//! The virtual network: namespaces, links, UDP sockets, port mapping, and
//! ingress rate limiting.
//!
//! Mirrors the paper's §IV-D topology: the CCE lives in "a sandboxed
//! network space where it does not have access to the Internet and can only
//! communicate with the HCE through a specified interface" (a docker0-style
//! bridge), with "Docker's port mapping to expose container ports to host"
//! (hairpin NAT via iptables rules).

use std::collections::HashMap;
use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use sim_core::time::{SimDuration, SimTime};

use crate::filter::TokenBucket;

/// A trivial multiply-mix hasher for the per-packet [`Addr`] lookups.
///
/// `Addr` is 6 meaningful bytes of simulation-internal state, so SipHash's
/// DoS resistance buys nothing here while costing real time on every
/// datagram (these maps are probed several times per packet). The mix is
/// the 64-bit SplitMix64 finalizer — deterministic across runs and
/// platforms.
#[derive(Debug, Default)]
pub struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 ^= u64::from(v);
        self.0 = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write_u16(&mut self, v: u16) {
        self.write_u32(u32::from(v));
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

type AddrMap<V> = HashMap<Addr, V, BuildHasherDefault<AddrHasher>>;

/// Identifies a network namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NsId(u32);

/// Identifies a bound UDP socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SocketId(u32);

/// A UDP endpoint: namespace + port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Destination namespace.
    pub ns: NsId,
    /// Destination port.
    pub port: u16,
}

/// A datagram payload.
///
/// The steady-state simulation loop never allocates for payloads: owned
/// buffers cycle through the [`Network`]'s free-list pool (reclaim them
/// with [`Network::recycle`] after receiving), and flood traffic fans a
/// single shared buffer out across thousands of packets at the cost of a
/// reference-count bump each. Shared payloads are `Arc`s (not `Rc`s) so a
/// `Network` — and everything holding packets — can move across threads;
/// a fleet executor shards vehicles over a worker pool and one flood
/// buffer may then be referenced from many shard networks at once.
#[derive(Debug, Clone)]
pub enum PacketBuf {
    /// An exclusively owned buffer, returned to the pool on recycle.
    Owned(Vec<u8>),
    /// An immutable buffer shared between many packets (flood fan-out).
    Shared(Arc<[u8]>),
}

impl PacketBuf {
    /// The payload bytes.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            PacketBuf::Owned(v) => v,
            PacketBuf::Shared(a) => a,
        }
    }

    /// The shared buffer behind this payload, if it is one (flood
    /// fan-out). Receivers use pointer identity on it to recognise a
    /// byte-identical datagram they have already parsed.
    pub fn shared(&self) -> Option<&Arc<[u8]>> {
        match self {
            PacketBuf::Owned(_) => None,
            PacketBuf::Shared(a) => Some(a),
        }
    }
}

impl std::ops::Deref for PacketBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for PacketBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl From<Vec<u8>> for PacketBuf {
    fn from(v: Vec<u8>) -> Self {
        PacketBuf::Owned(v)
    }
}

/// A datagram in flight or in a receive queue.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Sender endpoint.
    pub src: Addr,
    /// Destination endpoint (after NAT).
    pub dst: Addr,
    /// Payload bytes.
    pub payload: PacketBuf,
    /// When the datagram was sent.
    pub sent: SimTime,
}

/// Link characteristics between two namespaces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// One-way propagation + stack traversal latency.
    pub latency: SimDuration,
    /// Serialisation bandwidth, bytes/s.
    pub bandwidth: f64,
    /// Transmit queue capacity, packets; overflow is dropped.
    pub queue_capacity: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // A veth/bridge hop: microseconds of latency, ~1 Gb/s.
        LinkConfig {
            latency: SimDuration::from_micros(50),
            bandwidth: 125.0e6,
            queue_capacity: 512,
        }
    }
}

/// Per-socket statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SocketStats {
    /// Datagrams delivered into the receive queue.
    pub delivered: u64,
    /// Datagrams dropped because the receive queue was full.
    pub dropped_overflow: u64,
    /// Datagrams dropped by an ingress rate limit.
    pub dropped_ratelimit: u64,
    /// Bytes delivered.
    pub bytes_delivered: u64,
}

/// Notification that packets reached a socket's receive queue during
/// [`Network::step`]; the framework turns these into rx-thread jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving socket.
    pub socket: SocketId,
    /// Number of datagrams delivered this step.
    pub count: usize,
}

#[derive(Debug, Clone)]
struct Socket {
    addr: Addr,
    rx: VecDeque<Packet>,
    rx_capacity: usize,
    /// Ingress rate limit, held on the socket so per-packet delivery pays
    /// a single address lookup (limits on unbound endpoints wait in
    /// `Network::rate_limits` until something binds).
    rate_limit: Option<TokenBucket>,
    stats: SocketStats,
}

/// One transmit-queue entry. A flood quantum's worth of identical packets
/// is stored run-length-encoded as a single [`Queued::Burst`]: the
/// arrivals form an arithmetic progression (one serialisation time apart),
/// so enqueueing is O(1) per quantum instead of O(1) per packet, and the
/// queue holds one entry where it used to hold hundreds.
#[derive(Debug, Clone)]
enum Queued {
    /// An individually sent packet, delivered at `arrival`.
    One { arrival: SimTime, pkt: Packet },
    /// `remaining` identical packets arriving `stride` apart from
    /// `next_arrival` on (the run-length-encoded flood fast-path).
    Burst {
        next_arrival: SimTime,
        stride: SimDuration,
        remaining: u64,
        src: Addr,
        dst: Addr,
        payload: Arc<[u8]>,
        sent: SimTime,
    },
    /// A whole flood *span* as one entry: `batches` consecutive quanta,
    /// each sending `per_batch` identical packets. Batch `b`'s packets
    /// are sent at `sent + batch_stride*b` and arrive `ser` apart, so
    /// the packet stream is byte-for-byte what per-quantum
    /// [`Network::send_shared`] calls at those times would have queued —
    /// see [`Network::send_paced`] for the preconditions that make the
    /// single-entry encoding exact.
    Paced {
        next_arrival: SimTime,
        /// In-batch arrival stride (one serialisation time).
        ser: SimDuration,
        /// Sent-time stride between consecutive batches.
        batch_stride: SimDuration,
        per_batch: u64,
        /// Packets already shed from the current batch.
        batch_pos: u64,
        /// Total packets left across all remaining batches.
        remaining: u64,
        src: Addr,
        dst: Addr,
        payload: Arc<[u8]>,
        /// Sent time of the current batch.
        sent: SimTime,
    },
}

impl Queued {
    /// Arrival time of the entry's earliest undelivered packet.
    fn next_arrival(&self) -> SimTime {
        match self {
            Queued::One { arrival, .. } => *arrival,
            Queued::Burst { next_arrival, .. } => *next_arrival,
            Queued::Paced { next_arrival, .. } => *next_arrival,
        }
    }

    /// Destination of the entry's packets (an RLE entry has one).
    fn dst(&self) -> Addr {
        match self {
            Queued::One { pkt, .. } => pkt.dst,
            Queued::Burst { dst, .. } => *dst,
            Queued::Paced { dst, .. } => *dst,
        }
    }
}

/// One direction of a link: the transmit queue plus its serialiser state.
/// `queued_packets` counts *packets* (a burst entry counts as its
/// `remaining`), which is what the queue capacity limits.
#[derive(Debug, Clone, Default)]
struct LinkDir {
    queue: VecDeque<Queued>,
    tx_free: SimTime,
    queued_packets: usize,
}

#[derive(Debug, Clone)]
struct Link {
    a: NsId,
    b: NsId,
    config: LinkConfig,
    ab: LinkDir,
    ba: LinkDir,
    dropped_queue: u64,
}

impl Link {
    fn dir_mut(&mut self, forward: bool) -> &mut LinkDir {
        if forward {
            &mut self.ab
        } else {
            &mut self.ba
        }
    }

    /// Transmit-side admission for one packet: capacity check, serialiser
    /// advance, enqueue with the computed arrival time. The per-packet
    /// path used by [`Network::send`]. Returns the payload on a
    /// queue-full drop (for recycling).
    fn enqueue(
        &mut self,
        forward: bool,
        src: Addr,
        dst: Addr,
        payload: PacketBuf,
        ser: SimDuration,
        now: SimTime,
    ) -> Option<PacketBuf> {
        let capacity = self.config.queue_capacity;
        let latency = self.config.latency;
        let dir = self.dir_mut(forward);
        if dir.queued_packets >= capacity {
            self.dropped_queue += 1;
            return Some(payload); // UDP: silently dropped
        }
        let start = dir.tx_free.max(now);
        dir.tx_free = start + ser;
        let arrival = dir.tx_free + latency;
        dir.queued_packets += 1;
        dir.queue.push_back(Queued::One {
            arrival,
            pkt: Packet {
                src,
                dst,
                payload,
                sent: now,
            },
        });
        None
    }

    /// Batch admission for `count` identical shared-payload packets — the
    /// run-length-encoded counterpart of calling [`Link::enqueue`] `count`
    /// times. Packet-for-packet identical semantics: admission is capped
    /// by the remaining queue capacity, only admitted packets advance the
    /// serialiser, and the arrivals are the same arithmetic progression
    /// the per-packet loop would have produced.
    #[allow(clippy::too_many_arguments)]
    fn enqueue_burst(
        &mut self,
        forward: bool,
        src: Addr,
        dst: Addr,
        payload: &Arc<[u8]>,
        count: u64,
        ser: SimDuration,
        now: SimTime,
    ) {
        if count == 1 {
            // A single-packet "burst" (a 20 kpps flood at 50 µs quanta
            // emits exactly one per quantum) gains nothing from the RLE
            // entry; take the plain path — same wire semantics, cheaper
            // dequeue. A dropped shared payload is just a refcount drop.
            let _ = self.enqueue(
                forward,
                src,
                dst,
                PacketBuf::Shared(Arc::clone(payload)),
                ser,
                now,
            );
            return;
        }
        let capacity = self.config.queue_capacity;
        let latency = self.config.latency;
        let queued = if forward { &self.ab } else { &self.ba }.queued_packets;
        let space = capacity.saturating_sub(queued) as u64;
        let admitted = count.min(space);
        self.dropped_queue += count - admitted;
        if admitted == 0 {
            return;
        }
        let dir = self.dir_mut(forward);
        let start = dir.tx_free.max(now);
        dir.tx_free = start + ser * admitted;
        dir.queued_packets += admitted as usize;
        dir.queue.push_back(Queued::Burst {
            next_arrival: start + ser + latency,
            stride: ser,
            remaining: admitted,
            src,
            dst,
            payload: Arc::clone(payload),
            sent: now,
        });
    }

    /// Pops the next due packet (arrival ≤ `target`) from one direction,
    /// if any. Bursts shed one packet at a time, so delivery order and
    /// per-packet admission (rate limits, receive-queue overflow) are
    /// exactly what the expanded queue would have seen.
    fn pop_due(&mut self, forward: bool, target: SimTime) -> Option<(SimTime, Packet)> {
        let dir = self.dir_mut(forward);
        let front = dir.queue.front_mut()?;
        if front.next_arrival() > target {
            return None;
        }
        dir.queued_packets -= 1;
        match front {
            Queued::One { .. } => {
                let Some(Queued::One { arrival, pkt }) = dir.queue.pop_front() else {
                    unreachable!("front entry just matched One");
                };
                Some((arrival, pkt))
            }
            Queued::Burst {
                next_arrival,
                stride,
                remaining,
                src,
                dst,
                payload,
                sent,
            } => {
                let arrival = *next_arrival;
                let pkt = Packet {
                    src: *src,
                    dst: *dst,
                    payload: PacketBuf::Shared(Arc::clone(payload)),
                    sent: *sent,
                };
                *next_arrival = arrival + *stride;
                *remaining -= 1;
                if *remaining == 0 {
                    dir.queue.pop_front();
                }
                Some((arrival, pkt))
            }
            Queued::Paced {
                next_arrival,
                ser,
                batch_stride,
                per_batch,
                batch_pos,
                remaining,
                src,
                dst,
                payload,
                sent,
            } => {
                let arrival = *next_arrival;
                let pkt = Packet {
                    src: *src,
                    dst: *dst,
                    payload: PacketBuf::Shared(Arc::clone(payload)),
                    sent: *sent,
                };
                *batch_pos += 1;
                if *batch_pos == *per_batch {
                    // Cross a batch boundary: the next packet is the first
                    // of a batch sent one quantum later, whose arrival is
                    // `sent + batch_stride + ser + latency`, i.e. this
                    // arrival plus the stride minus the in-batch walk.
                    *batch_pos = 0;
                    *sent += *batch_stride;
                    *next_arrival = arrival + *batch_stride - *ser * (*per_batch - 1);
                } else {
                    *next_arrival = arrival + *ser;
                }
                *remaining -= 1;
                if *remaining == 0 {
                    dir.queue.pop_front();
                }
                Some((arrival, pkt))
            }
        }
    }

    /// Removes `k` packets from the front RLE entry after a bulk
    /// settlement delivered them; the entry's cursors advance exactly as
    /// `k` [`Link::pop_due`] calls would have moved them.
    fn consume_front(&mut self, forward: bool, k: u64) {
        let dir = self.dir_mut(forward);
        dir.queued_packets -= k as usize;
        let done = match dir.queue.front_mut() {
            Some(Queued::Burst {
                next_arrival,
                stride,
                remaining,
                ..
            }) => {
                *next_arrival += *stride * k;
                *remaining -= k;
                *remaining == 0
            }
            Some(Queued::Paced {
                next_arrival,
                batch_stride,
                per_batch,
                batch_pos,
                remaining,
                sent,
                ..
            }) => {
                // Bulk settlement only engages on uniform arrival
                // strides, which for a paced entry means one packet per
                // batch; the cursor walk is then whole batches.
                debug_assert!(*per_batch == 1 && *batch_pos == 0);
                *next_arrival += *batch_stride * k;
                *sent += *batch_stride * k;
                *remaining -= k;
                *remaining == 0
            }
            _ => unreachable!("consume_front follows a span peek"),
        };
        if done {
            dir.queue.pop_front();
        }
    }
}

/// The whole virtual network.
///
/// `Clone` copies every queue, socket, token bucket and scratch buffer,
/// so a clone steps on exactly as the original would. Two things are
/// shared rather than copied: flood payloads (`Arc<[u8]>`, immutable)
/// and any attached [`NetCounters`] (their atomics aggregate across
/// clones, as they do across a fleet's networks).
///
/// # Examples
///
/// ```
/// use virt_net::net::{Addr, LinkConfig, Network};
/// use sim_core::time::{SimDuration, SimTime};
///
/// let mut net = Network::new();
/// let host = net.add_namespace("host");
/// let cce = net.add_namespace("cce");
/// net.connect(host, cce, LinkConfig::default());
/// let rx = net.bind(cce, 14660).unwrap();
/// let tx = net.bind(host, 5000).unwrap();
/// net.send(tx, Addr { ns: cce, port: 14660 }, vec![1, 2, 3], SimTime::ZERO).unwrap();
/// net.step(SimTime::from_millis(1));
/// assert!(net.recv(rx).is_some());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Network {
    namespaces: Vec<String>,
    sockets: Vec<Socket>,
    links: Vec<Link>,
    // Determinism audit (unordered_iter): every hash container below is
    // probe-only — keyed get/insert/remove, never iterated — so hash
    // order cannot reach delivery order or the report. Anything that
    // walks state in order (deliveries, link settlement, namespace
    // lookup by name) goes through the Vecs above, whose order is
    // creation order. cd-lint enforces this for future edits.
    /// DNAT rules: packets addressed to `key` are rewritten to `value`.
    port_maps: AddrMap<Addr>,
    /// Ingress rate limits configured for endpoints nothing is bound to
    /// (yet); moved onto the socket at bind time.
    rate_limits: AddrMap<TokenBucket>,
    /// Bound endpoint → index into `sockets` (kept in sync with binds).
    addr_index: AddrMap<u32>,
    /// Normalized namespace pair → index into `links`. A single-vehicle
    /// topology has two links and a linear scan is fine; a 100-vehicle
    /// fleet airspace has hundreds (host↔container per vehicle plus a GCS
    /// uplink each), so per-packet routing must be O(1).
    route_index: HashMap<(u32, u32), u32, BuildHasherDefault<AddrHasher>>,
    /// Free list of recycled payload buffers.
    pool: Vec<Vec<u8>>,
    /// Scratch: per-socket datagrams delivered during the current step.
    delivered_counts: Vec<usize>,
    /// Scratch: socket indices with non-zero `delivered_counts`.
    touched: Vec<u32>,
    /// Scratch: the deliveries returned by the last [`Network::step`].
    deliveries: Vec<Delivery>,
    /// One-entry memo over `addr_index` — consecutive packets overwhelmingly
    /// share a destination (a flood targets one port), so most deliveries
    /// skip the hash probe. Invalidated on bind.
    memo: Option<(Addr, u32)>,
    /// Total datagrams offered via [`Network::send`] (including ones later
    /// dropped by queues or rate limits).
    total_sent: u64,
    /// Optional shared live counters (see [`NetCounters`]); `None` — the
    /// default — keeps the admission path free of atomic traffic.
    counters: Option<NetCounters>,
    /// Inverted so the derived `Default` enables bulk settlement: `true`
    /// forces [`Network::step`] onto the packet-by-packet reference path
    /// (the permanent `--no-bulk` equivalence witness).
    no_bulk: bool,
    now: SimTime,
}

/// Shared live packet counters, incremented at the delivery admission
/// sites. `Clone` shares the underlying atomics, so one set handed to
/// every per-vehicle network (plus the airspace) aggregates fleet-wide
/// traffic without any collection pass — a metrics scraper on another
/// thread reads the same atomics. Purely observational: nothing in the
/// network ever reads them back, and relaxed ordering suffices because
/// each counter is an independent statistic.
#[derive(Debug, Clone, Default)]
pub struct NetCounters {
    /// Datagrams admitted to a receive queue.
    pub admitted: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Datagrams dropped by an ingress rate limit.
    pub dropped_ratelimit: std::sync::Arc<std::sync::atomic::AtomicU64>,
    /// Datagrams dropped by receive-queue overflow.
    pub dropped_overflow: std::sync::Arc<std::sync::atomic::AtomicU64>,
}

impl NetCounters {
    fn bump(counter: &std::sync::atomic::AtomicU64) {
        counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    }

    /// Batch counterpart of [`NetCounters::bump`] for bulk settlement —
    /// one atomic add accounts a whole span's worth of packets.
    fn add(counter: &std::sync::atomic::AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, std::sync::atomic::Ordering::Relaxed);
        }
    }
}

/// Errors from socket operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetError {
    /// The port is already bound in this namespace.
    PortInUse {
        /// Conflicting namespace.
        ns: NsId,
        /// Conflicting port.
        port: u16,
    },
    /// No route between the namespaces.
    NoRoute {
        /// Source namespace.
        from: NsId,
        /// Destination namespace.
        to: NsId,
    },
    /// The socket id is stale.
    BadSocket,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::PortInUse { ns, port } => {
                write!(f, "port {port} already bound in namespace {}", ns.0)
            }
            NetError::NoRoute { from, to } => {
                write!(f, "no route from namespace {} to {}", from.0, to.0)
            }
            NetError::BadSocket => write!(f, "socket does not exist"),
        }
    }
}

impl std::error::Error for NetError {}

impl Network {
    /// Creates an empty network.
    pub fn new() -> Self {
        Network::default()
    }

    /// Adds a namespace (a separate network stack).
    pub fn add_namespace(&mut self, name: impl Into<String>) -> NsId {
        let id = NsId(self.namespaces.len() as u32);
        self.namespaces.push(name.into());
        id
    }

    /// Connects two namespaces with a link (a veth pair over a bridge).
    /// A second link between the same pair is inert (the first keeps
    /// carrying the traffic, as with the former first-match routing).
    pub fn connect(&mut self, a: NsId, b: NsId, config: LinkConfig) {
        self.route_index
            .entry(Self::route_key(a, b))
            .or_insert(self.links.len() as u32);
        self.links.push(Link {
            a,
            b,
            config,
            ab: LinkDir::default(),
            ba: LinkDir::default(),
            dropped_queue: 0,
        });
    }

    /// Normalized key for the route index (links are bidirectional).
    fn route_key(a: NsId, b: NsId) -> (u32, u32) {
        if a.0 <= b.0 {
            (a.0, b.0)
        } else {
            (b.0, a.0)
        }
    }

    /// The index of the link carrying traffic between `a` and `b`, if any.
    fn route(&self, a: NsId, b: NsId) -> Option<usize> {
        self.route_index
            .get(&Self::route_key(a, b))
            .map(|&i| i as usize)
    }

    /// `true` when a link directly connects the two namespaces.
    pub fn connected(&self, a: NsId, b: NsId) -> bool {
        self.route(a, b).is_some()
    }

    /// Number of namespaces created so far.
    pub fn namespace_count(&self) -> usize {
        self.namespaces.len()
    }

    /// The name a namespace was created with.
    pub fn namespace_name(&self, ns: NsId) -> &str {
        &self.namespaces[ns.0 as usize]
    }

    /// Looks a namespace up by name (first match in creation order).
    ///
    /// The audit surface for topologies that let arbitrary peers join —
    /// a fleet airspace admitting attacker nodes, say: tests and tooling
    /// find a tenant by name and then inspect its wiring with
    /// [`Network::neighbors`] / [`Network::link_config`].
    pub fn find_namespace(&self, name: &str) -> Option<NsId> {
        // Order audit: `namespaces` is a Vec, so this scan runs in
        // creation order — deterministic, unlike a name→id hash index.
        self.namespaces
            .iter()
            .position(|n| n == name)
            .map(|i| NsId(i as u32))
    }

    /// Every namespace directly linked to `ns`, in link-creation order.
    /// Duplicate links report their peer once.
    ///
    /// This is the radio-range view of a peer: a jammer in the airspace
    /// can reach exactly its neighbors, and a swarm topology audit walks
    /// these lists.
    pub fn neighbors(&self, ns: NsId) -> Vec<NsId> {
        let mut out = Vec::new();
        for link in &self.links {
            let peer = if link.a == ns {
                link.b
            } else if link.b == ns {
                link.a
            } else {
                continue;
            };
            if !out.contains(&peer) {
                out.push(peer);
            }
        }
        out
    }

    /// The characteristics of the link carrying traffic between `a` and
    /// `b`, if they are connected.
    pub fn link_config(&self, a: NsId, b: NsId) -> Option<LinkConfig> {
        self.route(a, b).map(|i| self.links[i].config)
    }

    /// Binds a UDP socket in `ns` on `port` with the default receive queue
    /// (256 datagrams, like a small `SO_RCVBUF`).
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] if the port is taken in this namespace.
    pub fn bind(&mut self, ns: NsId, port: u16) -> Result<SocketId, NetError> {
        self.bind_with_capacity(ns, port, 256)
    }

    /// Binds with an explicit receive-queue capacity.
    ///
    /// # Errors
    ///
    /// [`NetError::PortInUse`] if the port is taken in this namespace.
    pub fn bind_with_capacity(
        &mut self,
        ns: NsId,
        port: u16,
        rx_capacity: usize,
    ) -> Result<SocketId, NetError> {
        let addr = Addr { ns, port };
        if self.addr_index.contains_key(&addr) {
            return Err(NetError::PortInUse { ns, port });
        }
        let id = SocketId(self.sockets.len() as u32);
        self.addr_index.insert(addr, id.0);
        self.memo = None;
        self.delivered_counts.push(0);
        self.sockets.push(Socket {
            addr,
            rx: VecDeque::new(),
            rx_capacity,
            rate_limit: self.rate_limits.remove(&addr),
            stats: SocketStats::default(),
        });
        Ok(id)
    }

    /// Installs a DNAT rule: traffic to `from` is redirected to `to`
    /// (Docker port mapping with hairpin NAT).
    pub fn map_port(&mut self, from: Addr, to: Addr) {
        self.port_maps.insert(from, to);
    }

    /// Installs an ingress rate limit (iptables `-m limit`) for traffic to
    /// `dst`: at most `pps` packets/s with bursts of `burst`.
    pub fn add_rate_limit(&mut self, dst: Addr, pps: f64, burst: f64) {
        let bucket = TokenBucket::new(pps, burst);
        match self.addr_index.get(&dst) {
            Some(&i) => self.sockets[i as usize].rate_limit = Some(bucket),
            None => {
                self.rate_limits.insert(dst, bucket);
            }
        }
    }

    /// Removes the ingress rate limit on `dst`, if any.
    pub fn remove_rate_limit(&mut self, dst: Addr) {
        match self.addr_index.get(&dst) {
            Some(&i) => self.sockets[i as usize].rate_limit = None,
            None => {
                self.rate_limits.remove(&dst);
            }
        }
    }

    /// Takes a cleared payload buffer from the free-list pool (allocating
    /// only when the pool is empty). Fill it, then pass it to
    /// [`Network::send`]; buffers return to the pool via
    /// [`Network::recycle`] or when the network drops the packet.
    pub fn take_buf(&mut self) -> Vec<u8> {
        // 64 bytes covers every mavlink-lite frame, so recycled buffers
        // never need to regrow mid-flight.
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(64))
    }

    /// Returns a received packet's buffer to the pool. Shared payloads
    /// just drop their reference.
    pub fn recycle(&mut self, pkt: Packet) {
        self.recycle_buf(pkt.payload);
    }

    fn recycle_buf(&mut self, buf: PacketBuf) {
        if let PacketBuf::Owned(mut v) = buf {
            v.clear();
            self.pool.push(v);
        }
    }

    /// Sends a datagram from `socket` to `dst` at time `now`.
    ///
    /// Accepts anything convertible to a [`PacketBuf`]: a plain `Vec<u8>`
    /// (typically from [`Network::take_buf`]) or a pre-built
    /// [`PacketBuf::Shared`].
    ///
    /// # Errors
    ///
    /// [`NetError::BadSocket`] for a stale socket id;
    /// [`NetError::NoRoute`] if the namespaces are not linked.
    pub fn send(
        &mut self,
        socket: SocketId,
        dst: Addr,
        payload: impl Into<PacketBuf>,
        now: SimTime,
    ) -> Result<(), NetError> {
        let payload = payload.into();
        let src = match self.sockets.get(socket.0 as usize) {
            Some(s) => s.addr,
            None => {
                // Pooled buffers return to the pool even on caller error.
                self.recycle_buf(payload);
                return Err(NetError::BadSocket);
            }
        };
        // DNAT before routing, as netfilter PREROUTING does.
        let dst = self.port_maps.get(&dst).copied().unwrap_or(dst);

        if src.ns == dst.ns {
            self.total_sent += 1;
            // Loopback: deliver immediately on the next step.
            let pkt = Packet {
                src,
                dst,
                payload,
                sent: now,
            };
            self.deliver_local(pkt, now, false);
            return Ok(());
        }

        let link_idx = match self.route(src.ns, dst.ns) {
            Some(i) => i,
            None => {
                self.recycle_buf(payload);
                return Err(NetError::NoRoute {
                    from: src.ns,
                    to: dst.ns,
                });
            }
        };

        self.total_sent += 1;
        let link = &mut self.links[link_idx];
        let forward = link.a == src.ns;
        debug_assert!(
            (link.a == src.ns && link.b == dst.ns) || (link.b == src.ns && link.a == dst.ns),
            "route index returned a link not connecting the endpoints"
        );
        // Serialisation: the transmitter is busy `len/bandwidth` per packet.
        let ser = SimDuration::from_secs_f64(payload.len() as f64 / link.config.bandwidth);
        if let Some(payload) = link.enqueue(forward, src, dst, payload, ser, now) {
            self.recycle_buf(payload);
        }
        Ok(())
    }

    /// The flood fast-path: offers `count` copies of one shared payload in
    /// a single call. Semantically identical to calling [`Network::send`]
    /// `count` times with equal bytes, but the only per-packet cost is a
    /// reference-count bump — no allocation, no payload copy.
    ///
    /// # Errors
    ///
    /// Same as [`Network::send`].
    pub fn send_shared(
        &mut self,
        socket: SocketId,
        dst: Addr,
        payload: &Arc<[u8]>,
        count: u64,
        now: SimTime,
    ) -> Result<(), NetError> {
        if count == 0 {
            return Ok(());
        }
        let src = self
            .sockets
            .get(socket.0 as usize)
            .ok_or(NetError::BadSocket)?
            .addr;
        let dst = self.port_maps.get(&dst).copied().unwrap_or(dst);
        if src.ns == dst.ns {
            for _ in 0..count {
                self.total_sent += 1;
                let pkt = Packet {
                    src,
                    dst,
                    payload: PacketBuf::Shared(Arc::clone(payload)),
                    sent: now,
                };
                self.deliver_local(pkt, now, false);
            }
            return Ok(());
        }

        // Route, direction and serialisation time are invariant across the
        // batch: resolve them once, then the whole quantum's flood is one
        // run-length-encoded queue entry — O(1) regardless of `count`.
        let link_idx = self.route(src.ns, dst.ns).ok_or(NetError::NoRoute {
            from: src.ns,
            to: dst.ns,
        })?;
        self.total_sent += count;
        let link = &mut self.links[link_idx];
        let forward = link.a == src.ns;
        let ser = SimDuration::from_secs_f64(payload.len() as f64 / link.config.bandwidth);
        link.enqueue_burst(forward, src, dst, payload, count, ser, now);
        Ok(())
    }

    /// Emits a whole flood *span* in one call: `batches` consecutive
    /// quanta `stride` apart starting at `first`, each offering
    /// `per_batch` copies of one shared payload. Semantically identical
    /// to calling [`Network::send_shared`] once per batch at those
    /// (historical) times — the caller is a time-leap executor replaying
    /// an attack span it proved free of interleaved traffic on this
    /// route, which is what makes emitting after the fact exact.
    ///
    /// When the serialiser is free at `first`, a batch serialises within
    /// its stride (`per_batch·ser ≤ stride`) and the whole span fits the
    /// transmit queue, the span collapses into a single
    /// run-length-encoded entry (O(1) in packets); otherwise it falls
    /// back to per-batch enqueues, which reproduce the reference
    /// serialiser/capacity behaviour construct-for-construct. Returns
    /// `true` on the collapsed path, `false` on the fallback — callers
    /// never need to branch on it, it exists for tests to pin both.
    ///
    /// # Errors
    ///
    /// Same as [`Network::send`].
    #[allow(clippy::too_many_arguments)]
    pub fn send_paced(
        &mut self,
        socket: SocketId,
        dst: Addr,
        payload: &Arc<[u8]>,
        per_batch: u64,
        batches: u64,
        first: SimTime,
        stride: SimDuration,
    ) -> Result<bool, NetError> {
        if per_batch == 0 || batches == 0 {
            return Ok(true);
        }
        let src = self
            .sockets
            .get(socket.0 as usize)
            .ok_or(NetError::BadSocket)?
            .addr;
        let dst = self.port_maps.get(&dst).copied().unwrap_or(dst);
        if src.ns == dst.ns {
            // Loopback: deliver each batch at its historical send time,
            // exactly as the per-quantum calls would have.
            for b in 0..batches {
                let t = first + stride * b;
                for _ in 0..per_batch {
                    self.total_sent += 1;
                    let pkt = Packet {
                        src,
                        dst,
                        payload: PacketBuf::Shared(Arc::clone(payload)),
                        sent: t,
                    };
                    self.deliver_local(pkt, t, false);
                }
            }
            return Ok(false);
        }
        let link_idx = self.route(src.ns, dst.ns).ok_or(NetError::NoRoute {
            from: src.ns,
            to: dst.ns,
        })?;
        let link = &mut self.links[link_idx];
        let forward = link.a == src.ns;
        let ser = SimDuration::from_secs_f64(payload.len() as f64 / link.config.bandwidth);
        let total = per_batch * batches;
        let capacity = link.config.queue_capacity;
        let latency = link.config.latency;
        let dir = link.dir_mut(forward);
        let collapsible = dir.tx_free <= first
            && ser * per_batch <= stride
            && capacity.saturating_sub(dir.queued_packets) as u64 >= total;
        if collapsible {
            // Proof the single entry is exact: the serialiser is free at
            // every batch's send time (free at `first`, and each batch
            // finishes `stride - per_batch·ser ≥ 0` before the next), so
            // batch `b`'s packet `j` arrives at
            // `first + stride·b + (j+1)·ser + latency` — the progression
            // the entry's cursors walk — and capacity admits everything,
            // so no drop decision is being skipped.
            self.total_sent += total;
            dir.queued_packets += total as usize;
            dir.tx_free = first + stride * (batches - 1) + ser * per_batch;
            dir.queue.push_back(Queued::Paced {
                next_arrival: first + ser + latency,
                ser,
                batch_stride: stride,
                per_batch,
                batch_pos: 0,
                remaining: total,
                src,
                dst,
                payload: Arc::clone(payload),
                sent: first,
            });
            return Ok(true);
        }
        self.total_sent += total;
        for b in 0..batches {
            let t = first + stride * b;
            let link = &mut self.links[link_idx];
            link.enqueue_burst(forward, src, dst, payload, per_batch, ser, t);
        }
        Ok(false)
    }

    /// Transmit-queue headroom from `socket` toward `dst`: how many more
    /// packets the connecting link direction accepts before capacity
    /// drops begin. `None` for a loopback, unrouted or stale endpoint —
    /// a span planner must treat those as "no span".
    pub fn pace_headroom(&self, socket: SocketId, dst: Addr) -> Option<u64> {
        let src = self.sockets.get(socket.0 as usize)?.addr;
        let dst = self.port_maps.get(&dst).copied().unwrap_or(dst);
        if src.ns == dst.ns {
            return None;
        }
        let li = self.route(src.ns, dst.ns)?;
        let link = &self.links[li];
        let dir = if link.a == src.ns { &link.ab } else { &link.ba };
        Some(
            link.config
                .queue_capacity
                .saturating_sub(dir.queued_packets) as u64,
        )
    }

    /// Delivers one packet to its destination socket (rate limit, then
    /// receive-queue admission), recycling the payload on any drop.
    /// `notify` adds the delivery to the current step's [`Delivery`] list
    /// (true for link traffic; loopback sends deliver silently, as the
    /// rx-thread wakeup path never saw them pre-refactor either).
    fn deliver_local(&mut self, pkt: Packet, now: SimTime, notify: bool) {
        let dst = pkt.dst;
        let i = match self.memo {
            Some((addr, i)) if addr == dst => i,
            _ => {
                let Some(&i) = self.addr_index.get(&dst) else {
                    // Unbound destination: datagram vanishes (ICMP
                    // unreachable ignored).
                    self.recycle_buf(pkt.payload);
                    return;
                };
                self.memo = Some((dst, i));
                i
            }
        };
        let s = &mut self.sockets[i as usize];
        // Ingress rate limit.
        if let Some(tb) = &mut s.rate_limit {
            if !tb.admit(now) {
                s.stats.dropped_ratelimit += 1;
                if let Some(c) = &self.counters {
                    NetCounters::bump(&c.dropped_ratelimit);
                }
                self.recycle_buf(pkt.payload);
                return;
            }
        }
        if s.rx.len() >= s.rx_capacity {
            s.stats.dropped_overflow += 1;
            if let Some(c) = &self.counters {
                NetCounters::bump(&c.dropped_overflow);
            }
            self.recycle_buf(pkt.payload);
        } else {
            s.stats.delivered += 1;
            s.stats.bytes_delivered += pkt.payload.len() as u64;
            if let Some(c) = &self.counters {
                NetCounters::bump(&c.admitted);
            }
            s.rx.push_back(pkt);
            if notify {
                if self.delivered_counts[i as usize] == 0 {
                    self.touched.push(i);
                }
                self.delivered_counts[i as usize] += 1;
            }
        }
    }

    /// Settles a run of due packets from the front RLE entry of one link
    /// direction in a single pass: one destination lookup, batched
    /// statistics, and closed-form token-bucket accounting where the
    /// bucket state permits. Packet-for-packet identical to the
    /// [`Link::pop_due`] + [`Network::deliver_local`] loop:
    ///
    /// * only the *front* entry's due prefix is taken, so FIFO order
    ///   with later entries and other directions is untouched;
    /// * admissions evaluate at the same arrival times in the same
    ///   order ([`TokenBucket::admit_span`] is bit-exact);
    /// * receive-queue pushes carry each packet's own sent time, and a
    ///   full queue mid-run degrades to pure counting — the remaining
    ///   admissions still burn tokens, exactly as the per-packet path
    ///   admits then overflows.
    ///
    /// Returns `false` (no state change) when the front entry is not an
    /// RLE run with ≥ 2 due packets on a uniform arrival stride; the
    /// caller then falls back to the per-packet pop.
    fn try_settle_span(&mut self, li: usize, forward: bool, target: SimTime) -> bool {
        let link = &self.links[li];
        let dir = if forward { &link.ab } else { &link.ba };
        let Some(front) = dir.queue.front() else {
            return false;
        };
        let (first, stride, remaining, src, dst, sent0, sent_stride) = match front {
            Queued::One { .. } => return false,
            Queued::Burst {
                next_arrival,
                stride,
                remaining,
                src,
                dst,
                sent,
                ..
            } => (
                *next_arrival,
                *stride,
                *remaining,
                *src,
                *dst,
                *sent,
                SimDuration::ZERO,
            ),
            Queued::Paced {
                next_arrival,
                batch_stride,
                per_batch,
                remaining,
                src,
                dst,
                sent,
                ..
            } => {
                if *per_batch != 1 {
                    // Nested strides: arrival deltas alternate, so the
                    // uniform-stride bulk math does not apply.
                    return false;
                }
                (
                    *next_arrival,
                    *batch_stride,
                    *remaining,
                    *src,
                    *dst,
                    *sent,
                    *batch_stride,
                )
            }
        };
        if first > target || stride.as_nanos() == 0 {
            return false;
        }
        let due = 1 + (target - first).as_nanos() / stride.as_nanos();
        let k = remaining.min(due);
        if k < 2 {
            return false;
        }

        // Resolve the destination once (same memo discipline as
        // `deliver_local`).
        let idx = match self.memo {
            Some((addr, i)) if addr == dst => Some(i),
            _ => match self.addr_index.get(&dst) {
                Some(&i) => {
                    self.memo = Some((dst, i));
                    Some(i)
                }
                None => None,
            },
        };
        let Some(i) = idx else {
            // Unbound destination: the whole run vanishes (shared
            // payloads are refcounts, nothing to recycle).
            self.links[li].consume_front(forward, k);
            return true;
        };

        let payload = match front {
            Queued::Burst { payload, .. } | Queued::Paced { payload, .. } => Arc::clone(payload),
            Queued::One { .. } => unreachable!("matched RLE above"),
        };
        let payload_len = payload.len() as u64;

        let s = &mut self.sockets[i as usize];
        let mut dropped_rl = 0u64;
        let mut overflow = 0u64;
        let mut pushed = 0u64;

        let mut j = 0u64;
        let mut arrival = first;
        let mut sent = sent0;
        // Per-packet decisions only while the receive queue has room —
        // each push must carry its packet's own sent time. Once the
        // queue is full nothing else can enter this step (no consumer
        // runs mid-settlement), so the remainder is pure counting.
        while j < k && s.rx.len() < s.rx_capacity {
            let admit = match &mut s.rate_limit {
                Some(tb) => tb.admit(arrival),
                None => true,
            };
            if admit {
                s.stats.delivered += 1;
                s.stats.bytes_delivered += payload_len;
                s.rx.push_back(Packet {
                    src,
                    dst,
                    payload: PacketBuf::Shared(Arc::clone(&payload)),
                    sent,
                });
                pushed += 1;
            } else {
                dropped_rl += 1;
            }
            arrival += stride;
            sent += sent_stride;
            j += 1;
        }
        if j < k {
            // Queue full: admissions still consume tokens (the
            // per-packet path admits, then drops on overflow), so the
            // token-bucket span math accounts the rest in one shot.
            let rest = k - j;
            let admitted = match &mut s.rate_limit {
                Some(tb) => tb.admit_span(arrival, stride, rest),
                None => rest,
            };
            dropped_rl += rest - admitted;
            overflow += admitted;
        }
        s.stats.dropped_ratelimit += dropped_rl;
        s.stats.dropped_overflow += overflow;
        if let Some(c) = &self.counters {
            NetCounters::add(&c.admitted, pushed);
            NetCounters::add(&c.dropped_ratelimit, dropped_rl);
            NetCounters::add(&c.dropped_overflow, overflow);
        }
        if pushed > 0 {
            if self.delivered_counts[i as usize] == 0 {
                self.touched.push(i);
            }
            self.delivered_counts[i as usize] += pushed as usize;
        }
        self.links[li].consume_front(forward, k);
        true
    }

    /// Advances the network to `target`, delivering due packets. Returns
    /// one [`Delivery`] per socket that received datagrams, sorted by
    /// socket id; the slice is backed by scratch storage reused across
    /// steps.
    ///
    /// A run-length-encoded front entry (a flood burst or paced span)
    /// with several due packets is settled in bulk — admission, drop and
    /// delivery counts for the whole run computed together (closed form
    /// where the token-bucket state permits, see
    /// [`TokenBucket::admit_span`]) — unless bulk settlement is disabled
    /// ([`Network::set_bulk`]), which pins the packet-by-packet
    /// reference path. The [`Delivery`] list is identical either way:
    /// it was already aggregated per socket per step.
    pub fn step(&mut self, target: SimTime) -> &[Delivery] {
        let bulk = !self.no_bulk;
        for li in 0..self.links.len() {
            for dir in 0..2 {
                loop {
                    if bulk && self.try_settle_span(li, dir == 0, target) {
                        continue;
                    }
                    match self.links[li].pop_due(dir == 0, target) {
                        Some((arrival, pkt)) => self.deliver_local(pkt, arrival, true),
                        None => break,
                    }
                }
            }
        }

        self.now = target;
        self.touched.sort_unstable();
        self.deliveries.clear();
        for &i in &self.touched {
            self.deliveries.push(Delivery {
                socket: SocketId(i),
                count: self.delivered_counts[i as usize],
            });
            self.delivered_counts[i as usize] = 0;
        }
        self.touched.clear();
        &self.deliveries
    }

    /// The arrival time of the earliest packet still in flight on any
    /// link, or `None` when every transmit queue is empty — the planning
    /// hint an event-driven executor composes with the machine's own to
    /// decide how far it may leap without a [`Network::step`] observing
    /// anything.
    ///
    /// Within one link direction arrivals are monotone (each packet's
    /// arrival is its predecessor's serialisation end plus latency), so
    /// the front entry of each queue is that direction's earliest; a
    /// run-length-encoded burst reports its next undelivered packet's
    /// arrival, which already accounts for the stride walked so far.
    /// Loopback sends never queue — they deliver inside
    /// [`Network::send`] — so they cannot invalidate this hint.
    pub fn next_delivery_time(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for link in &self.links {
            for dir in [&link.ab, &link.ba] {
                if let Some(front) = dir.queue.front() {
                    let t = front.next_arrival();
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                }
            }
        }
        earliest
    }

    /// [`Network::next_delivery_time`] restricted to packets *not*
    /// destined for `excluded` — the planning hint for a flood span
    /// whose deliveries to one inert endpoint are provably safe to
    /// cross (admission is evaluated at arrival times, so settling them
    /// late is exact; the caller owns that proof).
    ///
    /// Within a direction arrivals are monotone, so the first entry not
    /// addressed to `excluded` carries that direction's earliest
    /// non-excluded arrival; the scan is per *entry*, and flood spans
    /// are run-length-encoded into single entries.
    pub fn next_delivery_time_excluding(&self, excluded: Addr) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        for link in &self.links {
            for dir in [&link.ab, &link.ba] {
                for entry in &dir.queue {
                    if entry.dst() == excluded {
                        continue;
                    }
                    let t = entry.next_arrival();
                    earliest = Some(earliest.map_or(t, |e| e.min(t)));
                    break;
                }
            }
        }
        earliest
    }

    /// Enables or disables bulk span settlement in [`Network::step`].
    /// On by default; `false` pins the packet-by-packet reference path
    /// (`--no-bulk` in the campaign bins), kept forever as the
    /// equivalence witness the bulk path is byte-diffed against.
    pub fn set_bulk(&mut self, on: bool) {
        self.no_bulk = !on;
    }

    /// `true` while bulk span settlement is enabled (the default).
    pub fn bulk_enabled(&self) -> bool {
        !self.no_bulk
    }

    /// The earliest instant the ingress rate limit on `dst` would admit a
    /// packet (see [`TokenBucket::next_token_time`]); `now` itself when
    /// `dst` carries no limit or the bucket already holds a token.
    /// Predictive only — no bucket state changes.
    pub fn next_token_time(&self, dst: Addr, now: SimTime) -> SimTime {
        let bucket = match self.addr_index.get(&dst) {
            Some(&i) => self.sockets[i as usize].rate_limit.as_ref(),
            None => self.rate_limits.get(&dst),
        };
        bucket.map_or(now, |tb| tb.next_token_time(now))
    }

    /// Pops the oldest datagram from a socket's receive queue.
    pub fn recv(&mut self, socket: SocketId) -> Option<Packet> {
        self.sockets.get_mut(socket.0 as usize)?.rx.pop_front()
    }

    /// Drains the entire receive queue of a socket.
    pub fn recv_all(&mut self, socket: SocketId) -> Vec<Packet> {
        match self.sockets.get_mut(socket.0 as usize) {
            Some(s) => s.rx.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Number of datagrams waiting in a socket's receive queue.
    pub fn rx_depth(&self, socket: SocketId) -> usize {
        self.sockets
            .get(socket.0 as usize)
            .map_or(0, |s| s.rx.len())
    }

    /// Attaches shared live counters (see [`NetCounters`]). Clone one set
    /// onto every network in a fleet to aggregate admissions and drops
    /// across all of them; counters stay attached for the network's
    /// lifetime.
    pub fn set_counters(&mut self, counters: NetCounters) {
        self.counters = Some(counters);
    }

    /// Statistics of a socket.
    pub fn socket_stats(&self, socket: SocketId) -> SocketStats {
        self.sockets
            .get(socket.0 as usize)
            .map(|s| s.stats)
            .unwrap_or_default()
    }

    /// The endpoint a socket is bound to.
    pub fn socket_addr(&self, socket: SocketId) -> Option<Addr> {
        self.sockets.get(socket.0 as usize).map(|s| s.addr)
    }

    /// Total packets dropped on link transmit queues.
    pub fn link_drops(&self) -> u64 {
        self.links.iter().map(|l| l.dropped_queue).sum()
    }

    /// Total datagrams offered to the network since creation.
    pub fn packets_sent(&self) -> u64 {
        self.total_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (Network, NsId, NsId) {
        let mut net = Network::new();
        let host = net.add_namespace("host");
        let cce = net.add_namespace("cce");
        net.connect(host, cce, LinkConfig::default());
        (net, host, cce)
    }

    #[test]
    fn datagram_arrives_after_latency() {
        let (mut net, host, cce) = pair();
        let rx = net.bind(cce, 14660).unwrap();
        let tx = net.bind(host, 9000).unwrap();
        net.send(
            tx,
            Addr {
                ns: cce,
                port: 14660,
            },
            vec![0; 52],
            SimTime::ZERO,
        )
        .unwrap();
        // Before the latency elapses: nothing.
        assert!(net.step(SimTime::from_micros(10)).is_empty());
        // After: exactly one delivery.
        let deliveries = net.step(SimTime::from_micros(200));
        assert_eq!(
            deliveries,
            vec![Delivery {
                socket: rx,
                count: 1
            }]
        );
        let pkt = net.recv(rx).unwrap();
        assert_eq!(pkt.payload.len(), 52);
        assert!(net.recv(rx).is_none());
    }

    #[test]
    fn double_bind_fails() {
        let (mut net, host, _) = pair();
        net.bind(host, 14600).unwrap();
        assert_eq!(
            net.bind(host, 14600),
            Err(NetError::PortInUse {
                ns: host,
                port: 14600
            })
        );
    }

    #[test]
    fn no_route_is_reported() {
        let mut net = Network::new();
        let a = net.add_namespace("a");
        let b = net.add_namespace("b"); // not connected
        let tx = net.bind(a, 1).unwrap();
        let err = net
            .send(tx, Addr { ns: b, port: 2 }, vec![], SimTime::ZERO)
            .unwrap_err();
        assert_eq!(err, NetError::NoRoute { from: a, to: b });
    }

    #[test]
    fn port_mapping_redirects() {
        let (mut net, host, cce) = pair();
        // Docker-style: host:14660 maps into the container.
        net.map_port(
            Addr {
                ns: host,
                port: 14660,
            },
            Addr {
                ns: cce,
                port: 14660,
            },
        );
        let rx = net.bind(cce, 14660).unwrap();
        let tx = net.bind(host, 9000).unwrap();
        net.send(
            tx,
            Addr {
                ns: host,
                port: 14660,
            },
            vec![1],
            SimTime::ZERO,
        )
        .unwrap();
        net.step(SimTime::from_millis(1));
        assert_eq!(net.socket_stats(rx).delivered, 1);
    }

    #[test]
    fn receive_queue_overflows_under_flood() {
        let (mut net, host, cce) = pair();
        let rx = net.bind_with_capacity(host, 14600, 64).unwrap();
        let tx = net.bind(cce, 9000).unwrap();
        // Flood 1000 packets in one instant; link queue 512, rx queue 64.
        for _ in 0..1000 {
            net.send(
                tx,
                Addr {
                    ns: host,
                    port: 14600,
                },
                vec![0; 64],
                SimTime::ZERO,
            )
            .unwrap();
        }
        net.step(SimTime::from_secs(1));
        let stats = net.socket_stats(rx);
        assert_eq!(stats.delivered, 64);
        assert!(stats.dropped_overflow > 0);
        assert!(net.link_drops() >= 1000 - 512 - 64);
    }

    #[test]
    fn rate_limit_drops_excess() {
        let (mut net, host, cce) = pair();
        let rx = net.bind(host, 14600).unwrap();
        let tx = net.bind(cce, 9000).unwrap();
        net.add_rate_limit(
            Addr {
                ns: host,
                port: 14600,
            },
            100.0,
            10.0,
        );
        // Offer 1000 packets spread over one second.
        let mut t = SimTime::ZERO;
        for _ in 0..1000 {
            net.send(
                tx,
                Addr {
                    ns: host,
                    port: 14600,
                },
                vec![0; 29],
                t,
            )
            .unwrap();
            t += SimDuration::from_millis(1);
            net.step(t);
            // Drain rx so overflow never interferes with the rate limit.
            let _ = net.recv_all(rx);
        }
        let stats = net.socket_stats(rx);
        assert!(
            (100..=140).contains(&(stats.delivered as i64)),
            "delivered {}",
            stats.delivered
        );
        assert!(
            stats.dropped_ratelimit >= 850,
            "{}",
            stats.dropped_ratelimit
        );
    }

    #[test]
    fn bandwidth_serialisation_delays_bulk_traffic() {
        let mut net = Network::new();
        let a = net.add_namespace("a");
        let b = net.add_namespace("b");
        net.connect(
            a,
            b,
            LinkConfig {
                latency: SimDuration::ZERO,
                bandwidth: 1.0e6, // 1 MB/s
                queue_capacity: 1024,
            },
        );
        let rx = net.bind(b, 1).unwrap();
        let tx = net.bind(a, 2).unwrap();
        // 100 × 10 kB = 1 MB: takes a full second to serialise.
        for _ in 0..100 {
            net.send(tx, Addr { ns: b, port: 1 }, vec![0; 10_000], SimTime::ZERO)
                .unwrap();
        }
        net.step(SimTime::from_millis(500));
        let halfway = net.socket_stats(rx).delivered;
        assert!((45..=55).contains(&(halfway as i64)), "halfway {halfway}");
        net.step(SimTime::from_secs(2));
        assert_eq!(net.socket_stats(rx).delivered, 100);
    }

    #[test]
    fn loopback_delivery_within_namespace() {
        let (mut net, host, _) = pair();
        let rx = net.bind(host, 7).unwrap();
        let tx = net.bind(host, 8).unwrap();
        net.send(tx, Addr { ns: host, port: 7 }, vec![9], SimTime::ZERO)
            .unwrap();
        // Loopback is immediate.
        assert_eq!(net.socket_stats(rx).delivered, 1);
    }

    #[test]
    fn multi_tenant_routing_scales_past_two_namespaces() {
        // A miniature fleet airspace: 8 vehicles (host+container each)
        // plus one GCS namespace with an uplink per vehicle.
        let mut net = Network::new();
        let gcs = net.add_namespace("gcs");
        let mut rxs = Vec::new();
        for v in 0..8u16 {
            let host = net.add_namespace(format!("host-{v}"));
            let cont = net.add_namespace(format!("cce-{v}"));
            net.connect(host, cont, LinkConfig::default());
            net.connect(host, gcs, LinkConfig::default());
            assert!(net.connected(host, cont));
            assert!(net.connected(gcs, host));
            assert!(!net.connected(gcs, cont), "no transitive routes");
            let rx = net.bind(gcs, 15_000 + v).unwrap();
            let tx = net.bind(host, 9100).unwrap();
            net.send(
                tx,
                Addr {
                    ns: gcs,
                    port: 15_000 + v,
                },
                vec![v as u8],
                SimTime::ZERO,
            )
            .unwrap();
            rxs.push(rx);
        }
        assert_eq!(net.namespace_count(), 17);
        net.step(SimTime::from_millis(1));
        for (v, rx) in rxs.iter().enumerate() {
            let pkt = net.recv(*rx).expect("uplink datagram routed");
            assert_eq!(pkt.payload.as_slice(), [v as u8]);
        }
    }

    #[test]
    fn topology_introspection_tracks_arbitrary_peers() {
        // An airspace where peers beyond the original two tenants join
        // late: radios, a GCS, and a hostile node linked into radio range.
        let mut net = Network::new();
        let gcs = net.add_namespace("gcs");
        let r0 = net.add_namespace("radio-0");
        let r1 = net.add_namespace("radio-1");
        net.connect(r0, gcs, LinkConfig::default());
        net.connect(r1, gcs, LinkConfig::default());
        net.connect(r0, r1, LinkConfig::default()); // V2V link
        let hostile = net.add_namespace("attacker-0");
        let radio_link = LinkConfig {
            latency: SimDuration::from_millis(2),
            bandwidth: 2.0e6,
            queue_capacity: 64,
        };
        net.connect(hostile, gcs, radio_link);
        net.connect(hostile, r1, radio_link);

        assert_eq!(net.namespace_name(hostile), "attacker-0");
        assert_eq!(net.find_namespace("radio-1"), Some(r1));
        assert_eq!(net.find_namespace("radio-7"), None);
        assert_eq!(net.neighbors(gcs), vec![r0, r1, hostile]);
        assert_eq!(net.neighbors(hostile), vec![gcs, r1]);
        assert_eq!(net.neighbors(r0), vec![gcs, r1]);
        assert_eq!(net.link_config(hostile, gcs), Some(radio_link));
        assert_eq!(net.link_config(hostile, r0), None);
    }

    #[test]
    fn neighbors_reports_duplicate_links_once() {
        let (mut net, host, cce) = pair();
        net.connect(host, cce, LinkConfig::default()); // inert duplicate
        assert_eq!(net.neighbors(host), vec![cce]);
        assert_eq!(net.neighbors(cce), vec![host]);
    }

    #[test]
    fn duplicate_link_is_inert() {
        let (mut net, host, cce) = pair();
        // A second link between the same pair must not shadow the first.
        net.connect(host, cce, LinkConfig::default());
        let rx = net.bind(cce, 5).unwrap();
        let tx = net.bind(host, 6).unwrap();
        net.send(tx, Addr { ns: cce, port: 5 }, vec![1, 2], SimTime::ZERO)
            .unwrap();
        net.step(SimTime::from_millis(1));
        assert_eq!(net.socket_stats(rx).delivered, 1);
    }

    /// The RLE burst fast-path must be packet-for-packet identical to the
    /// per-packet loop it replaced: same arrivals, same capacity drops,
    /// same serialiser state afterwards.
    #[test]
    fn shared_burst_matches_per_packet_sends() {
        let build = || {
            let mut net = Network::new();
            let a = net.add_namespace("a");
            let b = net.add_namespace("b");
            net.connect(
                a,
                b,
                LinkConfig {
                    latency: SimDuration::from_micros(10),
                    bandwidth: 1.0e6,
                    queue_capacity: 300,
                },
            );
            let rx = net.bind_with_capacity(b, 1, 10_000).unwrap();
            let tx = net.bind(a, 2).unwrap();
            (net, a, b, rx, tx)
        };
        let payload: Arc<[u8]> = vec![7u8; 100].into();
        let dst = |b| Addr { ns: b, port: 1 };

        // Reference: 500 individual sends of equal bytes (200 dropped at
        // the 300-packet queue).
        let (mut reference, _, b1, rx1, tx1) = build();
        for _ in 0..500 {
            reference
                .send(tx1, dst(b1), payload.to_vec(), SimTime::ZERO)
                .unwrap();
        }
        // Burst: the same 500 packets as one RLE entry.
        let (mut burst, _, b2, rx2, tx2) = build();
        burst
            .send_shared(tx2, dst(b2), &payload, 500, SimTime::ZERO)
            .unwrap();

        assert_eq!(reference.link_drops(), 200);
        assert_eq!(burst.link_drops(), 200);
        // Halfway through the serialisation window both must have
        // delivered the same prefix...
        let t_half = SimTime::from_millis(15);
        reference.step(t_half);
        burst.step(t_half);
        assert_eq!(
            reference.socket_stats(rx1).delivered,
            burst.socket_stats(rx2).delivered,
        );
        assert!(burst.socket_stats(rx2).delivered > 0);
        // ...and at the end, all 300 admitted packets with equal bytes.
        let t_end = SimTime::from_secs(1);
        reference.step(t_end);
        burst.step(t_end);
        assert_eq!(reference.socket_stats(rx1), burst.socket_stats(rx2));
        assert_eq!(burst.socket_stats(rx2).delivered, 300);
        while let Some(p) = reference.recv(rx1) {
            let q = burst.recv(rx2).expect("burst delivered fewer packets");
            assert_eq!(p.payload, q.payload);
            assert_eq!(p.sent, q.sent);
        }
        assert!(burst.recv(rx2).is_none());
    }

    /// Individually sent packets behind a burst keep FIFO arrival order —
    /// the flood and the genuine motor stream share one link direction.
    #[test]
    fn burst_interleaves_with_single_sends_in_fifo_order() {
        let (mut net, host, cce) = pair();
        let rx = net.bind_with_capacity(host, 14600, 1024).unwrap();
        let tx = net.bind(cce, 9000).unwrap();
        let flood: Arc<[u8]> = vec![0u8; 64].into();
        let dst = Addr {
            ns: host,
            port: 14600,
        };
        net.send_shared(tx, dst, &flood, 5, SimTime::ZERO).unwrap();
        net.send(tx, dst, vec![1u8; 64], SimTime::ZERO).unwrap();
        net.send_shared(tx, dst, &flood, 3, SimTime::ZERO).unwrap();
        net.step(SimTime::from_millis(1));
        let mut seen = Vec::new();
        while let Some(pkt) = net.recv(rx) {
            seen.push(pkt.payload.as_slice()[0]);
        }
        assert_eq!(seen, [0, 0, 0, 0, 0, 1, 0, 0, 0]);
    }

    #[test]
    fn next_delivery_time_tracks_queued_packets() {
        let (mut net, host, cce) = pair();
        let _rx = net.bind(cce, 14660).unwrap();
        let tx = net.bind(host, 9000).unwrap();
        assert_eq!(net.next_delivery_time(), None, "idle net has no arrivals");
        net.send(
            tx,
            Addr {
                ns: cce,
                port: 14660,
            },
            vec![0; 52],
            SimTime::ZERO,
        )
        .unwrap();
        let hint = net.next_delivery_time().expect("one packet in flight");
        // Stepping to just before the hint delivers nothing; stepping to
        // the hint delivers the packet and clears it.
        assert!(net.step(hint - SimDuration::from_nanos(1)).is_empty());
        assert_eq!(net.next_delivery_time(), Some(hint));
        assert_eq!(net.step(hint).len(), 1);
        assert_eq!(net.next_delivery_time(), None);
    }

    #[test]
    fn next_delivery_time_walks_burst_strides() {
        let (mut net, host, cce) = pair();
        let _rx = net.bind_with_capacity(host, 14600, 1024).unwrap();
        let tx = net.bind(cce, 9000).unwrap();
        let flood: Arc<[u8]> = vec![0u8; 64].into();
        let dst = Addr {
            ns: host,
            port: 14600,
        };
        net.send_shared(tx, dst, &flood, 10, SimTime::ZERO).unwrap();
        let first = net.next_delivery_time().expect("burst queued");
        net.step(first);
        let second = net.next_delivery_time().expect("nine packets left");
        assert!(second > first, "RLE stride advances the hint");
        net.step(SimTime::from_secs(1));
        assert_eq!(net.next_delivery_time(), None);
    }

    #[test]
    fn next_token_time_reads_socket_and_pending_limits() {
        let (mut net, host, _) = pair();
        let dst = Addr {
            ns: host,
            port: 14600,
        };
        let now = SimTime::from_millis(3);
        assert_eq!(net.next_token_time(dst, now), now, "no limit: immediate");
        // A limit installed before anything binds waits in `rate_limits`.
        net.add_rate_limit(dst, 100.0, 1.0);
        assert_eq!(net.next_token_time(dst, now), now, "full bucket");
        let _rx = net.bind(host, 14600).unwrap();
        assert_eq!(net.next_token_time(dst, now), now, "moved onto socket");
    }

    /// A fleet executor moves shard networks onto worker threads, so the
    /// whole `Network` (packets, pools, bursts included) must be `Send`.
    #[test]
    fn network_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Network>();
        assert_send::<Packet>();
        assert_send::<PacketBuf>();
    }

    #[test]
    fn deliveries_are_deterministic_and_sorted() {
        let (mut net, host, cce) = pair();
        let rx1 = net.bind(host, 1).unwrap();
        let rx2 = net.bind(host, 2).unwrap();
        let tx = net.bind(cce, 9).unwrap();
        for port in [2u16, 1, 2, 1, 2] {
            net.send(tx, Addr { ns: host, port }, vec![0], SimTime::ZERO)
                .unwrap();
        }
        let d = net.step(SimTime::from_millis(1));
        assert_eq!(
            d,
            vec![
                Delivery {
                    socket: rx1,
                    count: 2
                },
                Delivery {
                    socket: rx2,
                    count: 3
                }
            ]
        );
    }

    /// Deterministic PCG-style generator for the randomized equivalence
    /// grids — no external crates, identical sequence on every run.
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 33
        }

        fn pick(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Drains both sockets fully and demands byte-identical packet
    /// streams (payload, sent time, source) plus identical stats.
    fn assert_drained_equal(a: &mut Network, ra: SocketId, b: &mut Network, rb: SocketId) {
        assert_eq!(a.socket_stats(ra), b.socket_stats(rb), "socket stats");
        loop {
            match (a.recv(ra), b.recv(rb)) {
                (None, None) => break,
                (Some(p), Some(q)) => {
                    assert_eq!(p.payload.as_slice(), q.payload.as_slice(), "payload");
                    assert_eq!(p.sent, q.sent, "sent time");
                    assert_eq!(p.src, q.src, "source");
                }
                (p, q) => panic!(
                    "stream lengths diverge: {:?} vs {:?}",
                    p.is_some(),
                    q.is_some()
                ),
            }
        }
    }

    /// The satellite equivalence grid: bulk settlement vs the per-packet
    /// reference across random token-bucket configs, link capacities,
    /// interleaved non-burst traffic from a *second* link into the same
    /// rate-limited port (exercising the non-uniform bucket-clock
    /// fallback), mid-run drains, and random step boundaries. Frames,
    /// stats, drop counts and delivery order must be byte-equal.
    #[test]
    fn bulk_settlement_matches_per_packet_reference_across_grid() {
        let mut rng = Lcg(0x5eed_cafe_f00d_0001);
        for round in 0..60 {
            let queue_cap = [4usize, 32, 300, 2048][rng.pick(4) as usize];
            let rx_cap = [2usize, 16, 256, 10_000][rng.pick(4) as usize];
            let bandwidth = [1.0e5, 2.0e6, 125.0e6][rng.pick(3) as usize];
            let latency = SimDuration::from_micros([0u64, 10, 2000][rng.pick(3) as usize]);
            let limit = match rng.pick(4) {
                0 => None,
                1 => Some((50.0, 10.0)),
                2 => Some((2000.0, 200.0)),
                _ => Some((250_000.0, 1.0)),
            };
            let build = |bulk: bool| {
                let mut net = Network::new();
                let a = net.add_namespace("a");
                let b = net.add_namespace("b");
                let c = net.add_namespace("c");
                let cfg = LinkConfig {
                    latency,
                    bandwidth,
                    queue_capacity: queue_cap,
                };
                net.connect(a, b, cfg);
                net.connect(c, b, cfg);
                let dst = Addr { ns: b, port: 1 };
                if let Some((pps, burst)) = limit {
                    net.add_rate_limit(dst, pps, burst);
                }
                let rx = net.bind_with_capacity(b, 1, rx_cap).unwrap();
                let tx_a = net.bind(a, 2).unwrap();
                let tx_c = net.bind(c, 2).unwrap();
                net.set_bulk(bulk);
                (net, rx, tx_a, tx_c, dst)
            };
            let (mut bulk, rx_b, txa_b, txc_b, dst) = build(true);
            let (mut refr, rx_r, txa_r, txc_r, _) = build(false);
            let payload: Arc<[u8]> = vec![round as u8; 1 + rng.pick(80) as usize].into();

            let mut now = SimTime::ZERO;
            for _ in 0..30 {
                now += SimDuration::from_micros(rng.pick(4000));
                match rng.pick(6) {
                    0 | 1 => {
                        let count = 1 + rng.pick(400);
                        bulk.send_shared(txa_b, dst, &payload, count, now).unwrap();
                        refr.send_shared(txa_r, dst, &payload, count, now).unwrap();
                    }
                    2 => {
                        // Interleaved individual traffic on the same dir.
                        bulk.send(txa_b, dst, payload.to_vec(), now).unwrap();
                        refr.send(txa_r, dst, payload.to_vec(), now).unwrap();
                    }
                    3 => {
                        // Cross-link traffic into the same rate-limited
                        // port: the bucket clock advances out of band.
                        let count = 1 + rng.pick(50);
                        bulk.send_shared(txc_b, dst, &payload, count, now).unwrap();
                        refr.send_shared(txc_r, dst, &payload, count, now).unwrap();
                    }
                    4 => {
                        let d_b: Vec<Delivery> = bulk.step(now).to_vec();
                        let d_r: Vec<Delivery> = refr.step(now).to_vec();
                        assert_eq!(d_b, d_r, "deliveries diverged at {now:?}");
                    }
                    _ => {
                        // Mid-run partial drain frees receive-queue space.
                        for _ in 0..rng.pick(8) {
                            match (bulk.recv(rx_b), refr.recv(rx_r)) {
                                (None, None) => break,
                                (Some(p), Some(q)) => {
                                    assert_eq!(p.sent, q.sent);
                                    assert_eq!(p.payload.as_slice(), q.payload.as_slice());
                                }
                                _ => panic!("drain diverged"),
                            }
                        }
                    }
                }
            }
            let end = now + SimDuration::from_secs(10);
            assert_eq!(bulk.step(end).to_vec(), refr.step(end).to_vec());
            assert_eq!(bulk.link_drops(), refr.link_drops(), "link drops");
            assert_eq!(bulk.packets_sent(), refr.packets_sent());
            assert_drained_equal(&mut bulk, rx_b, &mut refr, rx_r);
        }
    }

    /// `send_paced` (one collapsed span entry, or its per-batch
    /// fallback) vs the per-quantum `send_shared` loop it replaces:
    /// byte-equal delivery streams and stats across random strides,
    /// batch sizes, pre-loaded serialisers and tight queues — with bulk
    /// settlement on and off.
    #[test]
    fn paced_span_matches_per_quantum_shared_sends() {
        let mut rng = Lcg(0x5eed_cafe_f00d_0002);
        for round in 0..60 {
            let queue_cap = [8usize, 64, 1024][rng.pick(3) as usize];
            let bandwidth = [2.0e6, 125.0e6][rng.pick(2) as usize];
            let latency = SimDuration::from_micros([5u64, 50][rng.pick(2) as usize]);
            let limit = match rng.pick(3) {
                0 => None,
                1 => Some((900.0, 20.0)),
                _ => Some((20_000.0, 3.0)),
            };
            let bulk_on = rng.pick(2) == 0;
            let build = |_| {
                let mut net = Network::new();
                let a = net.add_namespace("a");
                let b = net.add_namespace("b");
                let cfg = LinkConfig {
                    latency,
                    bandwidth,
                    queue_capacity: queue_cap,
                };
                net.connect(a, b, cfg);
                let dst = Addr { ns: b, port: 1 };
                if let Some((pps, burst)) = limit {
                    net.add_rate_limit(dst, pps, burst);
                }
                let rx = net.bind_with_capacity(b, 1, 4096).unwrap();
                let tx = net.bind(a, 2).unwrap();
                net.set_bulk(bulk_on);
                (net, rx, tx, dst)
            };
            let (mut paced, rx_p, tx_p, dst) = build(());
            let (mut refr, rx_r, tx_r, _) = build(());
            let payload: Arc<[u8]> = vec![round as u8; 1 + rng.pick(64) as usize].into();

            // Sometimes pre-load the serialiser so the collapsed-entry
            // precondition fails and the fallback path runs.
            let first = SimTime::from_micros(100 + rng.pick(500));
            if rng.pick(3) == 0 {
                let t0 = SimTime::from_micros(rng.pick(700));
                paced.send(tx_p, dst, payload.to_vec(), t0).unwrap();
                refr.send(tx_r, dst, payload.to_vec(), t0).unwrap();
            }
            let per_batch = 1 + rng.pick(3);
            let batches = 1 + rng.pick(120);
            let stride = SimDuration::from_micros(1 + rng.pick(200));

            paced
                .send_paced(tx_p, dst, &payload, per_batch, batches, first, stride)
                .unwrap();
            for b in 0..batches {
                refr.send_shared(tx_r, dst, &payload, per_batch, first + stride * b)
                    .unwrap();
            }

            // Step through the span at random boundaries, comparing the
            // delivery notifications along the way.
            let span_end = first + stride * batches + SimDuration::from_secs(1);
            let mut now = first;
            while now < span_end {
                now += SimDuration::from_micros(1 + rng.pick(40_000));
                let t = now.min(span_end);
                assert_eq!(paced.step(t).to_vec(), refr.step(t).to_vec());
            }
            assert_eq!(paced.link_drops(), refr.link_drops());
            assert_eq!(paced.packets_sent(), refr.packets_sent());
            assert_drained_equal(&mut paced, rx_p, &mut refr, rx_r);
        }
    }
}
