//! Communication DoS: a UDP flood against the HCE's listening port.
//!
//! "We launched a program mid-fly that continuously send packets to the
//! UDP port that the HCE is listening on" (§V-C). The damage is threefold:
//! flood datagrams crowd genuine `MotorOutput` frames out of the finite
//! receive queue, each delivered datagram costs rx-thread CPU, and the
//! parser must skip the garbage.

use std::sync::{Arc, Mutex};

use container_rt::container::Container;
use rt_sched::machine::Machine;
use rt_sched::task::{Cost, TaskId, TaskSpec};
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::{Addr, NetError, Network, NsId, SocketId};

use crate::driver::AttackDriver;

/// Hands out the all-zero flood buffer for `len`-byte payloads from a
/// process-global cache, so every armed flooder of a given size — across
/// all vehicles of a fleet, on any thread — shares one allocation instead
/// of carrying its own. Flood payloads are garbage by design ("zeros
/// never parse as a MAVLink frame"), so sharing loses nothing.
pub fn shared_flood_payload(len: usize) -> Arc<[u8]> {
    static CACHE: Mutex<Vec<(usize, Arc<[u8]>)>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some((_, payload)) = cache.iter().find(|(l, _)| *l == len) {
        return Arc::clone(payload);
    }
    let payload: Arc<[u8]> = vec![0u8; len].into();
    cache.push((len, Arc::clone(&payload)));
    payload
}

/// Flood parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UdpFlood {
    /// Packets per second offered.
    pub pps: f64,
    /// Payload size of each flood datagram, bytes.
    pub payload: usize,
    /// Destination port on the host (14600 = the motor-output port).
    pub target_port: u16,
}

impl UdpFlood {
    /// The paper's attack: garbage datagrams at high rate against the
    /// motor-output port.
    pub fn against_motor_port() -> Self {
        UdpFlood {
            pps: 20_000.0,
            payload: 64,
            target_port: 14600,
        }
    }

    /// Starts the flood: binds a sender socket in the container namespace
    /// and spawns the flooding process (a busy task that costs container
    /// CPU). Returns the driver to step each quantum.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] if the sender socket cannot be bound.
    pub fn launch(
        &self,
        machine: &mut Machine,
        net: &mut Network,
        container: &mut Container,
        host_ns: NsId,
        src_port: u16,
    ) -> Result<FloodDriver, NetError> {
        let socket = net.bind(container.netns(), src_port)?;
        let task = container.run_task(
            machine,
            TaskSpec::busy_fair(
                "udp-flooder",
                Cost::memory_bound(SimDuration::from_secs(1), 0.8e6, 0.2),
            ),
        );
        Ok(FloodDriver {
            emitter: FloodEmitter::new(
                socket,
                Addr {
                    ns: host_ns,
                    port: self.target_port,
                },
                self.pps,
                // Garbage payload: zeros never parse as a MAVLink frame.
                // One shared buffer serves every flood packet (fan-out
                // fast-path) and every flooder instance (fleet-wide
                // cache).
                shared_flood_payload(self.payload),
            ),
            task,
        })
    }
}

/// The emission kernel shared by every flooder — onboard
/// ([`FloodDriver`]) or off-board (a fleet attacker node): paces `pps`
/// against a fractional carry accumulator and fans one shared payload
/// out per step through the [`Network::send_shared`] fast-path.
#[derive(Debug, Clone)]
pub struct FloodEmitter {
    socket: SocketId,
    dst: Addr,
    pps: f64,
    payload: Arc<[u8]>,
    carry: f64,
    sent: u64,
    active: bool,
}

impl FloodEmitter {
    /// A live emitter offering `pps` copies of `payload` per second from
    /// `socket` to `dst`.
    pub fn new(socket: SocketId, dst: Addr, pps: f64, payload: Arc<[u8]>) -> Self {
        FloodEmitter {
            socket,
            dst,
            pps,
            payload,
            carry: 0.0,
            sent: 0,
            active: true,
        }
    }

    /// Emits `dt`'s worth of flood packets as one counted batch.
    pub fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        if !self.active {
            return;
        }
        self.carry += self.pps * dt.as_secs_f64();
        let mut count = 0u64;
        while self.carry >= 1.0 {
            self.carry -= 1.0;
            count += 1;
        }
        if count > 0 {
            let _ = net.send_shared(self.socket, self.dst, &self.payload, count, now);
            self.sent += count;
        }
    }

    /// The flooded destination.
    pub fn dst(&self) -> Addr {
        self.dst
    }

    /// The sending socket.
    pub fn socket(&self) -> SocketId {
        self.socket
    }

    /// Upper bound on the datagrams [`FloodEmitter::span_emit`] over
    /// `(from, to)` plus the regular step at `to` will offer: the carry
    /// is always below one token, and the steps at `from + quantum ..= to`
    /// add exactly `pps · (to − from)` tokens between them.
    pub fn span_bound(&self, from: SimTime, to: SimTime) -> u64 {
        (self.carry + self.pps * to.saturating_since(from).as_secs_f64()) as u64 + 1
    }

    /// Replays the carry walk of the per-quantum steps at
    /// `t = from + quantum, from + 2·quantum, …` (strictly below `to`),
    /// offering each step's packets at its historical time. Runs of
    /// quanta with equal emission counts collapse into one
    /// [`Network::send_paced`] span apiece, so the fig7 steady state —
    /// one packet every quantum for seconds on end — becomes a single
    /// queue entry. The carry arithmetic is evaluated per quantum in the
    /// identical order the stepped path uses, so `carry`, `sent` and
    /// every emission time are bit-equal to per-quantum stepping.
    pub fn span_emit(
        &mut self,
        net: &mut Network,
        from: SimTime,
        to: SimTime,
        quantum: SimDuration,
    ) {
        if !self.active {
            return;
        }
        let inc = self.pps * quantum.as_secs_f64();
        let mut t = from + quantum;
        let mut run_count = 0u64;
        let mut run_len = 0u64;
        let mut run_start = t;
        while t < to {
            self.carry += inc;
            let mut count = 0u64;
            while self.carry >= 1.0 {
                self.carry -= 1.0;
                count += 1;
            }
            if count == run_count {
                run_len += 1;
            } else {
                if run_count > 0 && run_len > 0 {
                    let _ = net.send_paced(
                        self.socket,
                        self.dst,
                        &self.payload,
                        run_count,
                        run_len,
                        run_start,
                        quantum,
                    );
                    self.sent += run_count * run_len;
                }
                run_count = count;
                run_len = 1;
                run_start = t;
            }
            t += quantum;
        }
        if run_count > 0 && run_len > 0 {
            let _ = net.send_paced(
                self.socket,
                self.dst,
                &self.payload,
                run_count,
                run_len,
                run_start,
                quantum,
            );
            self.sent += run_count * run_len;
        }
    }

    /// Total packets offered so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Stops emitting (idempotent).
    pub fn stop(&mut self) {
        self.active = false;
    }

    /// `true` until [`FloodEmitter::stop`] is called.
    pub fn is_active(&self) -> bool {
        self.active
    }
}

/// Drives an active flood: call [`FloodDriver::step`] every quantum.
#[derive(Debug, Clone)]
pub struct FloodDriver {
    emitter: FloodEmitter,
    task: TaskId,
}

impl FloodDriver {
    /// Stable identifier shared by [`AttackDriver::name`], the timeline
    /// event name and result aggregation.
    pub const NAME: &'static str = "udp-flood";

    /// Emits this quantum's worth of flood packets as one counted batch.
    pub fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        self.emitter.step(net, now, dt);
    }

    /// Total packets offered so far.
    pub fn sent(&self) -> u64 {
        self.emitter.sent()
    }

    /// The flooding process's task id (killable).
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Stops emitting and kills the flooding process (e.g. when the
    /// attack window ends).
    pub fn stop(&mut self, machine: &mut Machine) {
        self.emitter.stop();
        machine.kill(self.task);
    }
}

impl AttackDriver for FloodDriver {
    fn name(&self) -> &'static str {
        Self::NAME
    }

    fn clone_box(&self) -> Box<dyn AttackDriver> {
        Box::new(self.clone())
    }

    fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        FloodDriver::step(self, net, now, dt);
    }

    fn halt(&mut self, machine: &mut Machine) {
        self.stop(machine);
    }

    fn quantum_active(&self) -> bool {
        self.emitter.is_active()
    }

    fn packets_sent(&self) -> u64 {
        self.emitter.sent()
    }

    fn span_dst(&self) -> Option<Addr> {
        if !self.emitter.is_active() {
            return None;
        }
        Some(self.emitter.dst())
    }

    fn span_ready(&self, net: &Network, from: SimTime, to: SimTime, _quantum: SimDuration) -> bool {
        // Slack beyond the flood's own bound for whatever the tail
        // quantum's job dispatch enqueues on the same link direction
        // (a handful of motor frames at most) before the span-end
        // network step finally drains it.
        const TAIL_SLACK: u64 = 64;
        let bound = self.emitter.span_bound(from, to).saturating_add(TAIL_SLACK);
        net.pace_headroom(self.emitter.socket(), self.emitter.dst())
            .is_some_and(|headroom| headroom >= bound)
    }

    fn span_emit(&mut self, net: &mut Network, from: SimTime, to: SimTime, quantum: SimDuration) {
        self.emitter.span_emit(net, from, to, quantum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_rt::container::ContainerConfig;
    use rt_sched::machine::MachineConfig;

    #[test]
    fn flood_reaches_offered_rate() {
        let mut m = Machine::new(MachineConfig::default());
        let mut net = Network::new();
        let host = net.add_namespace("host");
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        let rx = net.bind_with_capacity(host, 14600, 100_000).unwrap();

        let mut driver = UdpFlood {
            pps: 5_000.0,
            payload: 64,
            target_port: 14600,
        }
        .launch(&mut m, &mut net, &mut c, host, 40000)
        .unwrap();

        let dt = SimDuration::from_micros(50);
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(1) {
            driver.step(&mut net, t, dt);
            t += dt;
            net.step(t);
        }
        assert!(
            (4_990..=5_010).contains(&(driver.sent() as i64)),
            "{}",
            driver.sent()
        );
        let stats = net.socket_stats(rx);
        // Most packets arrive (large rx buffer, no rate limit configured).
        assert!(stats.delivered > 4_000, "delivered {}", stats.delivered);
    }

    #[test]
    fn span_emit_matches_per_quantum_stepping() {
        // Rates chosen to exercise the carry walk: sub-quantum (counts
        // alternating 0/1), exactly one per quantum (the fig7 case), and
        // multi-packet quanta (counts alternating 3/4).
        for pps in [7_300.0, 20_000.0, 64_000.0] {
            let build = || {
                let mut m = Machine::new(MachineConfig::default());
                let mut net = Network::new();
                let host = net.add_namespace("host");
                let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
                net.add_rate_limit(
                    Addr {
                        ns: host,
                        port: 14600,
                    },
                    2_000.0,
                    200.0,
                );
                let rx = net.bind_with_capacity(host, 14600, 256).unwrap();
                let driver = UdpFlood {
                    pps,
                    payload: 64,
                    target_port: 14600,
                }
                .launch(&mut m, &mut net, &mut c, host, 40000)
                .unwrap();
                (m, net, rx, driver)
            };
            let (_, mut net_a, rx_a, mut stepped) = build();
            let (_, mut net_b, rx_b, mut spanned) = build();

            let q = SimDuration::from_micros(50);
            let end = SimTime::from_millis(40);

            // Reference: step every quantum.
            let mut t = SimTime::ZERO;
            while t <= end {
                stepped.step(&mut net_a, t, q);
                net_a.step(t);
                t += q;
            }

            // Span path, the executor's protocol: a regular step at each
            // span boundary, one post-hoc emission for everything in
            // between, the network stepped only at boundaries. Chunks are
            // sized so the span bound fits the queue headroom — the same
            // gate the runner enforces via `pace_headroom`.
            let mut now = SimTime::ZERO;
            spanned.step(&mut net_b, now, q);
            net_b.step(now);
            while now < end {
                let next = (now + SimDuration::from_millis(5)).min(end);
                assert!(spanned.span_dst().is_some());
                assert!(
                    spanned.span_ready(&net_b, now, next, q),
                    "5 ms chunks must fit the queue headroom (pps {pps})"
                );
                AttackDriver::span_emit(&mut spanned, &mut net_b, now, next, q);
                now = next;
                spanned.step(&mut net_b, now, q);
                net_b.step(now);
            }

            assert_eq!(stepped.sent(), spanned.sent(), "pps {pps}");
            assert_eq!(
                net_a.socket_stats(rx_a),
                net_b.socket_stats(rx_b),
                "pps {pps}"
            );
            loop {
                match (net_a.recv(rx_a), net_b.recv(rx_b)) {
                    (None, None) => break,
                    (Some(p), Some(r)) => {
                        assert_eq!(p.sent, r.sent);
                        assert_eq!(p.payload.as_slice(), r.payload.as_slice());
                    }
                    _ => panic!("delivered streams diverge (pps {pps})"),
                }
            }
        }
    }

    #[test]
    fn stop_halts_the_flood() {
        let mut m = Machine::new(MachineConfig::default());
        let mut net = Network::new();
        let host = net.add_namespace("host");
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        net.bind(host, 14600).unwrap();
        let mut driver = UdpFlood::against_motor_port()
            .launch(&mut m, &mut net, &mut c, host, 40000)
            .unwrap();
        let dt = SimDuration::from_millis(1);
        driver.step(&mut net, SimTime::ZERO, dt);
        let sent = driver.sent();
        assert!(sent > 0);
        driver.stop(&mut m);
        driver.step(&mut net, SimTime::from_millis(1), dt);
        assert_eq!(driver.sent(), sent);
        assert!(!m.is_alive(driver.task()));
    }
}
