//! External attacker nodes: hostile peers that are not onboard any
//! vehicle.
//!
//! The paper's attacker lives *inside* a victim's container; swarm-scale
//! threat models add adversaries that merely stand inside radio range —
//! a ground transmitter flooding a vehicle's telemetry port on the GCS
//! ([`FleetTarget::GcsUplink`](attacks::fleet::FleetTarget)) or jamming
//! its V2V coordination port
//! ([`FleetTarget::SwarmJam`](attacks::fleet::FleetTarget)). An
//! [`AttackerNode`] is such a peer: a namespace that
//! [joined](crate::airspace::Airspace::join_peer) the airspace with
//! routed links to the GCS and into radio range of the whole formation,
//! plus its own machine hosting the flooder processes.
//!
//! Armed attacks are the existing [`AttackDriver`] machinery: each
//! compiled [`AttackerEntry`] arms into a boxed driver stepped
//! generically, and `CeaseFire` entries halt the drivers aimed at their
//! target (an external attacker aims its cease-fire — unlike the
//! per-vehicle timelines, where a cease-fire silences the whole vehicle).
//!
//! Emission is quantised to the fleet's poll boundaries — the
//! coordinating thread's merge point — so attacker traffic, like the GCS
//! downlink and the swarm streams, is byte-identical at any thread count
//! and under any shard partition. A 20 kpps flood therefore arrives as
//! poll-period bursts whose arrivals the link serialiser spreads, not as
//! per-quantum trickle; a driver's first burst covers only the time
//! since its scheduled onset (never the span before it), and an attack
//! window shorter than one poll period may round down to nothing — the
//! quantisation floor.

use attacks::driver::AttackDriver;
use attacks::fleet::{AttackerEntry, AttackerTarget};
use attacks::script::AttackEvent;
use attacks::udp_flood::{shared_flood_payload, FloodEmitter};
use rt_sched::machine::{Machine, MachineConfig};
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::{Addr, LinkConfig, Network, NsId};

use crate::airspace::Airspace;
use crate::gcs::GCS_PORT_BASE;
use crate::swarm::SWARM_RX_PORT;

/// First source port an attacker node binds flooder sockets on.
pub const ATTACKER_SRC_PORT_BASE: u16 = 4_000;

/// External-attacker configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackerConfig {
    /// Number of hostile namespaces to spawn (entries are assigned to
    /// node `victim % nodes`, so a flood and the cease-fire that ends it
    /// always land on the same node). Nodes without entries are not
    /// created.
    pub nodes: usize,
    /// The hostile transmitter's link characteristics into the airspace
    /// (same link to the GCS and to every radio). Deliberately beefier
    /// than a telemetry radio: a directional high-power flood rig.
    pub link: LinkConfig,
}

impl Default for AttackerConfig {
    fn default() -> Self {
        AttackerConfig {
            nodes: 1,
            link: LinkConfig {
                latency: SimDuration::from_millis(2),
                bandwidth: 10.0e6,
                queue_capacity: 4096,
            },
        }
    }
}

/// An armed external flood: the off-board counterpart of
/// [`attacks::udp_flood::FloodDriver`], sharing its emission kernel
/// ([`FloodEmitter`]). No victim container hosts it, so there is no
/// flooder task to kill — the process lives on the attacker's own
/// machine and `halt` just silences the emitter.
#[derive(Debug, Clone)]
struct ExternalFlood {
    name: &'static str,
    emitter: FloodEmitter,
}

impl AttackDriver for ExternalFlood {
    fn name(&self) -> &'static str {
        self.name
    }

    fn clone_box(&self) -> Box<dyn AttackDriver> {
        Box::new(self.clone())
    }

    fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        self.emitter.step(net, now, dt);
    }

    fn halt(&mut self, _machine: &mut Machine) {
        self.emitter.stop();
    }

    fn packets_sent(&self) -> u64 {
        self.emitter.sent()
    }
}

/// One hostile peer in the airspace, driving its compiled attack
/// timeline against GCS uplinks and swarm ports.
#[derive(Debug)]
pub struct AttackerNode {
    ns: NsId,
    /// The attacker's own computer — hosts the flooder processes and
    /// receives the `halt` calls of the driver machinery.
    machine: Machine,
    gcs_ns: NsId,
    radios: Vec<NsId>,
    entries: Vec<AttackerEntry>,
    cursor: usize,
    armed: Vec<(AttackerTarget, Box<dyn AttackDriver>)>,
    log: Vec<(SimTime, &'static str)>,
    last_tick: SimTime,
    next_src_port: u16,
}

impl AttackerNode {
    /// Joins the airspace as `attacker-<index>`: routed links to the GCS
    /// and to every radio in the formation (a jam target may be any
    /// vehicle), carrying the compiled entries for this node.
    pub fn build(
        air: &mut Airspace,
        index: usize,
        entries: Vec<AttackerEntry>,
        cfg: &AttackerConfig,
    ) -> Self {
        let radio_range: Vec<(usize, LinkConfig)> =
            (0..air.n_vehicles()).map(|i| (i, cfg.link)).collect();
        let ns = air.join_peer(format!("attacker-{index}"), Some(cfg.link), radio_range);
        AttackerNode {
            ns,
            machine: Machine::new(MachineConfig::default()),
            gcs_ns: air.gcs_ns(),
            radios: air.radios().to_vec(),
            entries,
            cursor: 0,
            armed: Vec::new(),
            log: Vec::new(),
            last_tick: SimTime::ZERO,
            next_src_port: ATTACKER_SRC_PORT_BASE,
        }
    }

    /// The attacker's namespace in the airspace.
    pub fn netns(&self) -> NsId {
        self.ns
    }

    /// `(time, driver name)` pairs for every armed event so far.
    pub fn log(&self) -> &[(SimTime, &'static str)] {
        &self.log
    }

    /// Datagrams this node has offered to the airspace.
    pub fn packets_sent(&self) -> u64 {
        self.armed.iter().map(|(_, d)| d.packets_sent()).sum()
    }

    // The hostile-timeline execution path: entries come from campaign
    // scripts, so structural surprises must be booked errors or carry a
    // proof, never an unchecked panic.
    // cd-lint: deny(panic_paths)
    fn resolve(&self, target: AttackerTarget) -> Addr {
        match target {
            AttackerTarget::GcsUplink(v) => Addr {
                ns: self.gcs_ns,
                port: GCS_PORT_BASE + v as u16,
            },
            AttackerTarget::SwarmJam(v) => Addr {
                // cd-lint: allow(panic_paths) -- compile_attackers wraps v modulo the fleet size, so it indexes in range
                ns: self.radios[v],
                port: SWARM_RX_PORT,
            },
        }
    }

    /// One attacker turn at a poll boundary: arms every entry whose onset
    /// has passed, then steps the armed drivers — pre-existing drivers
    /// with the elapsed time since the previous turn, drivers armed
    /// *this* turn with only the time since their scheduled onset, so an
    /// attack never back-fills load for the span before its window
    /// opened. Deterministic for any executor: turns happen only on the
    /// coordinating thread at poll ticks.
    pub fn tick(&mut self, net: &mut Network, now: SimTime) {
        let prev = self.last_tick;
        self.last_tick = now;
        let armed_before = self.armed.len();
        let mut onsets = Vec::new();
        while let Some(entry) = self.entries.get(self.cursor) {
            if entry.at > now {
                break;
            }
            self.cursor += 1;
            match &entry.event {
                AttackEvent::UdpFlood(flood) => {
                    let socket = net
                        .bind(self.ns, self.next_src_port)
                        // cd-lint: allow(panic_paths) -- ports ascend from ATTACKER_SRC_PORT_BASE in the attacker's own namespace, so the bind cannot collide
                        .expect("attacker source port free");
                    self.next_src_port += 1;
                    let name = match entry.target {
                        AttackerTarget::GcsUplink(_) => "gcs-uplink-flood",
                        AttackerTarget::SwarmJam(_) => "swarm-jam",
                    };
                    let driver = ExternalFlood {
                        name,
                        emitter: FloodEmitter::new(
                            socket,
                            self.resolve(entry.target),
                            flood.pps,
                            shared_flood_payload(flood.payload),
                        ),
                    };
                    self.log.push((now, name));
                    self.armed.push((entry.target, Box::new(driver)));
                    onsets.push(entry.at);
                }
                AttackEvent::CeaseFire => {
                    self.log.push((now, "cease-fire"));
                    for (target, driver) in &mut self.armed {
                        if *target == entry.target {
                            driver.halt(&mut self.machine);
                        }
                    }
                }
                // cd-lint: allow(panic_paths) -- compile_attackers asserts every attacker entry is a flood or cease-fire
                other => unreachable!(
                    "compile_attackers admits only network events, got {}",
                    other.name()
                ),
            }
        }
        let dt = now.saturating_since(prev);
        // Entries armed this turn sit after `armed_before` and pushed one
        // onset each, so the zip below pairs them exactly.
        let (existing, fresh) = self.armed.split_at_mut(armed_before);
        for (_, driver) in existing {
            driver.step(net, now, dt);
        }
        for ((_, driver), onset) in fresh.iter_mut().zip(&onsets) {
            // Armed this turn: emit only from its onset (clamped to
            // the turn window), not from the previous tick.
            driver.step(net, now, now.saturating_since((*onset).max(prev)));
        }
    }
    // cd-lint: end(panic_paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use attacks::fleet::{FleetScript, FleetTarget};
    use attacks::udp_flood::UdpFlood;
    use sim_core::time::SimTime;

    fn jam_script(at: u64, target: FleetTarget) -> Vec<AttackerEntry> {
        FleetScript::new()
            .at(
                SimTime::from_secs(at),
                target,
                AttackEvent::UdpFlood(UdpFlood {
                    pps: 1_000.0,
                    payload: 64,
                    target_port: 0, // ignored: the fleet target picks the port
                }),
            )
            .compile_attackers(3)
    }

    #[test]
    fn attacker_floods_the_gcs_uplink_port() {
        let mut air = Airspace::build(3, LinkConfig::default());
        let gcs_ns = air.gcs_ns();
        let gcs_rx = air.net_mut().bind(gcs_ns, GCS_PORT_BASE + 1).unwrap();
        let entries = jam_script(1, FleetTarget::GcsUplink(1));
        let mut node = AttackerNode::build(&mut air, 0, entries, &AttackerConfig::default());
        assert_eq!(air.net().namespace_name(node.netns()), "attacker-0");

        // Before onset: silent.
        node.tick(air.net_mut(), SimTime::from_millis(500));
        assert_eq!(node.packets_sent(), 0);
        // The arm tick lands exactly on the onset, so it emits nothing —
        // a flood never back-fills the span before its window opened.
        node.tick(air.net_mut(), SimTime::from_secs(1));
        assert_eq!(node.packets_sent(), 0, "pre-onset back-fill");
        // Each following 500 ms turn delivers its 1000 pps share.
        node.tick(air.net_mut(), SimTime::from_millis(1500));
        node.tick(air.net_mut(), SimTime::from_secs(2));
        assert_eq!(node.packets_sent(), 1000);
        air.net_mut().step(SimTime::from_secs(2));
        assert!(air.net().socket_stats(gcs_rx).delivered > 0);
        assert_eq!(node.log().len(), 1);
        assert_eq!(node.log()[0].1, "gcs-uplink-flood");
    }

    #[test]
    fn cease_fire_halts_only_its_target() {
        let mut air = Airspace::build(3, LinkConfig::default());
        let entries = FleetScript::new()
            .at(
                SimTime::from_secs(1),
                FleetTarget::GcsUplink(0),
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            )
            .at(
                SimTime::from_secs(1),
                FleetTarget::SwarmJam(2),
                AttackEvent::UdpFlood(UdpFlood::against_motor_port()),
            )
            .at(
                SimTime::from_secs(2),
                FleetTarget::GcsUplink(0),
                AttackEvent::CeaseFire,
            )
            .compile_attackers(3);
        let mut node = AttackerNode::build(&mut air, 0, entries, &AttackerConfig::default());
        node.tick(air.net_mut(), SimTime::from_secs(1)); // arms both, no back-fill
        node.tick(air.net_mut(), SimTime::from_millis(1500));
        let after_first = node.packets_sent();
        assert!(after_first > 0, "both floods armed and emitted");
        // The cease-fire kills the uplink flood; the jam keeps emitting.
        node.tick(air.net_mut(), SimTime::from_secs(2));
        let uplink_then = node.armed[0].1.packets_sent();
        let jam_then = node.armed[1].1.packets_sent();
        node.tick(air.net_mut(), SimTime::from_secs(3));
        assert_eq!(node.armed[0].1.packets_sent(), uplink_then, "halted");
        assert!(node.armed[1].1.packets_sent() > jam_then, "still jamming");
    }
}
