//! The runtime side of the timeline API: armed attacks as trait objects.
//!
//! An [`crate::script::AttackEvent`] is pure data; when its scheduled time
//! arrives the runner *arms* it against an [`AttackCtx`], producing a
//! boxed [`AttackDriver`] that lives for the rest of the run (or until a
//! `CeaseFire` event halts it). The runner then advances every armed
//! driver each scheduler quantum, so any number of attacks — of the same
//! or different kinds — can overlap freely.

use rt_sched::machine::Machine;
use rt_sched::task::TaskId;
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::{Addr, Network, NsId};

use container_rt::container::Container;

/// Everything an attack may touch when it arms: the machine (to spawn or
/// kill tasks), the network (to bind sockets), the container it escapes
/// from, and runner-provided targeting data.
pub struct AttackCtx<'a> {
    /// The simulated machine.
    pub machine: &'a mut Machine,
    /// The virtual network.
    pub net: &'a mut Network,
    /// The container the attacker controls.
    pub container: &'a mut Container,
    /// The host namespace (victim side of the bridged channel).
    pub host_ns: NsId,
    /// Tasks of the complex controller (targets for kill attacks).
    pub controller_tasks: &'a [TaskId],
    /// Whether the CPU-isolation protection currently confines the
    /// attacker to the container's cpuset and non-RT priority.
    pub cpu_isolation: bool,
    /// Source port allocated to this arming (unique per armed attack, so
    /// concurrent network attacks never collide on a bind).
    pub src_port: u16,
}

/// A live, armed attack.
///
/// Implemented by all five attack families; the runner drives armed
/// attacks generically through this trait, which is what makes the
/// timeline composable — adding a sixth attack kind touches no runner
/// code. `Send` is a supertrait because a fleet executor moves whole
/// vehicles (armed attacks included) onto worker threads.
pub trait AttackDriver: std::fmt::Debug + Send {
    /// Short identifier used in markers, logs and reports.
    fn name(&self) -> &'static str;

    /// A deep, independent copy of this driver — what lets a whole
    /// mid-flight run be cloned and forked. The contract: the copy
    /// carries every piece of emission state (pacing carry, sequence
    /// numbers, counters, the active flag), so stepping the copy
    /// against a clone of the network offers exactly the traffic the
    /// original would have, and nothing done to one ever reaches the
    /// other. Handles into the machine or network (task and socket
    /// ids) are plain indices and copy as-is; they stay valid because
    /// the machine and network are cloned alongside. A `Clone` driver
    /// implements it as `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn AttackDriver>;

    /// Advances the attack by one scheduler quantum (network attacks emit
    /// their packets here; resource hogs are pure scheduler load and keep
    /// the default no-op).
    fn step(&mut self, _net: &mut Network, _now: SimTime, _dt: SimDuration) {}

    /// Halts the attack: stop emitting and kill its processes. Called by
    /// `CeaseFire` events. Idempotent.
    fn halt(&mut self, _machine: &mut Machine) {}

    /// `true` while [`AttackDriver::step`] has per-quantum work to do.
    /// Resource hogs are pure scheduler load (their `step` is the default
    /// no-op) and halted emitters stay silent, so both report `false` —
    /// which is what lets an event-driven executor skip their `step`
    /// calls across a leaped span without changing behavior.
    fn quantum_active(&self) -> bool {
        false
    }

    /// Datagrams offered to the network so far (0 for non-network
    /// attacks).
    fn packets_sent(&self) -> u64 {
        0
    }

    /// Span-emission capability: `Some(dst)` if this driver can
    /// reproduce, post-hoc in one batch, exactly the traffic its
    /// per-quantum [`AttackDriver::step`] calls would have offered across
    /// an event-free span — all of it aimed at `dst`. The executor uses
    /// the address to keep leaping across the driver's own deliveries
    /// (they cannot wake anything while the flooded receiver is inert)
    /// while every *other* arrival still breaks the span. `None` — the
    /// default — means per-quantum stepping is the only exact schedule.
    fn span_dst(&self) -> Option<Addr> {
        None
    }

    /// Whether a concrete span `(from, to)` is provably exact to emit in
    /// one batch — in particular, that the link queue has headroom for
    /// every datagram the span plus the regular tail step at `to` can
    /// offer, so a capacity boundary the per-quantum schedule would never
    /// hit (its deliveries drain the queue between sends) cannot surface
    /// under deferred delivery. Only meaningful when
    /// [`AttackDriver::span_dst`] is `Some`.
    fn span_ready(
        &self,
        _net: &Network,
        _from: SimTime,
        _to: SimTime,
        _quantum: SimDuration,
    ) -> bool {
        false
    }

    /// Emits, post-hoc at their historical times, the packets the
    /// skipped per-quantum steps at `t = from + quantum, from +
    /// 2·quantum, …` (strictly below `to`) would have sent. Only called
    /// after [`AttackDriver::span_ready`] approved a window containing
    /// `(from, to)`; the default is unreachable by construction and does
    /// nothing.
    fn span_emit(
        &mut self,
        _net: &mut Network,
        _from: SimTime,
        _to: SimTime,
        _quantum: SimDuration,
    ) {
    }
}

impl Clone for Box<dyn AttackDriver> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Shared helper for hog-style attacks whose entire runtime state is the
/// set of spawned tasks.
#[derive(Debug, Clone)]
pub struct TaskSetDriver {
    name: &'static str,
    tasks: Vec<TaskId>,
}

impl TaskSetDriver {
    /// Wraps spawned attack tasks under `name`.
    pub fn new(name: &'static str, tasks: Vec<TaskId>) -> Self {
        TaskSetDriver { name, tasks }
    }

    /// The spawned attack tasks.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }
}

impl AttackDriver for TaskSetDriver {
    fn name(&self) -> &'static str {
        self.name
    }

    fn clone_box(&self) -> Box<dyn AttackDriver> {
        Box::new(self.clone())
    }

    fn halt(&mut self, machine: &mut Machine) {
        for &t in &self.tasks {
            machine.kill(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_sched::machine::MachineConfig;
    use rt_sched::task::{Cost, TaskSpec};

    #[test]
    fn task_set_driver_halt_kills_every_task() {
        let mut m = Machine::new(MachineConfig::default());
        let root = m.root_cgroup();
        let tasks: Vec<TaskId> = (0..3)
            .map(|i| {
                m.spawn(
                    TaskSpec::busy_fair(
                        format!("hog-{i}"),
                        Cost::compute(SimDuration::from_secs(1)),
                    ),
                    root,
                )
            })
            .collect();
        let mut driver = TaskSetDriver::new("test-hog", tasks.clone());
        assert_eq!(driver.name(), "test-hog");
        assert_eq!(driver.packets_sent(), 0);
        driver.halt(&mut m);
        driver.halt(&mut m); // idempotent
        for t in tasks {
            assert!(!m.is_alive(t));
        }
    }
}
