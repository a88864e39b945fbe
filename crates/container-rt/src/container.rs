//! Container runtime: a Docker-like lifecycle over the scheduler's cgroups
//! and the virtual network's namespaces.
//!
//! Reproduces the isolation properties the paper relies on (§III-C, §IV-B):
//!
//! * the container's cgroup binds all its processes to a cpuset
//!   (one core for the CCE),
//! * processes inside cannot raise themselves to a real-time class,
//! * the container lives in its own network namespace behind a
//!   docker0-style bridge, with explicit port mappings (hairpin NAT),
//! * no privileged flags: there is no API to escape any of the above —
//!   matching the paper's attacker model, which trusts Docker isolation.

use rt_sched::cgroup::{Cgroup, CgroupId};
use rt_sched::machine::Machine;
use rt_sched::task::{CpuSet, TaskId, TaskSpec};
use virt_net::net::{Addr, LinkConfig, Network, NsId};

/// Configuration for creating a container.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Container name.
    pub name: String,
    /// Cores the container may use (the paper dedicates one of four).
    pub cpuset: CpuSet,
    /// Link between the container namespace and the host bridge.
    pub link: LinkConfig,
    /// Periodic runtime housekeeping cost on the host (dockerd/containerd
    /// bookkeeping). Fractions of one core, e.g. 0.002 = 0.2 %.
    pub runtime_overhead: f64,
}

impl ContainerConfig {
    /// A CCE-style container confined to `core`.
    pub fn cce(core: usize) -> Self {
        ContainerConfig {
            name: "cce".to_string(),
            cpuset: CpuSet::single(core),
            link: LinkConfig::default(),
            runtime_overhead: 0.004,
        }
    }
}

/// Lifecycle state of a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContainerState {
    /// Created and able to run tasks.
    Running,
    /// Stopped: all tasks killed.
    Stopped,
}

/// A running container.
#[derive(Debug, Clone)]
pub struct Container {
    name: String,
    cgroup: CgroupId,
    ns: NsId,
    tasks: Vec<TaskId>,
    housekeeping: Vec<TaskId>,
    state: ContainerState,
}

impl Container {
    /// Creates a container: a restricted cgroup on `machine`, a namespace
    /// on `net` linked to `host_ns`, and host-side runtime housekeeping
    /// tasks.
    pub fn create(
        machine: &mut Machine,
        net: &mut Network,
        host_ns: NsId,
        config: ContainerConfig,
    ) -> Container {
        let cgroup = machine.add_cgroup(Cgroup::container(
            format!("docker/{}", config.name),
            config.cpuset,
        ));
        let ns = net.add_namespace(format!("netns-{}", config.name));
        net.connect(host_ns, ns, config.link);

        // dockerd + containerd-shim housekeeping on the host (fair class).
        let mut housekeeping = Vec::new();
        if config.runtime_overhead > 0.0 {
            let period = sim_core::time::SimDuration::from_millis(100);
            let cpu = period.mul_f64(config.runtime_overhead);
            let root = machine.root_cgroup();
            housekeeping.push(machine.spawn(
                rt_sched::task::TaskSpec::periodic_fair(
                    format!("dockerd/{}", config.name),
                    period,
                    rt_sched::task::Cost::compute(cpu),
                ),
                root,
            ));
        }

        Container {
            name: config.name,
            cgroup,
            ns,
            tasks: Vec::new(),
            housekeeping,
            state: ContainerState::Running,
        }
    }

    /// Container name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The network namespace of this container.
    pub fn netns(&self) -> NsId {
        self.ns
    }

    /// The cgroup its tasks run in.
    pub fn cgroup(&self) -> CgroupId {
        self.cgroup
    }

    /// Current lifecycle state.
    pub fn state(&self) -> ContainerState {
        self.state
    }

    /// Task ids started in this container.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Runs a task inside the container. The cgroup's restrictions apply
    /// regardless of what the spec asks for.
    ///
    /// # Panics
    ///
    /// Panics if the container is stopped.
    pub fn run_task(&mut self, machine: &mut Machine, spec: TaskSpec) -> TaskId {
        assert_eq!(
            self.state,
            ContainerState::Running,
            "cannot start tasks in a stopped container"
        );
        let id = machine.spawn(spec, self.cgroup);
        self.tasks.push(id);
        id
    }

    /// Exposes a container port on the host (Docker port mapping with
    /// hairpin NAT): traffic to `host_ns:port` is redirected into the
    /// container.
    pub fn expose_port(&self, net: &mut Network, host_ns: NsId, port: u16) {
        net.map_port(Addr { ns: host_ns, port }, Addr { ns: self.ns, port });
    }

    /// Stops the container: kills every task inside (housekeeping on the
    /// host is also retired).
    pub fn stop(&mut self, machine: &mut Machine) {
        for t in self.tasks.drain(..) {
            machine.kill(t);
        }
        for t in self.housekeeping.drain(..) {
            machine.kill(t);
        }
        self.state = ContainerState::Stopped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_sched::machine::MachineConfig;
    use rt_sched::task::{Activation, Cost, SchedPolicy};
    use sim_core::time::{SimDuration, SimTime};

    fn setup() -> (Machine, Network, NsId) {
        let machine = Machine::new(MachineConfig::default());
        let mut net = Network::new();
        let host = net.add_namespace("host");
        (machine, net, host)
    }

    #[test]
    fn container_confines_tasks_to_cpuset() {
        let (mut m, mut net, host) = setup();
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        c.run_task(
            &mut m,
            TaskSpec::busy_fair("spin", Cost::compute(SimDuration::from_secs(1))),
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(100), &mut ev);
        let cores = m.core_stats();
        assert!(cores[3].busy > SimDuration::from_millis(90));
        assert!(cores[0].busy < SimDuration::from_millis(5));
    }

    #[test]
    fn container_denies_realtime_priority() {
        let (mut m, mut net, host) = setup();
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        let id = c.run_task(
            &mut m,
            TaskSpec {
                name: "wannabe-rt".into(),
                policy: SchedPolicy::Fifo { priority: 99 },
                affinity: CpuSet::ALL,
                activation: Activation::Busy,
                cost: Cost::compute(SimDuration::from_secs(1)),
            },
        );
        // A real RT task pinned to the same core must completely dominate.
        let root = m.root_cgroup();
        let rt = m.spawn(
            TaskSpec::periodic_fifo(
                "host-rt",
                20,
                SimDuration::from_millis(1),
                Cost::compute(SimDuration::from_micros(900)),
            )
            .with_affinity(CpuSet::single(3)),
            root,
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(200), &mut ev);
        assert_eq!(m.task_stats(rt).skips, 0, "host RT task never yields");
        assert!(m.task_stats(id).busy_time < SimDuration::from_millis(40));
    }

    #[test]
    fn stop_kills_container_tasks() {
        let (mut m, mut net, host) = setup();
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(2));
        let id = c.run_task(
            &mut m,
            TaskSpec::busy_fair("spin", Cost::compute(SimDuration::from_secs(1))),
        );
        let mut ev = Vec::new();
        m.step_until(SimTime::from_millis(10), &mut ev);
        c.stop(&mut m);
        assert_eq!(c.state(), ContainerState::Stopped);
        assert!(!m.is_alive(id));
        let busy_before = m.core_stats()[2].busy;
        m.step_until(SimTime::from_millis(50), &mut ev);
        assert_eq!(m.core_stats()[2].busy, busy_before);
    }

    #[test]
    #[should_panic(expected = "stopped container")]
    fn run_task_after_stop_panics() {
        let (mut m, mut net, host) = setup();
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(1));
        c.stop(&mut m);
        c.run_task(
            &mut m,
            TaskSpec::busy_fair("late", Cost::compute(SimDuration::from_secs(1))),
        );
    }

    #[test]
    fn expose_port_maps_host_traffic_into_container() {
        let (mut m, mut net, host) = setup();
        let c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        c.expose_port(&mut net, host, 14660);
        let rx = net.bind(c.netns(), 14660).unwrap();
        let tx = net.bind(host, 9999).unwrap();
        net.send(
            tx,
            Addr {
                ns: host,
                port: 14660,
            },
            vec![0; 52],
            SimTime::ZERO,
        )
        .unwrap();
        net.step(SimTime::from_millis(1));
        assert_eq!(net.socket_stats(rx).delivered, 1);
        let _ = m;
    }

    #[test]
    fn runtime_housekeeping_is_small() {
        let (mut m, mut net, host) = setup();
        let _c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        let mut ev = Vec::new();
        m.step_until(SimTime::from_secs(5), &mut ev);
        let idle = m.idle_rates();
        // The container runtime alone costs well under 1% anywhere.
        for (i, rate) in idle.iter().enumerate() {
            assert!(*rate > 0.99, "core {i} idle {rate}");
        }
    }
}
