//! System assembly: the machine, network, container, controllers and the
//! §IV-C task set, wired exactly as Figure 2 lays them out.

use autopilot::controller::{ControlGains, FlightController, Setpoint};
use container_rt::container::{Container, ContainerConfig};
use container_rt::vm::spawn_system_background;
use mavlink_lite::frame::Sender;
use mavlink_lite::parser::Parser;
use membw::dram::MemGuardConfig;
use rt_sched::machine::{Machine, MachineConfig};
use rt_sched::task::{TaskId, TaskSpec};
use sim_core::time::{SimDuration, SimTime};
use uav_dynamics::motor::cmd_to_pwm;
use uav_dynamics::world::World;
use virt_net::net::{Addr, Network};

use crate::config::{MOTOR_PORT, SENSOR_PORT};
use crate::feeder::StreamCounter;
use crate::monitor::{SecurityMonitor, SecurityRule};
use crate::scenario::{Pilot, ScenarioConfig};
use crate::telemetry::FlightRecorder;

use super::Runtime;

/// Task ids of the spawned framework task set (fields are `None` when the
/// scenario's pilot mode or protections leave that task unspawned).
#[derive(Clone)]
pub struct TaskIds {
    /// HCE sensor driver (always present).
    pub sensor_driver: TaskId,
    /// HCE motor driver (always present).
    pub motor_driver: TaskId,
    /// Security monitor (requires the monitor protection).
    pub monitor: Option<TaskId>,
    /// HCE receiving thread (Simplex mode only).
    pub rx: Option<TaskId>,
    /// Safety controller (Simplex mode only).
    pub safety: Option<TaskId>,
    /// HCE flight stack (direct-pilot mode only).
    pub hce_stack: Option<TaskId>,
    /// CCE complex-controller pipeline (Simplex mode only).
    pub cc_pipeline: Option<TaskId>,
    /// CCE rate loop (Simplex mode only).
    pub cc_rate: Option<TaskId>,
}

impl TaskIds {
    /// The complex controller's tasks — the kill-attack target set.
    pub(crate) fn controller_tasks(&self) -> Vec<TaskId> {
        [self.cc_pipeline, self.cc_rate]
            .into_iter()
            .flatten()
            .collect()
    }
}

/// First source port handed to network-borne attacks; each armed attack
/// gets the next port so concurrent attacks never collide on a bind.
const ATTACK_SRC_PORT_BASE: u16 = 40_000;

impl Runtime {
    pub(crate) fn build(
        cfg: ScenarioConfig,
        extra_rules: Vec<Box<dyn SecurityRule>>,
        net: &mut Network,
    ) -> Runtime {
        let fw = &cfg.framework;

        // --- Physical world -------------------------------------------------
        let mut world = World::new(cfg.world, cfg.seed);
        world.start_at_hover(cfg.hover);

        // --- Machine ---------------------------------------------------------
        let mut machine = Machine::new(MachineConfig {
            n_cores: 4,
            quantum: crate::config::SCHED_QUANTUM,
            dram: fw.dram,
        });
        spawn_system_background(&mut machine);
        if fw.protections.memguard {
            machine.enable_memguard(MemGuardConfig::single_core(
                4,
                fw.cce_core,
                fw.protections.memguard_budget,
                &fw.dram,
            ));
        }

        // --- Network + container ---------------------------------------------
        // The network is borrowed, not owned: a fleet shares one airspace
        // across many vehicles, each building its own namespaces into it.
        let host_ns = net.add_namespace("host");
        let mut container = Container::create(
            &mut machine,
            net,
            host_ns,
            ContainerConfig::cce(fw.cce_core),
        );
        container.expose_port(net, host_ns, SENSOR_PORT);

        let hce_motor_rx = net
            .bind_with_capacity(host_ns, MOTOR_PORT, fw.rx_queue_capacity)
            .expect("motor port free");
        let hce_sensor_tx = net.bind(host_ns, 9001).expect("feeder port free");
        if fw.protections.iptables {
            net.add_rate_limit(
                Addr {
                    ns: host_ns,
                    port: MOTOR_PORT,
                },
                fw.protections.iptables_pps,
                fw.protections.iptables_burst,
            );
        }

        // --- HCE tasks ---------------------------------------------------------
        let hce_cores =
            rt_sched::task::CpuSet::from_cores((0..4usize).filter(|c| *c != fw.cce_core));
        let sensor_period = SimDuration::from_hz(fw.rates.imu_hz);
        let motor_period = SimDuration::from_hz(fw.rates.motor_hz);

        let sensor_driver = machine.spawn(
            TaskSpec::periodic_fifo(
                "sensor-driver",
                fw.priorities.drivers,
                sensor_period,
                fw.costs.sensor_driver,
            )
            .with_affinity(hce_cores),
            machine.root_cgroup(),
        );
        let motor_driver = machine.spawn(
            TaskSpec::periodic_fifo(
                "motor-driver",
                fw.priorities.drivers,
                motor_period,
                fw.costs.motor_driver,
            )
            .with_affinity(hce_cores)
            .with_offset(SimDuration::from_micros(200)),
            machine.root_cgroup(),
        );

        let params = *world.quad_params();
        let t0 = SimTime::ZERO;
        let mut safety_fc = FlightController::new(&params, ControlGains::safety());
        safety_fc.initialize_hover(cfg.hover, 0.0, t0);
        safety_fc.set_setpoint(Setpoint {
            position: cfg.hover,
            yaw: 0.0,
        });

        let mut monitor = SecurityMonitor::new(&fw.thresholds);
        for r in extra_rules {
            monitor.add_rule(r);
        }

        let mut ids = TaskIds {
            sensor_driver,
            motor_driver,
            monitor: None,
            rx: None,
            safety: None,
            hce_stack: None,
            cc_pipeline: None,
            cc_rate: None,
        };

        let mut cce_fc = None;
        let mut hce_fc = None;
        let mut cce_motor_tx = None;
        let mut cce_sensor_rx = None;

        match cfg.pilot {
            Pilot::CceSimplex => {
                ids.safety = Some(
                    machine.spawn(
                        TaskSpec::periodic_fifo(
                            "safety-controller",
                            fw.priorities.safety,
                            motor_period,
                            fw.costs.safety_controller,
                        )
                        .with_affinity(hce_cores)
                        .with_offset(SimDuration::from_micros(400)),
                        machine.root_cgroup(),
                    ),
                );
                if fw.protections.monitor {
                    ids.monitor = Some(
                        machine.spawn(
                            TaskSpec::periodic_fifo(
                                "security-monitor",
                                fw.priorities.monitor,
                                SimDuration::from_hz(100.0),
                                fw.costs.monitor,
                            )
                            .with_affinity(hce_cores),
                            machine.root_cgroup(),
                        ),
                    );
                }
                ids.rx = Some(
                    machine.spawn(
                        TaskSpec::sporadic_fifo(
                            "rx-thread",
                            fw.priorities.rx_thread,
                            fw.costs.rx_per_packet,
                        )
                        .with_affinity(hce_cores),
                        machine.root_cgroup(),
                    ),
                );

                // CCE: complex controller pipeline + rate loop.
                let mut fc = FlightController::new(&params, ControlGains::complex());
                fc.initialize_hover(cfg.hover, 0.0, t0);
                fc.set_setpoint(Setpoint {
                    position: cfg.hover,
                    yaw: 0.0,
                });
                cce_fc = Some(fc);
                ids.cc_pipeline = Some(container.run_task(
                    &mut machine,
                    TaskSpec::periodic_fair("cce-pipeline", sensor_period, fw.costs.cce_pipeline),
                ));
                ids.cc_rate = Some(
                    container.run_task(
                        &mut machine,
                        TaskSpec::periodic_fair(
                            "cce-rate-loop",
                            motor_period,
                            fw.costs.cce_rate_loop,
                        )
                        .with_offset(SimDuration::from_micros(800)),
                    ),
                );
                cce_sensor_rx = Some(
                    net.bind(container.netns(), SENSOR_PORT)
                        .expect("sensor port free in container"),
                );
                cce_motor_tx = Some(net.bind(container.netns(), 9002).expect("cce tx port free"));
            }
            Pilot::HceDirect => {
                // The trusted controller flies directly on the HCE.
                let mut fc = FlightController::new(&params, ControlGains::complex());
                fc.initialize_hover(cfg.hover, 0.0, t0);
                fc.set_setpoint(Setpoint {
                    position: cfg.hover,
                    yaw: 0.0,
                });
                hce_fc = Some(fc);
                ids.hce_stack = Some(
                    machine.spawn(
                        TaskSpec::periodic_fifo(
                            "hce-flight-stack",
                            50,
                            sensor_period,
                            fw.costs.hce_flight_stack,
                        )
                        .with_affinity(hce_cores)
                        .with_offset(SimDuration::from_micros(600)),
                        machine.root_cgroup(),
                    ),
                );
            }
        }

        let hover_pwm = cmd_to_pwm(params.hover_command());
        let script = cfg.attacks.entries().to_vec();
        // Pre-size the telemetry store for the whole flight so recording
        // never reallocates mid-run.
        let expected_rows = (cfg.duration.as_secs_f64() * cfg.record_hz).ceil() as usize + 2;
        let recorder = FlightRecorder::with_capacity(expected_rows);

        Runtime {
            cfg,
            world,
            machine,
            container,
            host_ns,
            hce_motor_rx,
            hce_sensor_tx,
            cce_motor_tx,
            cce_sensor_rx,
            hce_sender: Sender::new(1, 1),
            cce_sender: Sender::new(2, 1),
            hce_parser: Parser::new(),
            cce_parser: Parser::new(),
            safety_fc,
            cce_fc,
            hce_fc,
            monitor,
            cce_cmd_pwm: [hover_pwm; 4],
            last_valid_output: None,
            motor_seq: 0,
            sensor_jobs: 0,
            cce_rate_jobs: 0,
            heartbeats_received: 0,
            last_heartbeat: None,
            imu_counter: StreamCounter::default(),
            baro_counter: StreamCounter::default(),
            gps_counter: StreamCounter::default(),
            rc_counter: StreamCounter::default(),
            motor_counter: StreamCounter::default(),
            script,
            script_cursor: 0,
            armed: Vec::new(),
            attack_log: Vec::new(),
            next_src_port: ATTACK_SRC_PORT_BASE,
            ids,
            recorder,
            steps: 0,
            quanta_leaped: 0,
            frame_scratch: Vec::new(),
            flood_memo: None,
            phase_ns: [0; crate::phase::COUNT],
            obs: cd_obs::ObsPort::detached(),
            simplex_switches: 0,
        }
    }
}
