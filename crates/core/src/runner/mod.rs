//! The co-simulation runner: machine + network + physics + controllers.
//!
//! [`Scenario::run`] assembles the full ContainerDrone system of Figure 2 —
//! HCE tasks on the host (drivers, rx thread, security monitor, safety
//! controller), CCE tasks in the container (complex-controller pipeline and
//! rate loop), the bridged UDP channel of Table I — and advances everything
//! in lock-step at the scheduler quantum. Job completions trigger the
//! corresponding framework actions, so every scheduling delay, memory
//! stall, dropped packet and parser resync propagates into flight quality
//! exactly the way it does on the paper's testbed.
//!
//! The runner is organised by subsystem:
//!
//! | Module | Responsibility |
//! |--------|----------------|
//! | [`assembly`] | Building the machine, network, container and task set |
//! | [`hce`] | Host-side job handlers (drivers, rx, monitor, safety) |
//! | [`cce`] | Container-side job handlers (pipeline, rate loop) |
//! | [`attack`] | The attack-timeline cursor and armed-driver loop |
//! | [`report`] | Telemetry sampling and the end-of-run [`ScenarioResult`] |
//!
//! Attacks are *data* ([`attacks::AttackScript`]): the main loop arms
//! each scheduled event at its onset and thereafter steps every armed
//! [`attacks::AttackDriver`] generically, so a run may contain any number
//! of concurrent and sequenced attacks.
//!
//! # One vehicle vs many
//!
//! Per-vehicle state (machine, container, controllers, monitor, recorder)
//! lives in a [`VehicleInstance`]; the virtual [`Network`] is **not** part
//! of it. A single-vehicle [`RunningScenario`] owns a private network and
//! one instance; the `cd-fleet` crate instead builds many instances
//! against one shared "airspace" network and interleaves them on a common
//! quantum clock, which is what makes shared-airspace fleet co-simulation
//! possible without duplicating any of the per-vehicle logic.

pub mod assembly;
pub mod attack;
pub mod cce;
pub mod hce;
pub mod report;

use attacks::driver::AttackDriver;
use attacks::script::ScriptEntry;
use autopilot::controller::FlightController;
use cd_obs::{emit, ObsPort, TraceKind};
use container_rt::container::Container;
use mavlink_lite::frame::{Frame, Sender};
use mavlink_lite::parser::Parser;
use rt_sched::machine::Machine;
use rt_sched::task::SchedEvent;
use sim_core::time::{SimDuration, SimTime};
use uav_dynamics::world::World;
use virt_net::net::{Addr, Delivery, Network, NsId, SocketId};

use crate::feeder::StreamCounter;
use crate::monitor::{SecurityMonitor, SecurityRule};
use crate::scenario::ScenarioConfig;
use crate::telemetry::FlightRecorder;

pub use assembly::TaskIds;
pub use report::{ScenarioResult, StreamReport};

// `SpanEnd` is defined next to `VehicleInstance` below; both are part of
// the fleet-executor API surface.

/// An executable scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
}

impl Scenario {
    /// Wraps a configuration.
    pub fn new(config: ScenarioConfig) -> Self {
        Scenario { config }
    }

    /// Runs the scenario to completion (or 1 s past a crash) and returns
    /// the collected results.
    pub fn run(self) -> ScenarioResult {
        self.start().run_to_end()
    }

    /// Runs with additional custom security rules installed in the monitor
    /// (see the `custom_rule` example).
    pub fn run_with_rules(self, rules: Vec<Box<dyn SecurityRule>>) -> ScenarioResult {
        self.start_with_rules(rules).run_to_end()
    }

    /// [`Scenario::run`] on the quantum-stepped reference executor
    /// (`--no-leap`): byte-identical result, no time-leap fast path. Kept
    /// as the safety net the leap-equivalence tests diff against.
    pub fn run_stepped(self) -> ScenarioResult {
        self.start().run_to_end_stepped()
    }

    /// Builds the full system and returns it paused at t = 0, ready to be
    /// advanced incrementally (see [`RunningScenario`]).
    pub fn start(self) -> RunningScenario {
        self.start_with_rules(Vec::new())
    }

    /// [`Scenario::start`] with additional custom security rules.
    pub fn start_with_rules(self, rules: Vec<Box<dyn SecurityRule>>) -> RunningScenario {
        let mut net = Network::new();
        let vehicle = VehicleInstance::build(self.config, rules, &mut net);
        RunningScenario { net, vehicle }
    }
}

/// A scenario mid-flight: the incremental counterpart to
/// [`Scenario::run`].
///
/// Useful for stepping a simulation from a debugger, interleaving it with
/// external stimuli, or measuring a steady-state window in isolation (the
/// allocation-regression test does exactly that).
///
/// # Examples
///
/// ```
/// use containerdrone_core::prelude::*;
/// use containerdrone_core::runner::Scenario;
/// use sim_core::time::{SimDuration, SimTime};
///
/// let cfg = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(2));
/// let mut run = Scenario::new(cfg).start();
/// run.advance_to(SimTime::from_secs(1));
/// assert!(run.now() >= SimTime::from_secs(1));
/// let result = run.finish();
/// assert!(!result.crashed());
/// ```
pub struct RunningScenario {
    net: Network,
    vehicle: VehicleInstance,
}

impl RunningScenario {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.vehicle.now()
    }

    /// Advances one scheduler quantum: machine, physics, job dispatch,
    /// armed attacks, network, telemetry. Returns `false` once the flight
    /// is over (duration reached, or 1 s past a crash) without advancing.
    pub fn step(&mut self) -> bool {
        if !self.vehicle.advance(&mut self.net) {
            return false;
        }
        let t0 = crate::phase::now();
        let deliveries = self.net.step(self.vehicle.now());
        for &d in deliveries {
            self.vehicle.on_delivery(d);
        }
        self.vehicle
            .phase_add(crate::phase::NET, crate::phase::now() - t0);
        self.vehicle.post_step();
        true
    }

    /// Advances until `target` (or the end of the flight, whichever comes
    /// first).
    pub fn advance_to(&mut self, target: SimTime) {
        while self.vehicle.now() < target && self.step() {}
    }

    /// [`RunningScenario::advance_to`] on the time-leap executor:
    /// span-by-span instead of quantum-by-quantum, byte-identical state
    /// at every quantum boundary. Used to carve steady-state measurement
    /// windows out of a leap-executed run (the allocation-regression
    /// gate does).
    pub fn advance_to_leap(&mut self, target: SimTime) {
        let quantum = self.vehicle.rt.machine.config().quantum;
        let hard = self
            .vehicle
            .end_boundary()
            .min(VehicleInstance::quantum_end_at_or_after(target, quantum));
        while self.vehicle.now() < hard && self.vehicle.advance_span(&mut self.net, hard) {}
    }

    /// Runs the remainder of the flight on the time-leap executor and
    /// tears down into the result. Byte-identical to
    /// [`RunningScenario::run_to_end_stepped`] (the equivalence tests and
    /// figure goldens pin this), just faster across event-free spans.
    pub fn run_to_end(mut self) -> ScenarioResult {
        let end = self.vehicle.end_boundary();
        while self.vehicle.advance_span(&mut self.net, end) {}
        self.finish()
    }

    /// Runs the remainder of the flight on the quantum-stepped reference
    /// executor (the `--no-leap` path): every quantum runs all four
    /// phases, no closed-form spans.
    pub fn run_to_end_stepped(mut self) -> ScenarioResult {
        while self.step() {}
        self.finish()
    }

    /// Tears the run down into a [`ScenarioResult`] at the current time.
    pub fn finish(self) -> ScenarioResult {
        self.vehicle.finish(&self.net)
    }

    /// The vehicle instance — the inspection surface for executor
    /// counters and trace-port attachment on a single-vehicle run.
    pub fn vehicle(&self) -> &VehicleInstance {
        &self.vehicle
    }

    /// Mutable access to the vehicle instance (attach/drain its
    /// [`ObsPort`] between stepping windows).
    pub fn vehicle_mut(&mut self) -> &mut VehicleInstance {
        &mut self.vehicle
    }

    /// Selects the network delivery path: `true` (the default) settles
    /// flood spans in closed form, `false` (`--no-bulk`) replays them
    /// packet-by-packet. Byte-identical results either way — the bulk
    /// equivalence suites pin it; bulk is just O(1) per span.
    pub fn set_bulk(&mut self, on: bool) {
        self.net.set_bulk(on);
    }
}

/// One vehicle's complete simulation state — everything *except* the
/// network it flies against.
///
/// [`RunningScenario`] wraps exactly one instance over a private network;
/// the `cd-fleet` crate steps many instances against one shared airspace.
/// The stepping protocol per scheduler quantum is:
///
/// 1. [`VehicleInstance::advance`] — machine, physics, job dispatch and
///    armed attacks (traffic is *offered* to the network here);
/// 2. one [`Network::step`] on whoever owns the network;
/// 3. [`VehicleInstance::on_delivery`] for each delivery to a socket this
///    vehicle owns;
/// 4. [`VehicleInstance::post_step`] — telemetry sampling and crash
///    bookkeeping.
///
/// With a single vehicle this is byte-for-byte the classic
/// [`RunningScenario::step`]; the fleet equivalence test pins that.
pub struct VehicleInstance {
    rt: Runtime,
    end: SimTime,
    record_period: SimDuration,
    next_record: SimTime,
    events: Vec<SchedEvent>,
    crash_deadline: Option<SimTime>,
    crash_marked: bool,
    finished: bool,
}

impl VehicleInstance {
    /// Builds the full per-vehicle system (machine, container, task set,
    /// controllers) inside `net`: namespaces, links and sockets are
    /// created in the shared network, everything else is private.
    pub fn build(
        config: ScenarioConfig,
        rules: Vec<Box<dyn SecurityRule>>,
        net: &mut Network,
    ) -> Self {
        let end = SimTime::ZERO + config.duration;
        let record_period = SimDuration::from_hz(config.record_hz);
        let rt = Runtime::build(config, rules, net);
        VehicleInstance {
            rt,
            end,
            record_period,
            next_record: SimTime::ZERO,
            events: Vec::new(),
            crash_deadline: None,
            crash_marked: false,
            finished: false,
        }
    }

    /// Current simulation time of this vehicle's machine.
    pub fn now(&self) -> SimTime {
        self.rt.machine.now()
    }

    /// `true` once the flight is over (duration reached, or 1 s past a
    /// crash).
    pub fn done(&self) -> bool {
        self.finished || self.rt.machine.now() >= self.end
    }

    /// `true` if the vehicle has crashed.
    pub fn crashed(&self) -> bool {
        self.rt.world.crash().is_some()
    }

    /// Ground-truth position (NED, metres) — what a telemetry downlink
    /// reports to a ground station.
    pub fn position(&self) -> [f64; 3] {
        let p = self.rt.world.truth().position;
        [p.x, p.y, p.z]
    }

    /// The namespace of this vehicle's host network stack.
    pub fn host_ns(&self) -> NsId {
        self.rt.host_ns
    }

    /// The HCE motor-port socket — deliveries to it must be routed back
    /// via [`VehicleInstance::on_delivery`].
    pub fn motor_rx(&self) -> SocketId {
        self.rt.hce_motor_rx
    }

    /// Phase 1 of a quantum: machine, physics, completed-job dispatch and
    /// armed attacks. Returns `false` once the flight is over, without
    /// advancing. The caller must follow up with one [`Network::step`],
    /// route the deliveries, and call [`VehicleInstance::post_step`].
    pub fn advance(&mut self, net: &mut Network) -> bool {
        if self.done() {
            return false;
        }
        let quantum = self.rt.machine.config().quantum;
        self.events.clear();
        let t0 = crate::phase::now();
        self.rt.machine.step(&mut self.events);
        self.rt.steps += 1;
        let now = self.rt.machine.now();
        let t1 = crate::phase::now();
        self.rt.world.advance_to(now);
        let t2 = crate::phase::now();
        self.rt.phase_ns[crate::phase::SCHED] += t1 - t0;
        self.rt.phase_ns[crate::phase::PHYSICS] += t2 - t1;

        self.rt.trace_skips(&self.events, now);
        for i in 0..self.events.len() {
            if let SchedEvent::JobCompleted { task, .. } = self.events[i] {
                self.rt.dispatch(task, now, net);
            }
        }

        self.rt.step_attacks(now, quantum, net);
        true
    }

    /// Phase 3 of a quantum: reacts to datagrams the network delivered to
    /// one of this vehicle's sockets (motor-port traffic wakes the rx
    /// thread). Deliveries to sockets this vehicle does not own are
    /// ignored.
    pub fn on_delivery(&mut self, d: Delivery) {
        if d.socket == self.rt.hce_motor_rx {
            if let Some(rx) = self.rt.ids.rx {
                if self.rt.machine.is_alive(rx) {
                    self.rt.machine.inject_job(rx, d.count);
                }
            }
        }
    }

    /// Phase 4 of a quantum: telemetry sampling and crash bookkeeping.
    pub fn post_step(&mut self) {
        let now = self.rt.machine.now();
        if now >= self.next_record {
            self.rt.record(now);
            self.next_record = now + self.record_period;
        }

        if let Some(crash) = self.rt.world.crash() {
            if !self.crash_marked {
                self.rt
                    .recorder
                    .mark(crash.time, format!("crash: {}", crash.kind));
                emit!(
                    self.rt.obs,
                    crash.time,
                    TraceKind::Crash,
                    crash_label(crash.kind),
                    0,
                    0
                );
                self.crash_marked = true;
                // Anchored to the crash's own (substep-exact) time rather
                // than the detecting quantum so the post-crash window is
                // identical whether physics caught up every quantum or in
                // one leap. Stepped detection happens within the quantum
                // of the crash, whose end is the crash time itself (both
                // sit on the 50 µs grid), so this changes nothing there.
                self.crash_deadline = Some(crash.time + SimDuration::from_secs(1));
            }
        }
        if self.crash_deadline.is_some_and(|d| now >= d) {
            self.finished = true;
        }
    }

    /// Tears the vehicle down into a [`ScenarioResult`], reading its
    /// socket statistics from `net`.
    pub fn finish(self, net: &Network) -> ScenarioResult {
        self.rt.finish(net)
    }

    /// The first quantum boundary at/after the flight end — the natural
    /// `hard_target` for [`VehicleInstance::advance_span`] when no fleet
    /// poll boundary applies sooner.
    pub fn end_boundary(&self) -> SimTime {
        Self::quantum_end_at_or_after(self.end, self.rt.machine.config().quantum)
    }

    /// The first quantum boundary at or after `t` — where an end-of-quantum
    /// observer (network step, attack cursor, telemetry) first sees an
    /// event at time `t`.
    fn quantum_end_at_or_after(t: SimTime, quantum: SimDuration) -> SimTime {
        let qn = quantum.as_nanos();
        SimTime::from_nanos(t.as_nanos().div_ceil(qn) * qn)
    }

    /// One time-leap span: advances through one event-free stretch —
    /// possibly in closed form — then runs the regular quantum tail
    /// (physics catch-up, job dispatch, armed attacks, network delivery)
    /// once at the span's end.
    ///
    /// `hard_target` must be quantum-aligned and ahead of the current
    /// time; the vehicle never advances past it (fleet executors pass
    /// their next poll boundary, the single-vehicle runner passes
    /// [`VehicleInstance::end_boundary`]).
    ///
    /// Telemetry/crash bookkeeping ([`VehicleInstance::post_step`]) runs
    /// here only when the span ends *short* of `hard_target`; at the
    /// target the caller observes the vehicle first (fleet snapshots are
    /// taken pre-`post_step`, exactly like the stepped executor) and then
    /// calls `post_step` itself — see [`SpanEnd`]. The single-vehicle
    /// runner uses [`VehicleInstance::advance_span`], which folds that
    /// hand-off away.
    ///
    /// # Equivalence
    ///
    /// Results are byte-identical to repeated [`RunningScenario::step`]
    /// because a span only ever skips a subsystem's per-quantum call when
    /// that call is provably a no-op:
    ///
    /// - the span ends no later than the first quantum boundary at/after
    ///   the earliest pending network arrival, script onset, telemetry
    ///   record and crash deadline, so the skipped `Network::step`s
    ///   deliver nothing and the skipped attack-cursor checks and
    ///   `post_step`s fire nothing;
    /// - the machine's own [`Machine::leap_to`] never crosses a task
    ///   release, job completion, slice expiry or MemGuard boundary it
    ///   cannot reproduce in closed form;
    /// - physics integrates on a fixed 500 µs grid, so one catch-up
    ///   [`World::advance_to`] at the span end performs exactly the
    ///   substeps the per-quantum calls would have;
    /// - while any armed attack emits per-quantum traffic
    ///   ([`AttackDriver::quantum_active`]), the span degenerates to
    ///   single plain steps — *unless* the flood-span fast path below
    ///   proves batch emission exact.
    ///
    /// # Flood spans
    ///
    /// A steady flood is per-quantum traffic, which historically forced
    /// one plain step per quantum for the whole attack window. The span
    /// leap stays exact under a flood when every link in this chain is
    /// provable (`VehicleInstance::flood_span_target`):
    ///
    /// - exactly one armed driver has per-quantum work, and it can replay
    ///   its skipped emissions post-hoc at their historical times
    ///   ([`AttackDriver::span_emit`]) — no dispatch runs mid-span, so
    ///   nothing else enqueues on the flooded direction in between and
    ///   FIFO order is preserved;
    /// - the flooded destination is this vehicle's motor port and the rx
    ///   thread is dead (the paper's post-switch state), so deferred
    ///   deliveries wake nothing and nobody reads the socket mid-span:
    ///   admissions happen at packet arrival times either way;
    /// - every arrival *not* aimed at the flooded port still clamps the
    ///   span ([`Network::next_delivery_time_excluding`]);
    /// - the link queue has headroom for the whole span's offered load
    ///   ([`AttackDriver::span_ready`]), so deferring the queue drain to
    ///   the span-end network step cannot surface a capacity boundary
    ///   the per-quantum schedule would not have hit.
    pub fn span_once(&mut self, net: &mut Network, hard_target: SimTime) -> SpanEnd {
        if self.done() {
            return SpanEnd::Done;
        }
        let quantum = self.rt.machine.config().quantum;
        let now = self.rt.machine.now();

        self.events.clear();
        let span_steps = self.rt.steps;
        let span_leaped = self.rt.quanta_leaped;
        let sched_t0 = crate::phase::now();
        let mut flood_span: Option<usize> = None;
        if self.rt.armed.iter().any(|d| d.quantum_active()) {
            if let Some((idx, target)) = self.flood_span_target(net, hard_target) {
                flood_span = Some(idx);
                self.leap_toward(target);
            } else {
                // A live emitter without a provable span: one plain
                // quantum.
                self.rt.machine.step(&mut self.events);
                self.rt.steps += 1;
            }
        } else {
            let mut target = self.span_target_base(hard_target);
            if let Some(arrival) = net.next_delivery_time() {
                target = target.min(Self::quantum_end_at_or_after(arrival, quantum));
            }
            // Within one quantum of the nearest event this degenerates to
            // exactly one plain step.
            let target = target.max(now + quantum);
            self.leap_toward(target);
        }
        self.rt.phase_ns[crate::phase::SCHED] += crate::phase::now() - sched_t0;

        let span_start = now;
        let now = self.rt.machine.now();
        if let Some(idx) = flood_span {
            // Replay the skipped per-quantum emissions at their
            // historical times, before the tail's dispatch can enqueue
            // anything behind them.
            self.rt.armed[idx].span_emit(net, span_start, now, quantum);
        }
        if self.rt.obs.enabled() {
            let leaped = self.rt.quanta_leaped - span_leaped;
            if leaped > 0 {
                // Label = why the span could go no further (the machine's
                // stop reason, or a scheduling event that needs dispatch);
                // a = quanta leaped, b = quanta stepped plainly.
                let label = if self.events.is_empty() {
                    self.rt.machine.obs().last_leap_stop
                } else {
                    "event"
                };
                let stepped = (self.rt.steps - span_steps) - leaped;
                self.rt
                    .obs
                    .record(now, TraceKind::LeapSpan, label, leaped, stepped);
            }
        }
        let t0 = crate::phase::now();
        self.rt.world.advance_to(now);
        self.rt.phase_ns[crate::phase::PHYSICS] += crate::phase::now() - t0;
        self.rt.trace_skips(&self.events, now);
        for i in 0..self.events.len() {
            if let SchedEvent::JobCompleted { task, .. } = self.events[i] {
                self.rt.dispatch(task, now, net);
            }
        }
        self.rt.step_attacks(now, quantum, net);

        let t0 = crate::phase::now();
        let deliveries = net.step(now);
        for &d in deliveries {
            self.on_delivery(d);
        }
        self.rt.phase_ns[crate::phase::NET] += crate::phase::now() - t0;
        if now >= hard_target {
            SpanEnd::AtTarget
        } else {
            self.post_step();
            SpanEnd::Short
        }
    }

    /// The span-target clamps shared by every leap flavor: hard target,
    /// flight end, next telemetry record, crash deadline and the next
    /// attack-script onset, each promoted to the quantum boundary where
    /// an end-of-quantum observer first sees it.
    fn span_target_base(&self, hard_target: SimTime) -> SimTime {
        let quantum = self.rt.machine.config().quantum;
        let mut target = hard_target.min(Self::quantum_end_at_or_after(self.end, quantum));
        target = target.min(Self::quantum_end_at_or_after(self.next_record, quantum));
        if let Some(d) = self.crash_deadline {
            target = target.min(Self::quantum_end_at_or_after(d, quantum));
        }
        if let Some(entry) = self.rt.script.get(self.rt.script_cursor) {
            target = target.min(Self::quantum_end_at_or_after(entry.at, quantum));
        }
        target
    }

    /// The leap loop: closed-form machine leaps toward `target`,
    /// interleaved with plain steps wherever the machine cannot leap,
    /// flushing as soon as a scheduling event needs its end-of-quantum
    /// dispatch.
    fn leap_toward(&mut self, target: SimTime) {
        let quantum = self.rt.machine.config().quantum;
        loop {
            let leaped = self.rt.machine.leap_to(target);
            self.rt.steps += leaped;
            self.rt.quanta_leaped += leaped;
            if self.rt.machine.now() + quantum > target {
                break;
            }
            self.rt.machine.step(&mut self.events);
            self.rt.steps += 1;
            if !self.events.is_empty() {
                // A scheduling event needs its end-of-quantum dispatch;
                // flush here and let the next span resume.
                break;
            }
        }
    }

    /// The flood-span precondition chain (see the *Flood spans* section
    /// of [`VehicleInstance::span_once`]): returns the index of the one
    /// span-capable live emitter and the proven leap target, or `None`
    /// when per-quantum stepping is the only exact schedule.
    fn flood_span_target(&self, net: &Network, hard_target: SimTime) -> Option<(usize, SimTime)> {
        let quantum = self.rt.machine.config().quantum;
        let now = self.rt.machine.now();
        // Exactly one driver with per-quantum work, and it is
        // span-capable.
        let mut live = self
            .rt
            .armed
            .iter()
            .enumerate()
            .filter(|(_, d)| d.quantum_active());
        let (idx, driver) = live.next()?;
        if live.next().is_some() {
            return None;
        }
        let dst = driver.span_dst()?;
        // Deliveries to the flooded port must be inert: the motor socket
        // is the only one whose deliveries wake a task (the rx thread),
        // and every other socket is read by polling handlers whose
        // mid-span reads would observe the deferred deliveries. So the
        // span only engages against the motor port with the rx thread
        // dead — the paper's post-switch state, which is exactly when
        // the flood window dominates the run.
        let motor = Addr {
            ns: self.rt.host_ns,
            port: crate::config::MOTOR_PORT,
        };
        if dst != motor {
            return None;
        }
        if self
            .rt
            .ids
            .rx
            .is_some_and(|rx| self.rt.machine.is_alive(rx))
        {
            return None;
        }
        let mut target = self.span_target_base(hard_target);
        if let Some(arrival) = net.next_delivery_time_excluding(dst) {
            target = target.min(Self::quantum_end_at_or_after(arrival, quantum));
        }
        if target <= now + quantum {
            // Degenerate span: a plain step costs less than the replay.
            return None;
        }
        if !driver.span_ready(net, now, target, quantum) {
            return None;
        }
        Some((idx, target))
    }

    /// The time-leap fast path (see [`VehicleInstance::span_once`] for
    /// the equivalence argument), with the observation hand-off folded
    /// away: runs the full quantum tail including
    /// [`VehicleInstance::post_step`] and returns `false` once the flight
    /// is over, without advancing. The single-vehicle drop-in for the
    /// [`RunningScenario::step`] loop.
    pub fn advance_span(&mut self, net: &mut Network, hard_target: SimTime) -> bool {
        match self.span_once(net, hard_target) {
            SpanEnd::Done => false,
            SpanEnd::Short => true,
            SpanEnd::AtTarget => {
                self.post_step();
                true
            }
        }
    }

    /// The structured trace port. Detached by default; attach a ring
    /// buffer ([`ObsPort::attach`]) to start capturing
    /// [`cd_obs::TraceEvent`]s, then drain it between quanta (fleet
    /// executors drain at poll boundaries in vehicle-index order).
    pub fn obs_port(&mut self) -> &mut ObsPort {
        &mut self.rt.obs
    }

    /// Executor observability counters of the underlying machine
    /// (quanta, dispatch reuse, deadline skips, leap stop reasons).
    pub fn sched_obs(&self) -> &rt_sched::machine::SchedObs {
        self.rt.machine.obs()
    }

    /// Scheduler quanta executed so far (plain steps + leaped).
    pub fn sim_steps(&self) -> u64 {
        self.rt.steps
    }

    /// Quanta advanced in closed form by the time-leap executor.
    pub fn quanta_leaped(&self) -> u64 {
        self.rt.quanta_leaped
    }

    /// Simplex switches to the safety controller taken so far.
    pub fn simplex_switches(&self) -> u64 {
        self.rt.simplex_switches
    }

    /// Credits `ns` wall-nanoseconds to executor phase `phase`
    /// ([`crate::phase`] indices). External steppers (the fleet executor,
    /// [`RunningScenario::step`]) own the network step, so they bracket
    /// it themselves and book the time here; the totals surface in
    /// [`ScenarioResult::phase_ns`].
    pub fn phase_add(&mut self, phase: usize, ns: u64) {
        self.rt.phase_ns[phase] += ns;
    }
}

/// Stable wire label for a crash kind (trace events carry `&'static str`
/// labels; the human-facing [`std::fmt::Display`] strings stay in the
/// flight recorder).
fn crash_label(kind: uav_dynamics::crash::CrashKind) -> &'static str {
    use uav_dynamics::crash::CrashKind;
    match kind {
        CrashKind::GroundImpact => "ground_impact",
        CrashKind::CageImpact => "cage_impact",
        CrashKind::LossOfControl => "loss_of_control",
    }
}

impl Runtime {
    /// Emits one [`TraceKind::DeadlineSkip`] per skipped release in
    /// `events` (a = task ordinal, b = the skipped release instant, ns).
    fn trace_skips(&mut self, events: &[SchedEvent], now: SimTime) {
        if !self.obs.enabled() {
            return;
        }
        for ev in events {
            if let SchedEvent::ReleaseSkipped { task, release } = *ev {
                self.obs.record(
                    now,
                    TraceKind::DeadlineSkip,
                    "",
                    task.index() as u64,
                    release.as_nanos(),
                );
            }
        }
    }
}

/// How a [`VehicleInstance::span_once`] span ended, and what the caller
/// owes the vehicle before advancing it again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEnd {
    /// The flight was already over; nothing advanced.
    Done,
    /// The span flushed before the hard target (scheduling event, or a
    /// live emitter forcing plain quanta). The full quantum tail —
    /// including [`VehicleInstance::post_step`] — already ran; call
    /// again to continue toward the target.
    Short,
    /// Reached the hard target. Physics is current, but
    /// [`VehicleInstance::post_step`] has **not** run: observe the
    /// vehicle (snapshot), then call it.
    AtTarget,
}

/// The live state of one vehicle. Built by [`assembly`], advanced by
/// [`VehicleInstance::advance`], torn down into a [`ScenarioResult`] by
/// [`report`]. Deliberately network-free: every method that touches the
/// wire borrows the (possibly shared) [`Network`].
pub(crate) struct Runtime {
    pub(crate) cfg: ScenarioConfig,
    pub(crate) world: World,
    pub(crate) machine: Machine,
    pub(crate) container: Container,
    pub(crate) host_ns: NsId,
    // Sockets.
    pub(crate) hce_motor_rx: SocketId,
    pub(crate) hce_sensor_tx: SocketId,
    pub(crate) cce_motor_tx: Option<SocketId>,
    pub(crate) cce_sensor_rx: Option<SocketId>,
    // Protocol state.
    pub(crate) hce_sender: Sender,
    pub(crate) cce_sender: Sender,
    pub(crate) hce_parser: Parser,
    pub(crate) cce_parser: Parser,
    // Controllers.
    pub(crate) safety_fc: FlightController,
    pub(crate) cce_fc: Option<FlightController>,
    pub(crate) hce_fc: Option<FlightController>,
    pub(crate) monitor: SecurityMonitor,
    // Simplex actuation state.
    pub(crate) cce_cmd_pwm: [u16; 4],
    pub(crate) last_valid_output: Option<SimTime>,
    pub(crate) motor_seq: u32,
    // Feeder state.
    pub(crate) sensor_jobs: u64,
    pub(crate) cce_rate_jobs: u64,
    pub(crate) heartbeats_received: u64,
    pub(crate) last_heartbeat: Option<SimTime>,
    pub(crate) imu_counter: StreamCounter,
    pub(crate) baro_counter: StreamCounter,
    pub(crate) gps_counter: StreamCounter,
    pub(crate) rc_counter: StreamCounter,
    pub(crate) motor_counter: StreamCounter,
    // Attack-timeline state.
    pub(crate) script: Vec<ScriptEntry>,
    pub(crate) script_cursor: usize,
    pub(crate) armed: Vec<Box<dyn AttackDriver>>,
    pub(crate) attack_log: Vec<(SimTime, &'static str)>,
    pub(crate) next_src_port: u16,
    // Bookkeeping.
    pub(crate) ids: TaskIds,
    pub(crate) recorder: FlightRecorder,
    pub(crate) steps: u64,
    pub(crate) quanta_leaped: u64,
    /// Scratch for decoded frames, reused across every received datagram.
    pub(crate) frame_scratch: Vec<Frame>,
    /// Parse-once memo for shared flood payloads: the last shared buffer
    /// whose clean-slate parse produced no frames and left the reassembly
    /// buffer empty, with the [`ParserStats`] delta that parse booked.
    /// Later packets carrying the same buffer (pointer identity) replay
    /// the delta instead of re-scanning.
    pub(crate) flood_memo: Option<(std::sync::Arc<[u8]>, mavlink_lite::parser::ParserStats)>,
    /// Wall-nanoseconds per executor phase ([`crate::phase`] indices).
    /// All-zero unless a measurement harness installed the phase clock;
    /// never feeds simulation state.
    pub(crate) phase_ns: [u64; crate::phase::COUNT],
    /// Structured trace port — detached (a single branch per potential
    /// event) unless a fleet/scenario driver attaches a buffer.
    pub(crate) obs: ObsPort,
    /// Lifetime count of Simplex switches to the safety controller.
    pub(crate) simplex_switches: u64,
}
