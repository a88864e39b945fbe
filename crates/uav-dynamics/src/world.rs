//! The assembled physical world: airframe + wind + sensors + crash detector.
//!
//! [`World`] is the single physical truth the rest of the framework talks to:
//! the HCE sensor driver *samples* it, the motor driver *actuates* it, and
//! the scenario loop *steps* it between scheduler quanta.

use sim_core::rng::Rng;
use sim_core::time::{SimDuration, SimTime};

use crate::crash::{Crash, CrashConfig, CrashDetector};
use crate::environment::{FlightCage, Wind, WindConfig};
use crate::math::Vec3;
use crate::quad::{QuadParams, QuadState, Quadrotor};
use crate::sensors::{
    Baro, BaroConfig, BaroSample, Imu, ImuConfig, ImuSample, PositionFix, Positioning,
    PositioningConfig,
};

/// Everything needed to build a [`World`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorldConfig {
    /// Airframe parameters.
    pub quad: QuadParams,
    /// Wind model.
    pub wind: WindConfig,
    /// IMU noise model.
    pub imu: ImuConfig,
    /// Barometer noise model.
    pub baro: BaroConfig,
    /// Positioning source (Vicon by default, as in the paper's lab).
    pub positioning: PositioningConfig,
    /// Crash thresholds.
    pub crash: CrashConfig,
    /// Flight volume.
    pub cage: FlightCage,
    /// Physics integration step.
    pub physics_dt: SimDuration,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            quad: QuadParams::default(),
            wind: WindConfig::default(),
            imu: ImuConfig::default(),
            baro: BaroConfig::default(),
            positioning: PositioningConfig::vicon(),
            crash: CrashConfig::default(),
            cage: FlightCage::default(),
            physics_dt: SimDuration::from_micros(500), // 2 kHz
        }
    }
}

/// The simulated physical world.
///
/// # Examples
///
/// ```
/// use uav_dynamics::world::{World, WorldConfig};
/// use uav_dynamics::math::Vec3;
/// use sim_core::time::SimTime;
///
/// let mut world = World::new(WorldConfig::default(), 42);
/// world.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
/// world.advance_to(SimTime::from_millis(100));
/// assert!(world.crash().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct World {
    config: WorldConfig,
    quad: Quadrotor,
    wind: Wind,
    imu: Imu,
    baro: Baro,
    positioning: Positioning,
    detector: CrashDetector,
    now: SimTime,
}

impl World {
    /// Builds a world whose noise streams derive from `seed`.
    pub fn new(config: WorldConfig, seed: u64) -> Self {
        World {
            quad: Quadrotor::new(config.quad),
            wind: Wind::new(config.wind, Rng::derive(seed, "wind")),
            imu: Imu::new(config.imu, Rng::derive(seed, "imu")),
            baro: Baro::new(config.baro, Rng::derive(seed, "baro")),
            positioning: Positioning::new(config.positioning, Rng::derive(seed, "positioning")),
            detector: CrashDetector::new(config.crash, config.cage),
            now: SimTime::ZERO,
            config,
        }
    }

    /// The configuration this world was built from.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Current simulation time of the physics.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Ground-truth vehicle state.
    pub fn truth(&self) -> &QuadState {
        self.quad.state()
    }

    /// Airframe parameters.
    pub fn quad_params(&self) -> &QuadParams {
        self.quad.params()
    }

    /// `true` while resting on the ground.
    pub fn on_ground(&self) -> bool {
        self.quad.on_ground()
    }

    /// The first detected crash, if any.
    pub fn crash(&self) -> Option<Crash> {
        self.detector.crash()
    }

    /// Places the vehicle in a steady hover at `position` (NED).
    pub fn start_at_hover(&mut self, position: Vec3) {
        self.quad.start_at_hover(position);
    }

    /// Applies motor PWM commands (the actuation path of the HCE motor
    /// driver).
    pub fn set_motor_pwm(&mut self, pwm: [u16; 4]) {
        self.quad.set_motor_pwm(pwm);
    }

    /// Applies normalized motor commands.
    pub fn set_motor_commands(&mut self, cmds: [f64; 4]) {
        self.quad.set_motor_commands(cmds);
    }

    /// Injects a wind gust (used by disturbance-rejection experiments).
    pub fn inject_gust(&mut self, velocity: Vec3, duration: f64) {
        self.wind.inject_gust(velocity, duration);
    }

    /// Advances physics to `target` in fixed sub-steps, running crash
    /// detection at every step. Does nothing if `target` is in the past.
    pub fn advance_to(&mut self, target: SimTime) {
        let dt = self.config.physics_dt;
        let dt_s = dt.as_secs_f64();
        while self.now + dt <= target {
            let wind = self.wind.step(dt_s);
            self.quad.step(dt_s, wind);
            self.now += dt;
            self.detector
                .check(self.quad.state(), self.quad.on_ground(), self.now);
        }
    }

    /// Samples the IMU at the current instant.
    pub fn sample_imu(&mut self) -> ImuSample {
        self.imu.sample(self.quad.state(), self.now)
    }

    /// Samples the barometer at the current instant.
    pub fn sample_baro(&mut self) -> BaroSample {
        self.baro.sample(self.quad.state(), self.now)
    }

    /// Samples the positioning source at the current instant.
    pub fn sample_position(&mut self) -> PositionFix {
        self.positioning.sample(self.quad.state(), self.now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quad::GRAVITY;

    #[test]
    fn hover_with_held_commands_stays_put_briefly() {
        let mut w = World::new(WorldConfig::default(), 7);
        w.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
        let hover = w.quad_params().hover_command();
        w.set_motor_commands([hover; 4]);
        w.advance_to(SimTime::from_millis(500));
        // Open-loop hover drifts a little under turbulence but stays close.
        assert!((w.truth().altitude() - 1.0).abs() < 0.2);
        assert!(w.crash().is_none());
    }

    #[test]
    fn advance_is_idempotent_for_past_targets() {
        let mut w = World::new(WorldConfig::default(), 7);
        w.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
        w.advance_to(SimTime::from_millis(100));
        let p = w.truth().position;
        w.advance_to(SimTime::from_millis(50));
        assert_eq!(w.truth().position, p);
    }

    #[test]
    fn motors_off_leads_to_ground_impact_crash() {
        let mut w = World::new(WorldConfig::default(), 7);
        w.start_at_hover(Vec3::new(0.0, 0.0, -2.0));
        w.set_motor_commands([0.0; 4]);
        w.advance_to(SimTime::from_secs(3));
        let crash = w.crash().expect("free fall from 2 m must crash");
        assert_eq!(crash.kind, crate::crash::CrashKind::GroundImpact);
    }

    #[test]
    fn same_seed_same_world_trajectory() {
        let run = |seed| {
            let mut w = World::new(WorldConfig::default(), seed);
            w.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
            w.set_motor_commands([w.quad_params().hover_command() * 1.01; 4]);
            w.advance_to(SimTime::from_secs(1));
            w.truth().position
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn sensors_report_plausible_hover_values() {
        let mut w = World::new(WorldConfig::default(), 11);
        w.start_at_hover(Vec3::new(0.5, -0.5, -1.0));
        let imu = w.sample_imu();
        assert!((imu.accel.z + GRAVITY).abs() < 0.5, "{:?}", imu.accel);
        let fix = w.sample_position();
        assert!((fix.position - w.truth().position).norm() < 0.05);
        let baro = w.sample_baro();
        assert!((baro.altitude - 1.0).abs() < 1.0);
    }

    #[test]
    fn gust_displaces_open_loop_hover() {
        let mut w = World::new(WorldConfig::default(), 13);
        w.start_at_hover(Vec3::new(0.0, 0.0, -2.0));
        w.set_motor_commands([w.quad_params().hover_command(); 4]);
        w.inject_gust(Vec3::new(0.0, 4.0, 0.0), 1.0);
        w.advance_to(SimTime::from_secs(2));
        assert!(w.truth().position.y > 0.3, "y {}", w.truth().position.y);
    }
}
