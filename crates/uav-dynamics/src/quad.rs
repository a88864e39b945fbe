//! Quadrotor rigid-body dynamics.
//!
//! A Quad-X airframe in the PX4 numbering: motor 0 front-right (CCW),
//! motor 1 rear-left (CCW), motor 2 front-left (CW), motor 3 rear-right
//! (CW). Frames are NED world / FRD body (see [`crate::math`]).

use crate::math::{Mat3, Quat, Vec3};
use crate::motor::Motor;

/// Standard gravity, m/s².
pub const GRAVITY: f64 = 9.80665;

/// Physical parameters of the airframe.
///
/// Defaults approximate the paper's RPi3B + Navio2 prototype: a ~1.2 kg
/// 250–450 mm class quadcopter with a thrust-to-weight ratio near 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuadParams {
    /// Vehicle mass, kg.
    pub mass: f64,
    /// Body-frame inertia tensor (diagonal), kg·m².
    pub inertia: Mat3,
    /// Distance from the center of mass to each motor, m.
    pub arm_length: f64,
    /// Maximum thrust of one motor, N.
    pub motor_max_thrust: f64,
    /// Motor thrust time constant, s.
    pub motor_time_constant: f64,
    /// Reaction-torque per newton of thrust, m (yaw authority).
    pub torque_coeff: f64,
    /// Linear drag coefficient, N per m/s of airspeed.
    pub linear_drag: f64,
    /// Rotational damping, N·m per rad/s.
    pub angular_drag: f64,
}

impl Default for QuadParams {
    fn default() -> Self {
        QuadParams {
            mass: 1.2,
            inertia: Mat3::diag(0.0115, 0.0115, 0.0218),
            arm_length: 0.16,
            motor_max_thrust: 6.0,
            motor_time_constant: 0.02,
            torque_coeff: 0.016,
            linear_drag: 0.25,
            angular_drag: 0.002,
        }
    }
}

impl QuadParams {
    /// Total thrust needed to hover, N.
    pub fn hover_thrust(&self) -> f64 {
        self.mass * GRAVITY
    }

    /// Normalized per-motor command that hovers the vehicle.
    pub fn hover_command(&self) -> f64 {
        self.hover_thrust() / (4.0 * self.motor_max_thrust)
    }
}

/// Instantaneous kinematic state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuadState {
    /// Position in NED world frame, m.
    pub position: Vec3,
    /// Velocity in NED world frame, m/s.
    pub velocity: Vec3,
    /// Attitude: rotation body → world.
    pub attitude: Quat,
    /// Body-frame angular velocity, rad/s.
    pub angular_velocity: Vec3,
    /// World-frame *specific force* (all non-gravitational forces per unit
    /// mass), m/s². This is what an ideal accelerometer measures: at hover
    /// it is `(0, 0, −g)`; in free fall it is zero.
    pub acceleration: Vec3,
}

impl QuadState {
    /// Euler angles `(roll, pitch, yaw)` of the current attitude, rad.
    pub fn euler(&self) -> (f64, f64, f64) {
        self.attitude.to_euler()
    }

    /// Altitude above the NED origin, m (positive up).
    pub fn altitude(&self) -> f64 {
        -self.position.z
    }
}

/// The quadrotor plant: parameters, state, and four motors.
///
/// # Examples
///
/// ```
/// use uav_dynamics::quad::{Quadrotor, QuadParams};
///
/// let mut quad = Quadrotor::new(QuadParams::default());
/// quad.start_at_hover(uav_dynamics::math::Vec3::new(0.0, 0.0, -1.0));
/// quad.set_motor_commands([quad.params().hover_command(); 4]);
/// for _ in 0..1000 {
///     quad.step(0.001, uav_dynamics::math::Vec3::ZERO);
/// }
/// // Hover command with no disturbance keeps altitude within a centimetre.
/// assert!((quad.state().altitude() - 1.0).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct Quadrotor {
    params: QuadParams,
    state: QuadState,
    motors: [Motor; 4],
    inertia_inv: Mat3,
    on_ground: bool,
}

/// Motor lever arms for Quad-X in the FRD body frame: (x forward, y right).
/// Index order matches PX4: FR, RL, FL, RR.
const MOTOR_POS_SIGNS: [(f64, f64); 4] = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)];
/// Spin direction per motor: +1 = CCW (positive yaw reaction in FRD).
const MOTOR_SPIN: [f64; 4] = [1.0, 1.0, -1.0, -1.0];

impl Quadrotor {
    /// Creates a quadrotor at rest at the NED origin.
    pub fn new(params: QuadParams) -> Self {
        let motor = Motor::new(params.motor_max_thrust, params.motor_time_constant);
        Quadrotor {
            inertia_inv: params.inertia.diag_inverse(),
            params,
            state: QuadState::default(),
            motors: [motor; 4],
            on_ground: true,
        }
    }

    /// Airframe parameters.
    pub fn params(&self) -> &QuadParams {
        &self.params
    }

    /// Current state.
    pub fn state(&self) -> &QuadState {
        &self.state
    }

    /// `true` while the vehicle is resting on the ground plane.
    pub fn on_ground(&self) -> bool {
        self.on_ground
    }

    /// Current thrust of each motor, N.
    pub fn motor_thrusts(&self) -> [f64; 4] {
        [
            self.motors[0].thrust(),
            self.motors[1].thrust(),
            self.motors[2].thrust(),
            self.motors[3].thrust(),
        ]
    }

    /// Teleports the vehicle to a hover at `position` with motors pre-spun
    /// to hover thrust — the initial condition of the paper's experiments
    /// (trajectories start with the drone already holding position).
    pub fn start_at_hover(&mut self, position: Vec3) {
        self.state = QuadState {
            position,
            // Hovering: thrust exactly cancels gravity.
            acceleration: Vec3::new(0.0, 0.0, -GRAVITY),
            ..QuadState::default()
        };
        let hover = self.params.hover_thrust() / 4.0;
        for m in &mut self.motors {
            m.set_thrust_state(hover);
            m.set_command(self.params.hover_command());
        }
        self.on_ground = position.z >= 0.0;
    }

    /// Applies normalized thrust commands (each clamped to `[0, 1]`).
    pub fn set_motor_commands(&mut self, cmds: [f64; 4]) {
        for (m, c) in self.motors.iter_mut().zip(cmds) {
            m.set_command(c);
        }
    }

    /// Applies PWM commands (1000–2000 µs per motor).
    pub fn set_motor_pwm(&mut self, pwm: [u16; 4]) {
        for (m, p) in self.motors.iter_mut().zip(pwm) {
            m.set_pwm(p);
        }
    }

    /// Advances the simulation by `dt` seconds under `wind` (world-frame
    /// air velocity, m/s).
    ///
    /// Semi-implicit Euler at the caller's rate (≥ 500 Hz recommended).
    pub fn step(&mut self, dt: f64, wind: Vec3) {
        let Quadrotor {
            params,
            state,
            motors,
            inertia_inv,
            on_ground,
        } = self;
        for m in motors.iter_mut() {
            m.step(dt);
        }
        let thrusts = [
            motors[0].thrust(),
            motors[1].thrust(),
            motors[2].thrust(),
            motors[3].thrust(),
        ];
        let total_thrust: f64 = thrusts.iter().sum();

        // Torques from motor geometry (FRD: thrust acts along -z body).
        let d = params.arm_length / std::f64::consts::SQRT_2;
        let mut torque = Vec3::ZERO;
        for i in 0..4 {
            let (sx, sy) = MOTOR_POS_SIGNS[i];
            let (x, y) = (sx * d, sy * d);
            torque.x += -y * thrusts[i];
            torque.y += x * thrusts[i];
            torque.z += MOTOR_SPIN[i] * params.torque_coeff * thrusts[i];
        }
        torque -= state.angular_velocity * params.angular_drag;

        // Angular dynamics: ω̇ = I⁻¹(τ − ω × Iω).
        let i_omega = params.inertia.mul_vec(state.angular_velocity);
        let omega_dot = inertia_inv.mul_vec(torque - state.angular_velocity.cross(i_omega));
        state.angular_velocity += omega_dot * dt;
        state.attitude = state.attitude.integrate(state.angular_velocity, dt);

        // Linear dynamics.
        let thrust_world = state.attitude.rotate(Vec3::new(0.0, 0.0, -total_thrust));
        let airspeed = state.velocity - wind;
        let drag = -airspeed * params.linear_drag;
        let accel = Vec3::new(0.0, 0.0, GRAVITY) + (thrust_world + drag) / params.mass;
        state.acceleration = accel - Vec3::new(0.0, 0.0, GRAVITY);

        state.velocity += accel * dt;
        state.position += state.velocity * dt;

        // Ground plane at z = 0 (NED: positive z is below origin).
        if state.position.z >= 0.0 {
            state.position.z = 0.0;
            if state.velocity.z > 0.0 {
                state.velocity = Vec3::ZERO;
                state.angular_velocity = Vec3::ZERO;
            }
            *on_ground = true;
            // Resting: the normal force supplies one g of specific force.
            state.acceleration = Vec3::new(0.0, 0.0, -GRAVITY);
        } else {
            *on_ground = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_fall_matches_closed_form() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -100.0));
        for m in q.motors.iter_mut() {
            m.set_thrust_state(0.0);
            m.set_command(0.0);
        }
        let dt = 0.001;
        let t = 1.0;
        // Drag-free fall would travel g t²/2 = 4.903 m; linear drag makes it
        // slightly less. Integrate and compare with the analytic solution of
        // v̇ = g − (c/m)v.
        for _ in 0..1000 {
            q.step(dt, Vec3::ZERO);
        }
        let c = q.params.linear_drag / q.params.mass;
        let v_analytic = GRAVITY / c * (1.0 - (-c * t).exp());
        assert!((q.state().velocity.z - v_analytic).abs() < 0.01);
    }

    #[test]
    fn hover_command_holds_altitude() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
        q.set_motor_commands([q.params().hover_command(); 4]);
        for _ in 0..5000 {
            q.step(0.001, Vec3::ZERO);
        }
        assert!((q.state().altitude() - 1.0).abs() < 0.02);
        assert!(q.state().angular_velocity.norm() < 1e-9);
    }

    #[test]
    fn differential_thrust_rolls_the_right_way() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -5.0));
        let h = q.params().hover_command();
        // More thrust on the left motors (RL=1, FL=2) rolls right (positive).
        q.set_motor_commands([h - 0.05, h + 0.05, h + 0.05, h - 0.05]);
        for _ in 0..100 {
            q.step(0.001, Vec3::ZERO);
        }
        let (roll, pitch, _) = q.state().euler();
        assert!(roll > 1e-4, "roll {roll}");
        assert!(pitch.abs() < roll / 10.0, "pitch {pitch}");
    }

    #[test]
    fn differential_thrust_pitches_the_right_way() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -5.0));
        let h = q.params().hover_command();
        // More thrust on front motors (FR=0, FL=2) pitches up (positive).
        q.set_motor_commands([h + 0.05, h - 0.05, h + 0.05, h - 0.05]);
        for _ in 0..100 {
            q.step(0.001, Vec3::ZERO);
        }
        let (roll, pitch, _) = q.state().euler();
        assert!(pitch > 1e-4, "pitch {pitch}");
        assert!(roll.abs() < pitch / 10.0, "roll {roll}");
    }

    #[test]
    fn ccw_motor_surplus_yaws_positive() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -5.0));
        let h = q.params().hover_command();
        // More thrust on CCW motors (0, 1) -> positive yaw reaction.
        q.set_motor_commands([h + 0.05, h + 0.05, h - 0.05, h - 0.05]);
        for _ in 0..200 {
            q.step(0.001, Vec3::ZERO);
        }
        let (_, _, yaw) = q.state().euler();
        assert!(yaw > 1e-5, "yaw {yaw}");
    }

    #[test]
    fn tilted_thrust_accelerates_horizontally() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -5.0));
        // Pitch the vehicle nose-down 0.1 rad and hold hover thrust: it
        // should accelerate forward (+x).
        q.state.attitude = Quat::from_euler(0.0, -0.1, 0.0);
        q.set_motor_commands([q.params().hover_command() / (0.1f64).cos().powi(2); 4]);
        for _ in 0..500 {
            q.step(0.001, Vec3::ZERO);
        }
        assert!(q.state().velocity.x > 0.3, "vx {}", q.state().velocity.x);
    }

    #[test]
    fn wind_pushes_the_vehicle() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -5.0));
        q.set_motor_commands([q.params().hover_command(); 4]);
        for _ in 0..2000 {
            q.step(0.001, Vec3::new(0.0, 3.0, 0.0));
        }
        assert!(q.state().velocity.y > 0.5, "vy {}", q.state().velocity.y);
    }

    #[test]
    fn ground_contact_stops_descent() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -0.2));
        q.set_motor_commands([0.0; 4]);
        for _ in 0..2000 {
            q.step(0.001, Vec3::ZERO);
        }
        assert!(q.on_ground());
        assert_eq!(q.state().position.z, 0.0);
        assert_eq!(q.state().velocity, Vec3::ZERO);
    }

    #[test]
    fn state_stays_finite_under_full_throttle_asymmetry() {
        let mut q = Quadrotor::new(QuadParams::default());
        q.start_at_hover(Vec3::new(0.0, 0.0, -50.0));
        q.set_motor_commands([1.0, 0.0, 1.0, 0.0]);
        for _ in 0..5000 {
            q.step(0.001, Vec3::ZERO);
        }
        assert!(q.state().position.is_finite());
        assert!(q.state().attitude.is_finite());
        assert!((q.state().attitude.norm() - 1.0).abs() < 1e-9);
    }
}
