//! Quadrotor flight dynamics, sensors and environment for the
//! ContainerDrone reproduction.
//!
//! The paper's evaluation happens on a physical quadcopter in a Vicon lab;
//! this crate is the substitute: a 6-DOF rigid-body quadrotor ([`quad`]),
//! first-order motor dynamics ([`motor`]), turbulence and the flight cage
//! ([`environment`]), Navio2-class sensor models ([`sensors`]), crash
//! detection matching the paper's failure outcomes ([`crash`]), and the
//! assembled [`world::World`] the framework actuates and samples.
//!
//! Frames are NED world / FRD body throughout (see [`math`]); hovering at
//! one metre is `z = −1`, matching the Z-setpoint in the paper's Figures 4–7.
//!
//! # Examples
//!
//! ```
//! use uav_dynamics::prelude::*;
//! use sim_core::time::SimTime;
//!
//! let mut world = World::new(WorldConfig::default(), 1);
//! world.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
//! // Hold hover thrust open-loop for 50 ms.
//! let hover = world.quad_params().hover_command();
//! world.set_motor_commands([hover; 4]);
//! world.advance_to(SimTime::from_millis(50));
//! assert!(world.crash().is_none());
//! ```

#![warn(missing_docs)]

pub mod crash;
pub mod environment;
pub mod math;
pub mod motor;
pub mod quad;
pub mod sensors;
pub mod world;

pub use crash::{Crash, CrashConfig, CrashDetector, CrashKind};
pub use environment::{FlightCage, Wind, WindConfig};
pub use math::{wrap_angle, Mat3, Quat, Vec3};
pub use motor::{cmd_to_pwm, pwm_to_cmd, Motor, PWM_MAX, PWM_MIN};
pub use quad::{QuadParams, QuadState, Quadrotor, GRAVITY};
pub use sensors::{
    Baro, BaroConfig, BaroSample, Imu, ImuConfig, ImuSample, PositionFix, Positioning,
    PositioningConfig,
};
pub use world::{World, WorldConfig};

/// Convenient glob import of the dynamics types.
pub mod prelude {
    pub use crate::crash::{Crash, CrashConfig, CrashKind};
    pub use crate::environment::{FlightCage, Wind, WindConfig};
    pub use crate::math::{wrap_angle, Mat3, Quat, Vec3};
    pub use crate::motor::{cmd_to_pwm, pwm_to_cmd, PWM_MAX, PWM_MIN};
    pub use crate::quad::{QuadParams, QuadState, Quadrotor, GRAVITY};
    pub use crate::sensors::{BaroSample, ImuConfig, ImuSample, PositionFix, PositioningConfig};
    pub use crate::world::{World, WorldConfig};
}
