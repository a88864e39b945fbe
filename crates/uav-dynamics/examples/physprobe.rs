//! Physics floor probe: ns per 500 µs world substep, stepped in
//! quantum-sized (50 µs) calls the way the runner drives it.

// A probe measures wall time by definition; nothing here touches sim
// state, so the determinism rule the lint backs does not apply.
#![allow(clippy::disallowed_methods)]

use sim_core::time::{SimDuration, SimTime};
use uav_dynamics::prelude::*;

fn main() {
    let mut world = World::new(WorldConfig::default(), 1);
    world.start_at_hover(Vec3::new(0.0, 0.0, -1.0));
    let hover = world.quad_params().hover_command();
    world.set_motor_commands([hover; 4]);

    let quantum = SimDuration::from_micros(50);
    let secs = 30u64;
    let quanta = secs * 20_000;
    let t = std::time::Instant::now();
    let mut now = SimTime::ZERO;
    for _ in 0..quanta {
        now += quantum;
        world.advance_to(now);
    }
    let total = t.elapsed().as_nanos() as f64;
    let substeps = (secs * 2000) as f64;
    println!(
        "advance_to: {:.0} ns/substep  ({:.1} ns amortized per quantum)",
        total / substeps,
        total / quanta as f64
    );
}
