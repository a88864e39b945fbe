//! Command spoofing: protocol-valid, malicious `MotorOutput` frames.
//!
//! The paper's attacker model is DoS-only, but its §I cites MAVLink
//! hijacking as motivation. This extension implements that stronger
//! attacker: instead of flooding garbage, the compromised CCE emits
//! *well-formed* motor commands with hostile content (full differential
//! throttle). The rx thread accepts them — they parse and checksum
//! perfectly — so neither iptables nor the receive-interval rule reacts;
//! the attack is caught by the *attitude-error* rule, demonstrating the
//! physical-state leg of the paper's security monitoring.

use container_rt::container::Container;
use mavlink_lite::frame::Sender;

use crate::driver::AttackDriver;
use mavlink_lite::messages::{Message, MotorOutput};
use rt_sched::machine::Machine;
use rt_sched::task::{Cost, TaskId, TaskSpec};
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::{Addr, NetError, Network, NsId, SocketId};

/// Spoofing-attack parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MotorSpoof {
    /// Forged commands per second (should exceed the legitimate 400 Hz so
    /// the attacker's values dominate the "latest command" slot).
    pub pps: f64,
    /// The hostile PWM pattern. The default commands maximum roll torque.
    pub pwm: [u16; 4],
}

impl Default for MotorSpoof {
    fn default() -> Self {
        MotorSpoof {
            pps: 1200.0,
            // Max thrust on the left motors (RL, FL), min on the right:
            // a hard roll-right command.
            pwm: [1000, 2000, 2000, 1000],
        }
    }
}

impl MotorSpoof {
    /// A moderate variant: enough differential to visibly upset the
    /// vehicle, slow enough that a well-tuned attitude rule can win the
    /// race (see `ScenarioConfig::spoof`).
    pub fn moderate() -> Self {
        MotorSpoof {
            pps: 500.0,
            pwm: [1440, 1560, 1560, 1440],
        }
    }

    /// Starts the spoofer: binds a sender socket in the container
    /// namespace and spawns the forging process.
    ///
    /// # Errors
    ///
    /// Propagates [`NetError`] if the source socket cannot be bound.
    pub fn launch(
        &self,
        machine: &mut Machine,
        net: &mut Network,
        container: &mut Container,
        host_ns: NsId,
        src_port: u16,
    ) -> Result<SpoofDriver, NetError> {
        let socket = net.bind(container.netns(), src_port)?;
        let task = container.run_task(
            machine,
            TaskSpec::busy_fair("motor-spoofer", Cost::compute(SimDuration::from_secs(1))),
        );
        Ok(SpoofDriver {
            socket,
            task,
            target: Addr {
                ns: host_ns,
                port: 14600,
            },
            pps: self.pps,
            pwm: self.pwm,
            // Forge the CCE's identity so the frames are indistinguishable.
            sender: Sender::new(2, 1),
            seq: 1_000_000,
            carry: 0.0,
            sent: 0,
            active: true,
        })
    }
}

/// Drives an active spoofing attack; step every quantum.
#[derive(Debug, Clone)]
pub struct SpoofDriver {
    socket: SocketId,
    task: TaskId,
    target: Addr,
    pps: f64,
    pwm: [u16; 4],
    sender: Sender,
    seq: u32,
    carry: f64,
    sent: u64,
    active: bool,
}

impl SpoofDriver {
    /// Emits this quantum's worth of forged commands.
    pub fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        if !self.active {
            return;
        }
        self.carry += self.pps * dt.as_secs_f64();
        while self.carry >= 1.0 {
            self.carry -= 1.0;
            self.seq = self.seq.wrapping_add(1);
            let msg = MotorOutput {
                time_usec: now.as_micros(),
                pwm: self.pwm,
                seq: self.seq,
                armed: 1,
            };
            // Each forgery differs (sequence numbers), so the pooled
            // per-sender buffer is re-encoded rather than shared.
            let mut wire = net.take_buf();
            self.sender.encode_into(Message::Motor(msg), &mut wire);
            let _ = net.send(self.socket, self.target, wire, now);
            self.sent += 1;
        }
    }

    /// Forged frames sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The spoofer process's task id.
    pub fn task(&self) -> TaskId {
        self.task
    }

    /// Stops forging (e.g. when the attack window ends).
    pub fn stop(&mut self, machine: &mut Machine) {
        self.active = false;
        machine.kill(self.task);
    }
}

impl AttackDriver for SpoofDriver {
    fn name(&self) -> &'static str {
        "motor-spoof"
    }

    fn clone_box(&self) -> Box<dyn AttackDriver> {
        Box::new(self.clone())
    }

    fn step(&mut self, net: &mut Network, now: SimTime, dt: SimDuration) {
        SpoofDriver::step(self, net, now, dt);
    }

    fn halt(&mut self, machine: &mut Machine) {
        self.stop(machine);
    }

    fn quantum_active(&self) -> bool {
        self.active
    }

    fn packets_sent(&self) -> u64 {
        self.sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use container_rt::container::ContainerConfig;
    use mavlink_lite::parser::Parser;
    use rt_sched::machine::MachineConfig;

    #[test]
    fn spoofed_frames_parse_as_valid_motor_output() {
        let mut m = Machine::new(MachineConfig::default());
        let mut net = Network::new();
        let host = net.add_namespace("host");
        let mut c = Container::create(&mut m, &mut net, host, ContainerConfig::cce(3));
        let rx = net.bind(host, 14600).unwrap();

        let mut driver = MotorSpoof::default()
            .launch(&mut m, &mut net, &mut c, host, 41000)
            .unwrap();
        let dt = SimDuration::from_millis(1);
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            driver.step(&mut net, t, dt);
            t += dt;
            net.step(t);
        }
        assert!(driver.sent() > 100);

        // Every delivered frame decodes cleanly to the hostile command.
        let mut parser = Parser::new();
        let mut hostile = 0;
        while let Some(pkt) = net.recv(rx) {
            for frame in parser.push(&pkt.payload) {
                if let Message::Motor(mo) = frame.message {
                    assert_eq!(mo.pwm, [1000, 2000, 2000, 1000]);
                    assert_eq!(mo.armed, 1);
                    hostile += 1;
                }
            }
        }
        assert!(hostile > 100);
        assert_eq!(
            parser.stats().crc_errors,
            0,
            "forgeries are protocol-perfect"
        );
    }
}
