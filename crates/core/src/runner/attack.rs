//! The attack-timeline engine: arms scheduled events at their onsets and
//! advances every armed driver each quantum.
//!
//! This replaces the old single-shot attack dispatch: the runner no longer
//! knows the attack kinds, only the [`AttackDriver`] contract, so the
//! timeline may sequence and overlap any number of attacks.

use std::fmt;

use attacks::driver::AttackCtx;
use attacks::script::{AttackEvent, AttackScript};
use sim_core::time::{SimDuration, SimTime};
use virt_net::net::Network;

use super::Runtime;

/// Why [`super::RunningScenario::set_attacks`] refused a script: the run
/// has already fired something the new script would not have, or the
/// new script would already have fired something the run has not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptMismatch {
    /// Simulation time of the refused swap.
    pub now: SimTime,
    /// Index of the first timeline entry on which the run's fired
    /// history and the new script disagree.
    pub entry: usize,
}

impl fmt::Display for ScriptMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "attack timeline entry {} disagrees with what the run fired by {}",
            self.entry, self.now
        )
    }
}

impl std::error::Error for ScriptMismatch {}

impl Runtime {
    /// Swaps the unfired tail of the timeline for `script`'s (see
    /// [`super::RunningScenario::set_attacks`]). `now` is the current
    /// quantum boundary: every entry due by then has been fired by the
    /// attack cursor, except at t = 0, before the first quantum.
    pub(crate) fn set_attacks(
        &mut self,
        script: AttackScript,
        now: SimTime,
    ) -> Result<(), ScriptMismatch> {
        let entries = script.entries();
        let due = if now == SimTime::ZERO {
            0
        } else {
            entries.partition_point(|e| e.at <= now)
        };
        let fired = self.script_cursor;
        let differs = |i: usize| i >= due || i >= fired || entries[i] != self.script[i];
        if let Some(entry) = (0..due.max(fired)).find(|&i| differs(i)) {
            return Err(ScriptMismatch { now, entry });
        }
        self.script = entries.to_vec();
        self.cfg.attacks = script;
        Ok(())
    }

    /// Arms every script entry whose time has come, then steps all armed
    /// drivers by one quantum.
    pub(crate) fn step_attacks(&mut self, now: SimTime, quantum: SimDuration, net: &mut Network) {
        while let Some(entry) = self.script.get(self.script_cursor) {
            if now < entry.at {
                break;
            }
            let event = entry.event.clone();
            self.script_cursor += 1;
            self.fire(now, &event, net);
        }

        for driver in &mut self.armed {
            driver.step(net, now, quantum);
        }
    }

    /// Fires one timeline event: `CeaseFire` halts everything armed so
    /// far; anything else arms a new driver.
    fn fire(&mut self, now: SimTime, event: &AttackEvent, net: &mut Network) {
        self.attack_log.push((now, event.name()));
        if *event == AttackEvent::CeaseFire {
            self.recorder.mark(now, "attack stop: cease-fire");
            cd_obs::emit!(
                self.obs,
                now,
                cd_obs::TraceKind::AttackCease,
                event.name(),
                self.armed.len() as u64,
                0
            );
            for driver in &mut self.armed {
                driver.halt(&mut self.machine);
            }
            return;
        }

        self.recorder
            .mark(now, format!("attack start: {}", event.name()));
        cd_obs::emit!(
            self.obs,
            now,
            cd_obs::TraceKind::AttackArm,
            event.name(),
            self.script_cursor as u64,
            0
        );
        let controller_tasks = self.ids.controller_tasks();
        let src_port = self.next_src_port;
        self.next_src_port += 1;
        let mut ctx = AttackCtx {
            machine: &mut self.machine,
            net,
            container: &mut self.container,
            host_ns: self.host_ns,
            controller_tasks: &controller_tasks,
            cpu_isolation: self.cfg.framework.protections.cpu_isolation,
            src_port,
        };
        if let Some(driver) = event.arm(&mut ctx) {
            self.armed.push(driver);
        }
    }
}
