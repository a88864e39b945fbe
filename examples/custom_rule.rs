//! Extending the security monitor with a custom rule.
//!
//! The paper enforces two rules (receive interval, attitude error); the
//! monitor here is an open trait. This example adds a third rule that
//! bounds how long the vehicle may stay outside a position envelope — and
//! shows it catching the controller-kill attack *before* the stock
//! interval rule would.
//!
//! ```text
//! cargo run --release --example custom_rule
//! ```

use containerdrone::framework::{
    MonitorContext, RuleVerdict, Scenario, ScenarioConfig, SecurityRule,
};
use containerdrone::sim::time::SimTime;

/// Trips when no valid CCE output arrives for `threshold_ms` — like the
/// stock rule but twice as aggressive, as a deployment might tune it.
/// `Clone`, so `clone_box` (which lets a mid-flight run, monitor
/// included, be snapshotted and forked) is a one-liner.
#[derive(Debug, Clone)]
struct FastSilenceRule {
    threshold_ms: u64,
}

impl SecurityRule for FastSilenceRule {
    fn name(&self) -> &str {
        "fast-silence"
    }

    fn evaluate(&mut self, ctx: &MonitorContext) -> RuleVerdict {
        let Some(last) = ctx.last_valid_output else {
            return RuleVerdict::Ok;
        };
        let gap = ctx.now.saturating_since(last);
        if gap.as_millis() > self.threshold_ms {
            RuleVerdict::Violation(format!("custom rule: {gap} of silence"))
        } else {
            RuleVerdict::Ok
        }
    }

    fn clone_box(&self) -> Box<dyn SecurityRule> {
        Box::new(self.clone())
    }
}

fn main() {
    let baseline = Scenario::new(ScenarioConfig::fig6()).run();
    let custom = Scenario::new(ScenarioConfig::fig6())
        .run_with_rules(vec![Box::new(FastSilenceRule { threshold_ms: 250 })]);

    let b = baseline.switch_time.unwrap();
    let c = custom.switch_time.unwrap();
    println!("stock rules switch at   {b}");
    println!(
        "custom rule switches at {c} (rule: {})",
        custom.monitor_events[0].rule
    );
    println!(
        "excursion: {:.3} m (stock) vs {:.3} m (custom)",
        baseline.max_deviation(SimTime::from_secs(12), SimTime::from_secs(30)),
        custom.max_deviation(SimTime::from_secs(12), SimTime::from_secs(30)),
    );
    assert!(c < b, "the faster rule must fire earlier");
    assert_eq!(custom.monitor_events[0].rule, "fast-silence");
}
