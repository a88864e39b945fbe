//! The security monitor and Simplex decision logic (§III-E).
//!
//! "A security monitor keeps monitoring the outputs received from the
//! interface and also the physical state of the drone. Two security rules
//! are enforced and upon a violation, the monitor kills the receiving
//! thread on the HCE and switches to use the output from the safety
//! controller."
//!
//! The two paper rules ([`ReceiveIntervalRule`], [`AttitudeErrorRule`]) are
//! implementations of the open [`SecurityRule`] trait, so deployments can
//! add their own (see the `custom_rule` example).

use sim_core::time::{SimDuration, SimTime};

use crate::config::MonitorThresholds;

/// Which controller's output drives the actuators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputSource {
    /// The complex controller in the CCE (normal operation).
    #[default]
    Complex,
    /// The safety controller on the HCE (after a violation).
    Safety,
}

/// Everything a rule may inspect at evaluation time.
#[derive(Debug, Clone, Copy)]
pub struct MonitorContext {
    /// Current time.
    pub now: SimTime,
    /// When the last *valid* `MotorOutput` frame arrived from the CCE.
    pub last_valid_output: Option<SimTime>,
    /// Attitude error of the vehicle against the HCE's own reference, rad.
    pub attitude_error: f64,
    /// Current output source.
    pub source: OutputSource,
}

/// Verdict of one rule evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleVerdict {
    /// All good.
    Ok,
    /// The rule is violated; the message is recorded in the event log.
    Violation(String),
}

/// A pluggable security rule.
pub trait SecurityRule: std::fmt::Debug + Send {
    /// Short identifier for reports.
    fn name(&self) -> &str;
    /// Evaluates the rule.
    fn evaluate(&mut self, ctx: &MonitorContext) -> RuleVerdict;
    /// A deep, independent copy of this rule, boxed — what lets a
    /// mid-flight run (its monitor included) be cloned and forked. The
    /// copy must carry every piece of evaluation state (arming times,
    /// persistence timers), so it returns exactly the verdicts the
    /// original would have for the same contexts, and evaluating one
    /// never affects the other. A `Clone` rule implements it as
    /// `Box::new(self.clone())`.
    fn clone_box(&self) -> Box<dyn SecurityRule>;
}

impl Clone for Box<dyn SecurityRule> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Rule 1 (§III-E): "The interval between two consecutive output received
/// by the HCE should not be longer than a threshold. A long interval
/// suggests the complex controller may have failed."
#[derive(Debug, Clone)]
pub struct ReceiveIntervalRule {
    threshold: SimDuration,
    armed_at: Option<SimTime>,
}

impl ReceiveIntervalRule {
    /// Creates the rule with the given interval threshold.
    pub fn new(threshold: SimDuration) -> Self {
        ReceiveIntervalRule {
            threshold,
            armed_at: None,
        }
    }
}

impl SecurityRule for ReceiveIntervalRule {
    fn name(&self) -> &str {
        "receive-interval"
    }

    fn clone_box(&self) -> Box<dyn SecurityRule> {
        Box::new(self.clone())
    }

    fn evaluate(&mut self, ctx: &MonitorContext) -> RuleVerdict {
        // Arm from the first evaluation so a CCE that never speaks at all
        // also trips the rule.
        let reference = match (ctx.last_valid_output, self.armed_at) {
            (Some(rx), _) => rx,
            (None, Some(armed)) => armed,
            (None, None) => {
                self.armed_at = Some(ctx.now);
                ctx.now
            }
        };
        let gap = ctx.now.saturating_since(reference);
        if gap > self.threshold {
            RuleVerdict::Violation(format!(
                "no valid CCE output for {gap} (threshold {})",
                self.threshold
            ))
        } else {
            RuleVerdict::Ok
        }
    }
}

/// Rule 2 (§III-E): "The attitude (i.e., roll, pitch, and yaw) errors
/// should be bounded at all time … Large errors suggest the drone is in a
/// dangerous state and might crash."
#[derive(Debug, Clone)]
pub struct AttitudeErrorRule {
    max_error: f64,
    persistence: SimDuration,
    exceeded_since: Option<SimTime>,
}

impl AttitudeErrorRule {
    /// Creates the rule: error must exceed `max_error` (rad) continuously
    /// for `persistence` before it trips (so sensor noise and aggressive
    /// maneuvers do not cause spurious failovers).
    pub fn new(max_error: f64, persistence: SimDuration) -> Self {
        AttitudeErrorRule {
            max_error,
            persistence,
            exceeded_since: None,
        }
    }
}

impl SecurityRule for AttitudeErrorRule {
    fn name(&self) -> &str {
        "attitude-error"
    }

    fn clone_box(&self) -> Box<dyn SecurityRule> {
        Box::new(self.clone())
    }

    fn evaluate(&mut self, ctx: &MonitorContext) -> RuleVerdict {
        if ctx.attitude_error > self.max_error {
            let since = *self.exceeded_since.get_or_insert(ctx.now);
            if ctx.now.saturating_since(since) >= self.persistence {
                return RuleVerdict::Violation(format!(
                    "attitude error {:.1}° above {:.1}° for {}",
                    ctx.attitude_error.to_degrees(),
                    self.max_error.to_degrees(),
                    self.persistence
                ));
            }
        } else {
            self.exceeded_since = None;
        }
        RuleVerdict::Ok
    }
}

/// A recorded monitor action.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorEvent {
    /// When the violation was detected.
    pub time: SimTime,
    /// Which rule fired.
    pub rule: String,
    /// Human-readable details.
    pub detail: String,
}

/// The security monitor: evaluates rules and performs the Simplex switch.
///
/// # Examples
///
/// ```
/// use containerdrone_core::monitor::{MonitorContext, OutputSource, SecurityMonitor};
/// use containerdrone_core::config::MonitorThresholds;
/// use sim_core::time::SimTime;
///
/// let mut mon = SecurityMonitor::new(&MonitorThresholds::default());
/// let ctx = MonitorContext {
///     now: SimTime::from_secs(10),
///     last_valid_output: Some(SimTime::from_secs(5)), // 5 s silence
///     attitude_error: 0.0,
///     source: OutputSource::Complex,
/// };
/// assert!(mon.evaluate(&ctx)); // violation -> switch demanded
/// assert_eq!(mon.source(), OutputSource::Safety);
/// ```
#[derive(Debug, Clone)]
pub struct SecurityMonitor {
    rules: Vec<Box<dyn SecurityRule>>,
    source: OutputSource,
    events: Vec<MonitorEvent>,
    switch_time: Option<SimTime>,
}

impl SecurityMonitor {
    /// Creates the monitor with the paper's two rules.
    pub fn new(thresholds: &MonitorThresholds) -> Self {
        SecurityMonitor {
            rules: vec![
                Box::new(ReceiveIntervalRule::new(thresholds.max_receive_interval)),
                Box::new(AttitudeErrorRule::new(
                    thresholds.max_attitude_error,
                    thresholds.attitude_persistence,
                )),
            ],
            source: OutputSource::Complex,
            events: Vec::new(),
            switch_time: None,
        }
    }

    /// Creates a monitor with a custom rule set.
    pub fn with_rules(rules: Vec<Box<dyn SecurityRule>>) -> Self {
        SecurityMonitor {
            rules,
            source: OutputSource::Complex,
            events: Vec::new(),
            switch_time: None,
        }
    }

    /// Adds a rule (see the `custom_rule` example).
    pub fn add_rule(&mut self, rule: Box<dyn SecurityRule>) {
        self.rules.push(rule);
    }

    /// The currently selected output source.
    pub fn source(&self) -> OutputSource {
        self.source
    }

    /// When the Simplex switch happened, if it has.
    pub fn switch_time(&self) -> Option<SimTime> {
        self.switch_time
    }

    /// Recorded violations.
    pub fn events(&self) -> &[MonitorEvent] {
        &self.events
    }

    /// Evaluates every rule. Returns `true` if a *new* violation demands
    /// the Simplex switch this call (the caller must then kill the rx
    /// thread, as the paper's monitor does).
    pub fn evaluate(&mut self, ctx: &MonitorContext) -> bool {
        if self.source == OutputSource::Safety {
            // Already switched; the safety controller keeps control for the
            // remainder of the flight (the paper performs no switch-back).
            return false;
        }
        let mut tripped = false;
        for rule in &mut self.rules {
            if let RuleVerdict::Violation(detail) = rule.evaluate(ctx) {
                self.events.push(MonitorEvent {
                    time: ctx.now,
                    rule: rule.name().to_string(),
                    detail,
                });
                tripped = true;
            }
        }
        if tripped {
            self.source = OutputSource::Safety;
            self.switch_time = Some(ctx.now);
        }
        tripped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(now_ms: u64, last_rx_ms: Option<u64>, att_err_deg: f64) -> MonitorContext {
        MonitorContext {
            now: SimTime::from_millis(now_ms),
            last_valid_output: last_rx_ms.map(SimTime::from_millis),
            attitude_error: att_err_deg.to_radians(),
            source: OutputSource::Complex,
        }
    }

    #[test]
    fn interval_rule_trips_on_silence() {
        let mut r = ReceiveIntervalRule::new(SimDuration::from_millis(300));
        assert_eq!(r.evaluate(&ctx(1000, Some(900), 0.0)), RuleVerdict::Ok);
        assert!(matches!(
            r.evaluate(&ctx(1301, Some(1000), 0.0)),
            RuleVerdict::Violation(_)
        ));
    }

    #[test]
    fn interval_rule_arms_without_any_output() {
        let mut r = ReceiveIntervalRule::new(SimDuration::from_millis(300));
        assert_eq!(r.evaluate(&ctx(0, None, 0.0)), RuleVerdict::Ok);
        assert_eq!(r.evaluate(&ctx(200, None, 0.0)), RuleVerdict::Ok);
        assert!(matches!(
            r.evaluate(&ctx(400, None, 0.0)),
            RuleVerdict::Violation(_)
        ));
    }

    #[test]
    fn attitude_rule_requires_persistence() {
        let mut r = AttitudeErrorRule::new(20f64.to_radians(), SimDuration::from_millis(250));
        assert_eq!(r.evaluate(&ctx(0, None, 30.0)), RuleVerdict::Ok);
        assert_eq!(r.evaluate(&ctx(100, None, 30.0)), RuleVerdict::Ok);
        assert!(matches!(
            r.evaluate(&ctx(260, None, 30.0)),
            RuleVerdict::Violation(_)
        ));
    }

    #[test]
    fn attitude_rule_resets_on_recovery() {
        let mut r = AttitudeErrorRule::new(20f64.to_radians(), SimDuration::from_millis(250));
        assert_eq!(r.evaluate(&ctx(0, None, 30.0)), RuleVerdict::Ok);
        assert_eq!(r.evaluate(&ctx(200, None, 5.0)), RuleVerdict::Ok); // recovered
        assert_eq!(r.evaluate(&ctx(300, None, 30.0)), RuleVerdict::Ok); // re-arms
        assert_eq!(r.evaluate(&ctx(500, None, 5.0)), RuleVerdict::Ok);
    }

    #[test]
    fn monitor_switches_once_and_latches() {
        let mut mon = SecurityMonitor::new(&MonitorThresholds::default());
        // Healthy.
        assert!(!mon.evaluate(&ctx(100, Some(95), 2.0)));
        assert_eq!(mon.source(), OutputSource::Complex);
        // Silence beyond the interval threshold: switch.
        assert!(mon.evaluate(&ctx(800, Some(95), 2.0)));
        assert_eq!(mon.source(), OutputSource::Safety);
        assert_eq!(mon.switch_time(), Some(SimTime::from_millis(800)));
        // Further evaluations do not "switch" again.
        assert!(!mon.evaluate(&ctx(1200, Some(95), 45.0)));
        assert_eq!(mon.events().len(), 1);
    }

    #[test]
    fn custom_rules_participate() {
        #[derive(Debug, Clone)]
        struct AlwaysTrip;
        impl SecurityRule for AlwaysTrip {
            fn name(&self) -> &str {
                "always"
            }
            fn evaluate(&mut self, _: &MonitorContext) -> RuleVerdict {
                RuleVerdict::Violation("tripped".into())
            }
            fn clone_box(&self) -> Box<dyn SecurityRule> {
                Box::new(self.clone())
            }
        }
        let mut mon = SecurityMonitor::with_rules(vec![Box::new(AlwaysTrip)]);
        assert!(mon.evaluate(&ctx(0, Some(0), 0.0)));
        assert_eq!(mon.events()[0].rule, "always");
    }
}
