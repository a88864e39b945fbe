//! Campaign execution: run whole grids of scenarios across threads.
//!
//! A [`CampaignSpec`] is a list of labelled scenario variants — typically
//! a cartesian product of attack timelines × protection settings × seeds
//! built with [`CampaignSpec::product`]. [`CampaignSpec::run`] executes
//! the variants on a worker pool of scoped threads (scenarios are
//! independent, deterministic, share-nothing simulations, so they
//! parallelise perfectly on multicore hosts) and aggregates every
//! [`ScenarioResult`] into one [`CampaignReport`] with ASCII and CSV
//! renderings.
//!
//! # Examples
//!
//! ```
//! use cd_bench::campaign::CampaignSpec;
//! use containerdrone_core::prelude::*;
//! use sim_core::time::SimDuration;
//!
//! let short = ScenarioConfig::healthy().with_duration(SimDuration::from_secs(1));
//! let report = CampaignSpec::new("smoke")
//!     .variant("healthy-a", short.clone())
//!     .variant("healthy-b", short.with_seed(7))
//!     .run();
//! assert_eq!(report.outcomes.len(), 2);
//! assert!(!report.outcomes[0].result.crashed());
//! ```

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use attacks::script::AttackScript;
use cd_obs::metrics::{Counter, Registry};
use cd_obs::trace::TraceSink;
use containerdrone_core::runner::{Scenario, ScenarioResult};
use containerdrone_core::scenario::ScenarioConfig;
use containerdrone_core::Protections;
use sim_core::time::{SimDuration, SimTime};

use crate::ascii_table;

/// One labelled scenario in a campaign.
#[derive(Debug, Clone)]
pub struct Variant {
    /// Human-readable variant label (shows up in report rows).
    pub label: String,
    /// The scenario to run.
    pub config: ScenarioConfig,
}

/// Pre-registered campaign-progress counters, shared (lock-free) by
/// every worker thread so a live scrape sees the grid drain mid-run.
#[derive(Debug, Clone)]
struct CampaignMetrics {
    started: Counter,
    crash: Counter,
    lost_ctl: Counter,
    stable: Counter,
    switches: Counter,
}

impl CampaignMetrics {
    fn register(reg: &Registry) -> Self {
        let done = "Campaign variants completed, by verdict.";
        CampaignMetrics {
            started: reg.counter(
                "cd_campaign_variants_started_total",
                "Campaign variants handed to a worker.",
                &[],
            ),
            crash: reg.counter("cd_campaign_variants_total", done, &[("verdict", "crash")]),
            lost_ctl: reg.counter(
                "cd_campaign_variants_total",
                done,
                &[("verdict", "lost-ctl")],
            ),
            stable: reg.counter("cd_campaign_variants_total", done, &[("verdict", "stable")]),
            switches: reg.counter(
                "cd_campaign_switches_total",
                "Variants whose monitor performed the Simplex switch.",
                &[],
            ),
        }
    }
}

/// A batch of scenario variants to execute.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (report heading, CSV file stem).
    pub name: String,
    variants: Vec<Variant>,
    trace: bool,
    metrics: Option<CampaignMetrics>,
}

impl CampaignSpec {
    /// An empty campaign.
    pub fn new(name: impl Into<String>) -> Self {
        CampaignSpec {
            name: name.into(),
            variants: Vec::new(),
            trace: false,
            metrics: None,
        }
    }

    /// Enables per-variant structured tracing: each variant's vehicle
    /// records into a pre-allocated ring (ordinal = variant index),
    /// drained every 250 simulated ms, and the per-variant JSONL
    /// fragments land in [`CampaignOutcome::trace`]. Because fragments
    /// are keyed to variants (not threads), the concatenated stream from
    /// [`CampaignReport::trace_bytes`] is byte-identical at any worker
    /// count.
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Registers campaign-progress counters (variants started, verdicts,
    /// switches) in `registry`; workers update them live as the grid
    /// drains. Share the registry with [`cd_obs::server::serve`] to
    /// scrape a campaign in flight.
    #[must_use]
    pub fn with_metrics(mut self, registry: &Registry) -> Self {
        self.metrics = Some(CampaignMetrics::register(registry));
        self
    }

    /// Adds one variant (chainable).
    #[must_use]
    pub fn variant(mut self, label: impl Into<String>, config: ScenarioConfig) -> Self {
        self.variants.push(Variant {
            label: label.into(),
            config,
        });
        self
    }

    /// Builds the cartesian product `attacks × protections × seeds` over a
    /// base configuration — the standard campaign shape. Labels compose as
    /// `attack/protection/seed`.
    pub fn product(
        name: impl Into<String>,
        base: &ScenarioConfig,
        attacks: &[(&str, AttackScript)],
        protections: &[(&str, Protections)],
        seeds: &[u64],
    ) -> Self {
        let mut spec = CampaignSpec::new(name);
        for (attack_label, script) in attacks {
            for (prot_label, prot) in protections {
                for &seed in seeds {
                    let mut cfg = base.clone();
                    cfg.attacks = script.clone();
                    cfg.framework.protections = *prot;
                    cfg.seed = seed;
                    spec = spec.variant(format!("{attack_label}/{prot_label}/seed{seed}"), cfg);
                }
            }
        }
        spec
    }

    /// Number of variants.
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// `true` when no variants are scheduled.
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// The scheduled variants.
    pub fn variants(&self) -> &[Variant] {
        &self.variants
    }

    /// Runs every variant on one worker per available core (capped at the
    /// variant count).
    pub fn run(self) -> CampaignReport {
        let threads = std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1);
        self.run_with_threads(threads)
    }

    /// Runs every variant serially on the calling thread (the baseline
    /// the speedup bench compares against).
    pub fn run_serial(self) -> CampaignReport {
        self.run_with_threads(1)
    }

    /// Runs every variant on a pool of exactly `threads` workers.
    ///
    /// Variants are handed out through an atomic cursor, so the pool
    /// stays busy even when run times are skewed (a crashing scenario
    /// ends early; a 30 s stable flight does not). Outcomes keep variant
    /// order regardless of completion order.
    // Measuring wall time is this harness's job (clippy.toml bans it
    // elsewhere to keep sim code on the virtual clock).
    #[allow(clippy::disallowed_methods)]
    pub fn run_with_threads(self, threads: usize) -> CampaignReport {
        let CampaignSpec {
            name,
            variants,
            trace,
            metrics,
        } = self;
        let n = variants.len();
        let threads = threads.clamp(1, n.max(1));
        let started = Instant::now();

        let mut slots: Vec<Mutex<Option<CampaignOutcome>>> = Vec::with_capacity(n);
        slots.resize_with(n, || Mutex::new(None));
        let cursor = AtomicUsize::new(0);
        let metrics = metrics.as_ref();

        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(variant) = variants.get(i) else {
                        break;
                    };
                    if let Some(m) = metrics {
                        m.started.inc();
                    }
                    let outcome = if trace {
                        run_windowed(variant, TRACE_WINDOW, None, Some(i))
                    } else {
                        run_one(variant)
                    };
                    if let Some(m) = metrics {
                        match outcome.verdict() {
                            "crash" => m.crash.inc(),
                            "lost-ctl" => m.lost_ctl.inc(),
                            _ => m.stable.inc(),
                        }
                        if outcome.result.switch_time.is_some() {
                            m.switches.inc();
                        }
                    }
                    *slots[i].lock().expect("outcome slot") = Some(outcome);
                });
            }
        });

        let outcomes = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("outcome slot")
                    .expect("every variant ran")
            })
            .collect();

        CampaignReport {
            name,
            outcomes,
            wall_clock: started.elapsed(),
            threads,
        }
    }
}

/// Sim-time window between trace drains on a traced campaign run.
const TRACE_WINDOW: SimDuration = SimDuration::from_millis(250);

/// Runs exactly one variant to completion — the unit of work the
/// multi-process orchestrator (`cd-orch`) hands to a worker. Identical
/// to what [`CampaignSpec::run`] executes per variant (minus tracing),
/// so a worker-produced [`CampaignOutcome::jsonl_record`] is
/// byte-for-byte what the in-process campaign produces for the same
/// variant.
pub fn run_one(variant: &Variant) -> CampaignOutcome {
    run_windowed(variant, variant.config.duration, None, None)
}

/// [`run_one`] advanced in fixed sim-time windows, invoking `progress`
/// after every window with the current sim time. The result is
/// byte-identical to [`run_one`]'s — the equivalence is pinned by a test
/// below. Workers use the callback to emit liveness heartbeats (and,
/// under fault injection, to die or stall mid-run) without perturbing
/// the deterministic outcome.
pub fn run_one_windowed(
    variant: &Variant,
    window: SimDuration,
    progress: &mut dyn FnMut(SimTime),
) -> CampaignOutcome {
    run_windowed(variant, window, Some(progress), None)
}

/// The one variant runner: [`Scenario::start`] advanced on the leap
/// executor in `window`-long sim-time windows. After every window that
/// advanced, `progress` sees the current sim time. With a `trace`
/// ordinal the vehicle records into a pre-allocated ring drained after
/// every window — sim-time drain points, so the JSONL fragment is a
/// pure function of the variant.
#[allow(clippy::disallowed_methods)] // wall time is the measurement here
fn run_windowed(
    variant: &Variant,
    window: SimDuration,
    mut progress: Option<&mut dyn FnMut(SimTime)>,
    trace: Option<usize>,
) -> CampaignOutcome {
    let started = Instant::now();
    let config = variant.config.clone();
    let end = SimTime::ZERO + config.duration;
    let mut run = Scenario::new(config).start();
    let mut sink = trace.map(|ord| {
        run.vehicle_mut().obs_port().attach(8192, ord as u32);
        TraceSink::in_memory()
    });
    loop {
        let before = run.now();
        run.advance_to_leap(before + window);
        if let Some((sink, _)) = &mut sink {
            run.vehicle_mut()
                .obs_port()
                .drain(|ev| sink.write_event(ev));
        }
        if run.now() == before {
            break;
        }
        if let Some(progress) = &mut progress {
            progress(run.now());
        }
    }
    let trace = match sink {
        Some((mut sink, buf)) => {
            sink.flush();
            buf.take()
        }
        None => Vec::new(),
    };
    let result = run.finish();
    let from = result.attack_onset.unwrap_or(SimTime::from_secs(2));
    CampaignOutcome {
        label: variant.label.clone(),
        seed: result.config.seed,
        max_deviation: result.max_deviation(from, end),
        run_time: started.elapsed(),
        trace,
        result,
    }
}

/// One variant's outcome: the headline numbers plus the full result for
/// downstream artifact writing.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// The variant's label.
    pub label: String,
    /// The seed it ran with.
    pub seed: u64,
    /// Max deviation from the setpoint between the first attack onset
    /// (or 2 s, for healthy runs) and the end of the flight, metres.
    pub max_deviation: f64,
    /// Host wall-clock time this variant took.
    pub run_time: Duration,
    /// This variant's JSONL trace fragment (empty unless the spec ran
    /// with [`CampaignSpec::with_trace`]).
    pub trace: Vec<u8>,
    /// The full scenario result.
    pub result: ScenarioResult,
}

impl CampaignOutcome {
    /// Compact outcome classification: `crash`, `lost-ctl` or `stable`.
    pub fn verdict(&self) -> &'static str {
        if self.result.crashed() {
            "crash"
        } else if self.max_deviation > 2.0 {
            "lost-ctl"
        } else {
            "stable"
        }
    }

    /// One newline-terminated JSON record for this outcome, built from
    /// **deterministic fields only** — no wall-clock time, no host
    /// state. Every field is a pure function of the variant, so the
    /// record is byte-identical whether the variant ran in-process, in
    /// a worker process, on the first attempt or the fifth retry. This
    /// is the merged-result wire format of the `cd-orch` orchestrator
    /// and the reference stream it is byte-diffed against.
    pub fn jsonl_record(&self) -> String {
        let switch = self
            .result
            .switch_time
            .map(|t| format!("{:.3}", t.as_secs_f64()))
            .unwrap_or_else(|| "null".into());
        format!(
            "{{\"variant\":\"{}\",\"seed\":{},\"outcome\":\"{}\",\"crashed\":{},\"switch_s\":{},\"max_deviation_m\":{:.4},\"sim_steps\":{},\"quanta_leaped\":{},\"net_packets\":{}}}\n",
            self.label,
            self.seed,
            self.verdict(),
            self.result.crashed(),
            switch,
            self.max_deviation,
            self.result.sim_steps,
            self.result.quanta_leaped,
            self.result.net_packets_sent,
        )
    }
}

/// Aggregated results of one campaign run.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Per-variant outcomes, in spec order.
    pub outcomes: Vec<CampaignOutcome>,
    /// Wall-clock time for the whole batch.
    pub wall_clock: Duration,
    /// Worker threads used.
    pub threads: usize,
}

impl CampaignReport {
    /// Renders the standard outcome table.
    pub fn ascii_table(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.label.clone(),
                    o.verdict().to_string(),
                    o.result
                        .switch_time
                        .map(|t| format!("{:.1}s", t.as_secs_f64()))
                        .unwrap_or_else(|| "-".into()),
                    format!("{:.3}", o.max_deviation),
                    format!("{:.2}s", o.run_time.as_secs_f64()),
                ]
            })
            .collect();
        ascii_table(
            &["variant", "outcome", "switch", "max dev (m)", "run time"],
            &rows,
        )
    }

    /// Renders one CSV row per variant.
    pub fn to_csv(&self) -> String {
        let mut csv =
            String::from("variant,seed,outcome,crashed,switch_s,max_deviation_m,run_time_s\n");
        for o in &self.outcomes {
            csv.push_str(&format!(
                "{},{},{},{},{},{:.4},{:.3}\n",
                o.label,
                o.seed,
                o.verdict(),
                o.result.crashed(),
                o.result
                    .switch_time
                    .map(|t| format!("{:.3}", t.as_secs_f64()))
                    .unwrap_or_default(),
                o.max_deviation,
                o.run_time.as_secs_f64(),
            ));
        }
        csv
    }

    /// Sum of per-variant run times — what a serial execution would have
    /// cost (up to scheduling noise).
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.run_time).sum()
    }

    /// Looks an outcome up by label.
    pub fn outcome(&self, label: &str) -> Option<&CampaignOutcome> {
        self.outcomes.iter().find(|o| o.label == label)
    }

    /// The campaign's full JSONL trace: per-variant fragments
    /// concatenated in spec order — worker count and completion order
    /// cancel out, so the stream is byte-identical at any thread count.
    pub fn trace_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.outcomes.iter().map(|o| o.trace.len()).sum());
        for o in &self.outcomes {
            out.extend_from_slice(&o.trace);
        }
        out
    }

    /// The campaign's deterministic result stream: one
    /// [`CampaignOutcome::jsonl_record`] per variant, concatenated in
    /// spec order. This is the in-process reference the `cd-orch`
    /// orchestrator's merged output is byte-diffed against.
    pub fn jsonl_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        for o in &self.outcomes {
            out.extend_from_slice(o.jsonl_record().as_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::time::SimDuration;

    fn short() -> ScenarioConfig {
        ScenarioConfig::healthy().with_duration(SimDuration::from_secs(1))
    }

    #[test]
    fn outcomes_keep_spec_order_under_parallelism() {
        let mut spec = CampaignSpec::new("order");
        for i in 0..6 {
            spec = spec.variant(format!("v{i}"), short().with_seed(i));
        }
        let report = spec.run_with_threads(3);
        let labels: Vec<&str> = report.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["v0", "v1", "v2", "v3", "v4", "v5"]);
        assert_eq!(report.threads, 3);
    }

    #[test]
    fn product_builds_the_full_grid() {
        let base = short();
        let spec = CampaignSpec::product(
            "grid",
            &base,
            &[
                ("none", AttackScript::none()),
                ("also-none", AttackScript::none()),
            ],
            &[("stock", Protections::default())],
            &[1, 2, 3],
        );
        assert_eq!(spec.len(), 6);
        assert_eq!(spec.variants()[0].label, "none/stock/seed1");
        assert_eq!(spec.variants()[5].config.seed, 3);
    }

    #[test]
    fn thread_count_is_clamped_to_variant_count() {
        let report = CampaignSpec::new("tiny")
            .variant("only", short())
            .run_with_threads(64);
        assert_eq!(report.threads, 1);
        assert_eq!(report.outcomes.len(), 1);
    }

    #[test]
    fn windowed_run_matches_one_shot_run_byte_for_byte() {
        // `run_one_windowed` is the worker-process execution shape
        // (heartbeat hooks between sim windows); its record must be
        // byte-identical to the in-process campaign's.
        let variant = Variant {
            label: "windowed".into(),
            config: short().with_seed(11),
        };
        let one_shot = run_one(&variant);
        let mut windows = 0;
        let windowed = run_one_windowed(&variant, SimDuration::from_millis(250), &mut |_| {
            windows += 1;
        });
        assert!(windows >= 3, "progress fired per window (got {windows})");
        assert_eq!(one_shot.jsonl_record(), windowed.jsonl_record());
    }

    #[test]
    fn jsonl_bytes_concatenates_records_in_spec_order() {
        let report = CampaignSpec::new("jsonl")
            .variant("a", short())
            .variant("b", short().with_seed(5))
            .run_with_threads(2);
        let bytes = report.jsonl_bytes();
        let text = String::from_utf8(bytes.clone()).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"variant\":\"a\",\"seed\":2019,"));
        assert!(lines[1].starts_with("{\"variant\":\"b\",\"seed\":5,"));
        assert!(lines[0].contains("\"switch_s\":null"));
        // Per-variant records are what the stream concatenates.
        let rejoined: Vec<u8> = report
            .outcomes
            .iter()
            .flat_map(|o| o.jsonl_record().into_bytes())
            .collect();
        assert_eq!(bytes, rejoined);
    }

    #[test]
    fn csv_and_table_cover_every_variant() {
        let report = CampaignSpec::new("render")
            .variant("a", short())
            .variant("b", short().with_seed(5))
            .run_serial();
        let csv = report.to_csv();
        assert_eq!(csv.lines().count(), 3, "header + 2 rows");
        assert!(csv.contains("a,2019,stable"));
        assert!(report.ascii_table().contains("| b"));
    }
}
