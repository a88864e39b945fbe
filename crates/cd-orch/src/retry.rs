//! The retry/backoff/quarantine state machine — pure bookkeeping.
//!
//! [`SweepBook`] tracks every run in the sweep through
//! `Pending → Running → (Done | Delayed → Pending | Failed)`. All
//! decisions are driven by **attempt counters**, never wall-clock
//! readings: the backoff delay for a failed run is a pure function of
//! its failure count, and the orchestrator's event loop merely *paces*
//! dispatch by that many milliseconds. Wall time therefore never
//! reaches the output bytes, which is what keeps the merged stream
//! byte-identical across crash schedules and retry histories.

/// Retry limits and backoff shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before a run is quarantined as `failed` (≥ 1).
    pub max_attempts: u32,
    /// First retry delay, milliseconds.
    pub base_delay_ms: u64,
    /// Backoff ceiling, milliseconds.
    pub cap_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_delay_ms: 50,
            cap_delay_ms: 2000,
        }
    }
}

impl RetryPolicy {
    /// Delay before the next attempt after `failures` consecutive
    /// failures: `min(base << (failures - 1), cap)`, capped shifts.
    pub fn backoff_ms(&self, failures: u32) -> u64 {
        if failures == 0 {
            return 0;
        }
        // u128 headroom: a ≤20-bit shift of a u64 cannot overflow, so
        // the min against the cap sees the true doubled value.
        let shift = (failures - 1).min(20);
        let scaled = u128::from(self.base_delay_ms) << shift;
        scaled.min(u128::from(self.cap_delay_ms)) as u64
    }
}

/// Where one run currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Waiting to be dispatched.
    Pending,
    /// Dispatched to a worker.
    Running,
    /// Failed; waiting out a backoff delay before re-dispatch.
    Delayed {
        /// Milliseconds of backoff still to pace off.
        remaining_ms: u64,
    },
    /// Completed successfully (result recorded).
    Done,
    /// Quarantined after exhausting attempts.
    Failed,
}

/// What the orchestrator must do about a failed attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Re-dispatch after `delay_ms`; this will be attempt `attempt`.
    Retry {
        /// The attempt number the retry will carry (1-based).
        attempt: u32,
        /// Backoff delay before re-dispatch, milliseconds.
        delay_ms: u64,
    },
    /// Attempts exhausted: quarantine, emit a synthesized `failed`
    /// record, move on.
    Quarantine,
}

/// Per-run attempt bookkeeping for a whole sweep.
#[derive(Debug)]
pub struct SweepBook {
    policy: RetryPolicy,
    phase: Vec<Phase>,
    failures: Vec<u32>,
}

impl SweepBook {
    /// A fresh book with `runs` pending runs.
    pub fn new(runs: usize, policy: RetryPolicy) -> SweepBook {
        SweepBook {
            policy,
            phase: vec![Phase::Pending; runs],
            failures: vec![0; runs],
        }
    }

    /// Marks a run completed before the sweep started (ledger replay
    /// on `--resume`).
    pub fn mark_done_prior(&mut self, run: usize, failed: bool) {
        self.phase[run] = if failed { Phase::Failed } else { Phase::Done };
    }

    /// Marks a run dispatched. Returns the attempt number it carries
    /// (1-based: failures so far + 1).
    pub fn start(&mut self, run: usize) -> u32 {
        debug_assert!(matches!(self.phase[run], Phase::Pending));
        self.phase[run] = Phase::Running;
        self.failures[run] + 1
    }

    /// Marks a running run completed.
    pub fn complete(&mut self, run: usize) {
        debug_assert!(matches!(self.phase[run], Phase::Running));
        self.phase[run] = Phase::Done;
    }

    /// Marks a running run failed; decides retry vs quarantine.
    pub fn fail(&mut self, run: usize) -> FailAction {
        debug_assert!(matches!(self.phase[run], Phase::Running));
        self.failures[run] += 1;
        let failures = self.failures[run];
        if failures >= self.policy.max_attempts {
            self.phase[run] = Phase::Failed;
            FailAction::Quarantine
        } else {
            let delay_ms = self.policy.backoff_ms(failures);
            self.phase[run] = Phase::Delayed {
                remaining_ms: delay_ms,
            };
            FailAction::Retry {
                attempt: failures + 1,
                delay_ms,
            }
        }
    }

    /// Paces `elapsed_ms` off every delayed run, promoting those whose
    /// backoff expired back to pending. Returns how many promoted.
    pub fn pace(&mut self, elapsed_ms: u64) -> usize {
        let mut promoted = 0;
        for phase in &mut self.phase {
            if let Phase::Delayed { remaining_ms } = phase {
                *remaining_ms = remaining_ms.saturating_sub(elapsed_ms);
                if *remaining_ms == 0 {
                    *phase = Phase::Pending;
                    promoted += 1;
                }
            }
        }
        promoted
    }

    /// The phase of one run.
    pub fn phase(&self, run: usize) -> Phase {
        self.phase[run]
    }

    /// Failures recorded against one run so far.
    pub fn failures(&self, run: usize) -> u32 {
        self.failures[run]
    }

    /// Runs not yet settled (neither done nor quarantined).
    pub fn remaining(&self) -> usize {
        self.phase
            .iter()
            .filter(|p| !matches!(p, Phase::Done | Phase::Failed))
            .count()
    }

    /// `true` once every run is done or quarantined.
    pub fn all_settled(&self) -> bool {
        self.remaining() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_the_cap() {
        let p = RetryPolicy::default();
        let cases: &[(u32, u64)] = &[
            (0, 0),
            (1, 50),
            (2, 100),
            (3, 200),
            (4, 400),
            (5, 800),
            (6, 1600),
            (7, 2000),
            (63, 2000),
        ];
        for &(failures, want) in cases {
            assert_eq!(p.backoff_ms(failures), want, "failures={failures}");
        }
        // Degenerate policy: huge shift must saturate, not overflow.
        let wide = RetryPolicy {
            max_attempts: 64,
            base_delay_ms: u64::MAX / 2,
            cap_delay_ms: u64::MAX,
        };
        assert_eq!(wide.backoff_ms(40), u64::MAX);
    }

    #[test]
    fn lifecycle_walks_pending_running_done() {
        let mut book = SweepBook::new(3, RetryPolicy::default());
        assert_eq!(book.remaining(), 3);
        assert_eq!(book.phase(0), Phase::Pending);
        assert_eq!(book.start(0), 1);
        assert_eq!(book.phase(0), Phase::Running);
        assert_eq!(book.phase(1), Phase::Pending);
        book.complete(0);
        assert_eq!(book.phase(0), Phase::Done);
        assert_eq!(book.remaining(), 2);
        assert!(!book.all_settled());
    }

    #[test]
    fn failures_back_off_then_quarantine() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_delay_ms: 10,
            cap_delay_ms: 1000,
        };
        let mut book = SweepBook::new(1, policy);
        // Attempt 1 fails → retry as attempt 2 after base delay.
        book.start(0);
        assert_eq!(
            book.fail(0),
            FailAction::Retry {
                attempt: 2,
                delay_ms: 10
            }
        );
        assert_eq!(book.phase(0), Phase::Delayed { remaining_ms: 10 });
        // Pacing 4ms leaves it delayed; 6 more promotes it.
        assert_eq!(book.pace(4), 0);
        assert_eq!(book.phase(0), Phase::Delayed { remaining_ms: 6 });
        assert_eq!(book.pace(6), 1);
        assert_eq!(book.phase(0), Phase::Pending);
        // Attempt 2 fails → doubled delay.
        assert_eq!(book.start(0), 2);
        assert_eq!(
            book.fail(0),
            FailAction::Retry {
                attempt: 3,
                delay_ms: 20
            }
        );
        book.pace(1000);
        // Attempt 3 (= max_attempts) fails → quarantine.
        assert_eq!(book.start(0), 3);
        assert_eq!(book.fail(0), FailAction::Quarantine);
        assert_eq!(book.phase(0), Phase::Failed);
        assert!(book.all_settled());
        assert_eq!(book.failures(0), 3);
    }

    #[test]
    fn resume_replay_skips_settled_runs() {
        let mut book = SweepBook::new(4, RetryPolicy::default());
        book.mark_done_prior(0, false);
        book.mark_done_prior(2, true);
        assert_eq!(book.remaining(), 2);
        assert_eq!(
            [book.phase(0), book.phase(1), book.phase(2)],
            [Phase::Done, Phase::Pending, Phase::Failed]
        );
        book.start(1);
        book.complete(1);
        assert_eq!(book.phase(3), Phase::Pending);
        book.start(3);
        book.complete(3);
        assert!(book.all_settled());
    }
}
