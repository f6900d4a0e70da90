//! The closed-loop client population: bounded outstanding work, a
//! timeout-retry state machine with exponential backoff and jitter, and
//! abandonment after a bounded number of attempts.
//!
//! A *job* is one unit of client intent ("get me an inference"); an
//! *attempt* is one request issued for it. The state machine per job:
//!
//! ```text
//!             ┌────────────── retry (backoff + jitter) ──────────────┐
//!             ▼                                                      │
//! issue → OUTSTANDING ─ completed on time ─────────────→ SUCCEEDED   │
//!             │        ─ completed late (retry_on_late) ─────────────┤
//!             │        ─ rejected by every device ───────────────────┤
//!             │        ─ dropped by a battery death ─────────────────┤
//!             │                                          attempts = max?
//!             │                                               │ yes
//!             └─ trace ends first ──→ PENDING            ABANDONED
//! ```
//!
//! New jobs are born from the (overlay-scaled) arrival curve, but the
//! population is finite: when `population × max_outstanding` jobs are
//! already open, a would-be arrival is *suppressed* — the closed-loop
//! feedback that distinguishes this from an open-loop trace.

/// Retry/backoff/abandon behaviour of the simulated client population.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientPolicy {
    /// Number of clients in the population.
    pub population: usize,
    /// Outstanding jobs each client tolerates; the fleet-wide backlog is
    /// capped at `population × max_outstanding` open jobs.
    pub max_outstanding: usize,
    /// Attempts per job, counting the first (≥ 1); the job is abandoned
    /// when they are exhausted.
    pub max_attempts: u32,
    /// Backoff before the first retry, milliseconds.
    pub backoff_base_ms: f64,
    /// Multiplier applied to the backoff per further retry (≥ 1).
    pub backoff_factor: f64,
    /// Uniform jitter added to every backoff, `[0, jitter_ms)` ms.
    pub jitter_ms: f64,
    /// Whether a completion past its deadline counts as a miss and is
    /// retried (`true`, the default) or grudgingly accepted (`false`).
    pub retry_on_late: bool,
}

impl Default for ClientPolicy {
    fn default() -> Self {
        Self {
            population: 256,
            max_outstanding: 1,
            max_attempts: 4,
            backoff_base_ms: 200.0,
            backoff_factor: 2.0,
            jitter_ms: 100.0,
            retry_on_late: true,
        }
    }
}

impl ClientPolicy {
    /// Open-loop traffic as the simplest closed loop: an unbounded
    /// population that never suppresses an arrival, and one attempt per job,
    /// so every failed attempt is abandoned and no retry (or jitter draw)
    /// ever happens. [`crate::Fleet::run`] replays its trace under this
    /// policy.
    pub fn open_loop() -> Self {
        Self {
            population: usize::MAX,
            max_outstanding: 1,
            max_attempts: 1,
            jitter_ms: 0.0,
            ..Self::default()
        }
    }

    /// The fleet-wide cap on open jobs.
    pub fn max_backlog(&self) -> usize {
        self.population.saturating_mul(self.max_outstanding)
    }

    /// Backoff (without jitter) before retry number `retry` (1-based):
    /// `backoff_base_ms × backoff_factor^(retry − 1)`.
    pub fn backoff_ms(&self, retry: u32) -> f64 {
        self.backoff_base_ms * self.backoff_factor.powi(retry.saturating_sub(1) as i32)
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.population == 0 || self.max_outstanding == 0 {
            return Err("client population and max_outstanding must be positive".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        if !(self.backoff_base_ms.is_finite() && self.backoff_base_ms >= 0.0) {
            return Err("backoff_base_ms must be non-negative".into());
        }
        if !(self.backoff_factor.is_finite() && self.backoff_factor >= 1.0) {
            return Err("backoff_factor must be at least 1".into());
        }
        if !(self.jitter_ms.is_finite() && self.jitter_ms >= 0.0) {
            return Err("jitter_ms must be non-negative".into());
        }
        Ok(())
    }
}

/// What the client population experienced over one chaos run. Attempt
/// counters partition `attempts`; job counters partition `jobs` — the
/// conservation laws [`super::check_invariants`] enforces.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClientReport {
    /// Jobs issued (first attempts).
    pub jobs: u64,
    /// Would-be arrivals suppressed because the population was saturated
    /// (every client already at `max_outstanding`).
    pub suppressed: u64,
    /// Requests issued, counting first attempts and retries.
    pub attempts: u64,
    /// Retries issued (`attempts − jobs`).
    pub retries: u64,
    /// Jobs resolved by an on-time completion.
    pub succeeded: u64,
    /// Jobs resolved by a late completion the policy accepted
    /// (`retry_on_late == false` only).
    pub succeeded_late: u64,
    /// Jobs abandoned after `max_attempts` failed attempts.
    pub abandoned: u64,
    /// Jobs still open when the trace ended (attempt in flight, or a retry
    /// scheduled past the end).
    pub pending_at_end: u64,
    /// Attempts that completed on time.
    pub attempt_completed: u64,
    /// Attempts that completed past their deadline.
    pub attempt_late: u64,
    /// Attempts no device would admit (rejected everywhere / all dead).
    pub attempt_rejected: u64,
    /// Attempts dropped from a dead device's queue.
    pub attempt_dropped_dead: u64,
    /// Attempts still queued or in flight when the trace ended.
    pub attempt_outstanding: u64,
}

impl ClientReport {
    /// Requests issued per job — 1.0 means no retries; the retry-storm
    /// figure of merit (how much the feedback loop amplified load).
    pub fn retry_amplification(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.attempts as f64 / self.jobs as f64
        }
    }

    /// Fraction of jobs abandoned after exhausting their attempts.
    pub fn abandon_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.abandoned as f64 / self.jobs as f64
        }
    }

    /// Fraction of jobs resolved on time.
    pub fn success_rate(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.succeeded as f64 / self.jobs as f64
        }
    }

    /// One-line client-side summary.
    pub fn summary(&self) -> String {
        format!(
            "jobs {:>6} (suppressed {:>5}) attempts {:>6} amp {:>4.2} \
             ok {:>5.1}% abandoned {:>5.1}% pending {:>4}",
            self.jobs,
            self.suppressed,
            self.attempts,
            self.retry_amplification(),
            100.0 * self.success_rate(),
            100.0 * self.abandon_rate(),
            self.pending_at_end,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_geometrically() {
        let policy = ClientPolicy {
            backoff_base_ms: 100.0,
            backoff_factor: 2.0,
            ..ClientPolicy::default()
        };
        assert_eq!(policy.backoff_ms(1), 100.0);
        assert_eq!(policy.backoff_ms(2), 200.0);
        assert_eq!(policy.backoff_ms(4), 800.0);
    }

    #[test]
    fn policy_validation_catches_degenerate_settings() {
        assert!(ClientPolicy::default().validate().is_ok());
        for bad in [
            ClientPolicy {
                population: 0,
                ..ClientPolicy::default()
            },
            ClientPolicy {
                max_attempts: 0,
                ..ClientPolicy::default()
            },
            ClientPolicy {
                backoff_factor: 0.5,
                ..ClientPolicy::default()
            },
            ClientPolicy {
                jitter_ms: f64::NAN,
                ..ClientPolicy::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }

    #[test]
    fn report_rates_are_safe_on_empty_runs() {
        let empty = ClientReport::default();
        assert_eq!(empty.retry_amplification(), 1.0);
        assert_eq!(empty.abandon_rate(), 0.0);
        assert_eq!(empty.success_rate(), 0.0);
    }
}
