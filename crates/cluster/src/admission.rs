//! Overload protection for the cluster front end: admission control,
//! retry budgets, and request hedging.
//!
//! The paper's services are *best-effort*: under sustained overload the
//! right move is to degrade gracefully, not to blow every deadline at
//! once. Without protection the front end accepts every arrival
//! unconditionally and re-releases stranded jobs after one fixed delay
//! forever; this module adds the three classic overload-protection
//! mechanisms as pure data consumed by the dispatch pre-pass
//! (`dispatch::dispatch_protected`):
//!
//! * [`AdmissionPolicy`] — turn hopeless work away at the door, before
//!   it costs routing state or shard capacity;
//! * [`RetryPolicy`] — bound how often and how eagerly a stranded job
//!   is re-released (max attempts, exponential backoff);
//! * [`HedgePolicy`] — tail tolerance: dispatch a second copy of a
//!   slow job to another shard, first copy to finish wins.
//!
//! # Determinism contract
//!
//! Every decision these policies make is a function of the arrival
//! stream and the fault plan fixed *before* the run — never of
//! wall-clock time, thread scheduling, or simulation results.
//! [`OverloadPolicy::default`] — accept all, unlimited flat-delay
//! retries, no hedging — is bitwise the unprotected path by
//! construction: the same branches run with the same arithmetic as a
//! front end that only routes and fails over
//! (`tests/cluster_differential.rs` pins this across the routing ×
//! fault matrix).

use qes_core::time::SimDuration;

/// Decides, per *original* arrival (never retries or hedge copies),
/// whether the cluster accepts the job at all. Rejected jobs are
/// counted as `jobs_rejected` — a class distinct from the fault path's
/// `jobs_dropped` — and score zero quality against their full mass in
/// `ClusterReport::degraded_quality`.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum AdmissionPolicy {
    /// Admit everything (the pre-overload behaviour; the default).
    #[default]
    AcceptAll,
    /// Deadline-aware admission: price the arrival on every eligible
    /// shard with the step-2 `probe_speed` (the same closed-form
    /// max-prefix-density the `LeastEnergy` router uses), cap the
    /// achievable completed fraction by the shard's effective capacity,
    /// and reject the job if even its *best* shard cannot achieve a
    /// quality ratio of at least `floor`.
    SlackFloor {
        /// Minimum achievable quality ratio (achievable quality over
        /// the job's max quality) in `[0, 1]`; jobs below it are
        /// rejected.
        floor: f64,
        /// One shard's aggregate compute capacity in GHz (e.g. cores ×
        /// the per-core top speed). Scaled down by the fault plan's
        /// per-shard capacity fraction during brownouts.
        capacity_ghz: f64,
    },
    /// Per-shard in-flight demand cap with hysteresis, fed by the same
    /// pending-demand feedback `RoutingPolicy::Feedback` reads: a shard
    /// starts shedding when its in-flight demand reaches `cap` and
    /// resumes accepting once it drains to `resume`. An arrival is
    /// rejected only when *every* eligible shard is shedding.
    Backpressure {
        /// In-flight demand (processing units) at which a shard starts
        /// shedding.
        cap: f64,
        /// Demand level at which a shedding shard resumes (must be
        /// ≤ `cap`; the gap is the hysteresis band).
        resume: f64,
    },
}

impl AdmissionPolicy {
    /// Stable lowercase label for report keys, figure rows, and the
    /// `admission_reject` event's `arg2`.
    pub fn label(&self) -> &'static str {
        match self {
            AdmissionPolicy::AcceptAll => "accept-all",
            AdmissionPolicy::SlackFloor { .. } => "slack-floor",
            AdmissionPolicy::Backpressure { .. } => "backpressure",
        }
    }
}

/// Retry budget and backoff schedule for stranded jobs.
///
/// Attempt `k` (1-based: the first re-release is attempt 1) is delayed
/// by
///
/// ```text
/// delay(k) = min(base · backoff^(k-1), max_delay)
/// ```
///
/// With `backoff == 1` (the default) the computation short-circuits to
/// `base` *exactly* — no float round trip — so the default policy is
/// the flat-delay failover of a front end without protection, bit for
/// bit. Once a job has used `max_attempts` re-releases (or its delayed
/// release lands past its deadline or the horizon), it gives up cleanly
/// into `jobs_dropped`.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum re-releases per job (`u32::MAX` = unlimited, the
    /// default).
    pub max_attempts: u32,
    /// First-attempt delay (models detection + re-submission latency).
    pub base_delay: SimDuration,
    /// Multiplicative backoff per attempt (`1.0` = flat).
    pub backoff: f64,
    /// Upper clamp on the delay.
    pub max_delay: SimDuration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: u32::MAX,
            base_delay: Self::DEFAULT_RETRY_DELAY,
            backoff: 1.0,
            max_delay: SimDuration::from_secs(3600),
        }
    }
}

impl RetryPolicy {
    /// Default delay before a stranded job is re-released to the
    /// dispatcher.
    pub const DEFAULT_RETRY_DELAY: SimDuration = SimDuration::from_millis(10);

    /// A bounded exponential-backoff schedule: at most `max_attempts`
    /// re-releases, doubling from `base` up to 16× base.
    pub fn exponential(max_attempts: u32, base: SimDuration) -> Self {
        RetryPolicy {
            max_attempts,
            base_delay: base,
            backoff: 2.0,
            max_delay: SimDuration::from_micros(base.as_micros().saturating_mul(16)),
        }
    }

    /// The delay before re-release number `attempt` (1-based).
    pub fn delay_for(&self, attempt: u32) -> SimDuration {
        let base = self.base_delay;
        if self.backoff == 1.0 {
            // Exactly `base`: no float round trip on the default path.
            return base;
        }
        let exp = self.backoff.powi(attempt.saturating_sub(1).min(63) as i32);
        let delay_us = (base.as_micros() as f64 * exp).min(self.max_delay.as_micros() as f64);
        SimDuration::from_micros((delay_us.round() as u64).max(1))
    }
}

/// When (if ever) the dispatcher hedges a slow job with a second copy.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum HedgePolicy {
    /// Never hedge (the default).
    #[default]
    Disabled,
    /// Dispatch a hedge copy once `fraction` of the job's
    /// release-to-deadline slack has elapsed, to the next-best healthy
    /// shard (lowest pending-demand ÷ capacity score, excluding the
    /// primary's shard). The dispatch pre-pass schedules every hedge
    /// before any shard runs, so it cannot see whether the primary has
    /// finished: the hedge fires at that fixed instant unless a crash
    /// stranded the primary first or no healthy twin shard exists.
    /// First-wins settlement happens in the report merge: the copy that
    /// finishes first wins, and the loser's work is charged to energy
    /// but not quality.
    SlackFraction {
        /// Elapsed-slack fraction in `(0, 1)` that triggers the hedge.
        fraction: f64,
    },
}

impl HedgePolicy {
    /// True when this policy never dispatches hedges.
    pub fn is_disabled(&self) -> bool {
        matches!(self, HedgePolicy::Disabled)
    }

    /// The instant (µs) a hedge copy of a job released at `release_us`
    /// with deadline `deadline_us` fires: `fraction` of the slack after
    /// the release, rounded down, in saturating arithmetic. `None` (no
    /// hedge) when hedging is disabled, when `fraction` is not a finite
    /// value strictly inside `(0, 1)` — NaN, ±∞, 0, 1, negative or huge
    /// values — or when the instant does not land strictly inside
    /// `(release, deadline)`.
    pub fn fire_at_us(&self, release_us: u64, deadline_us: u64) -> Option<u64> {
        let HedgePolicy::SlackFraction { fraction } = *self else {
            return None;
        };
        // Written so that NaN fails the test too.
        if !(fraction > 0.0 && fraction < 1.0) {
            return None;
        }
        let slack = deadline_us.saturating_sub(release_us);
        let at = release_us.saturating_add((slack as f64 * fraction) as u64);
        (at > release_us && at < deadline_us).then_some(at)
    }

    /// Stable lowercase label for report keys and figure rows.
    pub fn label(&self) -> &'static str {
        match self {
            HedgePolicy::Disabled => "no-hedge",
            HedgePolicy::SlackFraction { .. } => "slack-fraction",
        }
    }
}

/// The full overload-protection configuration of a cluster front end.
///
/// The default — [`AdmissionPolicy::AcceptAll`], default
/// [`RetryPolicy`], [`HedgePolicy::Disabled`] — is bitwise the
/// unprotected path by construction.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct OverloadPolicy {
    /// Who gets in.
    pub admission: AdmissionPolicy,
    /// How stranded jobs are re-released.
    pub retry: RetryPolicy,
    /// Whether slow jobs are hedged.
    pub hedge: HedgePolicy,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_labels() {
        let p = OverloadPolicy::default();
        assert_eq!(p.admission.label(), "accept-all");
        assert_eq!(p.hedge.label(), "no-hedge");
    }

    #[test]
    fn flat_retry_delay_is_the_base_delay_exactly() {
        let p = RetryPolicy::default();
        for attempt in [1u32, 2, 7, 1000] {
            assert_eq!(p.delay_for(attempt), RetryPolicy::DEFAULT_RETRY_DELAY);
        }
        // Odd microsecond counts survive untouched (no float round trip).
        let odd = SimDuration::from_micros(12_345);
        let p = RetryPolicy {
            base_delay: odd,
            ..RetryPolicy::default()
        };
        assert_eq!(p.delay_for(5), odd);
    }

    #[test]
    fn exponential_backoff_doubles_and_clamps() {
        let base = SimDuration::from_millis(10);
        let p = RetryPolicy::exponential(8, base);
        let d = |k| p.delay_for(k).as_micros();
        assert_eq!(d(1), 10_000);
        assert_eq!(d(2), 20_000);
        assert_eq!(d(3), 40_000);
        assert_eq!(d(5), 160_000);
        // 2^(k-1) ≥ 16 clamps at max_delay = 16 × base.
        assert_eq!(d(6), 160_000);
        assert_eq!(d(40), 160_000);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        // The budget itself is enforced by the dispatcher; here we only
        // pin the policy data contract.
        let p = RetryPolicy::exponential(2, SimDuration::from_millis(5));
        assert_eq!(p.max_attempts, 2);
    }

    #[test]
    fn hedge_fire_instant_is_defined_for_every_fraction() {
        let hedge = |fraction| HedgePolicy::SlackFraction { fraction };
        // Half of a 100 ms slack after a 1 s release.
        assert_eq!(hedge(0.5).fire_at_us(1_000_000, 1_100_000), Some(1_050_000));
        for bad in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1.0,
            -0.5,
            1e30,
        ] {
            assert_eq!(hedge(bad).fire_at_us(1_000_000, 1_100_000), None, "{bad}");
            // Near the top of the clock, where an unchecked sum overflows.
            assert_eq!(
                hedge(bad).fire_at_us(u64::MAX - 10, u64::MAX),
                None,
                "{bad}"
            );
        }
        // Valid fractions saturate instead of wrapping.
        assert_eq!(
            hedge(0.5).fire_at_us(u64::MAX - 10, u64::MAX),
            Some(u64::MAX - 5)
        );
        // Too little slack to move off the release, an empty or an
        // inverted window, and a disabled policy never hedge.
        assert_eq!(hedge(0.5).fire_at_us(10, 11), None);
        assert_eq!(hedge(0.5).fire_at_us(10, 10), None);
        assert_eq!(hedge(0.5).fire_at_us(10, 5), None);
        assert_eq!(HedgePolicy::Disabled.fire_at_us(0, 100), None);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            AdmissionPolicy::SlackFloor {
                floor: 0.5,
                capacity_ghz: 16.0
            }
            .label(),
            "slack-floor"
        );
        assert_eq!(
            AdmissionPolicy::Backpressure {
                cap: 100.0,
                resume: 50.0
            }
            .label(),
            "backpressure"
        );
        assert_eq!(
            HedgePolicy::SlackFraction { fraction: 0.5 }.label(),
            "slack-fraction"
        );
    }
}
