//! Deterministic shard fault injection: crash and brownout windows.
//!
//! Real fleets serving millions of users lose and recover machines
//! constantly; the paper's premise — best-effort services degrade
//! *gracefully* — is only testable if the simulation can take capacity
//! away mid-run. A [`FaultPlan`] is a per-shard schedule of
//! [`FaultWindow`]s fixed *before* the run starts:
//!
//! * [`FaultKind::Crash`] — total outage: the shard accepts no work
//!   while the window is open, and jobs routed there earlier whose
//!   deadlines are still ahead are stranded and re-dispatched (see
//!   [`dispatch_protected`](crate::dispatch_protected));
//! * [`FaultKind::Brownout`] — partial outage: the shard keeps
//!   accepting work but runs with a fraction of its cores and power
//!   budget removed.
//!
//! Because the plan is data (not a random process sampled during the
//! run), fault runs inherit the cluster's determinism contract: the
//! same plan and workload produce bitwise-identical reports at any
//! lane count, and [`FaultPlan::seeded`] derives per-shard window
//! streams from split seeds so plans are reproducible per seed.

use qes_core::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dispatch::split_seed;

/// What a fault window does to its shard's capacity.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Total outage: no work accepted, nothing runs, stranded jobs are
    /// re-dispatched to surviving shards.
    Crash,
    /// Partial outage: the shard keeps running with `loss` of its
    /// cores/power budget removed.
    Brownout {
        /// Fraction of capacity lost, in `(0, 1)`.
        loss: f64,
    },
}

impl FaultKind {
    /// Fraction of the shard's capacity still available under this
    /// fault (0 for a crash).
    pub fn capacity_fraction(&self) -> f64 {
        match *self {
            FaultKind::Crash => 0.0,
            FaultKind::Brownout { loss } => 1.0 - loss,
        }
    }
}

/// One contiguous fault window `[start, end)` on a shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultWindow {
    /// Window opens (inclusive).
    pub start: SimTime,
    /// Window closes (exclusive): the shard is healthy again at `end`.
    pub end: SimTime,
    /// What the window does to the shard.
    pub kind: FaultKind,
}

/// One homogeneous capacity segment of a shard's timeline: the horizon
/// `[0, end)` cut at every fault-window boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Epoch {
    /// Segment start (inclusive).
    pub start: SimTime,
    /// Segment end (exclusive; the last epoch ends at the horizon).
    pub end: SimTime,
    /// The fault active throughout the segment (`None` = healthy).
    pub fault: Option<FaultKind>,
}

/// Cores remaining after losing a `loss` fraction, never below one
/// (a browned-out machine still has a scheduler to run).
pub fn effective_cores(cores: usize, loss: f64) -> usize {
    (((cores as f64) * (1.0 - loss)).floor() as usize).max(1)
}

/// A per-shard schedule of fault windows plus the failover retry knob.
///
/// Windows per shard are kept sorted and non-overlapping (enforced by
/// [`FaultPlan::with_window`]). The plan is pure data: queries like
/// [`FaultPlan::is_crashed`] are lookups, never samples.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    windows: Vec<Vec<FaultWindow>>,
    retry_delay: SimDuration,
}

impl FaultPlan {
    /// Default delay before a stranded job is re-released to the
    /// dispatcher (models detection + re-submission latency).
    pub const DEFAULT_RETRY_DELAY: SimDuration = SimDuration::from_millis(10);

    /// The zero-fault plan: every shard healthy for the whole run. A
    /// cluster run under this plan is bitwise-identical to the
    /// fault-free path.
    pub fn none(shards: usize) -> Self {
        assert!(shards > 0, "a cluster needs at least one shard");
        FaultPlan {
            windows: vec![Vec::new(); shards],
            retry_delay: Self::DEFAULT_RETRY_DELAY,
        }
    }

    /// Builder: add one fault window to `shard`. Panics on an empty or
    /// out-of-range window, an overlap with an existing window on the
    /// same shard, or a brownout loss outside `(0, 1)`.
    pub fn with_window(mut self, shard: usize, window: FaultWindow) -> Self {
        assert!(shard < self.windows.len(), "shard {shard} out of range");
        assert!(window.start < window.end, "empty fault window");
        if let FaultKind::Brownout { loss } = window.kind {
            assert!(
                loss.is_finite() && loss > 0.0 && loss < 1.0,
                "brownout loss must be in (0, 1), got {loss}"
            );
        }
        let ws = &mut self.windows[shard];
        let pos = ws.partition_point(|w| w.start < window.start);
        if pos > 0 {
            assert!(ws[pos - 1].end <= window.start, "overlapping fault windows");
        }
        if pos < ws.len() {
            assert!(window.end <= ws[pos].start, "overlapping fault windows");
        }
        ws.insert(pos, window);
        self
    }

    /// Builder: how long after a crash strands a job before the
    /// dispatcher re-releases it.
    pub fn with_retry_delay(mut self, delay: SimDuration) -> Self {
        self.retry_delay = delay;
        self
    }

    /// Seeded random plan: per shard, alternate exponential healthy
    /// gaps (mean `mean_up_secs`) with exponential fault windows (mean
    /// `mean_down_secs`), each window a crash with probability
    /// `crash_fraction`, otherwise a brownout losing 25–75 % of
    /// capacity. Shard `i` draws from `split_seed(seed, i)`, so plans
    /// are reproducible per seed and re-seeding one shard leaves the
    /// others' windows untouched.
    ///
    /// # Panics
    ///
    /// Panics — in release builds too — on invalid parameters:
    /// `shards == 0`, non-positive (or NaN) mean up/down times, or a
    /// `crash_fraction` outside `[0, 1]`. Use
    /// [`FaultPlan::try_seeded`] to validate without panicking.
    pub fn seeded(
        shards: usize,
        horizon: SimTime,
        seed: u64,
        mean_up_secs: f64,
        mean_down_secs: f64,
        crash_fraction: f64,
    ) -> Self {
        Self::try_seeded(
            shards,
            horizon,
            seed,
            mean_up_secs,
            mean_down_secs,
            crash_fraction,
        )
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`FaultPlan::seeded`] with release-mode parameter validation
    /// returned as a `Result` instead of a panic — for callers fed by
    /// config files or CLI flags, where malformed input is an expected
    /// condition rather than a programming error.
    pub fn try_seeded(
        shards: usize,
        horizon: SimTime,
        seed: u64,
        mean_up_secs: f64,
        mean_down_secs: f64,
        crash_fraction: f64,
    ) -> Result<Self, String> {
        if shards == 0 {
            return Err("a cluster needs at least one shard".into());
        }
        // Compare via `partial_cmp` so NaN fails validation rather
        // than slipping through an inverted comparison.
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if !positive(mean_up_secs) || !positive(mean_down_secs) {
            return Err(format!(
                "mean up/down times must be positive (got up={mean_up_secs}, \
                 down={mean_down_secs})"
            ));
        }
        if !(0.0..=1.0).contains(&crash_fraction) {
            return Err(format!(
                "crash_fraction must be in [0, 1] (got {crash_fraction})"
            ));
        }
        let mut plan = FaultPlan::none(shards);
        for shard in 0..shards {
            let mut rng = StdRng::seed_from_u64(split_seed(seed, shard as u64));
            let mut t = SimTime::ZERO;
            loop {
                let up = exp_draw(&mut rng, mean_up_secs);
                let down = exp_draw(&mut rng, mean_down_secs).max(0.001);
                let start = t + SimDuration::from_secs_f64(up);
                let end = start + SimDuration::from_secs_f64(down);
                if start >= horizon {
                    break;
                }
                let kind = if rng.gen::<f64>() < crash_fraction {
                    FaultKind::Crash
                } else {
                    FaultKind::Brownout {
                        loss: 0.25 + 0.5 * rng.gen::<f64>(),
                    }
                };
                if end > start {
                    plan = plan.with_window(shard, FaultWindow { start, end, kind });
                }
                t = end;
            }
        }
        Ok(plan)
    }

    /// Number of shards the plan covers.
    pub fn shards(&self) -> usize {
        self.windows.len()
    }

    /// The stranded-job retry delay.
    pub fn retry_delay(&self) -> SimDuration {
        self.retry_delay
    }

    /// True if any shard has any fault window.
    pub fn has_faults(&self) -> bool {
        self.windows.iter().any(|w| !w.is_empty())
    }

    /// This shard's fault windows, sorted by start, non-overlapping.
    pub fn windows(&self, shard: usize) -> &[FaultWindow] {
        &self.windows[shard]
    }

    /// The fault active on `shard` at instant `t`, if any.
    pub fn fault_at(&self, shard: usize, t: SimTime) -> Option<FaultKind> {
        let ws = &self.windows[shard];
        let pos = ws.partition_point(|w| w.start <= t);
        if pos > 0 && t < ws[pos - 1].end {
            Some(ws[pos - 1].kind)
        } else {
            None
        }
    }

    /// True when `shard` is inside a crash window at `t` (accepts no
    /// work).
    pub fn is_crashed(&self, shard: usize, t: SimTime) -> bool {
        matches!(self.fault_at(shard, t), Some(FaultKind::Crash))
    }

    /// Fraction of `shard`'s capacity available at `t` (1 when
    /// healthy, 0 when crashed).
    pub fn capacity_fraction(&self, shard: usize, t: SimTime) -> f64 {
        self.fault_at(shard, t)
            .map_or(1.0, |k| k.capacity_fraction())
    }

    /// Every crash-window opening, sorted by `(instant, shard)` — the
    /// event stream the dispatcher's stranding pass consumes.
    pub fn crash_starts(&self) -> Vec<(SimTime, usize)> {
        let mut out: Vec<(SimTime, usize)> = Vec::new();
        for (shard, ws) in self.windows.iter().enumerate() {
            for w in ws {
                if w.kind == FaultKind::Crash {
                    out.push((w.start, shard));
                }
            }
        }
        out.sort_by_key(|&(t, s)| (t, s));
        out
    }

    /// Cut `shard`'s timeline `[0, end)` at every window boundary into
    /// homogeneous [`Epoch`]s (healthy / browned-out / crashed), clipped
    /// to the horizon. A shard with no in-horizon windows yields the
    /// single healthy epoch `[0, end)` — the fault-free run.
    pub fn epochs(&self, shard: usize, end: SimTime) -> Vec<Epoch> {
        let mut out = Vec::new();
        let mut cursor = SimTime::ZERO;
        for w in &self.windows[shard] {
            if w.start >= end {
                break;
            }
            if cursor < w.start {
                out.push(Epoch {
                    start: cursor,
                    end: w.start,
                    fault: None,
                });
            }
            let wend = w.end.min(end);
            if cursor < wend {
                out.push(Epoch {
                    start: w.start.max(cursor),
                    end: wend,
                    fault: Some(w.kind),
                });
                cursor = wend;
            }
        }
        if cursor < end || out.is_empty() {
            out.push(Epoch {
                start: cursor,
                end,
                fault: None,
            });
        }
        out
    }
}

/// Exponential draw with the given mean (inverse-CDF of one uniform).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: u64) -> SimTime {
        SimTime::from_secs(x)
    }

    #[test]
    fn none_plan_is_fault_free() {
        let p = FaultPlan::none(4);
        assert!(!p.has_faults());
        assert_eq!(p.shards(), 4);
        for shard in 0..4 {
            assert!(!p.is_crashed(shard, s(1)));
            assert_eq!(p.capacity_fraction(shard, s(1)), 1.0);
            let e = p.epochs(shard, s(10));
            assert_eq!(e.len(), 1);
            assert_eq!(
                e[0],
                Epoch {
                    start: SimTime::ZERO,
                    end: s(10),
                    fault: None
                }
            );
        }
        assert!(p.crash_starts().is_empty());
    }

    #[test]
    fn window_queries_are_half_open() {
        let p = FaultPlan::none(2).with_window(
            1,
            FaultWindow {
                start: s(2),
                end: s(4),
                kind: FaultKind::Crash,
            },
        );
        assert!(!p.is_crashed(1, s(2) - SimDuration::from_micros(1)));
        assert!(p.is_crashed(1, s(2)));
        assert!(p.is_crashed(1, s(4) - SimDuration::from_micros(1)));
        assert!(!p.is_crashed(1, s(4)));
        assert!(!p.is_crashed(0, s(3)));
        assert_eq!(p.crash_starts(), vec![(s(2), 1)]);
    }

    #[test]
    fn brownout_capacity_fraction() {
        let p = FaultPlan::none(1).with_window(
            0,
            FaultWindow {
                start: s(1),
                end: s(3),
                kind: FaultKind::Brownout { loss: 0.5 },
            },
        );
        assert_eq!(p.capacity_fraction(0, s(0)), 1.0);
        assert!((p.capacity_fraction(0, s(2)) - 0.5).abs() < 1e-12);
        assert!(!p.is_crashed(0, s(2)), "brownout still accepts work");
    }

    #[test]
    fn epochs_cut_at_boundaries_and_clip_to_horizon() {
        let p = FaultPlan::none(1)
            .with_window(
                0,
                FaultWindow {
                    start: s(2),
                    end: s(3),
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                0,
                FaultWindow {
                    start: s(5),
                    end: s(20),
                    kind: FaultKind::Brownout { loss: 0.25 },
                },
            );
        let e = p.epochs(0, s(10));
        assert_eq!(e.len(), 4);
        assert_eq!(e[0].fault, None);
        assert_eq!(
            (e[1].start, e[1].end, e[1].fault),
            (s(2), s(3), Some(FaultKind::Crash))
        );
        assert_eq!(e[2].fault, None);
        assert_eq!(
            (e[3].start, e[3].end),
            (s(5), s(10)),
            "window past the horizon is clipped"
        );
        // Epochs tile the horizon contiguously.
        assert_eq!(e[0].start, SimTime::ZERO);
        for w in e.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(e.last().unwrap().end, s(10));
    }

    #[test]
    fn effective_cores_floor_and_minimum() {
        assert_eq!(effective_cores(8, 0.5), 4);
        assert_eq!(effective_cores(8, 0.3), 5);
        assert_eq!(effective_cores(1, 0.9), 1);
        assert_eq!(effective_cores(4, 0.99), 1);
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    fn overlapping_windows_rejected() {
        let _ = FaultPlan::none(1)
            .with_window(
                0,
                FaultWindow {
                    start: s(1),
                    end: s(3),
                    kind: FaultKind::Crash,
                },
            )
            .with_window(
                0,
                FaultWindow {
                    start: s(2),
                    end: s(4),
                    kind: FaultKind::Crash,
                },
            );
    }

    #[test]
    fn seeded_plans_are_reproducible_and_shard_independent() {
        let horizon = s(100);
        let a = FaultPlan::seeded(4, horizon, 7, 10.0, 2.0, 0.5);
        let b = FaultPlan::seeded(4, horizon, 7, 10.0, 2.0, 0.5);
        assert_eq!(a, b, "same seed, same plan");
        let c = FaultPlan::seeded(4, horizon, 8, 10.0, 2.0, 0.5);
        assert_ne!(a, c, "different seed reshuffles windows");
        assert!(a.has_faults(), "100 s at mtbf 10 s should fault");
        // Windows are sorted, non-overlapping, in-horizon starts.
        for shard in 0..4 {
            let ws = a.windows(shard);
            for w in ws {
                assert!(w.start < w.end);
                assert!(w.start < horizon);
                if let FaultKind::Brownout { loss } = w.kind {
                    assert!(loss > 0.0 && loss < 1.0);
                }
            }
            for pair in ws.windows(2) {
                assert!(pair[0].end <= pair[1].start);
            }
        }
        // Shards draw from split seeds: streams differ.
        assert_ne!(a.windows(0), a.windows(1));
    }

    #[test]
    fn try_seeded_validates_in_release_builds_too() {
        let horizon = s(100);
        // Valid parameters round-trip through the fallible constructor
        // and match the panicking one exactly.
        let ok = FaultPlan::try_seeded(2, horizon, 7, 10.0, 2.0, 0.5).unwrap();
        let direct = FaultPlan::seeded(2, horizon, 7, 10.0, 2.0, 0.5);
        assert_eq!(ok.windows(0), direct.windows(0));
        assert_eq!(ok.windows(1), direct.windows(1));

        // These run identically with and without debug assertions —
        // the checks are plain release-mode code, not debug_assert!s.
        assert!(FaultPlan::try_seeded(0, horizon, 7, 10.0, 2.0, 0.5).is_err());
        let e = FaultPlan::try_seeded(2, horizon, 7, 0.0, 2.0, 0.5).unwrap_err();
        assert!(e.contains("positive"), "{e}");
        let e = FaultPlan::try_seeded(2, horizon, 7, -1.0, 2.0, 0.5).unwrap_err();
        assert!(e.contains("positive"), "{e}");
        assert!(FaultPlan::try_seeded(2, horizon, 7, 10.0, -2.0, 0.5).is_err());
        // NaN means must fail, not slip through an inverted compare.
        assert!(FaultPlan::try_seeded(2, horizon, 7, f64::NAN, 2.0, 0.5).is_err());
        let e = FaultPlan::try_seeded(2, horizon, 7, 10.0, 2.0, 1.5).unwrap_err();
        assert!(e.contains("crash_fraction"), "{e}");
        assert!(FaultPlan::try_seeded(2, horizon, 7, 10.0, 2.0, -0.1).is_err());
        assert!(FaultPlan::try_seeded(2, horizon, 7, 10.0, 2.0, f64::NAN).is_err());
    }

    #[test]
    #[should_panic(expected = "crash_fraction")]
    fn seeded_panics_on_out_of_range_crash_fraction() {
        let _ = FaultPlan::seeded(2, s(10), 7, 10.0, 2.0, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn seeded_panics_on_non_positive_mean_up() {
        let _ = FaultPlan::seeded(2, s(10), 7, 0.0, 2.0, 0.5);
    }
}
