//! Discrete speed scaling support (paper §V-F).
//!
//! Real processors offer a handful of P-states rather than a continuum.
//! The paper adapts DES by rectifying the water-filling output: starting
//! from the core with the *lowest* assigned power, each core's continuous
//! speed is rounded up to the nearest discrete level — subject to the
//! total power budget — falling back to the next lower level when the
//! budget cannot fund the round-up.
//!
//! [`rectify_speeds`] implements that pass; [`snap_plan_up`] then adjusts
//! a core's variable-speed plan so every slice runs at a discrete level
//! (volume-preserving: speeds round up, slices shorten).

use qes_core::power::{DiscreteSpeedSet, PowerModel};
use qes_core::schedule::CoreSchedule;
use qes_core::time::SimTime;

/// Rectify per-core WF power grants to discrete speeds (§V-F).
///
/// `grants[i]` is core `i`'s continuous power grant (Σ grants ≤ `budget`).
/// Returns the per-core discrete speed cap. Cores are processed in
/// ascending-grant order; each rounds its continuous speed up if the
/// accumulated extra power still fits the budget, otherwise down.
pub fn rectify_speeds(
    grants: &[f64],
    set: &DiscreteSpeedSet,
    model: &dyn PowerModel,
    budget: f64,
) -> Vec<f64> {
    let m = grants.len();
    let mut order: Vec<usize> = (0..m).collect();
    order.sort_by(|&a, &b| grants[a].total_cmp(&grants[b]));
    let granted: f64 = grants.iter().sum();
    let mut slack = (budget - granted).max(0.0);
    let mut speeds = vec![0.0; m];
    for &i in &order {
        if grants[i] <= 1e-12 {
            continue;
        }
        let s_cont = model.speed_for_dynamic_power(grants[i]);
        // First choice: smallest discrete level ≥ the continuous speed
        // (capped at the fastest level when the continuum exceeds it).
        let up = set.round_up(s_cont).unwrap_or_else(|| set.max_speed());
        let extra = model.dynamic_power(up) - grants[i];
        if extra <= slack + 1e-12 {
            speeds[i] = up;
            slack -= extra.max(0.0);
            if extra < 0.0 {
                // Round-up below the grant (continuum above the fastest
                // level): the unused grant returns to the slack pool.
                slack += -extra;
            }
        } else if let Some(down) = set.round_down(s_cont) {
            speeds[i] = down;
            slack += grants[i] - model.dynamic_power(down);
        } else {
            // Even the slowest level exceeds the grant and the budget has
            // no room: the core cannot run this round.
            speeds[i] = 0.0;
            slack += grants[i];
        }
    }
    speeds
}

/// Snap every slice of `plan` up to a discrete level, preserving volume by
/// shortening the slice (speeds only rise, so nothing overlaps). The
/// slices are snapped in place, in `plan`'s own vector.
///
/// Slice speeds must not exceed the fastest discrete level by construction
/// (the per-core budget funds at most the rectified speed); slices above
/// it are clamped there and keep their duration, losing the excess volume.
pub fn snap_plan_up(plan: CoreSchedule, set: &DiscreteSpeedSet) -> CoreSchedule {
    let mut slices = plan.into_slices();
    slices.retain_mut(|s| {
        match set.round_up(s.speed) {
            Some(d) => {
                if (d - s.speed).abs() >= 1e-12 {
                    // Same volume at a higher speed: shorter slice.
                    let dur = s.end.saturating_since(s.start).as_micros() as f64;
                    let new_dur = dur * s.speed / d;
                    let end = SimTime::from_micros(s.start.as_micros() + new_dur.round() as u64);
                    if end <= s.start {
                        return false;
                    }
                    (s.end, s.speed) = (end, d);
                }
            }
            // Above the fastest level: clamp, losing volume.
            None => s.speed = set.max_speed(),
        }
        true
    });
    CoreSchedule::new(slices)
}

/// The discrete level ladder used by the Fig. 10 experiment: 0.25 GHz
/// steps up to 3 GHz under the paper's `P = 5·s²` model. (The paper does
/// not publish its ladder; this one brackets the 2 GHz equal-share speed
/// the same way the Opteron table brackets its operating point.)
pub fn default_ladder(model: &dyn PowerModel) -> DiscreteSpeedSet {
    let speeds: Vec<f64> = (1..=12).map(|i| i as f64 * 0.25).collect();
    DiscreteSpeedSet::from_model(model, &speeds).expect("static ladder is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::job::JobId;
    use qes_core::power::PolynomialPower;
    use qes_core::schedule::Slice;

    const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

    fn opteron() -> DiscreteSpeedSet {
        DiscreteSpeedSet::opteron_2380()
    }

    #[test]
    fn rectify_rounds_up_when_budget_allows() {
        // One core granted 5 W → 1 GHz continuous → 1.3 GHz discrete
        // (P = 8.45 W) affordable under a 20 W budget.
        let speeds = rectify_speeds(&[5.0], &opteron(), &MODEL, 20.0);
        assert!((speeds[0] - 1.3).abs() < 1e-12);
    }

    #[test]
    fn rectify_falls_back_down_when_budget_tight() {
        // Grant 5 W with zero slack: 1.3 GHz costs 8.45 W > 5 W → 0.8 GHz.
        let speeds = rectify_speeds(&[5.0], &opteron(), &MODEL, 5.0);
        assert!((speeds[0] - 0.8).abs() < 1e-12);
    }

    #[test]
    fn rectify_processes_lowest_grant_first() {
        // Slack 2 W. Core B (low grant) rounds up first and consumes the
        // slack; core A must round down.
        // B: 3 W → 0.775 GHz → up 0.8 GHz costs 3.2 W (extra 0.2).
        // A: 18 W → 1.897 GHz → up 2.5 GHz costs 31.25 (extra 13.25 > 1.8
        //    remaining slack) → down to 1.8 GHz (16.2 W).
        let speeds = rectify_speeds(&[18.0, 3.0], &opteron(), &MODEL, 23.0);
        assert!((speeds[1] - 0.8).abs() < 1e-12);
        assert!((speeds[0] - 1.8).abs() < 1e-12);
    }

    #[test]
    fn rectified_total_power_fits_budget() {
        let grants = [2.0, 7.0, 13.0, 19.0, 31.0];
        for budget in [72.0_f64, 80.0, 100.0, 200.0] {
            let speeds = rectify_speeds(&grants, &opteron(), &MODEL, budget);
            let total: f64 = speeds.iter().map(|&s| MODEL.dynamic_power(s)).sum();
            assert!(total <= budget + 1e-9, "budget {budget}: total {total}");
        }
    }

    #[test]
    fn zero_grant_core_stays_off() {
        let speeds = rectify_speeds(&[0.0, 10.0], &opteron(), &MODEL, 20.0);
        assert_eq!(speeds[0], 0.0);
        assert!(speeds[1] > 0.0);
    }

    #[test]
    fn continuum_above_fastest_level_caps() {
        // 100 W grant → 4.47 GHz continuous > 2.5 GHz max → capped, and
        // the surplus returns to slack.
        let speeds = rectify_speeds(&[100.0], &opteron(), &MODEL, 100.0);
        assert!((speeds[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn snap_preserves_volume_per_slice() {
        let ms = SimTime::from_millis;
        let plan = CoreSchedule::new(vec![Slice {
            job: JobId(0),
            start: ms(0),
            end: ms(100),
            speed: 1.0,
        }]);
        let snapped = snap_plan_up(plan, &opteron());
        let s = &snapped.slices()[0];
        assert!((s.speed - 1.3).abs() < 1e-12);
        // Volume 100 units preserved: 100/1.3 ms ≈ 76.923 ms.
        let vol = snapped.volumes()[&JobId(0)];
        assert!((vol - 100.0).abs() < 0.01, "vol {vol}");
        assert!(s.end < ms(100));
    }

    #[test]
    fn snap_clamps_overspeed_slices() {
        let ms = SimTime::from_millis;
        let plan = CoreSchedule::new(vec![Slice {
            job: JobId(0),
            start: ms(0),
            end: ms(100),
            speed: 4.0, // above the 2.5 GHz ceiling
        }]);
        let snapped = snap_plan_up(plan, &opteron());
        let s = &snapped.slices()[0];
        assert!((s.speed - 2.5).abs() < 1e-12);
        assert_eq!(s.end, ms(100)); // duration kept, volume lost
        let vol = snapped.volumes()[&JobId(0)];
        assert!((vol - 250.0).abs() < 0.01);
    }

    #[test]
    fn snap_keeps_exact_levels_untouched() {
        let ms = SimTime::from_millis;
        let plan = CoreSchedule::new(vec![Slice {
            job: JobId(0),
            start: ms(0),
            end: ms(50),
            speed: 1.8,
        }]);
        let snapped = snap_plan_up(plan.clone(), &opteron());
        assert_eq!(snapped.slices(), plan.slices());
    }

    #[test]
    fn default_ladder_brackets_operating_point() {
        let set = default_ladder(&MODEL);
        assert!((set.levels()[0].0 - 0.25).abs() < 1e-12);
        assert!((set.max_speed() - 3.0).abs() < 1e-12);
        assert_eq!(set.round_up(2.0), Some(2.0)); // equal-share speed on the ladder
    }
}
