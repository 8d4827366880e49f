//! Second property-test suite: discrete rectification, trace round-trips,
//! Gantt robustness and the modulated arrival process — the components
//! the first suite doesn't reach.

use proptest::prelude::*;

use qes::core::{
    render_gantt, CoreSchedule, DiscreteSpeedSet, GanttOptions, Job, JobSet, PolynomialPower,
    PowerModel, Schedule, SimDuration, SimTime, Slice,
};
use qes::multicore::discrete::{rectify_speeds, snap_plan_up};
use qes::workload::{from_csv, to_csv, ArrivalProcess, DiurnalRate};

const MODEL: PolynomialPower = PolynomialPower::PAPER_SIM;

fn arb_ladder() -> impl Strategy<Value = DiscreteSpeedSet> {
    proptest::collection::btree_set(1u32..40, 1..8).prop_map(|speeds| {
        let speeds: Vec<f64> = speeds.into_iter().map(|s| s as f64 * 0.1).collect();
        DiscreteSpeedSet::from_model(&MODEL, &speeds).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- §V-F rectification ----

    #[test]
    fn rectified_power_never_exceeds_budget(
        grants in proptest::collection::vec(0.0f64..50.0, 1..20),
        slack in 0.0f64..100.0,
        ladder in arb_ladder(),
    ) {
        let granted: f64 = grants.iter().sum();
        let budget = granted + slack;
        let speeds = rectify_speeds(&grants, &ladder, &MODEL, budget);
        let total: f64 = speeds.iter().map(|&s| MODEL.dynamic_power(s)).sum();
        prop_assert!(total <= budget + 1e-6, "total {} > budget {}", total, budget);
        // Every chosen speed is on the ladder (or zero).
        for &s in &speeds {
            prop_assert!(
                s == 0.0 || ladder.speeds().iter().any(|&l| (l - s).abs() < 1e-9),
                "speed {} off ladder", s
            );
        }
    }

    #[test]
    fn snap_preserves_volume_for_in_range_slices(
        speeds in proptest::collection::vec(0.1f64..3.9, 1..10),
        ladder in arb_ladder(),
    ) {
        // Build sequential slices at the given speeds.
        let mut slices = Vec::new();
        let mut t = 0u64;
        for (i, &sp) in speeds.iter().enumerate() {
            slices.push(Slice {
                job: qes::core::JobId(i as u32),
                start: SimTime::from_millis(t),
                end: SimTime::from_millis(t + 50),
                speed: sp,
            });
            t += 60;
        }
        let plan = CoreSchedule::new(slices);
        let before = plan.volumes();
        let snapped = snap_plan_up(plan.clone(), &ladder);
        let after = snapped.volumes();
        let max = ladder.max_speed();
        for (id, v) in &before {
            let got = after.get(id).copied().unwrap_or(0.0);
            let orig_speed = plan.slices().iter().find(|s| s.job == *id).unwrap().speed;
            if orig_speed <= max + 1e-9 {
                // In range: volume preserved within µs rounding.
                prop_assert!((got - v).abs() < 0.15, "{:?}: {} vs {}", id, got, v);
            } else {
                // Above the ceiling: clamped, volume can only shrink.
                prop_assert!(got <= v + 1e-9);
            }
        }
    }

    // ---- workload trace round-trip ----

    #[test]
    fn trace_csv_roundtrip(specs in proptest::collection::vec(
        (0u64..5000, 1u64..2000, 0.5f64..999.0, proptest::bool::ANY), 0..40)
    ) {
        let jobs: Vec<Job> = specs
            .iter()
            .enumerate()
            .map(|(i, &(rel, _, w, partial))| {
                let release = SimTime::from_micros(rel * 100);
                Job::with_partial(
                    i as u32,
                    release,
                    release + SimDuration::from_millis(150),
                    w,
                    partial,
                )
                .unwrap()
            })
            .collect();
        let set = JobSet::new(jobs).unwrap();
        let back = from_csv(&to_csv(&set)).unwrap();
        prop_assert_eq!(set.len(), back.len());
        for (a, b) in set.iter().zip(back.iter()) {
            prop_assert_eq!(a, b);
        }
    }

    // ---- Gantt never panics, always well-formed ----

    #[test]
    fn gantt_renders_any_valid_schedule(
        slices in proptest::collection::vec((0usize..4, 0u32..20, 0u64..500, 1u64..100, 0.1f64..5.0), 0..30),
        width in 1usize..120,
    ) {
        let mut cores: Vec<Vec<Slice>> = vec![Vec::new(); 4];
        let mut t_next = [0u64; 4];
        for &(core, job, gap, len, speed) in &slices {
            let start = t_next[core] + gap;
            let end = start + len;
            t_next[core] = end;
            cores[core].push(Slice {
                job: qes::core::JobId(job),
                start: SimTime::from_millis(start),
                end: SimTime::from_millis(end),
                speed,
            });
        }
        let sched = Schedule::new(cores.into_iter().map(CoreSchedule::new).collect());
        let opt = GanttOptions { width, show_speeds: true };
        let g = render_gantt(&sched, SimTime::ZERO, SimTime::from_millis(700), &opt);
        // 4 cores × 2 rows + axis.
        prop_assert_eq!(g.lines().count(), 9);
        for line in g.lines().take(8) {
            let body = line.split('|').nth(1).unwrap_or("");
            prop_assert_eq!(body.chars().count(), width);
        }
    }

    // ---- modulated arrivals ----

    #[test]
    fn modulated_rate_never_exceeds_peak_statistically(
        base in 20.0f64..150.0,
        amp in 0.0f64..100.0,
    ) {
        use rand::SeedableRng;
        let p = DiurnalRate { base, amp, period_secs: 30.0 };
        let horizon = SimTime::from_secs(30);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut t = 0.0;
        let arr: Vec<SimTime> = std::iter::from_fn(|| p.next(&mut rng, &mut t, horizon)).collect();
        prop_assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        // Mean observed rate can't exceed the peak (law of the process).
        let rate = arr.len() as f64 / 30.0;
        prop_assert!(rate < (base + amp) * 1.25, "rate {} vs peak {}", rate, base + amp);
    }

    // ---- quantile degeneracy ----

    #[test]
    fn quantiles_of_degenerate_populations_are_bit_exact(
        value in -1e9f64..1e9,
        copies in 1usize..12,
        p in 0.0f64..1.0,
    ) {
        use qes::experiments::figures::tail::quantiles;
        // A population of n identical samples: every quantile must return
        // the sample itself, bit-for-bit (no self-interpolation).
        let q = quantiles(vec![value; copies], &[0.0, p, 1.0]).unwrap();
        for x in q {
            prop_assert_eq!(x.to_bits(), value.to_bits());
        }
    }

    #[test]
    fn multi_quantile_bit_equals_single_getters(
        qualities in proptest::collection::vec(-100.0f64..100.0, 1..20),
        ps in proptest::collection::vec(0.0f64..1.0, 1..8),
    ) {
        use qes::experiments::figures::tail::quantiles;
        // Duplicate every other sample to exercise equal-neighbour
        // interpolation positions.
        let values: Vec<f64> = qualities
            .iter()
            .enumerate()
            .flat_map(|(i, &q)| std::iter::repeat_n(q, 1 + i % 2))
            .collect();
        // One sort answering every quantile agrees with one call per
        // quantile.
        let many = quantiles(values.clone(), &ps).unwrap();
        for (i, &p) in ps.iter().enumerate() {
            let one = quantiles(values.clone(), &[p]).unwrap()[0];
            prop_assert_eq!(many[i].to_bits(), one.to_bits(), "p = {}", p);
        }
    }

}

#[test]
fn snap_respects_power_model_consistency() {
    // Deterministic sanity companion to the proptest: snapping at the
    // Opteron ladder at exactly ladder speeds changes nothing.
    let ladder = DiscreteSpeedSet::opteron_2380();
    let plan = CoreSchedule::new(vec![Slice {
        job: qes::core::JobId(0),
        start: SimTime::ZERO,
        end: SimTime::from_millis(100),
        speed: 1.3,
    }]);
    let snapped = snap_plan_up(plan.clone(), &ladder);
    assert_eq!(snapped.slices(), plan.slices());
    let _ = MODEL.dynamic_power(1.3);
}
