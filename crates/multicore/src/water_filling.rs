//! **WF** — Water-Filling power distribution (paper §IV-C, Fig. 2).
//!
//! Because the power function is convex, the sum of core speeds — and so
//! the total work per unit time — is maximized by equal power sharing.
//! But a lightly loaded core may need *less* than the equal share; giving
//! it only what it requests and re-sharing the surplus is both more
//! energy-efficient and quality-raising. WF is the fixed point of that
//! idea, computed exactly as the paper specifies:
//!
//! 1. among unsatisfied cores, find the minimum outstanding request
//!    `h_min`;
//! 2. if `h_min · m′ ≥ H_remaining`, split the remaining budget evenly
//!    and stop; otherwise grant `h_min` to every unsatisfied core,
//!    subtract, and repeat.

/// Distribute `budget` watts across cores requesting `requests` watts.
///
/// Returns the per-core grant. Invariants (tested):
/// * `grant[i] ≤ requests[i]` + an equal share of any surplus the core
///   can't use is **not** granted — a core never receives more than it
///   requested;
/// * `Σ grant ≤ budget`, with equality when `Σ requests ≥ budget`;
/// * when `Σ requests ≤ budget`, every core gets exactly its request;
/// * any two cores whose requests exceed the final water level receive
///   the same grant (the level).
pub fn water_filling(requests: &[f64], budget: f64) -> Vec<f64> {
    let (mut grant, mut rest) = (Vec::new(), Vec::new());
    water_filling_with_rounds(requests, budget, &mut grant, &mut rest);
    grant
}

/// [`water_filling`] into caller-owned buffers: `grant` receives the
/// per-core grants and `rest` is scratch for the outstanding requests,
/// so a caller that keeps both across calls allocates nothing. Returns
/// how many peeling rounds the loop ran (0 when the inputs are
/// degenerate). Observability hook: DES exports the accumulated round
/// count as `des.wf_rounds`.
///
/// `rest` holds `(core, outstanding request)` for the unsatisfied cores
/// only (`> 1e-12`), in index order. Each round makes one pass over it:
/// fill every entry, drop the ones the fill satisfies and fold the
/// survivors' minimum for the next round. That is the float sequence of
/// scanning all cores twice per round (count and minimum, then fill),
/// in the same order, without visiting satisfied cores again.
pub fn water_filling_with_rounds(
    requests: &[f64],
    budget: f64,
    grant: &mut Vec<f64>,
    rest: &mut Vec<(usize, f64)>,
) -> u64 {
    let m = requests.len();
    grant.clear();
    grant.resize(m, 0.0);
    if m == 0 || budget <= 0.0 {
        return 0;
    }
    let mut rounds = 0u64;
    rest.clear();
    rest.extend(
        requests
            .iter()
            .map(|&h| h.max(0.0))
            .enumerate()
            .filter(|&(_, h)| h > 1e-12),
    );
    let mut h_min = rest.iter().fold(f64::INFINITY, |a, &(_, h)| a.min(h));
    let mut remaining = budget;
    while !rest.is_empty() && remaining > 1e-12 {
        rounds += 1;
        let k = rest.len() as f64;
        // Not enough water to reach the next container rim: level off.
        if h_min * k >= remaining {
            let fill = remaining / k;
            for &(i, _) in rest.iter() {
                grant[i] += fill;
            }
            break;
        }
        // Otherwise fill every unsatisfied container by h_min; the
        // minimal ones are then satisfied.
        let fill = h_min;
        h_min = f64::INFINITY;
        rest.retain_mut(|(i, h)| {
            grant[*i] += fill;
            *h -= fill;
            let unsat = *h > 1e-12;
            if unsat {
                h_min = h_min.min(*h);
            }
            unsat
        });
        remaining -= fill * k;
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    /// The peeling loop as it stood before it filled caller-owned
    /// buffers: a fresh `unsat` index list per round. The oracle for
    /// `prop_in_place_matches_per_round_unsat`.
    fn per_round_unsat(requests: &[f64], budget: f64) -> (Vec<f64>, u64) {
        let m = requests.len();
        let mut grant = vec![0.0; m];
        if m == 0 || budget <= 0.0 {
            return (grant, 0);
        }
        let mut rounds = 0u64;
        let mut rest: Vec<f64> = requests.iter().map(|&h| h.max(0.0)).collect();
        let mut remaining = budget;
        loop {
            let unsat: Vec<usize> = (0..m).filter(|&i| rest[i] > 1e-12).collect();
            if unsat.is_empty() || remaining <= 1e-12 {
                break;
            }
            rounds += 1;
            let h_min = unsat.iter().map(|&i| rest[i]).fold(f64::INFINITY, f64::min);
            let k = unsat.len() as f64;
            if h_min * k >= remaining {
                let share = remaining / k;
                for &i in &unsat {
                    grant[i] += share;
                    rest[i] -= share;
                }
                break;
            }
            for &i in &unsat {
                grant[i] += h_min;
                rest[i] -= h_min;
            }
            remaining -= h_min * k;
        }
        (grant, rounds)
    }

    #[test]
    fn underload_grants_exact_requests() {
        let req = [5.0, 10.0, 3.0];
        let g = water_filling(&req, 100.0);
        for (a, b) in g.iter().zip(req.iter()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_figure2_example() {
        // 4-core system: core 4 requests less than the equal share and
        // gets what it demands; cores 1–3 equally share the rest.
        let req = [30.0, 40.0, 35.0, 10.0];
        let budget = 70.0;
        let g = water_filling(&req, budget);
        assert!((g[3] - 10.0).abs() < 1e-9);
        let level = (budget - 10.0) / 3.0; // 20 W each
        for &i in &[0usize, 1, 2] {
            assert!((g[i] - level).abs() < 1e-9, "core {i}: {}", g[i]);
        }
        assert!((total(&g) - budget).abs() < 1e-9);
    }

    #[test]
    fn overload_levels_equally() {
        let req = [50.0, 50.0, 50.0, 50.0];
        let g = water_filling(&req, 80.0);
        for &x in &g {
            assert!((x - 20.0).abs() < 1e-9);
        }
    }

    #[test]
    fn never_grants_more_than_request() {
        let req = [1.0, 2.0, 100.0, 0.5];
        let g = water_filling(&req, 50.0);
        for (a, b) in g.iter().zip(req.iter()) {
            assert!(*a <= *b + 1e-9, "{a} > {b}");
        }
        assert!((total(&g) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn conservation_never_exceeds_budget() {
        let cases: &[(&[f64], f64)] = &[
            (&[10.0, 20.0, 30.0], 15.0),
            (&[10.0, 20.0, 30.0], 60.0),
            (&[10.0, 20.0, 30.0], 1000.0),
            (&[0.0, 0.0, 5.0], 3.0),
        ];
        for &(req, h) in cases {
            let g = water_filling(req, h);
            assert!(total(&g) <= h + 1e-9, "req {req:?} H {h}");
            assert!(total(&g) <= req.iter().sum::<f64>() + 1e-9);
        }
    }

    #[test]
    fn multi_round_peeling() {
        // Ascending requests force several peel rounds before levelling.
        let req = [2.0, 4.0, 8.0, 100.0];
        let g = water_filling(&req, 30.0);
        // Rounds: grant 2 to all (rem 22); grant 2 more to last three
        // (rem 16, core1 done at 4); grant 4 more to last two (rem 8,
        // core2 done at 8); split 8 between... only core3 unsatisfied:
        // level check 92*1 >= 8 → core3 gets 8 more → 16.
        assert!((g[0] - 2.0).abs() < 1e-9);
        assert!((g[1] - 4.0).abs() < 1e-9);
        assert!((g[2] - 8.0).abs() < 1e-9);
        assert!((g[3] - 16.0).abs() < 1e-9);
        // The peel/level structure above is exactly four loop rounds.
        let (mut g2, mut rest) = (Vec::new(), Vec::new());
        let rounds = water_filling_with_rounds(&req, 30.0, &mut g2, &mut rest);
        assert_eq!(g2, g);
        assert_eq!(rounds, 4);
    }

    #[test]
    fn unsatisfied_cores_share_a_common_level() {
        let req = [3.0, 50.0, 70.0, 90.0, 1.0];
        let g = water_filling(&req, 100.0);
        // Cores 1,2,3 exceed the level; they must be equal.
        assert!((g[1] - g[2]).abs() < 1e-9);
        assert!((g[2] - g[3]).abs() < 1e-9);
        assert!((g[0] - 3.0).abs() < 1e-9);
        assert!((g[4] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(water_filling(&[], 10.0).is_empty());
        assert_eq!(water_filling(&[5.0, 5.0], 0.0), vec![0.0, 0.0]);
        assert_eq!(water_filling(&[5.0, 5.0], -3.0), vec![0.0, 0.0]);
        // Negative requests are clamped to zero.
        let g = water_filling(&[-5.0, 10.0], 20.0);
        assert_eq!(g[0], 0.0);
        assert!((g[1] - 10.0).abs() < 1e-9);
        // All-zero requests grant nothing.
        assert_eq!(water_filling(&[0.0, 0.0], 10.0), vec![0.0, 0.0]);
    }

    #[test]
    fn monotone_in_budget() {
        let req = [7.0, 13.0, 29.0, 41.0];
        let mut prev = vec![0.0; 4];
        for h in [0.0, 10.0, 20.0, 40.0, 80.0, 160.0] {
            let g = water_filling(&req, h);
            for i in 0..4 {
                assert!(g[i] + 1e-9 >= prev[i], "grant shrank with bigger budget");
            }
            prev = g;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn prop_conservation_and_request_cap(
            req in proptest::collection::vec(0.0f64..120.0, 0..10),
            budget in 0.0f64..500.0,
        ) {
            let g = water_filling(&req, budget);
            prop_assert_eq!(g.len(), req.len());
            let sum: f64 = g.iter().sum();
            // Σ grant ≤ budget, and ≤ Σ requests (never invent demand).
            prop_assert!(sum <= budget + 1e-9, "sum {} budget {}", sum, budget);
            let want: f64 = req.iter().sum();
            prop_assert!(sum <= want + 1e-9, "sum {} requests {}", sum, want);
            // Per-core: never more than requested, never negative.
            for (gi, ri) in g.iter().zip(&req) {
                prop_assert!(*gi >= 0.0);
                prop_assert!(*gi <= *ri + 1e-9, "grant {} request {}", gi, ri);
            }
            // When the budget covers the demand, everyone is satisfied;
            // when it doesn't, it is spent in full.
            if want <= budget {
                for (gi, ri) in g.iter().zip(&req) {
                    prop_assert!((gi - ri).abs() < 1e-9);
                }
            } else {
                prop_assert!((sum - budget).abs() < 1e-6, "sum {} budget {}", sum, budget);
            }
        }

        #[test]
        fn prop_monotone_in_budget(
            req in proptest::collection::vec(0.0f64..120.0, 1..10),
            lo in 0.0f64..250.0,
            delta in 0.0f64..250.0,
        ) {
            let small = water_filling(&req, lo);
            let big = water_filling(&req, lo + delta);
            for (s, b) in small.iter().zip(&big) {
                prop_assert!(b + 1e-9 >= *s, "grant shrank: {} -> {}", s, b);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn prop_in_place_matches_per_round_unsat(
            m_pick in 0usize..5,
            m_any in 3usize..16,
            // (request kind, draw) per core
            raw in proptest::collection::vec((0u8..6, 0.0f64..1.0), 16..17),
            all_equal in proptest::bool::ANY,
            budget_kind in 0u8..5,
            budget_draw in 0.0f64..1.0,
            // Stale lengths and values in the reused buffers.
            stale in 0usize..20,
        ) {
            let m = [0, 1, 2, 16, m_any][m_pick];
            let mut req: Vec<f64> = raw[..m]
                .iter()
                .map(|&(kind, u)| match kind {
                    0 => 0.0,
                    1 => -50.0 * u,
                    // Straddling the 1e-12 satisfaction threshold.
                    2 => 1e-12 * (0.5 + u),
                    _ => 120.0 * u,
                })
                .collect();
            if all_equal {
                if let Some(&first) = req.first() {
                    req.fill(first);
                }
            }
            let want: f64 = req.iter().map(|&h| h.max(0.0)).sum();
            let budget = match budget_kind {
                0 => -10.0 * budget_draw,
                1 => want * (1.0 + budget_draw),
                2 => want * budget_draw,
                // Leaves a remainder near the 1e-12 threshold.
                3 => want - 1e-12 * (2.0 * budget_draw),
                _ => 500.0 * budget_draw,
            };
            let (old, old_rounds) = per_round_unsat(&req, budget);
            let mut grant = vec![f64::NAN; stale];
            let mut rest = vec![(usize::MAX, -1.0); stale / 2];
            let rounds = water_filling_with_rounds(&req, budget, &mut grant, &mut rest);
            prop_assert_eq!(rounds, old_rounds);
            prop_assert_eq!(
                grant.iter().map(|g| g.to_bits()).collect::<Vec<_>>(),
                old.iter().map(|g| g.to_bits()).collect::<Vec<_>>()
            );
        }

    }
}
