//! **C-RR** — Cumulative Round-Robin job distribution (paper §IV-B).
//!
//! To balance load (maximizing quality *and* letting each core run
//! slower, minimizing energy) DES deals ready jobs to the cores evenly.
//! The policy is *cumulative*: each invocation continues dealing from the
//! core after the one where the previous invocation stopped. Compared to
//! restarting at core 0 every time, this keeps the per-core job counts
//! within one of each other over the whole run, not just within one
//! invocation.

/// Stateful cumulative round-robin dealer.
#[derive(Clone, Debug, Default)]
pub struct CrrDistributor {
    next: usize,
}

impl CrrDistributor {
    /// Start dealing at core 0.
    pub fn new() -> Self {
        CrrDistributor { next: 0 }
    }

    /// The core the next job will be dealt to.
    pub fn cursor(&self) -> usize {
        self.next
    }

    /// Deal `count` jobs to `m` cores; returns the core index for each job
    /// in order, advancing the persistent cursor.
    pub fn assign(&mut self, count: usize, m: usize) -> Vec<usize> {
        self.deal(m).take(count).collect()
    }

    /// Deal jobs to `m` cores one at a time: an endless stream of core
    /// indices that advances the persistent cursor once per index taken,
    /// so zipping it after a job iterator deals exactly those jobs.
    pub(crate) fn deal(&mut self, m: usize) -> impl Iterator<Item = usize> + '_ {
        assert!(m > 0, "cannot distribute to zero cores");
        self.next %= m; // re-sync if the core count changed between calls
        std::iter::repeat_with(move || {
            let core = self.next;
            self.next = (core + 1) % m;
            core
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deals_round_robin() {
        let mut d = CrrDistributor::new();
        assert_eq!(d.assign(5, 3), vec![0, 1, 2, 0, 1]);
    }

    #[test]
    fn cursor_is_cumulative_across_invocations() {
        let mut d = CrrDistributor::new();
        assert_eq!(d.assign(2, 4), vec![0, 1]);
        // Next invocation continues where the last one stopped.
        assert_eq!(d.assign(3, 4), vec![2, 3, 0]);
        assert_eq!(d.cursor(), 1);
    }

    #[test]
    fn non_cumulative_would_skew_but_crr_does_not() {
        // Many invocations of 1 job each on 4 cores: C-RR spreads them
        // evenly; a restart-at-zero dealer would put all on core 0.
        let mut d = CrrDistributor::new();
        let mut counts = [0usize; 4];
        for _ in 0..40 {
            for c in d.assign(1, 4) {
                counts[c] += 1;
            }
        }
        assert_eq!(counts, [10, 10, 10, 10]);
    }

    #[test]
    fn long_run_balance_is_within_one() {
        let mut d = CrrDistributor::new();
        let mut counts = vec![0usize; 7];
        // Irregular batch sizes.
        for batch in [3usize, 1, 5, 2, 8, 1, 1, 4, 6, 2] {
            for c in d.assign(batch, 7) {
                counts[c] += 1;
            }
        }
        let min = counts.iter().min().unwrap();
        let max = counts.iter().max().unwrap();
        assert!(max - min <= 1, "{counts:?}");
    }

    #[test]
    fn handles_core_count_change() {
        let mut d = CrrDistributor::new();
        d.assign(3, 4);
        // Shrink to 2 cores: cursor re-syncs instead of panicking.
        let a = d.assign(2, 2);
        assert_eq!(a.len(), 2);
        assert!(a.iter().all(|&c| c < 2));
    }

    #[test]
    fn zero_jobs_is_a_noop() {
        let mut d = CrrDistributor::new();
        assert!(d.assign(0, 3).is_empty());
        assert_eq!(d.cursor(), 0);
    }
}
