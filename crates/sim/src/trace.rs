//! Execution traces: the exact slices a simulation ran.
//!
//! The §V-G validation replays a DES scheduling trace on a (simulated)
//! real cluster and compares energies, so the engine can record every
//! executed slice. Traces are also handy for debugging and for asserting
//! schedule invariants in integration tests.

use qes_core::job::JobId;
use qes_core::power::PowerModel;
use qes_core::time::SimTime;

/// One executed run of a job on a core at constant speed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceSlice {
    /// Core index.
    pub core: usize,
    /// Job executed.
    pub job: JobId,
    /// Start instant.
    pub start: SimTime,
    /// End instant (exclusive).
    pub end: SimTime,
    /// Speed in GHz.
    pub speed: f64,
}

impl TraceSlice {
    /// Work volume of the slice.
    pub fn volume(&self) -> f64 {
        qes_core::volume(self.speed, self.end.saturating_since(self.start))
    }
}

/// The executed slices of a whole simulation, in execution order per core.
#[derive(Clone, Debug, Default)]
pub struct SimTrace {
    slices: Vec<TraceSlice>,
}

impl SimTrace {
    /// Record a slice.
    pub fn push(&mut self, s: TraceSlice) {
        self.slices.push(s);
    }

    /// All recorded slices.
    pub fn slices(&self) -> &[TraceSlice] {
        &self.slices
    }

    /// Number of recorded slices.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Total dynamic energy of the trace under `model` — the exact
    /// integral the simulator reports (excluding ambient draw).
    pub fn dynamic_energy(&self, model: &dyn PowerModel) -> f64 {
        self.slices
            .iter()
            .map(|s| model.dynamic_energy(s.speed, s.end.saturating_since(s.start).as_secs_f64()))
            .sum()
    }

    /// Total work volume of the trace.
    pub fn total_volume(&self) -> f64 {
        self.slices.iter().map(|s| s.volume()).sum()
    }

    /// Busy microseconds per core (slices on cores `>= num_cores` are
    /// ignored). Whole-µs integer sums, so the result does not depend on
    /// slice order.
    pub fn busy_micros(&self, num_cores: usize) -> Vec<u64> {
        let mut busy = vec![0; num_cores];
        for s in &self.slices {
            if let Some(b) = busy.get_mut(s.core) {
                *b += s.end.saturating_since(s.start).as_micros();
            }
        }
        busy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::power::PolynomialPower;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn energy_and_volume_totals() {
        let mut t = SimTrace::default();
        t.push(TraceSlice {
            core: 0,
            job: JobId(0),
            start: ms(0),
            end: ms(1000),
            speed: 2.0,
        });
        t.push(TraceSlice {
            core: 1,
            job: JobId(1),
            start: ms(0),
            end: ms(500),
            speed: 1.0,
        });
        let m = PolynomialPower::PAPER_SIM;
        // 20 W × 1 s + 5 W × 0.5 s = 22.5 J.
        assert!((t.dynamic_energy(&m) - 22.5).abs() < 1e-9);
        // 2000 + 500 units.
        assert!((t.total_volume() - 2500.0).abs() < 1e-9);
        assert_eq!(t.busy_micros(2), vec![1_000_000, 500_000]);
        assert_eq!(t.busy_micros(1), vec![1_000_000]);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }
}
