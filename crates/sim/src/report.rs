//! Simulation results.

use qes_core::MetricsRegistry;

/// Integer bookkeeping of one simulation run, grouped so the engine can
/// maintain them unconditionally (they are plain adds, far too cheap to
/// gate behind an observer) and the observability layer can export them as
/// named metrics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Jobs that arrived within the simulated horizon.
    pub jobs_total: usize,
    /// Jobs fully processed (`p_j = w_j`).
    pub jobs_satisfied: usize,
    /// Jobs partially processed (`0 < p_j < w_j`).
    pub jobs_partial: usize,
    /// Jobs that never ran.
    pub jobs_zero: usize,
    /// Jobs abandoned by the policy (subset of partial/zero).
    pub jobs_discarded: usize,
    /// Policy invocations that changed state: at least one assignment,
    /// discard, installed plan, or ambient-speed change. Gated
    /// `PlanEnd`/quantum wakeups whose decision keeps everything are
    /// counted in [`invocations_kept`](Self::invocations_kept) instead
    /// (§IV-E: a grouped trigger that decides nothing is not a scheduling
    /// invocation).
    pub invocations: u64,
    /// Policy wakeups whose decision was a pure keep (no assignments, no
    /// discards, no plans, ambient speeds unchanged).
    pub invocations_kept: u64,
    /// Plans installed on cores (one per `Some` plan entry applied).
    pub plans_installed: u64,
    /// Explicit `None` plan entries (the policy kept a running plan).
    pub plans_kept: u64,
}

impl SimCounters {
    /// All policy wakeups, state-changing or not.
    pub fn wakeups(&self) -> u64 {
        self.invocations + self.invocations_kept
    }
}

/// Aggregate metrics of one simulation run.
#[derive(Clone, Debug, Default)]
pub struct SimReport {
    /// Policy name (e.g. `"DES/C-DVFS"`, `"FCFS+WF"`).
    pub policy: String,
    /// Total quality `Q = Σ f(p_j)` over every arrived job.
    pub total_quality: f64,
    /// Maximum possible quality `Σ f(w_j)` (every job fully executed).
    pub max_quality: f64,
    /// Total *dynamic* energy in joules, including ambient draw of
    /// non-gating architectures.
    pub energy_joules: f64,
    /// Integer run counters (jobs by outcome, invocations, plans).
    pub counters: SimCounters,
    /// Simulated horizon in seconds.
    pub sim_seconds: f64,
}

impl SimReport {
    /// Jobs that arrived within the simulated horizon.
    pub fn jobs_total(&self) -> usize {
        self.counters.jobs_total
    }

    /// Jobs fully processed (`p_j = w_j`).
    pub fn jobs_satisfied(&self) -> usize {
        self.counters.jobs_satisfied
    }

    /// Jobs partially processed (`0 < p_j < w_j`).
    pub fn jobs_partial(&self) -> usize {
        self.counters.jobs_partial
    }

    /// Jobs that never ran.
    pub fn jobs_zero(&self) -> usize {
        self.counters.jobs_zero
    }

    /// Jobs abandoned by the policy (subset of partial/zero).
    pub fn jobs_discarded(&self) -> usize {
        self.counters.jobs_discarded
    }

    /// State-changing policy invocations (see
    /// [`SimCounters::invocations`] for the exact semantics).
    pub fn invocations(&self) -> u64 {
        self.counters.invocations
    }

    /// Policy wakeups that kept everything unchanged.
    pub fn invocations_kept(&self) -> u64 {
        self.counters.invocations_kept
    }

    /// Quality normalized against the maximum possible (the paper's
    /// y-axis in every quality figure). 1.0 for an empty run.
    pub fn normalized_quality(&self) -> f64 {
        if self.max_quality > 0.0 {
            self.total_quality / self.max_quality
        } else {
            1.0
        }
    }

    /// Fraction of jobs fully satisfied.
    pub fn satisfaction_rate(&self) -> f64 {
        if self.counters.jobs_total > 0 {
            self.counters.jobs_satisfied as f64 / self.counters.jobs_total as f64
        } else {
            1.0
        }
    }

    /// Mean dynamic power over the horizon (W).
    pub fn mean_power(&self) -> f64 {
        if self.sim_seconds > 0.0 {
            self.energy_joules / self.sim_seconds
        } else {
            0.0
        }
    }

    /// The composite ⟨quality, energy⟩ score (§II-C).
    pub fn quality_energy(&self) -> qes_core::QualityEnergy {
        qes_core::QualityEnergy::new(self.total_quality, self.energy_joules)
    }

    /// Export the run as named metrics: every [`SimCounters`] field as a
    /// `sim.*` counter plus the float aggregates as gauges. Merged into an
    /// existing registry so engine-observer and policy counters can share
    /// one JSON export.
    pub fn export_metrics(&self, reg: &mut MetricsRegistry) {
        reg.inc("sim.jobs_total", self.counters.jobs_total as u64);
        reg.inc("sim.jobs_satisfied", self.counters.jobs_satisfied as u64);
        reg.inc("sim.jobs_partial", self.counters.jobs_partial as u64);
        reg.inc("sim.jobs_zero", self.counters.jobs_zero as u64);
        reg.inc("sim.jobs_discarded", self.counters.jobs_discarded as u64);
        reg.inc("sim.invocations", self.counters.invocations);
        reg.inc("sim.invocations_kept", self.counters.invocations_kept);
        reg.inc("sim.plans_installed", self.counters.plans_installed);
        reg.inc("sim.plans_kept", self.counters.plans_kept);
        reg.set_gauge("sim.total_quality", self.total_quality);
        reg.set_gauge("sim.max_quality", self.max_quality);
        reg.set_gauge("sim.energy_joules", self.energy_joules);
        reg.set_gauge("sim.seconds", self.sim_seconds);
    }
}

impl std::fmt::Display for SimReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: quality {:.4} ({:.2}%), energy {:.1} J, jobs {} (sat {}, part {}, zero {}, disc {}), {} invocations (+{} kept) over {:.0} s",
            self.policy,
            self.total_quality,
            100.0 * self.normalized_quality(),
            self.energy_joules,
            self.counters.jobs_total,
            self.counters.jobs_satisfied,
            self.counters.jobs_partial,
            self.counters.jobs_zero,
            self.counters.jobs_discarded,
            self.counters.invocations,
            self.counters.invocations_kept,
            self.sim_seconds,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_and_rates() {
        let r = SimReport {
            policy: "test".into(),
            total_quality: 90.0,
            max_quality: 100.0,
            energy_joules: 500.0,
            counters: SimCounters {
                jobs_total: 10,
                jobs_satisfied: 7,
                jobs_partial: 2,
                jobs_zero: 1,
                jobs_discarded: 0,
                invocations: 42,
                invocations_kept: 3,
                plans_installed: 40,
                plans_kept: 5,
            },
            sim_seconds: 10.0,
        };
        assert!((r.normalized_quality() - 0.9).abs() < 1e-12);
        assert!((r.satisfaction_rate() - 0.7).abs() < 1e-12);
        assert!((r.mean_power() - 50.0).abs() < 1e-12);
        assert_eq!(r.jobs_total(), 10);
        assert_eq!(r.invocations(), 42);
        assert_eq!(r.counters.wakeups(), 45);
        let s = r.to_string();
        assert!(s.contains("90.00%"));
        assert!(s.contains("+3 kept"));
    }

    #[test]
    fn empty_run_defaults() {
        let r = SimReport::default();
        assert_eq!(r.normalized_quality(), 1.0);
        assert_eq!(r.satisfaction_rate(), 1.0);
        assert_eq!(r.mean_power(), 0.0);
    }

    #[test]
    fn metrics_export_is_deterministic() {
        let mut r = SimReport::default();
        r.counters.jobs_total = 5;
        r.counters.invocations = 9;
        r.energy_joules = 12.5;
        let export = || {
            let mut reg = MetricsRegistry::new();
            r.export_metrics(&mut reg);
            reg
        };
        let reg = export();
        assert_eq!(reg.counter("sim.jobs_total"), 5);
        assert_eq!(reg.counter("sim.invocations"), 9);
        assert_eq!(reg.gauge("sim.energy_joules"), Some(12.5));
        assert_eq!(reg.to_json(), export().to_json());
    }
}
