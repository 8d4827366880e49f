//! Differential-testing configurations for DES.
//!
//! The PR-3 rework introduced two independent fast paths:
//!
//! * **grouped triggers** (§IV-E) — the idle trigger is gated on waiting
//!   work, so the policy runs on quantum ticks, counter hits, and
//!   assignable idle events instead of on every plan end;
//! * **incremental recomputation** ([`crate::RecomputeMode`]) — per-core
//!   plans and water-filling grants are reused when their inputs are
//!   bitwise unchanged, with a per-core ready index whose dirty flag is
//!   the cache key.
//!
//! This module enumerates the {trigger} × {recompute} matrix so the same
//! workload can be pushed through every combination and the results
//! compared. The contracts, asserted end-to-end by `tests/differential.rs`
//! at the workspace root (the runner needs the `qes-sim` engine, which
//! this crate must not depend on):
//!
//! * `IncrementalQe` is **bit-identical** to `Full` in ⟨quality,
//!   energy⟩ (and every other report field) under *both* trigger modes;
//! * `Grouped` stays within the paper's 1 % quality tolerance of
//!   `PerEvent` while invoking the policy far less often.

use crate::des::{DesPolicy, RecomputeMode};
use crate::policy::TriggerRequest;

/// Which §IV-E triggering discipline drives the policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TriggerMode {
    /// Immediate Scheduling: invoke on every arrival and every plan end.
    PerEvent,
    /// Grouped Scheduling: the paper's 500 ms quantum, counter of 8, and
    /// the idle trigger gated on waiting work.
    Grouped,
}

impl TriggerMode {
    /// The corresponding [`TriggerRequest`].
    pub fn request(self) -> TriggerRequest {
        match self {
            TriggerMode::PerEvent => TriggerRequest::per_event(),
            TriggerMode::Grouped => TriggerRequest::paper_default(),
        }
    }

    /// Short label for report keys.
    pub fn label(self) -> &'static str {
        match self {
            TriggerMode::PerEvent => "per-event",
            TriggerMode::Grouped => "grouped",
        }
    }
}

/// One cell of the differential matrix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DifferentialConfig {
    /// Triggering discipline.
    pub trigger: TriggerMode,
    /// Recomputation strategy.
    pub recompute: RecomputeMode,
}

impl DifferentialConfig {
    /// All four {per-event, grouped} × {full, incremental-qe}
    /// combinations.
    pub const MATRIX: [DifferentialConfig; 4] = [
        DifferentialConfig {
            trigger: TriggerMode::PerEvent,
            recompute: RecomputeMode::Full,
        },
        DifferentialConfig {
            trigger: TriggerMode::PerEvent,
            recompute: RecomputeMode::IncrementalQe,
        },
        DifferentialConfig {
            trigger: TriggerMode::Grouped,
            recompute: RecomputeMode::Full,
        },
        DifferentialConfig {
            trigger: TriggerMode::Grouped,
            recompute: RecomputeMode::IncrementalQe,
        },
    ];

    /// A DES/C-DVFS policy configured for this cell.
    pub fn policy(&self) -> DesPolicy {
        DesPolicy::new()
            .with_triggers(self.trigger.request())
            .with_recompute(self.recompute)
    }

    /// Stable label, e.g. `grouped/incremental-qe`.
    pub fn label(&self) -> String {
        let r = match self.recompute {
            RecomputeMode::Full => "full",
            RecomputeMode::IncrementalQe => "incremental-qe",
        };
        format!("{}/{}", self.trigger.label(), r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedulingPolicy;

    #[test]
    fn matrix_covers_all_combinations_with_unique_labels() {
        let labels: Vec<String> = DifferentialConfig::MATRIX
            .iter()
            .map(|c| c.label())
            .collect();
        assert_eq!(labels.len(), 4);
        for (i, a) in labels.iter().enumerate() {
            for b in &labels[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(labels.contains(&"per-event/full".to_string()));
        assert!(labels.contains(&"grouped/full".to_string()));
        assert!(labels.contains(&"per-event/incremental-qe".to_string()));
        assert!(labels.contains(&"grouped/incremental-qe".to_string()));
    }

    #[test]
    fn policies_carry_the_requested_triggers() {
        for cell in DifferentialConfig::MATRIX {
            let p = cell.policy();
            assert_eq!(p.triggers(), cell.trigger.request());
            match cell.trigger {
                TriggerMode::PerEvent => {
                    assert!(p.triggers().on_arrival);
                    assert!(!p.triggers().idle_requires_work);
                }
                TriggerMode::Grouped => {
                    assert!(!p.triggers().on_arrival);
                    assert!(p.triggers().idle_requires_work);
                    assert!(p.triggers().quantum.is_some());
                }
            }
        }
    }
}
