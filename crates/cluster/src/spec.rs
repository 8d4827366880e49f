//! Cluster topology and per-core speed/power table (paper §V-G).

use qes_core::power::DiscreteSpeedSet;

/// The hardware the §V-G validation runs on.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    /// Number of nodes.
    pub nodes: usize,
    /// Cores per node (the Opteron nodes have two quad-core sockets).
    pub cores_per_node: usize,
    /// Per-core discrete speed/power table (total power, static included).
    pub speed_table: DiscreteSpeedSet,
    /// Idle per-core power (W) — what a core draws when powered on but
    /// not executing. The Opteron's lowest P-state floor is dominated by
    /// its static component.
    pub idle_power: f64,
}

impl ClusterSpec {
    /// The paper's validation cluster: 8 nodes × 2 × quad-core Opteron
    /// 2380. The validation replays a 16-core simulation schedule, so
    /// [`ClusterSpec::paper_validation`] exposes exactly 16 powered cores
    /// (two nodes' worth); the rest of the machines stay off.
    pub fn paper_validation() -> Self {
        ClusterSpec {
            nodes: 2,
            cores_per_node: 8,
            speed_table: DiscreteSpeedSet::opteron_2380(),
            // Fitted static component b ≈ 9.2562 W (§V-G regression).
            idle_power: 9.2562,
        }
    }

    /// Total powered cores.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node
    }

    /// Total power (W) a core draws at `speed` (0 ⇒ idle draw).
    pub fn core_power(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            self.idle_power
        } else {
            self.speed_table.power_at(speed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_validation_topology() {
        let c = ClusterSpec::paper_validation();
        assert_eq!(c.total_cores(), 16);
    }

    #[test]
    fn core_power_lookup() {
        let c = ClusterSpec::paper_validation();
        assert!((c.core_power(2.5) - 22.69).abs() < 1e-9);
        assert!((c.core_power(0.8) - 11.06).abs() < 1e-9);
        assert!((c.core_power(0.0) - 9.2562).abs() < 1e-9);
    }
}
