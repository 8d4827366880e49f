//! Trace replay on the cluster: exact vs measured energy (Fig. 11).
//!
//! The §V-G experiment takes a discrete-speed DES schedule from the
//! simulator and runs it on the cluster, comparing the simulator's energy
//! prediction against the meter's reading. Here both sides consume the
//! same recorded [`SimTrace`]:
//!
//! * [`exact_energy`] integrates the trace analytically under the
//!   cluster's speed/power table — the *simulation* curve of Fig. 11;
//! * [`measured_energy`] "runs" the trace and lets a [`PowerMeter`]
//!   sample total cluster power — the *real system* curve.

use qes_core::time::SimTime;
use qes_sim::trace::SimTrace;

use crate::meter::PowerMeter;
use crate::spec::ClusterSpec;

/// Exact energy (J) of executing `trace` on `cluster` over `[0, end)`:
/// per-core table power while a slice runs, idle power otherwise.
/// Slices are clipped at `end`.
pub fn exact_energy(trace: &SimTrace, cluster: &ClusterSpec, end: SimTime) -> f64 {
    let horizon = end.as_secs_f64();
    let mut busy_energy = 0.0;
    let mut busy_secs = 0.0;
    for s in trace.slices() {
        if s.start >= end {
            continue;
        }
        let secs = s.end.min(end).saturating_since(s.start).as_secs_f64();
        busy_energy += cluster.core_power(s.speed) * secs;
        busy_secs += secs;
    }
    let idle_secs = (cluster.total_cores() as f64 * horizon - busy_secs).max(0.0);
    busy_energy + cluster.idle_power * idle_secs
}

/// Measured energy (J): the meter samples total cluster power while the
/// trace executes. At each sample instant every core's slice speed (0
/// when it has none) is priced through the cluster's table and summed in
/// core order. Slices are pre-indexed per core by start, so each sample
/// costs O(log n) per core; slices on a core past the cluster's are
/// ignored.
pub fn measured_energy(
    trace: &SimTrace,
    cluster: &ClusterSpec,
    end: SimTime,
    meter: &PowerMeter,
) -> f64 {
    let mut per_core: Vec<Vec<(SimTime, SimTime, f64)>> = vec![Vec::new(); cluster.total_cores()];
    for s in trace.slices() {
        if s.core < per_core.len() {
            per_core[s.core].push((s.start, s.end, s.speed));
        }
    }
    for v in &mut per_core {
        v.sort_by_key(|&(start, _, _)| start);
    }
    meter.measure(end, |t| {
        per_core
            .iter()
            .map(|slices| {
                let idx = slices.partition_point(|&(_, e, _)| e <= t);
                let speed = match slices.get(idx) {
                    Some(&(s, _, sp)) if s <= t => sp,
                    _ => 0.0,
                };
                cluster.core_power(speed)
            })
            .sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qes_core::job::JobId;
    use qes_sim::trace::TraceSlice;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn trace_one_slice(core: usize, a: u64, b: u64, speed: f64) -> SimTrace {
        let mut t = SimTrace::default();
        t.push(TraceSlice {
            core,
            job: JobId(0),
            start: ms(a),
            end: ms(b),
            speed,
        });
        t
    }

    fn tiny_cluster() -> ClusterSpec {
        ClusterSpec {
            nodes: 1,
            cores_per_node: 2,
            ..ClusterSpec::paper_validation()
        }
    }

    #[test]
    fn exact_energy_accounts_busy_and_idle() {
        let c = tiny_cluster();
        // Core 0 runs 1 s at 2.5 GHz (22.69 W); 2 cores × 2 s horizon.
        let t = trace_one_slice(0, 0, 1000, 2.5);
        let e = exact_energy(&t, &c, SimTime::from_secs(2));
        // Busy: 22.69. Idle: (2·2 − 1) s × 9.2562.
        let expect = 22.69 + 3.0 * 9.2562;
        assert!((e - expect).abs() < 1e-9, "{e} vs {expect}");
    }

    #[test]
    fn exact_energy_clips_at_horizon() {
        let c = tiny_cluster();
        let t = trace_one_slice(0, 0, 5000, 2.5);
        let e = exact_energy(&t, &c, SimTime::from_secs(1));
        let expect = 22.69 + 1.0 * 9.2562; // 1 s busy + 1 core-s idle
        assert!((e - expect).abs() < 1e-9);
    }

    #[test]
    fn noiseless_measurement_matches_exact() {
        let c = tiny_cluster();
        let mut t = SimTrace::default();
        t.push(TraceSlice {
            core: 0,
            job: JobId(0),
            start: ms(0),
            end: ms(1500),
            speed: 1.8,
        });
        t.push(TraceSlice {
            core: 1,
            job: JobId(1),
            start: ms(500),
            end: ms(2000),
            speed: 0.8,
        });
        let end = SimTime::from_secs(2);
        let meter = PowerMeter {
            sample_period: qes_core::SimDuration::from_millis(1),
            noise_std: 0.0,
            overhead: 0.0,
            seed: 0,
        };
        let exact = exact_energy(&t, &c, end);
        let measured = measured_energy(&t, &c, end, &meter);
        assert!(
            (measured - exact).abs() / exact < 0.01,
            "measured {measured} vs exact {exact}"
        );
    }

    #[test]
    fn overhead_makes_measured_exceed_exact() {
        let c = tiny_cluster();
        let t = trace_one_slice(0, 0, 1000, 1.3);
        let end = SimTime::from_secs(1);
        let meter = PowerMeter {
            noise_std: 0.0,
            overhead: 0.03,
            ..PowerMeter::default()
        };
        let exact = exact_energy(&t, &c, end);
        let measured = measured_energy(&t, &c, end, &meter);
        assert!(measured > exact);
        assert!((measured / exact - 1.03).abs() < 0.01);
    }

    #[test]
    fn empty_trace_is_pure_idle() {
        let c = tiny_cluster();
        let e = exact_energy(&SimTrace::default(), &c, SimTime::from_secs(1));
        assert!((e - 2.0 * 9.2562).abs() < 1e-9);
    }

    #[test]
    fn out_of_range_core_ignored_in_measurement() {
        let c = tiny_cluster();
        let t = trace_one_slice(99, 0, 1000, 2.5);
        let meter = PowerMeter {
            noise_std: 0.0,
            overhead: 0.0,
            ..PowerMeter::default()
        };
        // Slice on a nonexistent core contributes nothing beyond idle.
        let measured = measured_energy(&t, &c, SimTime::from_secs(1), &meter);
        assert!((measured - 2.0 * 9.2562).abs() < 1e-6);
    }
}
