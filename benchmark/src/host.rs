//! The host the benchmark runs on: its description, its memory
//! high-water mark, and a speed probe that corrects wall times for
//! contention from other tenants.
//!
//! On a shared machine the same simulation run can take 1.6x longer for
//! tens of seconds at a time while other tenants load the host, which no
//! median over a run of this length removes. The probe is a fixed,
//! branchy kernel on a 64 KiB table that slows down under the same
//! contention. It runs right before and right after every timed
//! operation, and the operation's wall time `w` is corrected to
//! `w · (REFERENCE_PROBE_S / p)^k`, where `p` is the probe's mean time
//! and `k` the workload's sensitivity to contention relative to the
//! probe. Corrected times read as wall times on a host that runs the
//! probe in the reference time. A change to the measured program moves
//! the operation and not the probe, so it shows in full.

use std::time::Instant;

/// Probe time the corrected wall times are scaled to: about one probe
/// pass on an idle core of a current x86-64 server.
pub const REFERENCE_PROBE_S: f64 = 0.02;

/// Table slots the probe reads (64 KiB: resident in L1/L2).
const TABLE: usize = 1 << 14;
/// Probe rounds; sized so one pass takes about [`REFERENCE_PROBE_S`].
const ROUNDS: u64 = 330_000;

/// The speed probe's lookup table.
pub struct Probe {
    table: Vec<u32>,
    sensitivity: f64,
}

/// One timed operation: its wall time and the probe time around it.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub wall_s: f64,
    pub probe_s: f64,
    /// The probe's `k`.
    pub sensitivity: f64,
}

impl Timing {
    /// Factor turning this operation's host times into corrected times.
    pub fn scale(&self) -> f64 {
        (REFERENCE_PROBE_S / self.probe_s).powf(self.sensitivity)
    }

    /// The wall time, corrected for host contention.
    pub fn corrected_s(&self) -> f64 {
        self.wall_s * self.scale()
    }
}

impl Probe {
    /// A probe correcting operations whose wall time grows as the probe
    /// time to the power `sensitivity` under contention.
    pub fn new(sensitivity: f64) -> Probe {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let table = (0..TABLE)
            .map(|_| {
                x = xorshift(x);
                x as u32
            })
            .collect();
        Probe { table, sensitivity }
    }

    /// Run `op`, timing it and probing the host before and after.
    pub fn measure<T>(&self, op: impl FnOnce() -> T) -> (T, Timing) {
        let before = self.pass();
        let t = Instant::now();
        let out = op();
        let wall_s = t.elapsed().as_secs_f64();
        let after = self.pass();
        (
            out,
            Timing {
                wall_s,
                probe_s: 0.5 * (before + after),
                sensitivity: self.sensitivity,
            },
        )
    }

    /// One pass: eight independent xorshift streams doing dependent
    /// table lookups and data-dependent branches, so the pass is bound
    /// by issue width and branch prediction like the simulator.
    fn pass(&self) -> f64 {
        let t = Instant::now();
        let mut st = std::hint::black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        let mut acc = 0u64;
        for k in 0..ROUNDS {
            for s in st.iter_mut() {
                *s = xorshift(*s);
                let v = u64::from(self.table[*s as usize % TABLE]);
                match v & 3 {
                    0 => acc = acc.wrapping_add(v ^ k),
                    1 => acc ^= v.rotate_left(5),
                    _ => acc = acc.wrapping_sub(v),
                }
            }
        }
        std::hint::black_box((acc, st));
        t.elapsed().as_secs_f64()
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^ (x << 17)
}

/// The host's available parallelism (1 if it cannot be read).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Memory high-water mark of this process, in MB (`VmHWM`; 0 where
/// `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}
