//! **Quality-OPT** — the Tians maximum-quality algorithm (paper §III-A).
//!
//! Given a job set on a single core running at a *fixed* speed, Quality-OPT
//! maximizes total quality when the quality function is identical across
//! jobs, non-decreasing and strictly concave. Under overload some jobs are
//! *deprived* (partially executed); concavity makes the optimal policy give
//! every deprived job in the bottleneck interval the same processed volume
//! — the interval's **d-mean**:
//!
//! ```text
//! p̃(I) = (cap(I) − Σ_{J_j ∈ S(I)} w_j) / |D(I)|
//! ```
//!
//! where `cap(I)` is the work the core can do in `I`, `S(I)` the satisfied
//! jobs and `D(I)` the deprived jobs (classified by an iterative water-level
//! fixed point). The algorithm repeatedly extracts the **busiest deprived
//! interval** (minimum d-mean), fixes its allocations, removes the interval
//! and recurses; when every remaining interval can satisfy its jobs, the
//! rest are scheduled in full.
//!
//! The search state survives the recursion: the jobs are sorted by
//! deadline and by release once per decomposition, and removing an
//! interval compresses the other windows monotonically, so both orders
//! hold in every later round without sorting again. Candidates whose
//! `capacity / k` clears the best level by a proven margin are skipped
//! without computing their d-mean. Online-QE runs the same rounds for
//! volumes only (`BdiRounds::volumes`), once per §V-D discard as well:
//! each discard re-solves the surviving jobs from scratch. Debug builds
//! compare every round with a reference search that sorts afresh, and
//! every decomposition's volumes with the textbook recursion (DESIGN.md
//! §6, "Interval reuse and invalidation").

use std::collections::HashMap;

use qes_core::job::{JobId, JobSet};
use qes_core::schedule::{CoreSchedule, Slice};
use qes_core::time::SimTime;

use crate::timeline::{compress_point, edf_pack, materialize, VJob, VirtualMap};

/// Output of [`quality_opt`].
#[derive(Clone, Debug)]
pub struct QualityOptResult {
    /// Optimal processed volume `p_j` per job (jobs absent were given 0).
    pub volumes: HashMap<JobId, f64>,
    /// A fixed-speed schedule realizing those volumes.
    pub schedule: CoreSchedule,
    /// The fixed core speed used (GHz).
    pub speed: f64,
}

impl QualityOptResult {
    /// Processed volume for `id` (0 if never scheduled).
    pub fn volume(&self, id: JobId) -> f64 {
        self.volumes.get(&id).copied().unwrap_or(0.0)
    }
}

/// Run Quality-OPT on `jobs` with the core fixed at `speed_ghz`.
pub fn quality_opt(jobs: &JobSet, speed_ghz: f64) -> QualityOptResult {
    let mut volumes: HashMap<JobId, f64> = jobs.iter().map(|j| (j.id, 0.0)).collect();
    if speed_ghz <= 0.0 || jobs.is_empty() {
        return QualityOptResult {
            volumes,
            schedule: CoreSchedule::default(),
            speed: speed_ghz,
        };
    }
    let origin = jobs.first_release().unwrap().as_micros();
    let horizon = jobs.last_deadline().unwrap().as_micros() - origin;
    let mut rounds = BdiRounds::default();
    rounds.load(jobs.iter().filter(|j| j.demand > 0.0).map(|j| VJob {
        id: j.id,
        r: j.release.as_micros() - origin,
        d: j.deadline.as_micros() - origin,
        w: j.demand,
    }));
    let mut map = VirtualMap::identity(origin, horizon);
    let mut slices: Vec<Slice> = Vec::new();
    // units the core does per µs: 1 unit = 1 GHz·ms ⇒ cap(µs) = s·µs/1000.
    let units_per_us = speed_ghz / 1000.0;
    let mut group: Vec<VJob> = Vec::new();

    while !rounds.work().is_empty() {
        match rounds.busiest(units_per_us) {
            None => {
                // Everything remaining is satisfiable: schedule in full.
                let mut rest = rounds.work().to_vec();
                rest.sort_by_key(|x| (x.d, x.r, x.id));
                let assigned: Vec<(VJob, f64)> = rest.iter().map(|&j| (j, j.w)).collect();
                emit(&map, &assigned, speed_ghz, 0, &mut slices, &mut volumes);
                break;
            }
            Some((a, b, level)) => {
                group.clear();
                rounds.extract(a, b, |j| group.push(j));
                group.sort_by_key(|x| (x.d, x.r, x.id));
                // Satisfied jobs (w ≤ level) get w; deprived get the d-mean.
                let assigned: Vec<(VJob, f64)> = group
                    .iter()
                    .map(|&j| (j, fixed_volume(j.w, level)))
                    .collect();
                emit(&map, &assigned, speed_ghz, a, &mut slices, &mut volumes);
                map.cut(a, b);
            }
        }
    }

    QualityOptResult {
        volumes,
        schedule: CoreSchedule::new(slices),
        speed: speed_ghz,
    }
}

/// EDF-pack `assigned` volumes at `speed` from virtual `start`, materialize
/// through `map`, and record slices + volumes.
fn emit(
    map: &VirtualMap,
    assigned: &[(VJob, f64)],
    speed: f64,
    start: u64,
    slices: &mut Vec<Slice>,
    volumes: &mut HashMap<JobId, f64>,
) {
    for &(vj, vol) in assigned {
        *volumes.entry(vj.id).or_insert(0.0) += vol;
    }
    let vslices = edf_pack(assigned, speed, start);
    for (id, ra, rb) in materialize(map, &vslices) {
        slices.push(Slice {
            job: id,
            start: SimTime::from_micros(ra),
            end: SimTime::from_micros(rb),
            speed,
        });
    }
}

/// Classify jobs of one interval into satisfied/deprived via the iterative
/// water-level fixed point, and return the d-mean water level.
///
/// `demands` must be sorted ascending. Returns `None` when every job fits
/// (`p̃ = ∞`), otherwise `Some((level, satisfied_count))` with
/// `demands[..satisfied_count] ≤ level < demands[satisfied_count..]`.
pub(crate) fn d_mean(capacity: f64, demands: &[f64]) -> Option<(f64, usize)> {
    let k = demands.len();
    if k == 0 {
        return None;
    }
    let total: f64 = demands.iter().sum();
    if total <= capacity + 1e-9 {
        return None;
    }
    let mut m = 0; // number of satisfied jobs (smallest demands first)
    let mut prefix = 0.0;
    loop {
        // Water level if jobs [..m] are satisfied and the rest deprived.
        // Dividing by 1 is the identity and dividing by 2 rounds the same
        // exact half as multiplying by 0.5, so the last two steps skip
        // the division.
        let free = capacity - prefix;
        let level = match k - m {
            1 => free,
            2 => free * 0.5,
            left => free / left as f64,
        };
        if m < k && demands[m] <= level + 1e-9 {
            prefix += demands[m];
            m += 1;
            if m == k {
                // All classified satisfied, yet total > capacity: numeric
                // corner; treat as satisfiable.
                return None;
            }
        } else {
            return Some((level.max(0.0), m));
        }
    }
}

/// The busiest-deprived-interval search carried through the rounds of one
/// decomposition, sorted once.
///
/// [`Self::load`] sorts the jobs by deadline (`work`) and, unless they
/// are then also in release order, builds their release order (`by_r`).
/// Each round's [`Self::extract`] removes the chosen group and compresses
/// the rest through `[a, b)`; [`compress_point`] is monotone, so both
/// orders survive the compression and no round sorts again. Points that
/// compression merges become equal neighbours, which the search steps
/// over as one candidate endpoint. [`quality_opt`] drives the rounds
/// itself to build its schedule; [`Self::volumes`] runs them to the end
/// for Online-QE, which needs only the volumes.
#[derive(Clone, Debug, Default)]
pub(crate) struct BdiRounds {
    /// Unfixed jobs in deadline order, windows compressed through every
    /// extracted interval.
    work: Vec<VJob>,
    /// Positions in `work`, in release order; empty when `work` is in
    /// release order itself.
    by_r: Vec<u32>,
    /// Demands of the current candidate group, kept sorted ascending.
    sorted: Vec<f64>,
    /// Old position in `work` → new position (`u32::MAX` once fixed),
    /// while a round compacts `work` under a release order.
    remap: Vec<u32>,
}

impl BdiRounds {
    /// Start a decomposition over `jobs`, in any order.
    #[inline]
    pub(crate) fn load(&mut self, jobs: impl IntoIterator<Item = VJob>) {
        self.work.clear();
        self.work.extend(jobs);
        // Online-QE's jobs arrive in deadline order and often in release
        // order too, so check before sorting.
        if !self.work.is_sorted_by_key(|j| j.d) {
            self.work.sort_unstable_by_key(|j| j.d);
        }
        self.by_r.clear();
        let work = &self.work;
        if !work.is_sorted_by_key(|j| j.r) {
            self.by_r.extend(0..work.len() as u32);
            self.by_r.sort_unstable_by_key(|&p| work[p as usize].r);
        }
    }

    /// The jobs not yet fixed, in deadline order.
    pub(crate) fn work(&self) -> &[VJob] {
        &self.work
    }

    /// Find the busiest deprived interval of the current round: the
    /// candidate `[a, b)` minimizing the d-mean. Returns `None` when no
    /// interval has deprived jobs (all jobs satisfiable at this speed).
    ///
    /// Visits candidates with `a` ascending then `b` ascending and keeps
    /// the first minimum — the tie rule the decomposition's determinism
    /// rests on. For a fixed `a` the contained group only grows with `b`,
    /// so the group's demands are accumulated incrementally
    /// (sorted-insert); `d_mean` still sums the sorted demands itself.
    /// Two tests skip a candidate without calling `d_mean`, and each
    /// skips only candidates that could not change the result:
    ///
    /// * the running sum is clearly within capacity, so `d_mean` would
    ///   return `None`;
    /// * `capacity / k` clears the best level so far by
    ///   `1e-6 + 1e-14·k·capacity` (tested multiplied through by `k`, so
    ///   without a division; that product's rounding is far inside the
    ///   relative term). `d_mean`'s level starts at `capacity / k` and
    ///   each classification step can lower it only by its `1e-9`
    ///   tolerance over the remaining count plus rounding, in all at most
    ///   `1e-9·H_k + 2.2e-16·capacity·(2k + 2·H_k + 2)` (`H_k` the k-th
    ///   harmonic number); the margin covers that for every `k`. So the
    ///   candidate's level is above the best, and only a strictly lower
    ///   level replaces it.
    ///
    /// Debug builds compare every result bit for bit with the sorting
    /// reference search.
    pub(crate) fn busiest(&mut self, units_per_us: f64) -> Option<(u64, u64, f64)> {
        let BdiRounds {
            work, by_r, sorted, ..
        } = self;
        // Both release orders visit the same sequence of distinct `a`.
        let best = if by_r.is_empty() {
            search(work, sorted, work.iter().map(|j| j.r), units_per_us)
        } else {
            let releases = by_r.iter().map(|&p| work[p as usize].r);
            search(work, sorted, releases, units_per_us)
        };
        #[cfg(debug_assertions)]
        {
            let bits = |x: Option<(u64, u64, f64)>| x.map(|(a, b, l)| (a, b, l.to_bits()));
            let reference = busiest_deprived_interval(work, units_per_us);
            debug_assert_eq!(
                bits(best),
                bits(reference),
                "sort-once BDI search diverged from the reference"
            );
        }
        best
    }

    /// Remove the group contained in `[a, b)`, handing each member to
    /// `fixed`, and compress the other jobs' windows through it.
    pub(crate) fn extract(&mut self, a: u64, b: u64, mut fixed: impl FnMut(VJob)) {
        // A release order other than `work`'s own is mapped through the
        // compaction.
        let mapped = !self.by_r.is_empty();
        self.remap.clear();
        let mut keep = 0;
        for i in 0..self.work.len() {
            let j = self.work[i];
            if j.r >= a && j.d <= b {
                fixed(j);
                if mapped {
                    self.remap.push(u32::MAX);
                }
            } else {
                self.work[keep] = VJob {
                    r: compress_point(j.r, a, b),
                    d: compress_point(j.d, a, b),
                    ..j
                };
                if mapped {
                    self.remap.push(keep as u32);
                }
                keep += 1;
            }
        }
        self.work.truncate(keep);
        if mapped {
            let remap = &self.remap;
            self.by_r.retain_mut(|p| {
                *p = remap[*p as usize];
                *p != u32::MAX
            });
        }
    }

    /// Run the decomposition over the loaded jobs to its end and write
    /// each job's volume into `vols[id]`: the per-job volumes of
    /// [`quality_opt`], without a schedule, which is what Online-QE's
    /// myopic step consumes. `VJob::id` carries the job's index in the
    /// caller's array, and `vols` must cover every loaded id.
    ///
    /// A round with one or two jobs left is fixed in closed form
    /// (DESIGN.md §6). Debug builds compare the volumes bit for bit with
    /// [`reference_volumes`].
    pub(crate) fn volumes(&mut self, units_per_us: f64, vols: &mut [f64]) {
        #[cfg(debug_assertions)]
        let loaded = self.work.clone();
        while !self.work.is_empty() {
            match *self.work {
                [j] => {
                    vols[j.id.0 as usize] = one_job_volume(j, units_per_us);
                    break;
                }
                [x, y] => {
                    two_job_volumes(x, y, units_per_us, vols);
                    break;
                }
                _ => {}
            }
            match self.busiest(units_per_us) {
                None => {
                    // Everything remaining is satisfiable in full.
                    for j in &self.work {
                        vols[j.id.0 as usize] = j.w;
                    }
                    break;
                }
                Some((a, b, level)) => self.extract(a, b, |j| {
                    vols[j.id.0 as usize] = fixed_volume(j.w, level);
                }),
            }
        }
        #[cfg(debug_assertions)]
        check_volumes(&loaded, units_per_us, vols);
    }
}

/// The volume a round fixes a job of demand `w` at, in a group whose
/// level is `level`: its demand if that is within the level, else the
/// level.
#[inline]
fn fixed_volume(w: f64, level: f64) -> f64 {
    if w <= level + 1e-9 {
        w
    } else {
        level
    }
}

/// The volume of `j` when it is the only job left. Its own window is the
/// only candidate, and `d_mean` over one demand is `capacity / 1.0`, so
/// the search would return level `capacity.max(0.0)` exactly when
/// `d > r` and the demand exceeds `capacity + 1e-9`.
#[inline]
fn one_job_volume(j: VJob, units_per_us: f64) -> f64 {
    let capacity = j.d.saturating_sub(j.r) as f64 * units_per_us;
    if j.d <= j.r || j.w <= capacity + 1e-9 {
        j.w
    } else {
        fixed_volume(j.w, capacity.max(0.0))
    }
}

/// The volumes of the last two jobs, `x` due no later than `y` (the
/// deadline order of `BdiRounds::work`). The round's candidates are the
/// windows `[a, b)` with `a` a release and `b` a deadline after it whose
/// group (the jobs released at or after `a` and due after `a`, by `b`)
/// is not empty: at most three distinct groups. They are visited in the
/// search's order, `a` then `b` ascending, each group's demands go to
/// `d_mean` sorted the way the search's insert sorts them, and the first
/// strict minimum wins. A repeated release or deadline visits a
/// candidate again, which changes nothing: `d_mean` never returns a NaN
/// level, so the best of the candidates visited so far is at most each
/// of their levels and keeps its place. Then the round extracts as
/// [`BdiRounds::extract`] does and the survivor, if any, is fixed by
/// [`one_job_volume`] in its compressed window.
#[inline]
fn two_job_volumes(x: VJob, y: VJob, units_per_us: f64, vols: &mut [f64]) {
    debug_assert!(x.d <= y.d);
    let mut best: Option<(u64, u64, f64)> = None;
    for a in [x.r.min(y.r), x.r.max(y.r)] {
        let in_x = x.r >= a && x.d > a;
        let in_y = y.r >= a && y.d > a;
        for b in [x.d, y.d] {
            if b <= a {
                continue;
            }
            let capacity = (b - a) as f64 * units_per_us;
            let level = match (in_x, in_y && y.d <= b) {
                (true, true) if x.w < y.w => d_mean(capacity, &[x.w, y.w]),
                (true, true) => d_mean(capacity, &[y.w, x.w]),
                (true, false) => d_mean(capacity, &[x.w]),
                (false, true) => d_mean(capacity, &[y.w]),
                (false, false) => continue,
            };
            if let Some((level, _)) = level {
                if !best.is_some_and(|(_, _, l)| l <= level) {
                    best = Some((a, b, level));
                }
            }
        }
    }
    let Some((a, b, level)) = best else {
        vols[x.id.0 as usize] = x.w;
        vols[y.id.0 as usize] = y.w;
        return;
    };
    let mut survivor = None;
    for j in [x, y] {
        if j.r >= a && j.d <= b {
            vols[j.id.0 as usize] = fixed_volume(j.w, level);
        } else {
            survivor = Some(VJob {
                r: compress_point(j.r, a, b),
                d: compress_point(j.d, a, b),
                ..j
            });
        }
    }
    if let Some(j) = survivor {
        vols[j.id.0 as usize] = one_job_volume(j, units_per_us);
    }
}

/// [`BdiRounds::busiest`]'s candidate scan over the deadline-ordered
/// `work`, taking each group's start `a` from `releases` (ascending).
fn search(
    work: &[VJob],
    sorted: &mut Vec<f64>,
    releases: impl Iterator<Item = u64>,
    units_per_us: f64,
) -> Option<(u64, u64, f64)> {
    let mut best: Option<(u64, u64, f64)> = None;
    let mut last_a = None;
    // The first job due after `a`: no job due by `a` joins a group
    // starting at `a`, and a candidate `b ≤ a` has no group.
    let mut first = 0;
    for a in releases {
        if last_a == Some(a) {
            continue;
        }
        last_a = Some(a);
        while first < work.len() && work[first].d <= a {
            first += 1;
        }
        sorted.clear();
        // Running sum of the group's demands, for the first skip test.
        // Its summation order differs from the canonical (sorted) order
        // `d_mean` uses, so it is never compared against the 1e-9 slack
        // directly — only with a margin far wider than its float error.
        let mut running = 0.0f64;
        let mut di = first;
        while di < work.len() {
            // Append the jobs due exactly at `b`.
            let b = work[di].d;
            while di < work.len() && work[di].d == b {
                let j = &work[di];
                if j.r >= a {
                    insert_sorted(sorted, j.w);
                    running += j.w;
                }
                di += 1;
            }
            if sorted.is_empty() {
                continue;
            }
            let capacity = (b - a) as f64 * units_per_us;
            // `d_mean` returns `None` (candidate irrelevant) whenever
            // the canonical total ≤ capacity + 1e-9. `running` agrees
            // with the canonical total to within summation error ≪ the
            // 1e-6 margin, so this can only skip `None` candidates.
            if running <= capacity - 1e-6 * (1.0 + running) {
                continue;
            }
            if let Some((_, _, l)) = best {
                // `capacity / k − l` beyond the margin, multiplied
                // through by `k` (see above).
                let k = sorted.len() as f64;
                if capacity - k * l > k * (1e-6 + 1e-14 * k * capacity) {
                    continue;
                }
            }
            if let Some((level, _)) = d_mean(capacity, sorted) {
                match best {
                    Some((_, _, l)) if l <= level => {}
                    _ => best = Some((a, b, level)),
                }
            }
        }
    }
    best
}

/// Insert `w` into the ascending `sorted` ahead of any equal demand — the
/// place `partition_point(|&x| x < w)` finds — by moving the larger
/// demands up one at a time: groups are a few demands long, and this
/// spares the binary search and the `memmove` call of `Vec::insert`.
#[inline]
fn insert_sorted(sorted: &mut Vec<f64>, w: f64) {
    sorted.push(w);
    let mut i = sorted.len() - 1;
    while i > 0 {
        if sorted[i - 1] < w {
            break;
        }
        sorted[i] = sorted[i - 1];
        i -= 1;
    }
    sorted[i] = w;
}

/// The reference busiest-deprived-interval search that
/// [`BdiRounds::busiest`] must match bit for bit: it sorts the releases,
/// the deadlines and the jobs by deadline afresh on every call and sends
/// every candidate that passes the running-sum test to `d_mean`.
#[cfg(any(test, debug_assertions))]
fn busiest_deprived_interval(vjobs: &[VJob], units_per_us: f64) -> Option<(u64, u64, f64)> {
    let mut rels: Vec<u64> = vjobs.iter().map(|j| j.r).collect();
    rels.sort_unstable();
    rels.dedup();
    let mut dls: Vec<u64> = vjobs.iter().map(|j| j.d).collect();
    dls.sort_unstable();
    dls.dedup();
    let mut by_d: Vec<usize> = (0..vjobs.len()).collect();
    by_d.sort_unstable_by_key(|&i| vjobs[i].d);
    let mut sorted: Vec<f64> = Vec::new();
    let mut best: Option<(u64, u64, f64)> = None;
    for &a in &rels {
        sorted.clear();
        let mut running = 0.0f64;
        let mut di = 0usize;
        for &b in &dls {
            while di < by_d.len() {
                let j = &vjobs[by_d[di]];
                if j.d != b {
                    break;
                }
                if j.r >= a && j.d > a {
                    let pos = sorted.partition_point(|&x| x < j.w);
                    sorted.insert(pos, j.w);
                    running += j.w;
                }
                di += 1;
            }
            if b <= a || sorted.is_empty() {
                continue;
            }
            let capacity = (b - a) as f64 * units_per_us;
            if running <= capacity - 1e-6 * (1.0 + running) {
                continue;
            }
            if let Some((level, _)) = d_mean(capacity, &sorted) {
                match best {
                    Some((_, _, l)) if l <= level => {}
                    _ => best = Some((a, b, level)),
                }
            }
        }
    }
    best
}

/// The volumes of the decomposition over `vjobs` by its textbook
/// recursion: the sorting [`busiest_deprived_interval`] in every round,
/// every window compressed afresh, and no closed form. The oracle that
/// debug builds compare [`BdiRounds::volumes`]' fast paths with.
#[cfg(any(test, debug_assertions))]
fn reference_volumes(vjobs: &[VJob], units_per_us: f64, vols: &mut [f64]) {
    let mut work = vjobs.to_vec();
    while let Some((a, b, level)) = busiest_deprived_interval(&work, units_per_us) {
        work.retain_mut(|j| {
            if j.r >= a && j.d <= b {
                vols[j.id.0 as usize] = if j.w <= level + 1e-9 { j.w } else { level };
                false
            } else {
                j.r = compress_point(j.r, a, b);
                j.d = compress_point(j.d, a, b);
                true
            }
        });
    }
    for j in &work {
        vols[j.id.0 as usize] = j.w;
    }
}

/// Debug builds: panic unless `vols` holds [`reference_volumes`]' bits
/// for every job of `vjobs`.
#[cfg(debug_assertions)]
fn check_volumes(vjobs: &[VJob], units_per_us: f64, vols: &[f64]) {
    let mut reference = vols.to_vec();
    reference_volumes(vjobs, units_per_us, &mut reference);
    for j in vjobs {
        let i = j.id.0 as usize;
        debug_assert_eq!(
            vols[i].to_bits(),
            reference[i].to_bits(),
            "volume decomposition diverged from the reference at job {i}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qes_core::job::Job;
    use qes_core::power::PolynomialPower;
    use qes_core::quality::{ExpQuality, QualityFunction};
    use qes_core::schedule::Schedule;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    fn js(jobs: Vec<Job>) -> JobSet {
        JobSet::new(jobs).unwrap()
    }

    // ---- d-mean fixed point ----

    #[test]
    fn d_mean_all_satisfiable() {
        assert_eq!(d_mean(100.0, &[10.0, 20.0, 30.0]), None);
        assert_eq!(d_mean(60.0, &[10.0, 20.0, 30.0]), None); // exactly fits
        assert_eq!(d_mean(10.0, &[]), None);
    }

    #[test]
    fn d_mean_all_deprived() {
        // Capacity 30 across three jobs of 20 each: level 10 < 20.
        let (level, sat) = d_mean(30.0, &[20.0, 20.0, 20.0]).unwrap();
        assert!((level - 10.0).abs() < 1e-9);
        assert_eq!(sat, 0);
    }

    #[test]
    fn d_mean_mixed_classification() {
        // Jobs 5, 20, 20; capacity 35. Satisfy 5 → level (35−5)/2 = 15 < 20.
        let (level, sat) = d_mean(35.0, &[5.0, 20.0, 20.0]).unwrap();
        assert!((level - 15.0).abs() < 1e-9);
        assert_eq!(sat, 1);
    }

    #[test]
    fn d_mean_iterates_to_fixed_point() {
        // Jobs 2, 4, 100; capacity 12. Round 1: level 4 → satisfy 2 and 4.
        // Final: level (12−6)/1 = 6 < 100.
        let (level, sat) = d_mean(12.0, &[2.0, 4.0, 100.0]).unwrap();
        assert!((level - 6.0).abs() < 1e-9);
        assert_eq!(sat, 2);
    }

    #[test]
    fn d_mean_level_below_every_deprived_demand() {
        let demands = [3.0, 7.0, 11.0, 13.0, 40.0];
        for cap in [5.0, 15.0, 30.0, 50.0, 70.0] {
            if let Some((level, sat)) = d_mean(cap, &demands) {
                for (i, &w) in demands.iter().enumerate() {
                    if i < sat {
                        assert!(w <= level + 1e-6);
                    } else {
                        assert!(w > level - 1e-6);
                    }
                }
                // Conservation: satisfied + deprived volumes = capacity.
                let used: f64 =
                    demands[..sat].iter().sum::<f64>() + level * (demands.len() - sat) as f64;
                assert!((used - cap).abs() < 1e-6, "cap {cap}: used {used}");
            }
        }
    }

    #[test]
    fn prune_margin_covers_every_drop_below_capacity_over_k() {
        // `BdiRounds::busiest` skips a candidate whose `capacity / k`
        // clears the best level by `1e-6 + 1e-14·k·capacity`; that is only
        // sound if `d_mean` never returns a level further below
        // `capacity / k`. Drive the drop as far as the tolerance lets it:
        // each satisfied demand sits just under the running level plus
        // 1e-9, so every classification step lowers the level by the most
        // it can.
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut worst = 0.0f64;
        for case in 0..20_000 {
            let k = 1 + case % 64;
            let capacity = 1e-3 * 1e10f64.powf(next());
            let satisfied = (next() * k as f64) as usize;
            let mut demands = Vec::with_capacity(k);
            let mut prefix = 0.0;
            for m in 0..satisfied {
                let level = (capacity - prefix) / (k - m) as f64;
                let w = if case % 3 == 0 {
                    level * next()
                } else {
                    level + 1e-9 * next()
                };
                demands.push(w);
                prefix += w;
            }
            while demands.len() < k {
                demands.push(capacity * (1.0 + next()));
            }
            demands.sort_by(f64::total_cmp);
            if let Some((level, _)) = d_mean(capacity, &demands) {
                let kf = k as f64;
                let margin = 1e-6 + 1e-14 * kf * capacity;
                assert!(
                    capacity / kf - level <= margin,
                    "k {k}, capacity {capacity}: level {level} is {} below capacity / k",
                    capacity / kf - level
                );
                worst = worst.max((capacity / kf - level) / margin);
            }
        }
        // The drop reaches well into the margin's order, or this test
        // shows nothing.
        assert!(worst > 1e-4, "worst drop is {worst} of the margin");
    }

    // ---- quality_opt ----

    #[test]
    fn underload_satisfies_everything() {
        // 2 GHz, light jobs: all fully processed.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(150), 100.0).unwrap(),
            Job::new(1, ms(30), ms(180), 120.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 2.0);
        assert!((r.volume(JobId(0)) - 100.0).abs() < 1e-9);
        assert!((r.volume(JobId(1)) - 120.0).abs() < 1e-9);
        // Realized schedule matches the promised volumes.
        let vols = r.schedule.volumes();
        assert!((vols[&JobId(0)] - 100.0).abs() < 0.01);
        assert!((vols[&JobId(1)] - 120.0).abs() < 0.01);
    }

    #[test]
    fn overload_equalizes_deprived_volumes() {
        // 1 GHz core, two identical overlapping jobs that cannot both
        // finish: each should get the same volume (concavity).
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 100.0).unwrap(),
            Job::new(1, ms(0), ms(100), 100.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        // Capacity 100 units split evenly.
        assert!((r.volume(JobId(0)) - 50.0).abs() < 1e-6);
        assert!((r.volume(JobId(1)) - 50.0).abs() < 1e-6);
    }

    #[test]
    fn short_job_satisfied_long_job_deprived() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 10.0).unwrap(),
            Job::new(1, ms(0), ms(100), 500.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0); // capacity 100 units
        assert!((r.volume(JobId(0)) - 10.0).abs() < 1e-6);
        assert!((r.volume(JobId(1)) - 90.0).abs() < 1e-6);
    }

    #[test]
    fn equal_split_beats_unequal_for_concave_quality() {
        // The optimality intuition itself: for the paper's quality function,
        // the d-mean split earns more quality than finishing one job fully.
        let q = ExpQuality::PAPER_DEFAULT;
        let even = 2.0 * q.value(50.0);
        let uneven = q.value(100.0) + q.value(0.0);
        assert!(even > uneven);
    }

    #[test]
    fn schedule_is_feasible_and_consistent() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(120), 150.0).unwrap(),
            Job::new(1, ms(10), ms(160), 90.0).unwrap(),
            Job::new(2, ms(40), ms(190), 300.0).unwrap(),
            Job::new(3, ms(80), ms(230), 60.0).unwrap(),
        ]);
        let speed = 1.5;
        let r = quality_opt(&jobs, speed);
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
        // Every slice runs at the fixed speed.
        for s in r.schedule.slices() {
            assert!((s.speed - speed).abs() < 1e-12);
        }
        // Realized volumes match promised volumes.
        let realized = r.schedule.volumes();
        for (id, &v) in &r.volumes {
            let got = realized.get(id).copied().unwrap_or(0.0);
            assert!((got - v).abs() < 0.05, "{id:?}: promised {v}, got {got}");
        }
    }

    #[test]
    fn volumes_never_exceed_demand_or_capacity() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(60), 500.0).unwrap(),
            Job::new(1, ms(5), ms(65), 20.0).unwrap(),
            Job::new(2, ms(10), ms(70), 400.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        let mut total = 0.0;
        for j in jobs.iter() {
            let v = r.volume(j.id);
            assert!(v <= j.demand + 1e-9);
            assert!(v >= 0.0);
            total += v;
        }
        // Total work ≤ capacity of the whole span (70 ms at 1 GHz).
        assert!(total <= 70.0 + 1e-6);
    }

    #[test]
    fn zero_speed_yields_nothing() {
        let jobs = js(vec![Job::new(0, ms(0), ms(100), 50.0).unwrap()]);
        let r = quality_opt(&jobs, 0.0);
        assert_eq!(r.volume(JobId(0)), 0.0);
        assert!(r.schedule.is_empty());
    }

    #[test]
    fn higher_speed_never_lowers_quality() {
        let jobs = js(vec![
            Job::new(0, ms(0), ms(100), 200.0).unwrap(),
            Job::new(1, ms(20), ms(120), 150.0).unwrap(),
            Job::new(2, ms(50), ms(150), 250.0).unwrap(),
        ]);
        let q = ExpQuality::PAPER_DEFAULT;
        let mut prev = -1.0;
        for &s in &[0.5, 1.0, 1.5, 2.0, 3.0] {
            let r = quality_opt(&jobs, s);
            let total: f64 = jobs.iter().map(|j| q.job_quality(j, r.volume(j.id))).sum();
            assert!(total >= prev - 1e-9, "quality dropped at speed {s}");
            prev = total;
        }
    }

    #[test]
    fn staggered_overload_respects_windows() {
        // Later jobs can't borrow capacity from before their release.
        let jobs = js(vec![
            Job::new(0, ms(0), ms(50), 100.0).unwrap(),
            Job::new(1, ms(40), ms(90), 100.0).unwrap(),
        ]);
        let r = quality_opt(&jobs, 1.0);
        let m = PolynomialPower::PAPER_SIM;
        Schedule::single(r.schedule.clone())
            .validate_with_tolerance(&jobs, &m, f64::INFINITY, 0.05, 1e-6)
            .unwrap();
        // Both deprived; totals bounded by the 90 ms span capacity.
        let tot = r.volume(JobId(0)) + r.volume(JobId(1));
        assert!(tot <= 90.0 + 1e-6);
        assert!(tot > 80.0, "should use nearly all capacity, got {tot}");
    }

    /// The two-job round's closed form equals the textbook recursion bit
    /// for bit, in release builds too, over generated pairs on a coarse
    /// µs grid. The draws make ties and edges common, and the test
    /// requires each of them to occur: equal deadlines, equal releases, a
    /// survivor whose compressed window is empty, zero capacity, and
    /// demands within 1e-9 of a window's capacity.
    #[test]
    fn two_job_volumes_match_the_reference() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % n
        };
        let mut seen = [0u32; 5];
        for case in 0..200_000u32 {
            let units_per_us = match next(8) {
                0 => 0.0,
                k => 0.25 * k as f64,
            };
            let mut pair = [(); 2].map(|_| {
                let r = 10 * next(6);
                (r, r + 10 * next(7))
            });
            if next(4) == 0 {
                pair[1].1 = pair[0].1;
            }
            let cap = |(r, d): (u64, u64)| d.saturating_sub(r) as f64 * units_per_us;
            let union = (pair[0].0.min(pair[1].0), pair[0].1.max(pair[1].1));
            let jitter = |k: u64| (k as f64 - 2.0) * 0.5e-9;
            let mut w = [0.0f64; 2];
            for i in 0..2 {
                w[i] = match next(6) {
                    0 => 0.0,
                    1 => cap(pair[i]) + jitter(next(5)),
                    2 => (cap(union) - w[0]).max(0.0) + jitter(next(5)),
                    _ => 20.0 * next(1_000) as f64 / 1_000.0,
                };
            }
            let vjobs: Vec<VJob> = (0..2)
                .map(|i| VJob {
                    id: JobId(i as u32),
                    r: pair[i].0,
                    d: pair[i].1,
                    w: w[i],
                })
                .collect();
            let (x, y) = (vjobs[0], vjobs[1]);
            seen[0] += u32::from(x.d == y.d);
            seen[1] += u32::from(x.r == y.r);
            seen[3] += u32::from(units_per_us == 0.0);
            let near = |w: f64, c: f64| w != c && (w - c).abs() <= 1e-9;
            seen[4] += u32::from(
                (0..2).any(|i| near(w[i], cap(pair[i]))) || near(w[0] + w[1], cap(union)),
            );
            let mut rounds = BdiRounds::default();
            rounds.load(vjobs.iter().copied());
            if let Some((a, b, _)) = rounds.busiest(units_per_us) {
                rounds.extract(a, b, |_| {});
                seen[2] += u32::from(matches!(*rounds.work(), [j] if j.d <= j.r));
            }
            let (mut got, mut want) = ([f64::NAN; 2], [f64::NAN; 2]);
            rounds.load(vjobs.iter().copied());
            rounds.volumes(units_per_us, &mut got);
            reference_volumes(&vjobs, units_per_us, &mut want);
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "case {case}: {vjobs:?} at {units_per_us} units/µs"
            );
        }
        assert!(
            seen.iter().all(|&n| n >= 1_000),
            "edge cases seen: {seen:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sort-once search equals the reference search bit for bit
        /// in every round of a decomposition, and the decomposition's
        /// volumes equal the reference recursion's, on windows sharing
        /// many endpoints (a 1 ms grid) and zero demands. Unlike the
        /// checks inside `BdiRounds::busiest` and `BdiRounds::volumes`,
        /// this also runs in release builds.
        #[test]
        fn prop_sort_once_bdi_search_matches_the_reference(
            raw in proptest::collection::vec(
                // (release ms, window ms, demand draw)
                (0u64..40, 1u64..60, 0.0f64..1.0),
                1..24,
            ),
            speed_ghz in 0.2f64..8.0,
        ) {
            let vjobs = raw.iter().zip(0..).map(|(&(r, len, u), id)| VJob {
                id: JobId(id),
                r: 1_000 * r,
                d: 1_000 * (r + len),
                // One job in eight demands nothing.
                w: if u < 0.125 { 0.0 } else { 200.0 * u },
            });
            let units_per_us = speed_ghz / 1000.0;
            let bits = |x: Option<(u64, u64, f64)>| x.map(|(a, b, l)| (a, b, l.to_bits()));
            let mut rounds = BdiRounds::default();
            rounds.load(vjobs.clone());
            loop {
                let reference = busiest_deprived_interval(rounds.work(), units_per_us);
                let found = rounds.busiest(units_per_us);
                prop_assert_eq!(bits(found), bits(reference));
                let Some((a, b, _)) = found else { break };
                rounds.extract(a, b, |_| {});
            }
            // The whole decomposition, closed-form one-job rounds
            // included, against the textbook recursion.
            let n = raw.len();
            let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
            rounds.load(vjobs.clone());
            rounds.volumes(units_per_us, &mut got);
            reference_volumes(&vjobs.collect::<Vec<_>>(), units_per_us, &mut want);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }
}
