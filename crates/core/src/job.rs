//! Best-effort interactive requests (paper §II-A).
//!
//! A [`Job`] is a request `J_j` with a release time `r_j`, a deadline `d_j`,
//! and a service demand `w_j` measured in processing units (1 GHz · 1 ms).
//! Jobs may support *partial evaluation*: processing fewer than `w_j` units
//! still yields partial quality through the quality function. Jobs that do
//! not support it yield quality only when fully processed (§V-D).
//!
//! The paper assumes *agreeable deadlines*: a job released later never has
//! an earlier deadline. [`JobSet::new`] enforces this.

use crate::error::QesError;
use crate::time::{SimDuration, SimTime};

/// Stable identifier of a job within a run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct JobId(pub u32);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// A best-effort interactive request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// Stable identifier.
    pub id: JobId,
    /// Release (arrival) time `r_j`; the job may not run before this.
    pub release: SimTime,
    /// Deadline `d_j`; the job may not run after this and its quality is
    /// settled here.
    pub deadline: SimTime,
    /// Service demand `w_j` in processing units (full execution).
    pub demand: f64,
    /// Whether the job supports partial evaluation. When `false`, an
    /// incomplete execution yields zero quality (§V-D).
    pub partial: bool,
}

impl Job {
    /// Construct a partially-evaluatable job, validating its fields.
    pub fn new(
        id: u32,
        release: SimTime,
        deadline: SimTime,
        demand: f64,
    ) -> Result<Self, QesError> {
        Self::with_partial(id, release, deadline, demand, true)
    }

    /// Construct a job with an explicit partial-evaluation capability.
    pub fn with_partial(
        id: u32,
        release: SimTime,
        deadline: SimTime,
        demand: f64,
        partial: bool,
    ) -> Result<Self, QesError> {
        let id = JobId(id);
        if deadline <= release {
            return Err(QesError::EmptyWindow {
                job: id,
                release,
                deadline,
            });
        }
        if !demand.is_finite() || demand < 0.0 {
            return Err(QesError::BadDemand { job: id, demand });
        }
        Ok(Job {
            id,
            release,
            deadline,
            demand,
            partial,
        })
    }

    /// The length of the job's feasible window `[r_j, d_j]`.
    #[inline]
    pub fn window(&self) -> SimDuration {
        self.deadline.saturating_since(self.release)
    }
}

/// An ordered collection of jobs with validated agreeable deadlines.
///
/// Jobs are stored sorted by `(release, deadline, id)`. All single-core
/// algorithms in `qes-singlecore` require this ordering.
#[derive(Clone, Debug, Default)]
pub struct JobSet {
    jobs: Vec<Job>,
}

impl JobSet {
    /// Build a job set, sorting by release time and verifying the agreeable
    /// deadline property (§II-A).
    pub fn new(mut jobs: Vec<Job>) -> Result<Self, QesError> {
        jobs.sort_by_key(|j| (j.release, j.deadline, j.id));
        for w in jobs.windows(2) {
            if w[1].deadline < w[0].deadline {
                return Err(QesError::NotAgreeable {
                    earlier: w[0].id,
                    later: w[1].id,
                });
            }
        }
        Ok(JobSet { jobs })
    }

    /// Build without the agreeable check (for deliberately adversarial
    /// tests); still sorts by release.
    pub fn new_unchecked(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.release, j.deadline, j.id));
        JobSet { jobs }
    }

    /// Number of jobs.
    #[inline]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Jobs in `(release, deadline)` order.
    #[inline]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Iterate over jobs.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Look up a job by id (linear scan; job sets handled by the algorithms
    /// are small per invocation).
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Total service demand of all jobs.
    pub fn total_demand(&self) -> f64 {
        self.jobs.iter().map(|j| j.demand).sum()
    }

    /// Earliest release among the jobs, if any.
    pub fn first_release(&self) -> Option<SimTime> {
        self.jobs.first().map(|j| j.release)
    }

    /// Latest deadline among the jobs, if any.
    pub fn last_deadline(&self) -> Option<SimTime> {
        self.jobs.iter().map(|j| j.deadline).max()
    }
}

impl IntoIterator for JobSet {
    type Item = Job;
    type IntoIter = std::vec::IntoIter<Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.into_iter()
    }
}

impl<'a> IntoIterator for &'a JobSet {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: u64) -> SimTime {
        SimTime::from_millis(x)
    }

    #[test]
    fn job_validation() {
        assert!(Job::new(0, ms(0), ms(150), 192.0).is_ok());
        assert!(matches!(
            Job::new(1, ms(10), ms(10), 1.0),
            Err(QesError::EmptyWindow { .. })
        ));
        assert!(matches!(
            Job::new(2, ms(0), ms(1), f64::NAN),
            Err(QesError::BadDemand { .. })
        ));
        assert!(matches!(
            Job::new(3, ms(0), ms(1), -1.0),
            Err(QesError::BadDemand { .. })
        ));
        // Zero demand is legal (a degenerate, already-satisfied job).
        assert!(Job::new(4, ms(0), ms(1), 0.0).is_ok());
    }

    #[test]
    fn window_spans_release_to_deadline() {
        let j = Job::new(0, ms(0), ms(150), 300.0).unwrap();
        assert_eq!(j.window(), SimDuration::from_millis(150));
    }

    #[test]
    fn jobset_sorts_by_release() {
        let a = Job::new(0, ms(20), ms(170), 1.0).unwrap();
        let b = Job::new(1, ms(0), ms(150), 1.0).unwrap();
        let s = JobSet::new(vec![a, b]).unwrap();
        assert_eq!(s.jobs()[0].id, JobId(1));
        assert_eq!(s.jobs()[1].id, JobId(0));
    }

    #[test]
    fn jobset_rejects_inverted_deadlines() {
        let a = Job::new(0, ms(0), ms(300), 1.0).unwrap();
        let b = Job::new(1, ms(10), ms(200), 1.0).unwrap();
        assert!(matches!(
            JobSet::new(vec![a, b]),
            Err(QesError::NotAgreeable { .. })
        ));
    }

    #[test]
    fn jobset_allows_equal_deadlines() {
        let a = Job::new(0, ms(0), ms(150), 1.0).unwrap();
        let b = Job::new(1, ms(10), ms(150), 1.0).unwrap();
        assert!(JobSet::new(vec![a, b]).is_ok());
    }

    #[test]
    fn aggregates() {
        let a = Job::new(0, ms(0), ms(100), 10.0).unwrap();
        let b = Job::new(1, ms(50), ms(200), 20.0).unwrap();
        let s = JobSet::new(vec![a, b]).unwrap();
        assert!((s.total_demand() - 30.0).abs() < 1e-12);
        assert_eq!(s.first_release(), Some(ms(0)));
        assert_eq!(s.last_deadline(), Some(ms(200)));
        assert_eq!(s.get(JobId(1)).unwrap().demand, 20.0);
        assert!(s.get(JobId(99)).is_none());
    }
}
