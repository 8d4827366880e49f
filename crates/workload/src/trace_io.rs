//! Workload trace import/export.
//!
//! Persisting a generated request stream lets the exact same workload be
//! re-run later, shared, or replayed against an external system. The
//! format is one-line-per-job CSV:
//!
//! ```text
//! # qes-workload v1
//! id,release_us,deadline_us,demand_units,partial
//! 0,1523,151523,245.5,1
//! ```

use std::fmt::Write as _;

use qes_core::error::QesError;
use qes_core::job::{Job, JobSet};
use qes_core::time::SimTime;

/// Header line identifying the format version.
pub const HEADER: &str = "# qes-workload v1";

/// Serialize a job set to the CSV trace format.
pub fn to_csv(jobs: &JobSet) -> String {
    let mut out = String::with_capacity(32 * jobs.len() + 64);
    let _ = writeln!(out, "{HEADER}");
    let _ = writeln!(out, "id,release_us,deadline_us,demand_units,partial");
    for j in jobs.iter() {
        let _ = writeln!(
            out,
            "{},{},{},{},{}",
            j.id.0,
            j.release.as_micros(),
            j.deadline.as_micros(),
            j.demand,
            u8::from(j.partial)
        );
    }
    out
}

/// Errors from parsing a workload trace.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceParseError {
    /// Missing or wrong `# qes-workload v1` header.
    BadHeader,
    /// A data line did not have five comma-separated fields.
    BadArity {
        /// 1-based line number of the bad line.
        line: usize,
    },
    /// A field failed to parse.
    BadField {
        /// 1-based line number of the bad line.
        line: usize,
        /// Which field failed.
        field: &'static str,
    },
    /// The parsed jobs do not form a valid (agreeable) job set.
    Invalid(QesError),
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceParseError::BadHeader => write!(f, "missing '{HEADER}' header"),
            TraceParseError::BadArity { line } => write!(f, "line {line}: expected 5 fields"),
            TraceParseError::BadField { line, field } => {
                write!(f, "line {line}: cannot parse {field}")
            }
            TraceParseError::Invalid(e) => write!(f, "invalid job set: {e}"),
        }
    }
}

impl std::error::Error for TraceParseError {}

/// Parse the CSV trace format back into a job set.
pub fn from_csv(text: &str) -> Result<JobSet, TraceParseError> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h.trim() == HEADER => {}
        _ => return Err(TraceParseError::BadHeader),
    }
    let mut jobs = Vec::new();
    for (idx, line) in lines {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("id,") {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 5 {
            return Err(TraceParseError::BadArity { line: idx + 1 });
        }
        let id: u32 = fields[0].parse().map_err(|_| TraceParseError::BadField {
            line: idx + 1,
            field: "id",
        })?;
        let rel: u64 = fields[1].parse().map_err(|_| TraceParseError::BadField {
            line: idx + 1,
            field: "release_us",
        })?;
        let dl: u64 = fields[2].parse().map_err(|_| TraceParseError::BadField {
            line: idx + 1,
            field: "deadline_us",
        })?;
        let demand: f64 = fields[3].parse().map_err(|_| TraceParseError::BadField {
            line: idx + 1,
            field: "demand_units",
        })?;
        let partial = match fields[4] {
            "1" | "true" => true,
            "0" | "false" => false,
            _ => {
                return Err(TraceParseError::BadField {
                    line: idx + 1,
                    field: "partial",
                })
            }
        };
        jobs.push(
            Job::with_partial(
                id,
                SimTime::from_micros(rel),
                SimTime::from_micros(dl),
                demand,
                partial,
            )
            .map_err(TraceParseError::Invalid)?,
        );
    }
    JobSet::new(jobs).map_err(TraceParseError::Invalid)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WebSearchWorkload;

    #[test]
    fn roundtrip_preserves_every_job() {
        let w = WebSearchWorkload::new(80.0)
            .with_horizon(SimTime::from_secs(3))
            .with_partial_fraction(0.5);
        let orig = w.generate(11).unwrap();
        let csv = to_csv(&orig);
        let back = from_csv(&csv).unwrap();
        assert_eq!(orig.len(), back.len());
        for (a, b) in orig.iter().zip(back.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn header_is_mandatory() {
        assert_eq!(
            from_csv("id,release_us\n").unwrap_err(),
            TraceParseError::BadHeader
        );
        assert_eq!(from_csv("").unwrap_err(), TraceParseError::BadHeader);
    }

    #[test]
    fn arity_and_field_errors_are_located() {
        let text = format!("{HEADER}\n0,1,2,3\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            TraceParseError::BadArity { line: 2 }
        );
        let text = format!("{HEADER}\n0,xx,200000,50.0,1\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            TraceParseError::BadField {
                line: 2,
                field: "release_us"
            }
        );
        let text = format!("{HEADER}\n0,0,200000,50.0,maybe\n");
        assert_eq!(
            from_csv(&text).unwrap_err(),
            TraceParseError::BadField {
                line: 2,
                field: "partial"
            }
        );
    }

    #[test]
    fn comments_blank_lines_and_column_header_are_skipped() {
        let text = format!(
            "{HEADER}\nid,release_us,deadline_us,demand_units,partial\n\n# note\n0,0,150000,100.0,1\n"
        );
        let jobs = from_csv(&text).unwrap();
        assert_eq!(jobs.len(), 1);
        assert!(jobs.jobs()[0].partial);
    }

    #[test]
    fn invalid_job_rejected_with_reason() {
        // Deadline before release.
        let text = format!("{HEADER}\n0,1000,500,10.0,0\n");
        assert!(matches!(from_csv(&text), Err(TraceParseError::Invalid(_))));
    }

    #[test]
    fn boolean_spellings() {
        let text = format!("{HEADER}\n0,0,1000,1.0,true\n1,0,1000,1.0,false\n");
        let jobs = from_csv(&text).unwrap();
        assert!(jobs.jobs()[0].partial);
        assert!(!jobs.jobs()[1].partial);
    }
}
