//! The persistent perf-history store and drift gate.
//!
//! [`PerfHistory`] is an append-only JSONL file: one [`HistoryRecord`] per
//! bench/sweep run, carrying the git revision, thread count, backend, and
//! the per-op roofline summary ([`OpUtil`]). Appending never rewrites
//! earlier lines, so the file is safe to commit and diff. The drift gate
//! ([`drift`]) compares the latest record's per-op utilization against the
//! trailing median of earlier records — a drop beyond the tolerance is a
//! regression some perf PR has to answer for, turning every future claim
//! into a gated number instead of a one-off JSON snapshot.

use std::io::Write;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

/// Bump when the record layout changes or a field changes meaning;
/// [`PerfHistory::load`] rejects records from other schemas so the drift
/// gate never compares apples to re-laid-out oranges. Schema 2:
/// `pct_of_peak` is relative to the default (vector where available)
/// kernel's peak (`PROBE_DB_VERSION` 2), no longer the SSE2 scalar tile's.
pub const HISTORY_SCHEMA: u64 = 2;

/// How many trailing prior records the drift baseline medians over.
pub const DRIFT_WINDOW: usize = 8;

/// One op's utilization summary inside a history record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpUtil {
    /// Tracked op key (e.g. `matmul` or `gemm/pointnet:64x64x1024`).
    pub name: String,
    /// Percent of attainable roofline peak.
    pub pct_of_peak: f64,
    /// Measured GFLOP/s.
    pub gflops: f64,
    /// Roofline bound: `compute` or `bandwidth`.
    pub bound: String,
}

/// One bench/sweep run appended to the history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistoryRecord {
    /// Record layout version ([`HISTORY_SCHEMA`]).
    pub schema: u64,
    /// What produced the record (bin name, e.g. `bench_kernels`).
    pub label: String,
    /// Abbreviated git revision, `unknown` outside a checkout.
    pub git_rev: String,
    /// Worker-pool thread count of the run.
    pub threads: u64,
    /// Kernel backend (`auto`, `naive`, `sim`, ...).
    pub backend: String,
    /// Per-op roofline summaries.
    pub ops: Vec<OpUtil>,
}

impl HistoryRecord {
    /// Finds a tracked op by name.
    pub fn op(&self, name: &str) -> Option<&OpUtil> {
        self.ops.iter().find(|o| o.name == name)
    }
}

/// Handle on an append-only JSONL history file.
#[derive(Debug, Clone)]
pub struct PerfHistory {
    path: PathBuf,
}

impl PerfHistory {
    /// Wraps `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        PerfHistory { path: path.into() }
    }

    /// The underlying file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record as a single JSONL line, creating the file (and
    /// parent directory) on first use.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append(&self, record: &HistoryRecord) -> std::io::Result<()> {
        if let Some(dir) = self.path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let json = serde_json::to_string(record).expect("records serialize infallibly");
        writeln!(f, "{json}")
    }

    /// Loads every record, oldest first. Blank lines are skipped; records
    /// from a different [`HISTORY_SCHEMA`] are dropped (not errors), so a
    /// schema bump starts a fresh baseline in the same file.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors or unparsable non-blank lines.
    pub fn load(&self) -> Result<Vec<HistoryRecord>, String> {
        let text = std::fs::read_to_string(&self.path)
            .map_err(|e| format!("{}: {e}", self.path.display()))?;
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: HistoryRecord = serde_json::from_str(line)
                .map_err(|e| format!("{} line {}: {e}", self.path.display(), i + 1))?;
            if rec.schema == HISTORY_SCHEMA {
                records.push(rec);
            }
        }
        Ok(records)
    }
}

/// One op whose latest utilization dropped beyond tolerance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftViolation {
    /// The drifting op.
    pub op: String,
    /// Latest pct-of-peak.
    pub latest_pct: f64,
    /// Trailing-median baseline pct-of-peak.
    pub median_pct: f64,
    /// Relative drop vs the median, percent.
    pub drop_pct: f64,
}

/// Gates the newest record against the trailing median of the previous
/// [`DRIFT_WINDOW`] records: for every op tracked in the latest record that
/// also appears in at least one earlier record, a relative utilization drop
/// greater than `max_drop_pct` percent is a violation. Fewer than two
/// records (or no overlapping ops) can never drift.
pub fn drift(records: &[HistoryRecord], max_drop_pct: f64) -> Vec<DriftViolation> {
    let Some((latest, prior)) = records.split_last() else {
        return Vec::new();
    };
    let mut violations = Vec::new();
    for op in &latest.ops {
        let mut baseline: Vec<f64> = prior
            .iter()
            .rev()
            .take(DRIFT_WINDOW)
            .filter_map(|r| r.op(&op.name))
            .map(|o| o.pct_of_peak)
            .collect();
        if baseline.is_empty() {
            continue; // newly tracked op: no baseline yet
        }
        baseline.sort_by(f64::total_cmp);
        let mid = baseline.len() / 2;
        let median = if baseline.len() % 2 == 1 {
            baseline[mid]
        } else {
            0.5 * (baseline[mid - 1] + baseline[mid])
        };
        if median <= 0.0 {
            continue;
        }
        let drop = 100.0 * (median - op.pct_of_peak) / median;
        if drop > max_drop_pct {
            violations.push(DriftViolation {
                op: op.name.clone(),
                latest_pct: op.pct_of_peak,
                median_pct: median,
                drop_pct: drop,
            });
        }
    }
    violations
}

/// Abbreviated git revision of the working tree, or `unknown` when git (or
/// a repository) is unavailable — history stays appendable from tarballs.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(pcts: &[(&str, f64)]) -> HistoryRecord {
        HistoryRecord {
            schema: HISTORY_SCHEMA,
            label: "test".into(),
            git_rev: "abc1234".into(),
            threads: 4,
            backend: "blocked".into(),
            ops: pcts
                .iter()
                .map(|&(name, pct)| OpUtil {
                    name: name.into(),
                    pct_of_peak: pct,
                    gflops: pct / 10.0,
                    bound: "compute".into(),
                })
                .collect(),
        }
    }

    #[test]
    fn append_load_round_trips_jsonl() {
        let dir = std::env::temp_dir().join(format!("hfta-probe-hist-{}", std::process::id()));
        let h = PerfHistory::new(dir.join("history.jsonl"));
        h.append(&rec(&[("gemm", 60.0)])).unwrap();
        h.append(&rec(&[("gemm", 61.0), ("conv2d", 30.0)])).unwrap();
        let records = h.load().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].op("conv2d").unwrap().pct_of_peak, 30.0);
        // A foreign-schema line is dropped, not a parse error.
        let mut other = rec(&[("gemm", 1.0)]);
        other.schema = HISTORY_SCHEMA + 1;
        h.append(&other).unwrap();
        assert_eq!(h.load().unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drift_flags_only_drops_beyond_tolerance() {
        let records = vec![
            rec(&[("gemm", 60.0), ("conv2d", 40.0)]),
            rec(&[("gemm", 62.0), ("conv2d", 41.0)]),
            rec(&[("gemm", 58.0), ("conv2d", 39.0)]),
            // gemm holds (−3% of median 60), conv2d collapses (−50%).
            rec(&[("gemm", 58.2), ("conv2d", 20.0)]),
        ];
        let v = drift(&records, 10.0);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].op, "conv2d");
        assert!((v[0].median_pct - 40.0).abs() < 1e-9);
        assert!((v[0].drop_pct - 50.0).abs() < 1e-9);
        // Loosening the tolerance past the drop clears it.
        assert!(drift(&records, 60.0).is_empty());
    }

    #[test]
    fn drift_needs_history_and_overlap() {
        assert!(drift(&[], 10.0).is_empty());
        assert!(drift(&[rec(&[("gemm", 60.0)])], 10.0).is_empty());
        // A newly tracked op has no baseline to drift from.
        let records = vec![rec(&[("gemm", 60.0)]), rec(&[("new_op", 1.0)])];
        assert!(drift(&records, 10.0).is_empty());
    }

    #[test]
    fn drift_median_uses_trailing_window() {
        // Ancient great numbers outside the window must not mask a recent
        // plateau: 10 old records at 90, then DRIFT_WINDOW at 50, then 48.
        let mut records = vec![rec(&[("gemm", 90.0)]); 10];
        records.extend(vec![rec(&[("gemm", 50.0)]); DRIFT_WINDOW]);
        records.push(rec(&[("gemm", 48.0)]));
        // vs the trailing median (50) the drop is 4% — no violation…
        assert!(drift(&records, 10.0).is_empty());
        // …even though vs the ancient 90 it would be >40%.
        records.push(rec(&[("gemm", 40.0)]));
        let v = drift(&records, 10.0);
        assert_eq!(v.len(), 1);
        assert!((v[0].median_pct - 50.0).abs() < 1e-9);
    }
}
