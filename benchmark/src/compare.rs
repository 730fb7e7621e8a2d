//! `compare a.json b.json`: is `b` no worse than `a`?
//!
//! Per (workload, end-to-end metric): both medians, the relative change,
//! the bound, and a verdict. `worse` means `b`'s median is worse than `a`'s
//! by more than the bound. `unresolved` means the runs cannot tell: a side
//! marked the metric unresolved, or the run-to-run spread of either side is
//! wider than the bound — unless every run of `b` reads better than every
//! run of `a`, which no spread can explain away.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::stats::median;

/// Outcome for one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse by more than the bound.
    Worse,
    /// The runs do not resolve the bound.
    Unresolved,
}

impl Verdict {
    /// Table spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's untraced runs of one (workload, metric).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    /// The metric's value in each run.
    pub values: Vec<f64>,
    /// Whether any run listed the metric as unresolved.
    pub unresolved: bool,
}

/// One row of the comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: &'static EndToEnd,
    /// Median of `a`'s runs.
    pub a: f64,
    /// Median of `b`'s runs.
    pub b: f64,
    /// How much worse `b` is, as a share of `a` (negative = better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Largest distance between runs as a share of their median; with three
/// runs to a set, quartiles would be read off two points.
fn range_share(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / m.abs()
}

/// Judges one (workload, metric) pair.
pub fn judge(metric: &'static EndToEnd, a: &Side, b: &Side) -> (f64, f64, f64, Verdict) {
    let (ma, mb) = (median(&a.values), median(&b.values));
    let worse_by = match metric.better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let better = |x: f64, y: f64| match metric.better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let b_wins_every_pair = b
        .values
        .iter()
        .all(|&x| a.values.iter().all(|&y| better(x, y)));
    let noisy = a.unresolved
        || b.unresolved
        || range_share(&a.values) > metric.bound
        || range_share(&b.values) > metric.bound;
    let verdict = if noisy && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (ma, mb, worse_by, verdict)
}

/// The untraced runs of a results file, by (workload, metric).
pub fn sides(file: &Value) -> Result<BTreeMap<(String, String), Side>, String> {
    let runs = match file.get("runs") {
        Some(Value::Array(runs)) => runs,
        _ => return Err("results file has no `runs` array".into()),
    };
    let mut out: BTreeMap<(String, String), Side> = BTreeMap::new();
    for run in runs {
        if run.get("trace") != Some(&Value::Bool(false)) {
            continue;
        }
        let workload = match run.get("workload") {
            Some(Value::Str(w)) => w.clone(),
            _ => return Err("run without a workload name".into()),
        };
        if let Some(Value::Object(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                let value = match m.get("value") {
                    Some(Value::F64(v)) => *v,
                    Some(Value::U64(v)) => *v as f64,
                    Some(Value::I64(v)) => *v as f64,
                    _ => return Err(format!("{workload}/{name}: no numeric value")),
                };
                out.entry((workload.clone(), name.clone()))
                    .or_default()
                    .values
                    .push(value);
            }
        }
        if let Some(Value::Array(unresolved)) = run.get("unresolved") {
            for name in unresolved {
                if let Value::Str(name) = name {
                    out.entry((workload.clone(), name.clone()))
                        .or_default()
                        .unresolved = true;
                }
            }
        }
    }
    Ok(out)
}

/// Compares two results files. A pair measured on one side only is
/// unresolved; a pair measured on neither is skipped.
pub fn compare(a: &Value, b: &Value) -> Result<Vec<Row>, String> {
    let (a, b) = (sides(a)?, sides(b)?);
    let empty = Side::default();
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for metric in &END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (sa, sb) = (a.get(&key).unwrap_or(&empty), b.get(&key).unwrap_or(&empty));
            let row = match (sa.values.is_empty(), sb.values.is_empty()) {
                (true, true) if !sa.unresolved && !sb.unresolved => continue,
                (false, false) => {
                    let (ma, mb, worse_by, verdict) = judge(metric, sa, sb);
                    Row {
                        workload: workload.to_string(),
                        metric,
                        a: ma,
                        b: mb,
                        worse_by,
                        verdict,
                    }
                }
                _ => Row {
                    workload: workload.to_string(),
                    metric,
                    a: f64::NAN,
                    b: f64::NAN,
                    worse_by: f64::NAN,
                    verdict: Verdict::Unresolved,
                },
            };
            rows.push(row);
        }
    }
    Ok(rows)
}

/// Prints the table; returns whether every row is `ok`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<18} {:<24} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "worse by", "bound"
    );
    for r in rows {
        println!(
            "{:<18} {:<24} {:>16.6} {:>16.6} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric.name,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.metric.bound * 100.0,
            r.verdict.as_str()
        );
    }
    rows.iter().all(|r| r.verdict == Verdict::Ok)
}
