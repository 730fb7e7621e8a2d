//! Shared command-line parsing for the bench binaries.
//!
//! Every bin in `src/bin/` used to hand-roll the same `--trace <dir>` /
//! `--bench-json <path>` / `--quick` loop; [`CommonArgs`] parses the flags
//! they all share (including the probe-layer `--probe-db`, `--history` and
//! `--max-drift`) in one place, in both `--flag value` and `--flag=value`
//! forms, and hands anything it does not recognize back in
//! [`CommonArgs::rest`] for bin-specific parsing.

use std::path::PathBuf;

use crate::scope_report::DiffOutcome;
use crate::telemetry_cli::TraceSession;

/// Flags shared across the bench binaries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommonArgs {
    /// `--quick`: shrink iteration counts for smoke runs.
    pub quick: bool,
    /// `--bench-json <path>`: machine-readable output file.
    pub bench_json: Option<String>,
    /// `--trace <dir>`: telemetry output directory (see [`TraceSession`]).
    pub trace: Option<PathBuf>,
    /// `--probe-db <path>`: cached machine-peak calibration file.
    pub probe_db: Option<PathBuf>,
    /// `--history <path>`: append-only perf-history JSONL file.
    pub history: Option<PathBuf>,
    /// `--max-drift <pct>`: drift-gate tolerance in percent.
    pub max_drift: Option<f64>,
    /// `--gate-scaling <ratio>`: minimum default-dispatch 4T/1T GFLOP/s
    /// ratio on large shapes; below it the bin exits non-zero. Skipped
    /// (with a note) when the host has fewer than 4 CPUs.
    pub gate_scaling: Option<f64>,
    /// Arguments this parser did not consume, in order.
    pub rest: Vec<String>,
}

fn take_value(
    flag: &str,
    inline: Option<String>,
    it: &mut impl Iterator<Item = String>,
) -> Result<String, String> {
    inline
        .or_else(|| it.next())
        .ok_or_else(|| format!("{flag} requires a value"))
}

impl CommonArgs {
    /// Parses the shared flags out of an explicit argument list. Unknown
    /// arguments are collected into [`CommonArgs::rest`] (with any
    /// `--flag=value` form left intact) for the caller to interpret.
    ///
    /// # Errors
    ///
    /// Returns a message when a shared flag is missing its value or
    /// `--max-drift` is not a non-negative number.
    pub fn parse_iter(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
        let mut out = CommonArgs::default();
        let mut it = args.into_iter();
        while let Some(a) = it.next() {
            let (flag, inline) = match a.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
                _ => (a.clone(), None),
            };
            match flag.as_str() {
                "--quick" => out.quick = true,
                "--bench-json" => out.bench_json = Some(take_value(&flag, inline, &mut it)?),
                "--trace" => out.trace = Some(PathBuf::from(take_value(&flag, inline, &mut it)?)),
                "--probe-db" => {
                    out.probe_db = Some(PathBuf::from(take_value(&flag, inline, &mut it)?));
                }
                "--history" => {
                    out.history = Some(PathBuf::from(take_value(&flag, inline, &mut it)?));
                }
                "--max-drift" => {
                    let v = take_value(&flag, inline, &mut it)?;
                    match v.parse::<f64>() {
                        Ok(p) if p >= 0.0 => out.max_drift = Some(p),
                        _ => return Err(format!("--max-drift needs a non-negative percent: {v}")),
                    }
                }
                "--gate-scaling" => {
                    let v = take_value(&flag, inline, &mut it)?;
                    match v.parse::<f64>() {
                        Ok(r) if r >= 0.0 => out.gate_scaling = Some(r),
                        _ => return Err(format!("--gate-scaling needs a non-negative ratio: {v}")),
                    }
                }
                _ => out.rest.push(a),
            }
        }
        Ok(out)
    }

    /// Parses the process arguments; on a malformed shared flag prints the
    /// error plus `usage:` line and exits with status 2.
    pub fn parse(usage: &str) -> CommonArgs {
        match Self::parse_iter(std::env::args().skip(1)) {
            Ok(args) => args,
            Err(msg) => usage_exit(usage, &msg),
        }
    }

    /// Opens the telemetry session implied by `--trace` (disabled when the
    /// flag was absent).
    pub fn trace_session(&self, bin: &str) -> TraceSession {
        match &self.trace {
            Some(dir) => TraceSession::active(bin, dir.clone()),
            None => TraceSession::disabled(),
        }
    }

    /// Exits with usage status 2 if any unrecognized arguments remain —
    /// for bins whose whole CLI is the shared flag set.
    pub fn expect_no_rest(&self, usage: &str) {
        if let Some(first) = self.rest.first() {
            usage_exit(usage, &format!("unknown argument: {first}"));
        }
    }
}

/// Prints `error: <msg>` and the usage line, then exits with status 2 (the
/// usage-error convention every bench bin shares).
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Parses a `--max-regress`-style percentage value; exits with usage
/// status 2 when missing or negative. Shared by every `--diff` bin.
pub fn parse_pct(usage: &str, flag: &str, value: Option<String>) -> f64 {
    match value.as_deref().map(str::parse::<f64>) {
        Some(Ok(p)) if p >= 0.0 => p,
        _ => usage_exit(usage, &format!("{flag} needs a non-negative percent")),
    }
}

/// Prints a [`DiffOutcome`] under `header` and exits with the shared
/// gating convention — 0 = clean, 1 = regression found (usage and I/O
/// errors exit 2 via [`usage_exit`]). `scope_report --diff` and
/// `flight_report --diff` both finish through here so their exit codes
/// can never drift apart.
pub fn finish_diff(header: &str, out: &DiffOutcome) -> ! {
    println!("# {header}");
    for line in &out.lines {
        println!("  ok: {line}");
    }
    for r in &out.regressions {
        println!("  REGRESSION: {r}");
    }
    if out.regressed() {
        eprintln!("{} regression(s) found", out.regressions.len());
        std::process::exit(1);
    }
    println!("no regressions");
    std::process::exit(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> CommonArgs {
        CommonArgs::parse_iter(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn shared_flags_parse_in_both_forms() {
        let a = parse(&[
            "--quick",
            "--bench-json",
            "out.json",
            "--trace=/tmp/t",
            "--probe-db",
            "db.json",
            "--history=h.jsonl",
            "--max-drift",
            "12.5",
            "--gate-scaling=2.5",
        ]);
        assert!(a.quick);
        assert_eq!(a.bench_json.as_deref(), Some("out.json"));
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t")));
        assert_eq!(a.probe_db, Some(PathBuf::from("db.json")));
        assert_eq!(a.history, Some(PathBuf::from("h.jsonl")));
        assert_eq!(a.max_drift, Some(12.5));
        assert_eq!(a.gate_scaling, Some(2.5));
        assert!(a.rest.is_empty());
    }

    #[test]
    fn unknown_arguments_pass_through_in_order() {
        let a = parse(&["--steps", "7", "--quick", "positional", "--devices=3"]);
        assert!(a.quick);
        assert_eq!(a.rest, vec!["--steps", "7", "positional", "--devices=3"]);
    }

    #[test]
    fn missing_values_and_bad_drift_are_errors() {
        assert!(CommonArgs::parse_iter(vec!["--bench-json".to_string()]).is_err());
        assert!(CommonArgs::parse_iter(vec!["--trace".to_string()]).is_err());
        let bad = vec!["--max-drift".to_string(), "-3".to_string()];
        assert!(CommonArgs::parse_iter(bad).is_err());
        let bad_gate = vec!["--gate-scaling".to_string(), "nope".to_string()];
        assert!(CommonArgs::parse_iter(bad_gate).is_err());
    }

    #[test]
    fn trace_session_activates_only_with_flag() {
        assert!(!parse(&[]).trace_session("t").is_active());
    }
}
