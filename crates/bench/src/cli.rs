//! Shared command-line parsing for the bench binaries.
//!
//! [`CommonArgs`] parses the flags the bins share (`--quick`,
//! `--bench-json`, `--trace`, `--gate-scaling`) in one place, in both
//! `--flag value` and `--flag=value` forms, and hands anything it does not
//! recognize back in [`CommonArgs::rest`] for bin-specific parsing.

use std::path::PathBuf;

use crate::record::DiffOutcome;
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
    /// `--gate-scaling <ratio>`: minimum default-dispatch 4T/1T GFLOP/s
    /// ratio on large shapes; below it the bin exits non-zero. Skipped
    /// (with a note) when the host has fewer than 4 CPUs.
    pub gate_scaling: Option<f64>,
    /// Arguments this parser did not consume, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Parses the shared flags out of an explicit argument list. Unknown
    /// arguments are left in [`CommonArgs::rest`], in order (with any
    /// `--flag=value` form intact), for the caller to interpret.
    ///
    /// # Errors
    ///
    /// Returns a message when a shared flag is missing its value or
    /// `--gate-scaling` is not a non-negative number.
    pub fn parse_iter(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
        let mut out = CommonArgs {
            rest: args.into_iter().collect(),
            ..CommonArgs::default()
        };
        out.quick = out.take_switch("--quick");
        out.bench_json = out.pull("--bench-json")?;
        out.trace = out.pull("--trace")?.map(PathBuf::from);
        if let Some(v) = out.pull("--gate-scaling")? {
            match v.parse::<f64>() {
                Ok(r) if r >= 0.0 => out.gate_scaling = Some(r),
                _ => return Err(format!("--gate-scaling needs a non-negative ratio: {v}")),
            }
        }
        Ok(out)
    }

    /// Removes the first `--flag <value>` / `--flag=<value>` from
    /// [`CommonArgs::rest`], returning the value.
    fn pull(&mut self, flag: &str) -> Result<Option<String>, String> {
        let name = |a: &String| a.split_once('=').map_or(a.as_str(), |(f, _)| f) == flag;
        let Some(i) = self.rest.iter().position(name) else {
            return Ok(None);
        };
        let arg = self.rest.remove(i);
        match arg.split_once('=') {
            Some((_, v)) => Ok(Some(v.to_string())),
            None if i < self.rest.len() => Ok(Some(self.rest.remove(i))),
            None => Err(format!("{flag} requires a value")),
        }
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

    /// Removes a bin-specific `--flag <value>` / `--flag=<value>` from
    /// [`CommonArgs::rest`] and parses it; `None` when the flag is absent.
    /// Exits with usage status 2 (`<flag> needs <what>`) when the value is
    /// missing, does not parse, or fails `ok`.
    pub fn take<T: std::str::FromStr>(
        &mut self,
        usage: &str,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        let parsed = self
            .pull(flag)
            .map(|v| v.map(|v| v.parse().ok().filter(&ok)));
        match parsed {
            Ok(None) => None,
            Ok(Some(Some(v))) => Some(v),
            _ => usage_exit(usage, &format!("{flag} needs {what}")),
        }
    }

    /// Removes a bare `--flag` switch from [`CommonArgs::rest`]; whether
    /// it was there.
    pub fn take_switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// Exits with usage status 2 if any unrecognized arguments remain.
    pub fn expect_no_rest(&self, usage: &str) {
        if let Some(first) = self.rest.first() {
            usage_exit(usage, &format!("unknown argument: {first}"));
        }
    }

    /// The `N` positional arguments left in [`CommonArgs::rest`]; exits
    /// with usage status 2 on a leftover flag or any other count.
    pub fn positionals<const N: usize>(self, usage: &str) -> [String; N] {
        if let Some(flag) = self.rest.iter().find(|a| a.starts_with('-')) {
            usage_exit(usage, &format!("unknown argument: {flag}"));
        }
        let got = self.rest.len();
        self.rest
            .try_into()
            .unwrap_or_else(|_| usage_exit(usage, &format!("expected {N} argument(s), got {got}")))
    }
}

/// Prints `error: <msg>` and the usage line, then exits with status 2 (the
/// usage-error convention every bench bin shares).
pub fn usage_exit(usage: &str, msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Writes `doc` as pretty JSON to `path`, creating its parent directory.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_json<T: serde::Serialize>(path: &str, doc: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(doc).map_err(std::io::Error::other)?;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}

/// Prints a [`DiffOutcome`] under `header` and exits with the shared
/// gating convention — 0 = clean, 1 = regression found (usage and I/O
/// errors exit 2 via [`usage_exit`]).
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
            "--gate-scaling=2.5",
        ]);
        assert!(a.quick);
        assert_eq!(a.bench_json.as_deref(), Some("out.json"));
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t")));
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
    fn missing_values_and_bad_gate_scaling_are_errors() {
        assert!(CommonArgs::parse_iter(vec!["--bench-json".to_string()]).is_err());
        assert!(CommonArgs::parse_iter(vec!["--trace".to_string()]).is_err());
        let bad = vec!["--gate-scaling".to_string(), "-3".to_string()];
        assert!(CommonArgs::parse_iter(bad).is_err());
        let bad_gate = vec!["--gate-scaling".to_string(), "nope".to_string()];
        assert!(CommonArgs::parse_iter(bad_gate).is_err());
    }

    #[test]
    fn trace_session_activates_only_with_flag() {
        assert!(!parse(&[]).trace_session("t").is_active());
    }
}
