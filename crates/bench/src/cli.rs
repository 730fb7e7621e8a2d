//! Shared command-line parsing for the bench binaries.
//!
//! [`CommonArgs`] is only the parser: each binary takes exactly the flags
//! it reads ([`CommonArgs::take`], [`CommonArgs::take_switch`],
//! [`CommonArgs::take_trace`]), in both `--flag value` and `--flag=value`
//! forms, and [`CommonArgs::expect_no_rest`] turns any flag it did not take
//! into a usage error (exit 2).

use std::path::PathBuf;

use crate::record::DiffOutcome;
use crate::telemetry_cli::TraceSession;

/// The arguments of one bench binary, consumed flag by flag.
#[derive(Debug)]
pub struct CommonArgs {
    /// Arguments not taken yet, in order.
    pub rest: Vec<String>,
}

impl CommonArgs {
    /// Wraps an explicit argument list.
    pub fn new(args: impl IntoIterator<Item = String>) -> CommonArgs {
        CommonArgs {
            rest: args.into_iter().collect(),
        }
    }

    /// The process arguments, program name excluded.
    pub fn from_env() -> CommonArgs {
        Self::new(std::env::args().skip(1))
    }

    /// Removes the first `--flag <value>` / `--flag=<value>` from
    /// [`CommonArgs::rest`]: `None` when the flag is absent, `Some(None)`
    /// when its value is missing.
    fn pull(&mut self, flag: &str) -> Option<Option<String>> {
        let name = |a: &String| a.split_once('=').map_or(a.as_str(), |(f, _)| f) == flag;
        let i = self.rest.iter().position(name)?;
        let arg = self.rest.remove(i);
        Some(match arg.split_once('=') {
            Some((_, v)) => Some(v.to_string()),
            None => (i < self.rest.len()).then(|| self.rest.remove(i)),
        })
    }

    /// Removes `--flag <value>` / `--flag=<value>` and parses it; `None`
    /// when the flag is absent, an error (`<flag> needs <what>`) when the
    /// value is missing, does not parse, or fails `ok`.
    fn try_take<T: std::str::FromStr>(
        &mut self,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        let Some(value) = self.pull(flag) else {
            return Ok(None);
        };
        let parsed = value.and_then(|v| v.parse().ok()).filter(ok);
        parsed
            .map(Some)
            .ok_or_else(|| format!("{flag} needs {what}"))
    }

    /// [`CommonArgs::try_take`], exiting with usage status 2 on an error.
    pub fn take<T: std::str::FromStr>(
        &mut self,
        usage: &str,
        flag: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Option<T> {
        self.try_take(flag, what, ok)
            .unwrap_or_else(|msg| usage_exit(usage, &msg))
    }

    /// Removes a bare `--flag` switch; whether it was there.
    pub fn take_switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    /// Takes `--trace <dir>` and opens the telemetry session it implies
    /// (disabled when the flag is absent).
    pub fn take_trace(&mut self, usage: &str, bin: &str) -> TraceSession {
        match self.take(usage, "--trace", "a directory", |_: &PathBuf| true) {
            Some(dir) => TraceSession::active(bin, dir),
            None => TraceSession::disabled(),
        }
    }

    /// Exits with usage status 2 if any argument was not taken.
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

    fn args(list: &[&str]) -> CommonArgs {
        CommonArgs::new(list.iter().map(|s| s.to_string()))
    }

    fn ratio(a: &mut CommonArgs) -> Result<Option<f64>, String> {
        a.try_take("--gate-scaling", "a non-negative ratio", |r: &f64| {
            *r >= 0.0
        })
    }

    #[test]
    fn shared_flags_parse_in_both_forms() {
        let mut a = args(&[
            "--quick",
            "--bench-json",
            "out.json",
            "--trace=/tmp/t",
            "--gate-scaling=2.5",
        ]);
        assert!(a.take_switch("--quick"));
        let any = |_: &String| true;
        assert_eq!(
            a.try_take("--bench-json", "a path", any),
            Ok(Some("out.json".to_string()))
        );
        assert_eq!(
            a.try_take("--trace", "a directory", |_: &PathBuf| true),
            Ok(Some(PathBuf::from("/tmp/t")))
        );
        assert_eq!(ratio(&mut a), Ok(Some(2.5)));
        assert!(a.rest.is_empty());
    }

    #[test]
    fn unknown_arguments_pass_through_in_order() {
        let mut a = args(&["--steps", "7", "--quick", "positional", "--devices=3"]);
        assert!(a.take_switch("--quick"));
        assert!(!a.take_switch("--quick"));
        assert_eq!(a.rest, vec!["--steps", "7", "positional", "--devices=3"]);
    }

    #[test]
    fn missing_values_and_bad_gate_scaling_are_errors() {
        let missing = args(&["--bench-json"]).try_take("--bench-json", "a path", |_: &String| true);
        assert!(missing.is_err());
        let trace = args(&["--trace"]).try_take("--trace", "a directory", |_: &PathBuf| true);
        assert!(trace.is_err());
        assert!(ratio(&mut args(&["--gate-scaling", "-3"])).is_err());
        assert!(ratio(&mut args(&["--gate-scaling", "nope"])).is_err());
        assert_eq!(ratio(&mut args(&[])), Ok(None));
    }

    #[test]
    fn trace_session_activates_only_with_flag() {
        assert!(!args(&[]).take_trace("usage", "t").is_active());
    }
}
