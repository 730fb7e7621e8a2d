//! Shared `--trace <dir>` support for the bench binaries.
//!
//! Every harness accepts `--trace <dir>` (or `--trace=<dir>`, parsed by
//! [`CommonArgs`](crate::cli::CommonArgs)): when given, a [`Profiler`] is
//! installed for the duration of the run and three files are written on
//! exit —
//!
//! * `<dir>/<bin>.trace.json` — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * `<dir>/<bin>.report.json` — the serialized
//!   [`RunReport`](hfta_telemetry::RunReport) (per-experiment wall times,
//!   step metrics, counters and time-series);
//! * `<dir>/<bin>.flight.jsonl` — the hfta-flight journal (one
//!   [`JournalLine`](hfta_telemetry::JournalLine) per line): ring-buffer
//!   spill-over during the run plus the in-memory tail flushed on exit.
//!   `hfta_report flight` and `hfta_report top` read this file.
//!
//! Without the flag nothing is installed and the instrumented code paths
//! stay on their single-branch disabled fast path.

use std::io;
use std::path::PathBuf;

use hfta_telemetry::{InstallGuard, Profiler};

/// An optionally-active telemetry session for one benchmark binary.
///
/// Construct it first thing in `main` (via
/// [`CommonArgs::trace_session`](crate::cli::CommonArgs::trace_session)),
/// run the workload, then call
/// [`TraceSession::finish`] (fallible mains) or
/// [`TraceSession::finish_or_exit`] (infallible mains) last.
pub struct TraceSession {
    inner: Option<Active>,
}

struct Active {
    profiler: Profiler,
    _guard: InstallGuard,
    dir: PathBuf,
    bin: String,
}

impl TraceSession {
    /// A session that records nothing and writes nothing.
    pub fn disabled() -> TraceSession {
        TraceSession { inner: None }
    }

    /// A recording session: installs a fresh profiler named `bin` and
    /// remembers where to write the outputs.
    pub fn active(bin: &str, dir: impl Into<PathBuf>) -> TraceSession {
        let profiler = Profiler::new(bin);
        let guard = profiler.install();
        let dir = dir.into();
        profiler.set_flight_spill(dir.join(format!("{bin}.flight.jsonl")));
        TraceSession {
            inner: Some(Active {
                profiler,
                _guard: guard,
                dir,
                bin: bin.to_string(),
            }),
        }
    }

    /// The installed profiler, if the session is recording.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.inner.as_ref().map(|a| &a.profiler)
    }

    /// Whether `--trace` was given.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// For bins whose numbers are read back from the ambient profiler's
    /// flight journal (the sched / serve SLO roll-ups): installs a profiler
    /// named `bin` that is never written out when `--trace` was absent, so
    /// an untraced run reports the same latencies as a traced one. `None`
    /// when the session's own profiler is already installed.
    #[must_use = "the local profiler uninstalls when the guard drops"]
    pub fn local_profiler(&self, bin: &str) -> Option<InstallGuard> {
        (!self.is_active()).then(|| Profiler::new(bin).install())
    }

    /// Writes `<dir>/<bin>.trace.json` and `<dir>/<bin>.report.json`,
    /// creating `<dir>` if needed. Returns the two paths, or `None` when
    /// the session was never activated.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors (and report-serialization failures,
    /// mapped to [`io::Error`]) instead of panicking — `repro_all` turns
    /// these into a non-zero exit.
    pub fn finish(self) -> io::Result<Option<(PathBuf, PathBuf)>> {
        let Some(active) = self.inner else {
            return Ok(None);
        };
        std::fs::create_dir_all(&active.dir)?;
        active.profiler.flush_flight_journal()?;
        let trace_path = active.dir.join(format!("{}.trace.json", active.bin));
        std::fs::write(&trace_path, active.profiler.trace_json())?;
        let report = active.profiler.report();
        let json = serde_json::to_string_pretty(&report)
            .map_err(|e| io::Error::other(format!("serializing run report: {e}")))?;
        let report_path = active.dir.join(format!("{}.report.json", active.bin));
        std::fs::write(&report_path, json)?;
        Ok(Some((trace_path, report_path)))
    }

    /// [`TraceSession::finish`] for binaries with infallible `main`s:
    /// reports the written paths on stderr, exits 1 on I/O failure.
    pub fn finish_or_exit(self) {
        match self.finish() {
            Ok(Some((t, r))) => eprintln!("trace: wrote {} and {}", t.display(), r.display()),
            Ok(None) => {}
            Err(e) => {
                eprintln!("error: writing telemetry failed: {e}");
                std::process::exit(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::CommonArgs;

    fn session(bin: &str, args: Vec<String>) -> TraceSession {
        CommonArgs::parse_iter(args).unwrap().trace_session(bin)
    }

    #[test]
    fn no_flag_means_disabled() {
        let s = session("t", Vec::new());
        assert!(!s.is_active());
        assert!(Profiler::current().is_none());
        assert!(s.finish().unwrap().is_none());
    }

    #[test]
    fn flag_installs_and_finish_writes_both_files() {
        let dir = std::env::temp_dir().join("hfta-telemetry-cli-test");
        let _ = std::fs::remove_dir_all(&dir);
        let s = session(
            "unit",
            vec!["--trace".to_string(), dir.display().to_string()],
        );
        assert!(s.is_active());
        let p = Profiler::current().expect("installed");
        p.incr("touched", 1.0);
        let lane = p.lane("proc", "thread");
        drop(p.span(lane, "work"));
        let (trace, report) = s.finish().unwrap().expect("active");
        assert!(Profiler::current().is_none(), "guard uninstalls on finish");
        let trace_text = std::fs::read_to_string(&trace).unwrap();
        assert!(trace_text.contains("\"traceEvents\""));
        let report_text = std::fs::read_to_string(&report).unwrap();
        let parsed: hfta_telemetry::RunReport = serde_json::from_str(&report_text).unwrap();
        assert_eq!(parsed.name, "unit");
        assert_eq!(parsed.experiments[0].counters[0].name, "touched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn active_session_spills_and_flushes_the_flight_journal() {
        use hfta_telemetry::{FlightKind, JournalLine};
        let dir = std::env::temp_dir().join("hfta-telemetry-cli-test-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let s = TraceSession::active("fl", &dir);
        let p = Profiler::current().expect("installed");
        {
            let _exp = p.experiment("runA");
            p.flight_event(0, 100, FlightKind::Submit, None, None, None, String::new());
            p.flight_event(0, 200, FlightKind::Enqueue, None, None, None, String::new());
        }
        s.finish().unwrap().expect("active");
        let text = std::fs::read_to_string(dir.join("fl.flight.jsonl")).unwrap();
        let lines: Vec<JournalLine> = text
            .lines()
            .map(|l| serde_json::from_str(l).expect("journal line"))
            .collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].exp, "runA");
        assert_eq!(lines[0].event.kind, FlightKind::Submit);
        assert_eq!(lines[1].event.t_ns, 200);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn equals_form_is_accepted() {
        let dir = std::env::temp_dir().join("hfta-telemetry-cli-test-eq");
        let _ = std::fs::remove_dir_all(&dir);
        let s = session("eq", vec![format!("--trace={}", dir.display())]);
        assert!(s.is_active());
        s.finish().unwrap();
        assert!(dir.join("eq.trace.json").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
