//! Shared `--trace <dir>` support for the bench binaries.
//!
//! `repro_all`, `bench_plan`, `bench_serve` and `sched_sweep` accept
//! `--trace <dir>` (or `--trace=<dir>`, taken by
//! [`CommonArgs::take_trace`](crate::cli::CommonArgs::take_trace)): when
//! given, a [`Profiler`] is installed for the duration of the run and two
//! files are written on exit —
//!
//! * `<dir>/<bin>.trace.json` — Chrome trace-event JSON, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`;
//! * `<dir>/<bin>.report.json` — the serialized
//!   [`RunReport`](hfta_telemetry::RunReport) (per-experiment wall times,
//!   step metrics, counters, time-series and the hfta-flight journal,
//!   each scope's events in its `flight` array). Every `hfta_report`
//!   trace-dir view reads this file.
//!
//! Without the flag nothing is installed and the instrumented code paths
//! stay on their single-branch disabled fast path.

use std::io;
use std::path::{Path, PathBuf};

use hfta_telemetry::{InstallGuard, Profiler};

/// An optionally-active telemetry session for one benchmark binary.
///
/// Construct it first thing in `main` (via
/// [`CommonArgs::take_trace`](crate::cli::CommonArgs::take_trace)),
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
        TraceSession {
            inner: Some(Active {
                profiler,
                _guard: guard,
                dir: dir.into(),
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

    /// The `--trace` directory, if the session is recording.
    pub fn dir(&self) -> Option<&Path> {
        self.inner.as_ref().map(|a| a.dir.as_path())
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
        CommonArgs::new(args).take_trace("usage", bin)
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
    fn flight_events_read_back_from_the_report_by_scope() {
        use crate::flight_report::flight_journal;
        use crate::probe_report::collect_run_reports;
        use hfta_telemetry::FlightKind;
        let dir = std::env::temp_dir().join("hfta-telemetry-cli-test-flight");
        let _ = std::fs::remove_dir_all(&dir);
        let s = TraceSession::active("fl", &dir);
        let p = Profiler::current().expect("installed");
        let submit = |trial, t| {
            p.flight_event(
                trial,
                t,
                FlightKind::Submit,
                None,
                None,
                None,
                String::new(),
            )
        };
        {
            let _exp = p.experiment("runB");
            submit(0, 100);
            submit(1, 150);
        }
        {
            let _exp = p.experiment("runA");
            submit(0, 300);
        }
        s.finish().unwrap().expect("active");
        let journal = flight_journal(collect_run_reports(&dir).unwrap());
        let scopes: Vec<(&str, Vec<(u64, u64)>)> = journal
            .iter()
            .map(|(name, events)| {
                (
                    name.as_str(),
                    events.iter().map(|e| (e.trial, e.t_ns)).collect(),
                )
            })
            .collect();
        // The root scope `fl` recorded nothing and is absent.
        assert_eq!(
            scopes,
            vec![("runA", vec![(0, 300)]), ("runB", vec![(0, 100), (1, 150)])]
        );
        let mut written: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        written.sort();
        assert_eq!(written, ["fl.report.json", "fl.trace.json"]);
        // A flight summary written into the same directory (`hfta_report
        // flight --out`) is passed over, not parsed as a run report.
        let summary = crate::record::FlightSummary {
            schema: crate::record::FLIGHT_SCHEMA,
            experiments: Vec::new(),
        };
        let out = dir.join("flight_sweep.report.json");
        crate::cli::write_json(&out.display().to_string(), &summary).unwrap();
        assert_eq!(flight_journal(collect_run_reports(&dir).unwrap()), journal);
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
