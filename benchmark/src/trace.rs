//! The benchmark's own span recorder.
//!
//! Spans are recorded from outside the program, around calls into its
//! public functions, kept in memory, and written out when the run ends.
//! A span's *self time* is its duration minus the part of it covered by
//! its direct children, so a parent's self time is the time nobody below
//! it accounts for. The recorder is single-threaded like the benchmark's
//! driver loop; while disabled, opening a span costs one flag test.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::Value;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The step (or pass) the span belongs to.
    pub step_id: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    enabled: Cell<bool>,
    step: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder: spans are dropped until [`Recorder::set_enabled`].
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            enabled: Cell::new(false),
            step: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Turns recording on or off. Must not be called with a span open.
    pub fn set_enabled(&self, on: bool) {
        debug_assert!(self.open.borrow().is_empty(), "toggled inside a span");
        self.enabled.set(on);
    }

    /// Starts the next step: later spans carry a fresh `step_id`.
    pub fn next_step(&self) {
        self.step.set(self.step.get() + 1);
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                rec: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        let mut open = self.open.borrow_mut();
        spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: open.last().copied(),
            step_id: self.step.get(),
        });
        open.push(index);
        SpanGuard {
            rec: self,
            index: Some(index),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _guard = self.span(name);
        f()
    }

    /// A copy of every closed span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        debug_assert!(self.open.borrow().is_empty(), "read with a span open");
        self.spans.borrow().clone()
    }
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    index: Option<usize>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(index) = self.index {
            let end = self.rec.epoch.elapsed().as_nanos() as u64;
            self.rec.spans.borrow_mut()[index].end_ns = end;
            let popped = self.rec.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(index), "spans must nest");
        }
    }
}

/// The spans from index `start` on, as a list of their own: parents before
/// `start` are cut, so the result can be summed like any span list.
pub fn tail(spans: &[Span], start: usize) -> Vec<Span> {
    spans[start..]
        .iter()
        .map(|s| Span {
            parent: s.parent.and_then(|p| p.checked_sub(start)),
            ..s.clone()
        })
        .collect()
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Spans with this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times (duration minus direct children).
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals by span name.
pub fn ledger(spans: &[Span]) -> BTreeMap<&'static str, Ledger> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, Ledger> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let row = out.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.dur_ns();
        row.self_ns += self_ns;
    }
    out
}

/// Share of the `root`-named spans' time that their direct children cover
/// (1.0 = nothing inside a step is unaccounted for).
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let own = self_times(spans);
    let (mut total, mut uncovered) = (0u64, 0u64);
    for (s, self_ns) in spans.iter().zip(own) {
        if s.name == root {
            total += s.dur_ns();
            uncovered += self_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - uncovered as f64 / total as f64
    }
}

/// Chrome trace (`chrome://tracing`, Perfetto) rendering: one complete
/// (`ph: "X"`) event per span, microsecond timestamps.
pub fn chrome_trace(spans: &[Span]) -> Value {
    let events = spans
        .iter()
        .map(|s| {
            Value::Object(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start_ns as f64 / 1e3)),
                ("dur".into(), Value::F64(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(1)),
                (
                    "args".into(),
                    Value::Object(vec![("step".into(), Value::U64(s.step_id))]),
                ),
            ])
        })
        .collect();
    Value::Object(vec![("traceEvents".into(), Value::Array(events))])
}

/// The per-name ledger as JSON (`<workload>.layers.json`).
pub fn ledger_json(spans: &[Span]) -> Value {
    Value::Object(
        ledger(spans)
            .into_iter()
            .map(|(name, row)| {
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("count".into(), Value::U64(row.count)),
                        ("total_ms".into(), Value::F64(row.total_ns as f64 / 1e6)),
                        ("self_ms".into(), Value::F64(row.self_ns as f64 / 1e6)),
                    ]),
                )
            })
            .collect(),
    )
}
