//! The one module that knows what a bench / flight / run-summary record is
//! and how each of its fields gates.
//!
//! Producers (`bench_kernels`, `bench_mem`, `bench_plan`, `bench_serve`,
//! `hfta_report flight --out`, `hfta_report summarize`) build the typed
//! structs below and serialize them; `hfta_report diff` reads them back
//! through the *same* structs, so a file the schema cannot parse is a typed
//! error naming the missing field — never a silently skipped record. Each
//! field declares its [`Gate`] where the struct declares the field
//! (`record!`), in the vocabulary `BENCHMARK.json` uses (`higher` / `lower`
//! with a bound, `exact`, `must_be_zero`, `must_be_true`, `info`), and one
//! generic [`diff_records`] walks any two documents of the same
//! [`Schema`]. The bounds are constants, not flags: CI only ever ran them
//! at one value.

use hfta_serve::engine::ServeReport;
use hfta_telemetry::{RunReport, SentinelKind};
use serde::{Deserialize, Serialize, Value};

/// Bound, percent, on every relative kernel / memory / serve / plan gate.
pub const BENCH_BOUND_PCT: f64 = 10.0;
/// Bound, percent, on flight-summary latency statistics: they are simulated
/// integer nanoseconds, so any growth is a real scheduling change.
pub const FLIGHT_BOUND_PCT: f64 = 0.0;
/// Upper bound on `scope_overhead_pct` — hfta-scope must stay under 5% of
/// a fused training step.
pub const SCOPE_OVERHEAD_BUDGET_PCT: f64 = 5.0;
/// Maximum |base − candidate| on a model's final loss in a run report.
pub const LOSS_TOL: f64 = 1e-6;

/// How one field of a record takes part in a diff.
#[derive(Debug, Clone, Copy)]
pub enum Gate {
    /// Part of the record's identity (appears in [`Schema::key`]).
    Key,
    /// Higher is better: may not fall more than this percent below base.
    Higher(f64),
    /// Lower is better: may not rise more than this percent above base.
    Lower(f64),
    /// The candidate value may not exceed this absolute cap, whatever the
    /// base says.
    AtMost(f64),
    /// Must equal the base value.
    Exact,
    /// The candidate value must be `true`.
    MustBeTrue,
    /// Never gated.
    Info,
    /// A list of records matched by key and diffed field by field.
    Records(&'static Schema),
    /// Like [`Gate::Records`], but a candidate whose list is empty could
    /// not measure it on its host (thread scaling on one CPU) and is not
    /// gated.
    OptionalRecords(&'static Schema),
}

/// The absolute zero-tolerance claim (`steady_fresh_allocs`).
pub const MUST_BE_ZERO: Gate = Gate::AtMost(0.0);

/// The gate table of one record shape.
#[derive(Debug)]
pub struct Schema {
    /// Human name of the document kind, for error messages.
    pub name: &'static str,
    /// Diff-key template: literal text with `{field}` holes.
    pub key: &'static str,
    /// Every field the record serializes, with its gate.
    pub fields: &'static [(&'static str, Gate)],
}

use Gate::{Exact, Higher, Info, Key, Lower, MustBeTrue, OptionalRecords, Records};

/// A typed record document that knows its own gate table.
pub trait Record: Serialize + Deserialize {
    /// The gate of every field this type serializes.
    fn schema() -> &'static Schema;
}

/// Declares a record struct and its gate table in one place: every field
/// names its gate where it is declared, so a field cannot be added to the
/// format without deciding how it gates.
macro_rules! record {
    (
        $(#[$meta:meta])*
        struct $name:ident, $schema:ident = ($label:literal, $key:literal) {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty => $gate:expr,)*
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$fmeta])* pub $field: $ty,)*
        }

        #[doc = concat!("Gate table of [`", stringify!($name), "`].")]
        pub static $schema: Schema = Schema {
            name: $label,
            key: $key,
            fields: &[$((stringify!($field), $gate),)*],
        };

        impl Record for $name {
            fn schema() -> &'static Schema {
                &$schema
            }
        }
    };
}

const FLIGHT_US: Gate = Lower(FLIGHT_BOUND_PCT);

// ---------------------------------------------------------------------------
// BENCH_kernels.json
// ---------------------------------------------------------------------------

record! {
    /// One timed (op, shape, backend, threads) cell.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct KernelRecord, KERNEL_RECORD = ("kernel record", "{op}/{shape}/{backend}@{threads}T") {
        /// Operator (`gemm`, `fused_conv_training_step`).
        op: String => Key,
        /// Shape label.
        shape: String => Key,
        /// GEMM dispatch name (`auto`, the only one).
        backend: String => Key,
        /// Worker threads the cell ran at.
        threads: u64 => Key,
        /// Best mean nanoseconds per iteration.
        ns_per_iter: f64 => Info,
        /// Attained GFLOP/s.
        gflops: f64 => Higher(BENCH_BOUND_PCT),
        /// Bytes moved per iteration (operand reads + result writes) — what
        /// roofline classification needs alongside the FLOPs.
        bytes_per_iter: f64 => Info,
    }
}

record! {
    /// Thread-scaling quality of the default dispatch on one shape.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct ScalingRecord, SCALING_RECORD = ("scaling record", "scaling:{op}/{shape}") {
        /// Operator.
        op: String => Key,
        /// Shape label.
        shape: String => Key,
        /// The multi-thread count of the ratio (`min(4, host_cpus)`).
        threads: u64 => Info,
        /// GFLOP/s at `threads` over 1 thread; `threads` would be
        /// perfect scaling, below 1.0 means threading actively hurts.
        scaling_efficiency: f64 => Higher(BENCH_BOUND_PCT),
    }
}

record! {
    /// The `BENCH_kernels.json` document.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct KernelsFile, KERNELS = ("kernel bench file", "") {
        /// CPUs the host exposes; no record has more threads than this.
        host_cpus: u64 => Info,
        /// The host CPU's model name (`unknown` where `/proc/cpuinfo` has
        /// none).
        cpu_model: String => Info,
        /// Whether `auto` ran the AVX2/FMA kernels (false: the portable
        /// `mul_add` twins — same bits, far fewer GFLOP/s).
        simd_available: bool => Info,
        /// Every timed cell.
        records: Vec<KernelRecord> => Records(&KERNEL_RECORD),
        /// Per-shape thread scaling (empty on a 1-CPU host).
        scaling_efficiency: Vec<ScalingRecord> => OptionalRecords(&SCALING_RECORD),
        /// Untraced hfta-scope cost on a fused DCGAN-style training step,
        /// percent. `after_step`'s parameter pass runs only under a
        /// profiler, so it is not in this figure.
        scope_overhead_pct: f64 => Gate::AtMost(SCOPE_OVERHEAD_BUDGET_PCT),
    }
}

// ---------------------------------------------------------------------------
// BENCH_mem.json
// ---------------------------------------------------------------------------

record! {
    /// One (model, B) footprint measurement.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct MemRecord, MEM_RECORD = ("memory record", "mem:{model}/B={b}") {
        /// Model family driving the session.
        model: String => Key,
        /// Fused array width.
        b: u64 => Key,
        /// Warm-up steps excluded from the steady-state allocation window.
        warm_steps: u64 => Info,
        /// Steps inside the steady-state allocation window.
        measured_steps: u64 => Info,
        /// Peak accounted footprint of the fused session (live + pooled
        /// free), in bytes.
        peak_bytes: u64 => Lower(BENCH_BOUND_PCT),
        /// B × the measured B = 1 peak — what B separate processes would
        /// pay.
        serial_peak_bytes: u64 => Info,
        /// `serial_peak_bytes / peak_bytes`; > 1 means fusion saves memory.
        savings_ratio: f64 => Higher(BENCH_BOUND_PCT),
        /// Fresh heap allocations during the measured steps.
        steady_fresh_allocs: u64 => MUST_BE_ZERO,
        /// Pool reuses during the measured steps (shows recycling is
        /// active).
        steady_pool_reuses: u64 => Info,
    }
}

record! {
    /// The `BENCH_mem.json` document.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct MemReport, MEM = ("memory bench file", "") {
        /// All (model, B) measurements.
        records: Vec<MemRecord> => Records(&MEM_RECORD),
    }
}

// ---------------------------------------------------------------------------
// BENCH_serve.json
// ---------------------------------------------------------------------------

/// Gate table of [`ServeReport`], the per-policy record `hfta-serve`
/// defines (so its fields cannot be declared through `record!`; the
/// completeness test keeps the two lists in step).
static SERVE_RECORD: Schema = Schema {
    name: "serve record",
    key: "serve:{policy}",
    fields: &[
        ("policy", Key),
        ("sweeps", Info),
        ("trials", Info),
        ("finished", Info),
        ("stopped", Info),
        ("killed", Info),
        ("cancelled", Info),
        ("makespan_s", Info),
        ("device_hours", Info),
        ("occupancy", Higher(BENCH_BOUND_PCT)),
        ("packing_efficiency", Info),
        ("arrays_built", Info),
        ("preemptions", Info),
        ("checkpoints", Info),
        ("restores", Info),
        ("lanes_migrated", Info),
        ("max_width", Info),
        ("queue_wait_p50_us", Lower(BENCH_BOUND_PCT)),
        ("queue_wait_p99_us", Lower(BENCH_BOUND_PCT)),
        ("e2e_latency_p50_us", Info),
        ("e2e_latency_p99_us", Info),
        ("queue_us", Info),
        ("compute_us", Info),
        ("surgery_us", Info),
        ("quarantine_us", Info),
    ],
};

record! {
    /// The `BENCH_serve.json` document.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct ServeFile, SERVE = ("serve bench file", "") {
        /// Producer name (`bench_serve`).
        name: String => Info,
        /// Trials in the replayed stream.
        trials: u64 => Info,
        /// Fleet size.
        devices: u64 => Info,
        /// Simulated arrival span, seconds.
        span_s: f64 => Info,
        /// One record per admission policy (unique `policy` keys).
        records: Vec<ServeReport> => Records(&SERVE_RECORD),
        /// The kill-and-restart fair-share leg (same policy key as the
        /// uninterrupted one, so kept out of `records`).
        restart: ServeReport => Info,
        /// Static / fair-share makespan ratio.
        fair_share_speedup_vs_static: f64 => Info,
        /// Fair-share p99 queue-wait improvement over static, percent.
        fair_share_p99_queue_wait_improvement_pct: f64 => Info,
        /// Whether the restarted leg settled bit-identically.
        restart_bit_identical: bool => Info,
    }
}

// ---------------------------------------------------------------------------
// BENCH_plan.json
// ---------------------------------------------------------------------------

record! {
    /// One execution plan's simulated cost.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct PlanRecord, PLAN_RECORD = ("plan record", "plan:{plan}") {
        /// Plan label (`serial`, `partial-fusion`).
        plan: String => Key,
        /// Simulated V100 step time (deterministic). Host wall-clock is
        /// printed to stdout only: it is machine- and load-dependent, and
        /// keeping it out of the file is what makes `BENCH_plan.json`
        /// byte-identical across runs and thread counts.
        sim_step_us: f64 => Lower(BENCH_BOUND_PCT),
    }
}

record! {
    /// The `BENCH_plan.json` document.
    #[derive(Debug, Clone, Serialize, Deserialize)]
    struct PlanFile, PLAN = ("plan bench file", "") {
        /// Producer name (`bench_plan`).
        name: String => Info,
        /// Device model the plans are priced on.
        device: String => Info,
        /// Sweep lanes.
        lanes: u64 => Info,
        /// Timed training steps.
        steps: u64 => Info,
        /// Base channel width.
        width: u64 => Info,
        /// Batch size.
        batch: u64 => Info,
        /// Fraction of lane-ops the planner fused. Pure planner output: any
        /// shrink means the planner now fuses less of the same sweep.
        fused_fraction: f64 => Higher(0.0),
        /// Widest fused block.
        max_fused_width: u64 => Info,
        /// One record per execution plan (unique `plan` keys).
        records: Vec<PlanRecord> => Records(&PLAN_RECORD),
        /// Simulated serial / planned step-time ratio (the headline gate).
        partial_fusion_speedup: f64 => Higher(BENCH_BOUND_PCT),
        /// Whether planned execution matched serial bit-for-bit.
        bit_identical: bool => MustBeTrue,
    }
}

// ---------------------------------------------------------------------------
// Flight summary (`hfta_report flight --out`)
// ---------------------------------------------------------------------------

record! {
    /// Per-experiment SLO aggregate: deterministic, machine-independent
    /// numbers only (counts and simulated-time statistics).
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct ExpSlo, EXP_SLO = ("flight experiment", "{name}") {
        /// Experiment scope (policy) name.
        name: String => Key,
        /// Trials with a complete causal timeline.
        trials: u64 => Exact,
        /// Trials that completed the final rung.
        completed: u64 => Exact,
        /// Trials evicted (early-stopped or sentinel-killed).
        evicted: u64 => Exact,
        /// Trials with at least one sentinel fault.
        faulted: u64 => Exact,
        /// Fleet-wide p50 queue wait, simulated µs (exact nearest-rank).
        queue_wait_p50_us: f64 => FLIGHT_US,
        /// Fleet-wide p95 queue wait, simulated µs.
        queue_wait_p95_us: f64 => Info,
        /// Fleet-wide p99 queue wait, simulated µs.
        queue_wait_p99_us: f64 => FLIGHT_US,
        /// Fleet-wide p50 end-to-end latency, simulated µs.
        e2e_p50_us: f64 => FLIGHT_US,
        /// Fleet-wide p95 end-to-end latency, simulated µs.
        e2e_p95_us: f64 => Info,
        /// Fleet-wide p99 end-to-end latency, simulated µs.
        e2e_p99_us: f64 => FLIGHT_US,
        /// Summed queue-wait time across trials, simulated µs.
        queue_us: f64 => FLIGHT_US,
        /// Summed rung-compute time, simulated µs.
        compute_us: f64 => FLIGHT_US,
        /// Summed surgery (extract→re-dispatch) time, simulated µs.
        surgery_us: f64 => FLIGHT_US,
        /// Summed quarantine (fault→evict) time, simulated µs.
        quarantine_us: f64 => FLIGHT_US,
    }
}

record! {
    /// The serializable summary `hfta_report flight --out` writes.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct FlightSummary, FLIGHT = ("flight summary", "") {
        /// Summary schema version.
        schema: u64 => Exact,
        /// One aggregate per experiment scope, sorted by name.
        experiments: Vec<ExpSlo> => Records(&EXP_SLO),
    }
}

/// Current [`FlightSummary::schema`].
pub const FLIGHT_SCHEMA: u64 = 1;

// ---------------------------------------------------------------------------
// Run summary (`hfta_report summarize`)
// ---------------------------------------------------------------------------

/// What the run-report diff reads of the scalar streams of one metric,
/// as parallel columns (one row per line would put the goldens over
/// their size budget: a sweep has four streams per trial).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricStreams {
    /// Metric name.
    pub metric: String,
    /// Model index of each stream, in report order.
    pub models: Vec<u64>,
    /// Number of recorded points of each stream.
    pub points: Vec<u64>,
    /// `f64::to_bits` of each stream's last point — for the `loss` metric
    /// only (the only value the diff compares), empty otherwise.
    pub final_loss_bits: Vec<u64>,
}

/// One row of [`MetricStreams`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSummary<'a> {
    /// Model index within the fused array.
    pub model: u64,
    /// Metric name.
    pub metric: &'a str,
    /// Number of recorded points.
    pub points: u64,
    /// The last point of a `loss` stream.
    pub final_loss: Option<f64>,
}

/// Identity of one sentinel event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SentinelKey {
    /// Training step the fault was detected at.
    pub step: u64,
    /// Model index the fault is attributed to.
    pub model: u64,
    /// What tripped the sentinel.
    pub kind: SentinelKind,
    /// Whether the model was quarantined in response.
    pub quarantined: bool,
}

/// One experiment scope of a [`RunSummary`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpSummary {
    /// Experiment name.
    pub name: String,
    /// The scalar streams, grouped by metric in first-seen order.
    pub metrics: Vec<MetricStreams>,
    /// Sentinel events, in report order.
    pub sentinels: Vec<SentinelKey>,
}

impl ExpSummary {
    /// Every scalar stream, metric by metric.
    pub fn streams(&self) -> impl Iterator<Item = StreamSummary<'_>> {
        self.metrics.iter().flat_map(|m| {
            m.models
                .iter()
                .enumerate()
                .map(move |(i, &model)| StreamSummary {
                    model,
                    metric: &m.metric,
                    points: m.points[i],
                    final_loss: m.final_loss_bits.get(i).map(|&b| f64::from_bits(b)),
                })
        })
    }
}

/// Exactly the fields of a [`RunReport`] that `hfta_report diff` gates —
/// the format of the committed `ci/golden/*.report.json` files.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Run name (usually the bin name).
    pub name: String,
    /// One entry per experiment scope, in execution order.
    pub experiments: Vec<ExpSummary>,
}

impl RunSummary {
    /// Reduces a full report to its gated fields.
    pub fn of(run: &RunReport) -> RunSummary {
        let experiment = |e: &hfta_telemetry::ExperimentReport| {
            let mut metrics: Vec<MetricStreams> = Vec::new();
            for s in &e.scalars {
                let i = metrics
                    .iter()
                    .position(|m| m.metric == s.metric)
                    .unwrap_or_else(|| {
                        metrics.push(MetricStreams {
                            metric: s.metric.clone(),
                            models: Vec::new(),
                            points: Vec::new(),
                            final_loss_bits: Vec::new(),
                        });
                        metrics.len() - 1
                    });
                metrics[i].models.push(s.model);
                metrics[i].points.push(s.points.len() as u64);
                if s.metric == "loss" {
                    let last = s.last().unwrap_or(f64::NAN);
                    metrics[i].final_loss_bits.push(last.to_bits());
                }
            }
            ExpSummary {
                name: e.name.clone(),
                metrics,
                sentinels: e
                    .sentinels
                    .iter()
                    .map(|s| SentinelKey {
                        step: s.step,
                        model: s.model,
                        kind: s.kind,
                        quarantined: s.quarantined,
                    })
                    .collect(),
            }
        };
        RunSummary {
            name: run.name.clone(),
            experiments: run.experiments.iter().map(experiment).collect(),
        }
    }

    /// Parses and checks a serialized summary: the columns of each metric
    /// must be parallel.
    fn parse(v: &Value) -> Result<RunSummary, String> {
        let run = RunSummary::deserialize(v).map_err(|e| e.to_string())?;
        for m in run.experiments.iter().flat_map(|e| &e.metrics) {
            let bits = m.final_loss_bits.len();
            if m.points.len() != m.models.len() || (bits != 0 && bits != m.models.len()) {
                return Err(format!("`{}` columns differ in length", m.metric));
            }
        }
        Ok(run)
    }
}

// ---------------------------------------------------------------------------
// Loading
// ---------------------------------------------------------------------------

/// A parsed record document: a value tree known to carry every field its
/// schema declares (it went through the typed struct).
#[derive(Debug)]
pub struct Doc {
    schema: &'static Schema,
    value: Value,
}

impl Doc {
    /// Pairs a typed document with its gate table.
    pub fn of<T: Record>(doc: &T) -> Doc {
        Doc {
            schema: T::schema(),
            value: doc.serialize(),
        }
    }

    /// The document kind's human name.
    pub fn kind(&self) -> &'static str {
        self.schema.name
    }
}

/// A parsed file of any kind `hfta_report diff` accepts.
#[derive(Debug)]
pub enum Loaded {
    /// A run report, full or already summarized.
    Run(RunSummary),
    /// A bench file or flight summary.
    Records(Doc),
}

fn typed<T: Record>(v: &Value) -> Result<Doc, String> {
    let doc = T::deserialize(v).map_err(|e| format!("bad {}: {e}", T::schema().name))?;
    Ok(Doc::of(&doc))
}

type Parse = fn(&Value) -> Result<Doc, String>;

/// Record-document kinds by the top-level field that marks them, first
/// match wins.
static KINDS: &[(&str, Parse)] = &[
    ("schema", typed::<FlightSummary>),
    ("scope_overhead_pct", typed::<KernelsFile>),
    ("partial_fusion_speedup", typed::<PlanFile>),
    ("restart", typed::<ServeFile>),
    ("records", typed::<MemReport>),
];

/// Parses report JSON, detecting the file kind from its top-level fields.
///
/// # Errors
///
/// Returns a message when the text is not JSON, matches no kind, or lacks
/// a field its kind declares (the message names the field).
pub fn load(text: &str) -> Result<Loaded, String> {
    let v: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    if v.get("trace_events").is_some() {
        let run = RunReport::deserialize(&v).map_err(|e| format!("bad run report: {e}"))?;
        return Ok(Loaded::Run(RunSummary::of(&run)));
    }
    if let Some((_, parse)) = KINDS.iter().find(|(marker, _)| v.get(marker).is_some()) {
        return parse(&v).map(Loaded::Records);
    }
    if v.get("experiments").is_some() {
        let run = RunSummary::parse(&v).map_err(|e| format!("bad run summary: {e}"))?;
        return Ok(Loaded::Run(run));
    }
    Err(
        "unrecognized report: expected a run report, run summary, bench file or flight summary"
            .into(),
    )
}

// ---------------------------------------------------------------------------
// Diffing
// ---------------------------------------------------------------------------

/// Outcome of a diff: informational lines plus gating regressions.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// Informational comparison lines (printed as-is).
    pub lines: Vec<String>,
    /// Regressions that should fail the comparison (non-zero exit).
    pub regressions: Vec<String>,
}

impl DiffOutcome {
    /// Whether any gated regression was found.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }

    /// Records an informational line.
    pub fn note(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Records a gating regression.
    pub fn regress(&mut self, s: String) {
        self.regressions.push(s);
    }
}

fn show(v: &Value) -> String {
    match v {
        Value::Str(s) => s.clone(),
        Value::U64(n) => n.to_string(),
        Value::I64(n) => n.to_string(),
        Value::F64(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        other => other.kind().to_string(),
    }
}

fn number(v: &Value) -> f64 {
    match v {
        Value::F64(n) => *n,
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        _ => f64::NAN,
    }
}

fn field<'a>(record: &'a Value, name: &str) -> &'a Value {
    record
        .get(name)
        .expect("a Doc carries every field its schema declares")
}

/// Fills the `{field}` holes of a key template from `record`.
fn render_key(template: &str, record: &Value) -> String {
    let mut out = String::new();
    let mut rest = template;
    while let Some((lit, tail)) = rest.split_once('{') {
        let (name, tail) = tail.split_once('}').expect("balanced key template");
        out.push_str(lit);
        out.push_str(&show(field(record, name)));
        rest = tail;
    }
    out + rest
}

fn rows<'a>(schema: &Schema, list: &'a Value) -> Vec<(String, &'a Value)> {
    match list {
        Value::Array(items) => items
            .iter()
            .map(|r| (render_key(schema.key, r), r))
            .collect(),
        _ => Vec::new(),
    }
}

fn diff_list(schema: &Schema, base: &Value, cand: &Value, optional: bool, out: &mut DiffOutcome) {
    let (base_rows, cand_rows) = (rows(schema, base), rows(schema, cand));
    if optional && cand_rows.is_empty() {
        return;
    }
    for (key, b) in &base_rows {
        match cand_rows.iter().find(|(k, _)| k == key) {
            Some((_, c)) => diff_fields(schema, key, b, c, out),
            None => out.regress(format!("{key}: record missing from candidate")),
        }
    }
    for (key, _) in &cand_rows {
        if !base_rows.iter().any(|(k, _)| k == key) {
            out.note(format!("{key}: only in candidate (not gated)"));
        }
    }
}

fn diff_fields(schema: &Schema, key: &str, base: &Value, cand: &Value, out: &mut DiffOutcome) {
    for &(name, gate) in schema.fields {
        let label = if key.is_empty() {
            name.to_string()
        } else {
            format!("{key} {name}")
        };
        let (bv, cv) = (field(base, name), field(cand, name));
        let (b, c) = (number(bv), number(cv));
        // Signed change relative to the base, percent; NaN on either side
        // fails every `within` test below, so it regresses.
        let change = if c == b {
            0.0
        } else {
            (c - b) / b.abs() * 100.0
        };
        let within = |lo: f64, hi: f64| lo <= change && change <= hi;
        match gate {
            Key | Info => {}
            Records(inner) => diff_list(inner, bv, cv, false, out),
            OptionalRecords(inner) => diff_list(inner, bv, cv, true, out),
            Higher(pct) if !within(-pct, f64::INFINITY) => out.regress(format!(
                "{label}: {c} is {:.3}% below baseline {b} (bound {pct}%)",
                -change
            )),
            Lower(pct) if !within(f64::NEG_INFINITY, pct) => out.regress(format!(
                "{label}: {c} is {change:.3}% above baseline {b} (bound {pct}%)"
            )),
            Higher(_) | Lower(_) => out.note(format!("{label}: {c} vs {b} ({change:+.1}%)")),
            Gate::AtMost(cap) if c.is_nan() || c > cap => {
                out.regress(format!("{label}: {c} exceeds the bound {cap}"))
            }
            Gate::AtMost(cap) => out.note(format!("{label}: {c} (bound {cap})")),
            Exact if bv != cv => {
                out.regress(format!("{label}: changed {} -> {}", show(bv), show(cv)))
            }
            Exact => out.note(format!("{label}: {}", show(bv))),
            MustBeTrue if *cv != Value::Bool(true) => {
                out.regress(format!("{label}: {} (must be true)", show(cv)))
            }
            MustBeTrue => out.note(format!("{label}: true")),
        }
    }
}

/// Diffs two documents of the same kind, record by record and field by
/// field, each field by the gate its schema declares.
///
/// # Errors
///
/// Returns a message when the two documents are of different kinds.
pub fn diff_records(base: &Doc, cand: &Doc) -> Result<DiffOutcome, String> {
    if !std::ptr::eq(base.schema, cand.schema) {
        return Err(format!(
            "cannot diff a {} against a {}",
            base.kind(),
            cand.kind()
        ));
    }
    let mut out = DiffOutcome::default();
    diff_fields(base.schema, "", &base.value, &cand.value, &mut out);
    Ok(out)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn serve_report(policy: &str, p50: f64, p99: f64, occupancy: f64) -> ServeReport {
        ServeReport {
            policy: policy.into(),
            sweeps: 8,
            trials: 64,
            finished: 8,
            stopped: 50,
            killed: 6,
            cancelled: 0,
            makespan_s: 0.05,
            device_hours: 4e-5,
            occupancy,
            packing_efficiency: 0.9,
            arrays_built: 30,
            preemptions: 4,
            checkpoints: 12,
            restores: 3,
            lanes_migrated: 20,
            max_width: 8,
            queue_wait_p50_us: p50,
            queue_wait_p99_us: p99,
            e2e_latency_p50_us: 9000.0,
            e2e_latency_p99_us: 30000.0,
            queue_us: 40000.0,
            compute_us: 90000.0,
            surgery_us: 7000.0,
            quarantine_us: 100.0,
        }
    }

    /// A kernel bench file: a fixed `auto@1T` row plus one `auto@4T` row at
    /// `gflops`, scaling efficiency 3.0 on two shapes, scope overhead 1%.
    pub(crate) fn kernels_file(gflops: f64) -> KernelsFile {
        let record = |threads: u64, gflops: f64| KernelRecord {
            op: "gemm".into(),
            shape: "a".into(),
            backend: "auto".into(),
            threads,
            ns_per_iter: 10.0,
            gflops,
            bytes_per_iter: 49152.0,
        };
        KernelsFile {
            host_cpus: 4,
            cpu_model: "test".into(),
            simd_available: true,
            records: vec![record(1, 20.0), record(4, gflops)],
            scaling_efficiency: ["a", "b"]
                .map(|shape| ScalingRecord {
                    op: "gemm".into(),
                    shape: shape.into(),
                    threads: 4,
                    scaling_efficiency: 3.0,
                })
                .to_vec(),
            scope_overhead_pct: 1.0,
        }
    }

    /// A memory bench file: a fixed `dcgan_d` B=1 row plus a B=4 row with
    /// the given fields.
    pub(crate) fn mem_report(peak_bytes: u64, savings_ratio: f64, fresh: u64) -> MemReport {
        let record = |b: u64, peak_bytes, savings_ratio, steady_fresh_allocs| MemRecord {
            model: "dcgan_d".into(),
            b,
            warm_steps: 2,
            measured_steps: 2,
            peak_bytes,
            serial_peak_bytes: b * 100_000,
            savings_ratio,
            steady_fresh_allocs,
            steady_pool_reuses: 300,
        };
        MemReport {
            records: vec![
                record(1, 100_000, 1.0, 0),
                record(4, peak_bytes, savings_ratio, fresh),
            ],
        }
    }

    /// A serve bench file: a fixed `static` row plus a `fair-share` row
    /// with the given SLOs.
    pub(crate) fn serve_file(p50: f64, p99: f64, occupancy: f64) -> ServeFile {
        ServeFile {
            name: "bench_serve".into(),
            trials: 64,
            devices: 4,
            span_s: 0.025,
            records: vec![
                serve_report("static", 900.0, 4000.0, 0.5),
                serve_report("fair-share", p50, p99, occupancy),
            ],
            restart: serve_report("fair-share", p50, p99, occupancy),
            fair_share_speedup_vs_static: 1.2,
            fair_share_p99_queue_wait_improvement_pct: 30.0,
            restart_bit_identical: true,
        }
    }

    /// A plan bench file: a fixed `serial` row plus a `partial-fusion` row
    /// at `fused_us`.
    pub(crate) fn plan_file(fused_us: f64, speedup: f64, fraction: f64, ok: bool) -> PlanFile {
        let record = |plan: &str, sim_step_us| PlanRecord {
            plan: plan.into(),
            sim_step_us,
        };
        PlanFile {
            name: "bench_plan".into(),
            device: "V100".into(),
            lanes: 4,
            steps: 3,
            width: 8,
            batch: 2,
            fused_fraction: fraction,
            max_fused_width: 4,
            records: vec![
                record("serial", 34607.5),
                record("partial-fusion", fused_us),
            ],
            partial_fusion_speedup: speedup,
            bit_identical: ok,
        }
    }

    /// One well-formed document of every record kind.
    fn samples() -> Vec<Doc> {
        let slo = |name: &str| ExpSlo {
            name: name.into(),
            trials: 48,
            completed: 8,
            evicted: 40,
            faulted: 5,
            queue_wait_p50_us: 4895.625,
            queue_wait_p95_us: 14358.585,
            queue_wait_p99_us: 14358.585,
            e2e_p50_us: 14358.586,
            e2e_p95_us: 27637.64,
            e2e_p99_us: 27637.64,
            queue_us: 304477.263,
            compute_us: 378993.176,
            surgery_us: 44060.618,
            quarantine_us: 12.5,
        };
        vec![
            Doc::of(&kernels_file(100.0)),
            Doc::of(&mem_report(300_000, 1.33, 0)),
            Doc::of(&serve_file(500.0, 2000.0, 0.6)),
            Doc::of(&plan_file(12417.7, 2.79, 0.824, true)),
            Doc::of(&FlightSummary {
                schema: FLIGHT_SCHEMA,
                experiments: vec![slo("elastic"), slo("serial")],
            }),
        ]
    }

    /// `(list field, row)` of a record inside a document; `None` = the
    /// document's own top-level fields.
    type Place = Option<(&'static str, usize)>;

    /// Every field of `doc` with its place, diff key and gate.
    fn fields_of(doc: &Doc) -> Vec<(Place, String, &'static str, Gate)> {
        let mut out = Vec::new();
        for &(name, gate) in doc.schema.fields {
            out.push((None, String::new(), name, gate));
            if let Records(inner) | OptionalRecords(inner) = gate {
                for (i, (key, _)) in rows(inner, field(&doc.value, name)).iter().enumerate() {
                    for &(f, g) in inner.fields {
                        out.push((Some((name, i)), key.clone(), f, g));
                    }
                }
            }
        }
        out
    }

    fn object_mut(v: &mut Value) -> &mut Vec<(String, Value)> {
        match v {
            Value::Object(fields) => fields,
            other => panic!("expected object, found {}", other.kind()),
        }
    }

    fn slot<'a>(v: &'a mut Value, name: &str) -> &'a mut Value {
        let fields = object_mut(v);
        &mut fields.iter_mut().find(|(k, _)| k == name).unwrap().1
    }

    /// A copy of `doc` with `field` at `place` replaced by `new`.
    fn with(doc: &Doc, place: Place, field: &str, new: Value) -> Doc {
        let mut value = doc.value.clone();
        let record = match place {
            None => &mut value,
            Some((list, i)) => match slot(&mut value, list) {
                Value::Array(items) => &mut items[i],
                other => panic!("expected array, found {}", other.kind()),
            },
        };
        *slot(record, field) = new;
        Doc {
            schema: doc.schema,
            value,
        }
    }

    #[test]
    fn every_gated_field_regresses_past_its_bound_and_only_in_the_bad_direction() {
        for doc in samples() {
            let clean = diff_records(&doc, &doc).unwrap();
            assert!(
                !clean.regressed(),
                "{}: {:?}",
                doc.kind(),
                clean.regressions
            );
            for (place, key, name, gate) in fields_of(&doc) {
                let record = match place {
                    None => &doc.value,
                    Some((list, i)) => rows(&MEM, field(&doc.value, list))[i].1,
                };
                let b = number(field(record, name));
                // (bad candidate value, good candidate value)
                let (bad, good) = match gate {
                    Higher(pct) => (b * (1.0 - (pct + 5.0) / 100.0), b * 1.5),
                    Lower(pct) => (b * (1.0 + (pct + 5.0) / 100.0), b * 0.5),
                    Gate::AtMost(cap) => (cap + 1.0, cap),
                    Exact => (b + 1.0, b),
                    MustBeTrue | Key | Info | Records(_) | OptionalRecords(_) => (b, b),
                };
                let label = format!("{key} {name}");
                let label = label.trim_start();
                let (bad, good) = match gate {
                    MustBeTrue => (Value::Bool(false), Value::Bool(true)),
                    Exact => (Value::F64(bad), field(record, name).clone()),
                    _ => (Value::F64(bad), Value::F64(good)),
                };
                let gated = !matches!(gate, Key | Info | Records(_) | OptionalRecords(_));
                if !gated {
                    continue;
                }
                let out = diff_records(&doc, &with(&doc, place, name, bad)).unwrap();
                assert_eq!(out.regressions.len(), 1, "{label}: {:?}", out.regressions);
                assert!(
                    out.regressions[0].starts_with(&format!("{label}:")),
                    "{label}: {:?}",
                    out.regressions
                );
                let out = diff_records(&doc, &with(&doc, place, name, good)).unwrap();
                assert!(!out.regressed(), "{label}: {:?}", out.regressions);
            }
        }
    }

    #[test]
    fn info_fields_never_gate() {
        for doc in samples() {
            for (place, key, name, gate) in fields_of(&doc) {
                if matches!(gate, Info) {
                    let cand = with(&doc, place, name, Value::F64(-1e9));
                    let out = diff_records(&doc, &cand).unwrap();
                    assert!(!out.regressed(), "{key} {name}: {:?}", out.regressions);
                }
            }
        }
    }

    #[test]
    fn a_missing_record_regresses_and_a_new_one_only_notes() {
        for doc in samples() {
            for &(name, gate) in doc.schema.fields {
                let (Records(inner) | OptionalRecords(inner)) = gate else {
                    continue;
                };
                let list = rows(inner, field(&doc.value, name));
                let (gone_key, _) = &list[0];
                let rest: Vec<Value> = list[1..].iter().map(|(_, r)| (*r).clone()).collect();
                let fewer = with(&doc, None, name, Value::Array(rest));
                let out = diff_records(&doc, &fewer).unwrap();
                assert_eq!(
                    out.regressions,
                    vec![format!("{gone_key}: record missing from candidate")]
                );
                // The other direction: the extra record is informational.
                let out = diff_records(&fewer, &doc).unwrap();
                assert!(!out.regressed(), "{:?}", out.regressions);
                assert!(out.lines.iter().any(|l| l.contains("only in candidate")));
            }
        }
    }

    #[test]
    fn an_empty_optional_list_is_not_gated() {
        let kernels = &samples()[0];
        let cand = with(kernels, None, "scaling_efficiency", Value::Array(vec![]));
        let out = diff_records(kernels, &cand).unwrap();
        assert!(!out.regressed(), "{:?}", out.regressions);
        // The required list beside it is.
        let cand = with(kernels, None, "records", Value::Array(vec![]));
        assert_eq!(diff_records(kernels, &cand).unwrap().regressions.len(), 2);
    }

    #[test]
    fn non_finite_candidates_regress() {
        let plan = &samples()[3];
        let cand = with(plan, Some(("records", 0)), "sim_step_us", Value::Null);
        let out = diff_records(plan, &cand).unwrap();
        assert_eq!(out.regressions.len(), 1, "{:?}", out.regressions);
    }

    fn declared(schema: &Schema, value: &Value) {
        let Value::Object(fields) = value else {
            panic!("{} is not an object", schema.name);
        };
        let emitted: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let listed: Vec<&str> = schema.fields.iter().map(|(n, _)| *n).collect();
        assert_eq!(emitted, listed, "{}: emitted vs declared", schema.name);
        for &(name, gate) in schema.fields {
            let in_key = schema.key.contains(&format!("{{{name}}}"));
            assert_eq!(in_key, matches!(gate, Key), "{} `{name}`", schema.name);
            if let Records(inner) | OptionalRecords(inner) = gate {
                for (_, row) in rows(inner, field(value, name)) {
                    declared(inner, row);
                }
            }
        }
    }

    /// A field added to a record struct without a gate (or the reverse)
    /// fails here, so nothing ships ungated by omission.
    #[test]
    fn every_emitted_field_is_declared_in_its_gate_table() {
        for doc in samples() {
            declared(doc.schema, &doc.value);
        }
    }

    #[test]
    fn load_detects_every_kind_and_round_trips_it() {
        for doc in samples() {
            let text = serde_json::to_string_pretty(&doc.value).unwrap();
            let Ok(Loaded::Records(loaded)) = load(&text) else {
                panic!("{} did not load as records", doc.kind());
            };
            assert!(std::ptr::eq(loaded.schema, doc.schema), "{}", doc.kind());
            assert_eq!(loaded.value, doc.value);
        }
        let run = r#"{"name": "x", "wall_ms": 1.0, "trace_events": 0, "experiments": []}"#;
        assert!(matches!(load(run), Ok(Loaded::Run(_))));
        let summary = r#"{"name": "x", "experiments": []}"#;
        assert!(matches!(load(summary), Ok(Loaded::Run(_))));
        assert!(load(r#"{"something": 1}"#).is_err());
        assert!(load("not json").is_err());
    }

    #[test]
    fn a_file_the_schema_cannot_parse_is_an_error_naming_the_field() {
        // The same field renamed on both sides used to drop every record
        // from the diff and report `no regressions`.
        let serve = serde_json::to_string(&samples()[2].value).unwrap();
        let renamed = serve.replace("\"occupancy\"", "\"occupancy_ratio\"");
        let err = load(&renamed).unwrap_err();
        assert!(err.contains("occupancy"), "{err}");
        // Likewise a kernel record predating the backend/threads columns.
        let old = r#"{"records": [{"op": "gemm", "shape": "64x64", "ns_per_iter": 10.0,
            "gflops": 100.0}], "scaling_efficiency": [],
            "scope_overhead_pct": 1.0, "host_cpus": 1, "cpu_model": "x",
            "simd_available": false}"#;
        assert!(load(old).unwrap_err().contains("backend"));
    }

    #[test]
    fn documents_of_different_kinds_do_not_diff() {
        let docs = samples();
        let err = diff_records(&docs[0], &docs[1]).unwrap_err();
        assert!(err.contains("kernel bench file") && err.contains("memory bench file"));
    }
}
