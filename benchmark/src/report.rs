//! Run records as text and JSON.

use serde_json::Value;

use crate::host::HostRecord;
use crate::runner::{Measured, RunRecord, Sample};

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn measured_json(m: &Measured) -> Value {
    let mut fields = vec![
        ("value", Value::F64(m.value)),
        ("unit", Value::Str(m.unit.into())),
    ];
    if m.samples > 1 {
        fields.push(("samples", Value::U64(m.samples as u64)));
        fields.push(("spread", Value::F64(m.spread)));
        fields.push(("raw", Value::F64(m.raw)));
    }
    if let Some((p, v)) = m.tail {
        fields.push(("tail_percentile", Value::F64(p)));
        fields.push(("tail_value", Value::F64(v)));
    }
    obj(fields)
}

/// Per sample: raw work per second as the clock read it, host slowdown.
fn samples_json(samples: &[Sample]) -> Value {
    let pairs = samples
        .iter()
        .map(|s| {
            Value::Array(vec![
                Value::F64(s.work / s.secs),
                Value::F64(s.host_slowdown()),
            ])
        })
        .collect();
    Value::Array(pairs)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric a `{value, unit}` pair.
pub fn contract_line(run: &RunRecord) -> String {
    let metrics = run
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                obj(vec![
                    ("value", Value::F64(m.value)),
                    ("unit", Value::Str(m.unit.into())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(run.failed == 0)),
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("values serialize")
}

/// The full record of one run, for `--out` files and `compare`.
pub fn run_json(run: &RunRecord, host: &HostRecord) -> Value {
    obj(vec![
        ("workload", Value::Str(run.workload.into())),
        ("seed", Value::U64(run.seed)),
        ("trace", Value::Bool(run.trace)),
        ("seconds", Value::F64(run.seconds)),
        ("rounds", Value::U64(run.rounds as u64)),
        ("units_per_window", Value::U64(run.units_per_window as u64)),
        ("host", host.to_json()),
        ("host_slowdown", Value::F64(run.host_slowdown)),
        ("attempted", Value::U64(run.attempted)),
        ("failed", Value::U64(run.failed)),
        (
            "notes",
            Value::Array(run.notes.iter().map(|n| Value::Str(n.clone())).collect()),
        ),
        (
            "windows",
            Value::Object(
                run.windows
                    .iter()
                    .map(|(leg, w)| (format!("{leg:?}"), samples_json(w)))
                    .collect(),
            ),
        ),
        ("setups", samples_json(&run.setups)),
        ("recoveries", samples_json(&run.recoveries)),
        (
            "metrics",
            Value::Object(
                run.metrics
                    .iter()
                    .map(|m| (m.name.to_string(), measured_json(m)))
                    .collect(),
            ),
        ),
        (
            "unresolved",
            Value::Array(
                run.unresolved
                    .iter()
                    .map(|n| Value::Str((*n).into()))
                    .collect(),
            ),
        ),
    ])
}

/// A results file: every run of an invocation. The benchmark measures; it
/// never claims a gain, so the summary always ends with `"claim": null`.
pub fn summary_json(runs: Vec<Value>) -> Value {
    obj(vec![
        ("benchmark", Value::Str("hfta-benchmark".into())),
        ("runs", Value::Array(runs)),
        ("claim", Value::Null),
    ])
}

/// Every metric by name with its unit, one per line.
pub fn print_run(run: &RunRecord) {
    println!(
        "== {} seed={} {} rounds={} units/window={} host slowdown={:.2} ==",
        run.workload,
        run.seed,
        if run.trace { "traced" } else { "untraced" },
        run.rounds,
        run.units_per_window,
        run.host_slowdown,
    );
    for m in &run.metrics {
        print!("{:<36} {:>18.6} {}", m.name, m.value, m.unit);
        if m.samples > 1 {
            print!(
                "  (n={}, spread={:.2}%, raw={:.6}",
                m.samples,
                m.spread * 100.0,
                m.raw
            );
            if let Some((p, v)) = m.tail {
                print!(", p{p:.0}={v:.6}");
            }
            print!(")");
        }
        println!();
    }
    if !run.unresolved.is_empty() {
        println!("unresolved: {}", run.unresolved.join(", "));
    }
    println!(
        "attempted {} lane-steps, failed {}",
        run.attempted, run.failed
    );
    for note in &run.notes {
        println!("  violation: {note}");
    }
}
