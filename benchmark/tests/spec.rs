//! `BENCHMARK.json` (what the driver reads) and `spec.rs` (what the binary
//! emits) must state the same contract.

use hfta_benchmark::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use serde_json::Value;

fn contract() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    match v.get(key) {
        Some(Value::Str(s)) => s,
        other => panic!("{key}: expected a string, found {other:?}"),
    }
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => panic!("{key}: expected an array, found {other:?}"),
    }
}

#[test]
fn benchmark_json_matches_the_tables() {
    let contract = contract();
    let workloads: Vec<&str> = list(&contract, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    for w in list(&contract, "workloads") {
        assert!(
            text(w, "why").len() <= 200,
            "why of {} too long",
            text(w, "name")
        );
    }

    let e2e = list(&contract, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (got, want) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(got, "name"), want.name);
        assert_eq!(text(got, "unit"), want.unit);
        assert_eq!(text(got, "better"), want.better.as_str());
        assert_eq!(
            got.get("bound"),
            Some(&Value::F64(want.bound)),
            "{}",
            want.name
        );
        assert!(want.bound <= 0.25);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let layers = list(&contract, "per_layer");
    assert_eq!(layers.len(), PER_LAYER.len());
    assert!(layers.len() <= 128);
    for (got, want) in layers.iter().zip(&PER_LAYER) {
        assert_eq!(text(got, "name"), want.name);
        assert_eq!(text(got, "unit"), want.unit);
        assert_eq!(text(got, "better"), want.better.as_str());
    }
}

#[test]
fn names_and_units_fit_the_contract() {
    let name_ok = |n: &str| {
        n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let unit_ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    let mut seen = std::collections::BTreeSet::new();
    let all = END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .chain(WORKLOADS.iter().map(|w| (*w, "s")));
    for (name, unit) in all {
        assert!(name_ok(name), "bad name {name}");
        assert!(unit_ok(unit), "bad unit {unit} of {name}");
        assert!(seen.insert(name), "{name} used twice");
    }
}
