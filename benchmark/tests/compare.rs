//! `compare` verdicts on synthetic results.

use hfta_benchmark::compare::{compare, judge, Side, Verdict};
use hfta_benchmark::spec::end_to_end;
use serde_json::Value;

fn side(values: &[f64]) -> Side {
    Side {
        values: values.to_vec(),
        unresolved: false,
    }
}

/// Three runs around `center`, one percent apart.
fn runs(center: f64) -> Side {
    side(&[center, center * 1.01, center * 0.99])
}

#[test]
fn throughput_verdicts() {
    // Higher is better: losing half the bound is fine, twice the bound is not.
    let m = end_to_end("lane_steps_per_s").unwrap();
    let a = runs(100.0);
    assert_eq!(
        judge(m, &a, &runs(100.0 * (1.0 - 0.5 * m.bound))).3,
        Verdict::Ok
    );
    assert_eq!(judge(m, &a, &runs(120.0)).3, Verdict::Ok);
    let (ma, mb, worse_by, verdict) = judge(m, &a, &runs(100.0 * (1.0 - 2.0 * m.bound)));
    assert_eq!(ma, 100.0);
    assert!(
        (worse_by - 2.0 * m.bound).abs() < 1e-12,
        "{worse_by} vs {mb}"
    );
    assert_eq!(verdict, Verdict::Worse);
}

#[test]
fn lower_is_better_flips_the_sign() {
    let m = end_to_end("recover_ms").unwrap();
    let a = runs(10.0);
    assert_eq!(
        judge(m, &a, &runs(10.0 * (1.0 + 2.0 * m.bound))).3,
        Verdict::Worse
    );
    assert_eq!(judge(m, &a, &runs(8.0)).3, Verdict::Ok);
    assert!(judge(m, &a, &runs(8.0)).2 < 0.0);
}

#[test]
fn wide_spread_is_unresolved_not_unchanged() {
    let m = end_to_end("lane_steps_per_s").unwrap();
    // Runs of `a` range over twice the bound: the bound cannot be judged,
    // whichever way the medians fall.
    let a = side(&[100.0 * (1.0 - m.bound), 100.0, 100.0 * (1.0 + m.bound)]);
    assert_eq!(judge(m, &a, &runs(100.0)).3, Verdict::Unresolved);
    assert_eq!(judge(m, &a, &runs(50.0)).3, Verdict::Unresolved);
    // ... unless every run of `b` beats every run of `a`.
    assert_eq!(
        judge(m, &a, &runs(100.0 * (1.0 + 2.0 * m.bound))).3,
        Verdict::Ok
    );
    // A run that flagged the metric itself also blocks a verdict.
    let flagged = Side {
        values: vec![100.0, 100.0, 100.0],
        unresolved: true,
    };
    assert_eq!(judge(m, &flagged, &runs(100.0)).3, Verdict::Unresolved);
}

fn results(throughput: f64, unresolved: &[&str]) -> Value {
    let run = |trace: bool, value: f64| {
        format!(
            r#"{{"workload":"mixed_plan","trace":{trace},"metrics":{{"lane_steps_per_s":{{"value":{value},"unit":"lane-steps/s"}}}},"unresolved":[{}]}}"#,
            unresolved
                .iter()
                .map(|n| format!("\"{n}\""))
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    let text = format!(
        r#"{{"runs":[{},{},{},{}],"claim":null}}"#,
        run(false, throughput),
        run(false, throughput * 1.01),
        run(false, throughput * 0.99),
        // Traced runs never feed an end-to-end verdict.
        run(true, throughput * 0.5),
    );
    serde_json::from_str(&text).unwrap()
}

#[test]
fn compares_results_files() {
    let rows = compare(&results(200.0, &[]), &results(100.0, &[])).unwrap();
    let row = rows
        .iter()
        .find(|r| r.workload == "mixed_plan" && r.metric.name == "lane_steps_per_s")
        .unwrap();
    assert_eq!((row.a, row.b, row.verdict), (200.0, 100.0, Verdict::Worse));
    // Pairs neither file measured are not reported.
    assert_eq!(rows.len(), 1);

    // A metric one side flagged (its samples spread past the bound) is
    // unresolved, whatever the medians say.
    let rows = compare(&results(200.0, &["lane_steps_per_s"]), &results(200.0, &[])).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].verdict, Verdict::Unresolved);
    assert!(compare(&Value::Null, &results(1.0, &[])).is_err());
}
