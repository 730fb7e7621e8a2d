//! Self time is duration minus direct children; coverage is what the
//! children of a step account for.

use hfta_benchmark::trace::{chrome_trace, coverage, ledger, self_times, tail, Recorder, Span};

fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns: start,
        end_ns: end,
        parent,
        step_id: 0,
    }
}

#[test]
fn self_time_subtracts_direct_children_only() {
    let spans = vec![
        span("step", 0, 100, None),
        span("nn.forward", 10, 50, Some(0)),
        span("tensor.conv", 20, 30, Some(1)),
        span("nn.backward", 50, 90, Some(0)),
    ];
    // step: 100 - (40 + 40); forward: 40 - 10; the grandchild is not
    // subtracted from the step twice.
    assert_eq!(self_times(&spans), vec![20, 30, 10, 40]);
    let rows = ledger(&spans);
    assert_eq!(rows["step"].total_ns, 100);
    assert_eq!(rows["step"].self_ns, 20);
    assert_eq!(rows["nn.forward"].self_ns, 30);
    assert!((coverage(&spans, "step") - 0.8).abs() < 1e-12);
}

#[test]
fn ledger_sums_repeated_names() {
    let spans = vec![
        span("step", 0, 10, None),
        span("nn.forward", 0, 4, Some(0)),
        span("nn.forward", 5, 8, Some(0)),
    ];
    let rows = ledger(&spans);
    assert_eq!(rows["nn.forward"].count, 2);
    assert_eq!(rows["nn.forward"].total_ns, 7);
    assert_eq!(rows["step"].self_ns, 3);
}

#[test]
fn tail_rebases_parents() {
    let spans = vec![
        span("setup", 0, 10, None),
        span("step", 10, 20, None),
        span("nn.forward", 11, 15, Some(1)),
    ];
    let cut = tail(&spans, 1);
    assert_eq!(cut.len(), 2);
    assert_eq!(cut[1].parent, Some(0));
    assert_eq!(self_times(&cut), vec![6, 4]);
}

#[test]
fn recorder_nests_and_can_be_switched_off() {
    let rec = Recorder::new();
    rec.time("ignored", || ());
    assert!(rec.spans().is_empty(), "disabled recorder keeps nothing");
    rec.set_enabled(true);
    rec.next_step();
    {
        let _step = rec.span("step");
        rec.time("inner", || std::hint::black_box(1 + 1));
    }
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].step_id, 1);
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    // One complete event per span.
    let trace = serde_json::to_string(&chrome_trace(&spans)).unwrap();
    assert_eq!(trace.matches("\"ph\":\"X\"").count(), 2);
}
