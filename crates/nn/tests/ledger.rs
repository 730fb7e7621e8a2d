//! The op ledger counts each op once: under an installed profiler one
//! forward + backward pass through a chain that uses every op exactly once
//! must report one sample per op name and one per `bwd:<op>` name, the
//! forward FLOPs must be the analytic counts, and a backward sample must be
//! its forward cost times the parent gradients the node produced.

use hfta_nn::{Parameter, Tape};
use hfta_telemetry::Profiler;
use hfta_tensor::conv::ConvCfg;
use hfta_tensor::Rng;

#[test]
fn every_op_is_sampled_once_forward_and_once_backward() {
    let profiler = Profiler::new("ledger");
    let _guard = profiler.install();
    let mut rng = Rng::seed_from(3);
    let w2d = Parameter::new(rng.randn([8, 4, 3, 3]), "w2d");
    let w1d = Parameter::new(rng.randn([4, 8, 3]), "w1d");
    let wb = Parameter::new(rng.randn([2, 254, 3]), "wb");
    let wm = Parameter::new(rng.randn([3, 5]), "wm");

    let tape = Tape::new();
    let x = tape.leaf(rng.randn([2, 4, 16, 16]));
    x.conv2d(&tape.param(&w2d), None, ConvCfg::square(1, 1, 1)) // [2, 8, 16, 16]
        .relu()
        .flatten_from(2) // [2, 8, 256]
        .conv1d(&tape.param(&w1d), None, 1, 0, 1) // [2, 4, 254]
        .bmm(&tape.param(&wb)) // [2, 4, 3]
        .reshape(&[8, 3])
        .matmul(&tape.param(&wm)) // [8, 5]
        .sum()
        .backward();

    // (op, analytic forward FLOPs, parent gradients of its backward node).
    // The conv's input `x` is a plain leaf, so only its weight gets one.
    let expected: [(&str, f64, f64); 8] = [
        (
            "conv2d",
            2.0 * (2 * 8 * 16 * 16) as f64 * (4 * 3 * 3) as f64,
            1.0,
        ),
        ("relu", (2 * 8 * 16 * 16) as f64, 1.0),
        ("flatten", (2 * 8 * 16 * 16) as f64, 1.0),
        ("conv1d", 2.0 * (2 * 4 * 254) as f64 * (8 * 3) as f64, 2.0),
        ("bmm", 2.0 * (2 * 4 * 254 * 3) as f64, 2.0),
        ("reshape", (2 * 4 * 3) as f64, 1.0),
        ("matmul", 2.0 * (8 * 3 * 5) as f64, 2.0),
        ("sum", (8 * 5) as f64, 1.0),
    ];
    assert_eq!(expected[0].1, 294_912.0);

    let report = profiler.report();
    let ops = &report.experiments[0].ops;
    for op in ops {
        assert_eq!(op.calls, 1, "{} sampled {} times", op.name, op.calls);
    }
    assert_eq!(
        ops.len(),
        2 * expected.len(),
        "rows: {:?}",
        ops.iter().map(|o| &o.name).collect::<Vec<_>>()
    );
    for (name, flops, parents) in expected {
        let fwd = report.experiments[0].op(name).expect(name);
        assert_eq!(fwd.flops, flops, "{name} forward FLOPs");
        let bwd_name = format!("bwd:{name}");
        let bwd = report.experiments[0].op(&bwd_name).expect(&bwd_name);
        assert_eq!(bwd.flops, parents * fwd.flops, "{bwd_name} FLOPs");
        assert_eq!(bwd.bytes, parents * fwd.bytes, "{bwd_name} bytes");
        assert!(bwd.ns > 0.0, "{bwd_name} has no duration");
    }
}
