//! `gemm_batched` checks its scratch buffers out once per call (once per
//! chunk of entries when a batch fans out across the pool), not once per
//! entry: a 2-entry and a 16-entry batch of the same shape check out the
//! same number. The scratch counters are process-global, so this is the
//! only test in its binary, and it runs on one thread, where every batch
//! here is one chunk.

use hfta_kernels::{gemm_batched, set_num_threads, Axis, Offsets, Out, PackA, PackB};

/// Scratch checkouts of one `gemm_batched` call over `count` entries of
/// `(m, k, n)`, each with its own operands and output block: `A·B^T` into
/// dense blocks, or `A^T·B` scattered through `tables` into blocks of
/// `block` cells.
fn checkouts(
    count: usize,
    (m, k, n): (usize, usize, usize),
    scatter: Option<(&Offsets<'_>, usize)>,
) -> u64 {
    let entries = Axis {
        count,
        a: m * k,
        b: k * n,
        out: scatter.map_or(m * n, |(_, block)| block),
    };
    let (a, b) = (vec![0.5f32; count * m * k], vec![0.25f32; count * k * n]);
    let mut out = vec![0.0f32; count * entries.out];
    let before = hfta_mem::stats().scratch_checkouts;
    match scatter {
        None => gemm_batched(
            Out::Add(&mut out),
            PackA::N(&a),
            PackB::T(&b),
            (m, k, n),
            [entries, Axis::ONE],
        ),
        Some((tables, _)) => gemm_batched(
            Out::Scatter(&mut out, *tables),
            PackA::T(&a),
            PackB::N(&b),
            (m, k, n),
            [entries, Axis::ONE],
        ),
    }
    hfta_mem::stats().scratch_checkouts - before
}

#[test]
fn batches_check_out_scratch_once_per_call() {
    set_num_threads(1);
    // A pointwise conv's input-gradient tables: channel rows `n` apart.
    let (rows_4, rows_8): (Vec<usize>, Vec<usize>) = (
        (0..4).map(|r| r * 32).collect(),
        (0..8).map(|r| r * 32).collect(),
    );
    let cols: Vec<usize> = (0..32).collect();
    let (small, large) = (Offsets::new(&rows_4, &cols), Offsets::new(&rows_8, &cols));
    let cases = [
        // A fused Linear's input gradient: stacked tiles, packed `B^T`.
        ("A·B^T (2, 32, 64)", (2, 32, 64), None),
        // Conv2's input gradient: the direct loops' product buffer.
        ("scattered (4, 8, 32)", (4, 8, 32), Some((&small, 128))),
        // Conv3's: the tiles' scatter strip.
        ("scattered (8, 64, 32)", (8, 64, 32), Some((&large, 256))),
    ];
    for (name, mkn, scatter) in cases {
        let (two, sixteen) = (checkouts(2, mkn, scatter), checkouts(16, mkn, scatter));
        assert!(two > 0, "{name}: checks out no scratch");
        assert_eq!(two, sixteen, "{name}: checkouts grow with the batch");
    }
}
