//! `gemm_batched` checks its workspace out once per call, as one pooled
//! storage on the calling thread, whatever the batch size and the thread
//! count: a 2-entry and a 16-entry batch of the same shape each draw
//! exactly one buffer from the pool, at 1 thread and at 4. The pool's
//! counters sum every thread's, so this is the only test in its binary.

use hfta_kernels::{gemm_batched, set_num_threads, Axis, Offsets, Out, PackA, PackB};

/// Storage draws (fresh or recycled) of one `gemm_batched` call over
/// `count` entries of `(m, k, n)`, each with its own operands and output
/// block: `A·B^T` into dense blocks, or `A^T·B` scattered through `tables`
/// into blocks of `block` cells.
fn draws(
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
    let pool_draws = || {
        let s = hfta_mem::stats();
        s.pool_fresh_allocs + s.pool_reuses
    };
    let before = pool_draws();
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
    pool_draws() - before
}

#[test]
fn batches_draw_one_storage_per_call() {
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
    for threads in [1, 4] {
        set_num_threads(threads);
        for (name, mkn, scatter) in cases {
            let (two, sixteen) = (draws(2, mkn, scatter), draws(16, mkn, scatter));
            assert_eq!(
                (two, sixteen),
                (1, 1),
                "{name} at {threads} threads: storage draws of a 2- and a 16-entry batch"
            );
        }
    }
}
