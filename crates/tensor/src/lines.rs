//! The one pass that advances several contiguous lines' chains together.
//!
//! A per-line reduction over short lines (PointNet's fused `[2, B·C, 32]`
//! rows) is bound by each line's set-up and by its serial chain, not by the
//! arithmetic. [`fold`] walks [`LINES`] equally spaced lines at once and
//! hands the caller one position's values of every line, positions
//! ascending, so the caller's lane `j` folds line `j` in exactly the order
//! a one-line loop would. Only the schedule changes: one set-up serves
//! eight lines, and the lanes' independent chains overlap in the pipeline.
//!
//! The reductions (`reduce.rs`), batch norm's statistics (`norm.rs`) and
//! the conv1d bias gradient all run on it; nothing else interleaves lines.

/// Lines one [`fold`] advances together.
pub(crate) const LINES: usize = 8;

/// One position of a block: `v[s][j]` is source `s`'s line `j`.
pub(crate) type Column<const S: usize> = [[f32; LINES]; S];

/// `acc = step(acc, k, v)` for `k` in `0..len` ascending, where `v[s][j]`
/// is element `k` of line `j` of source `s`, the line `srcs[s][at + j *
/// stride..]`. A block of `lines < LINES` repeats its last line in the
/// spare lanes, whose chains the caller drops. The accumulator travels by
/// value, so it can stay in registers.
#[inline(always)]
pub(crate) fn fold<const S: usize, A>(
    srcs: [&[f32]; S],
    (at, lines, stride, len): (usize, usize, usize, usize),
    mut acc: A,
    step: impl Fn(A, usize, Column<S>) -> A,
) -> A {
    debug_assert!((1..=LINES).contains(&lines));
    // Index loops: this set-up runs once per block of short lines, and an
    // array `map` here costs out-of-line calls.
    let mut rows: [[&[f32]; LINES]; S] = [[&[]; LINES]; S];
    for (lines_s, src) in rows.iter_mut().zip(srcs) {
        for (j, line) in lines_s.iter_mut().enumerate() {
            *line = &src[at + j.min(lines - 1) * stride..][..len];
        }
    }
    for k in 0..len {
        let mut column = [[0.0; LINES]; S];
        for (c, lines_s) in column.iter_mut().zip(&rows) {
            for (v, line) in c.iter_mut().zip(lines_s) {
                *v = line[k];
            }
        }
        acc = step(acc, k, column);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    type Seen = Vec<(usize, Column<2>)>;

    fn push(mut seen: Seen, k: usize, v: Column<2>) -> Seen {
        seen.push((k, v));
        seen
    }

    /// Every position of every line, in order, for short blocks and for
    /// lengths around multiples of the block width.
    #[test]
    fn fold_hands_each_lane_its_line_in_order() {
        for lines in 1..=LINES {
            for len in [0, 1, 7, 8, 9, 16, 23, 40] {
                let (at, stride) = (5, len + 3);
                let a: Vec<f32> = (0..at + LINES * stride).map(|i| i as f32).collect();
                let b: Vec<f32> = a.iter().map(|v| 0.5 - v).collect();
                let want: Seen = (0..len)
                    .map(|k| {
                        let at = |j: usize| at + j.min(lines - 1) * stride + k;
                        (
                            k,
                            [a.as_slice(), &b].map(|s| std::array::from_fn(|j| s[at(j)])),
                        )
                    })
                    .collect();
                let got = fold([&a, &b], (at, lines, stride, len), Vec::new(), push);
                assert_eq!(got, want, "{lines} lines of {len}");
            }
        }
    }
}
