//! Pins `scope::per_model_ce_losses` to the per-lane `Var` path it
//! summarises — lane `i`'s logits narrowed out, reshaped to `[N, C]` and
//! put through `cross_entropy` — bit for bit, over every `B` in 1-9, `N`
//! in 1-17 and `C` in 1-11, with logits that hold ±inf, NaNs with payloads
//! and either sign, ±0 and values near ±1e30 beside ordinary ones.

use hfta_core::scope::per_model_ce_losses;
use hfta_nn::{Tape, Var};
use hfta_tensor::{Rng, Tensor};

/// Lane by lane through the tape: what `per_model_ce_losses` must equal.
fn per_lane_var_path(logits: &Var, targets: &[usize]) -> Vec<f32> {
    let dims = logits.dims();
    let (b, n, c) = (dims[0], dims[1], dims[2]);
    (0..b)
        .map(|i| {
            logits
                .narrow(0, i, 1)
                .reshape(&[n, c])
                .cross_entropy(&targets[i * n..(i + 1) * n])
                .item()
        })
        .collect()
}

/// A logit: mostly ordinary, sometimes one of the values whose bits a
/// reordered or fused computation would change.
fn logit(rng: &mut Rng, special_one_in: usize) -> f32 {
    if rng.below(special_one_in) != 0 {
        return 4.0 * rng.standard_normal();
    }
    let sign = if rng.below(2) == 0 { 0 } else { 0x8000_0000 };
    let bits = match rng.below(6) {
        0 => 0x7f80_0000,
        // A quiet NaN with a payload, or a signalling one.
        1 => 0x7fc0_0000 | rng.below(1 << 22) as u32,
        2 => 0x7f80_0001 + rng.below((1 << 22) - 1) as u32,
        3 => 0,
        // Near ±1e30, where `x - max` and `exp` stop being exact.
        4 => (1.0e30f32 * rng.uniform(0.5, 2.0)).to_bits(),
        _ => (1.0e30f32 + rng.uniform(-1.0e24, 1.0e24)).to_bits(),
    };
    f32::from_bits(bits | sign)
}

#[test]
fn per_model_ce_losses_equal_the_per_lane_var_path() {
    let mut rng = Rng::seed_from(0xce1055);
    for b in 1..=9 {
        for n in 1..=17 {
            for c in 1..=11 {
                // Clean logits, then sparse and dense special values.
                for special_one_in in [usize::MAX, 24, 3] {
                    let data: Vec<f32> = (0..b * n * c)
                        .map(|_| logit(&mut rng, special_one_in))
                        .collect();
                    let targets: Vec<usize> = (0..b * n).map(|_| rng.below(c)).collect();
                    let tape = Tape::new();
                    let logits = tape.leaf(Tensor::from_vec(data, [b, n, c]));
                    let got = per_model_ce_losses(&logits, &targets);
                    let want = per_lane_var_path(&logits, &targets);
                    let (got, want): (Vec<u32>, Vec<u32>) = (
                        got.iter().map(|v| v.to_bits()).collect(),
                        want.iter().map(|v| v.to_bits()).collect(),
                    );
                    assert_eq!(got, want, "b {b} n {n} c {c} special 1/{special_one_in}");
                }
            }
        }
    }
}
