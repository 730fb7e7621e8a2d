//! `conv1d` and its gradients are the 2-D ops over a unit height axis: for
//! random stride, padding, groups and kernel width, each equals `conv2d`,
//! `conv2d_grad_input` or `conv2d_grad_weight` on explicit `[.., 1, L]`
//! copies of its operands, bit for bit, with `-0.0`, `±inf` and NaN
//! payloads among the values.

use hfta_tensor::conv::{
    conv1d, conv1d_grad_input, conv1d_grad_weight, conv2d, conv2d_grad_input, conv2d_grad_weight,
    ConvCfg,
};
use hfta_tensor::{Rng, Tensor};
use proptest::prelude::*;

const SPECIALS: [f32; 6] = [
    -0.0,
    0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(0x7fc0_1234),
    f32::from_bits(0xffc0_0001),
];

/// Normal values with about one in sixteen replaced by a special.
fn values(dims: &[usize], seed: u64) -> Tensor {
    let mut rng = Rng::seed_from(seed);
    let mut t = rng.randn(dims.to_vec());
    for v in t.as_mut_slice() {
        if rng.below(16) == 0 {
            *v = SPECIALS[rng.below(SPECIALS.len())];
        }
    }
    t
}

/// `[a, b, c]` copied as `[a, b, 1, c]`.
fn unit_height(t: &Tensor) -> Tensor {
    t.reshape(&[t.dim(0), t.dim(1), 1, t.dim(2)])
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #[test]
    fn conv1d_and_its_gradients_are_conv2d_at_unit_height(
        n in 1usize..4,
        g in 1usize..4,
        cing in 1usize..5,
        coutg in 1usize..5,
        k in 1usize..6,
        stride in 1usize..4,
        padding in 0usize..3,
        lo in 1usize..12,
        bias in any::<bool>(),
        seed in any::<u64>(),
    ) {
        if (lo - 1) * stride + k <= 2 * padding {
            return Ok(());
        }
        let len = (lo - 1) * stride + k - 2 * padding;
        let x = values(&[n, g * cing, len], seed);
        let w = values(&[g * coutg, cing, k], seed ^ 1);
        let b = bias.then(|| values(&[1, 1, g * coutg], seed ^ 2).reshape(&[g * coutg]));
        let cfg = ConvCfg { stride: (1, stride), padding: (0, padding), groups: g };

        let y = conv1d(&x, &w, b.as_ref(), stride, padding, g);
        let want = conv2d(&unit_height(&x), &unit_height(&w), b.as_ref(), cfg);
        prop_assert_eq!(y.dims(), &[n, g * coutg, lo]);
        prop_assert_eq!(bits(&y), bits(&want));

        let gy = values(y.dims(), seed ^ 3);
        let gx = conv1d_grad_input(&w, &gy, (g * cing, len), stride, padding, g);
        let want =
            conv2d_grad_input(&unit_height(&w), &unit_height(&gy), (1, len), g * cing, cfg);
        prop_assert_eq!(gx.dims(), x.dims());
        prop_assert_eq!(bits(&gx), bits(&want));

        let gw = conv1d_grad_weight(&x, &gy, k, stride, padding, g);
        let want = conv2d_grad_weight(&unit_height(&x), &unit_height(&gy), (1, k), cfg);
        prop_assert_eq!(gw.dims(), w.dims());
        prop_assert_eq!(bits(&gw), bits(&want));
    }
}
