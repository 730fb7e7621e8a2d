//! Fused data layouts and the converters between them.
//!
//! HFTA uses two canonical layouts for the activations of a `B`-wide model
//! array:
//!
//! * **conv format** `[N, B*C, ...]` — channels of all models concatenated,
//!   consumed by the grouped-convolution / widened-batch-norm fused ops;
//! * **array format** `[B, N, F]` — an explicit leading model axis,
//!   consumed by the `baddbmm` fused linear ops.
//!
//! A typical fused CNN runs in conv format until the flatten boundary, then
//! converts once with [`conv_to_array`].

use hfta_nn::Var;
use hfta_tensor::Tensor;

use crate::error::{FusionError, Result};

/// Stacks `B` per-model inputs `[N, C, ...]` into conv format
/// `[N, B*C, ...]`.
///
/// # Errors
///
/// Returns [`FusionError`] if the slice is empty or shapes differ.
pub fn stack_conv(inputs: &[Tensor]) -> Result<Tensor> {
    let first = inputs.first().ok_or(FusionError::Empty)?;
    for (i, t) in inputs.iter().enumerate().skip(1) {
        if t.shape() != first.shape() {
            return Err(FusionError::ShapeMismatch {
                kind: "input".into(),
                index: i,
                detail: format!("{} vs {}", t.shape(), first.shape()),
            });
        }
    }
    Ok(Tensor::concat(&inputs.iter().collect::<Vec<_>>(), 1))
}

/// Splits a conv-format tensor `[N, B*C, ...]` back into `B` per-model
/// tensors `[N, C, ...]`.
///
/// # Panics
///
/// Panics if the channel axis is not divisible by `b`.
pub fn unstack_conv(fused: &Tensor, b: usize) -> Vec<Tensor> {
    fused.chunk(b, 1)
}

/// Stacks `B` per-model inputs `[N, F]` into array format `[B, N, F]`.
///
/// # Errors
///
/// Returns [`FusionError`] if the slice is empty or shapes differ.
pub fn stack_array(inputs: &[Tensor]) -> Result<Tensor> {
    let first = inputs.first().ok_or(FusionError::Empty)?;
    for (i, t) in inputs.iter().enumerate().skip(1) {
        if t.shape() != first.shape() {
            return Err(FusionError::ShapeMismatch {
                kind: "input".into(),
                index: i,
                detail: format!("{} vs {}", t.shape(), first.shape()),
            });
        }
    }
    let unsqueezed: Vec<Tensor> = inputs.iter().map(|t| t.unsqueeze(0)).collect();
    Ok(Tensor::concat(&unsqueezed.iter().collect::<Vec<_>>(), 0))
}

/// Splits an array-format tensor `[B, ...]` back into `B` per-model
/// tensors (leading axis removed).
pub fn unstack_array(fused: &Tensor, b: usize) -> Vec<Tensor> {
    fused
        .chunk(b, 0)
        .into_iter()
        .map(|t| t.squeeze(0))
        .collect()
}

/// Differentiable conv-format → array-format conversion:
/// `[N, B*F] -> [B, N, F]` (the flatten boundary of a fused CNN).
///
/// # Panics
///
/// Panics if the input is not 2-D or its feature axis is not divisible by
/// `b`.
pub fn conv_to_array(x: &Var, b: usize) -> Var {
    let dims = x.dims();
    assert_eq!(dims.len(), 2, "conv_to_array expects [N, B*F]");
    let (n, bf) = (dims[0], dims[1]);
    assert_eq!(bf % b, 0, "feature axis {bf} not divisible by B = {b}");
    let f = bf / b;
    x.reshape(&[n, b, f]).permute(&[1, 0, 2])
}

/// Differentiable array-format → conv-format conversion:
/// `[B, N, F] -> [N, B*F]`.
///
/// # Panics
///
/// Panics if the input is not 3-D.
pub fn array_to_conv(x: &Var) -> Var {
    let dims = x.dims();
    assert_eq!(dims.len(), 3, "array_to_conv expects [B, N, F]");
    let (b, n, f) = (dims[0], dims[1], dims[2]);
    x.permute(&[1, 0, 2]).reshape(&[n, b * f])
}

/// Concatenates two conv-format activations along the channel axis while
/// keeping each model's channels contiguous: given `a [N, B*Ca, ...]` and
/// `b [N, B*Cb, ...]`, produces `[N, B*(Ca+Cb), ...]` laid out as
/// `[model0: Ca+Cb | model1: Ca+Cb | ...]`. This is the fused form of a
/// per-model `torch.cat([a_i, b_i], dim=1)` (e.g. PointNet-seg's
/// local+global feature concat).
///
/// # Panics
///
/// Panics if the channel axes are not divisible by `b` or batch dims
/// differ.
pub fn fused_concat_channels(a: &Var, bvar: &Var, b: usize) -> Var {
    let (ca_total, cb_total) = (a.dim(1), bvar.dim(1));
    assert_eq!(ca_total % b, 0, "lhs channels not divisible by B");
    assert_eq!(cb_total % b, 0, "rhs channels not divisible by B");
    assert_eq!(a.dim(0), bvar.dim(0), "batch dims differ");
    let (ca, cb) = (ca_total / b, cb_total / b);
    let mut pieces = Vec::with_capacity(2 * b);
    for i in 0..b {
        pieces.push(a.narrow(1, i * ca, ca));
        pieces.push(bvar.narrow(1, i * cb, cb));
    }
    let refs: Vec<&Var> = pieces.iter().collect();
    Var::concat(&refs, 1)
}

/// Concatenates per-model integer targets into the flat order expected by
/// fused array-format losses (`[B * N]`, model-major).
///
/// # Errors
///
/// Returns [`FusionError`] if lengths differ across models.
pub fn stack_targets(targets: &[Vec<usize>]) -> Result<Vec<usize>> {
    let first = targets.first().ok_or(FusionError::Empty)?;
    for (i, t) in targets.iter().enumerate().skip(1) {
        if t.len() != first.len() {
            return Err(FusionError::ShapeMismatch {
                kind: "targets".into(),
                index: i,
                detail: format!("{} vs {}", t.len(), first.len()),
            });
        }
    }
    Ok(targets.iter().flatten().copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_nn::Tape;

    #[test]
    fn stack_unstack_conv_round_trip() {
        let a = Tensor::arange(12).reshape(&[2, 3, 2]);
        let b = a.mul_scalar(10.0);
        let fused = stack_conv(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(fused.dims(), &[2, 6, 2]);
        let parts = unstack_conv(&fused, 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn stack_conv_rejects_mismatch() {
        let a = Tensor::zeros([2, 3]);
        let b = Tensor::zeros([2, 4]);
        assert!(stack_conv(&[a, b]).is_err());
        assert_eq!(stack_conv(&[]).unwrap_err(), FusionError::Empty);
    }

    #[test]
    fn stack_array_rejects_mismatch() {
        let a = Tensor::zeros([5, 3]);
        let b = Tensor::zeros([4, 3]);
        assert!(stack_array(&[a, b]).is_err());
        assert_eq!(stack_array(&[]).unwrap_err(), FusionError::Empty);
    }

    #[test]
    fn stack_unstack_array_round_trip() {
        let a = Tensor::arange(6).reshape(&[2, 3]);
        let b = a.add_scalar(100.0);
        let fused = stack_array(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(fused.dims(), &[2, 2, 3]);
        let parts = unstack_array(&fused, 2);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
    }

    #[test]
    fn conv_array_conversion_round_trip() {
        let tape = Tape::new();
        // Model 0 features = 0..3, model 1 features = 10..13 per row.
        let x = tape.leaf(Tensor::from_vec(
            vec![
                0.0, 1.0, 2.0, 10.0, 11.0, 12.0, 3.0, 4.0, 5.0, 13.0, 14.0, 15.0,
            ],
            [2, 6],
        ));
        let arr = conv_to_array(&x, 2);
        assert_eq!(arr.dims(), vec![2, 2, 3]);
        // Model 1, row 0 should hold 10, 11, 12.
        assert_eq!(
            arr.value().narrow(0, 1, 1).narrow(1, 0, 1).to_vec(),
            vec![10.0, 11.0, 12.0]
        );
        let back = array_to_conv(&arr);
        assert_eq!(back.value(), x.value());
    }

    #[test]
    fn conversion_is_differentiable() {
        use hfta_nn::Parameter;
        let p = Parameter::new(Tensor::arange(12).reshape(&[2, 6]), "p");
        let tape = Tape::new();
        let y = conv_to_array(&tape.param(&p), 3).square().sum();
        y.backward();
        // d(sum x^2)/dx = 2x, layout-independent.
        assert!(p
            .grad_cloned()
            .allclose(&Tensor::arange(12).reshape(&[2, 6]).mul_scalar(2.0), 1e-6));
    }

    #[test]
    fn fused_concat_keeps_models_contiguous() {
        let tape = Tape::new();
        // Two models, 2 and 1 channels respectively, batch 1, length 2.
        let a = tape.leaf(Tensor::from_vec(
            vec![
                0.0, 0.1, // model 0 ch 0
                1.0, 1.1, // model 0 ch 1
                10.0, 10.1, // model 1 ch 0
                11.0, 11.1, // model 1 ch 1
            ],
            [1, 4, 2],
        ));
        let g = tape.leaf(Tensor::from_vec(vec![5.0, 5.1, 50.0, 50.1], [1, 2, 2]));
        let fused = fused_concat_channels(&a, &g, 2);
        assert_eq!(fused.dims(), vec![1, 6, 2]);
        let v = fused.value();
        // Model 0 block: a's 2 channels then g's 1 channel.
        assert_eq!(
            v.narrow(1, 0, 3).to_vec(),
            vec![0.0, 0.1, 1.0, 1.1, 5.0, 5.1]
        );
        // Model 1 block follows.
        assert_eq!(
            v.narrow(1, 3, 3).to_vec(),
            vec![10.0, 10.1, 11.0, 11.1, 50.0, 50.1]
        );
    }

    #[test]
    fn targets_flatten_model_major() {
        let t = stack_targets(&[vec![1, 2], vec![3, 4]]).unwrap();
        assert_eq!(t, vec![1, 2, 3, 4]);
        assert!(stack_targets(&[vec![1], vec![2, 3]]).is_err());
    }
}
