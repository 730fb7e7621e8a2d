//! Max pooling with argmax indices and its gradient.

use crate::tensor::Tensor;

/// Result of a max-pool forward pass: the pooled output plus flat argmax
/// indices into the *input's* spatial plane, needed by the backward pass.
#[derive(Debug, Clone)]
pub struct MaxPool2dOutput {
    /// Pooled output `[N, C, Ho, Wo]`.
    pub output: Tensor,
    /// For every output element, the flat `h * W + w` index of the winning
    /// input element within its `[H, W]` plane.
    pub indices: Vec<usize>,
}

/// 2-D max pooling over `[N, C, H, W]` with square-window semantics of
/// `torch.nn.MaxPool2d(kernel, stride)`.
///
/// # Panics
///
/// Panics if the input is not 4-D or the window geometry is inconsistent.
pub fn max_pool2d(x: &Tensor, kernel: (usize, usize), stride: (usize, usize)) -> MaxPool2dOutput {
    assert_eq!(x.rank(), 4, "max_pool2d input must be [N, C, H, W]");
    let (n, c, h, w) = (x.dim(0), x.dim(1), x.dim(2), x.dim(3));
    let (kh, kw) = kernel;
    let (sh, sw) = stride;
    assert!(
        kh > 0 && kw > 0 && sh > 0 && sw > 0,
        "degenerate pool geometry"
    );
    assert!(h >= kh && w >= kw, "pool window larger than input");
    let ho = (h - kh) / sh + 1;
    let wo = (w - kw) / sw + 1;
    let src = x.as_slice();
    let mut out_t = Tensor::full([n, c, ho, wo], f32::NEG_INFINITY);
    let out = out_t.as_mut_slice();
    let mut indices = vec![0usize; n * c * ho * wo];
    for nc in 0..n * c {
        let plane = &src[nc * h * w..(nc + 1) * h * w];
        for p in 0..ho {
            for q in 0..wo {
                let o = (nc * ho + p) * wo + q;
                for u in 0..kh {
                    let row = (p * sh + u) * w + q * sw;
                    for v in 0..kw {
                        let val = plane[row + v];
                        if val > out[o] {
                            out[o] = val;
                            indices[o] = row + v;
                        }
                    }
                }
            }
        }
    }
    MaxPool2dOutput {
        output: out_t,
        indices,
    }
}

/// Gradient of [`max_pool2d`]: routes each output gradient to its winning
/// input position.
///
/// # Panics
///
/// Panics if `gy`'s element count disagrees with `indices`.
pub fn max_pool2d_backward(gy: &Tensor, indices: &[usize], input_dims: &[usize]) -> Tensor {
    assert_eq!(gy.numel(), indices.len(), "grad/index length mismatch");
    assert_eq!(input_dims.len(), 4, "input dims must be [N, C, H, W]");
    let (h, w) = (input_dims[2], input_dims[3]);
    let plane = h * w;
    let (ho, wo) = (gy.dim(2), gy.dim(3));
    let oplane = ho * wo;
    let mut gx_t = Tensor::zeros(input_dims);
    let gx = gx_t.as_mut_slice();
    let g = gy.as_slice();
    for (o, &ix) in indices.iter().enumerate() {
        let nc = o / oplane;
        gx[nc * plane + ix] += g[o];
    }
    gx_t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_2x2_stride_2() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                9.0, 10.0, 13.0, 14.0, //
                11.0, 12.0, 15.0, 16.0,
            ],
            [1, 1, 4, 4],
        );
        let r = max_pool2d(&x, (2, 2), (2, 2));
        assert_eq!(r.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(r.output.to_vec(), vec![4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn pool_overlapping_windows() {
        let x = Tensor::arange(9).reshape(&[1, 1, 3, 3]);
        let r = max_pool2d(&x, (2, 2), (1, 1));
        assert_eq!(r.output.dims(), &[1, 1, 2, 2]);
        assert_eq!(r.output.to_vec(), vec![4.0, 5.0, 7.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax() {
        let x = Tensor::from_vec(vec![1.0, 3.0, 2.0, 0.0], [1, 1, 2, 2]);
        let r = max_pool2d(&x, (2, 2), (2, 2));
        assert_eq!(r.output.item(), 3.0);
        let gy = Tensor::from_vec(vec![5.0], [1, 1, 1, 1]);
        let gx = max_pool2d_backward(&gy, &r.indices, &[1, 1, 2, 2]);
        assert_eq!(gx.to_vec(), vec![0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_accumulates_on_overlap() {
        // With stride 1, the same (max) input element can win two windows.
        let x = Tensor::from_vec(
            vec![0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0],
            [1, 1, 3, 3],
        );
        let r = max_pool2d(&x, (2, 2), (1, 1));
        let gy = Tensor::ones([1, 1, 2, 2]);
        let gx = max_pool2d_backward(&gy, &r.indices, &[1, 1, 3, 3]);
        assert_eq!(gx.at(&[0, 0, 1, 1]), 4.0);
        assert_eq!(gx.sum().item(), 4.0);
    }

    #[test]
    fn channels_pool_independently() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 3.0, 4.0, // channel 0
                40.0, 30.0, 20.0, 10.0, // channel 1
            ],
            [1, 2, 2, 2],
        );
        let r = max_pool2d(&x, (2, 2), (2, 2));
        assert_eq!(r.output.to_vec(), vec![4.0, 40.0]);
    }
}
