//! Naive reference implementations of the hot kernels.
//!
//! These are the seed repository's original direct loops, kept for two jobs:
//!
//! * **oracles** — the property tests assert the blocked/parallel kernels in
//!   [`super::gemm`] and [`super::conv`] match them within tolerance over
//!   randomised shapes, strides, paddings and thread counts, and that the
//!   stride walks behind broadcasting, `reduce_to_shape` and `permute`
//!   match them **bitwise**;
//! * **baselines** — the `perf` binary of `pelta-bench` measures speedup of
//!   the packed kernels against them on the paper workloads.
//!
//! They assume pre-validated operands (the public `Tensor` methods do the
//! shape checking before dispatching to the fast kernels).

use crate::{Conv2dSpec, Result, Shape, Tensor};

/// Naive broadcasting zip `out = f(a, b)`: one `unflatten_index` and two
/// `broadcast_source_offset` calls per output element.
///
/// # Errors
/// Returns an error if the shapes are not broadcast-compatible.
pub fn naive_broadcast_zip(a: &Tensor, b: &Tensor, f: impl Fn(f32, f32) -> f32) -> Result<Tensor> {
    let (lhs_shape, rhs_shape) = (a.shape(), b.shape());
    let out_shape = lhs_shape.broadcast_with(&rhs_shape)?;
    let numel = out_shape.numel();
    let mut data = Vec::with_capacity(numel);
    for offset in 0..numel {
        let out_index = out_shape.unflatten_index(offset)?;
        let x = a.data()[lhs_shape.broadcast_source_offset(&out_index)];
        let y = b.data()[rhs_shape.broadcast_source_offset(&out_index)];
        data.push(f(x, y));
    }
    Tensor::from_vec(data, out_shape.dims())
}

/// Naive adjoint of broadcasting: sums `src` into a zero tensor of shape
/// `target` in ascending source-offset order, one `unflatten_index` and
/// one `broadcast_source_offset` per source element.
///
/// `target` must broadcast to `src`'s shape.
///
/// # Errors
/// Returns an error if a source offset falls out of range (it never does
/// for a valid `target`).
pub fn naive_reduce_to_shape(src: &Tensor, target: &[usize]) -> Result<Tensor> {
    let target_shape = Shape::new(target);
    let mut out = Tensor::zeros(target);
    let src_shape = src.shape();
    for offset in 0..src.numel() {
        let idx = src_shape.unflatten_index(offset)?;
        let dst = target_shape.broadcast_source_offset(&idx);
        out.data_mut()[dst] += src.data()[offset];
    }
    Ok(out)
}

/// Naive axis permutation: one `unflatten_index` and one `flatten_index`
/// per output element. `axes` must be a permutation of `0..rank`.
///
/// # Errors
/// Returns an error if an index falls out of range.
pub fn naive_permute(src: &Tensor, axes: &[usize]) -> Result<Tensor> {
    let src_shape = src.shape();
    let new_dims: Vec<usize> = axes.iter().map(|&a| src.dims()[a]).collect();
    let dst_shape = Shape::new(&new_dims);
    let mut data = vec![0.0f32; src.numel()];
    for (dst_offset, slot) in data.iter_mut().enumerate() {
        let dst_index = dst_shape.unflatten_index(dst_offset)?;
        let mut src_index = vec![0usize; src.rank()];
        for (dst_axis, &src_axis) in axes.iter().enumerate() {
            src_index[src_axis] = dst_index[dst_axis];
        }
        *slot = src.data()[src_shape.flatten_index(&src_index)?];
    }
    Tensor::from_vec(data, &new_dims)
}

/// Naive i-k-j matrix multiplication `[m, k] × [k, n] → [m, n]`.
///
/// # Errors
/// Returns an error if the output shape is invalid (it never is for valid
/// rank-2 operands).
pub fn naive_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let n = b.dims()[1];
    let av = a.data();
    let bv = b.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for kk in 0..k {
            let a_ik = av[i * k + kk];
            let b_row = &bv[kk * n..(kk + 1) * n];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bx) in out_row.iter_mut().zip(b_row) {
                *o += a_ik * bx;
            }
        }
    }
    Tensor::from_vec(out, &[m, n])
}

/// Naive direct 2-D convolution (seven nested loops).
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d(input: &Tensor, weight: &Tensor, spec: Conv2dSpec) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let padded = if pad > 0 {
        input.pad2d(pad, pad)?
    } else {
        input.clone()
    };
    let (n, c_in, h, w) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let (c_out, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let oh = spec.output_size(input.dims()[2], kh)?;
    let ow = spec.output_size(input.dims()[3], kw)?;
    let s = spec.stride;
    let mut out = vec![0.0f32; n * c_out * oh * ow];
    let x = padded.data();
    let k = weight.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let x_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let k_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                acc += x[x_row + kx] * k[k_row + kx];
                            }
                        }
                    }
                    out[((ni * c_out + co) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &[n, c_out, oh, ow])
}

/// Naive input gradient of [`naive_conv2d`].
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d_input_grad(
    grad_out: &Tensor,
    weight: &Tensor,
    input_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let (n, c_in, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2] + 2 * pad,
        input_shape[3] + 2 * pad,
    );
    let (c_out, kh, kw) = (weight.dims()[0], weight.dims()[2], weight.dims()[3]);
    let (oh, ow) = (grad_out.dims()[2], grad_out.dims()[3]);
    let s = spec.stride;
    let mut grad_padded = vec![0.0f32; n * c_in * h * w];
    let g = grad_out.data();
    let k = weight.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((ni * c_out + co) * oh + oy) * ow + ox];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let gx_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let k_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                grad_padded[gx_row + kx] += go * k[k_row + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    let padded = Tensor::from_vec(grad_padded, &[n, c_in, h, w])?;
    if pad > 0 {
        padded.unpad2d(pad, pad)
    } else {
        Ok(padded)
    }
}

/// Naive weight gradient of [`naive_conv2d`].
///
/// # Errors
/// Returns an error on geometry mismatch.
pub fn naive_conv2d_weight_grad(
    input: &Tensor,
    grad_out: &Tensor,
    kernel_shape: &[usize],
    spec: Conv2dSpec,
) -> Result<Tensor> {
    let pad = spec.padding.amount();
    let padded = if pad > 0 {
        input.pad2d(pad, pad)?
    } else {
        input.clone()
    };
    let (n, c_in, h, w) = (
        padded.dims()[0],
        padded.dims()[1],
        padded.dims()[2],
        padded.dims()[3],
    );
    let (c_out, kh, kw) = (kernel_shape[0], kernel_shape[2], kernel_shape[3]);
    let (oh, ow) = (grad_out.dims()[2], grad_out.dims()[3]);
    let s = spec.stride;
    let mut grad_w = vec![0.0f32; c_out * c_in * kh * kw];
    let x = padded.data();
    let g = grad_out.data();
    for ni in 0..n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let go = g[((ni * c_out + co) * oh + oy) * ow + ox];
                    for ci in 0..c_in {
                        for ky in 0..kh {
                            let iy = oy * s + ky;
                            let x_row = ((ni * c_in + ci) * h + iy) * w + ox * s;
                            let w_row = ((co * c_in + ci) * kh + ky) * kw;
                            for kx in 0..kw {
                                grad_w[w_row + kx] += go * x[x_row + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(grad_w, kernel_shape)
}
