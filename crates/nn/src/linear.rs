//! Fully connected layers and activations with explicit backward passes.

use crate::mat::Mat;
use crate::param::{AdamConfig, Param};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A fully connected layer `y = x Wᵀ + b` (`x`: n×in, `W`: out×in).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, out×in.
    pub w: Param,
    /// Bias vector, 1×out.
    pub b: Param,
}

impl Linear {
    /// He-initialized layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Linear {
        let std = (2.0 / in_dim as f32).sqrt();
        Linear {
            w: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.w.value.cols
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.w.value.rows
    }

    /// Forward into a reusable buffer via the fused matmul+bias kernel.
    pub fn forward_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_bias_into(&self.w.value, &self.b.value.data, false, y);
    }

    /// Forward followed by ReLU, fused into one output pass.
    pub fn forward_relu_into(&self, x: &Mat, y: &mut Mat) {
        x.matmul_nt_bias_into(&self.w.value, &self.b.value.data, true, y);
    }

    /// Allocation-free backward. `w` is the forward weight matrix; parameter
    /// gradients are computed into workspace scratch and then added to the
    /// `gw`/`gb` accumulators; `grad_in`, when requested, is overwritten with
    /// `grad_out @ W`. Associated function (not `&mut self`) so callers can
    /// split value/grad borrows across `Param` fields.
    pub fn backward_into(
        w: &Mat,
        x: &Mat,
        grad_out: &Mat,
        gw: &mut Mat,
        gb: &mut Mat,
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        scratch.with(w.rows, w.cols, |scratch, dw| {
            // dW = grad_outᵀ @ x  (out×in)
            grad_out.matmul_tn_into(x, dw);
            gw.add_assign(dw);
            scratch.with(1, w.rows, |_, db| {
                grad_out.col_sums_into(db);
                gb.add_assign(db);
            });
        });
        if let Some(gi) = grad_in {
            // dX = grad_out @ W (n×in)
            grad_out.matmul_into(w, gi);
        }
    }

    /// Fused ReLU+linear backward: masks `grad_out` against the post-ReLU
    /// output `y` (equivalent to masking on the pre-activation, since
    /// `y = max(pre, 0)` is positive exactly where `pre` is) and then runs
    /// [`Linear::backward_into`] on the masked gradient.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_relu_into(
        w: &Mat,
        x: &Mat,
        y: &Mat,
        grad_out: &Mat,
        gw: &mut Mat,
        gb: &mut Mat,
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(y, grad_out, gpre);
            Linear::backward_into(w, x, gpre, gw, gb, grad_in, scratch);
        });
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    /// Adam update on both parameters.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.w.adam_step(lr, t, cfg);
        self.b.adam_step(lr, t, cfg);
    }

    /// Number of scalar parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }
}

/// Elementwise `v /= sum` over a softmax row, dispatching on the process-wide
/// [`crate::kernels`] mode. Every element is divided exactly once, so the
/// unrolled epilogue is trivially bit-identical to the plain loop.
#[inline]
fn div_by_sum(row: &mut [f32], sum: f32) {
    match crate::kernels::kernel_mode() {
        crate::kernels::KernelMode::Scalar => {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        crate::kernels::KernelMode::Simd => {
            let n = row.len();
            let (main, tail) = row.split_at_mut(n - n % 8);
            for o in main.chunks_exact_mut(8) {
                o[0] /= sum;
                o[1] /= sum;
                o[2] /= sum;
                o[3] /= sum;
                o[4] /= sum;
                o[5] /= sum;
                o[6] /= sum;
                o[7] /= sum;
            }
            for v in tail.iter_mut() {
                *v /= sum;
            }
        }
    }
}

/// Writes `grad` masked by the post-ReLU output `y` into `out`:
/// `out[i] = grad[i]` where `y[i] > 0`, else `0`. Masking on the output is
/// equivalent to masking on the pre-activation, since `y = max(pre, 0)` is
/// positive exactly where `pre` is.
pub fn relu_mask_into(y: &Mat, grad: &Mat, out: &mut Mat) {
    assert_eq!(y.data.len(), grad.data.len());
    out.resize_in_place(grad.rows, grad.cols);
    for ((o, &g), &v) in out.data.iter_mut().zip(&grad.data).zip(&y.data) {
        *o = if v <= 0.0 { 0.0 } else { g };
    }
}

/// Row-wise softmax into a reusable buffer. Rows are independent, so row
/// blocks run in parallel with bit-identical results.
pub fn softmax_rows_into(x: &Mat, out: &mut Mat) {
    out.copy_from(x);
    if out.cols == 0 {
        return;
    }
    let softmax_block = |block: &mut [f32], cols: usize| {
        for row in block.chunks_mut(cols) {
            let max = row.iter().cloned().fold(f32::MIN, f32::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            div_by_sum(row, sum);
        }
    };
    let cols = out.cols;
    let pool = mcsim_par::ThreadPool::global();
    // exp() dominates: weight it like ~8 flops per element.
    if pool.threads() > 1 && out.rows > 1 && out.data.len() * 8 >= mcsim_par::min_parallel_work() {
        let block_rows = out.rows.div_ceil(pool.threads() * 2).max(1);
        pool.parallel_for_chunks_mut(&mut out.data, block_rows * cols, |_, c| {
            softmax_block(c, cols)
        });
    } else {
        softmax_block(&mut out.data, cols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Forward, then the gradient of `0.5 * ||y - target||²` through
    /// [`Linear::backward_into`]: `(dW, db, dX)`.
    fn half_sq_grads(layer: &Linear, x: &Mat, target: &Mat) -> (Mat, Mat, Mat) {
        let mut y = Mat::default();
        layer.forward_into(x, &mut y);
        let mut grad_out = y.clone();
        for (g, t) in grad_out.data.iter_mut().zip(&target.data) {
            *g -= t;
        }
        let mut gw = Mat::zeros(layer.out_dim(), layer.in_dim());
        let mut gb = Mat::zeros(1, layer.out_dim());
        let mut gx = Mat::default();
        Linear::backward_into(
            &layer.w.value,
            x,
            &grad_out,
            &mut gw,
            &mut gb,
            Some(&mut gx),
            &mut Workspace::new(),
        );
        (gw, gb, gx)
    }

    /// Finite-difference gradient check for the linear layer.
    #[test]
    fn linear_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(0);
        let layer = Linear::new(4, 3, &mut rng);
        let x = Mat::randn(2, 4, 1.0, &mut rng);
        let target = Mat::randn(2, 3, 1.0, &mut rng);

        // Loss = 0.5 * ||y - target||².
        let loss_of = |layer: &Linear, x: &Mat| -> f32 {
            let mut y = Mat::default();
            layer.forward_into(x, &mut y);
            y.data
                .iter()
                .zip(&target.data)
                .map(|(a, b)| 0.5 * (a - b) * (a - b))
                .sum()
        };
        let (gw, _, grad_in) = half_sq_grads(&layer, &x, &target);

        let eps = 1e-3;
        // Check dW numerically at a few entries.
        for &idx in &[0usize, 5, 11] {
            let mut lp = layer.clone();
            lp.w.value.data[idx] += eps;
            let mut lm = layer.clone();
            lm.w.value.data[idx] -= eps;
            let num = (loss_of(&lp, &x) - loss_of(&lm, &x)) / (2.0 * eps);
            let ana = gw.data[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dW[{idx}]: num {num} vs ana {ana}"
            );
        }
        // Check dX numerically.
        for &idx in &[0usize, 3, 7] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss_of(&layer, &xp) - loss_of(&layer, &xm)) / (2.0 * eps);
            let ana = grad_in.data[idx];
            assert!(
                (num - ana).abs() < 1e-2,
                "dX[{idx}]: num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn relu_mask_zeroes_gradient_where_the_output_is_not_positive() {
        let y = Mat::from_vec(1, 5, vec![0.0, 0.5, 0.0, 2.0, 1e-7]);
        let grad = Mat::from_vec(1, 5, vec![1.0, -2.0, 3.0, 4.0, -5.0]);
        let mut out = Mat::from_vec(2, 2, vec![9.0; 4]);
        relu_mask_into(&y, &grad, &mut out);
        assert_eq!((out.rows, out.cols), (1, 5));
        assert_eq!(out.data, vec![0.0, -2.0, 0.0, 4.0, -5.0]);
    }

    /// Both epilogue widths must scale to the same bits — widths that
    /// exercise the 8-wide body plus every tail length.
    #[test]
    fn unrolled_epilogues_match_scalar_bitwise() {
        use crate::kernels::{set_kernel_mode, KernelMode};
        let mut rng = StdRng::seed_from_u64(33);
        for cols in [1usize, 4, 7, 8, 9, 16, 23] {
            let x = Mat::randn(3, cols, 1.0, &mut rng);
            let (mut sm_s, mut sm_u) = (Mat::default(), Mat::default());
            let prev = set_kernel_mode(KernelMode::Scalar);
            softmax_rows_into(&x, &mut sm_s);
            set_kernel_mode(KernelMode::Simd);
            softmax_rows_into(&x, &mut sm_u);
            set_kernel_mode(prev);
            assert_eq!(sm_s, sm_u, "softmax cols {cols}");
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0]);
        let mut s = Mat::default();
        softmax_rows_into(&x, &mut s);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(s.row(r).iter().all(|&p| p >= 0.0));
        }
    }

    #[test]
    fn linear_learns_a_linear_map() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = Linear::new(2, 1, &mut rng);
        let cfg = AdamConfig::default();
        // Learn y = 3a - 2b + 1.
        for t in 1..=3000 {
            let x = Mat::randn(8, 2, 1.0, &mut rng);
            let target = Mat::from_vec(
                8,
                1,
                (0..8)
                    .map(|i| 3.0 * x.get(i, 0) - 2.0 * x.get(i, 1) + 1.0)
                    .collect(),
            );
            // Mean of 0.5 * squared error: the half-square gradient over 8.
            let (mut gw, mut gb, _) = half_sq_grads(&layer, &x, &target);
            gw.scale(1.0 / 8.0);
            gb.scale(1.0 / 8.0);
            layer.zero_grad();
            layer.w.grad.add_assign(&gw);
            layer.b.grad.add_assign(&gb);
            layer.adam_step(0.02, t, &cfg);
        }
        assert!((layer.w.value.data[0] - 3.0).abs() < 0.05);
        assert!((layer.w.value.data[1] + 2.0).abs() < 0.05);
        assert!((layer.b.value.data[0] - 1.0).abs() < 0.05);
    }
}
