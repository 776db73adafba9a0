//! A small single-head transformer encoder (baseline cost model, after
//! QueryFormer-style plan transformers).
//!
//! Nodes are treated as a sequence (pre-order), passed through one
//! self-attention block with a residual connection and a two-layer
//! feed-forward, mean-pooled, and projected to the embedding. The
//! `forward_ws`/`backward_ws` pair reuses caller-provided buffers.

use crate::linear::{softmax_rows_into, Linear};
use crate::mat::{run_row_blocked, Mat};
use crate::param::{AdamConfig, Param};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Single-head transformer encoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transformer {
    in_proj: Linear,
    wq: Linear,
    wk: Linear,
    wv: Linear,
    ff1: Linear,
    ff2: Linear,
    out_proj: Linear,
    d: usize,
}

/// Reusable forward buffers for the workspace pair. Activations are stored
/// post-ReLU (`h0`, `ff_hidden`); the backward pass masks on the outputs,
/// which is equivalent to masking on the pre-activations since
/// `h = max(pre, 0)`.
#[derive(Debug, Clone, Default)]
pub struct TransformerWs {
    h0: Mat,
    q: Mat,
    k: Mat,
    v: Mat,
    attn: Mat,
    h1: Mat,
    ff_hidden: Mat,
    h2: Mat,
    pooled: Mat,
    emb: Mat,
    scores: Mat,
    mix: Mat,
}

impl TransformerWs {
    /// The embedding produced by the last `forward_ws` call.
    pub fn emb(&self) -> &Mat {
        &self.emb
    }
}

impl Transformer {
    /// Builds an encoder with model width `d` and embedding width `emb`.
    pub fn new<R: Rng>(in_dim: usize, d: usize, emb_dim: usize, rng: &mut R) -> Self {
        Transformer {
            in_proj: Linear::new(in_dim, d, rng),
            wq: Linear::new(d, d, rng),
            wk: Linear::new(d, d, rng),
            wv: Linear::new(d, d, rng),
            ff1: Linear::new(d, 2 * d, rng),
            ff2: Linear::new(2 * d, d, rng),
            out_proj: Linear::new(d, emb_dim, rng),
            d,
        }
    }

    /// Encodes a node sequence (`x`: nodes×in) into a 1×emb embedding
    /// (`ws.emb()`), allocation free: every activation lives in the
    /// workspace's reusable buffers.
    pub fn forward_ws(&self, x: &Mat, ws: &mut TransformerWs) {
        let TransformerWs {
            h0,
            q,
            k,
            v,
            attn,
            h1,
            ff_hidden,
            h2,
            pooled,
            emb,
            scores,
            mix,
        } = ws;
        self.in_proj.forward_relu_into(x, h0);
        self.wq.forward_into(h0, q);
        self.wk.forward_into(h0, k);
        self.wv.forward_into(h0, v);
        let scale = 1.0 / (self.d as f32).sqrt();
        q.matmul_nt_into(k, scores);
        scores.scale(scale);
        softmax_rows_into(scores, attn);
        attn.matmul_into(v, mix);
        // Residual.
        h1.copy_from(h0);
        h1.add_assign(mix);
        // Feed-forward with residual (`mix` is reused for the ff output).
        self.ff1.forward_relu_into(h1, ff_hidden);
        self.ff2.forward_into(ff_hidden, mix);
        h2.copy_from(h1);
        h2.add_assign(mix);
        // Mean pool.
        pooled.resize_in_place(1, h2.cols);
        pooled.fill(0.0);
        for r in 0..h2.rows {
            for c in 0..h2.cols {
                pooled.data[c] += h2.get(r, c) / h2.rows as f32;
            }
        }
        self.out_proj.forward_into(pooled, emb);
    }

    /// Inference-only encoding.
    pub fn infer(&self, x: &Mat) -> Mat {
        let mut ws = TransformerWs::default();
        self.forward_ws(x, &mut ws);
        ws.emb
    }

    /// Backward from an embedding gradient; accumulates directly into the
    /// parameter gradients. Every intermediate lives in `scratch`.
    pub fn backward_ws(
        &mut self,
        x: &Mat,
        ws: &TransformerWs,
        grad_emb: &Mat,
        scratch: &mut Workspace,
    ) {
        let rows = ws.h2.rows;
        let n = rows as f32;
        let d = self.d;
        let scale = 1.0 / (d as f32).sqrt();
        scratch.with(1, ws.pooled.cols, |scratch, grad_pooled| {
            Linear::backward_into(
                &self.out_proj.w.value,
                &ws.pooled,
                grad_emb,
                &mut self.out_proj.w.grad,
                &mut self.out_proj.b.grad,
                Some(grad_pooled),
                scratch,
            );
            scratch.with(rows, ws.h2.cols, |scratch, grad_h2| {
                for r in 0..rows {
                    for col in 0..ws.h2.cols {
                        grad_h2.set(r, col, grad_pooled.data[col] / n);
                    }
                }
                // h2 = h1 + ff2(relu(ff1(h1)))
                scratch.with(rows, 2 * d, |scratch, gffh| {
                    Linear::backward_into(
                        &self.ff2.w.value,
                        &ws.ff_hidden,
                        grad_h2,
                        &mut self.ff2.w.grad,
                        &mut self.ff2.b.grad,
                        Some(gffh),
                        scratch,
                    );
                    scratch.with(rows, d, |scratch, grad_h1| {
                        Linear::backward_relu_into(
                            &self.ff1.w.value,
                            &ws.h1,
                            &ws.ff_hidden,
                            gffh,
                            &mut self.ff1.w.grad,
                            &mut self.ff1.b.grad,
                            Some(grad_h1),
                            scratch,
                        );
                        grad_h1.add_assign(grad_h2); // residual path

                        // h1 = h0 + attn @ v
                        scratch.with(rows, d, |scratch, grad_v| {
                            // dV = attnᵀ @ grad_att_out (= grad_h1)
                            ws.attn.matmul_tn_into(grad_h1, grad_v);
                            scratch.with(rows, rows, |scratch, grad_scores| {
                                scratch.with(rows, rows, |scratch, grad_attn| {
                                    // dAttn = grad_att_out @ vᵀ
                                    grad_h1.matmul_nt_into(&ws.v, grad_attn);
                                    // Softmax backward per row:
                                    // ds = a ⊙ (dA − Σ(dA ⊙ a)). Rows are
                                    // independent, so row blocks fan out
                                    // across the pool for long sequences
                                    // with bit-identical results.
                                    let cols = grad_attn.cols;
                                    let attn = &ws.attn;
                                    let ga = &*grad_attn;
                                    run_row_blocked(grad_scores, rows * cols * 3, |r0, block| {
                                        for (bi, srow) in block.chunks_mut(cols).enumerate() {
                                            let a = attn.row(r0 + bi);
                                            let da = ga.row(r0 + bi);
                                            let dot: f32 =
                                                a.iter().zip(da).map(|(x, y)| x * y).sum();
                                            for (col, s) in srow.iter_mut().enumerate() {
                                                *s = a[col] * (da[col] - dot);
                                            }
                                        }
                                    });
                                    let _ = scratch;
                                });
                                grad_scores.scale(scale);
                                // scores = q kᵀ ⇒ dq = ds @ k ; dk = dsᵀ @ q
                                scratch.with(rows, d, |scratch, grad_qk| {
                                    scratch.with(rows, d, |scratch, grad_h0| {
                                        grad_scores.matmul_into(&ws.k, grad_qk);
                                        Linear::backward_into(
                                            &self.wq.w.value,
                                            &ws.h0,
                                            grad_qk,
                                            &mut self.wq.w.grad,
                                            &mut self.wq.b.grad,
                                            Some(grad_h0),
                                            scratch,
                                        );
                                        grad_scores.matmul_tn_into(&ws.q, grad_qk);
                                        scratch.with(rows, d, |scratch, tmp| {
                                            Linear::backward_into(
                                                &self.wk.w.value,
                                                &ws.h0,
                                                grad_qk,
                                                &mut self.wk.w.grad,
                                                &mut self.wk.b.grad,
                                                Some(tmp),
                                                scratch,
                                            );
                                            grad_h0.add_assign(tmp);
                                            Linear::backward_into(
                                                &self.wv.w.value,
                                                &ws.h0,
                                                grad_v,
                                                &mut self.wv.w.grad,
                                                &mut self.wv.b.grad,
                                                Some(tmp),
                                                scratch,
                                            );
                                            grad_h0.add_assign(tmp);
                                        });
                                        grad_h0.add_assign(grad_h1); // residual path
                                        Linear::backward_relu_into(
                                            &self.in_proj.w.value,
                                            x,
                                            &ws.h0,
                                            grad_h0,
                                            &mut self.in_proj.w.grad,
                                            &mut self.in_proj.b.grad,
                                            None,
                                            scratch,
                                        );
                                    });
                                });
                            });
                        });
                    });
                });
            });
        });
    }

    /// The layers in order: input projection, q/k/v, feed-forward, output
    /// projection.
    fn layers(&self) -> [&Linear; 7] {
        [
            &self.in_proj,
            &self.wq,
            &self.wk,
            &self.wv,
            &self.ff1,
            &self.ff2,
            &self.out_proj,
        ]
    }

    /// [`Transformer::layers`], mutably.
    fn layers_mut(&mut self) -> [&mut Linear; 7] {
        [
            &mut self.in_proj,
            &mut self.wq,
            &mut self.wk,
            &mut self.wv,
            &mut self.ff1,
            &mut self.ff2,
            &mut self.out_proj,
        ]
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.layers_mut().into_iter().for_each(Linear::zero_grad);
    }

    /// Adam step on all parameters.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        for l in self.layers_mut() {
            l.adam_step(lr, t, cfg);
        }
    }

    /// Parameters in layer order, each layer's weight before its bias.
    pub fn params(&self) -> Vec<&Param> {
        self.layers()
            .into_iter()
            .flat_map(|l| [&l.w, &l.b])
            .collect()
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.layers().iter().map(|l| l.param_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_into;
    use crate::mlp::{Mlp, MlpWs};
    use crate::workspace::GradSet;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let tr = Transformer::new(5, 8, 3, &mut rng);
        let x = Mat::randn(4, 5, 1.0, &mut rng);
        let emb = tr.infer(&x);
        assert_eq!((emb.rows, emb.cols), (1, 3));
    }

    #[test]
    fn workspace_forward_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(7);
        let tr = Transformer::new(5, 8, 3, &mut rng);
        let mut ws = TransformerWs::default();
        // Larger input first so the second call reuses dirty, oversized
        // buffers; each must match a forward into a fresh workspace.
        for rows in [6, 2] {
            let x = Mat::randn(rows, 5, 1.0, &mut rng);
            tr.forward_ws(&x, &mut ws);
            assert_eq!(*ws.emb(), tr.infer(&x));
        }
    }

    #[test]
    fn gradient_check_through_attention() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut tr = Transformer::new(4, 6, 2, &mut rng);
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(1, 2, 1.0, &mut rng);
        let mut ws = TransformerWs::default();
        tr.forward_ws(&x, &mut ws);
        let mut grad = Mat::default();
        mse_into(ws.emb(), &target, &mut grad);
        tr.zero_grad();
        tr.backward_ws(&x, &ws, &grad, &mut Workspace::new());

        let loss_of = |tr: &Transformer| mse_into(&tr.infer(&x), &target, &mut Mat::default());
        let eps = 1e-2;
        for idx in [0usize, 3] {
            // Query projection weights exercise the softmax backward.
            let mut tp = tr.clone();
            tp.wq.w.value.data[idx] += eps;
            let mut tm = tr.clone();
            tm.wq.w.value.data[idx] -= eps;
            let num = (loss_of(&tp) - loss_of(&tm)) / (2.0 * eps);
            let ana = tr.wq.w.grad.data[idx];
            assert!((num - ana).abs() < 5e-2, "wq[{idx}] num {num} vs ana {ana}");
        }
        for idx in [0usize, 7] {
            let mut tp = tr.clone();
            tp.in_proj.w.value.data[idx] += eps;
            let mut tm = tr.clone();
            tm.in_proj.w.value.data[idx] -= eps;
            let num = (loss_of(&tp) - loss_of(&tm)) / (2.0 * eps);
            let ana = tr.in_proj.w.grad.data[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "in_proj[{idx}] num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn transformer_fits_sequence_sum() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tr = Transformer::new(2, 8, 4, &mut rng);
        let mut head = Mlp::new(&[4, 1], &mut rng);
        let cfg = AdamConfig::default();
        let (mut ws, mut head_ws) = (TransformerWs::default(), MlpWs::default());
        let mut head_grads = GradSet::from_shapes(&head.grad_shapes());
        let (mut grad, mut gemb) = (Mat::default(), Mat::default());
        let mut scratch = Workspace::new();
        let mut t = 0;
        for _ in 0..800 {
            let n = rng.gen_range(3..6usize);
            let x = Mat::randn(n, 2, 1.0, &mut rng);
            let label: f32 = (0..n).map(|i| x.get(i, 0)).sum();
            tr.forward_ws(&x, &mut ws);
            head.forward_ws(ws.emb(), &mut head_ws);
            mse_into(head_ws.out(), &Mat::from_vec(1, 1, vec![label]), &mut grad);
            tr.zero_grad();
            head.zero_grad();
            head_grads.zero();
            head.backward_ws(
                ws.emb(),
                &head_ws,
                &grad,
                &mut head_grads.mats,
                Some(&mut gemb),
                &mut scratch,
            );
            head.add_grads(&head_grads.mats);
            tr.backward_ws(&x, &ws, &gemb, &mut scratch);
            t += 1;
            tr.adam_step(0.005, t, &cfg);
            head.adam_step(0.005, t, &cfg);
        }
        let mut err = 0.0;
        for _ in 0..40 {
            let n = rng.gen_range(3..6usize);
            let x = Mat::randn(n, 2, 1.0, &mut rng);
            let label: f32 = (0..n).map(|i| x.get(i, 0)).sum();
            let pred = head.infer(&tr.infer(&x)).data[0];
            err += (pred - label).abs();
        }
        err /= 40.0;
        assert!(err < 1.0, "mean abs err {err}");
    }
}
