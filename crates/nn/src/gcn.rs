//! Graph Convolutional Network encoder (baseline cost model, after
//! Kipf & Welling / the zero-shot cost model of Hilprecht & Binnig).
//!
//! Plans are viewed as undirected graphs (tree edges + self loops); each
//! layer aggregates mean-normalized neighbor features before a linear map
//! and ReLU, and the node representations are mean-pooled into a plan
//! embedding. The `forward_ws`/`backward_ws` pair reuses caller-provided
//! buffers.

use crate::linear::Linear;
use crate::mat::Mat;
use crate::param::{AdamConfig, Param};
use crate::tcn::TreeStructure;
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Adjacency as neighbor lists including the self loop.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Graph {
    /// `neighbors[i]` contains `i` itself plus every adjacent node.
    pub neighbors: Vec<Vec<usize>>,
}

impl Graph {
    /// Builds the undirected graph (with self loops) of a binary tree.
    pub fn from_tree(tree: &TreeStructure) -> Graph {
        let n = tree.len();
        let mut neighbors: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        for i in 0..n {
            for child in [tree.left[i], tree.right[i]].into_iter().flatten() {
                neighbors[i].push(child);
                neighbors[child].push(i);
            }
        }
        Graph { neighbors }
    }

    /// Mean aggregation `agg[i] = mean_{j ∈ N(i)} x[j]`.
    fn aggregate_into(&self, x: &Mat, out: &mut Mat) {
        out.resize_in_place(x.rows, x.cols);
        out.fill(0.0);
        for (i, ns) in self.neighbors.iter().enumerate() {
            let inv = 1.0 / ns.len() as f32;
            for &j in ns {
                for c in 0..x.cols {
                    out.data[i * x.cols + c] += x.data[j * x.cols + c] * inv;
                }
            }
        }
    }

    /// Transpose of the aggregation (for backward): scatter grad back.
    fn aggregate_backward_into(&self, grad: &Mat, out: &mut Mat) {
        out.resize_in_place(grad.rows, grad.cols);
        out.fill(0.0);
        for (i, ns) in self.neighbors.iter().enumerate() {
            let inv = 1.0 / ns.len() as f32;
            for &j in ns {
                for c in 0..grad.cols {
                    out.data[j * grad.cols + c] += grad.data[i * grad.cols + c] * inv;
                }
            }
        }
    }
}

/// One GCN layer: `h = relu(Agg(x) Wᵀ + b)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GcnLayer {
    lin: Linear,
}

impl GcnLayer {
    /// He-initialized layer.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        GcnLayer {
            lin: Linear::new(in_dim, out_dim, rng),
        }
    }
}

/// Reusable forward buffers for the workspace pair.
#[derive(Debug, Clone, Default)]
pub struct GcnWs {
    agg1: Mat,
    h1: Mat,
    agg2: Mat,
    h2: Mat,
    pooled: Mat,
    emb: Mat,
}

impl GcnWs {
    /// The embedding produced by the last `forward_ws` call.
    pub fn emb(&self) -> &Mat {
        &self.emb
    }
}

/// A two-layer GCN encoder with mean pooling and a projection head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gcn {
    l1: GcnLayer,
    l2: GcnLayer,
    proj: Linear,
}

impl Gcn {
    /// Builds `in → hidden → hidden2 → emb`.
    pub fn new<R: Rng>(
        in_dim: usize,
        hidden1: usize,
        hidden2: usize,
        emb_dim: usize,
        rng: &mut R,
    ) -> Gcn {
        Gcn {
            l1: GcnLayer::new(in_dim, hidden1, rng),
            l2: GcnLayer::new(hidden1, hidden2, rng),
            proj: Linear::new(hidden2, emb_dim, rng),
        }
    }

    /// Encodes a plan graph into a 1×emb embedding (`ws.emb()`), allocation
    /// free: aggregation, fused matmul+bias+ReLU, mean pool, and projection
    /// all write into the workspace's reusable buffers.
    pub fn forward_ws(&self, x: &Mat, g: &Graph, ws: &mut GcnWs) {
        let GcnWs {
            agg1,
            h1,
            agg2,
            h2,
            pooled,
            emb,
        } = ws;
        g.aggregate_into(x, agg1);
        self.l1.lin.forward_relu_into(agg1, h1);
        g.aggregate_into(h1, agg2);
        self.l2.lin.forward_relu_into(agg2, h2);
        // Mean pooling over nodes.
        pooled.resize_in_place(1, h2.cols);
        pooled.fill(0.0);
        for r in 0..h2.rows {
            for c in 0..h2.cols {
                pooled.data[c] += h2.get(r, c) / h2.rows as f32;
            }
        }
        self.proj.forward_into(pooled, emb);
    }

    /// Inference-only encoding.
    pub fn infer(&self, x: &Mat, g: &Graph) -> Mat {
        let mut ws = GcnWs::default();
        self.forward_ws(x, g, &mut ws);
        ws.emb
    }

    /// Allocation-free backward; accumulates directly into the parameter
    /// gradients. The first layer's input gradient (gradient w.r.t. the node
    /// features) is never computed — no caller uses it.
    pub fn backward_ws(&mut self, g: &Graph, ws: &GcnWs, grad_emb: &Mat, scratch: &mut Workspace) {
        scratch.with(1, ws.pooled.cols, |scratch, grad_pooled| {
            Linear::backward_into(
                &self.proj.w.value,
                &ws.pooled,
                grad_emb,
                &mut self.proj.w.grad,
                &mut self.proj.b.grad,
                Some(grad_pooled),
                scratch,
            );
            let n = ws.h2.rows as f32;
            scratch.with(ws.h2.rows, ws.h2.cols, |scratch, grad_h2| {
                for r in 0..ws.h2.rows {
                    for c in 0..ws.h2.cols {
                        grad_h2.set(r, c, grad_pooled.data[c] / n);
                    }
                }
                scratch.with(ws.h2.rows, ws.h2.cols, |scratch, gagg2| {
                    Linear::backward_relu_into(
                        &self.l2.lin.w.value,
                        &ws.agg2,
                        &ws.h2,
                        grad_h2,
                        &mut self.l2.lin.w.grad,
                        &mut self.l2.lin.b.grad,
                        Some(gagg2),
                        scratch,
                    );
                    scratch.with(ws.h1.rows, ws.h1.cols, |scratch, grad_h1| {
                        g.aggregate_backward_into(gagg2, grad_h1);
                        Linear::backward_relu_into(
                            &self.l1.lin.w.value,
                            &ws.agg1,
                            &ws.h1,
                            grad_h1,
                            &mut self.l1.lin.w.grad,
                            &mut self.l1.lin.b.grad,
                            None,
                            scratch,
                        );
                    });
                });
            });
        });
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.l1.lin.zero_grad();
        self.l2.lin.zero_grad();
        self.proj.zero_grad();
    }

    /// Adam step.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.l1.lin.adam_step(lr, t, cfg);
        self.l2.lin.adam_step(lr, t, cfg);
        self.proj.adam_step(lr, t, cfg);
    }

    /// Parameters in layer order, each layer's weight before its bias.
    pub fn params(&self) -> Vec<&Param> {
        [&self.l1.lin, &self.l2.lin, &self.proj]
            .into_iter()
            .flat_map(|l| [&l.w, &l.b])
            .collect()
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.l1.lin.param_count() + self.l2.lin.param_count() + self.proj.param_count()
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

    fn tiny_tree() -> TreeStructure {
        TreeStructure {
            left: vec![Some(1), None, None],
            right: vec![Some(2), None, None],
        }
    }

    #[test]
    fn graph_from_tree_is_symmetric_with_self_loops() {
        let g = Graph::from_tree(&tiny_tree());
        assert!(g.neighbors[0].contains(&0));
        assert!(g.neighbors[0].contains(&1));
        assert!(g.neighbors[1].contains(&0));
        assert_eq!(g.neighbors[0].len(), 3);
        assert_eq!(g.neighbors[1].len(), 2);
    }

    #[test]
    fn aggregate_backward_is_transpose_of_forward() {
        // <Agg(x), y> == <x, AggT(y)> for random x, y.
        let mut rng = StdRng::seed_from_u64(1);
        let g = Graph::from_tree(&tiny_tree());
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let y = Mat::randn(3, 4, 1.0, &mut rng);
        let mut ax = Mat::default();
        g.aggregate_into(&x, &mut ax);
        let mut aty = Mat::default();
        g.aggregate_backward_into(&y, &mut aty);
        let lhs: f32 = ax.data.iter().zip(&y.data).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data.iter().zip(&aty.data).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-4);
    }

    /// Forward plus backward of `mse(emb, target)` through the workspace
    /// API; the gradients accumulate into `gcn`'s parameters.
    fn mse_backward(gcn: &mut Gcn, x: &Mat, g: &Graph, target: &Mat) {
        let mut ws = GcnWs::default();
        gcn.forward_ws(x, g, &mut ws);
        let mut grad = Mat::default();
        mse_into(ws.emb(), target, &mut grad);
        gcn.backward_ws(g, &ws, &grad, &mut Workspace::new());
    }

    #[test]
    fn gradient_check_through_encoder() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut gcn = Gcn::new(4, 6, 5, 2, &mut rng);
        let tree = tiny_tree();
        let g = Graph::from_tree(&tree);
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(1, 2, 1.0, &mut rng);

        gcn.zero_grad();
        mse_backward(&mut gcn, &x, &g, &target);

        let loss_of = |gcn: &Gcn| mse_into(&gcn.infer(&x, &g), &target, &mut Mat::default());
        let eps = 1e-2;
        for idx in [0usize, 5] {
            let mut gp = gcn.clone();
            gp.l1.lin.w.value.data[idx] += eps;
            let mut gm = gcn.clone();
            gm.l1.lin.w.value.data[idx] -= eps;
            let num = (loss_of(&gp) - loss_of(&gm)) / (2.0 * eps);
            let ana = gcn.l1.lin.w.grad.data[idx];
            assert!((num - ana).abs() < 5e-2, "num {num} vs ana {ana}");
        }
    }

    #[test]
    fn gcn_fits_a_simple_graph_function() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut gcn = Gcn::new(2, 12, 8, 4, &mut rng);
        let mut head = Mlp::new(&[4, 1], &mut rng);
        let cfg = AdamConfig::default();
        let tree = tiny_tree();
        let g = Graph::from_tree(&tree);
        let (mut ws, mut head_ws) = (GcnWs::default(), MlpWs::default());
        let mut head_grads = GradSet::from_shapes(&head.grad_shapes());
        let (mut grad, mut gemb) = (Mat::default(), Mat::default());
        let mut scratch = Workspace::new();
        let mut t = 0;
        for _ in 0..600 {
            let x = Mat::randn(3, 2, 1.0, &mut rng);
            let label = x.data.iter().sum::<f32>(); // sum of all features
            gcn.forward_ws(&x, &g, &mut ws);
            head.forward_ws(ws.emb(), &mut head_ws);
            mse_into(head_ws.out(), &Mat::from_vec(1, 1, vec![label]), &mut grad);
            gcn.zero_grad();
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
            gcn.backward_ws(&g, &ws, &gemb, &mut scratch);
            t += 1;
            gcn.adam_step(0.01, t, &cfg);
            head.adam_step(0.01, t, &cfg);
        }
        let x = Mat::randn(3, 2, 1.0, &mut rng);
        let label = x.data.iter().sum::<f32>();
        let pred = head.infer(&gcn.infer(&x, &g)).data[0];
        assert!((pred - label).abs() < 0.5, "pred {pred} vs label {label}");
    }
}
