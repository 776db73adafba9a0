//! Tree Convolutional Networks over binary plan trees.
//!
//! "Tree convolution applies learnable filters over each tree node and its
//! children, aggregating information upward from child to parent. By
//! stacking more TCN layers, each node progressively integrates hierarchical
//! information from deeper subtrees. The resulting node representations are
//! pooled and then passed through a fully connected layer" (Section 4,
//! Predictive Module Design) — exactly the PlanEmb architecture of Bao/Neo.
//!
//! The workspace (`_ws`) entry points are the training hot path: the
//! per-node convolution is fused (self/left/right dot products + bias +
//! ReLU in one output pass, no gathered child matrices are materialized)
//! and every buffer is caller-provided, so a warm training step performs no
//! heap allocation. The legacy `forward`/`backward` pair delegates to the
//! same kernels.

use crate::convsimd::{self, ConvTransposes};
use crate::kernels::{kernel_mode, KernelMode};
use crate::linear::{relu_mask_into, Linear};
use crate::mat::{axpy, dot, run_row_blocked, Mat};
use crate::param::{AdamConfig, Param, WeightsGen};
use crate::sparse::{sparse_dot, SparseRows};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Structural view of a binary tree: per-node left/right child indices.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TreeStructure {
    /// Left child of each node, if any.
    pub left: Vec<Option<usize>>,
    /// Right child of each node, if any.
    pub right: Vec<Option<usize>>,
}

impl TreeStructure {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.left.len()
    }

    /// True if the tree has no nodes.
    pub fn is_empty(&self) -> bool {
        self.left.is_empty()
    }
}

/// One tree-convolution layer:
/// `h_i = relu(W_s x_i + W_l x_{left(i)} + W_r x_{right(i)} + b)`,
/// with missing children treated as zero vectors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeConvLayer {
    w_self: Param,
    w_left: Param,
    w_right: Param,
    b: Param,
    /// Weight-state stamp: minted fresh at construction/deserialization and
    /// re-minted by every method that mutates or exposes the weights, so
    /// the inference path can reuse weight-derived scratch (the transposed
    /// matrices of the lane-rows kernel) across calls. Equal stamps imply
    /// bit-identical weights; see [`WeightsGen`].
    gen: WeightsGen,
}

/// Cache for the backward pass of one layer.
#[derive(Debug, Clone)]
pub struct TreeConvCache {
    input: Mat,
    out: Mat,
}

impl TreeConvLayer {
    /// He-initialized layer mapping `in_dim` → `out_dim`.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        let std = (2.0 / (3.0 * in_dim as f32)).sqrt();
        TreeConvLayer {
            w_self: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            w_left: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            w_right: Param::new(Mat::randn(out_dim, in_dim, std, rng)),
            b: Param::new(Mat::zeros(1, out_dim)),
            gen: WeightsGen::fresh(),
        }
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.w_self.value.rows
    }

    /// Forward over all nodes at once (`x`: nodes×in).
    ///
    /// Thin allocating wrapper over [`TreeConvLayer::forward_ws`].
    pub fn forward(&self, x: &Mat, tree: &TreeStructure) -> (Mat, TreeConvCache) {
        let mut out = Mat::default();
        self.forward_ws(x, tree, &mut out);
        (
            out.clone(),
            TreeConvCache {
                input: x.clone(),
                out,
            },
        )
    }

    /// Fused allocation-free forward: for each node, the self/left/right
    /// dot products, bias, and ReLU happen in one pass over the output row —
    /// no gathered child matrices are materialized. Missing children
    /// contribute nothing (a zero row's dot product). Row-parallel above the
    /// work gate with a fixed per-element accumulation order
    /// (self + left + right + bias), so results are bit-identical at any
    /// thread count. Under [`KernelMode::Simd`] each node runs through the
    /// output-blocked kernel of the `convsimd` module — bit-identical to the
    /// reference loop (the mode is sampled once per call, so one forward
    /// never mixes kernels across row blocks).
    pub fn forward_ws(&self, x: &Mat, tree: &TreeStructure, out: &mut Mat) {
        let n = x.rows;
        let id = x.cols;
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        let (ws, wl, wr) = (&self.w_self.value, &self.w_left.value, &self.w_right.value);
        let bias = &self.b.value.data;
        let simd = kernel_mode() == KernelMode::Simd;
        let flops = 6 * n * id * od;
        run_row_blocked(out, flops, |i0, chunk| {
            for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                let i = i0 + bi;
                let xi = x.row(i);
                let xl = tree.left[i].map(|j| x.row(j));
                let xr = tree.right[i].map(|j| x.row(j));
                if simd {
                    convsimd::conv_node_dense(
                        xi, xl, xr, &ws.data, &wl.data, &wr.data, bias, id, orow,
                    );
                    continue;
                }
                for (j, (o, &bj)) in orow.iter_mut().zip(bias).enumerate() {
                    let mut s = dot(xi, &ws.data[j * id..(j + 1) * id]);
                    if let Some(xl) = xl {
                        s += dot(xl, &wl.data[j * id..(j + 1) * id]);
                    }
                    if let Some(xr) = xr {
                        s += dot(xr, &wr.data[j * id..(j + 1) * id]);
                    }
                    *o = (s + bj).max(0.0);
                }
            }
        });
    }

    /// Fused forward over a sparse input view; bitwise identical to
    /// [`TreeConvLayer::forward_ws`] on the dense matrix (see the
    /// [`crate::sparse`] module docs for the argument). Feature rows are
    /// ~90% zeros, so this is the main single-thread win of the training
    /// hot path: only stored nonzeros are multiplied.
    pub fn forward_ws_sparse(&self, x: &SparseRows, tree: &TreeStructure, out: &mut Mat) {
        let n = x.rows();
        let id = x.dim();
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        let (ws, wl, wr) = (&self.w_self.value, &self.w_left.value, &self.w_right.value);
        let bias = &self.b.value.data;
        let flops = 6 * x.nnz() * od;
        run_row_blocked(out, flops, |i0, chunk| {
            for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                let i = i0 + bi;
                let xi = x.row(i);
                let xl = tree.left[i].map(|j| x.row(j));
                let xr = tree.right[i].map(|j| x.row(j));
                for (j, (o, &bj)) in orow.iter_mut().zip(bias).enumerate() {
                    let mut s = sparse_dot(xi.0, xi.1, &ws.data[j * id..(j + 1) * id]);
                    if let Some((cl, vl)) = xl {
                        s += sparse_dot(cl, vl, &wl.data[j * id..(j + 1) * id]);
                    }
                    if let Some((cr, vr)) = xr {
                        s += sparse_dot(cr, vr, &wr.data[j * id..(j + 1) * id]);
                    }
                    *o = (s + bj).max(0.0);
                }
            }
        });
    }

    /// [`TreeConvLayer::forward_ws_sparse`] through the lane-rows kernel of
    /// the `convsimd` module: instead of `od` branchy passes over each CSR
    /// row, every stored nonzero streams one sequential multiply-add row
    /// against the transposed weights (rebuilt in place into `wt` — zero
    /// allocation once warm). Bitwise identical to the scalar sparse kernel,
    /// and through it to the dense forward; see the `convsimd` module docs
    /// for the lane argument. The inference hot path's conv1 kernel.
    pub(crate) fn forward_ws_sparse_blocked(
        &self,
        x: &SparseRows,
        tree: &TreeStructure,
        wt: &mut ConvTransposes,
        out: &mut Mat,
    ) {
        let n = x.rows();
        let id = x.dim();
        let od = self.out_dim();
        assert_eq!(id, self.w_self.value.cols, "tree conv input width");
        assert_eq!(n, tree.len(), "tree/feature row mismatch");
        out.resize_in_place(n, od);
        wt.prepare(
            self.gen.value(),
            &self.w_self.value,
            &self.w_left.value,
            &self.w_right.value,
        );
        let wt = &*wt;
        let bias = &self.b.value.data;
        let flops = 6 * x.nnz() * od;
        run_row_blocked(out, flops, |i0, chunk| {
            convsimd::with_sparse_scratch(od, |scratch| {
                for (bi, orow) in chunk.chunks_mut(od).enumerate() {
                    let i = i0 + bi;
                    let rows = [
                        Some(x.row(i)),
                        tree.left[i].map(|j| x.row(j)),
                        tree.right[i].map(|j| x.row(j)),
                    ];
                    convsimd::conv_node_sparse(rows, wt.slices(), bias, id, od, scratch, orow);
                }
            });
        });
    }

    /// Backward: accumulates parameter grads, returns grad w.r.t. `x`.
    ///
    /// Thin allocating wrapper over [`TreeConvLayer::backward_ws`].
    pub fn backward(&mut self, cache: &TreeConvCache, tree: &TreeStructure, grad_out: &Mat) -> Mat {
        let mut grads: Vec<Mat> = self
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        let mut grad_x = Mat::default();
        self.backward_ws(
            &cache.input,
            &cache.out,
            tree,
            grad_out,
            &mut grads,
            Some(&mut grad_x),
            &mut scratch,
        );
        for (p, g) in self.params_mut().into_iter().zip(&grads) {
            p.grad.add_assign(g);
        }
        grad_x
    }

    /// Allocation-free backward. `h` is the forward output (its zeros mask
    /// the ReLU); per-parameter gradients go into zeroed scratch first and
    /// are then added to `grads` (layout per [`TreeConvLayer::grad_shapes`]),
    /// keeping one accumulation order for wrapper and workspace callers.
    /// Skipping `grad_in` skips the three input-gradient matmuls entirely —
    /// the first layer of an encoder never needs them.
    #[allow(clippy::too_many_arguments)]
    pub fn backward_ws(
        &self,
        x: &Mat,
        h: &Mat,
        tree: &TreeStructure,
        grad_out: &Mat,
        grads: &mut [Mat],
        grad_in: Option<&mut Mat>,
        scratch: &mut Workspace,
    ) {
        assert_eq!(grads.len(), 4, "tree conv grad layout");
        let od = self.out_dim();
        let id = x.cols;
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(h, grad_out, gpre);
            scratch.with(od, id, |scratch, dw| {
                gpre.matmul_tn_into(x, dw);
                grads[0].add_assign(dw);
                tn_gather_into(gpre, x, &tree.left, dw);
                grads[1].add_assign(dw);
                tn_gather_into(gpre, x, &tree.right, dw);
                grads[2].add_assign(dw);
                scratch.with(1, od, |_, db| {
                    gpre.col_sums_into(db);
                    grads[3].add_assign(db);
                });
            });
            if let Some(grad_x) = grad_in {
                // grad_x: self term + scattered child terms.
                gpre.matmul_into(&self.w_self.value, grad_x);
                scratch.with(gpre.rows, id, |_, via| {
                    gpre.matmul_into(&self.w_left.value, via);
                    scatter_add(grad_x, via, &tree.left);
                    gpre.matmul_into(&self.w_right.value, via);
                    scatter_add(grad_x, via, &tree.right);
                });
            }
        });
    }

    /// Allocation-free backward over a sparse input view; bitwise identical
    /// to [`TreeConvLayer::backward_ws`] with `grad_in: None` (the sparse
    /// path serves the encoder's first layer, whose input never needs a
    /// gradient). The weight-gradient kernels touch only stored nonzeros of
    /// `x` while keeping the dense kernels' per-element ascending-node
    /// accumulation order.
    pub fn backward_ws_sparse(
        &self,
        x: &SparseRows,
        h: &Mat,
        tree: &TreeStructure,
        grad_out: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
    ) {
        assert_eq!(grads.len(), 4, "tree conv grad layout");
        let od = self.out_dim();
        let id = x.dim();
        scratch.with(grad_out.rows, grad_out.cols, |scratch, gpre| {
            relu_mask_into(h, grad_out, gpre);
            scratch.with(od, id, |scratch, dw| {
                tn_sparse_into(gpre, x, dw);
                grads[0].add_assign(dw);
                tn_gather_sparse_into(gpre, x, &tree.left, dw);
                grads[1].add_assign(dw);
                tn_gather_sparse_into(gpre, x, &tree.right, dw);
                grads[2].add_assign(dw);
                scratch.with(1, od, |_, db| {
                    gpre.col_sums_into(db);
                    grads[3].add_assign(db);
                });
            });
        });
    }

    /// Parameters in canonical order: `[w_self, w_left, w_right, b]`.
    pub fn params(&self) -> [&Param; 4] {
        [&self.w_self, &self.w_left, &self.w_right, &self.b]
    }

    /// Mutable parameter access in canonical order. Conservatively marks a
    /// new weight state (the caller may write through the borrows).
    pub fn params_mut(&mut self) -> [&mut Param; 4] {
        self.gen.bump();
        [
            &mut self.w_self,
            &mut self.w_left,
            &mut self.w_right,
            &mut self.b,
        ]
    }

    /// Gradient-buffer shapes in [`TreeConvLayer::params`] order.
    pub fn grad_shapes(&self) -> Vec<(usize, usize)> {
        self.params()
            .iter()
            .map(|p| (p.value.rows, p.value.cols))
            .collect()
    }

    /// Clears gradients.
    pub fn zero_grad(&mut self) {
        self.w_self.zero_grad();
        self.w_left.zero_grad();
        self.w_right.zero_grad();
        self.b.zero_grad();
    }

    /// Adam step.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.gen.bump();
        self.w_self.adam_step(lr, t, cfg);
        self.w_left.adam_step(lr, t, cfg);
        self.w_right.adam_step(lr, t, cfg);
        self.b.adam_step(lr, t, cfg);
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.w_self.len() + self.w_left.len() + self.w_right.len() + self.b.len()
    }
}

/// `out = gpreᵀ @ gather(x, idx)` without materializing the gather: the
/// weight gradient of one child filter. Accumulation per output element is
/// ascending node order, the same k-outer order as [`Mat::matmul_tn`];
/// nodes without the child are skipped (a zero row contributes nothing).
fn tn_gather_into(gpre: &Mat, x: &Mat, idx: &[Option<usize>], out: &mut Mat) {
    out.resize_in_place(gpre.cols, x.cols);
    out.fill(0.0);
    for (k, &j) in idx.iter().enumerate() {
        let Some(j) = j else { continue };
        let xrow = &x.data[j * x.cols..(j + 1) * x.cols];
        let grow = gpre.row(k);
        for (r, &g) in grow.iter().enumerate() {
            axpy(out.row_mut(r), g, xrow);
        }
    }
}

/// `out = gpreᵀ @ x` over the sparse view: per output element the
/// accumulation is ascending node order with one add per node, the same
/// order as [`Mat::matmul_tn`] — nodes where `x` stores no value for a
/// column are skipped (their dense product is an exact zero).
fn tn_sparse_into(gpre: &Mat, x: &SparseRows, out: &mut Mat) {
    out.resize_in_place(gpre.cols, x.dim());
    out.fill(0.0);
    let id = x.dim();
    for k in 0..x.rows() {
        let (cols, vals) = x.row(k);
        let grow = gpre.row(k);
        for (r, &g) in grow.iter().enumerate() {
            let orow = &mut out.data[r * id..(r + 1) * id];
            for (&c, &v) in cols.iter().zip(vals) {
                orow[c as usize] += g * v;
            }
        }
    }
}

/// Sparse analog of [`tn_gather_into`]: the child-filter weight gradient
/// without materializing the gather, iterating only stored nonzeros.
fn tn_gather_sparse_into(gpre: &Mat, x: &SparseRows, idx: &[Option<usize>], out: &mut Mat) {
    out.resize_in_place(gpre.cols, x.dim());
    out.fill(0.0);
    let id = x.dim();
    for (k, &j) in idx.iter().enumerate() {
        let Some(j) = j else { continue };
        let (cols, vals) = x.row(j);
        let grow = gpre.row(k);
        for (r, &g) in grow.iter().enumerate() {
            let orow = &mut out.data[r * id..(r + 1) * id];
            for (&c, &v) in cols.iter().zip(vals) {
                orow[c as usize] += g * v;
            }
        }
    }
}

/// `target[idx[i]] += src[i]` for present children.
fn scatter_add(target: &mut Mat, src: &Mat, idx: &[Option<usize>]) {
    for (i, &j) in idx.iter().enumerate() {
        if let Some(j) = j {
            let cols = target.cols;
            for c in 0..cols {
                target.data[j * cols + c] += src.data[i * cols + c];
            }
        }
    }
}

/// Dynamic pooling over node representations: concatenated max and mean
/// pools plus a log node count. Max pooling captures dominant operators;
/// mean pooling (≈ sum / n) matches the additive structure of plan cost.
fn pool_into(h: &Mat, pooled: &mut Mat, arg: &mut Vec<usize>) {
    pooled.resize_in_place(1, 2 * h.cols + 1);
    pool_rows_into(h, 0, h.rows, &mut pooled.data, arg);
}

/// Pools the node rows `r0..r1` of `h` into `out` (one `2d+1`-wide pooled
/// row). Shared by the single-tree [`pool_into`] and the forest forward, so
/// a tree pooled as a forest segment is bit-identical to pooling it alone:
/// the per-column scan order (ascending row) and the division by the segment
/// length are the same. `arg` records the absolute argmax rows.
fn pool_rows_into(h: &Mat, r0: usize, r1: usize, out: &mut [f32], arg: &mut Vec<usize>) {
    let d = h.cols;
    debug_assert_eq!(out.len(), 2 * d + 1, "pooled row width");
    let n = r1 - r0;
    arg.clear();
    arg.resize(d, 0);
    for (c, arg_c) in arg.iter_mut().enumerate() {
        let mut best = f32::MIN;
        let mut sum = 0.0;
        for r in r0..r1 {
            let v = h.get(r, c);
            sum += v;
            if v > best {
                best = v;
                *arg_c = r;
            }
        }
        out[c] = best;
        out[d + c] = sum / n.max(1) as f32;
    }
    out[2 * d] = (1.0 + n as f32).ln();
}

/// The full PlanEmb tree-convolutional encoder: two tree-conv layers,
/// dynamic max pooling, and a fully connected projection to the embedding.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tcn {
    conv1: TreeConvLayer,
    conv2: TreeConvLayer,
    proj: Linear,
}

/// Reusable per-model activation buffers for the workspace forward/backward
/// pair.
#[derive(Debug, Clone, Default)]
pub struct TcnWs {
    h1: Mat,
    h2: Mat,
    pooled: Mat,
    argmax: Vec<usize>,
    emb: Mat,
}

impl TcnWs {
    /// The embedding produced by the last `forward_ws` call.
    pub fn emb(&self) -> &Mat {
        &self.emb
    }

    /// Bytes held by the activation buffers.
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        (self.h1.data.capacity()
            + self.h2.data.capacity()
            + self.pooled.data.capacity()
            + self.emb.data.capacity())
            * f
            + self.argmax.capacity() * std::mem::size_of::<usize>()
    }
}

/// Backward cache for one encoded tree.
#[derive(Debug, Clone)]
pub struct TcnCache {
    x: Mat,
    ws: TcnWs,
}

/// Reusable buffers for [`Tcn::forward_forest_stacked_ws`]: the stacked
/// (unpadded) node matrix and offset tree structure of the whole batch, the shared convolution
/// activations, and the per-tree pooled/embedding rows. One warm instance
/// per serving worker; never reallocates once the largest batch shape has
/// been seen.
#[derive(Debug, Clone, Default)]
pub struct ForestWs {
    x: Mat,
    tree: TreeStructure,
    /// Prefix node offsets: tree `b` owns rows `bounds[b]..bounds[b+1]`.
    bounds: Vec<usize>,
    /// CSR view of `x`, rebuilt in place by the sparse forward.
    sx: SparseRows,
    /// CSR view of the post-ReLU `h1` (≈half exact zeros), rebuilt in place
    /// by the SIMD-mode sparse forward so conv2 can skip them too.
    sh1: SparseRows,
    /// Transposed conv1 weights for the SIMD-mode sparse kernel, rebuilt in
    /// place per forward.
    wt: ConvTransposes,
    /// Transposed conv2 weights, same role as `wt`.
    wt2: ConvTransposes,
    h1: Mat,
    h2: Mat,
    pooled: Mat,
    argmax: Vec<usize>,
    emb: Mat,
}

impl ForestWs {
    /// The batch embeddings of the last forward: one row per tree, in input
    /// order.
    pub fn emb(&self) -> &Mat {
        &self.emb
    }

    /// Mutable access to the stacked input: the batch node matrix, the
    /// offset tree structure, and the prefix bounds. For callers that build
    /// the batch directly instead of stacking per-tree matrices — e.g. a
    /// batched featurizer writing every plan's rows contiguously in place —
    /// after which [`Tcn::forward_forest_stacked_ws`] consumes exactly these
    /// three buffers. The stacking contract: `x` holds all trees' node rows
    /// back to back, `tree` holds child indices offset into the stack, and
    /// `bounds` holds `ntrees + 1` prefix offsets starting at 0 and ending
    /// at `x.rows`.
    pub fn stacked_parts_mut(&mut self) -> (&mut Mat, &mut TreeStructure, &mut Vec<usize>) {
        (&mut self.x, &mut self.tree, &mut self.bounds)
    }

    /// Stacks `n` trees (produced by `item`, called twice per index: once to
    /// size the batch, once to fill it) into the workspace's batch buffers
    /// per the [`ForestWs::stacked_parts_mut`] contract. Closure-based so
    /// callers holding trees behind `Arc`s or caches can stack without first
    /// materializing a slice of references.
    pub fn stack_with<'a>(
        &mut self,
        n: usize,
        item: impl Fn(usize) -> (&'a Mat, &'a TreeStructure),
    ) {
        self.tree.left.clear();
        self.tree.right.clear();
        self.bounds.clear();
        self.bounds.push(0);
        if n == 0 {
            self.x.resize_in_place(0, self.x.cols.max(1));
            return;
        }
        let in_dim = item(0).0.cols;
        let total: usize = (0..n).map(|i| item(i).0.rows).sum();
        self.x.resize_in_place(total, in_dim);
        let mut off = 0;
        for i in 0..n {
            let (xi, ti) = item(i);
            assert_eq!(xi.rows, ti.len(), "tree/feature row mismatch");
            assert_eq!(xi.cols, in_dim, "inconsistent feature widths in a batch");
            self.x.data[off * in_dim..(off + xi.rows) * in_dim].copy_from_slice(&xi.data);
            self.tree
                .left
                .extend(ti.left.iter().map(|c| c.map(|j| j + off)));
            self.tree
                .right
                .extend(ti.right.iter().map(|c| c.map(|j| j + off)));
            off += xi.rows;
            self.bounds.push(off);
        }
    }

    /// Bytes held by the batch buffers.
    pub fn bytes(&self) -> usize {
        let f = std::mem::size_of::<f32>();
        let u = std::mem::size_of::<usize>();
        (self.x.data.capacity()
            + self.h1.data.capacity()
            + self.h2.data.capacity()
            + self.pooled.data.capacity()
            + self.emb.data.capacity())
            * f
            + self.sx.bytes()
            + self.sh1.bytes()
            + self.wt.bytes()
            + self.wt2.bytes()
            + (self.bounds.capacity() + self.argmax.capacity()) * u
            + (self.tree.left.capacity() + self.tree.right.capacity())
                * std::mem::size_of::<Option<usize>>()
    }
}

impl Tcn {
    /// Builds an encoder `in_dim → hidden1 → hidden2 → emb_dim`.
    pub fn new<R: Rng>(
        in_dim: usize,
        hidden1: usize,
        hidden2: usize,
        emb_dim: usize,
        rng: &mut R,
    ) -> Tcn {
        Tcn {
            conv1: TreeConvLayer::new(in_dim, hidden1, rng),
            conv2: TreeConvLayer::new(hidden1, hidden2, rng),
            proj: Linear::new(2 * hidden2 + 1, emb_dim, rng),
        }
    }

    /// Embedding width.
    pub fn emb_dim(&self) -> usize {
        self.proj.out_dim()
    }

    /// Encodes one tree (`x`: nodes×in) into a 1×emb embedding.
    ///
    /// Thin allocating wrapper over [`Tcn::forward_ws`].
    pub fn forward(&self, x: &Mat, tree: &TreeStructure) -> (Mat, TcnCache) {
        let mut ws = TcnWs::default();
        self.forward_ws(x, tree, &mut ws);
        let emb = ws.emb.clone();
        (emb, TcnCache { x: x.clone(), ws })
    }

    /// Allocation-free encoding into the workspace's reusable buffers; the
    /// embedding lands in `ws.emb()`.
    pub fn forward_ws(&self, x: &Mat, tree: &TreeStructure, ws: &mut TcnWs) {
        let TcnWs {
            h1,
            h2,
            pooled,
            argmax,
            emb,
        } = ws;
        self.conv1.forward_ws(x, tree, h1);
        self.conv2.forward_ws(h1, tree, h2);
        pool_into(h2, pooled, argmax);
        self.proj.forward_into(pooled, emb);
    }

    /// Allocation-free encoding from a sparse feature view: conv1 consumes
    /// the CSR index directly (bitwise identical to [`Tcn::forward_ws`] on
    /// the dense matrix), and the dense downstream layers are unchanged.
    pub fn forward_ws_sparse(&self, x: &SparseRows, tree: &TreeStructure, ws: &mut TcnWs) {
        let TcnWs {
            h1,
            h2,
            pooled,
            argmax,
            emb,
        } = ws;
        self.conv1.forward_ws_sparse(x, tree, h1);
        self.conv2.forward_ws(h1, tree, h2);
        pool_into(h2, pooled, argmax);
        self.proj.forward_into(pooled, emb);
    }

    /// Inference-only encoding.
    pub fn infer(&self, x: &Mat, tree: &TreeStructure) -> Mat {
        let mut ws = TcnWs::default();
        self.forward_ws(x, tree, &mut ws);
        ws.emb
    }

    /// Batched ("forest") encoding of a batch already stacked into `ws`
    /// (via [`ForestWs::stack_with`] or written directly through
    /// [`ForestWs::stacked_parts_mut`]): both convolution layers run as one
    /// kernel invocation over every node of the batch, each tree's row
    /// segment is pooled, and the pooled batch is projected through one
    /// matmul. The embeddings land in `ws.emb()`, one row per tree, in
    /// input order.
    ///
    /// Bit-identical to encoding each tree alone with [`Tcn::infer`]: the
    /// convolution is row-local (a node sees only itself and its own
    /// children, whose indices are offset within the same tree), pooling
    /// shares the per-segment kernel with the single-tree path, and the
    /// projection computes each output row as an independent dot product.
    /// When `sparse`, conv1 runs over a CSR index of the stacked matrix,
    /// rebuilt in place — under [`KernelMode::Simd`] through the lane-rows
    /// kernel, otherwise through the scalar CSR kernel; the result is
    /// bitwise identical every way (plan-feature rows are ~90% zeros, so
    /// this is the main single-thread win of the inference hot path).
    pub fn forward_forest_stacked_ws(&self, ws: &mut ForestWs, sparse: bool) {
        let ForestWs {
            x,
            tree,
            bounds,
            sx,
            sh1,
            wt,
            wt2,
            h1,
            h2,
            pooled,
            argmax,
            emb,
        } = ws;
        let ntrees = bounds.len().saturating_sub(1);
        if ntrees == 0 {
            emb.resize_in_place(0, self.emb_dim());
            return;
        }
        debug_assert_eq!(bounds[0], 0, "bounds must start at 0");
        debug_assert_eq!(bounds[ntrees], x.rows, "bounds must end at x.rows");
        if sparse && kernel_mode() == KernelMode::Simd {
            // conv1 through the sparse node kernel over the feature
            // nonzeros. conv2's input is the post-ReLU `h1` (skipping its
            // exact zeros is bit-exact too — see the `crate::sparse` module
            // docs), but whether that pays depends on how much ReLU actually
            // zeroed: the sparse kernel beats the dense output-blocked
            // kernel only below ~60% density, so the choice is gated on the
            // measured nonzero count. Either way the bits are identical —
            // the gate is a pure performance decision.
            sx.assign_from_dense(x);
            self.conv1.forward_ws_sparse_blocked(sx, tree, wt, h1);
            sh1.assign_from_dense(h1);
            if sh1.nnz() * 5 <= h1.rows * h1.cols * 3 {
                self.conv2.forward_ws_sparse_blocked(sh1, tree, wt2, h2);
            } else {
                self.conv2.forward_ws(h1, tree, h2);
            }
        } else if sparse {
            sx.assign_from_dense(x);
            self.conv1.forward_ws_sparse(sx, tree, h1);
            self.conv2.forward_ws(h1, tree, h2);
        } else {
            self.conv1.forward_ws(x, tree, h1);
            self.conv2.forward_ws(h1, tree, h2);
        }
        let d = h2.cols;
        pooled.resize_in_place(ntrees, 2 * d + 1);
        for b in 0..ntrees {
            let row = &mut pooled.data[b * (2 * d + 1)..(b + 1) * (2 * d + 1)];
            pool_rows_into(h2, bounds[b], bounds[b + 1], row, argmax);
        }
        self.proj.forward_into(pooled, emb);
    }

    /// Backward from an embedding gradient; accumulates parameter grads.
    ///
    /// Thin allocating wrapper over the workspace kernels that preserves the
    /// legacy engine's full cost profile: it also computes conv1's input
    /// gradient (into discarded scratch), exactly as the original
    /// per-layer `backward` chain did — three matmuls plus two scatters per
    /// tree that the `_ws` training path skips.
    pub fn backward(&mut self, cache: &TcnCache, tree: &TreeStructure, grad_emb: &Mat) {
        let mut grads: Vec<Mat> = self
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        let (x, ws) = (&cache.x, &cache.ws);
        self.backward_ws_with(
            tree,
            ws,
            grad_emb,
            &mut grads,
            &mut scratch,
            |conv1, grad_h1, g1, scratch| {
                scratch.with(x.rows, x.cols, |scratch, gx| {
                    conv1.backward_ws(x, &ws.h1, tree, grad_h1, g1, Some(gx), scratch);
                });
            },
        );
        self.add_grads(&grads);
    }

    /// Allocation-free backward: parameter gradients are added into `grads`
    /// (layout per [`Tcn::grad_shapes`]). The first conv layer's input
    /// gradient is never computed — the encoder input needs no gradient, and
    /// the legacy path wasted three matmuls plus two scatters per tree on it.
    pub fn backward_ws(
        &self,
        x: &Mat,
        tree: &TreeStructure,
        ws: &TcnWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
    ) {
        self.backward_ws_with(
            tree,
            ws,
            grad_emb,
            grads,
            scratch,
            |conv1, grad_h1, g1, scratch| {
                conv1.backward_ws(x, &ws.h1, tree, grad_h1, g1, None, scratch);
            },
        );
    }

    /// Sparse-input backward: conv1's weight gradients are accumulated from
    /// the CSR view (bitwise identical to the dense path); everything
    /// downstream is shared with [`Tcn::backward_ws`].
    pub fn backward_ws_sparse(
        &self,
        x: &SparseRows,
        tree: &TreeStructure,
        ws: &TcnWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
    ) {
        self.backward_ws_with(
            tree,
            ws,
            grad_emb,
            grads,
            scratch,
            |conv1, grad_h1, g1, scratch| {
                conv1.backward_ws_sparse(x, &ws.h1, tree, grad_h1, g1, scratch);
            },
        );
    }

    /// Shared backward skeleton: proj → un-pool → conv2, then hands conv1's
    /// upstream gradient to the caller-chosen first-layer kernel.
    fn backward_ws_with(
        &self,
        tree: &TreeStructure,
        ws: &TcnWs,
        grad_emb: &Mat,
        grads: &mut [Mat],
        scratch: &mut Workspace,
        conv1_back: impl FnOnce(&TreeConvLayer, &Mat, &mut [Mat], &mut Workspace),
    ) {
        assert_eq!(grads.len(), 10, "tcn grad layout");
        let (g1, rest) = grads.split_at_mut(4);
        let (g2, gp) = rest.split_at_mut(4);
        let (gpw, gpb) = {
            let (a, b) = gp.split_at_mut(1);
            (&mut a[0], &mut b[0])
        };
        scratch.with(1, ws.pooled.cols, |scratch, grad_pooled| {
            Linear::backward_into(
                &self.proj.w.value,
                &ws.pooled,
                grad_emb,
                gpw,
                gpb,
                Some(grad_pooled),
                scratch,
            );
            // Un-pool: max gradients route to argmax rows, mean gradients
            // spread over all rows. The node-count term has no input
            // gradient.
            let d = ws.h2.cols;
            let n = ws.h2.rows.max(1) as f32;
            scratch.with_zeroed(ws.h2.rows, ws.h2.cols, |scratch, grad_h2| {
                for c in 0..d {
                    let r = ws.argmax[c];
                    grad_h2.data[r * d + c] += grad_pooled.data[c];
                    let gm = grad_pooled.data[d + c] / n;
                    for row in 0..ws.h2.rows {
                        grad_h2.data[row * d + c] += gm;
                    }
                }
                scratch.with(ws.h1.rows, ws.h1.cols, |scratch, grad_h1| {
                    self.conv2.backward_ws(
                        &ws.h1,
                        &ws.h2,
                        tree,
                        grad_h2,
                        g2,
                        Some(grad_h1),
                        scratch,
                    );
                    conv1_back(&self.conv1, grad_h1, g1, scratch);
                });
            });
        });
    }

    /// Parameters in canonical order: conv1's four, conv2's four, then the
    /// projection's weight and bias.
    pub fn params(&self) -> Vec<&Param> {
        let mut out: Vec<&Param> = Vec::with_capacity(10);
        out.extend(self.conv1.params());
        out.extend(self.conv2.params());
        out.push(&self.proj.w);
        out.push(&self.proj.b);
        out
    }

    /// Mutable parameter access in [`Tcn::params`] order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut out: Vec<&mut Param> = Vec::with_capacity(10);
        out.extend(self.conv1.params_mut());
        out.extend(self.conv2.params_mut());
        out.push(&mut self.proj.w);
        out.push(&mut self.proj.b);
        out
    }

    /// Gradient-buffer shapes in [`Tcn::params`] order.
    pub fn grad_shapes(&self) -> Vec<(usize, usize)> {
        self.params()
            .iter()
            .map(|p| (p.value.rows, p.value.cols))
            .collect()
    }

    /// Adds externally accumulated gradients (in [`Tcn::params`] order) into
    /// the parameters' gradient accumulators.
    pub fn add_grads(&mut self, mats: &[Mat]) {
        let params = self.params_mut();
        assert_eq!(mats.len(), params.len(), "tcn grad layout");
        for (p, g) in params.into_iter().zip(mats) {
            p.grad.add_assign(g);
        }
    }

    /// Clears all gradients.
    pub fn zero_grad(&mut self) {
        self.conv1.zero_grad();
        self.conv2.zero_grad();
        self.proj.zero_grad();
    }

    /// Adam step on all parameters.
    pub fn adam_step(&mut self, lr: f32, t: u64, cfg: &AdamConfig) {
        self.conv1.adam_step(lr, t, cfg);
        self.conv2.adam_step(lr, t, cfg);
        self.proj.adam_step(lr, t, cfg);
    }

    /// Scalar parameter count.
    pub fn param_count(&self) -> usize {
        self.conv1.param_count() + self.conv2.param_count() + self.proj.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A three-node tree: root(0) with children 1 (left) and 2 (right).
    fn tiny_tree() -> TreeStructure {
        TreeStructure {
            left: vec![Some(1), None, None],
            right: vec![Some(2), None, None],
        }
    }

    /// Stacks `items` into `ws` and runs the forest forward over them.
    fn forest_forward(
        tcn: &Tcn,
        items: &[(&Mat, &TreeStructure)],
        ws: &mut ForestWs,
        sparse: bool,
    ) {
        ws.stack_with(items.len(), |i| items[i]);
        tcn.forward_forest_stacked_ws(ws, sparse);
    }

    #[test]
    fn forward_shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0);
        let tcn = Tcn::new(6, 8, 4, 3, &mut rng);
        let x = Mat::randn(3, 6, 1.0, &mut rng);
        let (emb, _) = tcn.forward(&x, &tiny_tree());
        assert_eq!((emb.rows, emb.cols), (1, 3));
    }

    /// The batched forest forward must be bit-identical to encoding every
    /// tree alone — the guarantee the serving layer's request batching
    /// stands on. Mixed shapes (chains, the three-node tree, a single leaf)
    /// exercise the segment offsets.
    #[test]
    fn forest_forward_matches_single_tree_inference_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let tcn = Tcn::new(5, 8, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(5), chain(1), tiny_tree(), chain(7)];
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| Mat::randn(t.len(), 5, 1.0, &mut rng))
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let mut ws = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws, false);
        assert_eq!((ws.emb().rows, ws.emb().cols), (items.len(), 4));
        for (b, (x, t)) in items.iter().enumerate() {
            let single = tcn.infer(x, t);
            assert_eq!(
                ws.emb().row(b),
                &single.data[..],
                "forest row {b} must be bit-identical to the single-tree path"
            );
        }
        // Warm reuse with a different batch size stays correct.
        forest_forward(&tcn, &items[..2], &mut ws, false);
        assert_eq!(ws.emb().rows, 2);
        assert_eq!(ws.emb().row(1), &tcn.infer(&xs[1], &trees[1]).data[..]);
        // An empty batch yields an empty embedding matrix.
        forest_forward(&tcn, &[], &mut ws, false);
        assert_eq!(ws.emb().rows, 0);
    }

    /// The sparse-conv1 forest forward must be bit-identical to the dense
    /// one, in both stacking orders (stack then forward, or forward over a
    /// workspace stacked earlier).
    #[test]
    fn sparse_and_prestacked_forest_paths_match_dense_bitwise() {
        let mut rng = StdRng::seed_from_u64(17);
        let tcn = Tcn::new(24, 8, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(4), chain(1), chain(6)];
        // Feature-like rows: a guaranteed one-hot slot plus a few nonzeros.
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| {
                let mut x = Mat::zeros(t.len(), 24);
                for r in 0..t.len() {
                    x.set(r, r % 24, 1.0);
                    for k in 0..3 {
                        x.set(r, (r * 5 + k * 7) % 24, rng.gen_range(-1.5..1.5f32));
                    }
                }
                x
            })
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let mut ws_d = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_d, false);
        let mut ws_s = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_s, true);
        assert_eq!(ws_d.emb(), ws_s.emb(), "sparse forest forward diverged");

        // Stacking through the closure API + the prestacked entry point is
        // the cached serving path; it must match too (both modes).
        for sparse in [false, true] {
            let mut ws_p = ForestWs::default();
            ws_p.stack_with(items.len(), |i| items[i]);
            tcn.forward_forest_stacked_ws(&mut ws_p, sparse);
            assert_eq!(ws_d.emb(), ws_p.emb(), "prestacked (sparse={sparse})");
        }

        // Empty prestacked batch.
        let mut ws_e = ForestWs::default();
        ws_e.stack_with(0, |_| unreachable!());
        tcn.forward_forest_stacked_ws(&mut ws_e, true);
        assert_eq!(ws_e.emb().rows, 0);
    }

    /// The SIMD-mode convolution kernels (output-blocked dense, lane-rows
    /// sparse) must be bit-identical to the scalar reference kernels on the
    /// same inputs — single-tree and stacked-forest paths alike. Dimensions
    /// are chosen to exercise every tail: `id % 4 != 0` (column tails),
    /// `od % 4 != 0` (output-block tails), and rows with nonzeros in the
    /// final tail columns (the sparse kernel's sequential epilogue).
    #[test]
    fn simd_conv_kernels_match_scalar_bitwise() {
        let _guard = crate::kernels::MODE_TEST_MUTEX
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        use crate::kernels::{set_kernel_mode, KernelMode};
        let mut rng = StdRng::seed_from_u64(33);
        let tcn = Tcn::new(30, 10, 6, 4, &mut rng);
        let chain = |n: usize| TreeStructure {
            left: (0..n)
                .map(|i| if i + 1 < n { Some(i + 1) } else { None })
                .collect(),
            right: vec![None; n],
        };
        let trees = [tiny_tree(), chain(5), chain(1), chain(8)];
        let xs: Vec<Mat> = trees
            .iter()
            .map(|t| {
                let mut x = Mat::zeros(t.len(), 30);
                for r in 0..t.len() {
                    x.set(r, r % 26, 1.0);
                    for k in 0..4 {
                        x.set(r, (r * 5 + k * 7) % 26, rng.gen_range(-1.5..1.5f32));
                    }
                    // Tail columns (28, 29) land past `id - id % 4` = 28.
                    x.set(r, 28 + r % 2, rng.gen_range(-1.5..1.5f32));
                }
                x
            })
            .collect();
        let items: Vec<(&Mat, &TreeStructure)> = xs.iter().zip(trees.iter()).collect();

        let prev = set_kernel_mode(KernelMode::Scalar);
        let mut ws_scalar = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_scalar, false);
        let mut ws_scalar_sp = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_scalar_sp, true);
        let singles: Vec<Mat> = items.iter().map(|(x, t)| tcn.infer(x, t)).collect();

        set_kernel_mode(KernelMode::Simd);
        let mut ws_simd = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_simd, false);
        let mut ws_simd_sp = ForestWs::default();
        forest_forward(&tcn, &items, &mut ws_simd_sp, true);
        assert_eq!(
            ws_scalar.emb(),
            ws_simd.emb(),
            "dense blocked kernel diverged from scalar"
        );
        assert_eq!(
            ws_scalar_sp.emb(),
            ws_simd_sp.emb(),
            "sparse lane-rows kernel diverged from scalar"
        );
        assert_eq!(ws_scalar.emb(), ws_scalar_sp.emb(), "sparse vs dense");
        for (b, single) in singles.iter().enumerate() {
            assert_eq!(
                tcn.infer(items[b].0, items[b].1),
                *single,
                "single-tree SIMD forward diverged from scalar (tree {b})"
            );
        }
        set_kernel_mode(prev);
    }

    #[test]
    fn children_influence_parent_representation() {
        let mut rng = StdRng::seed_from_u64(1);
        let tcn = Tcn::new(4, 8, 4, 2, &mut rng);
        let tree = tiny_tree();
        let x1 = Mat::randn(3, 4, 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Change only the left child's features.
        for c in 0..4 {
            x2.set(1, c, x2.get(1, c) + 2.0);
        }
        let e1 = tcn.infer(&x1, &tree);
        let e2 = tcn.infer(&x2, &tree);
        assert!(e1 != e2, "child features must flow into the embedding");
    }

    #[test]
    fn gradient_check_through_the_whole_encoder() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut tcn = Tcn::new(4, 6, 5, 2, &mut rng);
        let tree = tiny_tree();
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(1, 2, 1.0, &mut rng);

        let (emb, cache) = tcn.forward(&x, &tree);
        let (_, grad) = mse(&emb, &target);
        tcn.zero_grad();
        tcn.backward(&cache, &tree, &grad);

        let loss_of = |tcn: &Tcn| {
            let e = tcn.infer(&x, &tree);
            mse(&e, &target).0
        };
        let eps = 1e-2;
        // Check a few first-layer weights (hardest path: conv1 → conv2 →
        // pool → proj).
        for idx in [0usize, 3, 10] {
            let mut tp = tcn.clone();
            tp.conv1.w_left.value.data[idx] += eps;
            let mut tm = tcn.clone();
            tm.conv1.w_left.value.data[idx] -= eps;
            let num = (loss_of(&tp) - loss_of(&tm)) / (2.0 * eps);
            let ana = tcn.conv1.w_left.grad.data[idx];
            assert!(
                (num - ana).abs() < 5e-2,
                "conv1.w_left[{idx}] num {num} vs ana {ana}"
            );
        }
    }

    #[test]
    fn workspace_path_matches_wrapper_bitwise() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut tcn = Tcn::new(5, 7, 6, 3, &mut rng);
        let tree = TreeStructure {
            left: vec![Some(1), Some(3), None, None, None],
            right: vec![Some(2), Some(4), None, None, None],
        };
        let x = Mat::randn(5, 5, 1.0, &mut rng);
        let g = Mat::randn(1, 3, 1.0, &mut rng);

        let (emb_wrap, cache) = tcn.forward(&x, &tree);
        tcn.zero_grad();
        tcn.backward(&cache, &tree, &g);
        let wrap_grads: Vec<Mat> = tcn.params().iter().map(|p| p.grad.clone()).collect();

        let mut ws = TcnWs::default();
        tcn.forward_ws(&x, &tree, &mut ws);
        assert_eq!(*ws.emb(), emb_wrap);
        let mut grads: Vec<Mat> = tcn
            .grad_shapes()
            .iter()
            .map(|&(r, c)| Mat::zeros(r, c))
            .collect();
        let mut scratch = Workspace::new();
        tcn.backward_ws(&x, &tree, &ws, &g, &mut grads, &mut scratch);
        for (got, want) in grads.iter().zip(&wrap_grads) {
            assert_eq!(got, want);
        }
    }

    #[test]
    fn sparse_path_matches_dense_path_bitwise() {
        // Feature-like sparse input (every node row keeps a one-hot slot,
        // most other entries zero): forward embeddings AND all ten parameter
        // gradients must be bit-identical between the dense and sparse
        // kernels.
        let mut rng = StdRng::seed_from_u64(21);
        let tcn = Tcn::new(24, 9, 7, 3, &mut rng);
        let tree = TreeStructure {
            left: vec![Some(1), Some(3), None, None, Some(4)],
            right: vec![Some(2), None, Some(4), None, None],
        };
        let mut x = Mat::zeros(5, 24);
        for r in 0..5 {
            x.set(r, r % 24, 1.0);
            for k in 0..4 {
                x.set(r, (r * 7 + k * 5) % 24, rng.gen_range(-1.5..1.5f32));
            }
        }
        let g = Mat::randn(1, 3, 1.0, &mut rng);

        let mut ws_d = TcnWs::default();
        tcn.forward_ws(&x, &tree, &mut ws_d);
        let sx = SparseRows::from_dense(&x);
        let mut ws_s = TcnWs::default();
        tcn.forward_ws_sparse(&sx, &tree, &mut ws_s);
        assert_eq!(ws_d.emb(), ws_s.emb(), "sparse forward diverged");
        assert_eq!(ws_d.h1, ws_s.h1, "sparse conv1 activations diverged");

        let shapes = tcn.grad_shapes();
        let zeroed = || -> Vec<Mat> { shapes.iter().map(|&(r, c)| Mat::zeros(r, c)).collect() };
        let mut scratch = Workspace::new();
        let mut gd = zeroed();
        tcn.backward_ws(&x, &tree, &ws_d, &g, &mut gd, &mut scratch);
        let mut gs = zeroed();
        tcn.backward_ws_sparse(&sx, &tree, &ws_s, &g, &mut gs, &mut scratch);
        for (i, (d, s)) in gd.iter().zip(&gs).enumerate() {
            let (db, sb): (Vec<u32>, Vec<u32>) = (
                d.data.iter().map(|v| v.to_bits()).collect(),
                s.data.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(db, sb, "grad {i} diverged between dense and sparse");
        }
    }

    #[test]
    fn tree_conv_input_gradient_check() {
        // The conv input gradient feeds conv1 during stacked backward; check
        // it against finite differences through a single layer.
        let mut rng = StdRng::seed_from_u64(9);
        let mut layer = TreeConvLayer::new(4, 3, &mut rng);
        let tree = tiny_tree();
        let x = Mat::randn(3, 4, 1.0, &mut rng);
        let target = Mat::randn(3, 3, 1.0, &mut rng);
        let (h, cache) = layer.forward(&x, &tree);
        let (_, grad) = mse(&h, &target);
        layer.zero_grad();
        let gx = layer.backward(&cache, &tree, &grad);

        let loss_of = |x: &Mat| {
            let (h, _) = layer.forward(x, &tree);
            mse(&h, &target).0
        };
        let eps = 1e-2;
        for idx in [0usize, 5, 9] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let num = (loss_of(&xp) - loss_of(&xm)) / (2.0 * eps);
            assert!(
                (num - gx.data[idx]).abs() < 5e-2,
                "dX[{idx}] num {num} vs {}",
                gx.data[idx]
            );
        }
    }

    #[test]
    fn tcn_learns_to_count_join_like_nodes() {
        // Trees whose label is the number of nodes with feature[0] = 1.
        let mut rng = StdRng::seed_from_u64(5);
        let mut tcn = Tcn::new(3, 16, 8, 4, &mut rng);
        let mut head = Linear::new(4, 1, &mut rng);
        let cfg = AdamConfig::default();

        let make_tree = |rng: &mut StdRng| {
            // Left-deep chain of 4..7 nodes.
            let n = rng.gen_range(4..8usize);
            let mut left = vec![None; n];
            let mut right = vec![None; n];
            for i in 0..n - 1 {
                left[i] = Some(i + 1);
                if i + 2 < n && rng.gen_bool(0.3) {
                    right[i] = Some(i + 2);
                }
            }
            // Ensure it is a tree (right children must not duplicate).
            let mut seen = std::collections::HashSet::new();
            for slot in right.iter_mut() {
                if let Some(r) = *slot {
                    if !seen.insert(r) || left.contains(&Some(r)) {
                        *slot = None;
                    }
                }
            }
            let mut x = Mat::zeros(n, 3);
            let mut count = 0.0;
            for i in 0..n {
                if rng.gen_bool(0.5) {
                    x.set(i, 0, 1.0);
                    count += 1.0;
                }
                x.set(i, 1, rng.gen_range(-1.0..1.0));
                x.set(i, 2, 1.0);
            }
            (x, TreeStructure { left, right }, count)
        };

        let mut t = 0;
        for _ in 0..400 {
            tcn.zero_grad();
            head.zero_grad();
            let mut loss_sum = 0.0;
            for _ in 0..8 {
                let (x, tree, label) = make_tree(&mut rng);
                let (emb, cache) = tcn.forward(&x, &tree);
                let pred = head.forward(&emb);
                let (l, g) = mse(&pred, &Mat::from_vec(1, 1, vec![label]));
                loss_sum += l;
                let gemb = head.backward(&emb, &g);
                tcn.backward(&cache, &tree, &gemb);
            }
            let _ = loss_sum;
            t += 1;
            tcn.adam_step(0.005, t, &cfg);
            head.adam_step(0.005, t, &cfg);
        }

        // Evaluate.
        let mut err = 0.0;
        for _ in 0..50 {
            let (x, tree, label) = make_tree(&mut rng);
            let pred = head.forward(&tcn.infer(&x, &tree)).data[0];
            err += (pred - label).abs();
        }
        err /= 50.0;
        assert!(
            err < 1.0,
            "mean abs error {err} should beat trivial baseline"
        );
    }
}
