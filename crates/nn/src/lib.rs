//! # tinynn
//!
//! A minimal, dependency-light neural-network library built for the LOAM
//! reproduction: dense matrices, fully connected layers, Adam, MSE and
//! cross-entropy losses, tree convolution (the PlanEmb encoder of
//! Bao/Neo/LOAM), a GCN encoder and a single-head transformer encoder (the
//! baseline cost models of Section 7.1), and the gradient-reversal utilities
//! of DANN-style adversarial domain adaptation.
//!
//! ## Workspaces
//!
//! Every layer trains through one explicit pair, `forward_ws`/`backward_ws`
//! (`*_into` for single layers and losses), that writes into caller-owned,
//! reusable buffers: a per-layer workspace such as [`MlpWs`] or [`TcnWs`]
//! holds the forward activations the backward pass reads, and a
//! [`workspace::Workspace`] arena lends the backward pass its
//! intermediates. Parameter gradients go into a caller-owned [`GradSet`]
//! (or, for the baseline encoders, straight into the parameters'
//! accumulators). Training loops that keep these alive across steps perform
//! zero heap allocation after warmup. `infer` runs a forward into a fresh
//! workspace. Gradient correctness is enforced by finite-difference tests
//! in each module.
//!
//! ## Example
//!
//! ```
//! use tinynn::{mse_into, AdamConfig, GradSet, Mat, Mlp, MlpWs, Workspace};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut mlp = Mlp::new(&[2, 8, 1], &mut rng);
//! let (mut ws, mut scratch) = (MlpWs::default(), Workspace::new());
//! let mut grads = GradSet::from_shapes(&mlp.grad_shapes());
//! let (x, target) = (Mat::from_vec(1, 2, vec![0.5, -0.25]), Mat::from_vec(1, 1, vec![1.0]));
//! let mut grad = Mat::default();
//!
//! mlp.forward_ws(&x, &mut ws);
//! let loss = mse_into(ws.out(), &target, &mut grad);
//! mlp.backward_ws(&x, &ws, &grad, &mut grads.mats, None, &mut scratch);
//! mlp.zero_grad();
//! mlp.add_grads(&grads.mats);
//! mlp.adam_step(0.01, 1, &AdamConfig::default());
//! assert!(loss > 0.0);
//! ```

mod convsimd;
pub mod gcn;
pub mod grl;
pub mod kernels;
pub mod linear;
pub mod loss;
pub mod mat;
pub mod metrics;
pub mod mlp;
pub mod param;
pub mod sparse;
pub mod tcn;
pub mod transformer;
pub mod workspace;

pub use gcn::{Gcn, GcnWs, Graph};
pub use grl::{lambda_schedule, reverse_gradient_into};
pub use kernels::{kernel_mode, set_kernel_mode, KernelMode};
pub use linear::{relu_mask_into, softmax_rows_into, Linear};
pub use loss::{accuracy, cross_entropy_logits_into, mse_into};
pub use mat::Mat;
pub use metrics::{concordance, mean_abs_log_ratio, r2, spearman};
pub use mlp::{Mlp, MlpWs};
pub use param::{AdamConfig, Param};
pub use sparse::SparseRows;
pub use tcn::{ForestWs, Tcn, TcnWs, TreeConvLayer, TreeStructure};
pub use transformer::{Transformer, TransformerWs};
pub use workspace::{alloc_probe, GradSet, Workspace};
