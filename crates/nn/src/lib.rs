//! GNN layers, models and full-batch training for MaxK-GNN.
//!
//! This crate is the reproduction's PyTorch-frontend equivalent: it stacks
//! GCN / GraphSAGE / GIN convolutions (Table 3 configurations) over the
//! kernels of [`maxk_core`], with explicit forward/backward passes, Adam
//! optimization, masked losses and the paper's evaluation metrics.
//!
//! The layer dataflow follows Fig. 2/Fig. 5 of the paper exactly:
//!
//! * **ReLU baseline**: `Y = SpMM(Â, ReLU(X·W))` (+ model-specific self
//!   paths) — aggregation runs on a *dense* feature map;
//! * **MaxK mode**: `Y = SpGEMM(Â, MaxK_k(X·W))` — the nonlinearity runs
//!   *before* aggregation, the feature map crosses the kernel boundary in
//!   CBSR, and the backward pass uses the SSpMM kernel with the sparsity
//!   pattern inherited from the forward pass.
//!
//! Training and serving run one layer dataflow ([`plan`]'s `combine` →
//! `aggregate`); every kernel call is a [`plan::KernelKind`] lap, and
//! [`PhaseTimers`] folds a model's laps into where each epoch goes
//! (aggregation vs linear vs MaxK vs other), powering the Fig. 1(c)
//! breakdown and the Amdahl's-law speedup limits of Fig. 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conv;
pub mod mlp;
pub mod model;
pub mod plan;
pub mod snapshot;
pub mod train;
pub mod version;

pub use conv::{Activation, Arch, Conv, GraphContext};
pub use model::{GnnModel, ModelConfig, PhaseTimers};
pub use plan::{ForwardPlan, LayerCost, PlanConfig, PlanLayer};
pub use snapshot::{ModelSnapshot, SnapshotError};
pub use train::{train_full_batch, EpochStats, TrainConfig, TrainResult};
pub use version::{GraphVersion, SnapshotGeneration};
