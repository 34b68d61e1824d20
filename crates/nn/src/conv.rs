//! Graph convolution layers with explicit backward passes.

use maxk_core::maxk::{maxk_backward, maxk_forward};
use maxk_core::spgemm::spgemm_forward;
use maxk_core::spmm::spmm_rowwise;
use maxk_core::sspmm::sspmm_backward;
use maxk_core::Cbsr;
use maxk_graph::{normalize, Aggregator, Csr, WarpPartition};
use maxk_tensor::{ops, Linear, Matrix};
use rand::Rng;

use crate::model::PhaseTimers;

/// Model architecture (the paper evaluates all three, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// GCN: symmetric normalization with self-loops.
    Gcn,
    /// GraphSAGE with mean aggregator and a separate self linear path.
    Sage,
    /// GIN: sum aggregation plus `(1 + ε)`-scaled self term.
    Gin,
}

impl Arch {
    /// Name as printed in reports.
    pub fn name(self) -> &'static str {
        match self {
            Arch::Gcn => "GCN",
            Arch::Sage => "SAGE",
            Arch::Gin => "GIN",
        }
    }

    /// The normalization rule and self-loop convention of this
    /// architecture: the [`Aggregator`] its operand values follow, and
    /// whether a unit diagonal is inserted first (GCN normalizes *after*
    /// adding self-loops). Everything that builds or incrementally
    /// maintains an aggregation operand keys off this one mapping, so the
    /// frozen and dynamic paths cannot drift apart.
    pub fn aggregation(self) -> (Aggregator, bool) {
        match self {
            Arch::Gcn => (Aggregator::GcnSym, true),
            Arch::Sage => (Aggregator::SageMean, false),
            Arch::Gin => (Aggregator::GinSum, false),
        }
    }
}

/// The layer nonlinearity: the baseline ReLU or the paper's MaxK.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Activation {
    /// Element-wise ReLU; aggregation runs dense (SpMM).
    Relu,
    /// MaxK with the given `k`; aggregation runs sparse (SpGEMM/SSpMM).
    MaxK(usize),
}

impl Activation {
    /// Short label, e.g. `relu` or `maxk16`.
    pub fn label(self) -> String {
        match self {
            Activation::Relu => "relu".to_owned(),
            Activation::MaxK(k) => format!("maxk{k}"),
        }
    }
}

/// Pre-normalized adjacency bundle shared by every layer of a model.
#[derive(Debug, Clone)]
pub struct GraphContext {
    /// Normalized adjacency (forward aggregation operand).
    pub adj: Csr,
    /// Its transpose (backward operand; same values for symmetric
    /// normalizations, materialized for SAGE's row-mean weights).
    pub adj_t: Csr,
    /// Edge-Group partition used by SpGEMM and the grouped baselines.
    pub part: WarpPartition,
    /// Process-local identity of this graph operand, minted at build
    /// time; clones (and engines sharing this context) share it. Cache
    /// layers key logit rows by it.
    pub version: crate::version::GraphVersion,
}

impl GraphContext {
    /// Normalizes `graph` per the architecture's aggregator and builds the
    /// Edge-Group partition with width `w`, under a freshly minted
    /// version.
    pub fn build(graph: &Csr, arch: Arch, w: usize) -> Self {
        let adj = Self::normalized_adjacency(graph, arch);
        Self::from_normalized(adj, w, crate::version::GraphVersion::mint())
    }

    /// Assembles the context around an already-normalized operand: the
    /// one place its transpose and Edge-Group partition (width `w`) are
    /// derived. Callers that hold such an operand — a shard's row slice
    /// of the global one, or the incrementally maintained operand of a
    /// dynamic graph — pass the `version` it is served under;
    /// re-normalizing either would break bitwise fidelity.
    pub fn from_normalized(adj: Csr, w: usize, version: crate::version::GraphVersion) -> Self {
        GraphContext {
            adj_t: adj.transpose(),
            part: WarpPartition::build(&adj, w),
            adj,
            version,
        }
    }

    /// Just the normalized aggregation operand, without the transpose or
    /// the Edge-Group partition — the cheap half of [`GraphContext::build`]
    /// for callers that only slice the operand (the sharded router builds
    /// its per-shard partitions on the sub-adjacencies instead).
    pub fn normalized_adjacency(graph: &Csr, arch: Arch) -> Csr {
        let (aggregator, self_loops) = arch.aggregation();
        if self_loops {
            let with_loops = normalize::add_self_loops(graph);
            normalize::normalized(&with_loops, aggregator)
        } else {
            normalize::normalized(graph, aggregator)
        }
    }
}

/// One graph convolution layer.
///
/// Holds the learnable linears, the architecture/activation configuration
/// and the forward-pass caches needed by `backward`.
#[derive(Debug, Clone)]
pub struct Conv {
    arch: Arch,
    activation: Option<Activation>,
    dropout: f32,
    eps: f32,
    lin_neigh: Linear,
    lin_self: Option<Linear>,
    // Forward caches.
    cache_input: Option<Matrix>,
    /// The dense pre-activation, ReLU layers only.
    cache_z: Option<Matrix>,
    cache_pattern: Option<Cbsr>,
    cache_dropout: Option<Vec<bool>>,
}

impl Conv {
    /// Creates a layer mapping `in_dim -> out_dim`.
    ///
    /// `activation` is `None` for the output layer (logits are aggregated
    /// densely in both modes).
    pub fn new<R: Rng>(
        arch: Arch,
        activation: Option<Activation>,
        in_dim: usize,
        out_dim: usize,
        dropout: f32,
        rng: &mut R,
    ) -> Self {
        let lin_self = match arch {
            Arch::Sage => Some(Linear::new(in_dim, out_dim, rng)),
            _ => None,
        };
        Conv {
            arch,
            activation,
            dropout,
            eps: 0.0,
            lin_neigh: Linear::new(in_dim, out_dim, rng),
            lin_self,
            cache_input: None,
            cache_z: None,
            cache_pattern: None,
            cache_dropout: None,
        }
    }

    /// Rebuilds a layer from captured parameters — the deserialization
    /// path of [`crate::snapshot`]. Forward caches start empty.
    ///
    /// # Panics
    ///
    /// Panics when the self-path linear is present for a non-SAGE
    /// architecture (or missing for SAGE), or when its dimensions disagree
    /// with the neighbor linear.
    pub fn from_parts(
        arch: Arch,
        activation: Option<Activation>,
        dropout: f32,
        eps: f32,
        lin_neigh: Linear,
        lin_self: Option<Linear>,
    ) -> Self {
        assert_eq!(
            arch == Arch::Sage,
            lin_self.is_some(),
            "self linear present iff SAGE"
        );
        if let Some(l) = &lin_self {
            assert_eq!(l.in_dim(), lin_neigh.in_dim(), "self linear in_dim");
            assert_eq!(l.out_dim(), lin_neigh.out_dim(), "self linear out_dim");
        }
        Conv {
            arch,
            activation,
            dropout,
            eps,
            lin_neigh,
            lin_self,
            cache_input: None,
            cache_z: None,
            cache_pattern: None,
            cache_dropout: None,
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.lin_neigh.in_dim()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.lin_neigh.out_dim()
    }

    /// The layer's architecture.
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// The layer's activation (`None` on the output layer).
    pub fn activation(&self) -> Option<Activation> {
        self.activation
    }

    /// The neighbor-path linear (weights readable for snapshots).
    pub fn lin_neigh(&self) -> &Linear {
        &self.lin_neigh
    }

    /// The SAGE self-path linear, when present.
    pub fn lin_self(&self) -> Option<&Linear> {
        self.lin_self.as_ref()
    }

    /// The GIN `(1 + ε)` self-term epsilon.
    pub fn eps(&self) -> f32 {
        self.eps
    }

    /// The borrowed weight view [`crate::plan::eval_layer`] runs over.
    pub fn plan_layer(&self) -> crate::plan::PlanLayer<'_> {
        crate::plan::PlanLayer {
            activation: self.activation,
            eps: self.eps,
            neigh_weight: self.lin_neigh.weight(),
            neigh_bias: self.lin_neigh.bias(),
            self_path: self.lin_self.as_ref().map(|l| (l.weight(), l.bias())),
        }
    }

    /// Forward pass. `train` enables dropout; `timers` accumulates
    /// per-phase wall-clock.
    pub fn forward<R: Rng>(
        &mut self,
        ctx: &GraphContext,
        x: &Matrix,
        train: bool,
        rng: &mut R,
        timers: &mut PhaseTimers,
    ) -> Matrix {
        // Dropout on the layer input (Table 3's per-dataset rates).
        let (x_in, mask) = if train && self.dropout > 0.0 {
            let (d, m) = timers.time_other(|| ops::dropout_forward(x, self.dropout, rng));
            (d, Some(m))
        } else {
            (x.clone(), None)
        };
        self.cache_dropout = mask;

        // Linear transform (the Linear1 of Fig. 1(b)).
        let z = timers.time_linear(|| self.lin_neigh.forward(&x_in));

        let mut y = match self.activation {
            Some(Activation::MaxK(k)) => {
                // MaxK nonlinearity -> CBSR -> SpGEMM aggregation.
                let hs = timers
                    .time_maxk(|| maxk_forward(&z, k).expect("k validated at model construction"));
                let y = timers.time_agg(|| spgemm_forward(&ctx.adj, &hs, &ctx.part));
                self.cache_pattern = Some(hs);
                y
            }
            Some(Activation::Relu) => {
                let h = timers.time_other(|| ops::relu(&z));
                timers.time_agg(|| spmm_rowwise(&ctx.adj, &h))
            }
            None => timers.time_agg(|| spmm_rowwise(&ctx.adj, &z)),
        };

        match self.arch {
            Arch::Sage => {
                let self_y = timers.time_linear(|| {
                    self.lin_self
                        .as_ref()
                        .expect("SAGE has a self linear")
                        .forward(&x_in)
                });
                timers.time_other(|| ops::add_assign(&mut y, &self_y));
            }
            Arch::Gin => {
                // (1 + ε) · h(Z) self term; h is the layer nonlinearity
                // (identity on the output layer).
                timers.time_other(|| {
                    let scale = 1.0 + self.eps;
                    match (&self.activation, &self.cache_pattern) {
                        (Some(Activation::MaxK(_)), Some(hs)) => {
                            hs.scatter_axpy(scale, &mut y);
                        }
                        (Some(Activation::Relu), _) => {
                            ops::axpy(y.data_mut(), scale, ops::relu(&z).data());
                        }
                        _ => ops::axpy(y.data_mut(), scale, z.data()),
                    }
                });
            }
            Arch::Gcn => {}
        }

        self.cache_input = Some(x_in);
        // Only ReLU's backward reads the pre-activation; a MaxK layer's
        // mask is its CBSR pattern and the output layer has none.
        if self.activation == Some(Activation::Relu) {
            self.cache_z = Some(z);
        }
        y
    }

    /// Backward pass: consumes the forward caches and accumulates parameter
    /// gradients. The gradient w.r.t. the layer input — the `dz · Wᵀ`
    /// products, SAGE's self term and the dropout mask — is formed only
    /// when `input_grad` is set, and returned then; otherwise `None`.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    pub fn backward(
        &mut self,
        ctx: &GraphContext,
        dy: &Matrix,
        input_grad: bool,
        timers: &mut PhaseTimers,
    ) -> Option<Matrix> {
        let x_in = self.cache_input.take().expect("backward before forward");

        let scale = 1.0 + self.eps;
        let dz = match self.activation {
            Some(Activation::MaxK(_)) => {
                let pattern = self.cache_pattern.take().expect("MaxK pattern cached");
                // dHs = SSpMM(Aᵀ, dY) with the forward sparsity pattern.
                let mut dhs = timers.time_agg(|| sspmm_backward(&ctx.adj_t, dy, &pattern));
                if self.arch == Arch::Gin {
                    // Self-path gradient flows through the same mask.
                    timers.time_other(|| dhs.gather_axpy(scale, dy));
                }
                // Scatter back to the dense pre-activation gradient.
                timers.time_maxk(|| maxk_backward(&dhs))
            }
            Some(Activation::Relu) => {
                let mut dh = timers.time_agg(|| spmm_rowwise(&ctx.adj_t, dy));
                if self.arch == Arch::Gin {
                    timers.time_other(|| ops::axpy(dh.data_mut(), scale, dy.data()));
                }
                let z = self.cache_z.take().expect("ReLU pre-activation cached");
                timers.time_other(|| ops::relu_backward(&z, &dh))
            }
            None => {
                let mut dz = timers.time_agg(|| spmm_rowwise(&ctx.adj_t, dy));
                if self.arch == Arch::Gin {
                    timers.time_other(|| ops::axpy(dz.data_mut(), scale, dy.data()));
                }
                dz
            }
        };

        timers.time_linear(|| self.lin_neigh.accumulate_grads(&x_in, &dz));
        if let Some(lin_self) = self.lin_self.as_mut() {
            timers.time_linear(|| lin_self.accumulate_grads(&x_in, dy));
        }
        let mask = self.cache_dropout.take();
        if !input_grad {
            return None;
        }

        let mut dx = timers.time_linear(|| ops::matmul_a_bt(&dz, self.lin_neigh.weight()));
        if let Some(lin_self) = &self.lin_self {
            let dx_self = timers.time_linear(|| ops::matmul_a_bt(dy, lin_self.weight()));
            timers.time_other(|| ops::add_assign(&mut dx, &dx_self));
        }
        Some(match mask {
            Some(mask) => timers.time_other(|| ops::dropout_backward(&dx, &mask, self.dropout)),
            None => dx,
        })
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.lin_neigh.zero_grad();
        if let Some(l) = self.lin_self.as_mut() {
            l.zero_grad();
        }
    }

    /// Applies one optimizer step to this layer's parameters.
    ///
    /// `base_id` namespaces the layer's tensors within the optimizer.
    pub fn apply_step<O: maxk_tensor::Optimizer>(&mut self, opt: &mut O, base_id: usize) {
        for (slot, (params, grads)) in self.lin_neigh.params_and_grads().into_iter().enumerate() {
            opt.step(base_id * 8 + slot, params, grads);
        }
        if let Some(l) = self.lin_self.as_mut() {
            for (slot, (params, grads)) in l.params_and_grads().into_iter().enumerate() {
                opt.step(base_id * 8 + 4 + slot, params, grads);
            }
        }
    }

    /// Total learnable parameters in this layer.
    pub fn num_params(&self) -> usize {
        self.lin_neigh.num_params() + self.lin_self.as_ref().map_or(0, Linear::num_params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(n: usize, seed: u64) -> Csr {
        generate::chung_lu_power_law(n, 8.0, 2.3, seed)
            .to_csr()
            .unwrap()
    }

    fn forward_backward(arch: Arch, activation: Option<Activation>) -> (Matrix, Matrix) {
        let g = graph(80, 3);
        let ctx = GraphContext::build(&g, arch, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv::new(arch, activation, 12, 6, 0.0, &mut rng);
        let x = Matrix::xavier(80, 12, &mut rng);
        let mut timers = PhaseTimers::default();
        let y = conv.forward(&ctx, &x, false, &mut rng, &mut timers);
        let dy = Matrix::filled(80, 6, 1.0);
        let dx = conv.backward(&ctx, &dy, true, &mut timers).unwrap();
        (y, dx)
    }

    #[test]
    fn shapes_for_all_arch_activation_combos() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [None, Some(Activation::Relu), Some(Activation::MaxK(3))] {
                let (y, dx) = forward_backward(arch, act);
                assert_eq!(y.shape(), (80, 6), "{arch:?} {act:?}");
                assert_eq!(dx.shape(), (80, 12), "{arch:?} {act:?}");
                assert!(y.is_finite() && dx.is_finite());
            }
        }
    }

    #[test]
    fn gcn_context_has_self_loops() {
        let g = graph(30, 5);
        let ctx = GraphContext::build(&g, Arch::Gcn, 8);
        for i in 0..30 {
            assert!(
                ctx.adj.get(i, i as u32).is_some(),
                "GCN adjacency missing self-loop at {i}"
            );
        }
    }

    #[test]
    fn sage_context_uses_row_mean() {
        let g = graph(30, 6);
        let ctx = GraphContext::build(&g, Arch::Sage, 8);
        for i in 0..30 {
            let (_, vals) = ctx.adj.row(i);
            if !vals.is_empty() {
                let s: f32 = vals.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn gin_context_unit_weights() {
        let g = graph(30, 7);
        let ctx = GraphContext::build(&g, Arch::Gin, 8);
        assert!(ctx.adj.values().iter().all(|&v| v == 1.0));
    }

    /// Finite-difference check of the full layer gradient for every
    /// architecture/activation combination.
    #[test]
    fn layer_gradient_matches_finite_difference() {
        let g = graph(24, 11);
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Some(Activation::Relu), Some(Activation::MaxK(4))] {
                let ctx = GraphContext::build(&g, arch, 8);
                let mut rng = StdRng::seed_from_u64(13);
                let mut conv = Conv::new(arch, act, 6, 4, 0.0, &mut rng);
                let x = Matrix::xavier(24, 6, &mut rng);
                let mut timers = PhaseTimers::default();
                // Objective: sum(Y). dY = ones.
                let _ = conv.forward(&ctx, &x, false, &mut rng, &mut timers);
                let dy = Matrix::filled(24, 4, 1.0);
                let dx = conv.backward(&ctx, &dy, true, &mut timers).unwrap();
                let h = 3e-3f32;
                // Spot-check a handful of coordinates.
                for &(r, c) in &[(0usize, 0usize), (3, 2), (10, 5), (23, 1)] {
                    let mut xp = x.clone();
                    xp.set(r, c, x.get(r, c) + h);
                    let mut xm = x.clone();
                    xm.set(r, c, x.get(r, c) - h);
                    let fp: f32 = conv
                        .forward(&ctx, &xp, false, &mut rng, &mut timers)
                        .data()
                        .iter()
                        .sum();
                    let fm: f32 = conv
                        .forward(&ctx, &xm, false, &mut rng, &mut timers)
                        .data()
                        .iter()
                        .sum();
                    let fd = (fp - fm) / (2.0 * h);
                    let got = dx.get(r, c);
                    // MaxK's selection boundary makes the function only
                    // piecewise-linear; tolerate modest error.
                    assert!(
                        (fd - got).abs() < 0.05 * (1.0 + fd.abs().max(got.abs())),
                        "{arch:?} {act:?} at ({r},{c}): fd {fd} vs analytic {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn only_relu_layers_keep_the_pre_activation_for_backward() {
        let g = graph(80, 3);
        let ctx = GraphContext::build(&g, Arch::Gcn, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Matrix::xavier(80, 12, &mut rng);
        let dy = Matrix::xavier(80, 6, &mut rng);
        let mut timers = PhaseTimers::default();
        for act in [Some(Activation::MaxK(3)), None, Some(Activation::Relu)] {
            let mut conv = Conv::new(Arch::Gcn, act, 12, 6, 0.0, &mut rng);
            let mut lin = conv.lin_neigh.clone();
            conv.forward(&ctx, &x, false, &mut rng, &mut timers);
            assert_eq!(conv.cache_z.is_some(), act == Some(Activation::Relu));
            let dx = conv.backward(&ctx, &dy, true, &mut timers).unwrap();
            assert!(conv.cache_z.is_none());

            // The same gradients from the kernels alone, `z` recomputed.
            let z = lin.forward(&x);
            let dz = match act {
                Some(Activation::MaxK(k)) => {
                    let pattern = maxk_forward(&z, k).unwrap();
                    maxk_backward(&sspmm_backward(&ctx.adj_t, &dy, &pattern))
                }
                Some(Activation::Relu) => ops::relu_backward(&z, &spmm_rowwise(&ctx.adj_t, &dy)),
                None => spmm_rowwise(&ctx.adj_t, &dy),
            };
            assert_eq!(dx, lin.backward(&x, &dz), "{act:?}");
            let (got, want) = (conv.lin_neigh.params_and_grads(), lin.params_and_grads());
            assert_eq!(got[0].1, want[0].1, "{act:?} dW");
            assert_eq!(got[1].1, want[1].1, "{act:?} db");
        }
    }

    #[test]
    fn dropout_only_active_in_training() {
        let g = graph(40, 17);
        let ctx = GraphContext::build(&g, Arch::Gcn, 8);
        let mut rng = StdRng::seed_from_u64(23);
        let mut conv = Conv::new(Arch::Gcn, Some(Activation::Relu), 8, 4, 0.5, &mut rng);
        let x = Matrix::filled(40, 8, 1.0);
        let mut timers = PhaseTimers::default();
        let eval1 = conv.forward(&ctx, &x, false, &mut rng, &mut timers);
        let eval2 = conv.forward(&ctx, &x, false, &mut rng, &mut timers);
        assert_eq!(eval1, eval2, "eval mode must be deterministic");
        let tr1 = conv.forward(&ctx, &x, true, &mut rng, &mut timers);
        let tr2 = conv.forward(&ctx, &x, true, &mut rng, &mut timers);
        assert_ne!(tr1, tr2, "dropout must randomize training forward");
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let g = graph(30, 19);
        let ctx = GraphContext::build(&g, Arch::Sage, 8);
        let mut rng = StdRng::seed_from_u64(29);
        let mut conv = Conv::new(Arch::Sage, Some(Activation::MaxK(2)), 6, 3, 0.0, &mut rng);
        let x = Matrix::xavier(30, 6, &mut rng);
        let mut timers = PhaseTimers::default();
        let _ = conv.forward(&ctx, &x, false, &mut rng, &mut timers);
        let _ = conv.backward(&ctx, &Matrix::filled(30, 3, 1.0), false, &mut timers);
        conv.zero_grad();
        // After zero_grad, an optimizer step must be a no-op.
        let before = conv.lin_neigh.weight().clone();
        let mut opt = maxk_tensor::Sgd::new(1.0);
        conv.apply_step(&mut opt, 0);
        assert_eq!(conv.lin_neigh.weight(), &before);
    }

    #[test]
    fn param_counts() {
        let mut rng = StdRng::seed_from_u64(31);
        let gcn = Conv::new(Arch::Gcn, None, 10, 4, 0.0, &mut rng);
        assert_eq!(gcn.num_params(), 10 * 4 + 4);
        let sage = Conv::new(Arch::Sage, None, 10, 4, 0.0, &mut rng);
        assert_eq!(sage.num_params(), 2 * (10 * 4 + 4));
    }
}
