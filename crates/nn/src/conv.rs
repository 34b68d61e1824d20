//! Graph convolution layers with explicit backward passes.

use std::borrow::Cow;

use maxk_graph::{normalize, Aggregator, Csr, WarpPartition};
use maxk_tensor::{ops, Linear, Matrix};
use rand::Rng;

use crate::plan::{self, timed_lap, ForwardTimer, KernelKind, Retained};

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
/// and, between a training forward and its backward, the record that
/// backward reads. The layer math is [`crate::plan`]'s, shared with
/// serving.
#[derive(Debug, Clone)]
pub struct Conv {
    arch: Arch,
    activation: Option<Activation>,
    dropout: f32,
    eps: f32,
    lin_neigh: Linear,
    lin_self: Option<Linear>,
    /// What the last training forward kept for `backward`.
    record: Option<Retained>,
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
        let lin_self = (arch == Arch::Sage).then(|| Linear::new(in_dim, out_dim, rng));
        let lin_neigh = Linear::new(in_dim, out_dim, rng);
        Conv::from_parts(arch, activation, dropout, 0.0, lin_neigh, lin_self)
    }

    /// Rebuilds a layer from captured parameters — the deserialization
    /// path of [`crate::snapshot`]. No forward record is held.
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
            record: None,
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

    /// Forward pass: dropout on the input (training only, Table 3's
    /// per-dataset rates), then [`plan::combine`] → [`plan::aggregate`],
    /// the two phases serving runs. A training forward keeps the record
    /// `backward` reads, taking ownership of `x` when it is the layer input
    /// itself; an eval forward keeps nothing. When `timer` is present,
    /// every kernel call is one of its laps.
    pub fn forward<R: Rng>(
        &mut self,
        ctx: &GraphContext,
        x: Cow<'_, Matrix>,
        train: bool,
        rng: &mut R,
        timer: &mut Option<(&mut ForwardTimer, usize)>,
    ) -> Matrix {
        let (input, mask) = if train && self.dropout > 0.0 {
            let (d, m) = timed_lap(timer, KernelKind::Dropout, || {
                ops::dropout_forward(&x, self.dropout, rng)
            });
            drop(x);
            (Cow::Owned(d), Some((m, self.dropout)))
        } else {
            (x, None)
        };
        let c = plan::combine(&self.plan_layer(), &input, None, timer);
        let y = plan::aggregate(ctx, self.arch, self.eps, &c, None, timer);
        // The SAGE self product and the output layer's dense `z` go here.
        self.record = train.then(|| Retained {
            input: input.into_owned(),
            dropout: mask,
            h: self.activation.map(|_| c.h),
        });
        y
    }

    /// Backward pass: consumes the forward record and accumulates parameter
    /// gradients — `plan::aggregate_backward`, then
    /// `plan::combine_backward`. The gradient w.r.t. the layer input —
    /// the `dz · Wᵀ` products, SAGE's self term and the dropout mask — is
    /// formed only when `input_grad` is set, and returned then; otherwise
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics if called before a training `forward`.
    pub fn backward(
        &mut self,
        ctx: &GraphContext,
        dy: &Matrix,
        input_grad: bool,
        timer: &mut Option<(&mut ForwardTimer, usize)>,
    ) -> Option<Matrix> {
        let kept = self
            .record
            .take()
            .expect("backward before a training forward");
        let dh = plan::aggregate_backward(ctx, self.arch, self.eps, &kept, dy, timer);
        plan::combine_backward(
            &mut self.lin_neigh,
            self.lin_self.as_mut(),
            kept,
            dh,
            dy,
            input_grad,
            timer,
        )
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
    use crate::plan::Activated;
    use maxk_core::maxk::{maxk_backward, maxk_forward};
    use maxk_core::spgemm::spgemm_forward;
    use maxk_core::spmm::spmm_rowwise;
    use maxk_core::sspmm::sspmm_backward;
    use maxk_core::Cbsr;
    use maxk_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph(n: usize, seed: u64) -> Csr {
        generate::chung_lu_power_law(n, 8.0, 2.3, seed)
            .to_csr()
            .unwrap()
    }

    /// What the oracle layer cached between its forward and its backward.
    #[derive(Default)]
    struct OracleCache {
        input: Option<Matrix>,
        /// The dense pre-activation, ReLU layers only.
        z: Option<Matrix>,
        pattern: Option<Cbsr>,
        dropout: Option<Vec<bool>>,
    }

    /// The layer as written before it ran `plan`'s halves: its own arch ×
    /// activation match and kernel calls, and four caches. The rewritten
    /// layer is pinned to it bit for bit.
    fn oracle_forward<R: Rng>(
        conv: &Conv,
        ctx: &GraphContext,
        x: &Matrix,
        train: bool,
        rng: &mut R,
    ) -> (Matrix, OracleCache) {
        let mut cache = OracleCache::default();
        let (x_in, mask) = if train && conv.dropout > 0.0 {
            let (d, m) = ops::dropout_forward(x, conv.dropout, rng);
            (d, Some(m))
        } else {
            (x.clone(), None)
        };
        cache.dropout = mask;

        let z = conv.lin_neigh.forward(&x_in);
        let mut y = match conv.activation {
            Some(Activation::MaxK(k)) => {
                let hs = maxk_forward(&z, k).unwrap();
                let y = spgemm_forward(&ctx.adj, &hs, &ctx.part);
                cache.pattern = Some(hs);
                y
            }
            Some(Activation::Relu) => spmm_rowwise(&ctx.adj, &ops::relu(&z)),
            None => spmm_rowwise(&ctx.adj, &z),
        };
        match conv.arch {
            Arch::Sage => {
                let self_y = conv.lin_self.as_ref().unwrap().forward(&x_in);
                ops::add_assign(&mut y, &self_y);
            }
            Arch::Gin => {
                let scale = 1.0 + conv.eps;
                match (&conv.activation, &cache.pattern) {
                    (Some(Activation::MaxK(_)), Some(hs)) => hs.scatter_axpy(scale, &mut y),
                    (Some(Activation::Relu), _) => {
                        ops::axpy(y.data_mut(), scale, ops::relu(&z).data());
                    }
                    _ => ops::axpy(y.data_mut(), scale, z.data()),
                }
            }
            Arch::Gcn => {}
        }
        cache.input = Some(x_in);
        if conv.activation == Some(Activation::Relu) {
            cache.z = Some(z);
        }
        (y, cache)
    }

    /// The oracle's backward over its [`OracleCache`].
    fn oracle_backward(
        conv: &mut Conv,
        ctx: &GraphContext,
        mut cache: OracleCache,
        dy: &Matrix,
        input_grad: bool,
    ) -> Option<Matrix> {
        let x_in = cache.input.take().unwrap();
        let scale = 1.0 + conv.eps;
        let dz = match conv.activation {
            Some(Activation::MaxK(_)) => {
                let pattern = cache.pattern.take().unwrap();
                let mut dhs = sspmm_backward(&ctx.adj_t, dy, &pattern);
                if conv.arch == Arch::Gin {
                    dhs.gather_axpy(scale, dy);
                }
                maxk_backward(&dhs)
            }
            Some(Activation::Relu) => {
                let mut dh = spmm_rowwise(&ctx.adj_t, dy);
                if conv.arch == Arch::Gin {
                    ops::axpy(dh.data_mut(), scale, dy.data());
                }
                ops::relu_backward(&cache.z.take().unwrap(), &dh)
            }
            None => {
                let mut dz = spmm_rowwise(&ctx.adj_t, dy);
                if conv.arch == Arch::Gin {
                    ops::axpy(dz.data_mut(), scale, dy.data());
                }
                dz
            }
        };
        conv.lin_neigh.accumulate_grads(&x_in, &dz);
        if let Some(lin_self) = conv.lin_self.as_mut() {
            lin_self.accumulate_grads(&x_in, dy);
        }
        if !input_grad {
            return None;
        }
        let mut dx = ops::matmul_a_bt(&dz, conv.lin_neigh.weight());
        if let Some(lin_self) = &conv.lin_self {
            let dx_self = ops::matmul_a_bt(dy, lin_self.weight());
            ops::add_assign(&mut dx, &dx_self);
        }
        Some(match cache.dropout {
            Some(mask) => ops::dropout_backward(&dx, &mask, conv.dropout),
            None => dx,
        })
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Every parameter gradient of `conv`, as bits.
    fn grad_bits(conv: &mut Conv) -> Vec<Vec<u32>> {
        let mut out: Vec<Vec<u32>> = conv
            .lin_neigh
            .params_and_grads()
            .iter()
            .map(|(_, g)| bits(g))
            .collect();
        if let Some(l) = conv.lin_self.as_mut() {
            out.extend(l.params_and_grads().iter().map(|(_, g)| bits(g)));
        }
        out
    }

    #[test]
    fn layer_matches_the_oracle_bitwise() {
        let g = graph(90, 21);
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            let ctx = GraphContext::build(&g, arch, 16);
            for act in [Some(Activation::Relu), Some(Activation::MaxK(4)), None] {
                for dropout in [0.0, 0.5] {
                    let mut rng = StdRng::seed_from_u64(41);
                    let fresh = Conv::new(arch, act, 10, 7, dropout, &mut rng);
                    // A non-zero ε, so GIN's (1 + ε) terms are exercised.
                    let mut conv =
                        Conv::from_parts(arch, act, dropout, 0.25, fresh.lin_neigh, fresh.lin_self);
                    let mut oracle = conv.clone();
                    let x = Matrix::xavier(90, 10, &mut rng);
                    let dy = Matrix::xavier(90, 7, &mut rng);
                    let at = format!("{arch:?} {act:?} dropout {dropout}");

                    let mut timer = ForwardTimer::new();
                    let y = conv.forward(
                        &ctx,
                        Cow::Borrowed(&x),
                        true,
                        &mut StdRng::seed_from_u64(5),
                        &mut Some((&mut timer, 0)),
                    );
                    let (want_y, cache) =
                        oracle_forward(&oracle, &ctx, &x, true, &mut StdRng::seed_from_u64(5));
                    assert_eq!(bits(y.data()), bits(want_y.data()), "{at}: output");

                    let dx = conv.backward(&ctx, &dy, true, &mut Some((&mut timer, 0)));
                    let want_dx = oracle_backward(&mut oracle, &ctx, cache, &dy, true);
                    assert_eq!(
                        bits(dx.unwrap().data()),
                        bits(want_dx.unwrap().data()),
                        "{at}: dX"
                    );
                    assert_eq!(grad_bits(&mut conv), grad_bits(&mut oracle), "{at}: grads");
                    let dropout_laps = timer
                        .laps()
                        .iter()
                        .filter(|&&(_, k, _)| k == KernelKind::Dropout)
                        .count();
                    assert_eq!(dropout_laps, if dropout > 0.0 { 2 } else { 0 }, "{at}");
                }
            }
        }
    }

    fn forward_backward(arch: Arch, activation: Option<Activation>) -> (Matrix, Matrix) {
        let g = graph(80, 3);
        let ctx = GraphContext::build(&g, arch, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let mut conv = Conv::new(arch, activation, 12, 6, 0.0, &mut rng);
        let x = Matrix::xavier(80, 12, &mut rng);
        let y = conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None);
        let dy = Matrix::filled(80, 6, 1.0);
        let dx = conv.backward(&ctx, &dy, true, &mut None).unwrap();
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
                // Objective: sum(Y). dY = ones.
                let _ = conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None);
                let dy = Matrix::filled(24, 4, 1.0);
                let dx = conv.backward(&ctx, &dy, true, &mut None).unwrap();
                let h = 3e-3f32;
                // Spot-check a handful of coordinates.
                for &(r, c) in &[(0usize, 0usize), (3, 2), (10, 5), (23, 1)] {
                    let mut xp = x.clone();
                    xp.set(r, c, x.get(r, c) + h);
                    let mut xm = x.clone();
                    xm.set(r, c, x.get(r, c) - h);
                    let fp: f32 = conv
                        .forward(&ctx, Cow::Borrowed(&xp), false, &mut rng, &mut None)
                        .data()
                        .iter()
                        .sum();
                    let fm: f32 = conv
                        .forward(&ctx, Cow::Borrowed(&xm), false, &mut rng, &mut None)
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
    fn only_hidden_layers_keep_their_activated_operand_for_backward() {
        let g = graph(80, 3);
        let ctx = GraphContext::build(&g, Arch::Gcn, 16);
        let mut rng = StdRng::seed_from_u64(7);
        let x = Matrix::xavier(80, 12, &mut rng);
        let dy = Matrix::xavier(80, 6, &mut rng);
        for act in [Some(Activation::MaxK(3)), None, Some(Activation::Relu)] {
            let mut conv = Conv::new(Arch::Gcn, act, 12, 6, 0.0, &mut rng);
            let mut lin = conv.lin_neigh.clone();
            // An eval forward keeps no record.
            conv.forward(&ctx, Cow::Borrowed(&x), false, &mut rng, &mut None);
            assert!(conv.record.is_none());
            conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None);
            let kept = conv.record.as_ref().unwrap();
            assert_eq!(kept.input, x, "{act:?}");
            assert!(kept.dropout.is_none(), "{act:?}");
            match (act, &kept.h) {
                (Some(Activation::MaxK(3)), Some(Activated::Sparse(c))) => {
                    assert_eq!(c.k(), 3);
                }
                (Some(Activation::Relu), Some(Activated::Dense(h))) => {
                    assert_eq!(h, &ops::relu(&lin.forward(&x)));
                }
                (None, None) => {}
                (act, kept) => panic!("{act:?} kept {kept:?}"),
            }
            let dx = conv.backward(&ctx, &dy, true, &mut None).unwrap();
            assert!(conv.record.is_none());

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
        let mut forward = |train| conv.forward(&ctx, Cow::Borrowed(&x), train, &mut rng, &mut None);
        let eval1 = forward(false);
        let eval2 = forward(false);
        assert_eq!(eval1, eval2, "eval mode must be deterministic");
        let tr1 = forward(true);
        let tr2 = forward(true);
        assert_ne!(tr1, tr2, "dropout must randomize training forward");
    }

    #[test]
    fn zero_grad_resets_accumulation() {
        let g = graph(30, 19);
        let ctx = GraphContext::build(&g, Arch::Sage, 8);
        let mut rng = StdRng::seed_from_u64(29);
        let mut conv = Conv::new(Arch::Sage, Some(Activation::MaxK(2)), 6, 3, 0.0, &mut rng);
        let x = Matrix::xavier(30, 6, &mut rng);
        let _ = conv.forward(&ctx, Cow::Borrowed(&x), true, &mut rng, &mut None);
        let _ = conv.backward(&ctx, &Matrix::filled(30, 3, 1.0), false, &mut None);
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
