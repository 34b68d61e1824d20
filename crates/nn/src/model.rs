//! Stacked GNN models and the per-phase wall-clock breakdown.

use crate::conv::{Activation, Arch, Conv, GraphContext};
use crate::plan::{ForwardPlan, PlanLayer};
use maxk_graph::Csr;
use maxk_tensor::{Matrix, Optimizer};
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Wall-clock accumulators for the pipeline phases of Fig. 1(c).
///
/// `agg` is the sparse aggregation (SpMM / SpGEMM / SSpMM) — the paper's
/// `p_SpMM` numerator in the Amdahl's-law limit `S = 1 / (1 − p_SpMM)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {
    /// Sparse aggregation time (forward + backward kernels).
    pub agg: Duration,
    /// Dense linear-layer time (forward + backward).
    pub linear: Duration,
    /// MaxK selection / scatter time.
    pub maxk: Duration,
    /// Everything else (dropout, elementwise, losses measured by caller).
    pub other: Duration,
}

impl PhaseTimers {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.agg + self.linear + self.maxk + self.other
    }

    /// Fraction of accounted time spent in sparse aggregation
    /// (`p_SpMM`).
    pub fn agg_fraction(&self) -> f64 {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.agg.as_secs_f64() / t
        }
    }

    /// Amdahl's-law speedup limit `1 / (1 − p_SpMM)` implied by this
    /// breakdown (§5.3).
    pub fn amdahl_limit(&self) -> f64 {
        let p = self.agg_fraction();
        if p >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - p)
        }
    }

    /// Resets all accumulators.
    pub fn reset(&mut self) {
        *self = PhaseTimers::default();
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, other: &PhaseTimers) {
        self.agg += other.agg;
        self.linear += other.linear;
        self.maxk += other.maxk;
        self.other += other.other;
    }

    /// Times `f` into the aggregation bucket.
    pub fn time_agg<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.agg += t0.elapsed();
        out
    }

    /// Times `f` into the linear bucket.
    pub fn time_linear<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.linear += t0.elapsed();
        out
    }

    /// Times `f` into the MaxK bucket.
    pub fn time_maxk<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.maxk += t0.elapsed();
        out
    }

    /// Times `f` into the other bucket.
    pub fn time_other<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.other += t0.elapsed();
        out
    }
}

/// Model hyperparameters (Table 3 of the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Architecture.
    pub arch: Arch,
    /// Hidden-layer nonlinearity.
    pub activation: Activation,
    /// Number of convolution layers (Table 3: 3 or 4).
    pub num_layers: usize,
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden dimension (Table 3: 256, or 384 for Yelp).
    pub hidden_dim: usize,
    /// Output classes.
    pub out_dim: usize,
    /// Dropout rate on layer inputs.
    pub dropout: f32,
    /// Edge-Group width for the kernel partition.
    pub eg_width: usize,
}

impl ModelConfig {
    /// A reasonable default configuration for experiments.
    pub fn new(arch: Arch, activation: Activation, in_dim: usize, out_dim: usize) -> Self {
        ModelConfig {
            arch,
            activation,
            num_layers: 3,
            in_dim,
            hidden_dim: 256,
            out_dim,
            dropout: 0.5,
            eg_width: 32,
        }
    }

    /// Table 3 presets keyed by dataset name (`Flickr`, `Yelp`, `Reddit`,
    /// `ogbn-products`, `ogbn-proteins`); unknown names get the defaults.
    pub fn paper_preset(
        dataset: &str,
        arch: Arch,
        activation: Activation,
        in_dim: usize,
        out_dim: usize,
    ) -> Self {
        let mut cfg = ModelConfig::new(arch, activation, in_dim, out_dim);
        match dataset {
            "Flickr" => {
                cfg.num_layers = 3;
                cfg.hidden_dim = 256;
                cfg.dropout = 0.2;
            }
            "Yelp" => {
                cfg.num_layers = 4;
                cfg.hidden_dim = 384;
                cfg.dropout = 0.1;
            }
            "Reddit" => {
                cfg.num_layers = 4;
                cfg.hidden_dim = 256;
                cfg.dropout = 0.5;
            }
            "ogbn-products" => {
                cfg.num_layers = 3;
                cfg.hidden_dim = 256;
                cfg.dropout = 0.5;
            }
            "ogbn-proteins" => {
                cfg.num_layers = 3;
                cfg.hidden_dim = 256;
                cfg.dropout = 0.5;
            }
            _ => {}
        }
        cfg
    }

    /// Validates that the MaxK `k` fits the hidden dimension.
    ///
    /// # Panics
    ///
    /// Panics when `k` is zero or exceeds `hidden_dim`.
    pub fn validate(&self) {
        if let Activation::MaxK(k) = self.activation {
            assert!(k > 0, "MaxK k must be positive");
            assert!(
                k <= self.hidden_dim,
                "MaxK k = {k} exceeds hidden dim {}",
                self.hidden_dim
            );
        }
        assert!(self.num_layers >= 2, "need at least input + output layers");
    }
}

/// A stacked GNN: `num_layers` convolutions, hidden activations on all but
/// the last.
#[derive(Debug, Clone)]
pub struct GnnModel {
    cfg: ModelConfig,
    ctx: GraphContext,
    convs: Vec<Conv>,
    timers: PhaseTimers,
}

impl GnnModel {
    /// Builds the model over `graph` (which is normalized per the
    /// architecture).
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid (see
    /// [`ModelConfig::validate`]).
    pub fn new<R: Rng>(cfg: ModelConfig, graph: &Csr, rng: &mut R) -> Self {
        cfg.validate();
        let ctx = GraphContext::build(graph, cfg.arch, cfg.eg_width);
        let mut convs = Vec::with_capacity(cfg.num_layers);
        for layer in 0..cfg.num_layers {
            let in_dim = if layer == 0 {
                cfg.in_dim
            } else {
                cfg.hidden_dim
            };
            let out_dim = if layer + 1 == cfg.num_layers {
                cfg.out_dim
            } else {
                cfg.hidden_dim
            };
            let activation = if layer + 1 == cfg.num_layers {
                None
            } else {
                Some(cfg.activation)
            };
            convs.push(Conv::new(
                cfg.arch,
                activation,
                in_dim,
                out_dim,
                cfg.dropout,
                rng,
            ));
        }
        GnnModel {
            cfg,
            ctx,
            convs,
            timers: PhaseTimers::default(),
        }
    }

    /// Rebuilds a model from configuration plus pre-built layers — the
    /// deserialization path of [`crate::snapshot`]. The graph context is
    /// rebuilt from `graph` exactly as [`GnnModel::new`] would.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid or the layer chain does
    /// not match it (count, dimensions, architecture or activations).
    pub fn from_parts(cfg: ModelConfig, graph: &Csr, convs: Vec<Conv>) -> Self {
        cfg.validate();
        assert_eq!(convs.len(), cfg.num_layers, "layer count mismatch");
        for (layer, conv) in convs.iter().enumerate() {
            assert_eq!(conv.arch(), cfg.arch, "layer {layer} architecture");
            let in_dim = if layer == 0 {
                cfg.in_dim
            } else {
                cfg.hidden_dim
            };
            let out_dim = if layer + 1 == cfg.num_layers {
                cfg.out_dim
            } else {
                cfg.hidden_dim
            };
            assert_eq!(conv.in_dim(), in_dim, "layer {layer} in_dim");
            assert_eq!(conv.out_dim(), out_dim, "layer {layer} out_dim");
            let expected_act = if layer + 1 == cfg.num_layers {
                None
            } else {
                Some(cfg.activation)
            };
            assert_eq!(conv.activation(), expected_act, "layer {layer} activation");
        }
        let ctx = GraphContext::build(graph, cfg.arch, cfg.eg_width);
        GnnModel {
            cfg,
            ctx,
            convs,
            timers: PhaseTimers::default(),
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The convolution layers, input to output (weights readable for
    /// snapshots).
    pub fn layers(&self) -> &[Conv] {
        &self.convs
    }

    /// The normalized-graph context (kernel operands).
    pub fn context(&self) -> &GraphContext {
        &self.ctx
    }

    /// Per-layer cost shapes for the [`crate::plan`] full-vs-partial
    /// heuristic (one [`crate::plan::LayerCost`] per convolution, input
    /// to output).
    pub fn layer_costs(&self) -> Vec<crate::plan::LayerCost> {
        self.convs.iter().map(|c| c.plan_layer().cost()).collect()
    }

    /// Forward pass over all layers; returns logits.
    pub fn forward<R: Rng>(&mut self, x: &Matrix, train: bool, rng: &mut R) -> Matrix {
        let mut h = x.clone();
        for conv in &mut self.convs {
            h = conv.forward(&self.ctx, &h, train, rng, &mut self.timers);
        }
        h
    }

    /// Eval-mode forward restricted to a seed set, following `plan`.
    ///
    /// Returns one logit row per entry of `seeds`, in request order
    /// (duplicates allowed). With [`crate::ForwardPlan::Full`] this is a
    /// full eval forward plus a row gather; with a partial plan only the
    /// frontier rows are computed — bitwise equal either way (the
    /// serving-path guarantee, see [`crate::plan`]).
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or out of range, or when a partial
    /// plan's frontier depth/seed set disagrees with the model/request.
    pub fn forward_planned(&mut self, x: &Matrix, seeds: &[u32], plan: &ForwardPlan) -> Matrix {
        assert!(!seeds.is_empty(), "forward_planned needs seeds");
        let n = self.ctx.adj.num_nodes();
        assert!(seeds.iter().all(|&s| (s as usize) < n), "seed out of range");
        let gather = |m: &Matrix, rows: &dyn Fn(u32) -> usize| {
            let mut out = Matrix::zeros(seeds.len(), m.cols());
            for (r, &s) in seeds.iter().enumerate() {
                out.row_mut(r).copy_from_slice(m.row(rows(s)));
            }
            out
        };
        match plan {
            ForwardPlan::Full => {
                // Eval mode never touches the RNG (no dropout).
                let mut rng = rand::rngs::StdRng::seed_from_u64(0);
                let all = self.forward(x, false, &mut rng);
                gather(&all, &|s| s as usize)
            }
            ForwardPlan::Partial(frontier) => {
                assert_eq!(
                    frontier.hops(),
                    self.cfg.num_layers,
                    "frontier depth must match the model"
                );
                let layers: Vec<PlanLayer<'_>> = self.convs.iter().map(Conv::plan_layer).collect();
                let compact = crate::plan::forward(
                    &self.ctx,
                    self.cfg.arch,
                    &layers,
                    crate::plan::Input::Features(x),
                    Some(frontier),
                    None,
                );
                gather(&compact, &|s| {
                    frontier
                        .seeds()
                        .compact(s)
                        .expect("plan frontier must contain every requested seed")
                })
            }
        }
    }

    /// Backward pass from the loss gradient; accumulates parameter grads.
    /// The model input has no gradient, so layer 0 forms no `dX`.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let mut grad: Option<Matrix> = None;
        for (layer, conv) in self.convs.iter_mut().enumerate().rev() {
            let dy = grad.as_ref().unwrap_or(dlogits);
            grad = conv.backward(&self.ctx, dy, layer > 0, &mut self.timers);
        }
    }

    /// Zeroes every layer's gradients.
    pub fn zero_grad(&mut self) {
        for conv in &mut self.convs {
            conv.zero_grad();
        }
    }

    /// Applies one optimizer step across all layers.
    pub fn step<O: Optimizer>(&mut self, opt: &mut O) {
        opt.next_step();
        for (i, conv) in self.convs.iter_mut().enumerate() {
            conv.apply_step(opt, i);
        }
    }

    /// The accumulated phase breakdown.
    pub fn timers(&self) -> &PhaseTimers {
        &self.timers
    }

    /// Resets the phase breakdown.
    pub fn reset_timers(&mut self) {
        self.timers.reset();
    }

    /// Total learnable parameters.
    pub fn num_params(&self) -> usize {
        self.convs.iter().map(Conv::num_params).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxk_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> Csr {
        generate::chung_lu_power_law(60, 6.0, 2.3, 1)
            .to_csr()
            .unwrap()
    }

    fn config(act: Activation) -> ModelConfig {
        let mut cfg = ModelConfig::new(Arch::Gcn, act, 10, 4);
        cfg.hidden_dim = 16;
        cfg.dropout = 0.0;
        cfg
    }

    #[test]
    fn forward_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut model = GnnModel::new(config(Activation::MaxK(4)), &graph(), &mut rng);
        let x = Matrix::xavier(60, 10, &mut rng);
        let y = model.forward(&x, false, &mut rng);
        assert_eq!(y.shape(), (60, 4));
        assert!(y.is_finite());
    }

    #[test]
    fn layer_dimensions_chain() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = GnnModel::new(config(Activation::Relu), &graph(), &mut rng);
        assert_eq!(model.convs.len(), 3);
        assert_eq!(model.convs[0].in_dim(), 10);
        assert_eq!(model.convs[0].out_dim(), 16);
        assert_eq!(model.convs[1].in_dim(), 16);
        assert_eq!(model.convs[2].out_dim(), 4);
        assert!(model.convs[2].activation().is_none());
    }

    #[test]
    fn backward_runs_and_grads_move_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut model = GnnModel::new(config(Activation::MaxK(4)), &graph(), &mut rng);
        let x = Matrix::xavier(60, 10, &mut rng);
        let y = model.forward(&x, true, &mut rng);
        model.backward(&Matrix::filled(60, 4, 0.1));
        let mut opt = maxk_tensor::Sgd::new(0.1);
        model.step(&mut opt);
        let y2 = model.forward(&x, false, &mut rng);
        assert!(y.max_abs_diff(&y2) > 0.0, "step must change the function");
    }

    /// An "optimizer" that records each tensor's gradient bits instead of
    /// stepping.
    #[derive(Default)]
    struct GradBits(Vec<(usize, Vec<u32>)>);

    impl Optimizer for GradBits {
        fn step(&mut self, param_id: usize, _: &mut [f32], grads: &[f32]) {
            self.0
                .push((param_id, grads.iter().map(|g| g.to_bits()).collect()));
        }

        fn learning_rate(&self) -> f32 {
            0.0
        }
    }

    #[test]
    fn skipping_layer_zero_input_gradient_leaves_every_parameter_gradient_bitwise() {
        let g = graph();
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                let mut cfg = config(act);
                cfg.arch = arch;
                cfg.dropout = 0.5;
                let mut rng = StdRng::seed_from_u64(8);
                let mut model = GnnModel::new(cfg, &g, &mut rng);
                let x = Matrix::xavier(60, 10, &mut rng);
                let dlogits = Matrix::xavier(60, 4, &mut rng);
                let mut reference = model.clone();

                let _ = model.forward(&x, true, &mut StdRng::seed_from_u64(9));
                model.backward(&dlogits);

                // The loop `backward` ran before: every layer, layer 0
                // included, forms its input gradient.
                let _ = reference.forward(&x, true, &mut StdRng::seed_from_u64(9));
                let mut grad = dlogits.clone();
                for conv in reference.convs.iter_mut().rev() {
                    grad = conv
                        .backward(&reference.ctx, &grad, true, &mut reference.timers)
                        .unwrap();
                }
                assert_eq!(grad.shape(), x.shape());

                let (mut got, mut want) = (GradBits::default(), GradBits::default());
                model.step(&mut got);
                reference.step(&mut want);
                assert_eq!(got.0, want.0, "{arch:?} {act:?}");
            }
        }
    }

    #[test]
    fn timers_accumulate_and_reset() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut model = GnnModel::new(config(Activation::MaxK(4)), &graph(), &mut rng);
        let x = Matrix::xavier(60, 10, &mut rng);
        let _ = model.forward(&x, false, &mut rng);
        assert!(model.timers().agg > Duration::ZERO);
        assert!(model.timers().linear > Duration::ZERO);
        assert!(model.timers().maxk > Duration::ZERO);
        let frac = model.timers().agg_fraction();
        assert!(frac > 0.0 && frac < 1.0);
        assert!(model.timers().amdahl_limit() >= 1.0);
        model.reset_timers();
        assert_eq!(model.timers().total(), Duration::ZERO);
    }

    #[test]
    fn paper_presets_match_table3() {
        let yelp = ModelConfig::paper_preset("Yelp", Arch::Sage, Activation::MaxK(96), 300, 100);
        assert_eq!(yelp.num_layers, 4);
        assert_eq!(yelp.hidden_dim, 384);
        assert!((yelp.dropout - 0.1).abs() < 1e-6);
        let reddit = ModelConfig::paper_preset("Reddit", Arch::Gcn, Activation::Relu, 602, 41);
        assert_eq!(reddit.num_layers, 4);
        assert_eq!(reddit.hidden_dim, 256);
    }

    #[test]
    #[should_panic(expected = "exceeds hidden dim")]
    fn validate_rejects_oversized_k() {
        let mut cfg = config(Activation::MaxK(64));
        cfg.hidden_dim = 16;
        let mut rng = StdRng::seed_from_u64(4);
        let _ = GnnModel::new(cfg, &graph(), &mut rng);
    }

    #[test]
    #[should_panic(expected = "architecture")]
    fn from_parts_rejects_arch_mismatch() {
        // GCN and GIN layers both lack a self linear, so only the arch
        // check can tell them apart — a mismatched layer must not be
        // silently accepted (its forward would skip the GIN self term).
        let mut rng = StdRng::seed_from_u64(6);
        let g = graph();
        let cfg = {
            let mut c = config(Activation::Relu);
            c.arch = Arch::Gin;
            c
        };
        let convs = (0..cfg.num_layers)
            .map(|layer| {
                let in_dim = if layer == 0 {
                    cfg.in_dim
                } else {
                    cfg.hidden_dim
                };
                let out_dim = if layer + 1 == cfg.num_layers {
                    cfg.out_dim
                } else {
                    cfg.hidden_dim
                };
                let act = if layer + 1 == cfg.num_layers {
                    None
                } else {
                    Some(cfg.activation)
                };
                let lin = maxk_tensor::Linear::new(in_dim, out_dim, &mut rng);
                Conv::from_parts(Arch::Gcn, act, 0.0, 0.0, lin, None)
            })
            .collect();
        let _ = GnnModel::from_parts(cfg, &g, convs);
    }

    #[test]
    fn num_params_positive_and_arch_dependent() {
        let mut rng = StdRng::seed_from_u64(5);
        let gcn = GnnModel::new(config(Activation::Relu), &graph(), &mut rng);
        let mut sage_cfg = config(Activation::Relu);
        sage_cfg.arch = Arch::Sage;
        let sage = GnnModel::new(sage_cfg, &graph(), &mut rng);
        assert!(sage.num_params() > gcn.num_params());
    }
}
