//! Stacked GNN models and the per-phase wall-clock breakdown.

use crate::conv::{Activation, Arch, Conv, GraphContext};
use crate::plan::{self, ForwardPlan, ForwardTimer, KernelKind, PlanLayer};
use maxk_graph::{Csr, Frontier};
use maxk_tensor::{Matrix, Optimizer};
use rand::Rng;
use std::borrow::Cow;
use std::time::Duration;

/// Wall-clock accumulators for the pipeline phases of Fig. 1(c), folded
/// from the model's kernel laps ([`PhaseTimers::fold`]) — the same
/// [`KernelKind`] laps serving records.
///
/// `agg` is the sparse aggregation (SpMM / SpGEMM / SSpMM) — the paper's
/// `p_SpMM` numerator in the Amdahl's-law limit `S = 1 / (1 − p_SpMM)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimers {
    /// Sparse aggregation time, forward and backward, with the SAGE self
    /// add and the GIN residual ([`KernelKind::SpMM`] and
    /// [`KernelKind::SSpMM`] laps).
    pub agg: Duration,
    /// Dense linear-layer time, forward and backward, with ReLU and its
    /// mask ([`KernelKind::DenseLinear`] laps).
    pub linear: Duration,
    /// MaxK selection / scatter time ([`KernelKind::MaxK`] laps).
    pub maxk: Duration,
    /// Every other lap (dropout, and a partial plan's row gathers).
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

    /// Adds each lap's duration to its kernel class's bucket.
    pub fn fold(&mut self, laps: &[(usize, KernelKind, Duration)]) {
        for &(_, kind, d) in laps {
            *match kind {
                KernelKind::SpMM | KernelKind::SSpMM => &mut self.agg,
                KernelKind::DenseLinear => &mut self.linear,
                KernelKind::MaxK => &mut self.maxk,
                _ => &mut self.other,
            } += d;
        }
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

    /// Layer `layer`'s `(in_dim, out_dim, activation)`: hidden layers are
    /// `hidden_dim` wide and carry the activation, the output layer has
    /// none.
    pub(crate) fn layer_shape(&self, layer: usize) -> (usize, usize, Option<Activation>) {
        let in_dim = if layer == 0 {
            self.in_dim
        } else {
            self.hidden_dim
        };
        if layer + 1 == self.num_layers {
            (in_dim, self.out_dim, None)
        } else {
            (in_dim, self.hidden_dim, Some(self.activation))
        }
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
        let convs = (0..cfg.num_layers)
            .map(|layer| {
                let (in_dim, out_dim, activation) = cfg.layer_shape(layer);
                Conv::new(cfg.arch, activation, in_dim, out_dim, cfg.dropout, rng)
            })
            .collect();
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
            let (in_dim, out_dim, activation) = cfg.layer_shape(layer);
            assert_eq!(conv.arch(), cfg.arch, "layer {layer} architecture");
            assert_eq!(conv.in_dim(), in_dim, "layer {layer} in_dim");
            assert_eq!(conv.out_dim(), out_dim, "layer {layer} out_dim");
            assert_eq!(conv.activation(), activation, "layer {layer} activation");
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

    /// Forward pass over all layers; returns logits. A training forward
    /// runs each layer's [`Conv::forward`], which keeps what backward
    /// reads; an eval forward is [`plan::forward`] over all rows and keeps
    /// nothing. Both fold their kernel laps into [`GnnModel::timers`].
    pub fn forward<R: Rng>(&mut self, x: &Matrix, train: bool, rng: &mut R) -> Matrix {
        if !train {
            return self.eval(x, None);
        }
        let mut timer = ForwardTimer::new();
        let mut h = Cow::Borrowed(x);
        for (l, conv) in self.convs.iter_mut().enumerate() {
            let y = conv.forward(&self.ctx, h, true, rng, &mut Some((&mut timer, l)));
            h = Cow::Owned(y);
        }
        self.timers.fold(timer.laps());
        h.into_owned()
    }

    /// The eval forward over every row (`frontier` is `None`) or down a
    /// partial plan's frontier, laps folded into the timers.
    fn eval(&mut self, x: &Matrix, frontier: Option<&Frontier>) -> Matrix {
        let mut timer = ForwardTimer::new();
        let layers: Vec<PlanLayer<'_>> = self.convs.iter().map(Conv::plan_layer).collect();
        let input = plan::Input::Features(x);
        let y = plan::forward(
            &self.ctx,
            self.cfg.arch,
            &layers,
            input,
            frontier,
            Some(&mut timer),
        );
        self.timers.fold(timer.laps());
        y
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
        let frontier = plan.frontier();
        let out = self.eval(x, frontier);
        let mut rows = Matrix::zeros(seeds.len(), out.cols());
        for (r, &s) in seeds.iter().enumerate() {
            let row = frontier.map_or(Some(s as usize), |f| f.seeds().compact(s));
            let row = row.expect("plan frontier must contain every requested seed");
            rows.row_mut(r).copy_from_slice(out.row(row));
        }
        rows
    }

    /// Backward pass from the loss gradient; accumulates parameter grads.
    /// The model input has no gradient, so layer 0 forms no `dX`.
    pub fn backward(&mut self, dlogits: &Matrix) {
        let mut timer = ForwardTimer::new();
        let mut grad: Option<Matrix> = None;
        for (layer, conv) in self.convs.iter_mut().enumerate().rev() {
            let dy = grad.as_ref().unwrap_or(dlogits);
            let slot = &mut Some((&mut timer, layer));
            grad = conv.backward(&self.ctx, dy, layer > 0, slot);
        }
        self.timers.fold(timer.laps());
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
        self.timers = PhaseTimers::default();
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
                        .backward(&reference.ctx, &grad, true, &mut None)
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
                let (in_dim, out_dim, act) = cfg.layer_shape(layer);
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
