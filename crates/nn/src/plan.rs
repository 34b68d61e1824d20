//! Forward planning: full-graph vs. seed-restricted partial forward, and
//! the one layer dataflow training and serving share.
//!
//! A serving batch only needs logits at its seed union, so when the
//! union's reverse L-hop frontier (see `maxk_graph::frontier`) touches a
//! small fraction of the graph, computing each layer only at the frontier
//! rows is much cheaper than the full-graph forward. [`ForwardPlan`]
//! captures that per-batch decision, [`PlanConfig`] holds the cost
//! heuristic, and [`eval_layer`] is the one eval-mode layer both plans
//! run over [`PlanLayer`] weight views — all rows with the full kernels,
//! or an `(out_set, in_set)` row subset with the `maxk_core::subset`
//! kernels. It is split along the paper's phase boundary:
//! [`combine`] (linear + bias, MaxK → CBSR, the SAGE self product) then
//! [`aggregate`] (SpGEMM/SpMM and the self/GIN add), with
//! `eval_layer = aggregate ∘ combine`. [`forward`] drives the layers over
//! all rows or down a frontier; [`crate::GnnModel::forward`] in eval mode,
//! [`crate::GnnModel::forward_planned`] and `maxk-serve`'s
//! `InferenceEngine` route through it.
//!
//! A training layer ([`crate::Conv::forward`]) runs the same two
//! functions over all rows, keeps only what its backward reads
//! (`Retained`), and runs `aggregate_backward` then `combine_backward`:
//! the layer's dataflow is written once per direction, all of it in this
//! module.
//!
//! Layer 0's combination phase reads only the input features and the
//! weights, so a caller whose features outlive one batch computes it once
//! and starts every forward at [`Input::Combined`]; [`LayerCost::hoisted`]
//! tells the cost model that layer's dense rows are already paid for.
//!
//! Partial outputs are **bitwise equal** to the corresponding rows of the
//! full forward, and a forward from a kept [`Combined`] to one from the
//! features: every step (per-row linear transform, MaxK selection,
//! row-subset aggregation via `maxk_core::subset`, self paths) performs
//! the same floating-point operations in the same order as the full-graph
//! path, just skipping rows nobody asked for or rows computed earlier.

use crate::conv::{Activation, Arch, GraphContext};
use maxk_core::maxk::{maxk_backward, maxk_forward};
use maxk_core::spgemm::spgemm_forward;
use maxk_core::spmm::spmm_rowwise;
use maxk_core::sspmm::sspmm_backward;
use maxk_core::subset::{spmm_rows, sspmm_rows};
use maxk_core::Cbsr;
use maxk_graph::{Csr, Frontier, GraphError, NodeSet};
use maxk_tensor::{ops, Linear, Matrix};
use std::time::{Duration, Instant};

/// The kernel classes a layer spends its time in, for per-layer timing
/// ([`ForwardTimer`]). MaxK-GNN's own analysis starts from exactly this
/// breakdown: which fraction of a layer goes to the dense linear transform
/// vs. the sparse aggregation, and whether the aggregation runs the
/// dense-operand SpMM or the CBSR SSpMM path. A training backward laps each
/// kernel under the class of the forward kernel it differentiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum KernelKind {
    /// Dense linear transform of the combination phase (`matmul` + bias
    /// on the neighbor and SAGE self paths, ReLU).
    DenseLinear,
    /// Row-wise SpMM aggregation over a dense operand (ReLU / linear
    /// activations), with the layer's self/GIN add.
    SpMM,
    /// SSpMM / SpGEMM aggregation over the sparse CBSR operand (MaxK
    /// activations), with the layer's self/GIN add.
    SSpMM,
    /// MaxK selection (CBSR construction).
    MaxK,
    /// Row gathers/scatters that remap between full-graph and
    /// frontier-compact indexing on the partial path.
    Gather,
    /// Training's dropout on a layer input; serving never runs it.
    Dropout,
}

impl KernelKind {
    /// Stable lowercase label (metric label values, JSON keys).
    pub fn label(&self) -> &'static str {
        match self {
            KernelKind::DenseLinear => "dense_linear",
            KernelKind::SpMM => "spmm",
            KernelKind::SSpMM => "sspmm",
            KernelKind::MaxK => "maxk",
            KernelKind::Gather => "gather",
            KernelKind::Dropout => "dropout",
        }
    }
}

/// Wall-clock accumulator for one forward (or training backward) pass:
/// every timed kernel call appends a `(layer, kernel, elapsed)` lap. The
/// laps cover essentially all of a layer's work, so their sum tracks the
/// forward's wall time closely (the telemetry acceptance check holds it
/// within 10%).
#[derive(Debug, Clone, Default)]
pub struct ForwardTimer {
    laps: Vec<(usize, KernelKind, Duration)>,
}

impl ForwardTimer {
    /// An empty timer.
    pub fn new() -> Self {
        ForwardTimer::default()
    }

    /// Runs `f`, recording its wall time as a lap of `kernel` in `layer`.
    pub fn lap<R>(&mut self, layer: usize, kernel: KernelKind, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.laps.push((layer, kernel, start.elapsed()));
        out
    }

    /// Every recorded lap, in execution order.
    pub fn laps(&self) -> &[(usize, KernelKind, Duration)] {
        &self.laps
    }

    /// Sum of all lap durations.
    pub fn total(&self) -> Duration {
        self.laps.iter().map(|&(_, _, d)| d).sum()
    }
}

/// Runs `f`, timing it as a `(layer, kernel)` lap when a timer slot is
/// present (the `Option<(&mut ForwardTimer, layer)>` shape both the full
/// and partial layer paths thread down their call trees).
pub fn timed_lap<R>(
    slot: &mut Option<(&mut ForwardTimer, usize)>,
    kernel: KernelKind,
    f: impl FnOnce() -> R,
) -> R {
    match slot {
        Some((timer, layer)) => timer.lap(*layer, kernel, f),
        None => f(),
    }
}

/// Cost-heuristic knobs for [`ForwardPlan::choose`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanConfig {
    /// Skip frontier construction entirely when the (deduplicated) seed
    /// set exceeds this fraction of the graph — such batches practically
    /// always saturate the frontier.
    pub seed_frac_cutoff: f64,
    /// Go partial when the modelled partial-forward cost
    /// ([`partial_cost`]: dense-linear row work **plus** aggregation edge
    /// work, both weighted by their feature dimensions) is below this
    /// fraction of the modelled full-forward cost ([`full_cost`]); the
    /// margin absorbs the partial path's remapping and gather overheads.
    pub work_ratio: f64,
}

impl Default for PlanConfig {
    fn default() -> Self {
        PlanConfig {
            seed_frac_cutoff: 0.05,
            work_ratio: 0.5,
        }
    }
}

/// Per-layer shape summary feeding the [`ForwardPlan::choose`] cost
/// model: one entry per model layer, input to output.
///
/// The unit of cost is one multiply-accumulate. A layer's dense linear
/// costs `rows × in_dim × out_dim` (rows = every node whose transform the
/// layer computes; doubled-ish when a SAGE self linear exists) unless the
/// caller already holds its product, and its sparse aggregation costs
/// `row visits × agg_width` (`agg_width` is the MaxK `k` when the
/// layer's activation runs the CBSR path, the dense layer width
/// otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCost {
    /// Linear input dimension.
    pub in_dim: usize,
    /// Linear output dimension.
    pub out_dim: usize,
    /// Values accumulated per aggregation row visit.
    pub agg_width: usize,
    /// Whether a SAGE-style self linear runs at the output rows too.
    pub has_self_linear: bool,
    /// Whether the forward starts at this layer's [`Combined`]
    /// ([`Input::Combined`]): no plan computes a dense-linear row for it.
    pub linear_hoisted: bool,
}

impl LayerCost {
    /// Derives the cost shape of one layer from its dimensions,
    /// activation and self-path presence.
    pub fn new(
        in_dim: usize,
        out_dim: usize,
        activation: Option<Activation>,
        has_self_linear: bool,
    ) -> Self {
        let agg_width = match activation {
            Some(Activation::MaxK(k)) => k,
            _ => out_dim,
        };
        LayerCost {
            in_dim,
            out_dim,
            agg_width,
            has_self_linear,
            linear_hoisted: false,
        }
    }

    /// The cost of the same layer when its combination phase is computed
    /// ahead of the forward.
    #[must_use]
    pub fn hoisted(self) -> Self {
        LayerCost {
            linear_hoisted: true,
            ..self
        }
    }

    /// Dense-linear multiply-accumulates when the neighbor transform runs
    /// at `neigh_rows` rows and the self transform (if any) at
    /// `self_rows`.
    fn linear_cost(&self, neigh_rows: usize, self_rows: usize) -> f64 {
        if self.linear_hoisted {
            return 0.0;
        }
        let rows = neigh_rows + usize::from(self.has_self_linear) * self_rows;
        (rows * self.in_dim * self.out_dim) as f64
    }
}

/// Modelled multiply-accumulate cost of a full-graph forward over
/// `layers` on a graph with `num_nodes` nodes and `num_edges` nonzeros.
pub fn full_cost(num_nodes: usize, num_edges: usize, layers: &[LayerCost]) -> f64 {
    layers
        .iter()
        .map(|lc| lc.linear_cost(num_nodes, num_nodes) + (num_edges * lc.agg_width) as f64)
        .sum()
}

/// Modelled multiply-accumulate cost of a partial forward over
/// `frontier`: layer `l` transforms the level-`hops-l` rows (plus the
/// level-`hops-1-l` rows again when a self linear exists) and aggregates
/// the hop-`hops-1-l` row visits. A hoisted layer only aggregates.
///
/// # Panics
///
/// Panics when `frontier.hops() != layers.len()`.
pub fn partial_cost(frontier: &Frontier, layers: &[LayerCost]) -> f64 {
    let hops = frontier.hops();
    assert_eq!(
        hops,
        layers.len(),
        "frontier depth must match the layer count"
    );
    layers
        .iter()
        .enumerate()
        .map(|(l, lc)| {
            let (out_rows, in_rows) = (frontier.level(hops - 1 - l), frontier.level(hops - l));
            lc.linear_cost(in_rows.len(), out_rows.len())
                + (frontier.edge_work_at(hops - 1 - l) * lc.agg_width) as f64
        })
        .sum()
}

/// A per-batch forward strategy: full-graph, or restricted to a seed
/// frontier.
#[derive(Debug, Clone, PartialEq)]
pub enum ForwardPlan {
    /// Run the ordinary full-graph forward and gather seed rows.
    Full,
    /// Run layer-by-layer over the reverse frontier only.
    Partial(Frontier),
}

impl ForwardPlan {
    /// Picks full vs. partial for `seeds` under `cfg`.
    ///
    /// `adj` is the aggregation operand (row `i` lists the nodes feeding
    /// output `i`) and `layers` the per-layer cost shapes (one entry per
    /// model layer; see [`LayerCost`]). The heuristic compares the
    /// modelled [`partial_cost`] — dense-linear rows **and** aggregation
    /// row visits, each weighted by its feature dimensions — against
    /// [`full_cost`].
    ///
    /// An earlier version compared aggregation edge work only and claimed
    /// the linear work "shrinks by at least the same factor, so it never
    /// flips the decision". That claim was wrong: near frontier
    /// saturation the input-layer linear barely shrinks (almost every
    /// node is still a frontier input) while the edge-work ratio keeps
    /// falling, so the edge-only model overstated partial wins by ~2× at
    /// percent-of-graph seed fractions (measured 1.6× vs ~3× predicted on
    /// the Flickr stand-in at 1%·|V| seeds).
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeOutOfBounds`] when a seed is out of range.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` or `layers` is empty.
    pub fn choose(
        adj: &Csr,
        seeds: &[u32],
        layers: &[LayerCost],
        cfg: &PlanConfig,
    ) -> Result<ForwardPlan, GraphError> {
        assert!(!seeds.is_empty(), "plan needs at least one seed");
        assert!(!layers.is_empty(), "plan needs at least one layer");
        let n = adj.num_nodes();
        let mut unique = seeds.to_vec();
        unique.sort_unstable();
        unique.dedup();
        if unique.last().map(|&s| s as usize >= n).unwrap_or(false) {
            return Err(GraphError::NodeOutOfBounds {
                node: *unique.last().expect("non-empty"),
                num_nodes: n,
            });
        }
        if unique.len() as f64 > cfg.seed_frac_cutoff * n as f64 {
            return Ok(ForwardPlan::Full);
        }
        let frontier = Frontier::reverse_hops(adj, &unique, layers.len())?;
        let full = full_cost(n, adj.num_edges(), layers);
        if partial_cost(&frontier, layers) < cfg.work_ratio * full {
            Ok(ForwardPlan::Partial(frontier))
        } else {
            Ok(ForwardPlan::Full)
        }
    }

    /// True when the plan runs the seed-restricted path.
    pub fn is_partial(&self) -> bool {
        matches!(self, ForwardPlan::Partial(_))
    }

    /// The frontier of a partial plan.
    pub fn frontier(&self) -> Option<&Frontier> {
        match self {
            ForwardPlan::Full => None,
            ForwardPlan::Partial(f) => Some(f),
        }
    }
}

/// Borrowed weight view of one layer, the common denominator between
/// the trainable `Conv` ([`crate::conv::Conv::plan_layer`]) and the
/// immutable [`crate::snapshot::LayerSnapshot`] the serving engines share
/// ([`crate::snapshot::ModelSnapshot::plan_layer`]). Neither side keeps a
/// second copy of its weights for serving.
#[derive(Debug, Clone, Copy)]
pub struct PlanLayer<'a> {
    /// Layer activation (`None` on the output layer).
    pub activation: Option<Activation>,
    /// GIN `(1 + ε)` epsilon.
    pub eps: f32,
    /// Neighbor-path weight, `in_dim × out_dim`.
    pub neigh_weight: &'a Matrix,
    /// Neighbor-path bias.
    pub neigh_bias: &'a [f32],
    /// SAGE self-path `(weight, bias)`, when present.
    pub self_path: Option<(&'a Matrix, &'a [f32])>,
}

impl PlanLayer<'_> {
    /// The layer's [`LayerCost`] shape, read off the weight dimensions.
    pub fn cost(&self) -> LayerCost {
        LayerCost::new(
            self.neigh_weight.rows(),
            self.neigh_weight.cols(),
            self.activation,
            self.self_path.is_some(),
        )
    }

    /// Bytes per input row of this layer's [`Combined`]
    /// ([`Combined::bytes`] over its row count, known from the shapes
    /// before anything is computed): the CBSR or dense neighbor operand
    /// plus the dense self product when there is a self path.
    pub fn combined_row_bytes(&self) -> usize {
        let out_dim = self.neigh_weight.cols();
        let h = match self.activation {
            Some(Activation::MaxK(k)) => Cbsr::row_bytes_of(out_dim, k),
            _ => out_dim * 4,
        };
        h + usize::from(self.self_path.is_some()) * out_dim * 4
    }
}

/// Copies the rows of `m` at `positions` into a fresh compact matrix.
fn gather_rows_at(m: &Matrix, positions: impl ExactSizeIterator<Item = usize>) -> Matrix {
    let mut out = Matrix::zeros(positions.len(), m.cols());
    for (r, p) in positions.enumerate() {
        out.row_mut(r).copy_from_slice(m.row(p));
    }
    out
}

/// Positions of `sub`'s members within `sup`'s compact ordering.
///
/// # Panics
///
/// Panics when `sub` is not a subset of `sup`.
fn positions_in(sub: &NodeSet, sup: &NodeSet) -> Vec<usize> {
    sub.ids()
        .iter()
        .map(|&id| sup.compact(id).expect("frontier levels nest"))
        .collect()
}

/// A layer's neighbor operand after its activation — what the
/// aggregation kernel reads — or, in a training backward, the gradient at
/// that operand ([`aggregate_backward`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Activated {
    /// ReLU or no activation: the row-wise SpMM operand.
    Dense(Matrix),
    /// MaxK: the CBSR operand of SpGEMM/SSpMM (§3.2); the dense
    /// pre-activation is gone once the selection has read it.
    Sparse(Cbsr),
}

/// What a layer's combination phase ([`combine`]) hands its aggregation
/// phase ([`aggregate`]): the activated neighbor operand at the layer's
/// input rows and, on SAGE, the self product at its output rows. Every
/// row is a function of the same row of the layer input alone, so rows
/// can be gathered ([`Combined::gather`]) and recomputed
/// ([`Combined::write_rows`]) independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Combined {
    pub(crate) h: Activated,
    self_y: Option<Matrix>,
}

impl Combined {
    /// Heap bytes of the operands held.
    pub fn bytes(&self) -> usize {
        let h = match &self.h {
            Activated::Dense(m) => m.data().len() * 4,
            Activated::Sparse(c) => c.num_rows() * c.row_bytes(),
        };
        h + self.self_y.as_ref().map_or(0, |m| m.data().len() * 4)
    }

    /// The neighbor operand at rows `in_rows` and the self product at
    /// rows `out_rows`, compact in those orders — a partial plan's
    /// layer-0 operands, or a shard's slice (both lists its local rows).
    ///
    /// # Panics
    ///
    /// Panics when a row is out of bounds.
    #[must_use]
    pub fn gather(&self, in_rows: &[u32], out_rows: &[u32]) -> Combined {
        let rows: Vec<usize> = in_rows.iter().map(|&r| r as usize).collect();
        Combined {
            h: match &self.h {
                Activated::Dense(m) => Activated::Dense(gather_rows_at(m, rows.into_iter())),
                Activated::Sparse(c) => Activated::Sparse(c.gather_rows(&rows)),
            },
            self_y: self
                .self_y
                .as_ref()
                .map(|m| gather_rows_at(m, out_rows.iter().map(|&r| r as usize))),
        }
    }

    /// Overwrites rows `rows` of both operands with the rows of `patch`,
    /// a [`combine`] of the same layer over just those rows' new inputs.
    ///
    /// # Panics
    ///
    /// Panics when `patch` has a different shape or row count, or a row
    /// is out of bounds.
    pub fn write_rows(&mut self, rows: &[u32], patch: &Combined) {
        let write = |m: &mut Matrix, src: &Matrix| {
            assert_eq!(rows.len(), src.rows(), "one target row per patch row");
            for (s, &r) in rows.iter().enumerate() {
                m.row_mut(r as usize).copy_from_slice(src.row(s));
            }
        };
        match (&mut self.h, &patch.h) {
            (Activated::Dense(m), Activated::Dense(src)) => write(m, src),
            (Activated::Sparse(c), Activated::Sparse(src)) => {
                let rows: Vec<usize> = rows.iter().map(|&r| r as usize).collect();
                c.write_rows(&rows, src);
            }
            _ => panic!("patch comes from a different activation"),
        }
        match (&mut self.self_y, &patch.self_y) {
            (Some(m), Some(src)) => write(m, src),
            (None, None) => {}
            _ => panic!("patch comes from a different architecture"),
        }
    }
}

/// What a training layer keeps between its forward and its backward, and
/// nothing else (not the SAGE self product, not a dense `z`).
#[derive(Debug, Clone)]
pub(crate) struct Retained {
    /// The layer input, after dropout.
    pub(crate) input: Matrix,
    /// Dropout's kept-mask and rate, when dropout ran.
    pub(crate) dropout: Option<(Vec<bool>, f32)>,
    /// A hidden layer's activated operand: its CBSR, or `relu(z)`, which
    /// is `> 0` exactly where `z` is (±0.0 and NaN included).
    pub(crate) h: Option<Activated>,
}

/// What a [`forward`] starts from.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// The full-graph feature matrix: layer 0 runs both phases.
    Features(&'a Matrix),
    /// Layer 0's [`combine`] over all graph rows, computed once by a
    /// caller whose features outlive the batch: layer 0 only aggregates.
    Combined(&'a Combined),
}

/// Runs an eval-mode forward over `layers`: every row when `frontier` is
/// `None` (the result is full-graph), or seed-restricted down `frontier`
/// (the result is compact over `frontier.seeds()`, row `r` bitwise equal
/// to row `frontier.seeds().ids()[r]` of the full-graph forward).
///
/// `input` covers all graph rows either way; a partial plan gathers the
/// rows its frontier reads. When `timer` is present, every kernel call is
/// recorded as a `(layer, `[`KernelKind`]`)` lap; the computation is
/// identical either way (the timer only wraps calls in wall-clock reads).
///
/// # Panics
///
/// Panics when `layers` is empty, when `frontier.hops() != layers.len()`,
/// when shapes disagree, or when `arch`/`self_path` presence are
/// inconsistent.
#[must_use]
pub fn forward(
    ctx: &GraphContext,
    arch: Arch,
    layers: &[PlanLayer<'_>],
    input: Input<'_>,
    frontier: Option<&Frontier>,
    mut timer: Option<&mut ForwardTimer>,
) -> Matrix {
    let hops = layers.len();
    if let Some(f) = frontier {
        assert_eq!(f.hops(), hops, "frontier depth must match the layer count");
    }
    let rows = |l: usize| frontier.map(|f| (f.level(hops - l - 1), f.level(hops - l)));
    let mut slot = timer.as_deref_mut().map(|t| (t, 0usize));
    let mut x = match input {
        Input::Features(features) => {
            assert_eq!(
                features.rows(),
                ctx.adj.num_nodes(),
                "feature rows must match graph nodes"
            );
            let gathered = frontier.map(|f| {
                timed_lap(&mut slot, KernelKind::Gather, || {
                    gather_rows_at(features, f.inputs().ids().iter().map(|&id| id as usize))
                })
            });
            let x = gathered.as_ref().unwrap_or(features);
            eval_layer(ctx, arch, &layers[0], x, rows(0), slot)
        }
        Input::Combined(all) => {
            let gathered = rows(0).map(|(out_set, in_set)| {
                timed_lap(&mut slot, KernelKind::Gather, || {
                    all.gather(in_set.ids(), out_set.ids())
                })
            });
            let c = gathered.as_ref().unwrap_or(all);
            aggregate(ctx, arch, layers[0].eps, c, rows(0), &mut slot)
        }
    };
    for (l, layer) in layers.iter().enumerate().skip(1) {
        let slot = timer.as_deref_mut().map(|t| (t, l));
        x = eval_layer(ctx, arch, layer, &x, rows(l), slot);
    }
    x
}

/// One eval-mode layer — the arch × activation dataflow serving runs, for
/// full and partial plans alike: [`aggregate`] of [`combine`], the same
/// two functions a training layer (`Conv::forward`) runs over all rows.
///
/// `rows = None` computes every graph row from a full-graph `x` with the
/// full kernels (`spgemm_forward` over the Edge-Group partition,
/// `spmm_rowwise`). `rows = Some((out_set, in_set))` computes only the
/// `out_set` rows from an `x` compact over `in_set`, through the
/// `maxk_core::subset` kernels. The two differ only in the aggregation
/// kernel and in restricting the self/residual operand to the output
/// rows; everything else is shared. When `timer` is set, each kernel call
/// is timed as a [`KernelKind`] lap against the carried layer index.
///
/// # Panics
///
/// Panics when shapes disagree, when `arch`/`self_path` presence are
/// inconsistent, or when `out_set` is not a subset of `in_set`.
#[must_use]
pub fn eval_layer(
    ctx: &GraphContext,
    arch: Arch,
    layer: &PlanLayer<'_>,
    x: &Matrix,
    rows: Option<(&NodeSet, &NodeSet)>,
    mut timer: Option<(&mut ForwardTimer, usize)>,
) -> Matrix {
    let c = combine(layer, x, rows, &mut timer);
    aggregate(ctx, arch, layer.eps, &c, rows, &mut timer)
}

/// `x · w + b`.
fn linear(x: &Matrix, w: &Matrix, b: &[f32]) -> Matrix {
    let mut z = ops::matmul(x, w);
    ops::add_bias(&mut z, b);
    z
}

/// A layer's combination phase: the linear transform at every row of `x`
/// (on a partial plan each one feeds some output row), its activation —
/// MaxK straight into CBSR, the dense pre-activation released as soon as
/// the selection has read it — and the SAGE self product at the output
/// rows (`out_set`'s positions in an `x` compact over `in_set`, or every
/// row). Nothing here reads the graph.
///
/// # Panics
///
/// Panics when shapes disagree or `out_set` is not a subset of `in_set`.
#[must_use]
pub fn combine(
    layer: &PlanLayer<'_>,
    x: &Matrix,
    rows: Option<(&NodeSet, &NodeSet)>,
    timer: &mut Option<(&mut ForwardTimer, usize)>,
) -> Combined {
    let h = {
        let z = timed_lap(timer, KernelKind::DenseLinear, || {
            linear(x, layer.neigh_weight, layer.neigh_bias)
        });
        match layer.activation {
            Some(Activation::MaxK(k)) => {
                Activated::Sparse(timed_lap(timer, KernelKind::MaxK, || {
                    maxk_forward(&z, k).expect("k validated at model construction")
                }))
            }
            Some(Activation::Relu) => {
                Activated::Dense(timed_lap(timer, KernelKind::DenseLinear, || ops::relu(&z)))
            }
            None => Activated::Dense(z),
        }
    };
    let self_y = layer.self_path.map(|(w, b)| {
        let x_out = rows.map(|(out_set, in_set)| {
            timed_lap(timer, KernelKind::Gather, || {
                gather_rows_at(x, positions_in(out_set, in_set).into_iter())
            })
        });
        timed_lap(timer, KernelKind::DenseLinear, || {
            linear(x_out.as_ref().unwrap_or(x), w, b)
        })
    });
    Combined { h, self_y }
}

/// A layer's aggregation phase over its [`combine`] output: SpGEMM over
/// the CBSR operand or row-wise SpMM over the dense one (`rows = None`:
/// the full kernels at every row; `Some((out_set, in_set))`: the
/// `maxk_core::subset` kernels at `out_set`, `c` compact over `in_set`),
/// then the SAGE self add or the GIN `(1 + ε)` residual at the output
/// rows (`Cbsr::scatter_axpy` / `ops::axpy`). The adds are timed with the
/// aggregation kernel they follow.
///
/// # Panics
///
/// Panics when shapes disagree, when `arch` is SAGE and `c` carries no
/// self product, or when `out_set` is not a subset of `in_set`.
#[must_use]
pub fn aggregate(
    ctx: &GraphContext,
    arch: Arch,
    eps: f32,
    c: &Combined,
    rows: Option<(&NodeSet, &NodeSet)>,
    timer: &mut Option<(&mut ForwardTimer, usize)>,
) -> Matrix {
    let (kind, mut y) = match &c.h {
        Activated::Sparse(hs) => (
            KernelKind::SSpMM,
            timed_lap(timer, KernelKind::SSpMM, || match rows {
                None => spgemm_forward(&ctx.adj, hs, &ctx.part),
                Some((out_set, in_set)) => sspmm_rows(&ctx.adj, hs, out_set, in_set),
            }),
        ),
        Activated::Dense(h) => (
            KernelKind::SpMM,
            timed_lap(timer, KernelKind::SpMM, || match rows {
                None => spmm_rowwise(&ctx.adj, h),
                Some((out_set, in_set)) => spmm_rows(&ctx.adj, h, out_set, in_set),
            }),
        ),
    };
    match arch {
        Arch::Sage => {
            let self_y = c.self_y.as_ref().expect("SAGE has a self linear");
            timed_lap(timer, kind, || ops::add_assign(&mut y, self_y));
        }
        Arch::Gin => {
            // Where each output row sits in the input ordering (`None` on
            // the full path, where the two coincide).
            let out_positions = rows.map(|(out_set, in_set)| positions_in(out_set, in_set));
            timed_lap(timer, kind, || match (&c.h, &out_positions) {
                (Activated::Sparse(hs), None) => hs.scatter_axpy(1.0 + eps, &mut y),
                (Activated::Sparse(hs), Some(pos)) => {
                    hs.gather_rows(pos).scatter_axpy(1.0 + eps, &mut y);
                }
                (Activated::Dense(h), None) => ops::axpy(y.data_mut(), 1.0 + eps, h.data()),
                (Activated::Dense(h), Some(pos)) => {
                    for (r, &p) in pos.iter().enumerate() {
                        ops::axpy(y.row_mut(r), 1.0 + eps, h.row(p));
                    }
                }
            });
        }
        Arch::Gcn => {}
    }
    y
}

/// A layer's aggregation-phase backward over what its training forward
/// kept: `dH = Âᵀ · dY` at the activated operand — SSpMM on the forward's
/// CBSR pattern when it is sparse (§4.2, Alg. 2), row-wise SpMM over
/// `adj_t` otherwise — plus GIN's `(1 + ε) · dY` self term through the
/// same pattern. The GIN term is timed with the kernel it follows, as in
/// [`aggregate`].
///
/// # Panics
///
/// Panics when shapes disagree.
#[must_use]
pub(crate) fn aggregate_backward(
    ctx: &GraphContext,
    arch: Arch,
    eps: f32,
    kept: &Retained,
    dy: &Matrix,
    timer: &mut Option<(&mut ForwardTimer, usize)>,
) -> Activated {
    let gin = arch == Arch::Gin;
    match &kept.h {
        Some(Activated::Sparse(pattern)) => timed_lap(timer, KernelKind::SSpMM, || {
            let mut dhs = sspmm_backward(&ctx.adj_t, dy, pattern);
            if gin {
                dhs.gather_axpy(1.0 + eps, dy);
            }
            Activated::Sparse(dhs)
        }),
        _ => timed_lap(timer, KernelKind::SpMM, || {
            let mut dh = spmm_rowwise(&ctx.adj_t, dy);
            if gin {
                ops::axpy(dh.data_mut(), 1.0 + eps, dy.data());
            }
            Activated::Dense(dh)
        }),
    }
}

/// A layer's combination-phase backward: `dZ` from `dh` through the
/// activation (the CBSR scatter of a MaxK layer, the mask of the kept ReLU
/// output, or the identity on the output layer), then `dW`/`db` of the
/// neighbor linear from the kept input and `dZ`, and of the SAGE self
/// linear from the kept input and `dy`. The layer input's gradient —
/// `dZ · Wᵀ` plus SAGE's `dY · W_selfᵀ`, through the dropout mask — is
/// formed only when `input_grad` is set, and returned then. Each kept
/// operand is released as soon as nothing further reads it.
///
/// # Panics
///
/// Panics when shapes disagree.
pub(crate) fn combine_backward(
    lin_neigh: &mut Linear,
    lin_self: Option<&mut Linear>,
    kept: Retained,
    dh: Activated,
    dy: &Matrix,
    input_grad: bool,
    timer: &mut Option<(&mut ForwardTimer, usize)>,
) -> Option<Matrix> {
    let Retained { input, dropout, h } = kept;
    let dz = match (h, dh) {
        (_, Activated::Sparse(dhs)) => timed_lap(timer, KernelKind::MaxK, || maxk_backward(&dhs)),
        (Some(Activated::Dense(relu_z)), Activated::Dense(dh)) => {
            timed_lap(timer, KernelKind::DenseLinear, || {
                ops::relu_backward(&relu_z, &dh)
            })
        }
        (_, Activated::Dense(dz)) => dz,
    };
    let dx = timed_lap(timer, KernelKind::DenseLinear, move || {
        lin_neigh.accumulate_grads(&input, &dz);
        let lin_self = lin_self.map(|l| {
            l.accumulate_grads(&input, dy);
            &*l
        });
        drop(input);
        input_grad.then(|| {
            let mut dx = ops::matmul_a_bt(&dz, lin_neigh.weight());
            if let Some(l) = lin_self {
                ops::add_assign(&mut dx, &ops::matmul_a_bt(dy, l.weight()));
            }
            dx
        })
    })?;
    Some(match dropout {
        Some((mask, p)) => timed_lap(timer, KernelKind::Dropout, || {
            ops::dropout_backward(&dx, &mask, p)
        }),
        None => dx,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GnnModel, ModelConfig};
    use maxk_graph::generate;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn graph() -> Csr {
        generate::chung_lu_power_law(70, 6.0, 2.3, 2)
            .to_csr()
            .unwrap()
    }

    fn model(arch: Arch, act: Activation) -> GnnModel {
        let mut cfg = ModelConfig::new(arch, act, 8, 3);
        cfg.hidden_dim = 12;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(5);
        GnnModel::new(cfg, &graph(), &mut rng)
    }

    #[test]
    fn partial_matches_full_forward_bitwise_all_combos() {
        for arch in [Arch::Gcn, Arch::Sage, Arch::Gin] {
            for act in [Activation::Relu, Activation::MaxK(4)] {
                let mut m = model(arch, act);
                let mut rng = StdRng::seed_from_u64(11);
                let x = Matrix::xavier(70, 8, &mut rng);
                let full = m.forward(&x, false, &mut rng);
                let frontier = Frontier::reverse_hops(&m.context().adj, &[0, 13, 69], 3).unwrap();
                let plan = ForwardPlan::Partial(frontier);
                let part = m.forward_planned(&x, &[13, 0, 69, 13], &plan);
                assert_eq!(part.shape(), (4, 3), "{arch:?} {act:?}");
                assert_eq!(part.row(0), full.row(13), "{arch:?} {act:?}");
                assert_eq!(part.row(1), full.row(0), "{arch:?} {act:?}");
                assert_eq!(part.row(2), full.row(69), "{arch:?} {act:?}");
                assert_eq!(part.row(3), full.row(13), "{arch:?} {act:?}");

                // Starting at a kept layer-0 `Combined` changes no bit on
                // either plan.
                let layers: Vec<PlanLayer<'_>> =
                    m.layers().iter().map(crate::Conv::plan_layer).collect();
                let kept = combine(&layers[0], &x, None, &mut None);
                assert_eq!(kept.bytes(), 70 * layers[0].combined_row_bytes());
                let run = |frontier| {
                    let input = Input::Combined(&kept);
                    forward(m.context(), arch, &layers, input, frontier, None)
                };
                assert_eq!(run(None), full, "{arch:?} {act:?}");
                let seeds = run(plan.frontier());
                for (r, s) in [0usize, 13, 69].into_iter().enumerate() {
                    assert_eq!(seeds.row(r), full.row(s), "{arch:?} {act:?}");
                }
            }
        }
    }

    #[test]
    fn rewritten_rows_equal_a_combine_from_scratch() {
        for (arch, act) in [
            (Arch::Sage, Activation::MaxK(4)),
            (Arch::Gin, Activation::Relu),
        ] {
            let m = model(arch, act);
            let layer = m.layers()[0].plan_layer();
            let mut rng = StdRng::seed_from_u64(17);
            let mut x = Matrix::xavier(70, 8, &mut rng);
            let mut kept = combine(&layer, &x, None, &mut None);
            // Two rows change; only they are recomputed.
            let rows = [41u32, 3];
            let new_rows = Matrix::xavier(2, 8, &mut rng);
            for (s, &r) in rows.iter().enumerate() {
                x.row_mut(r as usize).copy_from_slice(new_rows.row(s));
            }
            kept.write_rows(&rows, &combine(&layer, &new_rows, None, &mut None));
            let rebuilt = combine(&layer, &x, None, &mut None);
            assert_eq!(kept, rebuilt, "{arch:?} {act:?}");
            assert_eq!(
                rebuilt.gather(&[3, 41], &[3, 41]),
                combine(&layer, &new_rows, None, &mut None).gather(&[1, 0], &[1, 0])
            );
        }
    }

    #[test]
    fn full_plan_gathers_same_rows() {
        let mut m = model(Arch::Sage, Activation::MaxK(4));
        let mut rng = StdRng::seed_from_u64(13);
        let x = Matrix::xavier(70, 8, &mut rng);
        let full = m.forward(&x, false, &mut rng);
        let out = m.forward_planned(&x, &[5, 5, 2], &ForwardPlan::Full);
        assert_eq!(out.row(0), full.row(5));
        assert_eq!(out.row(1), full.row(5));
        assert_eq!(out.row(2), full.row(2));
    }

    #[test]
    fn choose_goes_partial_for_small_seed_sets() {
        let m = model(Arch::Gcn, Activation::Relu);
        let adj = &m.context().adj;
        let costs = m.layer_costs();
        let plan = ForwardPlan::choose(adj, &[0], &costs, &PlanConfig::default()).unwrap();
        // A single seed in a 70-node graph may or may not saturate the
        // 3-hop frontier; just check consistency of the decision.
        if let ForwardPlan::Partial(f) = &plan {
            assert!(f.edge_work() < 3 * adj.num_edges());
            assert_eq!(f.seeds().ids(), &[0]);
        }
        // Forcing a generous ratio must always go partial: the partial
        // cost never exceeds the full cost (levels and hop visits are
        // subsets of the full rows/edges).
        let generous = PlanConfig {
            seed_frac_cutoff: 1.0,
            work_ratio: 1.1,
        };
        assert!(ForwardPlan::choose(adj, &[0], &costs, &generous)
            .unwrap()
            .is_partial());
    }

    #[test]
    fn choose_goes_full_for_saturating_seed_sets() {
        let m = model(Arch::Gcn, Activation::Relu);
        let adj = &m.context().adj;
        let all: Vec<u32> = (0..70).collect();
        let plan =
            ForwardPlan::choose(adj, &all, &m.layer_costs(), &PlanConfig::default()).unwrap();
        assert!(!plan.is_partial());
        assert!(plan.frontier().is_none());
    }

    #[test]
    fn choose_rejects_bad_seed() {
        let m = model(Arch::Gcn, Activation::Relu);
        assert!(ForwardPlan::choose(
            &m.context().adj,
            &[70],
            &m.layer_costs(),
            &PlanConfig::default()
        )
        .is_err());
    }

    #[test]
    fn linear_work_flips_edge_only_decisions() {
        // Regression for the edge-only cost model: a star graph where one
        // hub row holds every edge and the seeds are all the leaves. The
        // leaves' reverse frontier never expands (their rows are empty),
        // so aggregation edge work is 0 and the old edge-only comparison
        // (0 < ratio × L|E|) always picked partial — yet the partial
        // forward still transforms 99/100 of the nodes through every
        // dense linear, so almost nothing is saved.
        let n = 100u32;
        let adj =
            maxk_graph::Coo::from_edges(n as usize, (1..n).map(|j| (0u32, j)).collect::<Vec<_>>())
                .unwrap()
                .to_csr()
                .unwrap();
        let seeds: Vec<u32> = (1..n).collect();
        let costs = vec![LayerCost::new(64, 64, Some(Activation::Relu), false); 2];
        let cfg = PlanConfig {
            seed_frac_cutoff: 1.0,
            work_ratio: 0.5,
        };
        let frontier = Frontier::reverse_hops(&adj, &seeds, 2).unwrap();
        assert_eq!(frontier.edge_work(), 0, "leaf rows are empty");
        // Edge-only model: 0 < 0.5 × L|E| → would have gone partial.
        assert!((frontier.edge_work() as f64) < 0.5 * (2 * adj.num_edges()) as f64);
        // Corrected model: the dense linear dominates and shrinks by only
        // 1/n, so the plan must stay full.
        let plan = ForwardPlan::choose(&adj, &seeds, &costs, &cfg).unwrap();
        assert!(!plan.is_partial(), "linear row work must veto partial");
        let ratio = partial_cost(&frontier, &costs) / full_cost(100, adj.num_edges(), &costs);
        assert!(ratio > 0.9, "modelled saving should be marginal: {ratio}");
    }

    #[test]
    fn cost_model_weights_layers_by_their_own_dims() {
        let adj = graph();
        let frontier = Frontier::reverse_hops(&adj, &[0], 2).unwrap();
        let costs = vec![
            LayerCost::new(8, 12, Some(Activation::MaxK(4)), true),
            LayerCost::new(12, 3, None, true),
        ];
        // Hand-rolled expectations, layer by layer.
        let expected_partial = (frontier.level(2).len() + frontier.level(1).len()) as f64
            * (8 * 12) as f64
            + (frontier.edge_work_at(1) * 4) as f64
            + (frontier.level(1).len() + frontier.level(0).len()) as f64 * (12 * 3) as f64
            + (frontier.edge_work_at(0) * 3) as f64;
        assert_eq!(partial_cost(&frontier, &costs), expected_partial);
        let n = adj.num_nodes();
        let e = adj.num_edges();
        let expected_full = (2 * n * 8 * 12 + e * 4) as f64 + (2 * n * 12 * 3 + e * 3) as f64;
        assert_eq!(full_cost(n, e, &costs), expected_full);

        // With layer 0's product held by the caller neither plan pays its
        // dense rows: only its aggregation is left on both sides.
        let hoisted = [costs[0].hoisted(), costs[1]];
        let hoisted_partial = (frontier.edge_work_at(1) * 4) as f64
            + (frontier.level(1).len() + frontier.level(0).len()) as f64 * (12 * 3) as f64
            + (frontier.edge_work_at(0) * 3) as f64;
        assert_eq!(partial_cost(&frontier, &hoisted), hoisted_partial);
        assert_eq!(
            full_cost(n, e, &hoisted),
            (e * 4) as f64 + (2 * n * 12 * 3 + e * 3) as f64
        );
    }
}
