//! The two training workloads: a benchmark-owned full-batch epoch loop
//! over `nn::GnnModel` (zero_grad, forward, loss, backward, step).

use crate::report::Outcome;
use crate::span::{self, Recorder};
use crate::{alloc, host, replay, stats};
use maxk_graph::datasets::{Labels, Scale, TrainingData, TrainingDataset};
use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_tensor::{loss, Adam, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const HIDDEN: usize = 128;
const K: usize = 16;
const LR: f32 = 0.01;
/// Untimed epochs before the timed region (caches, allocator, Adam state).
const WARMUP_EPOCHS: usize = 10;
/// Cold starts per run; `setup_s` is their lower quartile.
const SETUP_REPS: usize = 9;
/// Fastest epoch of the last third against the first third: beyond this
/// the stand-in's epoch time depends on the values it has learnt, and no
/// statistic of it is a measure of the code.
const MAX_DRIFT: f64 = 0.25;

/// What distinguishes `train_agg` from `train_dense`.
pub struct TrainSpec {
    /// Synthetic stand-in to generate.
    pub dataset: TrainingDataset,
    /// Its size profile.
    pub scale: Scale,
    /// Model architecture.
    pub arch: Arch,
}

fn model_config(data: &TrainingData, arch: Arch, activation: Activation) -> ModelConfig {
    // Defaults: 3 layers, dropout 0.5, Edge-Group width 32.
    let mut cfg = ModelConfig::new(arch, activation, data.in_dim, data.num_classes);
    cfg.hidden_dim = HIDDEN;
    cfg
}

struct Trainer<'a> {
    data: &'a TrainingData,
    x: &'a Matrix,
    model: GnnModel,
    opt: Adam,
    rng: StdRng,
}

impl<'a> Trainer<'a> {
    /// The product's constructors only: what a user pays before epoch 0.
    fn new(data: &'a TrainingData, x: &'a Matrix, cfg: ModelConfig, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = GnnModel::new(cfg, &data.csr, &mut rng);
        Trainer {
            data,
            x,
            model,
            opt: Adam::new(LR),
            rng,
        }
    }

    /// One full-batch epoch; returns the masked training loss.
    fn epoch(&mut self, rec: &mut Recorder) -> f64 {
        let epoch = rec.begin("epoch", "nn");
        let s = rec.begin("zero_grad", "nn");
        self.model.zero_grad();
        rec.end(s);
        let s = rec.begin("forward", "nn");
        let logits = self.model.forward(self.x, true, &mut self.rng);
        rec.end(s);
        let s = rec.begin("loss", "tensor");
        let (loss_value, dlogits) = match &self.data.labels {
            Labels::Single(labels) => {
                loss::softmax_cross_entropy(&logits, labels, &self.data.train_mask)
            }
            Labels::Multi(targets) => loss::sigmoid_bce(&logits, targets, &self.data.train_mask),
        };
        rec.end(s);
        let s = rec.begin("backward", "nn");
        self.model.backward(&dlogits);
        rec.end(s);
        let s = rec.begin("optim_step", "tensor");
        self.model.step(&mut self.opt);
        rec.end(s);
        rec.end(epoch);
        loss_value
    }
}

/// Epoch times (ms), completion times (seconds from the start of the
/// run of epochs), losses and heap high-water marks (MB), one per epoch.
struct Epochs {
    ms: Vec<f64>,
    done_s: Vec<f64>,
    losses: Vec<f64>,
    peak_mb: Vec<f64>,
}

/// Runs epochs until `budget` has passed (at least three).
fn timed_epochs(trainer: &mut Trainer<'_>, budget: Duration, rec: &mut Recorder) -> Epochs {
    let mut epochs = Epochs {
        ms: Vec::new(),
        done_s: Vec::new(),
        losses: Vec::new(),
        peak_mb: Vec::new(),
    };
    // Cold-start transients do not count, what they leave live does.
    alloc::reset_peak();
    let start = Instant::now();
    while start.elapsed() < budget || epochs.ms.len() < 3 {
        let t0 = Instant::now();
        epochs.losses.push(trainer.epoch(rec));
        epochs.ms.push(stats::ms(t0.elapsed()));
        epochs.done_s.push(start.elapsed().as_secs_f64());
        epochs.peak_mb.push(alloc::take_cycle_peak_mb());
    }
    epochs
}

/// Generates the workload's inputs from `seed` and runs it.
pub fn run(spec: &TrainSpec, seed: u64, seconds: f64, trace: Option<&str>) -> Outcome {
    let data = spec
        .dataset
        .generate(spec.scale, seed)
        .expect("generator output is a valid graph");
    let x = Matrix::from_vec(data.csr.num_nodes(), data.in_dim, data.features.clone())
        .expect("dataset features are rectangular");
    let mut out = Outcome::default();
    out.note(format!(
        "inputs: {} nodes={} nnz={} in_dim={} classes={} arch={} hidden={HIDDEN} k={K}",
        data.name,
        data.csr.num_nodes(),
        data.csr.num_edges(),
        data.in_dim,
        data.num_classes,
        spec.arch.name()
    ));
    match trace {
        None => untraced(spec, &data, &x, seed, seconds, &mut out),
        Some(name) => traced(spec, &data, &x, seed, seconds, name, &mut out),
    }
    out
}

fn untraced(
    spec: &TrainSpec,
    data: &TrainingData,
    x: &Matrix,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) {
    let cfg = model_config(data, spec.arch, Activation::MaxK(K));
    let mut off = Recorder::new(false);

    // Cold start to first result: constructors plus the first epoch, so
    // work moved between the two nets out.
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut trainer = Trainer::new(data, x, cfg.clone(), seed);
        std::hint::black_box(trainer.epoch(&mut off));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", stats::lower_quartile(&setup_s));

    let mut trainer = Trainer::new(data, x, cfg, seed);
    let mut losses: Vec<f64> = (0..WARMUP_EPOCHS)
        .map(|_| trainer.epoch(&mut off))
        .collect();
    let timed = timed_epochs(&mut trainer, Duration::from_secs_f64(seconds), &mut off);
    losses.extend(&timed.losses);

    let fast = stats::fast_quartiles(&timed.done_s, &timed.ms, 1);
    out.set("op_time_ms", fast.op_time_ms);
    out.set("ops_per_s", fast.ops_per_s);
    out.set("peak_heap_mb", stats::median(&timed.peak_mb));

    out.attempted += losses.len() as u64;
    out.failed += losses.iter().filter(|l| !l.is_finite()).count() as u64;
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    out.check(
        &format!("last-epoch loss below the first ({first:.4} -> {last:.4})"),
        last < first,
    );
    replay::kernel_checks(&shapes(spec, data, x, seed), out);

    let third = timed.ms.len() / 3;
    let (head, tail) = (&timed.ms[..third], &timed.ms[timed.ms.len() - third..]);
    let drift_best = stats::min(tail) / stats::min(head) - 1.0;
    let drift_p50 = stats::median(tail) / stats::median(head) - 1.0;
    out.check(
        &format!(
            "epoch time is stationary (fastest epoch, last third vs first: {:+.1}%)",
            drift_best * 100.0
        ),
        drift_best.abs() <= MAX_DRIFT,
    );
    let sorted = stats::sorted(&timed.ms);
    out.note(format!(
        "samples: timed_epochs={} warmup_epochs={WARMUP_EPOCHS} cold_starts={SETUP_REPS} \
         chunk={} epoch_ms best={:.3} p50={:.3} p90={:.3} epochs_per_s_overall={:.3} \
         median_drift={:+.1}% stationary: {}",
        timed.ms.len(),
        fast.chunk,
        sorted[0],
        stats::percentile(&sorted, 50.0),
        stats::percentile(&sorted, 90.0),
        timed.ms.len() as f64 / timed.done_s[timed.ms.len() - 1],
        drift_p50 * 100.0,
        drift_p50.abs() <= 0.10
    ));
}

fn shapes<'a>(
    spec: &TrainSpec,
    data: &'a TrainingData,
    x: &'a Matrix,
    seed: u64,
) -> replay::Shapes<'a> {
    replay::Shapes {
        graph: &data.csr,
        arch: spec.arch,
        features: x,
        hidden: HIDDEN,
        k: K,
        eg_width: model_config(data, spec.arch, Activation::MaxK(K)).eg_width,
        seed,
    }
}

/// The traced pass: the same epoch loop at half length under spans, the
/// ReLU twin of the model, and the kernel replay.
fn traced(
    spec: &TrainSpec,
    data: &TrainingData,
    x: &Matrix,
    seed: u64,
    seconds: f64,
    name: &str,
    out: &mut Outcome,
) {
    let mut off = Recorder::new(false);
    let mut rec = Recorder::new(true);
    let cfg = model_config(data, spec.arch, Activation::MaxK(K));
    let mut trainer = Trainer::new(data, x, cfg, seed);
    for _ in 0..WARMUP_EPOCHS {
        trainer.epoch(&mut off);
    }
    trainer.model.reset_timers();
    let (allocs0, bytes0) = alloc::totals();
    let timed = timed_epochs(
        &mut trainer,
        Duration::from_secs_f64(seconds / 2.0),
        &mut rec,
    );
    let (allocs1, bytes1) = alloc::totals();
    let epochs = timed.ms.len() as f64;
    out.attempted += timed.ms.len() as u64;
    out.failed += timed.losses.iter().filter(|l| !l.is_finite()).count() as u64;

    let spans = rec.spans();
    let p50 = |span_name: &str| stats::median(&span::durations_ms(spans, span_name));
    out.set("nn.forward_ms", p50("forward"));
    out.set("nn.backward_ms", p50("backward"));
    out.set("tensor.loss_ms", p50("loss"));
    out.set("tensor.optim_step_ms", p50("optim_step"));
    let sorted = stats::sorted(&span::durations_ms(spans, "epoch"));
    out.set("nn.epoch_p50_ms", stats::percentile(&sorted, 50.0));
    out.set("nn.epoch_p90_ms", stats::percentile(&sorted, 90.0));
    // What the epoch span spent outside its five child spans.
    let epoch = span::totals(spans)[&("nn", "epoch")];
    out.set(
        "nn.epoch_residual_pct",
        100.0 * epoch.self_ns as f64 / epoch.total_ns as f64,
    );
    let timers = *trainer.model.timers();
    let total = timers.total().as_secs_f64();
    out.set("nn.agg_share", timers.agg.as_secs_f64() / total);
    out.set("nn.linear_share", timers.linear.as_secs_f64() / total);
    out.set("nn.maxk_share", timers.maxk.as_secs_f64() / total);
    out.set("nn.other_share", timers.other.as_secs_f64() / total);
    out.set("nn.final_loss", timed.losses[timed.losses.len() - 1]);
    out.set("nn.allocs_per_epoch", (allocs1 - allocs0) as f64 / epochs);
    out.set(
        "nn.alloc_mb_per_epoch",
        (bytes1 - bytes0) as f64 / 1e6 / epochs,
    );

    // The paper's Fig. 9 ratio: the same model with ReLU, whose
    // aggregation share gives the Amdahl limit of the MaxK speed-up.
    let relu_cfg = model_config(data, spec.arch, Activation::Relu);
    let mut relu = Trainer::new(data, x, relu_cfg, seed);
    for _ in 0..WARMUP_EPOCHS / 2 {
        relu.epoch(&mut off);
    }
    relu.model.reset_timers();
    let relu_timed = timed_epochs(&mut relu, Duration::from_secs_f64(seconds / 4.0), &mut off);
    let relu_best = stats::min(&relu_timed.ms);
    out.set("nn.relu_epoch_best_ms", relu_best);
    // Base: the ReLU model's fastest epoch.
    out.set("nn.maxk_speedup_x", relu_best / stats::min(&timed.ms));
    out.set("nn.amdahl_limit_x", relu.model.timers().amdahl_limit());

    let shapes = shapes(spec, data, x, seed);
    let operands = replay::common(&shapes, out);
    replay::train(&shapes, &operands, out);

    out.note(format!(
        "samples: traced_epochs={} relu_epochs={}",
        timed.ms.len(),
        relu_timed.ms.len()
    ));
    host::write_trace(name, &span::chrome_trace(spans), out);
}
