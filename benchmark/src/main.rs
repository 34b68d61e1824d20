//! The repo benchmark: four single-purpose workloads over the product's
//! public API. See `README.md` beside this crate and `../BENCHMARK.json`.
//!
//! ```text
//! maxk-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Diagnostics (inputs, sample counts, output checks, host noise) go to
//! standard error.

#![warn(missing_docs)]

mod alloc;
mod host;
mod replay;
mod report;
mod serve;
mod span;
mod stats;
mod train;

use maxk_graph::datasets::{Scale, TrainingDataset};
use maxk_nn::Arch;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["train_agg", "train_dense", "serve_read", "serve_zipf_rw"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => parsed.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("maxk-benchmark: {e}");
            eprintln!(
                "usage: maxk-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]"
            );
            return ExitCode::from(2);
        }
    };
    let trace = args.trace.then_some(args.workload.as_str());
    let mut probe = host::spin_samples(5);
    let mut outcome = match args.workload.as_str() {
        // The paper's regime (average degree above 50): sparse
        // aggregation and top-k selection are most of the epoch.
        "train_agg" => train::run(
            &train::TrainSpec {
                dataset: TrainingDataset::OgbnProteins,
                scale: Scale::Bench,
                arch: Arch::Gcn,
            },
            args.seed,
            args.seconds,
            trace,
        ),
        // The mirror image: wide inputs on a sparse graph, so dense
        // matmuls are most of the epoch.
        "train_dense" => train::run(
            &train::TrainSpec {
                dataset: TrainingDataset::Yelp,
                scale: Scale::Test,
                arch: Arch::Sage,
            },
            args.seed,
            args.seconds,
            trace,
        ),
        // Every batch plans a full forward over wide inputs; cache,
        // mutation and partial planner do nothing.
        "serve_read" => serve::run(
            &serve::ServeSpec {
                nodes: 6000,
                avg_degree: 16.0,
                in_dim: 512,
                layers: 3,
                window: 16,
                warmup_queries: 500,
                zipf_rw: false,
            },
            args.seed,
            args.seconds,
            trace,
        ),
        // Writes beside skewed reads: cache, coalescing, partial
        // forwards, dirty-cone invalidation and graph splices all carry
        // load, and forwards are small.
        _ => serve::run(
            &serve::ServeSpec {
                nodes: 16000,
                avg_degree: 8.0,
                in_dim: 64,
                layers: 2,
                // At 16 the generator stalls on the oldest miss while the
                // worker idles (540 against 930 queries/s), and the rate of
                // identical 8-second runs ranged over 5.5% to 7.6%; at 64,
                // over 4.5% to 5.2%.
                window: 64,
                warmup_queries: 1000,
                zipf_rw: true,
            },
            args.seed,
            args.seconds,
            trace,
        ),
    };
    probe.extend(host::spin_samples(5));
    let noise = host::noise_ratio(&probe);
    outcome.set("host.noise_ratio", noise);
    outcome.note(format!(
        "host.noise_ratio={noise:.3} disturbed: {}",
        noise > host::DISTURBED_ABOVE
    ));
    eprintln!(
        "workload={} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for note in &outcome.notes {
        eprintln!("  {note}");
    }
    let table = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match report::result_line(&outcome, table, !args.trace) {
        Ok(line) => {
            println!("{line}");
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("maxk-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
