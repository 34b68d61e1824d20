//! Closed-loop load replay with Zipf-distributed seed popularity.
//!
//! Real serving traffic is heavily skewed — a small set of hot nodes
//! (popular products, large communities) absorbs most queries.
//! [`replay`] reproduces that with a Zipf(`s`) distribution over node
//! ids: node rank `r` (0-based) is drawn with probability ∝ `1/(r+1)^s`.
//!
//! [`replay`] is **closed-loop**: each client issues its next query only
//! after the previous one is answered, so offered load adapts to what
//! the server sustains. That measures *sustainable throughput* honestly,
//! but by construction it can never overload the server — the arrival
//! rate collapses to the service rate. Overload behaviour is pinned by
//! `tests/admission.rs`, which floods the queue directly.
//!
//! Every client's query sequence is a pure function of
//! `(seed, client index)` — per-client RNG streams are derived with a
//! SplitMix64 mix and never shared across threads ([`QueryStream`]) — so
//! a run's offered traffic is reproducible regardless of how the OS
//! interleaves client threads.

use crate::exec::{Executor, StdThreadExecutor};
use crate::metrics::{LatencyHistogram, LatencySummary};
use crate::server::{QueryOptions, QueryResponse, ServerHandle};
use crate::ServeError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Mutex;
use std::time::Instant;

/// Precomputed-CDF Zipf sampler over `0..n`.
///
/// # Example
///
/// ```
/// use maxk_serve::ZipfSampler;
/// use rand::SeedableRng;
///
/// let z = ZipfSampler::new(100, 1.1);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let id = z.sample(&mut rng);
/// assert!(id < 100);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for `n` items with exponent `s ≥ 0`
    /// (`s = 0` is uniform; larger `s` is more skewed).
    ///
    /// # Panics
    ///
    /// Panics when `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!(
            s.is_finite() && s >= 0.0,
            "Zipf exponent must be finite and >= 0"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        ZipfSampler { cdf }
    }

    /// Draws one item id in `0..n`.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false (the constructor rejects `n == 0`).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// SplitMix64 finalizer: decorrelates per-client RNG streams so that
/// `(seed, client)` and `(seed + 1, client - 1)` do not collide the way
/// plain `seed + client` derivation would.
fn mix_seed(base: u64, client: u64) -> u64 {
    let mut z = base ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client's deterministic query stream: the sequence of seed sets a
/// load-generator client issues, as a pure function of
/// `(base seed, client index)`.
///
/// [`replay`] drives one `QueryStream` per client thread, so the
/// *offered* traffic of a run is bit-identical across runs and thread
/// interleavings (what the server makes of it — batching, shedding —
/// still depends on timing).
///
/// # Example
///
/// ```
/// use maxk_serve::QueryStream;
///
/// let mut a = QueryStream::new(100, 1.1, 2, 42, 7);
/// let mut b = QueryStream::new(100, 1.1, 2, 42, 7);
/// assert_eq!(a.next_query(), b.next_query()); // same stream, same queries
/// ```
#[derive(Debug, Clone)]
pub struct QueryStream {
    zipf: ZipfSampler,
    rng: StdRng,
    seeds_per_query: usize,
}

impl QueryStream {
    /// Builds client `client`'s stream over `num_nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics when `num_nodes == 0`, `seeds_per_query == 0` or the Zipf
    /// exponent is invalid.
    pub fn new(
        num_nodes: usize,
        zipf_exponent: f64,
        seeds_per_query: usize,
        base_seed: u64,
        client: u64,
    ) -> Self {
        assert!(seeds_per_query > 0, "need at least one seed per query");
        QueryStream {
            zipf: ZipfSampler::new(num_nodes, zipf_exponent),
            rng: StdRng::seed_from_u64(mix_seed(base_seed, client)),
            seeds_per_query,
        }
    }

    /// The next query's seed set.
    pub fn next_query(&mut self) -> Vec<u32> {
        (0..self.seeds_per_query)
            .map(|_| self.zipf.sample(&mut self.rng) as u32)
            .collect()
    }
}

/// Closed-loop load-replay configuration.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Queries each client issues.
    pub queries_per_client: usize,
    /// Seeds per query (1 = single-node queries).
    pub seeds_per_query: usize,
    /// Zipf exponent of the node-popularity distribution.
    pub zipf_exponent: f64,
    /// Base RNG seed. Client `i`'s stream is derived via a SplitMix64
    /// mix of `(seed, i)` ([`QueryStream`]), so the replayed traffic is
    /// deterministic across runs and thread interleavings.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            queries_per_client: 250,
            seeds_per_query: 1,
            zipf_exponent: 1.1,
            seed: 0,
        }
    }
}

/// What a closed-loop load replay measured, client-side.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Total queries answered with logits.
    pub queries: u64,
    /// Queries the admission layer rejected at the door (only nonzero
    /// when the server runs a non-default admission config).
    pub rejected: u64,
    /// Admitted queries the admission layer shed before a forward.
    pub shed: u64,
    /// Wall-clock of the whole replay, seconds.
    pub wall_s: f64,
    /// Aggregate answered queries per second.
    pub throughput_qps: f64,
    /// Client-observed latency distribution of answered queries
    /// (includes batching wait).
    pub latency: LatencySummary,
}

/// Replays Zipf-distributed traffic against `handle` (closed-loop: each
/// client waits for its answer before issuing the next query) and
/// reports aggregate throughput plus the client-observed latency
/// distribution. Client `i` submits as [`QueryOptions::client`] `i`, so
/// per-client server stats line up with generator clients.
///
/// # Errors
///
/// Propagates the first [`ServeError`] any client hits (e.g. the server
/// shut down mid-replay).
///
/// # Panics
///
/// Panics when `clients`, `queries_per_client` or `seeds_per_query` is 0.
pub fn replay(handle: &ServerHandle, cfg: &LoadConfig) -> Result<LoadReport, ServeError> {
    assert!(cfg.clients > 0, "need at least one client");
    assert!(cfg.queries_per_client > 0, "need at least one query");
    assert!(cfg.seeds_per_query > 0, "need at least one seed per query");
    let hist = Mutex::new(LatencyHistogram::new());
    let rejected = Mutex::new(0u64);
    let shed = Mutex::new(0u64);
    let first_error: Mutex<Option<ServeError>> = Mutex::new(None);

    let t0 = Instant::now();
    StdThreadExecutor.scope(|s| {
        for client in 0..cfg.clients {
            let handle = handle.clone();
            let hist = &hist;
            let rejected = &rejected;
            let shed = &shed;
            let first_error = &first_error;
            s.spawn(move || {
                let mut stream = QueryStream::new(
                    handle.num_nodes(),
                    cfg.zipf_exponent,
                    cfg.seeds_per_query,
                    cfg.seed,
                    client as u64,
                );
                let opts = QueryOptions::new().for_client(client as u64);
                let mut local = LatencyHistogram::new();
                let mut local_rejected = 0u64;
                let mut local_shed = 0u64;
                for _ in 0..cfg.queries_per_client {
                    let seeds = stream.next_query();
                    let issued = Instant::now();
                    match handle.request(&seeds, opts).and_then(|p| p.wait()) {
                        Ok(QueryResponse::Answered(_)) => {
                            let us = issued.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                            local.record(us);
                        }
                        Ok(QueryResponse::Rejected(_)) => local_rejected += 1,
                        Ok(QueryResponse::Shed(_)) => local_shed += 1,
                        Err(e) => {
                            let mut slot = first_error.lock().expect("error slot poisoned");
                            slot.get_or_insert(e);
                            break;
                        }
                    }
                }
                hist.lock().expect("histogram poisoned").merge(&local);
                *rejected.lock().expect("counter poisoned") += local_rejected;
                *shed.lock().expect("counter poisoned") += local_shed;
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();

    if let Some(e) = first_error.into_inner().expect("error slot poisoned") {
        return Err(e);
    }
    let hist = hist.into_inner().expect("histogram poisoned");
    let queries = hist.count();
    Ok(LoadReport {
        queries,
        rejected: rejected.into_inner().expect("counter poisoned"),
        shed: shed.into_inner().expect("counter poisoned"),
        wall_s,
        throughput_qps: if wall_s > 0.0 {
            queries as f64 / wall_s
        } else {
            0.0
        },
        latency: LatencySummary::of(&hist),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::InferenceEngine;
    use crate::server::Server;
    use maxk_graph::generate;
    use maxk_nn::snapshot::ModelSnapshot;
    use maxk_nn::{Activation, Arch, GnnModel, ModelConfig};
    use maxk_tensor::Matrix;
    use rand::rngs::StdRng;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = ZipfSampler::new(1000, 1.2);
        let mut rng = StdRng::seed_from_u64(1);
        let mut head = 0u32;
        let draws = 20_000;
        for _ in 0..draws {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // Top-1% of ranks should take far more than 1% of traffic.
        assert!(head > draws / 10, "only {head}/{draws} draws hit the head");
        assert_eq!(z.len(), 1000);
        assert!(!z.is_empty());
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let z = ZipfSampler::new(10, 0.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for &c in &counts {
            assert!((600..1400).contains(&c), "uniform draw count {c}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zipf_rejects_empty_domain() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    fn query_streams_are_deterministic_and_per_client() {
        // Same (seed, client) -> identical sequence; this is what makes
        // replay() traffic reproducible across thread interleavings
        // (each thread owns exactly one stream).
        let take = |client: u64, seed: u64| -> Vec<Vec<u32>> {
            let mut s = QueryStream::new(500, 1.1, 3, seed, client);
            (0..50).map(|_| s.next_query()).collect()
        };
        assert_eq!(take(0, 42), take(0, 42));
        assert_eq!(take(3, 42), take(3, 42));
        // Different clients (or base seeds) get different streams.
        assert_ne!(take(0, 42), take(1, 42));
        assert_ne!(take(0, 42), take(0, 43));
        // The SplitMix64 derivation decorrelates (seed+1, client-1)
        // from (seed, client) — plain additive derivation would not.
        assert_ne!(take(1, 42), take(0, 43));
    }

    fn test_server(window_ms: u64, max_batch: usize) -> Server {
        let graph = generate::chung_lu_power_law(50, 4.0, 2.3, 9)
            .to_csr()
            .unwrap();
        let mut cfg = ModelConfig::new(Arch::Gcn, Activation::MaxK(2), 4, 2);
        cfg.hidden_dim = 8;
        cfg.dropout = 0.0;
        let mut rng = StdRng::seed_from_u64(6);
        let model = GnnModel::new(cfg, &graph, &mut rng);
        let x = Matrix::xavier(50, 4, &mut rng);
        let snap = ModelSnapshot::capture(&model);
        let engine = Arc::new(InferenceEngine::from_snapshot(&snap, &graph, x).unwrap());
        Server::builder()
            .batch_window(Duration::from_millis(window_ms))
            .max_batch(max_batch)
            .workers(1)
            .start(engine)
    }

    #[test]
    fn replay_reports_all_queries() {
        let server = test_server(1, 16);
        let report = replay(
            &server.handle(),
            &LoadConfig {
                clients: 4,
                queries_per_client: 25,
                seeds_per_query: 2,
                zipf_exponent: 1.0,
                seed: 3,
            },
        )
        .unwrap();
        assert_eq!(report.queries, 100);
        assert_eq!(report.rejected + report.shed, 0);
        assert!(report.throughput_qps > 0.0);
        assert!(report.latency.p99_us.is_finite());
        assert_eq!(report.latency.count, 100);
        let stats = server.shutdown();
        assert_eq!(stats.queries, 100);
        assert_eq!(stats.submitted, 100);
    }

    #[test]
    fn replay_surfaces_server_shutdown() {
        let server = test_server(2, 64);
        let handle = server.handle();
        let _ = server.shutdown();
        let result = replay(&handle, &LoadConfig::default());
        assert!(matches!(result, Err(ServeError::ChannelClosed)));
    }
}
