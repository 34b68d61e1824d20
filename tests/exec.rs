//! Executor + adaptive admission acceptance suite (ISSUE 9).
//!
//! Property tests for the [`AdaptiveController`] feedback loop (the
//! derived deadline must land within 2x of the true batch service
//! budget under steady load with bounded jitter), for weighted
//! class shaping (service shares must track configured weights under
//! sustained 2x overload without starving the light class), and for
//! the per-class accounting identity under randomized submit/pop
//! interleavings across every non-blocking overload policy. Plus the
//! executor-level shutdown contract: a [`Server`] dropped mid-load
//! must join every worker through its [`ShutdownBarrier`] without
//! deadlock and without losing a single reply.

use maxk_gnn::graph::generate;
use maxk_gnn::nn::snapshot::ModelSnapshot;
use maxk_gnn::nn::{Activation, Arch, GnnModel, ModelConfig};
use maxk_gnn::serve::admission::{AdmissionQueue, AdmissionSnapshot, DEADLINE_MULTIPLIER};
use maxk_gnn::serve::{
    AdaptiveConfig, AdaptiveController, AdmissionConfig, ClassWeights, Executor, InferenceEngine,
    OverloadPolicy, QueryOptions, Server, ShutdownBarrier, StdThreadExecutor,
};
use maxk_gnn::tensor::Matrix;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small served model: power-law graph, SAGE + MaxK, eval-mode engine.
fn engine() -> Arc<InferenceEngine> {
    let graph = generate::chung_lu_power_law(64, 6.0, 2.3, 13)
        .to_csr()
        .unwrap();
    let mut cfg = ModelConfig::new(Arch::Sage, Activation::MaxK(4), 12, 5);
    cfg.hidden_dim = 16;
    cfg.dropout = 0.0;
    let mut rng = StdRng::seed_from_u64(29);
    let model = GnnModel::new(cfg, &graph, &mut rng);
    let x = Matrix::xavier(64, 12, &mut rng);
    Arc::new(InferenceEngine::from_snapshot(&ModelSnapshot::capture(&model), &graph, x).unwrap())
}

fn per_class_identity(snap: &AdmissionSnapshot) {
    for c in &snap.classes {
        assert_eq!(
            c.submitted,
            c.popped + c.rejected + c.shed + c.queued,
            "class {} books must balance",
            c.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under steady load with bounded jitter, the controller's EWMA
    /// settles on the true service time and the derived deadline lands
    /// within 2x of `multiplier x true service time` — the ISSUE 9
    /// convergence criterion, with no hand-set budget anywhere.
    #[test]
    fn adaptive_deadline_converges_within_2x_of_service_time(
        (base_us, jitter_pct, batches) in (200u64..5000, 0u64..26, 40u64..120)
    ) {
        let cfg = AdaptiveConfig::default();
        let ctrl = AdaptiveController::new(cfg, 32, 2);
        prop_assert!(ctrl.service_ewma().is_none());
        prop_assert!(ctrl.derived_deadline().is_none());
        let delta = base_us * jitter_pct / 100;
        for i in 0..batches {
            let us = if i % 2 == 0 { base_us + delta } else { base_us - delta };
            ctrl.observe_batch(Duration::from_micros(us), 0);
        }
        let ewma = ctrl.service_ewma().expect("observed").as_micros() as u64;
        // The EWMA of an alternating +/- jitter stream stays inside the
        // jitter band around the true mean (plus integer slack).
        prop_assert!(
            ewma + 2 >= base_us - delta && ewma <= base_us + delta + 2,
            "EWMA {ewma}us escaped the [{}..{}]us jitter band",
            base_us - delta,
            base_us + delta
        );
        // Convergence criterion: derived deadline within 2x of the
        // budget implied by the true service time.
        let derived = ctrl.derived_deadline().expect("derived").as_micros() as f64;
        let want = DEADLINE_MULTIPLIER * base_us as f64;
        prop_assert!(
            derived >= want / 2.0 && derived <= want * 2.0,
            "derived deadline {derived}us not within 2x of {want}us"
        );
        let snap = ctrl.snapshot();
        prop_assert_eq!(snap.samples, batches);
        let cap = ctrl.derived_capacity().expect("derived capacity");
        prop_assert!(cap >= cfg.min_capacity && cap <= cfg.max_capacity);
    }

    /// Sustained 2x overload against a weighted pair of classes: every
    /// round offers one query per class against a single pop of
    /// service. Served (popped) shares must track the configured
    /// weights within tolerance, the light class must not starve, and
    /// the per-class books must balance.
    #[test]
    fn weighted_classes_share_service_proportionally_under_overload(
        heavy_weight in 2u32..5
    ) {
        let w = f64::from(heavy_weight);
        let q = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            policy: OverloadPolicy::DropOldest,
            classes: Some(
                ClassWeights::new()
                    .with_class("paid", w)
                    .with_class("batch", 1.0)
                    .with_burst(1.0),
            ),
            ..AdmissionConfig::default()
        });
        for i in 0..2u32 {
            let _ = q.submit_classed(0, 0, None, i);
            let _ = q.submit_classed(0, 1, None, i);
        }
        let rounds = 400u32;
        for i in 0..rounds {
            let _ = q.submit_classed(0, 0, None, i);
            let _ = q.submit_classed(0, 1, None, i);
            let _ = q.pop(Some(Instant::now()));
        }
        let snap = q.snapshot();
        per_class_identity(&snap);
        let paid = snap.classes[0].popped as f64;
        let batch = snap.classes[1].popped as f64;
        let share = paid / (paid + batch);
        let want = w / (w + 1.0);
        prop_assert!(
            (share - want).abs() < 0.12,
            "paid share {share} should approximate its weight share {want} \
             (paid {paid}, batch {batch})"
        );
        prop_assert!(snap.classes[1].popped > 0, "light class must not starve");
    }

    /// Randomized submit/pop interleavings over a classed queue, under
    /// every non-blocking overload policy: the exact-accounting
    /// identity `submitted == popped + rejected + shed + queued` must
    /// hold per class, globally, and the classed books must sum to the
    /// global books.
    #[test]
    fn per_class_books_balance_under_random_interleavings(
        (policy_sel, ops) in (0u8..3, proptest::collection::vec((0u8..6, 0u8..2), 1..200))
    ) {
        let policy = match policy_sel {
            0 => OverloadPolicy::RejectNewest,
            1 => OverloadPolicy::DropOldest,
            _ => OverloadPolicy::DeadlineShed,
        };
        let q = AdmissionQueue::new(AdmissionConfig {
            capacity: 4,
            policy,
            classes: Some(
                ClassWeights::new()
                    .with_class("paid", 3.0)
                    .with_class("batch", 1.0),
            ),
            ..AdmissionConfig::default()
        });
        for (i, &(sel, class)) in ops.iter().enumerate() {
            if sel < 4 {
                let _ = q.submit_classed(u64::from(class), u32::from(class), None, i as u32);
            } else {
                let _ = q.pop(Some(Instant::now()));
            }
        }
        let snap = q.snapshot();
        per_class_identity(&snap);
        prop_assert_eq!(
            snap.submitted,
            snap.popped + snap.rejected + snap.shed + snap.queue_depth
        );
        let by_class = |f: fn(&maxk_gnn::serve::ClassStats) -> u64| -> u64 {
            snap.classes.iter().map(f).sum()
        };
        prop_assert_eq!(by_class(|c| c.submitted), snap.submitted);
        prop_assert_eq!(by_class(|c| c.popped), snap.popped);
        prop_assert_eq!(by_class(|c| c.rejected), snap.rejected);
        prop_assert_eq!(by_class(|c| c.shed), snap.shed);
        prop_assert_eq!(by_class(|c| c.queued), snap.queue_depth);
    }
}

/// ISSUE 9 satellite: a `Server` dropped mid-load must close its
/// admission queue and join the batcher and every worker through the
/// [`ShutdownBarrier`] — no deadlock, and every already-submitted
/// query still receives its reply (answered or shed, never a dead
/// channel).
#[test]
fn dropped_server_mid_load_joins_workers_and_loses_no_answers() {
    let engine = engine();
    let expected = engine.forward_all();
    let server = Server::builder()
        .batch_window(Duration::from_millis(2))
        .max_batch(8)
        .workers(2)
        .start(Arc::clone(&engine));
    let handle = server.handle();
    let mut pending = Vec::new();
    for i in 0..48u32 {
        pending.push(
            handle
                .request(&[i % 64], QueryOptions::new().for_client(u64::from(i % 7)))
                .expect("submit"),
        );
    }
    // Drop mid-load: the barrier must join batcher-then-workers while
    // queries are still in flight.
    drop(server);
    let mut answered = 0u32;
    for (i, p) in pending.into_iter().enumerate() {
        let response = p.wait().expect("reply channel must outlive the server");
        if let Some(answer) = response.answer() {
            let seed = (i as u32) % 64;
            assert_eq!(
                answer.logits.row(0),
                expected.row(seed as usize),
                "late-drained answer for seed {seed} must stay bitwise-exact"
            );
            answered += 1;
        }
    }
    assert!(answered > 0, "drained queries must still be served");
}

/// The executor seam itself, exercised through the public facade: a
/// bounded channel built by the executor feeds named workers, and an
/// idempotent [`ShutdownBarrier`] joins them in stage order.
#[test]
fn executor_barrier_joins_named_workers_in_stage_order() {
    let executor = StdThreadExecutor;
    let (tx, rx) = executor.bounded::<u64>(2);
    let producer = executor.spawn_worker("test-producer", move || {
        for v in 0..32u64 {
            tx.send(v).expect("consumer alive");
        }
    });
    assert_eq!(producer.name(), "test-producer");
    let consumer = executor.spawn_worker("test-consumer", move || {
        let mut sum = 0u64;
        while let Ok(v) = rx.recv() {
            sum += v;
        }
        sum
    });
    let mut barrier = ShutdownBarrier::new();
    barrier.add_stage("producer", vec![producer]);
    barrier.join_all();
    barrier.join_all(); // idempotent
    assert_eq!(consumer.join().expect("consumer"), (0..32).sum::<u64>());

    // Scoped spawn borrows the stack without 'static bounds.
    let data = [1u64, 2, 3, 4];
    let total = executor.scope(|s| {
        let tasks: Vec<_> = data.iter().map(|v| s.spawn(move || *v * 2)).collect();
        tasks
            .into_iter()
            .map(|t| t.join().expect("task"))
            .sum::<u64>()
    });
    assert_eq!(total, 20);
}
