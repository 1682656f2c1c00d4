//! End-to-end tests for the low-latency serving tier.
//!
//! The coalescing contract is the serving twin of the training pipeline's
//! bulk contract: a micro-bulk of `k` requests must produce **bit-for-bit**
//! the same per-request predictions as the same `k` requests served alone,
//! for every batch size — coalescing and the hot-vertex tier are pure work
//! avoidance, never approximation.  On top of that ride the typed admission/timeout errors
//! and the open-loop replay determinism the CI serve gate pins.

mod common;

use dmbs::gnn::{
    ModelSnapshot, RequestTrace, ServeError, ServeRequest, ServingConfig, ServingSession,
    TrainingSession,
};
use dmbs::graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs::sampling::{BulkSamplerConfig, GraphSageSampler, LocalBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds a small dataset and trains a 2-layer snapshot on it once.
fn trained(seed: u64) -> (Arc<Dataset>, ModelSnapshot) {
    let dataset = common::arc_products_dataset(6, 8, 4, 0.5, None, seed); // 64 vertices
    let session = TrainingSession::builder()
        .dataset(Arc::clone(&dataset))
        .sampler(GraphSageSampler::new(vec![3, 3]).with_self_loops())
        .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
        .hidden_dim(8)
        .learning_rate(0.05)
        .epochs(1)
        .seed(13)
        .without_evaluation()
        .build()
        .unwrap();
    let (_, snapshot) = session.train_and_export().unwrap();
    (dataset, snapshot)
}

fn session(
    dataset: &Arc<Dataset>,
    snapshot: &ModelSnapshot,
    config: ServingConfig,
) -> ServingSession<GraphSageSampler> {
    ServingSession::new(
        Arc::clone(dataset),
        GraphSageSampler::new(vec![3, 3]).with_self_loops(),
        snapshot.clone(),
        config,
    )
    .unwrap()
}

/// The tentpole contract: a coalesced micro-bulk answers every request
/// bit-for-bit identically to serving the same requests one at a time,
/// across batch sizes.  Per-request sampling streams are keyed by (session
/// seed, request id), so a request's companions — and the hot-tier state it
/// happens to hit — can never leak into its prediction.
#[test]
fn micro_bulk_is_byte_identical_to_singletons() {
    let (dataset, snapshot) = trained(3);
    let n = dataset.num_vertices();
    for k in [1usize, 2, 4, 8] {
        let config =
            ServingConfig { max_micro_bulk: k.max(1), seed: 77, ..ServingConfig::default() };
        let requests: Vec<ServeRequest> =
            (0..k).map(|i| ServeRequest { id: i as u64, vertex: (i * 11 + 3) % n }).collect();

        let mut bulk = session(&dataset, &snapshot, config);
        let coalesced = bulk.serve(&requests).unwrap();

        let mut solo = session(&dataset, &snapshot, config);
        for (req, got) in requests.iter().zip(&coalesced) {
            let alone = solo.serve(std::slice::from_ref(req)).unwrap();
            assert_eq!(alone.len(), 1);
            let alone = &alone[0];
            assert_eq!(got.id, alone.id);
            assert_eq!(got.vertex, alone.vertex);
            assert_eq!(
                got.prediction, alone.prediction,
                "k = {k}: prediction diverged for request {}",
                req.id
            );
            assert_eq!(got.logits.len(), alone.logits.len());
            for (a, b) in got.logits.iter().zip(&alone.logits) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "k = {k}: logits diverged for request {}",
                    req.id
                );
            }
        }
        // The micro-bulk did the same work in fewer batches.
        assert_eq!(bulk.stats().requests_served, k);
        assert_eq!(bulk.stats().batches, 1);
        assert_eq!(solo.stats().batches, k);
    }
}

/// A warm hot tier is invisible in the answers: replaying
/// the same request ids against a session that has already served (and
/// re-pinned its hot tier) returns bit-identical logits.
#[test]
fn warm_state_never_changes_answers() {
    let (dataset, snapshot) = trained(5);
    let n = dataset.num_vertices();
    let config = ServingConfig {
        hot_capacity: 16,
        hot_warm_interval: 1, // re-warm after every batch
        seed: 9,
        ..ServingConfig::default()
    };
    let requests: Vec<ServeRequest> =
        (0..6u64).map(|id| ServeRequest { id, vertex: (id as usize * 7) % n }).collect();

    let mut cold = session(&dataset, &snapshot, config);
    let first = cold.serve(&requests).unwrap();
    // Several more batches to warm the tier…
    for _ in 0..4 {
        cold.serve(&requests).unwrap();
    }
    assert!(cold.hot_resident() > 0, "hot tier never warmed");
    let warm = cold.serve(&requests).unwrap();
    assert!(cold.stats().hot_hits > 0, "warm replay hit nothing");
    for (a, b) in first.iter().zip(&warm) {
        assert_eq!(a.prediction, b.prediction);
        for (x, y) in a.logits.iter().zip(&b.logits) {
            assert_eq!(x.to_bits(), y.to_bits(), "warm state changed an answer");
        }
    }
}

/// Every rejection is a typed [`ServeError`], mirrored on `GnnError`'s
/// negative paths: admission control, timeout budget, vertex range and
/// model/graph shape checks each fail with their own variant.
#[test]
fn rejections_are_typed() {
    let (dataset, snapshot) = trained(7);
    let n = dataset.num_vertices();
    let config =
        ServingConfig { queue_depth: 2, timeout_budget: 1.0e-3, ..ServingConfig::default() };
    let mut s = session(&dataset, &snapshot, config);

    match s.check_admission(2) {
        Err(ServeError::AdmissionRejected { queue_depth, limit }) => {
            assert_eq!((queue_depth, limit), (2, 2));
        }
        other => panic!("expected AdmissionRejected, got {other:?}"),
    }
    assert!(s.check_admission(1).is_ok());

    match s.check_timeout(5.0e-3) {
        Err(ServeError::TimeoutExceeded { waited, budget }) => {
            assert!(waited > budget);
        }
        other => panic!("expected TimeoutExceeded, got {other:?}"),
    }
    assert!(s.check_timeout(0.5e-3).is_ok());

    match s.serve_one(n + 3) {
        Err(ServeError::VertexOutOfRange { vertex, limit }) => {
            assert_eq!((vertex, limit), (n + 3, n));
        }
        other => panic!("expected VertexOutOfRange, got {other:?}"),
    }

    // A snapshot trained on a different graph shape is refused up front.
    let (other_dataset, _) = trained(8);
    let mut cfg = DatasetConfig::products_like(5); // 32 vertices ≠ 64
    cfg.feature_dim = 8;
    cfg.num_classes = 4;
    let small = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(1)).unwrap());
    let (_, small_snapshot) = {
        let session = TrainingSession::builder()
            .dataset(Arc::clone(&small))
            .sampler(GraphSageSampler::new(vec![3, 3]).with_self_loops())
            .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
            .hidden_dim(8)
            .learning_rate(0.05)
            .epochs(1)
            .seed(13)
            .without_evaluation()
            .build()
            .unwrap();
        session.train_and_export().unwrap()
    };
    match ServingSession::new(
        Arc::clone(&other_dataset),
        GraphSageSampler::new(vec![3, 3]).with_self_loops(),
        small_snapshot,
        ServingConfig::default(),
    ) {
        Err(ServeError::ShapeMismatch { what, .. }) => assert_eq!(what, "num_vertices"),
        other => panic!("expected ShapeMismatch, got {:?}", other.err()),
    }
}

/// The determinism guard behind the CI serve gate: two fresh same-seed
/// sessions replaying the same open-loop trace agree on every counter, the
/// modeled communication books, and every virtual-time latency sample.
#[test]
fn trace_replay_is_deterministic() {
    let (dataset, snapshot) = trained(11);
    let n = dataset.num_vertices();
    let config = ServingConfig {
        coalesce_window: 1.0e-3,
        hot_capacity: 16,
        seed: 21,
        ..ServingConfig::default()
    };
    let trace = RequestTrace::open_loop(200, 3000.0, 1.1, n, 17);

    let run = || {
        let mut s = session(&dataset, &snapshot, config);
        s.run_trace(&trace).unwrap()
    };
    let (a, b) = (run(), run());

    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stats.requests_offered, 200);
    assert!(a.stats.coalescing_factor() > 1.0, "window 1ms at 3k QPS must coalesce");
    assert_eq!(a.comm.words_sent, b.comm.words_sent);
    assert_eq!(a.comm.messages, b.comm.messages);
    assert_eq!(a.comm.cache_hits, b.comm.cache_hits);
    assert_eq!(a.comm.amortized_requests, b.comm.amortized_requests);
    assert_eq!(a.latencies.len(), b.latencies.len());
    for (x, y) in a.latencies.iter().zip(&b.latencies) {
        assert_eq!(x.to_bits(), y.to_bits(), "virtual-time latency diverged between replays");
    }
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    // The amortized α–β books actually amortized: at most one message per
    // micro-bulk (a batch whose frontier is fully hot-resident sends none),
    // far fewer than one α per request.
    assert!(a.comm.messages <= a.stats.batches);
    assert!(a.stats.batches < a.stats.requests_served);
    assert!(a.comm.amortized_requests > 0);
    assert!(a.comm.amortized_requests <= a.stats.requests_served);
}
