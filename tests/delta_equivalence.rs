//! Dynamic-graph equivalence sweep: incremental delta-CSR ingest must be a
//! pure representation choice, and an ingest must leave the pinned feature
//! cache exact.
//!
//! Three contracts are pinned here:
//!
//! * **Delta ≡ rebuild.**  Folding scheduled edge batches into the adjacency
//!   lazily ([`IngestMode::Delta`]) or by eager rebuild
//!   ([`IngestMode::Rebuild`]) is observationally invisible: per-epoch loss
//!   bits and every communication counter are bit-identical across
//!   p ∈ {1, 2, 4} × every c dividing p × both feature-cache modes × both
//!   transports (in-process simulator and real Unix-socket processes).
//! * **Ingest is not a no-op.**  The same schedule really changes what the
//!   post-ingest epochs sample — the loss trajectory diverges from the
//!   static-graph run after the first batch lands (and never before), so the
//!   equivalence above is non-vacuous.
//! * **Pinned rows survive an ingest.**  An edge batch edits only the
//!   adjacency, never a feature row, so the rows pinned before it are still
//!   exactly what a fetch would return: training stays bit-identical to the
//!   uncached run, the cache books still balance, and no row is fetched
//!   twice by one rank.

mod common;

use common::GRID_SHAPES;
use dmbs::comm::{run_if_worker, TransportSelect};
use dmbs::gnn::{
    ensure_plan_fresh, FeatureCacheConfig, GnnError, ServeError, ServeRequest, ServingConfig,
    ServingSession, TrainingReport, TrainingSession,
};
use dmbs::graph::datasets::Dataset;
use dmbs::graph::IngestMode;
use dmbs::matrix::DeltaBatch;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, FetchPlan, GraphSageSampler, LocalBackend, ReplicatedBackend,
};
use std::sync::Arc;

/// Rank-process entry point for the Unix-socket legs of the sweep (the
/// `run_if_worker` re-exec pattern; see `tests/transport_equivalence.rs`).
#[test]
fn socket_worker_shim() {
    run_if_worker(&dmbs::gnn::worker::registry());
}

fn tiny_dataset() -> Arc<Dataset> {
    common::arc_products_dataset(6, 8, 3, 0.5, Some(0.6), 11)
}

/// Two edge batches derived deterministically from the dataset itself:
/// the first (after epoch 0) deletes real edges and fans new ones out of the
/// low-index vertices, the second (after epoch 1) retracts some of those
/// inserts and grows the upper half.  Touching many rows keeps the
/// trajectory divergence non-vacuous.
fn schedule(dataset: &Dataset) -> [(usize, DeltaBatch); 2] {
    let a = dataset.graph.adjacency();
    let n = dataset.graph.num_vertices();
    let existing: Vec<(usize, usize)> = a.iter().map(|(r, c, _)| (r, c)).take(6).collect();
    assert!(existing.len() == 6, "dataset too sparse for the schedule");
    let mut missing = Vec::new();
    'scan: for r in 0..n {
        for c in 0..n {
            if r != c && a.get(r, c) == 0.0 {
                missing.push((r, c));
                if missing.len() == 24 {
                    break 'scan;
                }
            }
        }
    }
    let mut first = DeltaBatch::new();
    for &(r, c) in &existing[..4] {
        first.delete(r, c);
    }
    for &(r, c) in &missing[..16] {
        first.insert(r, c, 1.0);
    }
    let mut second = DeltaBatch::new();
    for &(r, c) in &existing[4..] {
        second.delete(r, c);
    }
    for &(r, c) in &missing[..2] {
        second.delete(r, c); // retract two first-batch inserts: LWW overlay
    }
    for &(r, c) in &missing[16..] {
        second.insert(r, c, 1.5);
    }
    [(0, first), (1, second)]
}

fn train(
    dataset: &Arc<Dataset>,
    p: usize,
    c: usize,
    cache: FeatureCacheConfig,
    mode: IngestMode,
    events: &[(usize, DeltaBatch)],
    transport: TransportSelect,
) -> TrainingReport {
    let dist = DistConfig::new(p, c, BulkSamplerConfig::new(8, 2));
    let mut builder = TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
        .backend(ReplicatedBackend::new(dist).expect("backend"))
        .hidden_dim(8)
        .learning_rate(0.1)
        .epochs(3)
        .seed(33)
        .feature_cache(cache)
        .ingest_mode(mode)
        .transport(transport)
        .without_evaluation();
    for (after_epoch, batch) in events {
        builder = builder.ingest(*after_epoch, batch.clone());
    }
    builder.build().expect("session").train().expect("training")
}

/// Every deterministic per-epoch counter.
fn assert_reports_identical(a: &TrainingReport, b: &TrainingReport, label: &str) {
    assert_eq!(a.epochs.len(), b.epochs.len(), "{label}: epoch count diverged");
    for (x, y) in a.epochs.iter().zip(&b.epochs) {
        assert_eq!(
            x.mean_loss.to_bits(),
            y.mean_loss.to_bits(),
            "{label} epoch {}: losses not bit-identical ({} vs {})",
            x.epoch,
            x.mean_loss,
            y.mean_loss
        );
        assert_eq!(x.comm.words_sent, y.comm.words_sent, "{label}: words diverged");
        assert_eq!(x.comm.messages, y.comm.messages, "{label}: messages diverged");
        assert_eq!(x.comm.cache_hits, y.comm.cache_hits, "{label}: hits diverged");
        assert_eq!(x.comm.cache_misses, y.comm.cache_misses, "{label}: misses diverged");
        assert_eq!(x.comm.words_saved, y.comm.words_saved, "{label}: saved diverged");
    }
}

/// The tentpole sweep: for every grid shape, cache mode and transport, a
/// session that folds the schedule through the lazy delta overlay is
/// bit-identical — losses and comm counters — to one that
/// eagerly rebuilds the CSR after every batch; and the socket transport
/// reproduces the simulator's delta run bit for bit, so the dynamic path
/// survives the v3 job codec and the process boundary unchanged.
#[test]
fn delta_ingest_is_byte_identical_to_rebuild_across_the_sweep() {
    let dataset = tiny_dataset();
    let events = schedule(&dataset);
    for &(p, c) in &GRID_SHAPES {
        for cache in common::cache_modes() {
            let label = format!("p={p} c={c} cache={cache:?}");
            let run = |mode: IngestMode, transport: TransportSelect| {
                train(&dataset, p, c, cache, mode, &events, transport)
            };
            let sim_delta = run(IngestMode::Delta, TransportSelect::Simulator);
            let sim_rebuild = run(IngestMode::Rebuild, TransportSelect::Simulator);
            assert_reports_identical(&sim_delta, &sim_rebuild, &format!("{label} [simulator]"));
            let sock_delta =
                run(IngestMode::Delta, TransportSelect::UnixSocket(common::socket_launch()));
            let sock_rebuild =
                run(IngestMode::Rebuild, TransportSelect::UnixSocket(common::socket_launch()));
            assert_reports_identical(&sock_delta, &sock_rebuild, &format!("{label} [socket]"));
            assert_reports_identical(&sim_delta, &sock_delta, &format!("{label} [cross]"));
        }
    }
}

/// The divergence guard that keeps the sweep honest: the schedule really
/// changes what post-ingest epochs sample.  Epoch 0 (trained before the
/// first batch lands) is bit-identical to the static-graph run; at least one
/// later epoch is not.
#[test]
fn ingest_changes_the_trajectory_and_only_after_it_lands() {
    let dataset = tiny_dataset();
    let events = schedule(&dataset);
    let run = |events: &[(usize, DeltaBatch)]| {
        train(
            &dataset,
            4,
            2,
            FeatureCacheConfig::Pinned,
            IngestMode::Delta,
            events,
            TransportSelect::Simulator,
        )
    };
    let dynamic = run(&events);
    let static_run = run(&[]);
    assert_eq!(
        dynamic.epochs[0].mean_loss.to_bits(),
        static_run.epochs[0].mean_loss.to_bits(),
        "epoch 0 trains before any batch lands and must match the static run"
    );
    assert!(
        dynamic.epochs[1..]
            .iter()
            .zip(&static_run.epochs[1..])
            .any(|(d, s)| d.mean_loss.to_bits() != s.mean_loss.to_bits()),
        "the ingest schedule changed nothing: the delta-equivalence sweep is vacuous"
    );
}

/// An ingest leaves the pinned rows resident and training bit-identical to
/// the uncached run: an edge batch changes no feature row, so the cache has
/// nothing to drop and books nothing for it.  The post-ingest epoch fetches
/// only rows it has not pinned yet (fewer misses than the cold epoch 0), the
/// whole run pins each row at most once per rank (misses ≤ p · n), and every
/// epoch's books still balance against the uncached run.
#[test]
fn pinned_cache_books_nothing_when_an_ingest_lands() {
    let dataset = tiny_dataset();
    let events = schedule(&dataset);
    let single = &events[..1];
    let (p, c) = (4, 2);
    let run = |cache: FeatureCacheConfig| {
        train(&dataset, p, c, cache, IngestMode::Delta, single, TransportSelect::Simulator)
    };
    let uncached = run(FeatureCacheConfig::Off);
    let pinned = run(FeatureCacheConfig::Pinned);
    for (e, u) in pinned.epochs.iter().zip(&uncached.epochs) {
        let label = format!("epoch {}", e.epoch);
        assert_eq!(e.mean_loss.to_bits(), u.mean_loss.to_bits(), "{label}: loss");
        assert_eq!(
            e.comm.words_sent + e.comm.words_saved,
            u.comm.words_sent,
            "{label}: sent + saved must equal the uncached bill"
        );
    }
    let misses: Vec<usize> = pinned.epochs.iter().map(|e| e.comm.cache_misses).collect();
    assert!(misses[1] < misses[0], "the ingest dropped pinned rows: misses {misses:?}");
    let n = dataset.graph.num_vertices();
    assert!(misses.iter().sum::<usize>() <= p * n, "a rank pinned a row twice: {misses:?}");
}

/// Flaky-guard for the dynamic path: two identically-seeded runs of the same
/// ingest schedule agree bit for bit on every loss and exactly on every
/// counter — including the cache books, which a scheduling race in the
/// post-epoch apply would smear across epochs.
#[test]
fn seeded_ingest_training_is_run_to_run_deterministic() {
    let dataset = tiny_dataset();
    let events = schedule(&dataset);
    let run = || {
        train(
            &dataset,
            4,
            2,
            FeatureCacheConfig::Pinned,
            IngestMode::Delta,
            &events,
            TransportSelect::Simulator,
        )
    };
    assert_reports_identical(&run(), &run(), "two identically-seeded ingest runs");
}

/// Negative path: a [`FetchPlan`] stamped before the latest ingest is
/// refused with the typed [`GnnError::StalePlan`] — never silently served.
/// The builder refuses an ingest schedule the training loop could not
/// honour: at least one epoch must follow every batch
/// (`after_epoch + 1 < epochs`), every edge must lie inside the graph, and
/// the backend must be distributed.
#[test]
fn ingest_schedule_is_validated_at_build() {
    let dataset = tiny_dataset();
    let n = dataset.graph.num_vertices();
    let edge = |row, col| {
        let mut batch = DeltaBatch::new();
        batch.insert(row, col, 1.0);
        batch
    };
    let build = |after_epoch: usize, batch: DeltaBatch| {
        let dist = DistConfig::new(2, 1, BulkSamplerConfig::new(8, 2));
        TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(ReplicatedBackend::new(dist).expect("backend"))
            .epochs(3)
            .ingest(after_epoch, batch)
            .build()
    };
    assert!(build(1, edge(0, 1)).is_ok(), "epoch 2 follows an ingest after epoch 1");
    assert!(matches!(build(2, edge(0, 1)), Err(GnnError::InvalidConfig(_))));
    assert!(matches!(build(0, edge(0, n)), Err(GnnError::InvalidConfig(_))));
    let local = TrainingSession::builder()
        .dataset(Arc::clone(&dataset))
        .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
        .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).expect("backend"))
        .epochs(3)
        .ingest(0, edge(0, 1))
        .build();
    assert!(matches!(local, Err(GnnError::InvalidConfig(_))));
}

#[test]
fn stale_fetch_plan_is_refused_with_a_typed_error() {
    let plan = FetchPlan::from_minibatches(&[]).with_version(1);
    assert_eq!(ensure_plan_fresh(&plan, 1), Ok(()));
    assert_eq!(
        ensure_plan_fresh(&plan, 3),
        Err(GnnError::StalePlan { plan_version: 1, graph_version: 3 })
    );
}

/// Negative path at the serving tier: after an ingest touches vertices the
/// hot tier pinned, serving them fails with the typed stale-plan error until
/// an explicit [`ServingSession::rewarm`] — and the rewarmed answers are
/// bit-identical to the pre-ingest ones (edge batches never change feature
/// rows, so staleness here is purely about derived pinned state).
#[test]
fn serving_hot_tier_goes_stale_on_ingest_and_rewarm_discharges_it() {
    let dataset = common::arc_products_dataset(6, 8, 4, 0.5, None, 3);
    let n = dataset.num_vertices();
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
    let config = ServingConfig {
        hot_capacity: 16,
        hot_warm_interval: 1,
        seed: 9,
        ..ServingConfig::default()
    };
    let mut serving = ServingSession::new(
        Arc::clone(&dataset),
        GraphSageSampler::new(vec![3, 3]).with_self_loops(),
        snapshot,
        config,
    )
    .unwrap();

    let requests: Vec<ServeRequest> =
        (0..6u64).map(|id| ServeRequest { id, vertex: (id as usize * 7) % n }).collect();
    let before = serving.serve(&requests).unwrap();
    for _ in 0..4 {
        serving.serve(&requests).unwrap();
    }
    assert!(serving.hot_resident() > 0, "hot tier never warmed");

    let dirty: Vec<usize> = (0..n).collect();
    let marked = serving.notify_ingest(&dirty);
    assert!(marked > 0, "ingest marked no pinned row; the negative path is vacuous");
    match serving.serve(&requests) {
        Err(ServeError::Gnn(GnnError::StalePlan { plan_version, graph_version })) => {
            assert!(plan_version < graph_version);
        }
        other => panic!("expected StalePlan on a stale pinned row, got {other:?}"),
    }

    serving.rewarm();
    let after = serving.serve(&requests).unwrap();
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.prediction, b.prediction);
        for (x, y) in a.logits.iter().zip(&b.logits) {
            assert_eq!(x.to_bits(), y.to_bits(), "rewarm changed an answer");
        }
    }
}
