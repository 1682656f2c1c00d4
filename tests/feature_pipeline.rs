//! Negative-path and flaky-guard tests for the communication-avoiding
//! feature pipeline (§6.2).
//!
//! * The feature store and cache must fail with **typed** error variants —
//!   never panics — for mismatched fetch-group sizes, oversized vertex ids
//!   and uncovered pinned lookups, and the runtime must reject a zero-rank
//!   configuration the same way.
//! * The rank simulator must be deterministic: two `train()` runs of the
//!   same distributed session produce bit-identical losses *and* identical
//!   communication word counts, with and without the cache — the regression
//!   guard that keeps scheduling races from hiding behind averages.

mod common;

use dmbs::comm::{CommError, Group, Runtime};
use dmbs::gnn::{FeatureCache, FeatureStore, GnnError, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::matrix::DenseMatrix;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, ReplicatedBackend, SamplingError,
};

fn features(n: usize, f: usize) -> DenseMatrix {
    DenseMatrix::from_rows(
        &(0..n).map(|v| (0..f).map(|j| (v + j) as f64).collect()).collect::<Vec<_>>(),
    )
    .unwrap()
}

#[test]
fn fetch_with_mismatched_group_size_is_typed() {
    let h = features(8, 2);
    let runtime = Runtime::new(2).unwrap();
    let outs = runtime
        .run(|comm| {
            // Two feature blocks, but a singleton fetch group.
            let store = FeatureStore::from_full(&h, 2, comm.rank()).unwrap();
            let wrong = Group::new(&[comm.rank()]).unwrap();
            store.fetch(comm, &wrong, &[0]).unwrap_err()
        })
        .unwrap();
    for o in outs {
        assert_eq!(o.value, GnnError::FetchGroupMismatch { blocks: 2, group: 1 });
    }
}

#[test]
fn fetch_with_oversized_vertex_id_is_typed() {
    let h = features(8, 2);
    let runtime = Runtime::new(2).unwrap();
    let outs = runtime
        .run(|comm| {
            let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
            let world = comm.world();
            // The validation fires before any collective is issued, so a
            // single rank erroring cannot deadlock its peers.
            store.fetch(comm, &world, &[3, 99]).unwrap_err()
        })
        .unwrap();
    for o in outs {
        assert_eq!(o.value, GnnError::VertexOutOfRange { vertex: 99, limit: 8 });
    }
}

#[test]
fn cache_prefetch_propagates_typed_fetch_errors() {
    let h = features(8, 2);
    let runtime = Runtime::new(2).unwrap();
    let outs = runtime
        .run(|comm| {
            let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
            let world = comm.world();
            let mut cache = FeatureCache::new(2);
            let oversized = cache.prefetch(&store, comm, &world, &[1, 42]).unwrap_err();
            let wrong = Group::new(&[comm.rank()]).unwrap();
            let mismatched = cache.prefetch(&store, comm, &wrong, &[1]).unwrap_err();
            (oversized, mismatched)
        })
        .unwrap();
    for o in outs {
        assert_eq!(o.value.0, GnnError::VertexOutOfRange { vertex: 42, limit: 8 });
        assert_eq!(o.value.1, GnnError::FetchGroupMismatch { blocks: 2, group: 1 });
    }
}

#[test]
fn pinned_cache_miss_is_typed_not_a_panic() {
    let h = features(8, 2);
    let runtime = Runtime::new(1).unwrap();
    let outs = runtime
        .run(|comm| {
            let store = FeatureStore::from_full(&h, 1, 0).unwrap();
            let world = comm.world();
            let mut cache = FeatureCache::new(2);
            cache.prefetch(&store, comm, &world, &[0, 1]).unwrap();
            cache.gather_pinned(&store, &[0, 7]).unwrap_err()
        })
        .unwrap();
    assert_eq!(outs[0].value, GnnError::CacheMiss { vertex: 7 });
}

#[test]
fn runtime_rejects_zero_ranks_with_typed_error() {
    assert!(matches!(Runtime::new(0), Err(CommError::InvalidConfig(_))));
    // The same zero-rank mistake at the backend layer is typed too.
    assert_eq!(
        ReplicatedBackend::new(DistConfig::new(0, 1, BulkSamplerConfig::new(4, 2))).unwrap_err(),
        SamplingError::InvalidDistConfig { field: "ranks", value: 0 }
    );
}

#[test]
fn feature_store_rejects_out_of_range_block_index() {
    let h = features(9, 2);
    assert!(FeatureStore::from_full(&h, 3, 3).is_err());
    assert!(FeatureStore::from_full(&h, 3, 2).is_ok());
}

fn determinism_dataset(seed: u64) -> Dataset {
    common::products_dataset(7, 12, 4, 0.5, Some(0.6), seed) // 128 vertices
}

/// Flaky-guard for the rank simulator: the distributed pipeline runs one OS
/// thread per rank, so any dependence on thread scheduling would show up as
/// run-to-run divergence.  Two identically-seeded runs must agree bit for
/// bit on every loss and exactly on every communication counter.
#[test]
fn seeded_distributed_training_is_run_to_run_deterministic() {
    let dataset = std::sync::Arc::new(determinism_dataset(50));
    for mode in common::cache_modes() {
        let build = || {
            TrainingSession::<GraphSageSampler, ReplicatedBackend>::builder()
                .dataset(std::sync::Arc::clone(&dataset))
                .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
                .backend(
                    ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 4)))
                        .unwrap(),
                )
                .hidden_dim(12)
                .learning_rate(0.05)
                .epochs(2)
                .seed(77)
                .feature_cache(mode)
                .build()
                .unwrap()
        };
        let first = build().train().unwrap();
        let second = build().train().unwrap();
        assert_eq!(first.epochs.len(), second.epochs.len());
        for (a, b) in first.epochs.iter().zip(&second.epochs) {
            assert_eq!(
                a.mean_loss.to_bits(),
                b.mean_loss.to_bits(),
                "{mode:?}: losses diverged between identically-seeded runs"
            );
            assert_eq!(a.comm.messages, b.comm.messages, "{mode:?}");
            assert_eq!(a.comm.words_sent, b.comm.words_sent, "{mode:?}");
            assert_eq!(a.comm.cache_hits, b.comm.cache_hits, "{mode:?}");
            assert_eq!(a.comm.cache_misses, b.comm.cache_misses, "{mode:?}");
            assert_eq!(a.comm.words_saved, b.comm.words_saved, "{mode:?}");
        }
        assert_eq!(
            first.test_accuracy.unwrap().to_bits(),
            second.test_accuracy.unwrap().to_bits(),
            "{mode:?}"
        );
    }
}
