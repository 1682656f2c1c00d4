//! Equivalence and negative-path tests for the overlapped (software-
//! pipelined) distributed training schedule.
//!
//! The overlap knob must be **pure schedule**: while bulk group `k` trains,
//! group `k + 1`'s sampling and pinned prefetch are in flight, but nothing
//! about *what* is computed may change — losses, accuracy, fetched rows and
//! per-epoch communication word counts are byte-identical to the synchronous
//! schedule for every grid shape `p × c` and every cache mode.  What does
//! change is the *charging*: the α–β bill of the hoisted communication is
//! recorded as overlapped seconds (`max(comm, compute)` instead of
//! `comm + compute`), and those books must balance exactly.

mod common;

use dmbs::gnn::{EpochStats, FeatureCacheConfig, TrainingReport, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, Partitioned1p5dBackend, ReplicatedBackend,
    SamplingBackend,
};
use std::sync::Arc;

fn tiny_dataset(seed: u64) -> Arc<Dataset> {
    common::arc_products_dataset(7, 16, 4, 0.5, Some(0.6), seed) // 128 vertices
}

/// Trains one replicated session; `overlap` toggles the pipelined schedule.
/// Batch 16 over 64 train vertices with bulk k = 2 gives two bulk groups per
/// epoch, so the pipeline has something to hoist.
fn train<B: SamplingBackend + Send + Sync + 'static>(
    dataset: &Arc<Dataset>,
    backend: B,
    cache: FeatureCacheConfig,
    overlap: bool,
) -> TrainingReport {
    TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
        .backend(backend)
        .hidden_dim(16)
        .learning_rate(0.05)
        .epochs(2)
        .seed(42)
        .feature_cache(cache)
        .overlap(overlap)
        .build()
        .unwrap()
        .train()
        .unwrap()
}

fn assert_schedules_match(sync: &EpochStats, pipelined: &EpochStats, label: &str) {
    assert_eq!(
        sync.mean_loss.to_bits(),
        pipelined.mean_loss.to_bits(),
        "{label}: losses diverged between schedules"
    );
    assert_eq!(
        sync.comm.words_sent, pipelined.comm.words_sent,
        "{label}: per-epoch word counts diverged"
    );
    assert_eq!(
        sync.comm.messages, pipelined.comm.messages,
        "{label}: per-epoch message counts diverged"
    );
    // The α–β bill is schedule-independent: same messages, same words, same
    // per-message costs.  Only the *summation order* differs (costs accrue
    // in send order), so allow float-accumulation slack of a few ULPs.
    assert!(
        (sync.comm.modeled_time - pipelined.comm.modeled_time).abs()
            <= 1e-12 * sync.comm.modeled_time.abs().max(1.0),
        "{label}: the α–β bill diverged beyond reordering noise ({} vs {})",
        sync.comm.modeled_time,
        pipelined.comm.modeled_time
    );
    assert_eq!(sync.comm.cache_hits, pipelined.comm.cache_hits, "{label}: cache hits diverged");
    assert_eq!(
        sync.comm.cache_misses, pipelined.comm.cache_misses,
        "{label}: cache misses diverged"
    );
    assert_eq!(sync.comm.words_saved, pipelined.comm.words_saved, "{label}: saved words diverged");
    // The synchronous schedule hides nothing; the pipelined schedule may,
    // but never more than the bill itself — the books balance exactly.
    assert_eq!(sync.overlapped_time(), 0.0, "{label}: sync run must not record overlap");
    assert!(
        pipelined.comm.overlapped_time <= pipelined.comm.modeled_time + 1e-12,
        "{label}: overlapped more than the bill"
    );
    assert!(
        (pipelined.modeled_epoch_seconds()
            - (pipelined.total_time() - pipelined.overlapped_time()))
        .abs()
            < 1e-12,
        "{label}: effective = total - overlapped must hold exactly"
    );
}

#[test]
fn overlap_is_byte_identical_across_p_c_and_cache_modes() {
    let dataset = tiny_dataset(9);
    for &p in &[1usize, 2, 4] {
        for c in (1..=p).filter(|c| p % c == 0) {
            for cache in common::cache_modes() {
                let label = format!("p={p} c={c} cache={cache:?}");
                let make = || {
                    ReplicatedBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(16, 2)))
                        .unwrap()
                };
                let sync = train(&dataset, make(), cache, false);
                let pipelined = train(&dataset, make(), cache, true);
                assert_eq!(sync.epochs.len(), pipelined.epochs.len());
                for (s, o) in sync.epochs.iter().zip(&pipelined.epochs) {
                    assert_schedules_match(s, o, &label);
                }
                assert_eq!(
                    sync.test_accuracy.unwrap().to_bits(),
                    pipelined.test_accuracy.unwrap().to_bits(),
                    "{label}: accuracy diverged"
                );
            }
        }
    }
}

#[test]
fn overlap_hides_prefetch_comm_on_communicating_shapes() {
    // With the pinned cache on a shape whose fetch group spans ranks
    // (c < p), the posted prefetch of group k+1 really is in flight while
    // group k trains, so the pipelined run must record hidden seconds.
    let dataset = tiny_dataset(11);
    let backend =
        ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 2))).unwrap();
    let pipelined = train(&dataset, backend, FeatureCacheConfig::Pinned, true);
    for e in &pipelined.epochs {
        assert!(
            e.comm.overlapped_time > 0.0,
            "epoch {}: nothing was hidden despite a communicating prefetch",
            e.epoch
        );
        assert!(e.modeled_epoch_seconds() < e.total_time());
    }
}

#[test]
fn overlap_on_partitioned_backend_matches_synchronous() {
    // The 1.5D-partitioned backend samples *with* collectives, which the
    // pipeline hoists ahead of the previous group's training — results and
    // word counts must still match the synchronous schedule exactly.
    let dataset = tiny_dataset(13);
    let make = || {
        Partitioned1p5dBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 2))).unwrap()
    };
    for cache in [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned] {
        let sync = train(&dataset, make(), cache, false);
        let pipelined = train(&dataset, make(), cache, true);
        for (s, o) in sync.epochs.iter().zip(&pipelined.epochs) {
            assert_schedules_match(s, o, &format!("partitioned cache={cache:?}"));
        }
    }
}

#[test]
fn overlap_with_c_equal_one_replication_degrades_gracefully() {
    // c = 1: the feature matrix is split into p blocks and every fetch spans
    // the whole world — the NoRep-shaped negative path.  Overlap must not
    // error and must stay byte-identical.
    let dataset = tiny_dataset(17);
    let make =
        || ReplicatedBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::new(16, 2))).unwrap();
    let sync = train(&dataset, make(), FeatureCacheConfig::Pinned, false);
    let pipelined = train(&dataset, make(), FeatureCacheConfig::Pinned, true);
    for (s, o) in sync.epochs.iter().zip(&pipelined.epochs) {
        assert_schedules_match(s, o, "c=1");
    }
}

#[test]
fn overlap_two_runs_same_seed_are_bitwise_deterministic() {
    // Flaky-guard: the pipelined schedule posts collectives across bulk-group
    // boundaries, so a scheduling race would show up as run-to-run drift in
    // losses or comm counters.  Two same-seed runs must agree bit for bit
    // (overlapped *seconds* are measured wall-clock and may differ; every
    // deterministic counter must not).
    let dataset = tiny_dataset(23);
    for cache in common::cache_modes() {
        let make = || {
            ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 2))).unwrap()
        };
        let a = train(&dataset, make(), cache, true);
        let b = train(&dataset, make(), cache, true);
        assert_eq!(a.epochs.len(), b.epochs.len());
        for (x, y) in a.epochs.iter().zip(&b.epochs) {
            assert_eq!(x.mean_loss.to_bits(), y.mean_loss.to_bits(), "{cache:?}");
            assert_eq!(x.comm.words_sent, y.comm.words_sent, "{cache:?}");
            assert_eq!(x.comm.messages, y.comm.messages, "{cache:?}");
            assert_eq!(x.comm.modeled_time.to_bits(), y.comm.modeled_time.to_bits(), "{cache:?}");
            assert_eq!(x.comm.cache_hits, y.comm.cache_hits, "{cache:?}");
            assert_eq!(x.comm.cache_misses, y.comm.cache_misses, "{cache:?}");
            assert_eq!(x.comm.words_saved, y.comm.words_saved, "{cache:?}");
        }
        assert_eq!(a.test_accuracy.unwrap().to_bits(), b.test_accuracy.unwrap().to_bits());
    }
}
