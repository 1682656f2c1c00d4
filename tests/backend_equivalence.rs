//! Backend-equivalence safety net: the `SamplingBackend` strategies must
//! reproduce an independent reconstruction of their contract **byte for
//! byte** under a fixed seed, and the feature cache, wire codec and gradient
//! compression knobs must leave every grid shape's training either
//! bit-identical or within a pinned tolerance.

mod common;

use common::GRID_SHAPES;
use dmbs::comm::{Codec, Group, ProcessGrid, Runtime};
use dmbs::gnn::{
    FeatureCache, FeatureCacheConfig, FeatureStore, SessionBuilder, TrainingReport, TrainingSession,
};
use dmbs::graph::datasets::Dataset;
use dmbs::graph::generators::figure1_example;
use dmbs::graph::partition::OneDPartition;
use dmbs::graph::MinibatchPlan;
use dmbs::matrix::DenseMatrix;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, Partitioned1p5dBackend, RankRows,
    ReplicatedBackend, Sampler, SamplingBackend,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn replicated_backend_matches_hand_rolled_per_rank_sampling() {
    // Independent reconstruction of the §5.1 contract (round-robin batches,
    // per-rank seed = epoch seed + rank), without going through either API.
    let graph = figure1_example();
    let a = graph.adjacency();
    let batches = vec![vec![1, 5], vec![0, 3], vec![2, 4], vec![5, 1], vec![4, 0]];
    let bulk = BulkSamplerConfig::new(2, batches.len());
    let sampler = GraphSageSampler::new(vec![2, 2]);
    let p = 3;
    let seed = 7u64;

    let mut expected = vec![None; batches.len()];
    for rank in 0..p {
        let my_indices: Vec<usize> = (0..batches.len()).filter(|i| i % p == rank).collect();
        let my_batches: Vec<Vec<usize>> = my_indices.iter().map(|&i| batches[i].clone()).collect();
        let mut rng = StdRng::seed_from_u64(seed + rank as u64);
        let config = BulkSamplerConfig::new(2, my_batches.len());
        let out = sampler.sample_bulk(a, &my_batches, &config, &mut rng).unwrap();
        for (slot, mb) in my_indices.into_iter().zip(out.minibatches) {
            expected[slot] = Some(mb);
        }
    }

    let backend = ReplicatedBackend::new(DistConfig::new(p, 1, bulk)).unwrap();
    let epoch = backend.sample_epoch(&sampler, a, &batches, seed).unwrap();
    for (got, want) in epoch.minibatches().iter().zip(expected) {
        assert_eq!(got, &want.unwrap());
    }
}

fn feature_matrix(n: usize, f: usize) -> DenseMatrix {
    DenseMatrix::from_rows(
        &(0..n)
            .map(|v| (0..f).map(|j| (v * 31 + j * 7) as f64 * 0.125 + 0.5).collect())
            .collect::<Vec<_>>(),
    )
    .unwrap()
}

proptest! {
    /// Distributed-equivalence sweep at the feature-store level: across
    /// every grid shape, the rows served through the pinned prefetch cache
    /// are byte-identical to the uncached all-to-allv fetch, for arbitrary
    /// per-rank request lists (including duplicates), and the cached run
    /// moves no more words than the baseline.
    #[test]
    fn fetched_features_are_byte_identical_cache_on_vs_off(
        wanted_a in proptest::collection::vec(0usize..48, 1..24),
        wanted_b in proptest::collection::vec(0usize..48, 1..24),
    ) {
        let n = 48;
        let f = 5;
        let h = feature_matrix(n, f);
        for (p, c) in GRID_SHAPES {
            let runtime = Runtime::new(p).unwrap();
            let steps = [wanted_a.clone(), wanted_b.clone()];
            // Baseline: per-step all-to-allv, no cache.
            let uncached = runtime
                .run(|comm| {
                    let grid = ProcessGrid::new(comm.size(), c).unwrap();
                    let (my_row, _) = grid.coords(comm.rank());
                    let store = FeatureStore::from_full(&h, grid.rows(), my_row).unwrap();
                    let group = Group::new(&grid.col_ranks(comm.rank())).unwrap();
                    let outs: Vec<DenseMatrix> =
                        steps.iter().map(|w| store.fetch(comm, &group, w).unwrap()).collect();
                    (outs, comm.stats().words_sent)
                })
                .unwrap();
            let cached = runtime
                .run(|comm| {
                    let grid = ProcessGrid::new(comm.size(), c).unwrap();
                    let (my_row, _) = grid.coords(comm.rank());
                    let store = FeatureStore::from_full(&h, grid.rows(), my_row).unwrap();
                    let group = Group::new(&grid.col_ranks(comm.rank())).unwrap();
                    let mut cache = FeatureCache::new(f);
                    let mut union: Vec<usize> = steps.iter().flatten().copied().collect();
                    union.sort_unstable();
                    union.dedup();
                    cache.prefetch(&store, comm, &group, &union).unwrap();
                    let outs: Vec<DenseMatrix> =
                        steps.iter().map(|w| cache.gather_pinned(&store, w).unwrap()).collect();
                    (outs, comm.stats().words_sent, *cache.stats())
                })
                .unwrap();
            let mut words_uncached = 0;
            let mut words_cached = 0;
            let mut words_saved = 0;
            for (u, cc) in uncached.iter().zip(&cached) {
                prop_assert_eq!(&u.value.0, &cc.value.0, "p={} c={}: fetched rows diverged", p, c);
                words_uncached += u.value.1;
                words_cached += cc.value.1;
                words_saved += cc.value.2.words_saved;
            }
            prop_assert!(words_cached <= words_uncached, "p={} c={}: cache moved more words", p, c);
            prop_assert_eq!(
                words_cached + words_saved, words_uncached,
                "p={} c={}: saved + sent must equal the uncached bill", p, c
            );
        }
    }
}

fn equivalence_dataset(seed: u64) -> Dataset {
    common::products_dataset(7, 12, 4, 0.5, Some(0.6), seed) // 128 vertices
}

/// Trains `base` uncached and with the pinned cache and asserts, epoch by
/// epoch, that the cache is pure work avoidance: bit-identical losses and
/// accuracy, no more words or messages than the uncached run (the prefetch
/// replaces each group's per-step collectives with one round), and balanced
/// books (`sent + saved == uncached`).  Returns the pinned run's report.
fn assert_cache_is_work_avoidance<B>(
    base: &SessionBuilder<GraphSageSampler, B>,
    label: &str,
) -> TrainingReport
where
    B: SamplingBackend + Clone + Send + Sync + 'static,
{
    let off = base.clone().feature_cache(FeatureCacheConfig::Off).build().unwrap().train().unwrap();
    let on =
        base.clone().feature_cache(FeatureCacheConfig::Pinned).build().unwrap().train().unwrap();
    assert_eq!(off.epochs.len(), on.epochs.len());
    for (a, b) in off.epochs.iter().zip(&on.epochs) {
        let e = a.epoch;
        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "{label} epoch {e}: losses");
        assert!(b.comm.words_sent <= a.comm.words_sent, "{label} epoch {e}: words");
        assert!(b.comm.messages <= a.comm.messages, "{label} epoch {e}: messages");
        assert_eq!(
            b.comm.words_sent + b.comm.words_saved,
            a.comm.words_sent,
            "{label} epoch {e}: books must balance"
        );
    }
    assert_eq!(
        off.test_accuracy.map(f64::to_bits),
        on.test_accuracy.map(f64::to_bits),
        "{label}: accuracy diverged"
    );
    on
}

/// The shapes the random-plan dominance property runs on.
const DOMINANCE_SHAPES: [(usize, usize); 2] = [(2, 1), (4, 2)];

/// Random plans whose last bulk group is ragged and leaves some rank of the
/// shape without a sample, counted per [`DOMINANCE_SHAPES`] entry.
static RAGGED_PLANS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

/// Random plans the dominance property ran on the 1.5D backend.
static PARTITIONED_PLANS: AtomicUsize = AtomicUsize::new(0);

/// The dominance property's three-epoch session on `backend`.
fn dominance_base<B: SamplingBackend>(
    dataset: &std::sync::Arc<Dataset>,
    backend: B,
    seed: u64,
) -> SessionBuilder<GraphSageSampler, B> {
    TrainingSession::builder()
        .dataset(std::sync::Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
        .backend(backend)
        .hidden_dim(8)
        .learning_rate(0.05)
        .epochs(3)
        .seed(seed)
        .without_evaluation()
}

/// The pinned remote rows of `A` of every rank after it samples three
/// epochs of random plans through rows it holds for the whole run, each
/// with its remote row count `n − |own block|`.
fn pinned_a_rows_after_three_epochs(
    dataset: &Dataset,
    backend: &Partitioned1p5dBackend,
    batch: usize,
    seed: u64,
) -> Vec<(usize, usize)> {
    let dist = *backend.dist().unwrap();
    let grid = ProcessGrid::new(dist.ranks, dist.replication_c).unwrap();
    let a = dataset.graph.adjacency();
    let n = a.rows();
    let partition = OneDPartition::new(n, grid.rows()).unwrap();
    let sampler = GraphSageSampler::new(vec![4, 3]).with_self_loops();
    let plans: Vec<MinibatchPlan> = (0..3)
        .map(|epoch| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1 + epoch));
            MinibatchPlan::new(&dataset.train_set, batch, &mut rng).unwrap()
        })
        .collect();
    let outs = backend
        .runtime()
        .unwrap()
        .run(|comm| {
            let mut held = RankRows::new();
            for plan in &plans {
                for (g, group) in plan.batches().chunks(dist.bulk.bulk_size).enumerate() {
                    let seed = seed.wrapping_add(g as u64);
                    backend.sample_group_on_rank_with(
                        comm,
                        &sampler,
                        a,
                        group,
                        seed,
                        Some(&mut held),
                    )?;
                }
            }
            let remote = n - partition.range(grid.coords(comm.rank()).0).len();
            Ok::<_, dmbs::sampling::SamplingError>((held.pinned_rows(), remote))
        })
        .unwrap();
    outs.into_iter().map(|o| o.value.unwrap()).collect()
}

proptest! {
    /// The dominance property that licenses the pinned default: on random
    /// plans (dataset seed, batch size, bulk k, train fraction) and both
    /// distributed backends, the pinned schedule never moves more words or
    /// messages than the uncached pipeline, trains bit-identically and
    /// balances its books, epoch by epoch.  Its feature rows live for the
    /// whole run, so over three epochs each rank pins each of the `n` rows
    /// at most once: the run's misses stay within `p · n`.  On the 1.5D
    /// backend the schedule also pins the remote rows of `A`, each once: a
    /// rank never holds more than its remote rows, `n − |own block|`.  One
    /// plan in ten runs there: a (4,2) epoch of the 1.5D backend costs
    /// about three replicated ones, and the split holds the suite's time.
    fn pinned_cache_dominates_off_on_random_plans(
        dataset_seed in 0u64..1_000_000,
        batch in 2usize..24,
        bulk in 1usize..7,
        train_fraction in 0.15f64..0.8,
        backend in 0usize..10,
    ) {
        let dataset =
            common::arc_products_dataset(7, 12, 4, train_fraction, Some(0.6), dataset_seed);
        let batches = dataset.num_batches(batch);
        let partitioned = backend == 0;
        if partitioned {
            PARTITIONED_PLANS.fetch_add(1, Ordering::Relaxed);
        }
        for (&(p, c), ragged) in DOMINANCE_SHAPES.iter().zip(&RAGGED_PLANS) {
            if !batches.is_multiple_of(bulk) && batches % bulk < p {
                ragged.fetch_add(1, Ordering::Relaxed);
            }
            let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch, bulk));
            let label = format!(
                "p={p} c={c} partitioned={partitioned} dataset_seed={dataset_seed} b={batch} \
                 k={bulk} train_fraction={train_fraction}"
            );
            let pinned = if partitioned {
                let backend = Partitioned1p5dBackend::new(dist).unwrap();
                let held = pinned_a_rows_after_three_epochs(&dataset, &backend, batch, dataset_seed);
                for (rank, (pinned, remote)) in held.into_iter().enumerate() {
                    assert!(pinned <= remote, "{label}: rank {rank} pinned {pinned} > {remote}");
                }
                assert_cache_is_work_avoidance(&dominance_base(&dataset, backend, dataset_seed), &label)
            } else {
                let backend = ReplicatedBackend::new(dist).unwrap();
                assert_cache_is_work_avoidance(&dominance_base(&dataset, backend, dataset_seed), &label)
            };
            let n = dataset.graph.num_vertices();
            let misses: usize = pinned.epochs.iter().map(|e| e.comm.cache_misses).sum();
            assert!(misses <= p * n, "{label}: {misses} misses > p · n = {}", p * n);
        }
    }
}

/// Distributed-equivalence sweep at the full-pipeline level: across every
/// grid shape, `train()` through the distributed path produces bit-identical
/// per-epoch losses and test accuracy with the cache off and pinned — the
/// cache is pure work avoidance — while the pinned pipeline never moves more
/// words and its books balance exactly.  Then the same holds
/// for the pinned cache on random plans, ragged last groups included.
#[test]
fn train_distributed_is_byte_identical_cache_on_vs_off_across_grid_shapes() {
    let dataset = std::sync::Arc::new(equivalence_dataset(40));
    for (p, c) in GRID_SHAPES {
        let base = TrainingSession::<GraphSageSampler, ReplicatedBackend>::builder()
            .dataset(std::sync::Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(12)
            .learning_rate(0.05)
            .epochs(2)
            .seed(19);
        assert_cache_is_work_avoidance(&base, &format!("p={p} c={c}"));
    }

    pinned_cache_dominates_off_on_random_plans();
    for (&(p, c), ragged) in DOMINANCE_SHAPES.iter().zip(&RAGGED_PLANS) {
        assert!(
            ragged.load(Ordering::Relaxed) > 0,
            "p={p} c={c}: no random plan left a rank without a sample in its last group"
        );
    }
    assert!(PARTITIONED_PLANS.load(Ordering::Relaxed) > 0, "no random plan ran the 1.5D backend");
}

/// Wire-codec sweep over p × c × cache mode × codec: the codec changes only
/// the bytes-on-wire book.  `Codec::Exact` (the default) bills exactly 8
/// bytes per word with nothing saved; the compressed codecs keep the
/// collective schedule (words, messages) identical, strictly shrink
/// `bytes_on_wire`, balance the byte books per epoch
/// (`bytes_on_wire(codec) + bytes_saved == bytes_on_wire(exact)`), stay
/// byte-identical across cache modes under any one codec, and keep the loss
/// trajectory within a stated tolerance of the exact run's.
#[test]
fn train_distributed_codec_sweep_balances_bytes_across_grid_shapes() {
    let dataset = std::sync::Arc::new(equivalence_dataset(42));
    for (p, c) in GRID_SHAPES {
        let base = TrainingSession::<GraphSageSampler, ReplicatedBackend>::builder()
            .dataset(std::sync::Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(12)
            .learning_rate(0.05)
            .epochs(2)
            .seed(29)
            .feature_cache(FeatureCacheConfig::Off)
            .without_evaluation();
        let exact = base.clone().build().unwrap().train().unwrap();
        for e in &exact.epochs {
            assert_eq!(
                e.comm.bytes_on_wire,
                e.comm.words_sent * 8,
                "p={p} c={c}: exact must bill exactly 8 bytes per word"
            );
            assert_eq!(e.comm.bytes_saved, 0, "p={p} c={c}: exact saves nothing");
        }
        // An explicitly-set Codec::Exact is the default, bit for bit.
        let explicit = base.clone().wire_codec(Codec::Exact).build().unwrap().train().unwrap();
        for (a, b) in exact.epochs.iter().zip(&explicit.epochs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "p={p} c={c}");
            assert_eq!(a.comm.bytes_on_wire, b.comm.bytes_on_wire, "p={p} c={c}");
        }
        for codec in [Codec::Fp16, Codec::Int8] {
            let mut cache_losses: Vec<Vec<u64>> = Vec::new();
            for cache in [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned] {
                let on = base
                    .clone()
                    .wire_codec(codec)
                    .feature_cache(cache)
                    .build()
                    .unwrap()
                    .train()
                    .unwrap();
                cache_losses.push(on.epochs.iter().map(|e| e.mean_loss.to_bits()).collect());
                if cache != FeatureCacheConfig::Off {
                    continue;
                }
                for (a, b) in exact.epochs.iter().zip(&on.epochs) {
                    let label = format!("p={p} c={c} codec={codec}");
                    // Identical schedule, strictly fewer bytes, balanced books.
                    assert_eq!(a.comm.words_sent, b.comm.words_sent, "{label}");
                    assert_eq!(a.comm.messages, b.comm.messages, "{label}");
                    if p > c {
                        // With p/c = 1 (full replication, or a single rank)
                        // every rank serves its fetches locally — nothing
                        // crosses a wire, so only p > c must shrink.
                        assert!(
                            b.comm.bytes_on_wire < a.comm.bytes_on_wire,
                            "{label}: codec did not shrink the wire"
                        );
                    }
                    assert_eq!(
                        b.comm.bytes_on_wire + b.comm.bytes_saved,
                        a.comm.bytes_on_wire,
                        "{label}: byte books must balance"
                    );
                    // Bounded quantization error keeps the trajectory close.
                    assert!(
                        (a.mean_loss - b.mean_loss).abs() < 0.25,
                        "{label}: loss drifted ({} vs {})",
                        a.mean_loss,
                        b.mean_loss
                    );
                }
            }
            // Under any one codec the cache stays pure work avoidance:
            // cached and uncached losses are bit-identical.
            assert_eq!(
                cache_losses[0], cache_losses[1],
                "p={p} c={c} codec={codec}: cache modes diverged under compression"
            );
        }
    }
}

/// The cache also leaves the graph-partitioned (1.5D) training pipeline
/// byte-identical — the backend axis and the feature-cache axis compose.
#[test]
fn train_partitioned_is_byte_identical_cache_on_vs_off() {
    let dataset = std::sync::Arc::new(equivalence_dataset(41));
    for (p, c) in [(4usize, 2usize), (4, 4)] {
        let base = TrainingSession::<GraphSageSampler, Partitioned1p5dBackend>::builder()
            .dataset(std::sync::Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(
                Partitioned1p5dBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(12)
            .learning_rate(0.05)
            .epochs(1)
            .seed(23)
            .without_evaluation();
        let off =
            base.clone().feature_cache(FeatureCacheConfig::Off).build().unwrap().train().unwrap();
        let on = base.feature_cache(FeatureCacheConfig::Pinned).build().unwrap().train().unwrap();
        for (a, b) in off.epochs.iter().zip(&on.epochs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "p={p} c={c}");
            assert_eq!(
                b.comm.words_sent + b.comm.words_saved,
                a.comm.words_sent,
                "p={p} c={c}: books must balance"
            );
        }
    }
}

#[test]
fn minibatch_stream_prefetch_equals_eager_sampling() {
    // The §6 pipelining must be purely a scheduling change: the stream's
    // double-buffered prefetch yields exactly the same minibatches, in the
    // same order, as eager epoch sampling.
    let dataset = common::products_dataset(8, 8, 4, 0.5, None, 6); // 256 vertices

    let session = TrainingSession::builder()
        .dataset(dataset)
        .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
        .backend(
            ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 4))).unwrap(),
        )
        .hidden_dim(8)
        .epochs(1)
        .seed(21)
        .build()
        .unwrap();

    for epoch in 0..2 {
        let eager = session.sample_epoch_eager(epoch).unwrap();
        let streamed: Vec<_> =
            session.stream(epoch).unwrap().collect::<Result<Vec<_>, _>>().unwrap();
        assert_eq!(streamed.len(), eager.num_batches());
        for (mb, want) in streamed.iter().zip(&eager.minibatches) {
            assert_eq!(&mb.sample, want, "epoch {epoch} index {}", mb.index);
        }
    }
}
