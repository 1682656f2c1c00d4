//! Cross-backend transport equivalence sweep: the real multi-process
//! Unix-socket transport must be a drop-in replacement for the in-process
//! rank simulator.
//!
//! The contract under test: selecting
//! [`TransportSelect::UnixSocket`](dmbs::comm::TransportSelect) on a
//! [`TrainingSession`] changes *how* bytes move (OS processes, socketpairs,
//! length-prefixed frames) but nothing observable about the training run —
//! every deterministic counter (words, messages, cache hits/misses, saved
//! words) and every per-epoch mean loss is **bit-identical** to the
//! simulator, swept over p ∈ {1, 2, 4} × every c dividing p × both
//! feature-cache modes.
//!
//! The sweep also pins that [`CommStats`](dmbs::comm::CommStats) aggregation
//! survives the process boundary: per-rank stats are serialized back from
//! real child processes and merged by the same code path the simulator
//! uses, so the cache-balance identity
//! `words_sent(cached) + words_saved == words_sent(uncached)` must hold on
//! the real backend too.

mod common;

use common::GRID_SHAPES;
use dmbs::comm::{run_if_worker, Codec, SocketLaunch, TransportSelect};
use dmbs::gnn::{FeatureCacheConfig, TrainingReport, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, Partitioned1p5dBackend, ReplicatedBackend,
    SamplingBackend,
};
use std::sync::Arc;

/// Rank-process entry point.  When the parent re-executes this test binary
/// with the rendezvous environment set, libtest routes execution here (via
/// `--exact socket_worker_shim`) and `run_if_worker` takes over the process;
/// in an ordinary `cargo test` run the environment is unset and this is an
/// empty passing test.
#[test]
fn socket_worker_shim() {
    run_if_worker(&dmbs::gnn::worker::registry());
}

fn launch() -> SocketLaunch {
    common::socket_launch()
}

fn tiny_dataset() -> Arc<Dataset> {
    common::arc_products_dataset(6, 8, 3, 0.5, Some(0.6), 11)
}

fn dist(p: usize, c: usize) -> DistConfig {
    DistConfig::new(p, c, BulkSamplerConfig::new(8, 2))
}

fn replicated(p: usize, c: usize) -> ReplicatedBackend {
    ReplicatedBackend::new(dist(p, c)).expect("backend")
}

fn train<B: SamplingBackend + Send + Sync + 'static>(
    dataset: &Arc<Dataset>,
    backend: B,
    cache: FeatureCacheConfig,
    overlap: bool,
    transport: TransportSelect,
) -> TrainingReport {
    TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
        .backend(backend)
        .hidden_dim(8)
        .learning_rate(0.1)
        .epochs(2)
        .seed(33)
        .feature_cache(cache)
        .overlap(overlap)
        .transport(transport)
        .without_evaluation()
        .build()
        .expect("session")
        .train()
        .expect("training")
}

/// Every epoch's loss bits and deterministic counters agree.
fn assert_same_epochs(sim: &TrainingReport, sock: &TrainingReport, label: &str) {
    assert_eq!(sim.epochs.len(), sock.epochs.len(), "{label}: epoch count diverged");
    for (a, b) in sim.epochs.iter().zip(&sock.epochs) {
        assert_eq!(
            a.mean_loss.to_bits(),
            b.mean_loss.to_bits(),
            "{label} epoch {}: losses not bit-identical ({} vs {})",
            a.epoch,
            a.mean_loss,
            b.mean_loss
        );
        assert_eq!(a.comm.words_sent, b.comm.words_sent, "{label}: words diverged");
        assert_eq!(a.comm.messages, b.comm.messages, "{label}: messages diverged");
        assert_eq!(a.comm.cache_hits, b.comm.cache_hits, "{label}: hits diverged");
        assert_eq!(a.comm.cache_misses, b.comm.cache_misses, "{label}: misses diverged");
        assert_eq!(a.comm.words_saved, b.comm.words_saved, "{label}: saved diverged");
    }
}

/// The tentpole sweep: for every grid shape and cache mode, the socket
/// transport reproduces the simulator's losses and deterministic counters
/// bit for bit.
#[test]
fn socket_transport_is_byte_identical_to_simulator_across_the_sweep() {
    let dataset = tiny_dataset();
    for &(p, c) in &GRID_SHAPES {
        for cache in common::cache_modes() {
            let sim = train(&dataset, replicated(p, c), cache, false, TransportSelect::Simulator);
            let socket = TransportSelect::UnixSocket(launch());
            let sock = train(&dataset, replicated(p, c), cache, false, socket);
            assert_same_epochs(&sim, &sock, &format!("p={p} c={c} cache={cache:?}"));
        }
    }
}

/// The pipelined schedule and the 1.5D backend across processes: socket runs
/// with `overlap` off and on both reproduce the simulator's synchronous run,
/// on the replicated (4, 2) pinned shape, the partitioned (2, 1) uncached
/// shape of the benchmark's distributed workload, and partitioned (4, 2)
/// pinned.
#[test]
fn socket_pipeline_matches_simulator_sync_on_both_backends() {
    fn check<B: SamplingBackend + Send + Sync + 'static>(
        dataset: &Arc<Dataset>,
        make: impl Fn() -> B,
        cache: FeatureCacheConfig,
        label: &str,
    ) {
        let sim = train(dataset, make(), cache, false, TransportSelect::Simulator);
        for overlap in [false, true] {
            let sock =
                train(dataset, make(), cache, overlap, TransportSelect::UnixSocket(launch()));
            assert_same_epochs(&sim, &sock, &format!("{label} overlap={overlap}"));
        }
    }
    let dataset = tiny_dataset();
    let partitioned = |p, c| Partitioned1p5dBackend::new(dist(p, c)).expect("backend");
    let pinned = FeatureCacheConfig::Pinned;
    check(&dataset, || replicated(4, 2), pinned, "replicated p=4 c=2 pinned");
    check(&dataset, || partitioned(2, 1), FeatureCacheConfig::Off, "partitioned p=2 c=1 off");
    check(&dataset, || partitioned(4, 2), pinned, "partitioned p=4 c=2 pinned");
}

/// Satellite: `CommStats` merged across real process boundaries still obey
/// the cache-balance identity — every word the cache claims to save is a
/// word the uncached run actually sent.
#[test]
fn cache_balance_holds_across_process_boundaries() {
    let dataset = tiny_dataset();
    for &(p, c) in &[(2, 1), (4, 2)] {
        let socket = || TransportSelect::UnixSocket(launch());
        let uncached = train(&dataset, replicated(p, c), FeatureCacheConfig::Off, false, socket());
        let cached = train(&dataset, replicated(p, c), FeatureCacheConfig::Pinned, false, socket());
        let words =
            |r: &TrainingReport| -> usize { r.epochs.iter().map(|e| e.comm.words_sent).sum() };
        let saved: usize = cached.epochs.iter().map(|e| e.comm.words_saved).sum();
        assert_eq!(
            words(&cached) + saved,
            words(&uncached),
            "p={p} c={c}: cache balance broke across the process boundary"
        );
        assert!(saved > 0, "p={p} c={c}: pinned cache saved nothing; the identity is vacuous");
    }
}

/// Wire-compression sweep: under every codec (and under top-k gradient
/// compression), the socket transport still reproduces the simulator bit for
/// bit — losses, words, messages, and both byte books.  The codecs are
/// deterministic little-endian transforms applied once at the sender, so the
/// transport never sees (or alters) unquantized values.
#[test]
fn socket_transport_matches_simulator_under_every_codec() {
    let dataset = tiny_dataset();
    let run = |p: usize,
               c: usize,
               cache: FeatureCacheConfig,
               codec: Codec,
               top_k: Option<usize>,
               transport: TransportSelect|
     -> TrainingReport {
        let dist = DistConfig::new(p, c, BulkSamplerConfig::new(8, 2));
        let backend = ReplicatedBackend::new(dist).expect("backend");
        let mut builder = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(backend)
            .hidden_dim(8)
            .learning_rate(0.1)
            .epochs(2)
            .seed(33)
            .feature_cache(cache)
            .wire_codec(codec)
            .transport(transport)
            .without_evaluation();
        if let Some(k) = top_k {
            builder = builder.grad_top_k(k);
        }
        builder.build().expect("session").train().expect("training")
    };
    for &(p, c) in &[(2usize, 1usize), (4, 2)] {
        for (codec, top_k) in [
            (Codec::Exact, Some(16)),
            (Codec::Fp16, None),
            (Codec::Int8, None),
            (Codec::Int8, Some(16)),
        ] {
            for cache in [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned] {
                let sim = run(p, c, cache, codec, top_k, TransportSelect::Simulator);
                let sock = run(p, c, cache, codec, top_k, TransportSelect::UnixSocket(launch()));
                let label = format!("p={p} c={c} codec={codec} top_k={top_k:?} cache={cache:?}");
                for (a, b) in sim.epochs.iter().zip(&sock.epochs) {
                    assert_eq!(
                        a.mean_loss.to_bits(),
                        b.mean_loss.to_bits(),
                        "{label}: losses not bit-identical"
                    );
                    assert_eq!(a.comm.words_sent, b.comm.words_sent, "{label}: words diverged");
                    assert_eq!(a.comm.messages, b.comm.messages, "{label}: messages diverged");
                    assert_eq!(
                        a.comm.bytes_on_wire, b.comm.bytes_on_wire,
                        "{label}: bytes-on-wire book diverged"
                    );
                    assert_eq!(
                        a.comm.bytes_saved, b.comm.bytes_saved,
                        "{label}: bytes-saved book diverged"
                    );
                }
            }
        }
    }
}

/// Satellite: the averaged model parameters also survive the wire codec —
/// evaluation (which runs in the parent over the decoded, rank-averaged
/// parameters) scores bit-identically on both transports.  A parameter
/// codec bug would not show in per-epoch losses, so this closes that gap.
#[test]
fn evaluation_over_decoded_parameters_matches_simulator() {
    let dataset = tiny_dataset();
    let evaluated = |transport: TransportSelect| -> TrainingReport {
        let dist = DistConfig::new(2, 1, BulkSamplerConfig::new(8, 2));
        let backend = ReplicatedBackend::new(dist).expect("backend");
        TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(backend)
            .hidden_dim(8)
            .learning_rate(0.1)
            .epochs(2)
            .seed(33)
            .feature_cache(FeatureCacheConfig::Pinned)
            .transport(transport)
            .build()
            .expect("session")
            .train()
            .expect("training")
    };
    let sim = evaluated(TransportSelect::Simulator);
    let sock = evaluated(TransportSelect::UnixSocket(launch()));
    let accuracy = |r: &TrainingReport| r.test_accuracy.expect("evaluation ran").to_bits();
    assert_eq!(
        accuracy(&sim),
        accuracy(&sock),
        "test accuracy diverged: the parameter matrices did not survive the codec bit-exactly"
    );
}
