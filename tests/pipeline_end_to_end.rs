//! Cross-crate integration tests for the end-to-end training pipeline driven
//! through `TrainingSession`: learning above chance level, matching accuracy
//! between bulk matrix sampling and per-vertex sampling, consistent phase
//! accounting in the distributed pipeline, and how a session takes its
//! shape (`b`, `k`, `c`, threads) from its backend.

mod common;

use dmbs::gnn::TrainingSession;
use dmbs::graph::datasets::Dataset;
use dmbs::sampling::baseline::PerVertexSageSampler;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, LocalBackend, ReplicatedBackend, Sampler,
    SamplingBackend, SamplingError,
};

fn dataset(seed: u64) -> Dataset {
    common::products_dataset(8, 16, 4, 0.5, Some(0.6), seed) // 256 vertices
}

fn local_session<S: Sampler>(ds: Dataset, sampler: S) -> TrainingSession<S, LocalBackend> {
    TrainingSession::builder()
        .dataset(ds)
        .sampler(sampler)
        .backend(LocalBackend::new(BulkSamplerConfig::new(32, 4)).unwrap())
        .hidden_dim(24)
        .learning_rate(0.05)
        .epochs(4)
        .seed(11)
        .build()
        .unwrap()
}

#[test]
fn single_device_training_learns_above_chance() {
    let ds = dataset(1);
    let chance = 1.0 / ds.graph.num_classes() as f64;
    let session = local_session(ds, GraphSageSampler::new(vec![8, 4]).with_self_loops());
    let report = session.train().unwrap();
    let accuracy = report.test_accuracy.unwrap();
    assert!(accuracy > chance * 1.5, "accuracy {accuracy} vs chance {chance}");
    // Loss decreased.
    assert!(report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss);
}

#[test]
fn bulk_matrix_sampling_does_not_hurt_accuracy() {
    // The §8.1.3 claim, end to end across crates: swapping the sampler inside
    // the same session shape leaves accuracy unchanged.
    let ds = dataset(2);
    let matrix = local_session(ds.clone(), GraphSageSampler::new(vec![8, 4]).with_self_loops())
        .train()
        .unwrap();
    let baseline =
        local_session(ds, PerVertexSageSampler::new(vec![8, 4]).with_self_loops()).train().unwrap();
    let a = matrix.test_accuracy.unwrap();
    let b = baseline.test_accuracy.unwrap();
    assert!((a - b).abs() < 0.25, "matrix sampling accuracy {a} vs per-vertex {b}");
}

#[test]
fn distributed_pipeline_phases_and_scaling_bookkeeping() {
    let ds = dataset(3);
    for (p, c) in [(2usize, 2usize), (4, 2)] {
        let report = TrainingSession::builder()
            .dataset(ds.clone())
            .sampler(GraphSageSampler::new(vec![8, 4]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(32, 4)))
                    .unwrap(),
            )
            .hidden_dim(24)
            .learning_rate(0.05)
            .epochs(2)
            .seed(11)
            .without_evaluation()
            .build()
            .unwrap()
            .train()
            .unwrap();
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            // Every phase of Figure 3 is accounted for.
            assert!(e.sampling_time() > 0.0, "p={p}");
            assert!(e.feature_fetch_time() > 0.0, "p={p}");
            assert!(e.propagation_time() > 0.0, "p={p}");
            assert!(e.total_time() >= e.sampling_time() + e.propagation_time());
            // Gradient all-reduce and feature fetching moved data.
            assert!(e.comm.messages > 0, "p={p}");
            assert!(e.mean_loss.is_finite());
        }
    }
}

#[test]
fn distributed_and_single_device_losses_are_comparable() {
    // Data-parallel training over simulated ranks should optimize the same
    // objective: final epoch losses must be in the same ballpark.
    let ds = dataset(4);
    let sampler = GraphSageSampler::new(vec![8, 4]).with_self_loops();
    let single = TrainingSession::builder()
        .dataset(ds.clone())
        .sampler(sampler.clone())
        .backend(LocalBackend::new(BulkSamplerConfig::new(32, 4)).unwrap())
        .hidden_dim(24)
        .learning_rate(0.05)
        .epochs(3)
        .seed(11)
        .build()
        .unwrap()
        .train()
        .unwrap();
    let distributed = TrainingSession::builder()
        .dataset(ds)
        .sampler(sampler)
        .backend(
            ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(32, 4))).unwrap(),
        )
        .hidden_dim(24)
        .learning_rate(0.05)
        .epochs(3)
        .seed(11)
        .without_evaluation()
        .build()
        .unwrap()
        .train()
        .unwrap();
    let s = single.epochs.last().unwrap().mean_loss;
    let d = distributed.epochs.last().unwrap().mean_loss;
    assert!((s - d).abs() < 1.0, "single-device final loss {s} vs distributed {d} diverged");
}

#[test]
fn builder_overrides_resolve_against_the_backend() {
    // The backend's configuration is the run's shape: the session plans
    // minibatches of the backend's `b`, streams bulk groups of its `k`, and
    // its thread count is the one the backend samples with.
    let bulk = BulkSamplerConfig::new(8, 2).with_parallelism(dmbs::matrix::Parallelism::new(3));
    let session = TrainingSession::builder()
        .dataset(dataset(5))
        .sampler(GraphSageSampler::new(vec![8, 4]).with_self_loops())
        .backend(LocalBackend::new(bulk).unwrap())
        .build()
        .unwrap();
    let minibatches: Vec<_> = session.stream(0).unwrap().map(Result::unwrap).collect();
    assert_eq!(minibatches.iter().map(|mb| mb.sample.batch.len()).max(), Some(8));
    assert!(minibatches.iter().all(|mb| mb.group == mb.index / 2));
    assert_eq!(session.backend().bulk().parallelism.threads(), 3);
}

#[test]
fn replication_that_does_not_divide_p_is_a_typed_error() {
    // `c` has one home, the backend's `DistConfig`, so a `c` that does not
    // divide `p` is refused before any session exists.
    let dist = DistConfig::new(4, 3, BulkSamplerConfig::new(32, 4));
    assert_eq!(
        ReplicatedBackend::new(dist).err(),
        Some(SamplingError::InvalidDistConfig { field: "replication_c", value: 3 })
    );
}
