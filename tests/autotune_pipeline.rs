//! Integration tests for the cost-model-driven auto-tuner
//! (`TrainingSession::builder().auto()`).
//!
//! The tuner must be **pure configuration**: building with `.auto()` and
//! training must be bit-identical to explicitly passing the chosen knobs to
//! a fresh builder — the probes only read, the applied choice only selects
//! among schedules that are themselves byte-identical in what they compute.
//! The choice itself must be deterministic (same workload, same probes, same
//! arg-min) and conservative (local backends untouched, lossy codecs only
//! when opted into).

mod common;

use dmbs::comm::{Codec, CostModel, Runtime};
use dmbs::gnn::{FeatureCacheConfig, Schedule, TrainingReport, TrainingSession, TuningOutcome};
use dmbs::graph::datasets::Dataset;
use dmbs::sampling::{BulkSamplerConfig, DistConfig, GraphSageSampler, ReplicatedBackend};
use std::sync::Arc;

fn tiny_dataset(seed: u64) -> Arc<Dataset> {
    common::arc_products_dataset(7, 16, 4, 0.5, Some(0.6), seed) // 128 vertices
}

/// A replicated backend on a comm-dominant cost model, so the schedule knobs
/// the tuner searches are load-bearing in the predicted epoch time.
fn backend(p: usize, c: usize) -> ReplicatedBackend {
    let runtime = Runtime::with_cost_model(p, CostModel::new(2.0e-4, 5.0e-8)).expect("runtime");
    ReplicatedBackend::with_runtime(runtime, DistConfig::new(p, c, BulkSamplerConfig::new(16, 2)))
        .expect("backend")
}

fn builder(
    dataset: &Arc<Dataset>,
    p: usize,
    c: usize,
) -> dmbs::gnn::SessionBuilder<GraphSageSampler, ReplicatedBackend> {
    TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
        .backend(backend(p, c))
        .hidden_dim(16)
        .learning_rate(0.05)
        .epochs(2)
        .seed(42)
}

fn assert_reports_identical(auto: &TrainingReport, explicit: &TrainingReport, label: &str) {
    assert_eq!(auto.epochs.len(), explicit.epochs.len(), "{label}: epoch counts");
    for (a, e) in auto.epochs.iter().zip(&explicit.epochs) {
        assert_eq!(
            a.mean_loss.to_bits(),
            e.mean_loss.to_bits(),
            "{label}: epoch {} losses diverged",
            a.epoch
        );
        assert_eq!(a.comm.words_sent, e.comm.words_sent, "{label}: words diverged");
        assert_eq!(a.comm.messages, e.comm.messages, "{label}: messages diverged");
        assert_eq!(a.comm.bytes_on_wire, e.comm.bytes_on_wire, "{label}: bytes diverged");
        assert_eq!(a.comm.words_saved, e.comm.words_saved, "{label}: saved words diverged");
    }
    assert_eq!(auto.test_accuracy, explicit.test_accuracy, "{label}: accuracy diverged");
}

/// The tentpole contract: `.auto()` trains bit-identically to explicitly
/// passing the chosen configuration to a fresh builder.
#[test]
fn auto_trains_bit_identically_to_explicit_choice() {
    let dataset = tiny_dataset(9);
    for (p, c) in [(2, 1), (4, 2)] {
        let auto_session = builder(&dataset, p, c).auto().expect("auto build");
        let outcome = auto_session.tuning_outcome().expect("distributed sessions are tuned");
        let choice = outcome.chosen().choice;

        let explicit = builder(&dataset, p, c)
            .feature_cache(choice.cache)
            .wire_codec(choice.codec)
            .overlap(choice.overlap)
            .build()
            .expect("explicit build");
        assert!(explicit.tuning_outcome().is_none(), "build() must not tune");

        let auto_report = auto_session.train().expect("auto train");
        let explicit_report = explicit.train().expect("explicit train");
        assert_reports_identical(&auto_report, &explicit_report, &format!("p={p} c={c}"));
    }
}

/// On a comm-dominant workload with duplicated frontiers, the arg-min picks
/// the pinned cache, and with `c > 1` the overlapped schedule whose probe
/// demonstrated hidden seconds.  The chosen candidate's predicted time is
/// never worse than the default's (candidate 0 of every grid), and the
/// cache saves words against the uncached candidate.
#[test]
fn auto_picks_the_communication_avoiding_schedule() {
    let dataset = tiny_dataset(9);
    let session = builder(&dataset, 4, 2).auto().expect("auto build");
    let outcome = session.tuning_outcome().expect("tuned");
    let chosen = outcome.chosen();
    assert_eq!(chosen.choice.cache, FeatureCacheConfig::Pinned, "pinned cache saves words");
    assert_eq!(chosen.choice.codec, Codec::Exact, "lossy codecs are opt-in");
    assert!(chosen.choice.overlap, "the overlap probe demonstrated hidden seconds");
    let default = &outcome.scored[0];
    assert_eq!(default.choice, Schedule::default());
    assert!(chosen.cost.total_s() <= default.cost.total_s());
    let off = outcome.scored.iter().find(|s| s.choice.cache == FeatureCacheConfig::Off);
    let off = off.expect("every grid enumerates the uncached schedule");
    assert!(chosen.cost.words < off.cost.words, "the cache must save words at (4, 2)");
}

/// The tuner's choice is deterministic: two independent `.auto()` builds of
/// the same workload score the same grid (counter-for-counter) and pick the
/// same candidate.
#[test]
fn auto_choice_is_deterministic() {
    let dataset = tiny_dataset(9);
    let first = builder(&dataset, 4, 2).auto().expect("first auto");
    let second = builder(&dataset, 4, 2).auto().expect("second auto");
    let a: &TuningOutcome = first.tuning_outcome().expect("tuned");
    let b: &TuningOutcome = second.tuning_outcome().expect("tuned");
    assert_eq!(a.chosen_index, b.chosen_index);
    assert_eq!(a.scored.len(), b.scored.len());
    for (x, y) in a.scored.iter().zip(&b.scored) {
        assert_eq!(x.choice, y.choice);
        // The counters are pure functions of the (deterministic) probe
        // books; only measured compute seconds may differ run-over-run.
        assert_eq!(x.cost.words, y.cost.words);
        assert_eq!(x.cost.messages, y.cost.messages);
        assert_eq!(x.cost.bytes_on_wire, y.cost.bytes_on_wire);
        assert_eq!(x.cost.comm_ns(), y.cost.comm_ns());
    }
}

/// Local backends have no communication to tune: `.auto()` returns the built
/// session untouched, with no tuning outcome, and it trains identically to a
/// plain `build()`.
#[test]
fn auto_leaves_local_backends_untouched() {
    let dataset = tiny_dataset(9);
    let make = || {
        TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(dmbs::sampling::LocalBackend::new(BulkSamplerConfig::new(16, 2)).unwrap())
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(2)
            .seed(42)
    };
    let auto_session = make().auto().expect("auto build");
    assert!(auto_session.tuning_outcome().is_none(), "nothing to tune locally");
    let auto_report = auto_session.train().expect("auto train");
    let plain_report = make().build().expect("build").train().expect("train");
    assert_reports_identical(&auto_report, &plain_report, "local");
}

/// Lossy codecs enter the grid only when the builder explicitly set one —
/// and then the tuner calibrates their real byte savings and applies the
/// cheapest, still training bit-identically to the explicit configuration.
#[test]
fn auto_admits_lossy_codecs_only_on_opt_in() {
    let dataset = tiny_dataset(9);
    let session = builder(&dataset, 4, 2).wire_codec(Codec::Int8).auto().expect("auto build");
    let outcome = session.tuning_outcome().expect("tuned");
    assert!(
        outcome.scored.iter().any(|s| s.choice.codec == Codec::Fp16)
            && outcome.scored.iter().any(|s| s.choice.codec == Codec::Int8),
        "opting into a lossy codec admits all lossy candidates"
    );
    let chosen = outcome.chosen();
    assert_eq!(chosen.choice.codec, Codec::Int8, "int8 ships the fewest bytes");
    assert!(chosen.cost.bytes_on_wire < 8 * chosen.cost.words);

    let explicit = builder(&dataset, 4, 2)
        .feature_cache(chosen.choice.cache)
        .wire_codec(chosen.choice.codec)
        .overlap(chosen.choice.overlap)
        .build()
        .expect("explicit build");
    let auto_report = session.train().expect("auto train");
    let explicit_report = explicit.train().expect("explicit train");
    assert_reports_identical(&auto_report, &explicit_report, "lossy opt-in");
}
