//! The `Parallelism` knob must never change *what* is computed — only how
//! fast.  These tests pin that contract end to end: sampled epochs, streamed
//! minibatches, propagation and trained models are byte-identical at 1, 2
//! and 8 threads across every backend.

mod common;

use common::random_batches;
use dmbs::gnn::{Minibatch, SageModel, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::graph::generators::{rmat, RmatConfig};
use dmbs::matrix::pool::Parallelism;
use dmbs::matrix::CsrMatrix;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, FastGcnSampler, GraphSageSampler, LadiesSampler, LocalBackend,
    Partitioned1p5dBackend, ReplicatedBackend, Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_dataset(seed: u64) -> Dataset {
    common::products_dataset(7, 8, 4, 0.5, None, seed) // 128 vertices
}

#[test]
fn local_backend_epochs_are_thread_count_invariant() {
    let graph = rmat(&RmatConfig::new(7, 6), &mut StdRng::seed_from_u64(3)).unwrap();
    let a = graph.adjacency();
    let batches = random_batches(graph.num_vertices(), 6, 8);
    fn check<S: Sampler + Sync>(name: &str, sampler: &S, a: &CsrMatrix, batches: &[Vec<usize>]) {
        let epoch = |threads: usize| {
            let bulk = BulkSamplerConfig::new(8, 3).with_parallelism(Parallelism::new(threads));
            let backend = LocalBackend::new(bulk).unwrap();
            backend.sample_epoch(sampler, a, batches, 11).unwrap().output.minibatches
        };
        let serial = epoch(1);
        for threads in THREAD_COUNTS {
            assert_eq!(
                epoch(threads),
                serial,
                "{name} on the local backend diverged at {threads} threads"
            );
        }
    }
    // Node-wise and both layer-wise samplers: the layer-wise ones run the
    // probability SpGEMM, ITS on long rows and the masked column extraction.
    check("sage", &GraphSageSampler::new(vec![4, 3]), a, &batches);
    check("ladies", &LadiesSampler::new(2, 12), a, &batches);
    check("fastgcn", &FastGcnSampler::new(2, 12), a, &batches);
}

#[test]
fn replicated_and_partitioned_backends_are_thread_count_invariant() {
    let graph = rmat(&RmatConfig::new(7, 6), &mut StdRng::seed_from_u64(4)).unwrap();
    let a = graph.adjacency();
    let batches = random_batches(graph.num_vertices(), 6, 8);
    let sage = GraphSageSampler::new(vec![4, 3]);
    let ladies = LadiesSampler::new(2, 12);

    let bulk = BulkSamplerConfig::new(8, 6);
    let dist = DistConfig::new(4, 2, bulk);
    let rep_serial =
        ReplicatedBackend::new(dist).unwrap().sample_epoch(&sage, a, &batches, 5).unwrap();
    let part_serial =
        Partitioned1p5dBackend::new(dist).unwrap().sample_epoch(&ladies, a, &batches, 5).unwrap();
    for threads in THREAD_COUNTS {
        let dist = DistConfig::new(4, 2, bulk.with_parallelism(Parallelism::new(threads)));
        let rep =
            ReplicatedBackend::new(dist).unwrap().sample_epoch(&sage, a, &batches, 5).unwrap();
        assert_eq!(
            rep.output.minibatches, rep_serial.output.minibatches,
            "replicated backend diverged at {threads} threads"
        );
        let part = Partitioned1p5dBackend::new(dist)
            .unwrap()
            .sample_epoch(&ladies, a, &batches, 5)
            .unwrap();
        assert_eq!(
            part.output.minibatches, part_serial.output.minibatches,
            "partitioned backend diverged at {threads} threads"
        );
    }
}

/// A local backend of shape `(16, 4)` whose kernels run on `threads`.
fn local_backend(threads: usize) -> LocalBackend {
    LocalBackend::new(BulkSamplerConfig::new(16, 4).with_parallelism(Parallelism::new(threads)))
        .unwrap()
}

fn streamed_epochs(threads: usize) -> Vec<Vec<Minibatch>> {
    let session = TrainingSession::builder()
        .dataset(tiny_dataset(9))
        .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
        .backend(local_backend(threads))
        .hidden_dim(16)
        .epochs(2)
        .seed(42)
        .build()
        .unwrap();
    (0..2)
        .map(|epoch| session.stream(epoch).unwrap().collect::<Result<Vec<_>, _>>().unwrap())
        .collect()
}

#[test]
fn stream_is_invariant_under_parallelism() {
    // The ISSUE contract: MinibatchStream epochs are invariant under the
    // `Parallelism` setting — prefetch plus parallel kernels change nothing.
    let serial = streamed_epochs(1);
    for threads in [2usize, 8] {
        let streamed = streamed_epochs(threads);
        assert_eq!(streamed, serial, "stream diverged at {threads} threads");
    }
}

#[test]
fn training_is_invariant_under_parallelism() {
    let train = |threads: usize| {
        TrainingSession::builder()
            .dataset(tiny_dataset(13))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(local_backend(threads))
            .hidden_dim(16)
            .epochs(1)
            .seed(7)
            .build()
            .unwrap()
            .train()
            .unwrap()
    };
    let serial = train(1);
    for threads in [2usize, 8] {
        let report = train(threads);
        assert_eq!(report.epochs.len(), serial.epochs.len());
        for (got, want) in report.epochs.iter().zip(&serial.epochs) {
            assert_eq!(got.mean_loss, want.mean_loss, "loss diverged at {threads} threads");
        }
        assert_eq!(report.test_accuracy, serial.test_accuracy);
    }
}

/// Forward and backward propagation — the aggregation SpMMs and the row-
/// blocked dense products — give the same loss, logits and gradients, bit
/// for bit, at every thread count.
#[test]
fn propagation_is_thread_count_invariant() {
    let data = tiny_dataset(17);
    let batch = data.train_set.clone();
    let sample = GraphSageSampler::new(vec![5, 5])
        .with_self_loops()
        .sample_minibatch(data.graph.adjacency(), &batch, &mut StdRng::seed_from_u64(2))
        .unwrap();
    let input = data.graph.features().unwrap().gather_rows(sample.input_vertices()).unwrap();
    let labels: Vec<usize> = batch.iter().map(|&v| data.graph.labels().unwrap()[v]).collect();
    let model = SageModel::new(8, 16, 4, 2, &mut StdRng::seed_from_u64(3)).unwrap();
    let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let run = |threads: usize| {
        let model = model.clone().with_parallelism(Parallelism::new(threads));
        let (loss, logits, grads) = model.loss_and_gradients(&sample, &input, &labels).unwrap();
        (loss.to_bits(), bits(logits.as_slice()), bits(&SageModel::flatten_grads(&grads)))
    };
    let serial = run(1);
    for threads in THREAD_COUNTS {
        assert_eq!(run(threads), serial, "propagation diverged at {threads} threads");
    }
}
