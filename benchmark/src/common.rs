//! Pieces every workload shares: arguments, the outcome of a run, dataset
//! construction, repeated set-up timing, and the replayed training step.

use crate::spec::{Sizes, LEARNING_RATE, NUM_CLASSES, SETUP_REPS, TRAIN_FRACTION};
use crate::stats::median;
use crate::trace::Recorder;
use dmbs::gnn::loss::cross_entropy;
use dmbs::gnn::optim::{Optimizer, Sgd};
use dmbs::gnn::SageModel;
use dmbs::graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs::matrix::DenseMatrix;
use dmbs::sampling::{GraphSageSampler, MinibatchSample};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one run reports: the contract's result line, field for field.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Where traces and the full reports go: `benchmark/out/` under the
/// repository root, which must be the working directory (the rank processes
/// of `dist_train` rendezvous through a *relative* socket directory there,
/// which keeps the socket paths short and inside the checkout).
pub fn out_dir() -> Result<PathBuf, String> {
    if !std::path::Path::new("benchmark/Cargo.toml").exists() {
        return Err("run the benchmark from the repository root (benchmark/Cargo.toml not found)"
            .to_string());
    }
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).map_err(err)?;
    Ok(dir)
}

/// `DatasetConfig::products_like(scale)` with the workload's dimensions; the
/// RNG is seeded with `--seed`, so the library sees only generated inputs.
pub fn dataset(sizes: &Sizes, seed: u64) -> Result<Dataset, String> {
    let mut config = DatasetConfig::products_like(sizes.scale);
    config.feature_dim = sizes.feature_dim;
    config.num_classes = NUM_CLASSES;
    config.train_fraction = TRAIN_FRACTION;
    build_dataset(&config, &mut StdRng::seed_from_u64(seed)).map_err(err)
}

/// GraphSAGE with the workload's fan-outs and self-loops (which the model's
/// forward pass needs).
pub fn sage_sampler(sizes: &Sizes) -> GraphSageSampler {
    GraphSageSampler::new(sizes.fanouts.clone()).with_self_loops()
}

/// Sets up `SETUP_REPS` times (once under `--smoke`) and returns the median
/// seconds with the last set-up's product.  Earlier products are dropped
/// before the next set-up starts, so peak memory sees one at a time.
pub fn timed_setups<T>(
    smoke: bool,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let reps = if smoke { 1 } else { SETUP_REPS };
    let mut seconds = Vec::with_capacity(reps);
    let mut product = None;
    for _ in 0..reps {
        drop(product.take());
        let start = Instant::now();
        let built = setup()?;
        seconds.push(start.elapsed().as_secs_f64());
        product = Some(built);
    }
    Ok((median(&seconds), product.expect("at least one set-up")))
}

/// The training step of `TrainingSession::train()` replayed from public
/// functions — `gather_rows` → `forward` → loss → `backward` → `Sgd::step` —
/// with the model seeded as the session seeds it, so the replay reproduces
/// `train()`'s losses (checked as `trace.loss_matches`).
pub struct StepLoop {
    pub model: SageModel,
    optimizer: Sgd,
}

impl StepLoop {
    pub fn new(dataset: &Dataset, sizes: &Sizes, seed: u64) -> Result<StepLoop, String> {
        let features = dataset.graph.features().ok_or("dataset has no features")?;
        let model = SageModel::new(
            features.cols(),
            sizes.hidden,
            dataset.graph.num_classes(),
            sizes.fanouts.len(),
            &mut StdRng::seed_from_u64(seed),
        )
        .map_err(err)?;
        Ok(StepLoop { model, optimizer: Sgd::new(LEARNING_RATE) })
    }

    /// Forward pass and loss under a `gnn.forward` span, backward under
    /// `gnn.backward`; returns the loss and the gradients.
    pub fn loss_and_gradients(
        &self,
        rec: &mut Recorder,
        dataset: &Dataset,
        sample: &MinibatchSample,
        input: &DenseMatrix,
        id: u64,
    ) -> Result<(f64, Vec<DenseMatrix>), String> {
        let labels = dataset.graph.labels().ok_or("dataset has no labels")?;
        let batch_labels: Vec<usize> = sample.batch.iter().map(|&v| labels[v]).collect();
        let (loss, d_logits, cache) = rec.span("gnn.forward", id, || {
            let (logits, cache) = self.model.forward(sample, input).map_err(err)?;
            let (loss, d_logits) = cross_entropy(&logits, &batch_labels).map_err(err)?;
            Ok::<_, String>((loss, d_logits, cache))
        })?;
        let grads =
            rec.span("gnn.backward", id, || self.model.backward(&cache, &d_logits).map_err(err))?;
        Ok((loss, grads))
    }

    pub fn apply(
        &mut self,
        rec: &mut Recorder,
        grads: &[DenseMatrix],
        id: u64,
    ) -> Result<(), String> {
        rec.span("gnn.optim_step", id, || {
            self.optimizer.step(self.model.parameters_mut(), grads).map_err(err)
        })
    }

    /// One single-device step: local feature gather, then the above.
    pub fn step(
        &mut self,
        rec: &mut Recorder,
        dataset: &Dataset,
        sample: &MinibatchSample,
        id: u64,
    ) -> Result<f64, String> {
        let features = dataset.graph.features().ok_or("dataset has no features")?;
        let input = rec.span("gnn.gather", id, || {
            features.gather_rows(sample.input_vertices()).map_err(err)
        })?;
        let (loss, grads) = self.loss_and_gradients(rec, dataset, sample, &input, id)?;
        self.apply(rec, &grads, id)?;
        Ok(loss)
    }
}

/// `|a − b| ≤ 1e-9·|b|`: the tolerance within which a replay "reproduces" a
/// loss.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * b.abs()
}
