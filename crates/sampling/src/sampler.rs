//! The sampler abstraction (Algorithm 1 of the paper) and bulk-sampling
//! configuration.  A matrix sampler supplies only its metadata and its
//! [`SamplerSpec`]; sampling itself is the one pipeline every sampler and
//! every backend shares.

use crate::pipeline::{self, RowSource};
use crate::plan::{BulkSampleOutput, MinibatchSample};
use crate::spec::SamplerSpec;
use crate::{Result, SamplingError};
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::CsrMatrix;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Configuration of the bulk sampling step (§4.1.4, §6.1).
///
/// `batch_size` is `b` and `bulk_size` is `k`: the number of minibatches whose
/// `Q`, `P` and `A^l` matrices are vertically stacked and processed by a
/// single sequence of matrix operations.  `parallelism` is the shared-memory
/// worker count those matrix operations (SpGEMM, per-row ITS) run with; it
/// does not change *what* is sampled, only how fast (the kernels are
/// byte-identical at every thread count).  Their scratch (dense
/// accumulators, marker arrays, column masks) always comes from the
/// thread-local [`dmbs_matrix::workspace::SpgemmWorkspace`], reused across
/// layers, minibatches and epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BulkSamplerConfig {
    /// Minibatch size `b`.
    pub batch_size: usize,
    /// Number of minibatches `k` sampled in one bulk operation.
    pub bulk_size: usize,
    /// Shared-memory parallelism of the bulk matrix kernels (default:
    /// serial).
    pub parallelism: Parallelism,
}

impl BulkSamplerConfig {
    /// Creates a configuration with batch size `b` and bulk minibatch count
    /// `k`, running the matrix kernels serially.
    /// Use [`BulkSamplerConfig::validate`] (or any `sample_bulk` call, which
    /// validates implicitly) to reject zero values.
    pub fn new(batch_size: usize, bulk_size: usize) -> Self {
        BulkSamplerConfig { batch_size, bulk_size, parallelism: Parallelism::serial() }
    }

    /// Returns this configuration with the bulk matrix kernels (SpGEMM,
    /// per-row ITS) running on `parallelism` worker threads.
    ///
    /// # Example
    ///
    /// ```
    /// use dmbs_matrix::pool::Parallelism;
    /// use dmbs_sampling::BulkSamplerConfig;
    ///
    /// let bulk = BulkSamplerConfig::new(1024, 4).with_parallelism(Parallelism::new(8));
    /// assert_eq!(bulk.parallelism.threads(), 8);
    /// ```
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Rejects zero `batch_size` / `bulk_size` with a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::InvalidBulkConfig`] naming the zero field.
    pub fn validate(&self) -> Result<()> {
        if self.batch_size == 0 {
            return Err(SamplingError::InvalidBulkConfig { field: "batch_size" });
        }
        if self.bulk_size == 0 {
            return Err(SamplingError::InvalidBulkConfig { field: "bulk_size" });
        }
        Ok(())
    }
}

impl Default for BulkSamplerConfig {
    fn default() -> Self {
        // The paper's GraphSAGE defaults (Table 4): b = 1024; k is chosen per
        // run, 1 bulk group by default.
        BulkSamplerConfig::new(1024, 1)
    }
}

/// A GNN minibatch sampling algorithm expressed through the matrix framework
/// of Algorithm 1.
///
/// A matrix sampler is described by its [`Sampler::spec`]: the spec names
/// the structure of `Q^L`, the `NORM` law and the `EXTRACT` step, and one
/// crate-private pipeline runs it — on a local adjacency matrix through the
/// provided [`Sampler::sample_bulk`], and on the 1.5D grid through
/// [`Partitioned1p5dBackend`](crate::Partitioned1p5dBackend).  A sampler
/// without a spec (such as the per-vertex baseline) overrides
/// [`Sampler::sample_bulk`] and [`Sampler::sample_minibatch`] itself and runs
/// on the local and replicated backends only.
pub trait Sampler {
    /// Short human-readable name (used by benchmark output).
    fn name(&self) -> &'static str;

    /// Number of GNN layers the sampler produces adjacency matrices for.
    fn num_layers(&self) -> usize;

    /// The sampling parameter `s` used at sampling step `step`
    /// (`step = 0` expands the batch vertices, `step = num_layers() - 1` is
    /// the innermost expansion).
    fn fanout(&self, step: usize) -> usize;

    /// A serializable description from which an identical sampler can be
    /// rebuilt in another process (the Unix-socket transport ships specs,
    /// not objects), and the description the matrix pipeline runs.  `None`
    /// — the default — marks a sampler that cannot cross process boundaries
    /// and has no graph-partitioned formulation.
    fn spec(&self) -> Option<SamplerSpec> {
        None
    }

    /// Samples the `L`-hop neighborhood of a single minibatch on a fully
    /// local adjacency matrix: a one-batch [`Sampler::sample_bulk`].
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::InvalidBulkConfig`] if the batch is empty and
    /// [`SamplingError::InvalidConfig`] if it references vertices outside the
    /// graph.
    fn sample_minibatch(
        &self,
        adjacency: &CsrMatrix,
        batch: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<MinibatchSample> {
        let config = BulkSamplerConfig::new(batch.len(), 1);
        let mut out = self.sample_bulk(adjacency, &[batch.to_vec()], &config, rng)?;
        Ok(out.minibatches.remove(0))
    }

    /// Samples `batches.len()` minibatches in bulk by stacking their sampler
    /// matrices (Equation 1 of the paper) and running the matrix pipeline of
    /// [`Sampler::spec`] once per layer, on a fully local adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::InvalidBulkConfig`] for zero `config` fields,
    /// [`SamplingError::InvalidConfig`] for a non-square adjacency matrix or
    /// a batch that is empty or references vertices outside the graph, and
    /// [`SamplingError::UnsupportedBackend`] for a sampler without a spec.
    fn sample_bulk(
        &self,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        config: &BulkSamplerConfig,
        rng: &mut dyn RngCore,
    ) -> Result<BulkSampleOutput> {
        config.validate()?;
        check_square(adjacency)?;
        validate_batches(batches, adjacency.rows())?;
        let spec = self
            .spec()
            .ok_or(SamplingError::UnsupportedBackend { sampler: self.name(), backend: "local" })?;
        pipeline::sample(&spec, RowSource::Local { adjacency, rng }, batches, config.parallelism)
    }
}

/// Rejects a non-square adjacency matrix.
pub(crate) fn check_square(adjacency: &CsrMatrix) -> Result<()> {
    if adjacency.rows() != adjacency.cols() {
        return Err(SamplingError::InvalidConfig("adjacency matrix must be square".into()));
    }
    Ok(())
}

/// Validates that every batch is non-empty and references vertices inside the
/// graph.  Shared by every sampler and backend.
pub(crate) fn validate_batches(batches: &[Vec<usize>], num_vertices: usize) -> Result<()> {
    if batches.is_empty() {
        return Err(crate::SamplingError::InvalidConfig("at least one batch is required".into()));
    }
    for (i, batch) in batches.iter().enumerate() {
        if batch.is_empty() {
            return Err(crate::SamplingError::InvalidConfig(format!("batch {i} is empty")));
        }
        if let Some(&bad) = batch.iter().find(|&&v| v >= num_vertices) {
            return Err(crate::SamplingError::InvalidConfig(format!(
                "batch {i} references vertex {bad} outside the graph ({num_vertices} vertices)"
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_constructors() {
        let c = BulkSamplerConfig::new(512, 8);
        assert_eq!(c.batch_size, 512);
        assert_eq!(c.bulk_size, 8);
        let d = BulkSamplerConfig::default();
        assert_eq!(d.batch_size, 1024);
        assert_eq!(d.bulk_size, 1);
    }

    #[test]
    fn batch_validation() {
        assert!(validate_batches(&[], 10).is_err());
        assert!(validate_batches(&[vec![]], 10).is_err());
        assert!(validate_batches(&[vec![1, 11]], 10).is_err());
        assert!(validate_batches(&[vec![0, 9], vec![3]], 10).is_ok());
    }
}
