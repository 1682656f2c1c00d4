//! The sampler abstraction (Algorithm 1 of the paper) and bulk-sampling
//! configuration.

use crate::plan::{BulkSampleOutput, MinibatchSample};
use crate::{Result, SamplingError};
use dmbs_comm::{Communicator, ProcessGrid};
use dmbs_graph::partition::OneDPartition;
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
/// Implementations provide the sampler-specific pieces (the structure of
/// `Q^L`, the `NORM` step and the `EXTRACT` step); the shared machinery (ITS
/// sampling, bulk stacking) lives in the implementations of
/// [`Sampler::sample_bulk`].
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
    /// not objects).  `None` — the default — marks a sampler that cannot
    /// cross process boundaries; such samplers still work on every
    /// in-process backend.
    fn spec(&self) -> Option<crate::spec::SamplerSpec> {
        None
    }

    /// Samples the `L`-hop neighborhood of a single minibatch on a fully
    /// local adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SamplingError::InvalidConfig`] if the batch is empty
    /// or references vertices outside the graph.
    fn sample_minibatch(
        &self,
        adjacency: &CsrMatrix,
        batch: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<MinibatchSample>;

    /// Samples `batches.len()` minibatches in bulk by stacking their sampler
    /// matrices (Equation 1 of the paper) and running the matrix pipeline
    /// once per layer.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SamplingError::InvalidBulkConfig`] for zero `config`
    /// fields, and [`crate::SamplingError::InvalidConfig`] if any batch is
    /// empty or references vertices outside the graph.
    fn sample_bulk(
        &self,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        config: &BulkSamplerConfig,
        rng: &mut dyn RngCore,
    ) -> Result<BulkSampleOutput>;

    /// Samples this rank's process row's minibatches against a 1.5D
    /// graph-partitioned adjacency matrix (§5.2, Algorithm 2), from inside an
    /// SPMD region.  Called by
    /// [`Partitioned1p5dBackend`](crate::backend::Partitioned1p5dBackend) so
    /// that the backend stays generic over the sampling algorithm; every rank
    /// of the grid must participate with a consistent [`PartitionedContext`].
    ///
    /// The default implementation reports that the sampler has no
    /// graph-partitioned formulation.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::UnsupportedBackend`] by default; overriding
    /// samplers propagate configuration and collective errors.
    fn sample_partitioned(&self, ctx: &mut PartitionedContext<'_>) -> Result<BulkSampleOutput> {
        let _ = ctx;
        Err(SamplingError::UnsupportedBackend {
            sampler: self.name(),
            backend: "graph-partitioned-1.5d",
        })
    }
}

/// Everything a sampler needs to run its graph-partitioned formulation on one
/// rank of the `p/c × c` process grid: the communicator, the grid geometry,
/// this process row's block of `A`, the vertex partition, the minibatches
/// owned by this process row and the epoch seed.
#[derive(Debug)]
pub struct PartitionedContext<'a> {
    /// Communicator of the executing rank.
    pub comm: &'a mut Communicator,
    /// The `p/c × c` process grid.
    pub grid: &'a ProcessGrid,
    /// The block row of the adjacency matrix owned by this rank's process
    /// row.
    pub my_a_block: &'a CsrMatrix,
    /// 1D partition of the graph's vertices into `p/c` block rows.
    pub vertex_partition: &'a OneDPartition,
    /// The minibatches owned by this rank's process row.
    pub my_batches: &'a [Vec<usize>],
    /// Seed shared by every rank; samplers derive per-process-row streams
    /// from it so sampling stays replicated within a process row.
    pub seed: u64,
    /// Shared-memory parallelism of this rank's local matrix kernels.
    pub parallelism: Parallelism,
}

/// Validates that every batch is non-empty and references vertices inside the
/// graph.  Shared by all sampler implementations.
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
