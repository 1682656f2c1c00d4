//! Baseline samplers the paper compares against.
//!
//! * [`PerVertexSageSampler`] — a Quiver/DGL-style per-vertex GraphSAGE
//!   sampler: it walks each frontier vertex's neighbor list and draws `s`
//!   neighbors directly, one minibatch at a time, with no matrix operations
//!   and no bulk amortization.  It produces the same [`MinibatchSample`]
//!   structure as the matrix samplers so the training pipeline can run on
//!   either.
//! * [`ladies_reference`] — a straightforward per-batch CPU LADIES
//!   implementation, the reference the paper's §8.2.2 compares its
//!   distributed LADIES against.

use crate::its::its_without_replacement;
use crate::plan::{BulkSampleOutput, LayerSample, MinibatchSample};
use crate::sampler::{validate_batches, BulkSamplerConfig, Sampler};
use crate::{Result, SamplingError};
use dmbs_comm::{Phase, PhaseProfile};
use dmbs_matrix::CsrMatrix;
use rand::{Rng, RngCore};

/// A Quiver-style per-vertex GraphSAGE sampler: no matrices, no bulk
/// amortization — each minibatch is sampled on its own by walking neighbor
/// lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PerVertexSageSampler {
    fanouts: Vec<usize>,
    include_self_loops: bool,
}

impl PerVertexSageSampler {
    /// Creates a per-vertex sampler with the given per-step fanouts
    /// (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains zero.
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "per-vertex SAGE needs at least one layer fanout");
        assert!(fanouts.iter().all(|&s| s > 0), "fanouts must be positive");
        PerVertexSageSampler { fanouts, include_self_loops: false }
    }

    /// Adds self-loops like [`crate::GraphSageSampler::with_self_loops`].
    pub fn with_self_loops(mut self) -> Self {
        self.include_self_loops = true;
        self
    }
}

impl Sampler for PerVertexSageSampler {
    fn name(&self) -> &'static str {
        "per-vertex-sage"
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn fanout(&self, step: usize) -> usize {
        self.fanouts[step]
    }

    fn sample_minibatch(
        &self,
        adjacency: &CsrMatrix,
        batch: &[usize],
        rng: &mut dyn RngCore,
    ) -> Result<MinibatchSample> {
        let n = adjacency.rows();
        validate_batches(std::slice::from_ref(&batch.to_vec()), n)?;

        let mut frontier: Vec<usize> = batch.to_vec();
        let mut layers = Vec::with_capacity(self.fanouts.len());
        for &s in &self.fanouts {
            // Per-vertex neighbor sampling (hash-set based, like Quiver/DGL).
            let mut next: Vec<usize> = Vec::new();
            let mut col_of: std::collections::HashMap<usize, usize> =
                std::collections::HashMap::new();
            let mut edges: Vec<(usize, usize)> = Vec::new();
            for (i, &v) in frontier.iter().enumerate() {
                let neighbors = adjacency.row_indices(v);
                let picked: Vec<usize> = if neighbors.len() <= s {
                    (0..neighbors.len()).collect()
                } else {
                    // Uniform without replacement by index.
                    let weights = vec![1.0; neighbors.len()];
                    its_without_replacement(&weights, s, rng)?
                };
                for pos in picked {
                    let u = neighbors[pos];
                    let col = *col_of.entry(u).or_insert_with(|| {
                        next.push(u);
                        next.len() - 1
                    });
                    edges.push((i, col));
                }
                if self.include_self_loops {
                    let col = *col_of.entry(v).or_insert_with(|| {
                        next.push(v);
                        next.len() - 1
                    });
                    edges.push((i, col));
                }
            }
            let a_l = CsrMatrix::from_edges(frontier.len(), next.len(), &edges)?;
            layers.push(LayerSample::new(frontier.clone(), next.clone(), a_l));
            frontier = next;
        }
        layers.reverse();
        Ok(MinibatchSample { batch: batch.to_vec(), layers })
    }

    fn sample_bulk(
        &self,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        config: &BulkSamplerConfig,
        rng: &mut dyn RngCore,
    ) -> Result<BulkSampleOutput> {
        config.validate()?;
        validate_batches(batches, adjacency.rows())?;
        let mut profile = PhaseProfile::new();
        let mut minibatches = Vec::with_capacity(batches.len());
        for batch in batches {
            let mb = profile
                .time_compute(Phase::Sampling, || self.sample_minibatch(adjacency, batch, rng))?;
            minibatches.push(mb);
        }
        Ok(BulkSampleOutput { minibatches, profile, comm_stats: Default::default() })
    }
}

/// Reference per-batch CPU LADIES implementation (no matrices, no bulk): for
/// each batch it accumulates neighbor counts with a hash map, squares and
/// normalizes them, samples `s` support vertices and gathers the induced
/// bipartite edges.
///
/// # Errors
///
/// Returns [`SamplingError::InvalidConfig`] for empty/out-of-range batches or
/// `s == 0`.
pub fn ladies_reference<R: Rng + ?Sized>(
    adjacency: &CsrMatrix,
    batches: &[Vec<usize>],
    num_layers: usize,
    s: usize,
    rng: &mut R,
) -> Result<BulkSampleOutput> {
    if s == 0 {
        return Err(SamplingError::InvalidConfig("samples per layer must be positive".into()));
    }
    if num_layers == 0 {
        return Err(SamplingError::InvalidConfig("num_layers must be positive".into()));
    }
    let n = adjacency.rows();
    validate_batches(batches, n)?;
    let mut profile = PhaseProfile::new();
    let mut minibatches = Vec::with_capacity(batches.len());
    for batch in batches {
        let mut frontier = batch.clone();
        let mut layers = Vec::with_capacity(num_layers);
        for _ in 0..num_layers {
            // Aggregated neighborhood counts e_v.
            let counts = profile.time_compute(Phase::Probability, || {
                let mut counts: std::collections::HashMap<usize, f64> =
                    std::collections::HashMap::new();
                for &v in &frontier {
                    for &u in adjacency.row_indices(v) {
                        *counts.entry(u).or_insert(0.0) += 1.0;
                    }
                }
                counts
            });
            let (support, weights): (Vec<usize>, Vec<f64>) =
                counts.iter().map(|(&v, &e)| (v, e * e)).unzip();
            if support.is_empty() {
                layers.push(LayerSample::new(
                    frontier.clone(),
                    Vec::new(),
                    CsrMatrix::zeros(frontier.len(), 0),
                ));
                continue;
            }
            let picked = profile
                .time_compute(Phase::Sampling, || its_without_replacement(&weights, s, rng))?;
            let mut sampled: Vec<usize> = picked.into_iter().map(|i| support[i]).collect();
            sampled.sort_unstable();
            let layer = profile.time_compute(Phase::Extraction, || -> Result<LayerSample> {
                let rows = adjacency.gather_rows(&frontier)?;
                let a_s = rows.select_columns(&sampled)?;
                Ok(LayerSample::new(frontier.clone(), sampled.clone(), a_s))
            })?;
            frontier = layer.cols.clone();
            layers.push(layer);
        }
        layers.reverse();
        minibatches.push(MinibatchSample { batch: batch.clone(), layers });
    }
    Ok(BulkSampleOutput { minibatches, profile, comm_stats: Default::default() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphSageSampler, LadiesSampler};
    use dmbs_graph::generators::figure1_example;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adjacency() -> CsrMatrix {
        figure1_example().adjacency().clone()
    }

    #[test]
    fn per_vertex_sampler_respects_fanout_and_edges() {
        let a = adjacency();
        let sampler = PerVertexSageSampler::new(vec![2, 2]);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        assert_eq!(sample.num_layers(), 2);
        assert!(sample.frontiers_are_chained());
        for layer in &sample.layers {
            for r in 0..layer.adjacency.rows() {
                assert!(layer.adjacency.row_nnz(r) <= 2);
            }
            for (r, c, _) in layer.adjacency.iter() {
                assert_eq!(a.get(layer.rows[r], layer.cols[c]), 1.0);
            }
        }
    }

    #[test]
    fn per_vertex_matches_matrix_sampler_structure() {
        // With fanout larger than every degree both samplers must return the
        // full 1-hop neighborhood (identical column sets).
        let a = adjacency();
        let mut rng1 = StdRng::seed_from_u64(2);
        let mut rng2 = StdRng::seed_from_u64(3);
        let matrix =
            GraphSageSampler::new(vec![10]).sample_minibatch(&a, &[1, 5], &mut rng1).unwrap();
        let pervertex =
            PerVertexSageSampler::new(vec![10]).sample_minibatch(&a, &[1, 5], &mut rng2).unwrap();
        let mut m_cols = matrix.layers[0].cols.clone();
        let mut p_cols = pervertex.layers[0].cols.clone();
        m_cols.sort_unstable();
        p_cols.sort_unstable();
        assert_eq!(m_cols, p_cols);
        assert_eq!(matrix.layers[0].num_edges(), pervertex.layers[0].num_edges());
    }

    #[test]
    fn per_vertex_self_loops() {
        let a = adjacency();
        let sampler = PerVertexSageSampler::new(vec![1]).with_self_loops();
        let mut rng = StdRng::seed_from_u64(5);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        for layer in &sample.layers {
            for r in &layer.rows {
                assert!(layer.cols.contains(r));
            }
        }
    }

    #[test]
    fn per_vertex_validation_and_metadata() {
        let a = adjacency();
        let sampler = PerVertexSageSampler::new(vec![2]);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(sampler.sample_minibatch(&a, &[99], &mut rng).is_err());
        assert!(sampler.sample_bulk(&a, &[], &BulkSamplerConfig::default(), &mut rng).is_err());
        assert_eq!(sampler.name(), "per-vertex-sage");
        assert_eq!(sampler.num_layers(), 1);
        assert_eq!(sampler.fanout(0), 2);
    }

    #[test]
    fn ladies_reference_matches_matrix_ladies_support() {
        // With s covering the whole aggregated neighborhood, both the
        // reference and the matrix implementation must return the same
        // support set and the same edges.
        let a = adjacency();
        let mut rng1 = StdRng::seed_from_u64(7);
        let mut rng2 = StdRng::seed_from_u64(8);
        let reference = ladies_reference(&a, &[vec![1, 5]], 1, 10, &mut rng1).unwrap();
        let matrix = LadiesSampler::new(1, 10).sample_minibatch(&a, &[1, 5], &mut rng2).unwrap();
        let mut ref_cols = reference.minibatches[0].layers[0].cols.clone();
        let mut mat_cols = matrix.layers[0].cols.clone();
        ref_cols.sort_unstable();
        mat_cols.sort_unstable();
        assert_eq!(ref_cols, mat_cols);
        assert_eq!(reference.minibatches[0].layers[0].num_edges(), matrix.layers[0].num_edges());
    }

    #[test]
    fn ladies_reference_validation() {
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(ladies_reference(&a, &[vec![1]], 1, 0, &mut rng).is_err());
        assert!(ladies_reference(&a, &[vec![1]], 0, 2, &mut rng).is_err());
        assert!(ladies_reference(&a, &[vec![77]], 1, 2, &mut rng).is_err());
        assert!(ladies_reference(&a, &[], 1, 2, &mut rng).is_err());
    }
}
