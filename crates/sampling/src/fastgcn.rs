//! FastGCN layer-wise importance sampling.
//!
//! FastGCN (§2.2.2) samples `s` vertices per layer from a *global*
//! distribution proportional to (squared) vertex degree, independent of the
//! current batch.  It avoids neighborhood explosion like LADIES but may pick
//! vertices outside the aggregated neighborhood, which hurts accuracy — the
//! trade-off the paper describes.  It is included as the "additional sampling
//! algorithm" the framework can express beyond GraphSAGE and LADIES.
//!
//! This module holds the sampler's parameters; the layer-wise driver of the
//! crate's one pipeline runs the steps and the importance law, locally and on
//! the 1.5D grid alike.  Because the law never depends on the frontier, every
//! backend draws one seeded stream per sampling step and takes each batch's
//! picks from it in batch order.

use crate::sampler::Sampler;

/// The FastGCN layer-wise importance sampler.
///
/// # Example
///
/// ```
/// use dmbs_sampling::{FastGcnSampler, Sampler};
/// use dmbs_graph::generators::figure1_example;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
/// let sampler = FastGcnSampler::new(1, 3);
/// let graph = figure1_example();
/// let mut rng = StdRng::seed_from_u64(0);
/// let sample = sampler.sample_minibatch(graph.adjacency(), &[1, 5], &mut rng)?;
/// assert_eq!(sample.layers[0].cols.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastGcnSampler {
    num_layers: usize,
    samples_per_layer: usize,
}

impl FastGcnSampler {
    /// Creates a FastGCN sampler with `num_layers` layers and `s` sampled
    /// vertices per layer.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0` or `samples_per_layer == 0`.
    pub fn new(num_layers: usize, samples_per_layer: usize) -> Self {
        assert!(num_layers > 0, "FastGCN needs at least one layer");
        assert!(samples_per_layer > 0, "samples per layer must be positive");
        FastGcnSampler { num_layers, samples_per_layer }
    }
}

impl Sampler for FastGcnSampler {
    fn spec(&self) -> Option<crate::spec::SamplerSpec> {
        Some(crate::spec::SamplerSpec::FastGcn {
            num_layers: self.num_layers,
            samples_per_layer: self.samples_per_layer,
        })
    }

    fn name(&self) -> &'static str {
        "fastgcn"
    }

    fn num_layers(&self) -> usize {
        self.num_layers
    }

    fn fanout(&self, _step: usize) -> usize {
        self.samples_per_layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::BulkSamplerConfig;
    use dmbs_graph::generators::{figure1_example, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        FastGcnSampler::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_panics() {
        FastGcnSampler::new(1, 0);
    }

    #[test]
    fn sampled_edges_are_real_edges() {
        let g = figure1_example();
        let sampler = FastGcnSampler::new(2, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample_minibatch(g.adjacency(), &[1, 5], &mut rng).unwrap();
        assert_eq!(sample.num_layers(), 2);
        assert!(sample.frontiers_are_chained());
        for layer in &sample.layers {
            for (r, c, _) in layer.adjacency.iter() {
                assert_eq!(g.adjacency().get(layer.rows[r], layer.cols[c]), 1.0);
            }
        }
    }

    #[test]
    fn hub_vertex_dominates_sampling_on_star() {
        // On a star graph the hub has in-degree n-1, so it is picked almost
        // always when s = 1.
        let g = star(12).unwrap();
        let sampler = FastGcnSampler::new(1, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let mut hub_count = 0;
        for _ in 0..200 {
            let sample = sampler.sample_minibatch(g.adjacency(), &[3], &mut rng).unwrap();
            if sample.layers[0].cols == vec![0] {
                hub_count += 1;
            }
        }
        // P(hub) = 121/132 ≈ 0.92, so ~183 of 200 draws in expectation; use a
        // loose lower bound to keep the test robust.
        assert!(hub_count > 150, "hub sampled only {hub_count}/200 times");
    }

    #[test]
    fn samples_may_fall_outside_neighborhood() {
        // FastGCN ignores the batch when sampling, so on the Figure 1 graph a
        // vertex that is not a neighbor of the batch can be selected (the
        // accuracy caveat the paper mentions).  With s = 5 out of 6 vertices,
        // at least one non-neighbor of {0} must be present.
        let g = figure1_example();
        let sampler = FastGcnSampler::new(1, 5);
        let mut rng = StdRng::seed_from_u64(3);
        let sample = sampler.sample_minibatch(g.adjacency(), &[0], &mut rng).unwrap();
        let non_neighbors: Vec<usize> = sample.layers[0]
            .cols
            .iter()
            .copied()
            .filter(|&v| !g.neighbors(0).contains(&v))
            .collect();
        assert!(!non_neighbors.is_empty());
    }

    #[test]
    fn stored_zero_adjacency_entries_follow_csc_formulation() {
        // Since the extraction rewire, FastGCN's column extraction uses the
        // paper's CSC-selection SpGEMM semantics: an explicitly-stored
        // zero-weight edge is dropped from the sampled block (the former
        // `select_columns` retained it).  Pin that as deliberate behavior.
        use dmbs_matrix::{CooMatrix, CscMatrix, CsrMatrix};
        let adjacency = CsrMatrix::from_coo(
            &CooMatrix::from_triples(
                4,
                4,
                // (2, 1) gives vertex 1 a positive in-degree: ITS draws only
                // from positive importance weights, and vertex 1 must be
                // sampled for its stored-zero edge to be looked at.
                vec![(0, 1, 0.0), (0, 2, 1.0), (1, 0, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 2, 1.0)],
            )
            .unwrap(),
        );
        assert_eq!(adjacency.row_nnz(0), 2, "explicit zero must be stored in A");
        let sampler = FastGcnSampler::new(1, 4);
        let mut rng = StdRng::seed_from_u64(6);
        let sample = sampler.sample_minibatch(&adjacency, &[0], &mut rng).unwrap();
        let layer = &sample.layers[0];
        // Byte-identical to the CSC formulation on the same frontier/cols.
        let expected = CscMatrix::selection(4, &layer.cols)
            .left_multiply(&adjacency.gather_rows(&layer.rows).unwrap())
            .unwrap();
        assert_eq!(layer.adjacency, expected);
        // The stored zero at (0, 1) is gone from the sampled block.
        let zero_col = layer.cols.iter().position(|&c| c == 1).unwrap();
        assert!(!layer.adjacency.row_indices(0).contains(&zero_col));
    }

    #[test]
    fn bulk_and_validation() {
        let g = figure1_example();
        let sampler = FastGcnSampler::new(1, 2);
        let mut rng = StdRng::seed_from_u64(4);
        let out = sampler
            .sample_bulk(
                g.adjacency(),
                &[vec![0], vec![1]],
                &BulkSamplerConfig::new(1, 2),
                &mut rng,
            )
            .unwrap();
        assert_eq!(out.num_batches(), 2);
        assert!(sampler
            .sample_bulk(g.adjacency(), &[], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
        assert!(sampler
            .sample_bulk(g.adjacency(), &[vec![100]], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
    }

    #[test]
    fn trait_metadata() {
        let s = FastGcnSampler::new(2, 64);
        assert_eq!(s.name(), "fastgcn");
        assert_eq!(s.num_layers(), 2);
        assert_eq!(s.fanout(1), 64);
    }
}
