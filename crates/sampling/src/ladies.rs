//! LADIES layer-wise dependency sampling expressed as matrix operations
//! (§4.2).
//!
//! For one minibatch, `Q^L ∈ {0,1}^{1×n}` is a single indicator row with a
//! nonzero per batch vertex.  `P ← Q^L A` counts, per column, how many batch
//! vertices point at it (`e_v`); the LADIES `NORM` step squares these counts
//! and normalizes, giving `p_v = e_v² / Σ_u e_u²`.  ITS draws `s` distinct
//! vertices from this single distribution, and extraction keeps *every* edge
//! between the batch vertices and the sampled vertices via the row/column
//! extraction product `A_S ← Q_R · A · Q_C`.
//!
//! Bulk sampling stacks the indicator rows of `k` minibatches into a `k×n`
//! matrix for the probability step, stacks the `Q_R` matrices for row
//! extraction, and performs the column extraction as a batch of smaller
//! products, exactly as §4.2.4 / §8.2.2 describe.
//!
//! This module holds the sampler's parameters; the layer-wise driver of the
//! crate's one pipeline runs the steps and the LADIES law, locally and on the
//! 1.5D grid alike.

use crate::sampler::Sampler;

/// The LADIES layer-wise sampler.
///
/// # Example
///
/// ```
/// use dmbs_sampling::{LadiesSampler, Sampler};
/// use dmbs_graph::generators::figure1_example;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
/// let sampler = LadiesSampler::new(1, 2);
/// let graph = figure1_example();
/// let mut rng = StdRng::seed_from_u64(3);
/// let sample = sampler.sample_minibatch(graph.adjacency(), &[1, 5], &mut rng)?;
/// // One layer, rows = batch, two sampled support vertices.
/// assert_eq!(sample.layers[0].rows, vec![1, 5]);
/// assert_eq!(sample.layers[0].cols.len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LadiesSampler {
    num_layers: usize,
    samples_per_layer: usize,
    include_previous: bool,
}

impl LadiesSampler {
    /// Creates a LADIES sampler with `num_layers` layers and `s` sampled
    /// vertices per layer.
    ///
    /// # Panics
    ///
    /// Panics if `num_layers == 0` or `samples_per_layer == 0`.
    pub fn new(num_layers: usize, samples_per_layer: usize) -> Self {
        assert!(num_layers > 0, "LADIES needs at least one layer");
        assert!(samples_per_layer > 0, "samples per layer must be positive");
        LadiesSampler { num_layers, samples_per_layer, include_previous: false }
    }

    /// Also includes the previous layer's vertices in each sampled vertex
    /// set, so that every layer's rows are a subset of its columns.  Needed
    /// by the GNN training substrate for the self connection; the original
    /// LADIES algorithm does the same ("including the nodes themselves").
    pub fn with_previous_included(mut self) -> Self {
        self.include_previous = true;
        self
    }

    /// Number of vertices sampled per layer.
    pub fn samples_per_layer(&self) -> usize {
        self.samples_per_layer
    }
}

impl Sampler for LadiesSampler {
    fn spec(&self) -> Option<crate::spec::SamplerSpec> {
        Some(crate::spec::SamplerSpec::Ladies {
            num_layers: self.num_layers,
            samples_per_layer: self.samples_per_layer,
            include_previous: self.include_previous,
        })
    }

    fn name(&self) -> &'static str {
        "ladies"
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
    use dmbs_graph::generators::{complete, figure1_example};
    use dmbs_matrix::CsrMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn adjacency() -> CsrMatrix {
        figure1_example().adjacency().clone()
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn zero_layers_panics() {
        LadiesSampler::new(0, 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_samples_panics() {
        LadiesSampler::new(1, 0);
    }

    #[test]
    fn sample_includes_every_batch_to_sampled_edge() {
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 2);
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        let layer = &sample.layers[0];
        assert_eq!(layer.rows, vec![1, 5]);
        assert_eq!(layer.cols.len(), 2);
        // Every edge between a batch vertex and a sampled vertex must appear.
        for (ri, &row_v) in layer.rows.iter().enumerate() {
            for (ci, &col_v) in layer.cols.iter().enumerate() {
                assert_eq!(
                    layer.adjacency.get(ri, ci),
                    a.get(row_v, col_v),
                    "edge ({row_v}, {col_v})"
                );
            }
        }
    }

    #[test]
    fn sampled_vertices_come_from_aggregated_neighborhood() {
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 3);
        let mut rng = StdRng::seed_from_u64(2);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        // Aggregated neighborhood of {1, 5} is {0, 2, 3, 4}.
        for &c in &sample.layers[0].cols {
            assert!([0, 2, 3, 4].contains(&c), "vertex {c} not in aggregated neighborhood");
        }
    }

    #[test]
    fn heavy_vertex_is_sampled_most_often() {
        // Vertex 4 has probability 4/7 in the Figure 2b distribution; with
        // s = 1 it must be the most frequently sampled vertex.
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 1);
        let mut counts: HashMap<usize, usize> = HashMap::new();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..2000 {
            let s = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
            *counts.entry(s.layers[0].cols[0]).or_insert(0) += 1;
        }
        let &top = counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(top, 4);
        // And roughly 4/7 of the mass.
        let frac = counts[&4] as f64 / 2000.0;
        assert!((frac - 4.0 / 7.0).abs() < 0.06, "fraction {frac}");
    }

    #[test]
    fn multi_layer_ladies_chains_frontiers() {
        let g = complete(10).unwrap();
        let sampler = LadiesSampler::new(3, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sampler.sample_minibatch(g.adjacency(), &[0, 1, 2], &mut rng).unwrap();
        assert_eq!(sample.num_layers(), 3);
        assert!(sample.frontiers_are_chained());
        for layer in &sample.layers {
            assert!(layer.cols.len() <= 4 + layer.rows.len());
        }
    }

    #[test]
    fn include_previous_keeps_rows_in_cols() {
        let g = complete(10).unwrap();
        let sampler = LadiesSampler::new(2, 3).with_previous_included();
        let mut rng = StdRng::seed_from_u64(5);
        let sample = sampler.sample_minibatch(g.adjacency(), &[0, 1], &mut rng).unwrap();
        for layer in &sample.layers {
            for r in &layer.rows {
                assert!(layer.cols.contains(r));
            }
        }
    }

    #[test]
    fn bulk_sampling_keeps_batches_independent() {
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 2);
        let batches = vec![vec![1, 5], vec![0, 2], vec![3, 4]];
        let mut rng = StdRng::seed_from_u64(6);
        let out =
            sampler.sample_bulk(&a, &batches, &BulkSamplerConfig::new(2, 3), &mut rng).unwrap();
        assert_eq!(out.num_batches(), 3);
        for (mb, batch) in out.minibatches.iter().zip(&batches) {
            assert_eq!(&mb.batch, batch);
            assert_eq!(&mb.layers[0].rows, batch);
            assert_eq!(mb.layers[0].cols.len(), 2);
        }
        assert!(out.profile.total_compute() > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 2);
        let mut rng = StdRng::seed_from_u64(7);
        assert!(sampler.sample_bulk(&a, &[], &BulkSamplerConfig::default(), &mut rng).is_err());
        assert!(sampler
            .sample_bulk(&a, &[vec![99]], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
        assert!(sampler
            .sample_bulk(
                &CsrMatrix::zeros(2, 3),
                &[vec![0]],
                &BulkSamplerConfig::default(),
                &mut rng
            )
            .is_err());
    }

    #[test]
    fn trait_metadata() {
        let sampler = LadiesSampler::new(2, 512);
        assert_eq!(sampler.name(), "ladies");
        assert_eq!(sampler.num_layers(), 2);
        assert_eq!(sampler.fanout(0), 512);
        assert_eq!(sampler.samples_per_layer(), 512);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = adjacency();
        let sampler = LadiesSampler::new(1, 2);
        let s1 = sampler.sample_minibatch(&a, &[1, 5], &mut StdRng::seed_from_u64(9)).unwrap();
        let s2 = sampler.sample_minibatch(&a, &[1, 5], &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(s1, s2);
    }
}
