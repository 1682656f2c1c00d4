//! GraphSAGE node-wise sampling expressed as matrix operations (§4.1).
//!
//! For one minibatch of `b` vertices, `Q^L ∈ {0,1}^{b×n}` has one nonzero per
//! row at the batch vertex.  `P ← Q^L A` then contains each batch vertex's
//! neighborhood as a row; row-normalizing turns each row into the uniform
//! distribution over its neighbors, ITS draws `s` of them, and removing the
//! empty columns of the sampled matrix yields the layer's sampled adjacency
//! matrix.  Deeper layers repeat the process with the newly sampled frontier
//! as the row set, and bulk sampling vertically stacks the matrices of `k`
//! minibatches (Equation 1).
//!
//! This module holds the sampler's parameters and its `EXTRACT` step
//! (`extract_batch`); the node-wise driver of the crate's one pipeline runs
//! the steps, locally and on the 1.5D grid alike.

use crate::its::Picks;
use crate::sampler::Sampler;
use crate::Result;
use dmbs_matrix::workspace::SpgemmWorkspace;
use dmbs_matrix::CsrMatrix;
use std::ops::Range;

/// The GraphSAGE node-wise sampler.
///
/// # Example
///
/// ```
/// use dmbs_sampling::{GraphSageSampler, Sampler, BulkSamplerConfig};
/// use dmbs_graph::generators::figure1_example;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
/// let sampler = GraphSageSampler::new(vec![2, 2]);
/// let graph = figure1_example();
/// let mut rng = StdRng::seed_from_u64(0);
/// let sample = sampler.sample_minibatch(graph.adjacency(), &[1, 5], &mut rng)?;
/// assert_eq!(sample.num_layers(), 2);
/// // The outermost layer's rows are the batch vertices.
/// assert_eq!(sample.layers.last().unwrap().rows, vec![1, 5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphSageSampler {
    /// Fanout per sampling step, outermost (batch) step first — e.g.
    /// `(15, 10, 5)` for the paper's 3-layer SAGE architecture.
    fanouts: Vec<usize>,
    include_self_loops: bool,
}

impl GraphSageSampler {
    /// Creates a sampler with the given per-step fanouts (outermost first).
    ///
    /// # Panics
    ///
    /// Panics if `fanouts` is empty or contains a zero (checked eagerly
    /// because these are programmer errors, not data errors).
    pub fn new(fanouts: Vec<usize>) -> Self {
        assert!(!fanouts.is_empty(), "GraphSAGE needs at least one layer fanout");
        assert!(fanouts.iter().all(|&s| s > 0), "fanouts must be positive");
        GraphSageSampler { fanouts, include_self_loops: false }
    }

    /// Enables self-loops: every frontier vertex is added to its own sampled
    /// neighbor set.  This guarantees that each layer's rows are a subset of
    /// its columns, which the GNN training substrate relies on for the
    /// self-connection of the SAGE aggregator.  It is a standard practical
    /// extension (DGL/PyG do the same) and does not change the matrix
    /// formulation.
    pub fn with_self_loops(mut self) -> Self {
        self.include_self_loops = true;
        self
    }

    /// The configured fanouts, outermost step first.
    pub fn fanouts(&self) -> &[usize] {
        &self.fanouts
    }
}

/// The extraction step (§4.1.3) for one batch, straight from the ITS
/// output: rows `rows` of `picks` — with, under `self_loops`, the entry
/// `(i, frontier[i])` added to every row — compacted to their nonempty
/// columns among `0..n`.  Returns the batch's block, every value `1.0`, and
/// its kept columns in ascending order: the next frontier.
///
/// The columns are numbered on the workspace's column bitmap, so a batch
/// costs no copy of its rows and no remap the size of the graph.
pub(crate) fn extract_batch(
    picks: &Picks,
    rows: Range<usize>,
    frontier: &[usize],
    n: usize,
    self_loops: bool,
    ws: &mut SpgemmWorkspace,
) -> Result<(CsrMatrix, Vec<usize>)> {
    debug_assert_eq!(frontier.len(), rows.len(), "one frontier vertex per batch row");
    let entries = &picks.indices[picks.indptr[rows.start]..picks.indptr[rows.end]];
    let mut set = ws.column_set(n);
    let mut nnz = entries.len();
    for &c in entries {
        set.insert(c)?;
    }
    if self_loops {
        for (i, &v) in rows.clone().zip(frontier) {
            set.insert(v)?;
            nnz += usize::from(picks.row(i).binary_search(&v).is_err());
        }
    }
    let (kept, ranks) = set.into_ranks();
    let rank = |c: &usize| ranks.rank(*c);
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(nnz);
    for (i, &v) in rows.clone().zip(frontier) {
        let cols = picks.row(i);
        if self_loops {
            // The self-loop goes in at its sorted place unless already drawn.
            let at = cols.partition_point(|&c| c < v);
            indices.extend(cols[..at].iter().filter_map(rank));
            if cols.get(at) != Some(&v) {
                indices.extend(rank(&v));
            }
            indices.extend(cols[at..].iter().filter_map(rank));
        } else {
            indices.extend(cols.iter().filter_map(rank));
        }
        indptr.push(indices.len());
    }
    let block = CsrMatrix::from_pattern(rows.len(), kept.len(), indptr, indices)?;
    Ok((block, kept))
}

/// The materialised extraction [`extract_batch`] replaced, kept as its
/// oracle: on a batch's `block` of the ITS output (copied out of it),
/// optionally add the self-loop `(i, frontier[i])` to every row, then drop
/// the empty columns.
#[cfg(test)]
pub(crate) fn extract_block(
    block: &CsrMatrix,
    frontier: &[usize],
    include_self_loops: bool,
) -> Result<(CsrMatrix, Vec<usize>)> {
    if include_self_loops {
        Ok(with_self_loops(block, frontier)?.compact_columns())
    } else {
        Ok(block.compact_columns())
    }
}

/// `block` with the entry `(i, frontier[i])` present in every row and every
/// value `1.0`: one pass over the sorted rows, each self-loop inserted at its
/// sorted position unless the row already holds it.
#[cfg(test)]
fn with_self_loops(block: &CsrMatrix, frontier: &[usize]) -> Result<CsrMatrix> {
    if frontier.len() != block.rows() {
        return Err(crate::SamplingError::InvalidConfig(format!(
            "{} frontier vertices for {} block rows: one per row is required",
            frontier.len(),
            block.rows()
        )));
    }
    let mut indptr = Vec::with_capacity(block.rows() + 1);
    let mut indices = Vec::with_capacity(block.nnz() + block.rows());
    indptr.push(0);
    for (row, &v) in frontier.iter().enumerate() {
        let cols = block.row_indices(row);
        let at = cols.partition_point(|&c| c < v);
        indices.extend_from_slice(&cols[..at]);
        if cols.get(at) != Some(&v) {
            indices.push(v);
        }
        indices.extend_from_slice(&cols[at..]);
        indptr.push(indices.len());
    }
    // Validating: a frontier vertex outside the block's columns is rejected.
    Ok(CsrMatrix::from_pattern(block.rows(), block.cols(), indptr, indices)?)
}

impl Sampler for GraphSageSampler {
    fn spec(&self) -> Option<crate::spec::SamplerSpec> {
        Some(crate::spec::SamplerSpec::GraphSage {
            fanouts: self.fanouts.clone(),
            self_loops: self.include_self_loops,
        })
    }

    fn name(&self) -> &'static str {
        "graphsage"
    }

    fn num_layers(&self) -> usize {
        self.fanouts.len()
    }

    fn fanout(&self, step: usize) -> usize {
        self.fanouts[step]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::BulkSamplerConfig;
    use dmbs_comm::Phase;
    use dmbs_graph::generators::{complete, figure1_example, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adjacency() -> CsrMatrix {
        figure1_example().adjacency().clone()
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_fanouts_panic() {
        GraphSageSampler::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_fanout_panics() {
        GraphSageSampler::new(vec![2, 0]);
    }

    #[test]
    fn single_layer_sample_matches_paper_example() {
        // Batch {1, 5} with s = 2: vertex 1 samples 2 of {0, 2, 4}; vertex 5
        // keeps its whole neighborhood {3, 4}.
        let sampler = GraphSageSampler::new(vec![2]);
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(1);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        assert_eq!(sample.num_layers(), 1);
        let layer = &sample.layers[0];
        assert_eq!(layer.rows, vec![1, 5]);
        // Row 0 (vertex 1) has exactly 2 sampled neighbors from {0, 2, 4}.
        assert_eq!(layer.adjacency.row_nnz(0), 2);
        // Row 1 (vertex 5) has both of its neighbors {3, 4}.
        assert_eq!(layer.adjacency.row_nnz(1), 2);
        // Columns are global ids of sampled vertices.
        for &c in &layer.cols {
            assert!(c < 6);
        }
        // Every sampled edge exists in the original graph.
        for (r, c, _) in layer.adjacency.iter() {
            assert_eq!(a.get(layer.rows[r], layer.cols[c]), 1.0);
        }
        assert!(sample.frontiers_are_chained());
    }

    #[test]
    fn multi_layer_frontiers_chain() {
        let sampler = GraphSageSampler::new(vec![2, 2, 2]);
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(3);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        assert_eq!(sample.num_layers(), 3);
        assert!(sample.frontiers_are_chained());
        // Frontier sizes never exceed b * s^depth.
        let mut bound = 2usize;
        for layer in sample.layers.iter().rev() {
            assert!(layer.rows.len() <= bound);
            bound *= 2;
            assert!(layer.cols.len() <= bound);
        }
    }

    #[test]
    fn fanout_larger_than_degree_keeps_whole_neighborhood() {
        let sampler = GraphSageSampler::new(vec![100]);
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(4);
        let sample = sampler.sample_minibatch(&a, &[1], &mut rng).unwrap();
        let layer = &sample.layers[0];
        assert_eq!(layer.cols, vec![0, 2, 4]);
        assert_eq!(layer.adjacency.row_nnz(0), 3);
    }

    #[test]
    fn self_loops_put_rows_into_cols() {
        let sampler = GraphSageSampler::new(vec![1, 1]).with_self_loops();
        assert!(sampler.include_self_loops);
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(5);
        let sample = sampler.sample_minibatch(&a, &[1, 5], &mut rng).unwrap();
        for layer in &sample.layers {
            for r in &layer.rows {
                assert!(layer.cols.contains(r), "row vertex {r} missing from cols");
            }
        }
    }

    #[test]
    fn self_loop_insert_is_byte_identical_to_the_coo_formulation() {
        use dmbs_matrix::CooMatrix;
        use rand::Rng;
        // The formulation the one-pass insert replaced: append the self-loop
        // triples, let `from_coo` sort and merge, reset the values.
        let via_coo = |block: &CsrMatrix, frontier: &[usize]| {
            let mut coo = CooMatrix::new(block.rows(), block.cols());
            for (r, c, v) in block.iter() {
                coo.push(r, c, v).unwrap();
            }
            for (i, &v) in frontier.iter().enumerate() {
                coo.push(i, v, 1.0).unwrap();
            }
            let mut merged = CsrMatrix::from_coo(&coo);
            merged.map_values_inplace(|_| 1.0);
            merged
        };
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..50 {
            let (rows, cols) = (rng.gen_range(0..9usize), rng.gen_range(1..12usize));
            let mut coo = CooMatrix::new(rows, cols);
            for _ in 0..rng.gen_range(0..40usize) {
                coo.push(rng.gen_range(0..rows.max(1)), rng.gen_range(0..cols), 1.0).ok();
            }
            let block = CsrMatrix::from_coo(&coo);
            // Self-loops before, inside, equal to and after the row's columns.
            let frontier: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..cols)).collect();
            let expected = via_coo(&block, &frontier);
            assert_eq!(with_self_loops(&block, &frontier).unwrap(), expected);
            assert_eq!(extract_block(&block, &frontier, true).unwrap(), expected.compact_columns());
            assert_eq!(extract_block(&block, &frontier, false).unwrap(), block.compact_columns());
        }
        // A self-loop outside the block's columns is a typed error, and so
        // is a frontier of the wrong length.
        assert!(with_self_loops(&CsrMatrix::zeros(1, 3), &[3]).is_err());
        assert!(with_self_loops(&CsrMatrix::zeros(2, 3), &[1]).is_err());
    }

    #[test]
    fn batch_extraction_equals_the_materialised_oracle() {
        use dmbs_matrix::workspace::SpgemmWorkspace;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(30);
        let mut ws = SpgemmWorkspace::new();
        for _ in 0..200 {
            // A stacked ITS output of random sorted rows (some empty).
            let (rows, n) = (rng.gen_range(1..12usize), rng.gen_range(1..80usize));
            let row_data = (0..rows)
                .map(|_| {
                    let mut cols: Vec<usize> =
                        (0..rng.gen_range(0..6usize)).map(|_| rng.gen_range(0..n)).collect();
                    cols.sort_unstable();
                    cols.dedup();
                    cols.into_iter().map(|c| (c, 1.0)).collect()
                })
                .collect();
            let stacked = CsrMatrix::from_rows(rows, n, row_data).unwrap();
            let picks =
                Picks { indptr: stacked.indptr().to_vec(), indices: stacked.indices().to_vec() };
            let start = rng.gen_range(0..=rows);
            let end = rng.gen_range(start..=rows);
            let frontier: Vec<usize> = (start..end).map(|_| rng.gen_range(0..n)).collect();
            let block = stacked.gather_rows(&(start..end).collect::<Vec<_>>()).unwrap();
            for self_loops in [false, true] {
                let fused = extract_batch(&picks, start..end, &frontier, n, self_loops, &mut ws);
                let oracle = extract_block(&block, &frontier, self_loops).unwrap();
                assert_eq!(fused.unwrap(), oracle);
            }
        }
        // A self-loop outside the graph's columns is a typed error.
        let picks = Picks { indptr: vec![0, 0], indices: vec![] };
        assert!(extract_batch(&picks, 0..1, &[3], 3, true, &mut ws).is_err());
    }

    #[test]
    fn bulk_sampling_keeps_batches_independent() {
        let sampler = GraphSageSampler::new(vec![2]);
        let a = adjacency();
        let batches = vec![vec![1, 5], vec![0, 3], vec![2, 4]];
        let config = BulkSamplerConfig::new(2, 3);
        let mut rng = StdRng::seed_from_u64(6);
        let out = sampler.sample_bulk(&a, &batches, &config, &mut rng).unwrap();
        assert_eq!(out.num_batches(), 3);
        for (mb, batch) in out.minibatches.iter().zip(&batches) {
            assert_eq!(&mb.batch, batch);
            assert_eq!(&mb.layers.last().unwrap().rows, batch);
            assert!(mb.frontiers_are_chained());
            assert!(mb.total_edges() > 0);
        }
        // Profile recorded all three sampling phases.
        assert!(out.profile.compute(Phase::Probability) >= 0.0);
        assert!(out.profile.total_compute() > 0.0);
        assert_eq!(out.comm_stats.messages, 0);
    }

    #[test]
    fn sampled_edges_subset_of_graph_on_random_graphs() {
        let g = complete(12).unwrap();
        let sampler = GraphSageSampler::new(vec![3, 2]);
        let mut rng = StdRng::seed_from_u64(7);
        let out = sampler
            .sample_bulk(
                g.adjacency(),
                &[vec![0, 1, 2], vec![3, 4, 5]],
                &BulkSamplerConfig::new(3, 2),
                &mut rng,
            )
            .unwrap();
        for mb in &out.minibatches {
            for layer in &mb.layers {
                assert!(layer.adjacency.rows() == layer.rows.len());
                for (r, c, _) in layer.adjacency.iter() {
                    assert_eq!(g.adjacency().get(layer.rows[r], layer.cols[c]), 1.0);
                }
                // Fanout respected.
                for r in 0..layer.adjacency.rows() {
                    assert!(layer.adjacency.row_nnz(r) <= 3);
                }
            }
        }
    }

    #[test]
    fn star_graph_low_degree_vertices() {
        // Leaves have degree 1; sampling keeps their single neighbor.
        let g = star(8).unwrap();
        let sampler = GraphSageSampler::new(vec![3]);
        let mut rng = StdRng::seed_from_u64(8);
        let sample = sampler.sample_minibatch(g.adjacency(), &[3, 5], &mut rng).unwrap();
        let layer = &sample.layers[0];
        assert_eq!(layer.cols, vec![0]);
        assert_eq!(layer.adjacency.row_nnz(0), 1);
        assert_eq!(layer.adjacency.row_nnz(1), 1);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let sampler = GraphSageSampler::new(vec![2]);
        let a = adjacency();
        let mut rng = StdRng::seed_from_u64(9);
        assert!(sampler.sample_bulk(&a, &[], &BulkSamplerConfig::default(), &mut rng).is_err());
        assert!(sampler
            .sample_bulk(&a, &[vec![]], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
        assert!(sampler
            .sample_bulk(&a, &[vec![17]], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
        let rect = CsrMatrix::zeros(3, 4);
        assert!(sampler
            .sample_bulk(&rect, &[vec![0]], &BulkSamplerConfig::default(), &mut rng)
            .is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let sampler = GraphSageSampler::new(vec![2, 2]);
        let a = adjacency();
        let s1 = sampler.sample_minibatch(&a, &[1, 5], &mut StdRng::seed_from_u64(42)).unwrap();
        let s2 = sampler.sample_minibatch(&a, &[1, 5], &mut StdRng::seed_from_u64(42)).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn trait_metadata() {
        let sampler = GraphSageSampler::new(vec![15, 10, 5]);
        assert_eq!(sampler.name(), "graphsage");
        assert_eq!(sampler.num_layers(), 3);
        assert_eq!(sampler.fanout(0), 15);
        assert_eq!(sampler.fanout(2), 5);
        assert_eq!(sampler.fanouts(), &[15, 10, 5]);
    }
}
