//! The one matrix sampling pipeline of Algorithm 1, for every sampler and
//! every place the rows of `A` can live.
//!
//! GraphSAGE, LADIES and FastGCN differ only in the structure of `Q`, the
//! `NORM` law and the `EXTRACT` step, which [`SamplerSpec`] names; the local
//! pipeline of §4 and the graph-partitioned one of §5.2 differ only in how
//! `Q · A` is formed and how each step is seeded, which [`RowSource`] names.
//! [`sample`] runs the pair: a node-wise driver (GraphSAGE) and a layer-wise
//! driver (LADIES, FastGCN), each doing stack → `P` → law → ITS → extract →
//! assemble once per layer.
//!
//! Extraction is row-local on the grid too: every rank of a process row
//! already holds that row's probability and row-gather products, so it
//! extracts every batch of the row itself, with no further communication.

use crate::its::{its_without_replacement, sample_rows_par};
use crate::partitioned::spgemm_1p5d_sparsity_aware;
use crate::plan::{BulkSampleOutput, LayerSample, MinibatchSample};
use crate::sage::extract_block;
use crate::spec::SamplerSpec;
use crate::Result;
use dmbs_comm::{CommStats, Communicator, Group, Phase, PhaseProfile, ProcessGrid};
use dmbs_graph::partition::OneDPartition;
use dmbs_matrix::extract::{extract_columns_masked_with, extract_rows_with};
use dmbs_matrix::ops::row_selection_matrix;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spgemm::spgemm_parallel_with;
use dmbs_matrix::workspace::with_workspace;
use dmbs_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Where the rows of `A` come from, and how each sampling step is seeded.
pub(crate) enum RowSource<'a> {
    /// The whole adjacency matrix on one device (§4); step seeds are drawn
    /// from `rng`.
    Local { adjacency: &'a CsrMatrix, rng: &'a mut dyn RngCore },
    /// This process row's block row of `A` on the `p/c × c` grid (§5.2):
    /// every product goes through the sparsity-aware 1.5D SpGEMM, and step
    /// seeds come from [`row_seed`], so the ranks of a process row draw
    /// identical samples.  Every rank of the grid must run the pipeline
    /// together.
    OneFiveD {
        comm: &'a mut Communicator,
        grid: &'a ProcessGrid,
        block: &'a CsrMatrix,
        partition: &'a OneDPartition,
        seed: u64,
    },
}

impl RowSource<'_> {
    fn num_vertices(&self) -> usize {
        match self {
            RowSource::Local { adjacency, .. } => adjacency.cols(),
            RowSource::OneFiveD { partition, .. } => partition.len(),
        }
    }

    /// `Q · A`, timed under `phase`.
    fn multiply(
        &mut self,
        q: &CsrMatrix,
        parallelism: Parallelism,
        profile: &mut PhaseProfile,
        phase: Phase,
    ) -> Result<CsrMatrix> {
        match self {
            RowSource::Local { adjacency, .. } => profile.time_compute(phase, || {
                Ok(with_workspace(|ws| spgemm_parallel_with(q, adjacency, parallelism, ws))?)
            }),
            RowSource::OneFiveD { comm, grid, block, partition, .. } => {
                spgemm_1p5d_sparsity_aware(comm, grid, q, block, partition, profile, phase)
            }
        }
    }

    /// The rows `vertices` of `A`, stacked: `Q_R · A` for the row-selection
    /// matrix `Q_R`, which locally is a plain row gather.
    fn rows(
        &mut self,
        vertices: &[usize],
        parallelism: Parallelism,
        profile: &mut PhaseProfile,
        phase: Phase,
    ) -> Result<CsrMatrix> {
        match self {
            RowSource::Local { adjacency, .. } => profile.time_compute(phase, || {
                Ok(with_workspace(|ws| extract_rows_with(adjacency, vertices, parallelism, ws))?)
            }),
            RowSource::OneFiveD { partition, .. } => {
                let n = partition.len();
                let q = profile.time_compute(phase, || row_selection_matrix(vertices, n))?;
                self.multiply(&q, parallelism, profile, phase)
            }
        }
    }

    /// The column sums of the whole `A`; on the grid, the block rows' sums
    /// all-reduced across the process column.
    fn col_sums(&mut self, profile: &mut PhaseProfile) -> Result<Vec<f64>> {
        match self {
            RowSource::Local { adjacency, .. } => {
                Ok(profile.time_compute(Phase::Probability, || adjacency.col_sums()))
            }
            RowSource::OneFiveD { comm, grid, block, .. } => {
                let col_group = Group::new(&grid.col_ranks(comm.rank()))?;
                let local = profile.time_compute(Phase::Probability, || block.col_sums());
                let before = comm.stats().modeled_time;
                let sums = comm.group_allreduce(&col_group, local, |a, b| {
                    a.iter().zip(b).map(|(x, y)| x + y).collect()
                })?;
                profile.add_comm(Phase::Probability, comm.stats().modeled_time - before);
                Ok(sums)
            }
        }
    }

    /// The ITS seed of sampling step `step`.
    fn step_seed(&mut self, step: usize) -> u64 {
        match self {
            RowSource::Local { rng, .. } => rng.next_u64(),
            RowSource::OneFiveD { comm, grid, seed, .. } => {
                row_seed(*seed, grid.coords(comm.rank()).0, step)
            }
        }
    }

    /// Hands a gathered `P` back to the thread's workspace, so the next
    /// step's row gather reuses its buffers.
    fn recycle(&self, p: CsrMatrix) {
        if let RowSource::Local { .. } = self {
            with_workspace(|ws| ws.recycle(p));
        }
    }

    fn comm_stats(&self) -> CommStats {
        match self {
            RowSource::Local { .. } => CommStats::default(),
            RowSource::OneFiveD { comm, .. } => comm.stats(),
        }
    }
}

/// Seed for the per-process-row RNG, derived so that every rank in a process
/// row draws identical samples (sampling is replicated within a row, exactly
/// as the data is).
fn row_seed(seed: u64, process_row: usize, step: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(process_row as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D)
        .wrapping_add(step as u64)
}

/// Samples `batches` — already validated against the graph — with the
/// sampler `spec` describes, reading `A` from `source`.
pub(crate) fn sample(
    spec: &SamplerSpec,
    source: RowSource<'_>,
    batches: &[Vec<usize>],
    parallelism: Parallelism,
) -> Result<BulkSampleOutput> {
    let before = source.comm_stats();
    let mut run = Run { source, parallelism, profile: PhaseProfile::new() };
    let layers = match *spec {
        SamplerSpec::GraphSage { ref fanouts, self_loops } => {
            run.node_wise(batches, fanouts, self_loops)?
        }
        SamplerSpec::Ladies { num_layers, samples_per_layer, include_previous } => run.layer_wise(
            batches,
            Law::Ladies { include_previous },
            num_layers,
            samples_per_layer,
        )?,
        SamplerSpec::FastGcn { num_layers, samples_per_layer } => {
            let sums = run.source.col_sums(&mut run.profile)?;
            let weights = run.profile.time_compute(Phase::Probability, || importance_weights(sums));
            run.layer_wise(batches, Law::FastGcn(weights), num_layers, samples_per_layer)?
        }
    };
    let minibatches = batches
        .iter()
        .zip(layers)
        .map(|(batch, mut layers)| {
            layers.reverse(); // innermost first
            MinibatchSample { batch: batch.clone(), layers }
        })
        .collect();
    let comm_stats = run.source.comm_stats().since(&before);
    Ok(BulkSampleOutput { minibatches, profile: run.profile, comm_stats })
}

/// How a layer-wise sampler draws each layer's vertices.
enum Law {
    /// LADIES (§4.2): `p_v ∝ e_v²` over each frontier's aggregated
    /// neighborhood, one distribution per batch and layer; with
    /// `include_previous` the frontier joins the picks.
    Ladies { include_previous: bool },
    /// FastGCN (§2.2.2): one global `q(v) ∝ deg_in(v)²` for every batch and
    /// layer.
    FastGcn(Vec<f64>),
}

/// One bulk sampling run.
struct Run<'a> {
    source: RowSource<'a>,
    parallelism: Parallelism,
    profile: PhaseProfile,
}

impl Run<'_> {
    /// GraphSAGE (§4.1): `P` is the stacked frontiers' rows of `A`,
    /// row-normalized; ITS draws `fanouts[step]` neighbors per row, and each
    /// batch's block drops its empty columns.  Returns each batch's layers,
    /// outermost first.
    fn node_wise(
        &mut self,
        batches: &[Vec<usize>],
        fanouts: &[usize],
        self_loops: bool,
    ) -> Result<Vec<Vec<LayerSample>>> {
        let (parallelism, profile) = (self.parallelism, &mut self.profile);
        let mut frontiers = batches.to_vec();
        let mut layers = vec![Vec::new(); batches.len()];
        for (step, &s) in fanouts.iter().enumerate() {
            let (stacked, offsets) = stack(&frontiers);
            let mut p = self.source.rows(&stacked, parallelism, profile, Phase::Probability)?;
            profile.time_compute(Phase::Probability, || p.normalize_rows());
            let seed = self.source.step_seed(step);
            let q_next = profile
                .time_compute(Phase::Sampling, || sample_rows_par(&p, s, seed, parallelism))?;
            profile.time_compute(Phase::Extraction, || -> Result<()> {
                for (i, frontier) in frontiers.iter_mut().enumerate() {
                    let block = q_next.row_block(offsets[i], offsets[i + 1]);
                    let (compacted, kept) = extract_block(&block, frontier, self_loops)?;
                    // Clones keep the output's vectors at their exact size.
                    layers[i].push(LayerSample::new(frontier.clone(), kept.clone(), compacted));
                    *frontier = kept;
                }
                Ok(())
            })?;
            self.source.recycle(p);
        }
        Ok(layers)
    }

    /// LADIES and FastGCN: `law` picks each batch's vertices of a layer,
    /// and `A_S = Q_R · A · Q_C` keeps every edge from the frontier to them
    /// (§4.2.4) — a row gather, then a masked column filter per batch.
    /// Returns each batch's layers, outermost first.
    fn layer_wise(
        &mut self,
        batches: &[Vec<usize>],
        law: Law,
        num_layers: usize,
        s: usize,
    ) -> Result<Vec<Vec<LayerSample>>> {
        let (parallelism, profile) = (self.parallelism, &mut self.profile);
        let n = self.source.num_vertices();
        let mut frontiers = batches.to_vec();
        let mut layers = vec![Vec::new(); batches.len()];
        for step in 0..num_layers {
            let picks: Vec<Vec<usize>> = match law {
                Law::Ladies { include_previous } => {
                    let unique: Vec<_> = frontiers.iter().map(|f| sorted_unique(f)).collect();
                    // One indicator row per batch: a genuine SpGEMM.
                    let q =
                        profile.time_compute(Phase::Probability, || indicator_rows(&unique, n))?;
                    let mut p =
                        self.source.multiply(&q, parallelism, profile, Phase::Probability)?;
                    profile.time_compute(Phase::Probability, || ladies_norm(&mut p));
                    let seed = self.source.step_seed(step);
                    let sampled = profile.time_compute(Phase::Sampling, || {
                        sample_rows_par(&p, s, seed, parallelism)
                    })?;
                    let picked = |i| sampled.row_indices(i);
                    let rows = 0..sampled.rows();
                    if include_previous {
                        rows.map(|i| sorted_union(picked(i), &unique[i])).collect()
                    } else {
                        rows.map(|i| picked(i).to_vec()).collect()
                    }
                }
                Law::FastGcn(ref weights) => {
                    let mut rng = StdRng::seed_from_u64(self.source.step_seed(step));
                    profile.time_compute(Phase::Sampling, || {
                        frontiers
                            .iter()
                            .map(|_| its_without_replacement(weights, s, &mut rng))
                            .collect::<Result<_>>()
                    })?
                }
            };
            let (stacked, offsets) = stack(&frontiers);
            let a_r = self.source.rows(&stacked, parallelism, profile, Phase::Extraction)?;
            profile.time_compute(Phase::Extraction, || -> Result<()> {
                for (i, (frontier, cols)) in frontiers.iter_mut().zip(picks).enumerate() {
                    let block = a_r.row_block(offsets[i], offsets[i + 1]);
                    let a_s = with_workspace(|ws| extract_columns_masked_with(&block, &cols, ws))?;
                    layers[i].push(LayerSample::new(frontier.clone(), cols.clone(), a_s));
                    *frontier = cols;
                }
                Ok(())
            })?;
        }
        Ok(layers)
    }
}

/// The frontiers stacked into one row list (Equation 1), and each batch's
/// row range in it as `offsets[i]..offsets[i + 1]`.
fn stack(frontiers: &[Vec<usize>]) -> (Vec<usize>, Vec<usize>) {
    let mut stacked = Vec::with_capacity(frontiers.iter().map(Vec::len).sum());
    let mut offsets = Vec::with_capacity(frontiers.len() + 1);
    offsets.push(0);
    for frontier in frontiers {
        stacked.extend_from_slice(frontier);
        offsets.push(stacked.len());
    }
    (stacked, offsets)
}

fn sorted_unique(vertices: &[usize]) -> Vec<usize> {
    let mut unique = vertices.to_vec();
    unique.sort_unstable();
    unique.dedup();
    unique
}

/// The `k × n` LADIES `Q`: row `i` has a one at every vertex of `unique[i]`.
fn indicator_rows(unique: &[Vec<usize>], n: usize) -> Result<CsrMatrix> {
    let (indices, indptr) = stack(unique);
    let values = vec![1.0; indices.len()];
    Ok(CsrMatrix::from_raw(unique.len(), n, indptr, indices, values)?)
}

/// The sorted union of two sorted, duplicate-free vertex lists.
fn sorted_union(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out.push(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The LADIES probability law: square the aggregated-neighborhood counts
/// and normalize each row, giving `p_v = e_v² / Σ_u e_u²` (§2.2.2).
fn ladies_norm(p: &mut CsrMatrix) {
    p.map_values_inplace(|v| v * v);
    p.normalize_rows();
}

/// The FastGCN importance distribution `q(v) ∝ deg_in(v)²`, from the column
/// sums of `A`.
fn importance_weights(col_sums: Vec<f64>) -> Vec<f64> {
    col_sums.into_iter().map(|d| d * d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_graph::generators::figure1_example;
    use dmbs_matrix::CooMatrix;
    use rand::Rng;

    #[test]
    fn probability_law_matches_paper_example() {
        // Figure 2b: for batch {1, 5}, P (before sampling) must equal
        // [1/7, 0, 1/7, 1/7, 4/7, 0] after the squared normalization.
        let a = figure1_example().adjacency().clone();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(1, 6, vec![(0, 1, 1.0), (0, 5, 1.0)]).unwrap(),
        );
        let mut p = dmbs_matrix::spgemm::spgemm(&q, &a).unwrap();
        ladies_norm(&mut p);
        let expected = [1.0 / 7.0, 0.0, 1.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0, 0.0];
        for (col, &want) in expected.iter().enumerate() {
            assert!((p.get(0, col) - want).abs() < 1e-12, "column {col}");
        }
    }

    #[test]
    fn importance_weights_are_squared_in_degrees() {
        let a = figure1_example().adjacency().clone();
        let w = importance_weights(a.col_sums());
        // Vertex 4 has in-degree 3 in the Figure 1 graph.
        assert_eq!(w[4], 9.0);
        assert_eq!(w[0], 1.0);
    }

    #[test]
    fn sorted_union_equals_the_append_and_sort_formulation() {
        // The formulation the merge replaced: append every frontier vertex
        // not yet picked, then sort.
        let mut rng = StdRng::seed_from_u64(3);
        let mut draw =
            |len: usize| -> Vec<usize> { (0..len).map(|_| rng.gen_range(0..20)).collect() };
        for len in 0..200 {
            let picks = sorted_unique(&draw(len % 9));
            let frontier = draw(len % 7);
            let mut expected = picks.clone();
            for &v in &frontier {
                if !expected.contains(&v) {
                    expected.push(v);
                }
            }
            expected.sort_unstable();
            assert_eq!(sorted_union(&picks, &sorted_unique(&frontier)), expected);
        }
    }
}
