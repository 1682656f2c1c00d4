//! The one matrix sampling pipeline of Algorithm 1, for every sampler and
//! every place the rows of `A` can live.
//!
//! GraphSAGE, LADIES and FastGCN differ only in the structure of `Q`, the
//! `NORM` law and the `EXTRACT` step, which [`SamplerSpec`] names; the local
//! pipeline of §4 and the graph-partitioned one of §5.2 differ only in how
//! `Q · A` is formed and how each step is seeded, which [`RowSource`] names.
//! [`sample`] runs the pair: a node-wise driver (GraphSAGE) and a layer-wise
//! driver (LADIES, FastGCN), each doing stack → row view → `NORM` + ITS →
//! extract → assemble once per layer.
//!
//! A product `Q_R · A` with a one-nonzero-per-row `Q_R` is a row selection,
//! so the pipeline never forms it on one device: a [`RowView`] reads the
//! selected rows of `A` in place, the draw applies the `NORM` law inside its
//! prefix scan, and extraction filters the rows straight into each batch's
//! output.  The materialised formulation (gather, normalise, draw, copy each
//! batch's block, extract) is kept by the tests as the oracle of this one.
//!
//! Extraction is row-local on the grid too: every rank of a process row
//! already holds that row's probability and row-gather products, so it
//! extracts every batch of the row itself, with no further communication.

use crate::its::{its_without_replacement, sample_matrix_rows, Picks, RowLaw};
use crate::partitioned::{spgemm_1p5d, PinnedRows};
use crate::plan::{BulkSampleOutput, LayerSample, MinibatchSample};
use crate::sage::extract_batch;
use crate::spec::SamplerSpec;
use crate::Result;
use dmbs_comm::{CommStats, Communicator, Group, Phase, PhaseProfile, ProcessGrid};
use dmbs_graph::partition::OneDPartition;
use dmbs_matrix::extract::extract_submatrix_with;
use dmbs_matrix::ops::row_selection_matrix;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spgemm::spgemm_parallel_with;
use dmbs_matrix::workspace::with_workspace;
use dmbs_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::borrow::Cow;
use std::ops::Range;

/// Rows of a matrix as the sampling kernels read them: row `i` of the view
/// is row `select[i]` of `a`.  On one device it is `Q_R · A` for the row
/// selection `Q_R` of a stacked frontier — §4.1's `P = Q^L · A` — borrowed
/// from the adjacency with nothing copied; on the grid it is the 1.5D
/// product, whose rows already are this process row's selected ones.
struct RowView<'a> {
    a: Cow<'a, CsrMatrix>,
    select: Cow<'a, [usize]>,
}

impl RowView<'_> {
    /// Every row of `a`, in order.
    fn whole(a: CsrMatrix) -> Self {
        let select = (0..a.rows()).collect();
        RowView { a: Cow::Owned(a), select: Cow::Owned(select) }
    }

    fn len(&self) -> usize {
        self.select.len()
    }

    fn cols(&self) -> usize {
        self.a.cols()
    }

    /// `SAMPLE(NORM(P), s)`: up to `s` columns of every row, drawn under
    /// `law` with the per-row streams of `seed`.  Unit-ness is the matrix's
    /// variant, read once: `A` of an unweighted graph is a pattern, and so
    /// is the 1.5D product of a 0/1 selection with it.
    fn draw(&self, law: RowLaw, s: usize, seed: u64, parallelism: Parallelism) -> Result<Picks> {
        let select = |i: usize| self.select[i];
        sample_matrix_rows(&self.a, self.len(), select, law, s, seed, parallelism)
    }

    /// The rows `rows` of the view restricted to the sorted vertex set
    /// `cols`, renumbered `0..cols.len()`: one batch's `Q_R · A · Q_C`.
    fn extract(&self, rows: Range<usize>, cols: &[usize]) -> Result<CsrMatrix> {
        Ok(with_workspace(|ws| extract_submatrix_with(&self.a, &self.select[rows], cols, ws))?)
    }
}

/// Where the rows of `A` come from, and how each sampling step is seeded.
pub(crate) enum RowSource<'a> {
    /// The whole adjacency matrix on one device (§4); step seeds are drawn
    /// from `rng`.
    Local { adjacency: &'a CsrMatrix, rng: &'a mut dyn RngCore },
    /// This process row's block row of `A` on the `p/c × c` grid (§5.2):
    /// every product goes through the sparsity-aware 1.5D SpGEMM, reading
    /// the remote rows through `pins` when given, or through a store that
    /// lives for the one product otherwise, and step seeds come from
    /// [`row_seed`], so the ranks of a process row draw
    /// identical samples.  Every rank of the grid must run the pipeline
    /// together.
    OneFiveD {
        comm: &'a mut Communicator,
        grid: &'a ProcessGrid,
        block: &'a CsrMatrix,
        pins: Option<&'a mut PinnedRows>,
        partition: &'a OneDPartition,
        seed: u64,
    },
}

impl<'a> RowSource<'a> {
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
            RowSource::OneFiveD { comm, grid, block, pins, partition, .. } => {
                spgemm_1p5d(comm, grid, q, block, pins.as_deref_mut(), partition, profile, phase)
            }
        }
    }

    /// The rows `vertices` of `A`, stacked (`Q_R · A` for the row-selection
    /// matrix `Q_R`): borrowed in place on one device, the 1.5D product on
    /// the grid.
    fn rows<'v>(
        &mut self,
        vertices: &'v [usize],
        parallelism: Parallelism,
        profile: &mut PhaseProfile,
        phase: Phase,
    ) -> Result<RowView<'v>>
    where
        'a: 'v,
    {
        match self {
            RowSource::Local { adjacency, .. } => {
                Ok(RowView { a: Cow::Borrowed(*adjacency), select: Cow::Borrowed(vertices) })
            }
            RowSource::OneFiveD { partition, .. } => {
                let n = partition.len();
                let q = profile.time_compute(phase, || row_selection_matrix(vertices, n))?;
                Ok(RowView::whole(self.multiply(&q, parallelism, profile, phase)?))
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
    /// GraphSAGE (§4.1): `P` is the stacked frontiers' rows of `A`; ITS
    /// draws `fanouts[step]` neighbors per row under the row-normalised law,
    /// and each batch's block drops its empty columns.  Returns each batch's
    /// layers, outermost first.
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
            let p = self.source.rows(&stacked, parallelism, profile, Phase::Probability)?;
            let seed = self.source.step_seed(step);
            let picks = profile.time_compute(Phase::Sampling, || {
                p.draw(RowLaw::Normalized, s, seed, parallelism)
            })?;
            profile.time_compute(Phase::Extraction, || {
                with_workspace(|ws| -> Result<()> {
                    for (i, frontier) in frontiers.iter_mut().enumerate() {
                        let rows = offsets[i]..offsets[i + 1];
                        let (block, kept) =
                            extract_batch(&picks, rows, frontier, p.cols(), self_loops, ws)?;
                        // `kept` is exactly sized: one copy serves both.
                        let rows = std::mem::replace(frontier, kept.clone());
                        layers[i].push(LayerSample::new(rows, kept, block));
                    }
                    Ok(())
                })
            })?;
        }
        Ok(layers)
    }

    /// LADIES and FastGCN: `law` picks each batch's vertices of a layer,
    /// and `A_S = Q_R · A · Q_C` keeps every edge from the frontier to them
    /// (§4.2.4), filtered out of the frontier's rows of `A` in one pass per
    /// batch.  Returns each batch's layers, outermost first.
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
                    let product =
                        self.source.multiply(&q, parallelism, profile, Phase::Probability)?;
                    let p = RowView::whole(product);
                    let seed = self.source.step_seed(step);
                    let sampled = profile.time_compute(Phase::Sampling, || {
                        p.draw(RowLaw::SquaredNormalized, s, seed, parallelism)
                    })?;
                    let rows = 0..p.len();
                    if include_previous {
                        rows.map(|i| sorted_union(sampled.row(i), &unique[i])).collect()
                    } else {
                        rows.map(|i| sampled.row(i).to_vec()).collect()
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
                    let a_s = a_r.extract(offsets[i]..offsets[i + 1], &cols)?;
                    // Clones keep the output's vectors at their exact size.
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

/// The `k × n` LADIES `Q`: row `i` has a one at every vertex of `unique[i]`,
/// a pattern.
fn indicator_rows(unique: &[Vec<usize>], n: usize) -> Result<CsrMatrix> {
    let (indices, indptr) = stack(unique);
    Ok(CsrMatrix::from_pattern(unique.len(), n, indptr, indices)?)
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

/// The FastGCN importance distribution `q(v) ∝ deg_in(v)²`, from the column
/// sums of `A`.
fn importance_weights(col_sums: Vec<f64>) -> Vec<f64> {
    col_sums.into_iter().map(|d| d * d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::its::sample_rows_par;
    use crate::its::tests::materialized_draw;
    use crate::partitioned::RankRows;
    use crate::sage::extract_block;
    use dmbs_comm::Runtime;
    use dmbs_graph::generators::figure1_example;
    use dmbs_matrix::extract::extract_columns_masked_with;
    use dmbs_matrix::spgemm::spgemm_parallel;
    use dmbs_matrix::CooMatrix;
    use proptest::prelude::*;
    use rand::Rng;
    use std::sync::Mutex;

    #[test]
    fn probability_law_matches_paper_example() {
        // Figure 2b: for batch {1, 5}, P (before sampling) must equal
        // [1/7, 0, 1/7, 1/7, 4/7, 0] after the squared normalization — the
        // law the draw applies inside its scan.
        let a = figure1_example().adjacency().clone();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(1, 6, vec![(0, 1, 1.0), (0, 5, 1.0)]).unwrap(),
        );
        let p = dmbs_matrix::spgemm::spgemm(&q, &a).unwrap();
        let mut normalized = p.map_values(|v| v * v);
        normalized.normalize_rows();
        let expected = [1.0 / 7.0, 0.0, 1.0 / 7.0, 1.0 / 7.0, 4.0 / 7.0, 0.0];
        for (col, &want) in expected.iter().enumerate() {
            assert!((normalized.get(0, col) - want).abs() < 1e-12, "column {col}");
        }
        // The fused draw picks what sampling the normalised `P` picks, so
        // vertex 4 is drawn four times as often as each of 0, 2 and 3.
        let view = RowView::whole(p);
        let mut hits = [0usize; 6];
        for seed in 0..7000 {
            let picks = view.draw(RowLaw::SquaredNormalized, 1, seed, Parallelism::serial());
            let picks = picks.unwrap();
            let oracle = sample_rows_par(&normalized, 1, seed, Parallelism::serial()).unwrap();
            assert_eq!(picks.row(0), oracle.row_indices(0), "seed {seed}");
            hits[picks.row(0)[0]] += 1;
        }
        assert_eq!((hits[1], hits[5]), (0, 0));
        assert!((3700..4300).contains(&hits[4]), "{hits:?}");
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

    /// The materialised pipeline the fused one replaced, kept as its oracle:
    /// each step gathers `P` (GraphSAGE) or forms the LADIES product,
    /// applies the law as a pass and draws with `sample_rows_par`; then it
    /// gathers `A_R` and copies each batch's block of rows out of the
    /// stacked matrices to extract from.  `seed(step)` is step `step`'s ITS seed.
    /// Returns each batch's layers, outermost first.
    fn materialized(
        spec: &SamplerSpec,
        a: &CsrMatrix,
        batches: &[Vec<usize>],
        mut seed: impl FnMut(usize) -> u64,
        par: Parallelism,
    ) -> Vec<Vec<LayerSample>> {
        let mut frontiers = batches.to_vec();
        let mut layers = vec![Vec::new(); batches.len()];
        let (num_layers, s, ladies, include_previous) = match *spec {
            SamplerSpec::GraphSage { ref fanouts, self_loops } => {
                for (step, &s) in fanouts.iter().enumerate() {
                    let (stacked, offsets) = stack(&frontiers);
                    let q_next =
                        materialized_draw(a, &stacked, RowLaw::Normalized, s, seed(step), par);
                    for (i, frontier) in frontiers.iter_mut().enumerate() {
                        let block = rows_of(&q_next, offsets[i]..offsets[i + 1]);
                        let (compacted, kept) =
                            extract_block(&block, frontier, self_loops).unwrap();
                        layers[i].push(LayerSample::new(frontier.clone(), kept.clone(), compacted));
                        *frontier = kept;
                    }
                }
                return layers;
            }
            SamplerSpec::Ladies { num_layers, samples_per_layer, include_previous } => {
                (num_layers, samples_per_layer, true, include_previous)
            }
            SamplerSpec::FastGcn { num_layers, samples_per_layer } => {
                (num_layers, samples_per_layer, false, false)
            }
        };
        let weights = importance_weights(a.col_sums());
        for step in 0..num_layers {
            let picks: Vec<Vec<usize>> = if ladies {
                let unique: Vec<_> = frontiers.iter().map(|f| sorted_unique(f)).collect();
                let q = indicator_rows(&unique, a.cols()).unwrap();
                let p = spgemm_parallel(&q, a, par).unwrap();
                let all: Vec<usize> = (0..p.rows()).collect();
                let sampled =
                    materialized_draw(&p, &all, RowLaw::SquaredNormalized, s, seed(step), par);
                let picked = |i| sampled.row_indices(i);
                (0..p.rows())
                    .map(|i| {
                        if include_previous {
                            sorted_union(picked(i), &unique[i])
                        } else {
                            picked(i).to_vec()
                        }
                    })
                    .collect()
            } else {
                let mut rng = StdRng::seed_from_u64(seed(step));
                frontiers
                    .iter()
                    .map(|_| its_without_replacement(&weights, s, &mut rng).unwrap())
                    .collect()
            };
            let (stacked, offsets) = stack(&frontiers);
            let a_r = a.gather_rows(&stacked).unwrap();
            for (i, (frontier, cols)) in frontiers.iter_mut().zip(picks).enumerate() {
                let block = rows_of(&a_r, offsets[i]..offsets[i + 1]);
                let a_s = with_workspace(|ws| extract_columns_masked_with(&block, &cols, ws));
                layers[i].push(LayerSample::new(frontier.clone(), cols.clone(), a_s.unwrap()));
                *frontier = cols;
            }
        }
        layers
    }

    /// A copy of the rows `range` of `m`.
    fn rows_of(m: &CsrMatrix, range: Range<usize>) -> CsrMatrix {
        m.gather_rows(&range.collect::<Vec<_>>()).unwrap()
    }

    /// Each batch's layers of `out`, outermost first.
    fn outermost_first(out: BulkSampleOutput) -> Vec<Vec<LayerSample>> {
        out.minibatches.into_iter().map(|mb| mb.layers.into_iter().rev().collect()).collect()
    }

    /// An `n × n` graph whose rows are of one `kind` each: unit, weighted,
    /// with stored zeros, all zero, geometric (forcing rescans) or empty.
    /// `integral` keeps every value an integer, so any summation order
    /// gives the same sums.
    fn graph(n: usize, degree: usize, integral: bool, rng: &mut StdRng) -> CsrMatrix {
        let rows = (0..n)
            .map(|r| {
                let kind = rng.gen_range(0..6usize);
                let mut cols: Vec<usize> = (0..degree).map(|_| rng.gen_range(0..n)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .enumerate()
                    .filter(|_| kind != 5)
                    .map(|(i, c)| {
                        let v = match kind {
                            0 => 1.0,
                            1 if integral => rng.gen_range(1..4) as f64,
                            1 => rng.gen_range(0.1..5.0),
                            2 => [0.0, 1.0, 2.0][(r + i) % 3],
                            3 => 0.0,
                            _ if integral => (1u64 << (40 - i.min(40))) as f64,
                            _ => 0.5f64.powi(i as i32),
                        };
                        (c, v)
                    })
                    .collect()
            })
            .collect();
        CsrMatrix::from_rows(n, n, rows).unwrap()
    }

    /// Every sampler the pipeline runs, at fan-out `s`: below, at and
    /// above the rows' supports.
    fn specs(s: usize) -> Vec<SamplerSpec> {
        vec![
            SamplerSpec::GraphSage { fanouts: vec![s, s + 1], self_loops: false },
            SamplerSpec::GraphSage { fanouts: vec![s, 2], self_loops: true },
            SamplerSpec::Ladies {
                num_layers: 2,
                samples_per_layer: 2 * s,
                include_previous: false,
            },
            SamplerSpec::Ladies { num_layers: 2, samples_per_layer: s, include_previous: true },
            SamplerSpec::FastGcn { num_layers: 2, samples_per_layer: s },
        ]
    }

    /// Batches of random vertices, repeats included, so stacked frontiers
    /// hold repeated rows.
    fn batches(n: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
        (0..rng.gen_range(1..4usize))
            .map(|_| (0..rng.gen_range(1..6usize)).map(|_| rng.gen_range(0..n)).collect())
            .collect()
    }

    proptest! {
        #[test]
        fn prop_local_pipeline_equals_the_materialised_one(
            seed in 0u64..1_000_000,
            s in 1usize..6,
            thread_choice in 0usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(4..40usize);
            let a = graph(n, rng.gen_range(1..12usize), false, &mut rng);
            let batches = batches(n, &mut rng);
            let par = Parallelism::new([1usize, 2, 8][thread_choice]);
            for spec in specs(s) {
                let mut draws = StdRng::seed_from_u64(seed);
                let source = RowSource::Local { adjacency: &a, rng: &mut draws };
                let fused = outermost_first(sample(&spec, source, &batches, par).unwrap());
                let mut oracle_draws = StdRng::seed_from_u64(seed);
                let oracle =
                    materialized(&spec, &a, &batches, |_| oracle_draws.next_u64(), par);
                prop_assert_eq!(&fused, &oracle, "{:?}", spec);
            }
        }
    }

    #[test]
    fn one_five_d_pipeline_equals_the_materialised_one() {
        // On a 2 × 1 grid each process row samples its own batches from the
        // 1.5D products; the oracle samples them from the whole graph with
        // the row's step seeds.  Each rank samples with every product
        // fetching its rows, and once more through rows it holds across
        // every sampler of the case.
        let grid = ProcessGrid::new(2, 1).unwrap();
        let runtime = Runtime::new(2).unwrap();
        for case in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(8..40usize);
            let a = graph(n, rng.gen_range(1..12usize), true, &mut rng);
            let per_row = [batches(n, &mut rng), batches(n, &mut rng)];
            let partition = OneDPartition::new(n, grid.rows()).unwrap();
            let blocks = partition.split_csr(&a).unwrap();
            let held: Vec<Mutex<RankRows>> = (0..2).map(|_| Mutex::default()).collect();
            let s = 1 + case as usize % 4;
            for spec in specs(s) {
                for (threads, pinned) in [(1, false), (2, false), (8, false), (2, true)] {
                    let par = Parallelism::new(threads);
                    let outs = runtime
                        .run(|comm| {
                            let row = grid.coords(comm.rank()).0;
                            let mut rows = held[comm.rank()].lock().unwrap();
                            let (block, pins) = if pinned {
                                let (block, pins) = rows.split(&a, &partition, row)?;
                                (block, Some(pins))
                            } else {
                                (&blocks[row], None)
                            };
                            let source = RowSource::OneFiveD {
                                comm,
                                grid: &grid,
                                block,
                                pins,
                                partition: &partition,
                                seed: case,
                            };
                            sample(&spec, source, &per_row[row], par)
                        })
                        .unwrap();
                    for out in outs {
                        let row = grid.coords(out.rank).0;
                        let fused = outermost_first(out.value.unwrap());
                        let seed = |step| row_seed(case, row, step);
                        let oracle = materialized(&spec, &a, &per_row[row], seed, par);
                        let label = format!("case {case}, {spec:?}, {threads} threads");
                        assert_eq!(fused, oracle, "{label}, pinned: {pinned}");
                    }
                }
            }
        }
    }
}
