//! The Graph Partitioned distributed sampling algorithm (§5.2).
//!
//! When the graph does not fit on one device, both the sampler matrix `Q^l`
//! and the adjacency matrix `A` are partitioned into `p/c` block rows on a
//! `p/c × c` process grid, each block row replicated on the `c` ranks of its
//! process row.  The probability-generation SpGEMM `P ← Q^l A` then becomes
//! the **sparsity-aware 1.5D algorithm** of Algorithm 2: in each of
//! `⌈p/c²⌉` stages ([`dmbs_comm::ProcessGrid::num_stages`]), the owner of a
//! block row of `A` sends each requester only the rows its local multiply
//! actually needs (the nonzero columns of its `Q` block), and a final
//! all-reduce across the process row combines the partial products.
//!
//! Per stage the traffic is a gather of request lists over the process
//! column, then one point-to-point reply per remote requester.  A reply is
//! one CSR slab — row lengths, column indices and values of the requested
//! rows, in request order — so it costs `rows + 2·nnz` words, exactly what
//! one `(row id, row)` pair per row cost before it: a length word replaces
//! the id word, which the requester does not need back.
//!
//! Every stage has one owner branch and one requester branch.  The owner
//! reads its own block in place and sends itself nothing.  A requester
//! reads `A` through a store of held rows (`PinnedRows`): it asks only for
//! the rows the store does not hold, validates the slab as a CSR block
//! (`CsrMatrix::from_raw`) before the multiply indexes its dense scratch
//! with the slab's column ids — so a malformed reply is a typed error, not
//! a panic — and holds it.  Both multiply through the row lookup
//! `spgemm_with_row_lookup`, which adds the stage's product to the earlier
//! stages' sum with a row merge, bit-identical to the hash-map multiply and
//! `BTreeMap` add it replaced.
//!
//! The store lives for one product, unless the caller holds a [`RankRows`]:
//! `A` is static between ingests, so under the pinned schedule a rank keeps
//! its block row, sliced once per graph version, and every remote row it
//! has fetched for the whole run.  Each remote row then crosses the wire
//! once per run with bit-identical products, and the words a held row kept
//! off the wire are booked as saved, so `words_sent + words_saved` is what
//! the same run sends with a store per product.
//!
//! Sampling from the resulting probability rows needs no communication
//! (§5.2.2).  Extraction is row-local for every sampler (§5.2.3): GraphSAGE
//! compacts its sampled rows, and LADIES and FastGCN gather their frontier's
//! rows of `A` with the same 1.5D SpGEMM, after which each rank filters the
//! columns of every batch of its process row itself.  The samplers run here
//! through the crate's one matrix pipeline; this module holds the SpGEMM and
//! the round-robin batch assignment.

use crate::{Result, SamplingError};
use dmbs_comm::{Communicator, Group, Phase, PhaseProfile, ProcessGrid};
use dmbs_graph::partition::OneDPartition;
use dmbs_matrix::spgemm::spgemm_with_row_lookup;
use dmbs_matrix::workspace::with_workspace;
use dmbs_matrix::{CooMatrix, CsrMatrix, MatrixError};
use std::ops::Range;

/// An owner's answer to one request of Algorithm 2: the requested rows of
/// its block of `A`, in request order, as one CSR slab `(row lengths, column
/// indices, values)`.  The global row ids do not travel, because the
/// requester sent them; a row's length word takes the place its id word
/// had, so a slab of `rows` rows and `nnz` nonzeros is `rows + 2·nnz` words.
type RowSlab = (Vec<usize>, Vec<usize>, Vec<f64>);

/// Computes this process row's block of `P = Q · A` with the sparsity-aware
/// 1.5D SpGEMM of Algorithm 2.
///
/// * `my_q_block` — the block of (stacked) `Q` rows owned by this process
///   row; its column dimension is the number of vertices `n`.
/// * `my_a_block` — the block row of `A` owned by this process row (rows are
///   the vertex range given by `vertex_partition` for this process row).
/// * `vertex_partition` — the 1D partition of the `n` vertices into
///   `grid.rows()` block rows.
///
/// Every rank of the grid must call this function the same number of times
/// with consistent arguments; ranks in the same process row must pass
/// identical `my_q_block`s.
///
/// Computation time is recorded into `profile` under `phase`; communication
/// time is recorded under the same phase from the α–β model.
///
/// Every call fetches every remote row it reads, into a store of held rows
/// that lives for this product alone; the pinned schedule holds the rows in
/// a [`RankRows`] across products instead.
///
/// # Errors
///
/// Returns an error if shapes are inconsistent, a collective fails, or a
/// request or reply that arrives is malformed (a requested row outside the
/// owner's block, or a slab that is not a valid CSR block of the requested
/// rows).
pub fn spgemm_1p5d_sparsity_aware(
    comm: &mut Communicator,
    grid: &ProcessGrid,
    my_q_block: &CsrMatrix,
    my_a_block: &CsrMatrix,
    vertex_partition: &OneDPartition,
    profile: &mut PhaseProfile,
    phase: Phase,
) -> Result<CsrMatrix> {
    spgemm_1p5d(comm, grid, my_q_block, my_a_block, None, vertex_partition, profile, phase)
}

/// [`spgemm_1p5d_sparsity_aware`], reading the remote rows of `A` through
/// `pins`, the store of rows this rank holds, or through a store of its own
/// that lives for this product when none is given.  A requester asks each
/// owner only for the rows of `needed` it does not hold, holds what arrives,
/// and books the words every held row kept off the wire; the owner reads
/// its own rows in place and sends itself nothing.  The gather and the
/// replies run whatever the store holds, so the message schedule is the
/// same, and the stage multiply reads the same rows in the same order, so
/// the product is bit-identical.
#[allow(clippy::too_many_arguments)]
pub(crate) fn spgemm_1p5d(
    comm: &mut Communicator,
    grid: &ProcessGrid,
    my_q_block: &CsrMatrix,
    my_a_block: &CsrMatrix,
    pins: Option<&mut PinnedRows>,
    vertex_partition: &OneDPartition,
    profile: &mut PhaseProfile,
    phase: Phase,
) -> Result<CsrMatrix> {
    let n = vertex_partition.len();
    if my_q_block.cols() != n {
        return Err(SamplingError::InvalidConfig(format!(
            "Q block has {} columns but the graph has {n} vertices",
            my_q_block.cols()
        )));
    }
    if my_a_block.cols() != n {
        return Err(SamplingError::InvalidConfig(format!(
            "A block has {} columns but the graph has {n} vertices",
            my_a_block.cols()
        )));
    }
    let rank = comm.rank();
    let (my_row, my_col) = grid.coords(rank);
    let my_range = vertex_partition.range(my_row);
    if my_a_block.rows() != my_range.len() {
        return Err(SamplingError::InvalidConfig(format!(
            "A block has {} rows but this process row owns {} vertices",
            my_a_block.rows(),
            my_range.len()
        )));
    }

    let col_group = Group::new(&grid.col_ranks(rank))?;
    let comm_before = comm.stats().modeled_time;
    let mut one_product;
    let pins = match pins {
        Some(pins) => pins,
        None => {
            one_product = PinnedRows::new(n);
            &mut one_product
        }
    };

    // Nonzero columns of my Q block, sorted — the sparsity pattern that the
    // sparsity-aware algorithm exploits.
    let q_nonzero_cols = my_q_block.nonzero_columns();

    // Each process column j is responsible for a contiguous chunk of block
    // rows of A: block rows [j * stages, (j+1) * stages).
    let stages = grid.num_stages();
    let mut p_hat = CsrMatrix::zeros(my_q_block.rows(), n);

    for stage in 0..stages {
        let k_block = my_col * stages + stage;
        if k_block >= grid.rows() {
            // The whole process column skips this stage together.
            continue;
        }
        let owner = grid.rank_at(k_block, my_col);
        let block_range = vertex_partition.range(k_block);

        // Rows of A_k that my local multiply will read: the sorted nonzero
        // columns of Q that fall in the block.
        let lo = q_nonzero_cols.partition_point(|&c| c < block_range.start);
        let hi = q_nonzero_cols.partition_point(|&c| c < block_range.end);
        let needed = &q_nonzero_cols[lo..hi];

        p_hat = if rank == owner {
            // The owner asks for nothing and reads its own rows in place.
            let requests = comm.group_gather(&col_group, owner, Vec::new())?;
            serve_requests(comm, &col_group, my_a_block, &block_range, requests)?;
            let start = block_range.start;
            let row_of = |k: usize| block_range.contains(&k).then(|| k - start);
            profile.time_compute(phase, || -> Result<CsrMatrix> {
                Ok(with_workspace(|ws| {
                    spgemm_with_row_lookup(my_q_block, my_a_block, row_of, &p_hat, ws)
                })?)
            })?
        } else {
            // A requester asks only for the rows it does not hold, holds the
            // reply and reads every needed row from its store.
            comm.group_gather(&col_group, owner, pins.request(needed))?;
            let slab = comm.recv::<RowSlab>(owner)?;
            profile.time_compute(phase, || -> Result<CsrMatrix> {
                pins.pin(needed, slab)?;
                let row_of = |k: usize| if block_range.contains(&k) { pins.slot(k) } else { None };
                Ok(with_workspace(|ws| {
                    spgemm_with_row_lookup(my_q_block, &pins.rows, row_of, &p_hat, ws)
                })?)
            })?
        };
    }

    // All-reduce the partial products across the process row.
    let p_full = if grid.cols() > 1 {
        let row_group = Group::new(&grid.row_ranks(rank))?;
        let triples: Vec<(usize, usize, f64)> = p_hat.iter().collect();
        let combined = comm.group_allreduce(&row_group, triples, |a, b| {
            let mut merged = a.clone();
            merged.extend_from_slice(b);
            merged
        })?;
        profile.time_compute(phase, || -> Result<CsrMatrix> {
            let coo = CooMatrix::from_triples(my_q_block.rows(), n, combined)?;
            Ok(CsrMatrix::from_coo(&coo))
        })?
    } else {
        p_hat
    };

    profile.add_comm(phase, comm.stats().modeled_time - comm_before);
    Ok(p_full)
}

/// The owner's side of one stage: answers the gathered request of every
/// other rank of the process column with one slab of its block (which holds
/// the global rows `block_range`).  Its own request is empty: it reads its
/// block in place.
fn serve_requests(
    comm: &mut Communicator,
    col_group: &Group,
    block: &CsrMatrix,
    block_range: &Range<usize>,
    requests: Option<Vec<Vec<usize>>>,
) -> Result<()> {
    let rank = comm.rank();
    let requests = requests.ok_or_else(|| {
        SamplingError::InvalidConfig(format!(
            "rank {rank} owns the block of rows {block_range:?} but gathered no requests"
        ))
    })?;
    for (&peer, request) in col_group.ranks().iter().zip(&requests) {
        if peer != rank {
            comm.send(peer, reply_slab(block, block_range, request)?)?;
        }
    }
    Ok(())
}

/// The owner's slab for one request: the rows `request` of its block
/// (which holds the global rows `block_range`), copied row by row into
/// three flat buffers sized up front.
fn reply_slab(block: &CsrMatrix, block_range: &Range<usize>, request: &[usize]) -> Result<RowSlab> {
    let mut nnz = 0;
    for &gid in request {
        if !block_range.contains(&gid) {
            return Err(SamplingError::InvalidConfig(format!(
                "row {gid} was requested from the block of rows {block_range:?}"
            )));
        }
        nnz += block.row_nnz(gid - block_range.start);
    }
    let mut lens = Vec::with_capacity(request.len());
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for &gid in request {
        let local = gid - block_range.start;
        lens.push(block.row_nnz(local));
        indices.extend_from_slice(block.row_indices(local));
        // The wire carries a pattern's ones as stored values.
        match block.row_values(local) {
            Some(row) => values.extend_from_slice(row),
            None => values.resize(indices.len(), 1.0),
        }
    }
    Ok((lens, indices, values))
}

/// The `rows × cols` CSR block a slab holds.
///
/// The slab came off the wire, and the stage multiply indexes its scratch
/// with the slab's column ids, so it is validated first: one length per
/// requested row, lengths that sum without overflow to the number of
/// column ids, one value per column id, and rows of strictly increasing
/// columns below `cols`.  A malformed slab is a typed error, never a panic.
fn slab_rows(rows: usize, cols: usize, slab: RowSlab) -> Result<CsrMatrix> {
    let (lens, indices, values) = slab;
    if lens.len() != rows {
        return Err(MatrixError::InvalidStructure(format!(
            "a reply holds {} rows for {rows} requested rows",
            lens.len(),
        ))
        .into());
    }
    let mut indptr = Vec::with_capacity(lens.len() + 1);
    indptr.push(0usize);
    let mut end = 0usize;
    for len in lens {
        end = end.checked_add(len).ok_or_else(|| {
            MatrixError::InvalidStructure("a reply's row lengths overflow".into())
        })?;
        indptr.push(end);
    }
    Ok(CsrMatrix::from_raw(rows, cols, indptr, indices, values)?)
}

/// The rows of `A` one rank holds for a whole run: its process row's block
/// row, sliced once per graph version, and the remote rows it has fetched,
/// pinned until an ingest dirties them.
///
/// [`SamplingBackend::sample_group_on_rank_with`] passes it to the 1.5D
/// SpGEMM, which then fetches each remote row once per run instead of once
/// per product: the §6.2 pinned schedule applied to `A` as to the feature
/// rows.  Without it each product holds the rows it fetches for itself
/// alone.  Pinning is pure work avoidance: every product, and so every
/// sample, is bit-identical to that run, and the words a pinned row keeps
/// off the wire — its request id, its length word and its `2·nnz` entries —
/// are booked in [`RankRows::take_words_saved`], so that `words_sent +
/// words_saved` equals that run's bill.  Without ingest a rank pins at most
/// its remote rows, `n − |own block|`.
///
/// A caller that changes the adjacency must pass every changed row to
/// [`RankRows::invalidate`] before the next product.
///
/// [`SamplingBackend::sample_group_on_rank_with`]: crate::SamplingBackend::sample_group_on_rank_with
#[derive(Debug, Default)]
pub struct RankRows {
    /// The global rows of this process row's block, and the block.
    block: Option<(Range<usize>, CsrMatrix)>,
    pins: PinnedRows,
}

impl RankRows {
    /// Holds nothing yet: the first product slices the block and fetches
    /// every remote row it reads.
    pub fn new() -> Self {
        RankRows::default()
    }

    /// The number of remote rows pinned.
    pub fn pinned_rows(&self) -> usize {
        self.pins.rows.rows()
    }

    /// Drops the pinned rows in `dirty` and the block, which is sliced
    /// again on next use.  An edge batch changes only the rows of its
    /// sources, so every other pinned row stays exact.
    pub fn invalidate(&mut self, dirty: &[usize]) {
        self.block = None;
        self.pins.drop_rows(dirty);
    }

    /// The words pinned rows kept off the wire since the last call.
    pub fn take_words_saved(&mut self) -> usize {
        std::mem::take(&mut self.pins.words_saved)
    }

    /// This process row's block of `adjacency` (sliced on first use) and
    /// the pinned remote rows.
    pub(crate) fn split(
        &mut self,
        adjacency: &CsrMatrix,
        partition: &OneDPartition,
        part: usize,
    ) -> Result<(&CsrMatrix, &mut PinnedRows)> {
        let n = partition.len();
        if self.pins.slots.len() != n {
            self.pins = PinnedRows { words_saved: self.pins.words_saved, ..PinnedRows::new(n) };
        }
        let range = partition.range(part);
        if self.block.as_ref().is_none_or(|(held, _)| *held != range) {
            self.block = Some((range, partition.block_csr(adjacency, part)?));
        }
        let block = self.block.as_ref().map(|(_, block)| block).expect("sliced above");
        Ok((block, &mut self.pins))
    }
}

/// The slot of a row that is not pinned.
const NOT_PINNED: usize = usize::MAX;

/// Remote rows of `A` a rank holds, in arrival order: row `v` of `A` is row
/// `slots[v]` of `rows`.  Every requester reads `A` through one: a
/// [`RankRows`]'s for the whole run, or one that lives for a single product.
#[derive(Debug)]
pub(crate) struct PinnedRows {
    rows: CsrMatrix,
    slots: Vec<usize>,
    words_saved: usize,
}

impl Default for PinnedRows {
    fn default() -> Self {
        PinnedRows::new(0)
    }
}

impl PinnedRows {
    fn new(n: usize) -> Self {
        PinnedRows { rows: CsrMatrix::zeros(0, n), slots: vec![NOT_PINNED; n], words_saved: 0 }
    }

    fn slot(&self, v: usize) -> Option<usize> {
        let slot = self.slots[v];
        (slot != NOT_PINNED).then_some(slot)
    }

    /// The rows of `needed` not pinned yet, to request from their owner.
    /// Each pinned one is a hit that keeps `2 + 2·nnz` words off the wire:
    /// its id in the request, its length and entries in the reply.
    fn request(&mut self, needed: &[usize]) -> Vec<usize> {
        let mut missing = Vec::with_capacity(needed.len());
        for &v in needed {
            match self.slot(v) {
                Some(slot) => self.words_saved += 2 + 2 * self.rows.row_nnz(slot),
                None => missing.push(v),
            }
        }
        missing
    }

    /// Validates the owner's slab of the rows of `needed` this rank
    /// requested, then pins them.  An empty store adopts the slab as it is.
    fn pin(&mut self, needed: &[usize], slab: RowSlab) -> Result<()> {
        let requested = needed.iter().filter(|&&v| self.slots[v] == NOT_PINNED).count();
        let fetched = slab_rows(requested, self.rows.cols(), slab)?;
        let mut next = self.rows.rows();
        if next == 0 {
            self.rows = fetched;
        } else {
            self.rows.append_rows(&fetched)?;
        }
        for &v in needed {
            if self.slots[v] == NOT_PINNED {
                self.slots[v] = next;
                next += 1;
            }
        }
        Ok(())
    }

    /// Unpins the rows `dirty` and compacts the rest, keeping their order.
    fn drop_rows(&mut self, dirty: &[usize]) {
        let mut dropped = false;
        for &v in dirty {
            if let Some(slot) = self.slots.get_mut(v).filter(|slot| **slot != NOT_PINNED) {
                *slot = NOT_PINNED;
                dropped = true;
            }
        }
        if !dropped {
            return;
        }
        let mut live: Vec<(usize, usize)> =
            (0..self.slots.len()).filter_map(|v| self.slot(v).map(|slot| (slot, v))).collect();
        live.sort_unstable();
        let kept: Vec<usize> = live.iter().map(|&(slot, _)| slot).collect();
        self.rows = self.rows.gather_rows(&kept).expect("every live slot is a pinned row");
        for (slot, &(_, v)) in live.iter().enumerate() {
            self.slots[v] = slot;
        }
    }
}

/// Assigns minibatch indices to `units` round-robin (unit `u` owns batches
/// `u, u + units, …`): process rows on the grid, and ranks when every rank
/// samples for itself, so that every rank trains `k/p` of the `k` bulk
/// minibatches (§6.1).
pub fn assign_batches_to_rows(num_batches: usize, units: usize) -> Vec<Vec<usize>> {
    let mut assignment = vec![Vec::new(); units];
    for i in 0..num_batches {
        assignment[i % units].push(i);
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DistConfig, EpochSamples, Partitioned1p5dBackend, SamplingBackend};
    use crate::sampler::{BulkSamplerConfig, Sampler};
    use crate::{FastGcnSampler, GraphSageSampler, LadiesSampler, LocalBackend};
    use dmbs_comm::Runtime;
    use dmbs_graph::generators::{figure1_example, rmat, RmatConfig};
    use dmbs_matrix::ops::row_selection_matrix;
    use dmbs_matrix::spgemm::spgemm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn adjacency() -> CsrMatrix {
        figure1_example().adjacency().clone()
    }

    /// One bulk group holding every batch, sampled on a `p/c × c` grid.
    fn sample<S: Sampler + Sync>(
        p: usize,
        c: usize,
        sampler: &S,
        a: &CsrMatrix,
        batches: &[Vec<usize>],
        seed: u64,
    ) -> Result<EpochSamples> {
        let bulk = BulkSamplerConfig::new(batches[0].len(), batches.len());
        Partitioned1p5dBackend::new(DistConfig::new(p, c, bulk))?
            .sample_epoch(sampler, a, batches, seed)
    }

    fn random_graph(scale: u32, degree: usize, seed: u64) -> CsrMatrix {
        rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(seed))
            .unwrap()
            .adjacency()
            .clone()
    }

    #[test]
    fn spgemm_1p5d_matches_serial_spgemm() {
        // Q = selection of a few rows; result must equal the serial product.
        let a = random_graph(6, 4, 1);
        let n = a.rows();
        for &(p, c) in &[(2usize, 1usize), (4, 2), (6, 2), (4, 4), (8, 2)] {
            let runtime = Runtime::new(p).unwrap();
            let grid = ProcessGrid::new(p, c).unwrap();
            let vertex_partition = OneDPartition::new(n, grid.rows()).unwrap();
            let a_blocks = vertex_partition.split_csr(&a).unwrap();
            // The same Q block on every process row (simplest consistent setup:
            // every row owns the same stacked rows — fine for a kernel test).
            let q = row_selection_matrix(&[1, 5, 17, 33, 40], n).unwrap();
            let expected = spgemm(&q, &a).unwrap();

            let outs = runtime
                .run(|comm| {
                    let (my_row, _) = grid.coords(comm.rank());
                    let mut profile = PhaseProfile::new();
                    spgemm_1p5d_sparsity_aware(
                        comm,
                        &grid,
                        &q,
                        &a_blocks[my_row],
                        &vertex_partition,
                        &mut profile,
                        Phase::Probability,
                    )
                })
                .unwrap();
            for out in outs {
                // The operands are 0/1, so every sum is exact.
                assert_eq!(out.value.unwrap(), expected, "1.5D SpGEMM mismatch for p={p}, c={c}");
            }
        }
    }

    /// The `Q` block of process row `row`: a few rows spread over the whole
    /// vertex range, with several nonzeros each, so every rank reads rows
    /// of every block row.
    fn q_block(row: usize, n: usize) -> CsrMatrix {
        let rows = (0..4)
            .map(|i| {
                let mut cols: Vec<usize> =
                    (0..3).map(|j| (row * 7 + i * 13 + j * (n / 3 + 1)) % n).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter().map(|c| (c, 0.5 + c as f64)).collect()
            })
            .collect();
        CsrMatrix::from_rows(4, n, rows).unwrap()
    }

    #[test]
    fn slab_replies_are_word_neutral() {
        // Each rank's words and messages inside the 1.5D SpGEMM, against
        // their closed form: one request of `|needed|` words to each remote
        // owner; as an owner, one slab of `rows + 2·nnz` words per remote
        // requester (what one `(gid, row)` pair per row cost before the
        // slab); and, when `c > 1`, the row all-reduce of 3-word triples
        // (every member sends its partial sum to the row's first rank, which
        // sends the concatenation back to the others).
        let a = random_graph(7, 5, 9);
        let n = a.rows();
        for &(p, c) in &[(2usize, 1usize), (4, 2), (8, 2)] {
            let grid = ProcessGrid::new(p, c).unwrap();
            let rows = grid.rows();
            let partition = OneDPartition::new(n, rows).unwrap();
            let a_blocks = partition.split_csr(&a).unwrap();
            let stages = rows.div_ceil(c);
            let needed = |row: usize, k: usize| -> Vec<usize> {
                let range = partition.range(k);
                q_block(row, n)
                    .nonzero_columns()
                    .into_iter()
                    .filter(|v| range.contains(v))
                    .collect()
            };
            // Nonzeros of the partial sum of rank `(row, col)` before the
            // all-reduce: its `Q` block times the block rows its column owns.
            let partial_nnz = |row: usize, col: usize| -> usize {
                let blocks = col * stages..((col + 1) * stages).min(rows);
                let owned = |v: usize| blocks.contains(&partition.owner_of(v));
                let kept =
                    (0..n).map(|v| a.row_entries(v).filter(|_| owned(v)).collect()).collect();
                spgemm(&q_block(row, n), &CsrMatrix::from_rows(n, n, kept).unwrap()).unwrap().nnz()
            };
            let mut expected = vec![(0usize, 0usize); p];
            for (rank, want) in expected.iter_mut().enumerate() {
                let (row, col) = grid.coords(rank);
                for k in (col * stages..(col + 1) * stages).filter(|&k| k < rows) {
                    if grid.rank_at(k, col) != rank {
                        *want = (want.0 + needed(row, k).len(), want.1 + 1);
                        continue;
                    }
                    for peer_row in (0..rows).filter(|&r| r != row) {
                        let served = needed(peer_row, k);
                        let nnz: usize = served.iter().map(|&v| a.row_nnz(v)).sum();
                        *want = (want.0 + served.len() + 2 * nnz, want.1 + 1);
                    }
                }
                if c > 1 {
                    let words = if col == 0 {
                        let total: usize = (0..c).map(|j| partial_nnz(row, j)).sum();
                        (c - 1) * 3 * total
                    } else {
                        3 * partial_nnz(row, col)
                    };
                    let messages = if col == 0 { c - 1 } else { 1 };
                    *want = (want.0 + words, want.1 + messages);
                }
            }

            let outs = Runtime::new(p)
                .unwrap()
                .run(|comm| {
                    let (row, _) = grid.coords(comm.rank());
                    let before = comm.stats();
                    spgemm_1p5d_sparsity_aware(
                        comm,
                        &grid,
                        &q_block(row, n),
                        &a_blocks[row],
                        &partition,
                        &mut PhaseProfile::new(),
                        Phase::Probability,
                    )?;
                    let after = comm.stats();
                    Ok::<_, SamplingError>((
                        after.words_sent - before.words_sent,
                        after.messages - before.messages,
                    ))
                })
                .unwrap();
            let measured: Vec<(usize, usize)> =
                outs.into_iter().map(|o| o.value.unwrap()).collect();
            assert_eq!(measured, expected, "grid ({p}, {c}): (words, messages) per rank");
            assert!(measured.iter().all(|&(words, _)| words > 0), "grid ({p}, {c}) moved nothing");
        }
    }

    /// One 1.5D product of rank `comm`, reading remote rows from `pins`
    /// when given, with the words and messages it sent.
    fn measured(
        comm: &mut Communicator,
        grid: &ProcessGrid,
        q: &CsrMatrix,
        block: &CsrMatrix,
        pins: Option<&mut PinnedRows>,
        partition: &OneDPartition,
    ) -> Result<(CsrMatrix, usize, usize)> {
        let before = comm.stats();
        let mut profile = PhaseProfile::new();
        let p =
            spgemm_1p5d(comm, grid, q, block, pins, partition, &mut profile, Phase::Probability)?;
        let after = comm.stats();
        Ok((p, after.words_sent - before.words_sent, after.messages - before.messages))
    }

    fn value_bits(m: &CsrMatrix) -> Vec<u64> {
        m.value_iter().map(f64::to_bits).collect()
    }

    #[test]
    fn pinned_rows_are_fetched_once_per_run() {
        // A rank that holds its rows across products fetches each remote
        // row once.  The first product with fresh pins moves what the
        // unpinned one moves (`slab_replies_are_word_neutral` pins that to
        // its closed form), whose fetch part is, summed over the ranks,
        // each rank's distinct remote rows × (2 + 2·deg): a request id, a
        // length word and the entries.  A repeat with the same `Q` sends no
        // request or slab words — only the row all-reduce at `c > 1` — in
        // as many messages, books every fetch word as saved, and gives the
        // same product bit for bit.
        let a = random_graph(7, 5, 9);
        let n = a.rows();
        for &(p, c) in &[(2usize, 1usize), (4, 2), (8, 2)] {
            let grid = ProcessGrid::new(p, c).unwrap();
            let rows = grid.rows();
            let partition = OneDPartition::new(n, rows).unwrap();
            let stages = rows.div_ceil(c);
            // The rows rank `(row, col)` reads from the other process rows
            // its column serves.
            let remote = |rank: usize| -> Vec<usize> {
                let (row, col) = grid.coords(rank);
                let blocks = col * stages..((col + 1) * stages).min(rows);
                let theirs = |v: &usize| {
                    let owner = partition.owner_of(*v);
                    owner != row && blocks.contains(&owner)
                };
                q_block(row, n).nonzero_columns().into_iter().filter(theirs).collect()
            };
            let closed_form: usize = (0..p).flat_map(remote).map(|v| 2 + 2 * a.row_nnz(v)).sum();

            let outs = Runtime::new(p)
                .unwrap()
                .run(|comm| {
                    let (row, _) = grid.coords(comm.rank());
                    let q = q_block(row, n);
                    let mut held = RankRows::new();
                    let (block, pins) = held.split(&a, &partition, row)?;
                    let unpinned = measured(comm, &grid, &q, block, None, &partition)?;
                    let first = measured(comm, &grid, &q, block, Some(&mut *pins), &partition)?;
                    let second = measured(comm, &grid, &q, block, Some(pins), &partition)?;
                    let saved = held.take_words_saved();
                    Ok::<_, SamplingError>((unpinned, first, second, saved, held.pinned_rows()))
                })
                .unwrap();
            let (mut fetched, mut saved) = (0, 0);
            for out in outs {
                let label = format!("grid ({p}, {c}) rank {}", out.rank);
                let (unpinned, first, second, rank_saved, pinned) = out.value.unwrap();
                assert_eq!(value_bits(&first.0), value_bits(&unpinned.0), "{label}: first");
                assert_eq!(first.0, unpinned.0, "{label}: first");
                assert_eq!(value_bits(&second.0), value_bits(&unpinned.0), "{label}: repeat");
                assert_eq!(second.0, unpinned.0, "{label}: repeat");
                assert_eq!((first.1, first.2), (unpinned.1, unpinned.2), "{label}: first books");
                assert_eq!(second.2, first.2, "{label}: the repeat changed the message count");
                if c == 1 {
                    assert_eq!(second.1, 0, "{label}: the repeat sent words");
                }
                assert_eq!(pinned, remote(out.rank).len(), "{label}: pinned rows");
                fetched += first.1 - second.1;
                saved += rank_saved;
            }
            assert!(closed_form > 0, "grid ({p}, {c}) reads no remote row");
            assert_eq!(fetched, closed_form, "grid ({p}, {c}): fetched words");
            assert_eq!(saved, closed_form, "grid ({p}, {c}): saved words");
        }
    }

    #[test]
    fn forged_slabs_are_typed_errors_not_panics() {
        // A requester validates every slab before it holds it, and the
        // stage multiply then indexes its scratch with the held rows'
        // column ids, so the store's validation is all that stands between
        // a forged reply and an out-of-bounds write.
        let n = 8;
        let q = CsrMatrix::from_rows(2, n, vec![vec![(1, 1.0), (2, 0.5)], vec![(2, 1.0)]]).unwrap();
        let needed = [1, 2];
        let values = || vec![1.0, 2.0, 3.0];
        let mut pins = PinnedRows::new(n);
        pins.pin(&needed, (vec![2, 1], vec![0, 7, 3], values())).unwrap();
        let p_hat = CsrMatrix::zeros(2, n);
        let p = with_workspace(|ws| {
            spgemm_with_row_lookup(&q, &pins.rows, |k| pins.slot(k), &p_hat, ws)
        })
        .unwrap();
        assert_eq!(p.row_indices(0), &[0, 3, 7]);
        let forged: [(&str, RowSlab); 11] = [
            ("fewer lengths than requested rows", (vec![3], vec![0, 7, 3], values())),
            ("more lengths than requested rows", (vec![2, 1, 0], vec![0, 7, 3], values())),
            ("lengths that overflow", (vec![usize::MAX, 2], vec![0, 7, 3], values())),
            (
                "lengths that wrap to the index count",
                (vec![usize::MAX, 4], vec![0, 7, 3], values()),
            ),
            ("lengths short of the indices", (vec![1, 1], vec![0, 7, 3], values())),
            ("lengths past the indices", (vec![2, 2], vec![0, 7, 3], values())),
            ("fewer values than indices", (vec![2, 1], vec![0, 7, 3], vec![1.0, 2.0])),
            ("a column equal to n", (vec![2, 1], vec![0, n, 3], values())),
            ("a column far past n", (vec![2, 1], vec![0, 7, usize::MAX], values())),
            ("an unsorted row", (vec![2, 1], vec![7, 0, 3], values())),
            ("a duplicate column", (vec![2, 1], vec![3, 3, 3], values())),
        ];
        for (what, slab) in forged {
            let mut pins = PinnedRows::new(n);
            match pins.pin(&needed, slab) {
                Err(SamplingError::Matrix(MatrixError::InvalidStructure(_))) => {}
                other => panic!("{what}: {other:?}"),
            }
            assert_eq!((pins.rows.rows(), pins.slot(1)), (0, None), "{what}: held");
        }
        // The owner rejects a request for a row outside its block the same way.
        let block = CsrMatrix::identity(4);
        assert!(reply_slab(&block, &(4..8), &[4, 7]).is_ok());
        for request in [[3usize], [8], [usize::MAX]] {
            assert!(matches!(
                reply_slab(&block, &(4..8), &request),
                Err(SamplingError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn pins_take_only_valid_slabs_and_drop_only_dirty_rows() {
        let mut pins = PinnedRows::new(8);
        let needed = [1, 2];
        let values = || vec![1.0, 2.0, 3.0];
        // A malformed slab is refused before anything is pinned.
        assert!(matches!(
            pins.pin(&needed, (vec![2, 1], vec![7, 0, 3], values())),
            Err(SamplingError::Matrix(MatrixError::InvalidStructure(_)))
        ));
        assert_eq!((pins.rows.rows(), pins.slot(1), pins.slot(2)), (0, None, None));
        pins.pin(&needed, (vec![2, 1], vec![0, 7, 3], values())).unwrap();
        assert_eq!((pins.slot(1), pins.slot(2)), (Some(0), Some(1)));
        assert_eq!(pins.rows.row_indices(0), &[0, 7]);
        // Held rows leave the request, and book what they kept off the wire.
        assert_eq!(pins.request(&[1, 2, 5]), vec![5]);
        // Rows 1 and 2 hold 2 and 1 entries.
        assert_eq!(pins.words_saved, (2 + 4) + (2 + 2));
        // Dropping a row compacts the others in order; unpinned ids are ignored.
        pins.drop_rows(&[1, 6, 99]);
        assert_eq!((pins.slot(1), pins.slot(2), pins.rows.rows()), (None, Some(0), 1));
        assert_eq!(pins.rows.row_indices(0), &[3]);
    }

    #[test]
    fn spgemm_1p5d_with_empty_q_block() {
        let a = random_graph(5, 3, 2);
        let n = a.rows();
        let runtime = Runtime::new(4).unwrap();
        let grid = ProcessGrid::new(4, 2).unwrap();
        let vertex_partition = OneDPartition::new(n, grid.rows()).unwrap();
        let a_blocks = vertex_partition.split_csr(&a).unwrap();
        let outs = runtime
            .run(|comm| {
                let (my_row, _) = grid.coords(comm.rank());
                let q = CsrMatrix::zeros(0, n);
                let mut profile = PhaseProfile::new();
                spgemm_1p5d_sparsity_aware(
                    comm,
                    &grid,
                    &q,
                    &a_blocks[my_row],
                    &vertex_partition,
                    &mut profile,
                    Phase::Probability,
                )
            })
            .unwrap();
        for out in outs {
            assert_eq!(out.value.unwrap().rows(), 0);
        }
    }

    #[test]
    fn partitioned_sage_respects_fanout_on_random_graph() {
        let a = random_graph(7, 6, 3);
        let n = a.rows();
        let batches: Vec<Vec<usize>> = (0..6).map(|i| vec![i * 3 % n, (i * 7 + 1) % n]).collect();
        let epoch = sample(8, 2, &GraphSageSampler::new(vec![3, 2]), &a, &batches, 17).unwrap();
        assert_eq!(epoch.per_unit.len(), 4);
        assert_eq!(epoch.num_batches(), 6);
        for mb in epoch.minibatches() {
            assert!(mb.frontiers_are_chained());
            for layer in &mb.layers {
                for r in 0..layer.adjacency.rows() {
                    assert!(layer.adjacency.row_nnz(r) <= 3);
                }
                for (r, c, _) in layer.adjacency.iter() {
                    assert_eq!(
                        a.get(layer.rows[r], layer.cols[c]),
                        1.0,
                        "sampled edge not in graph"
                    );
                }
            }
        }
        // The partitioned algorithm actually communicates.
        assert!(epoch.output.comm_stats.messages > 0);
    }

    #[test]
    fn partitioned_ladies_full_sample_matches_single_device() {
        // With s covering the whole aggregated neighborhood, LADIES keeps all
        // support vertices, so the result is deterministic and must match the
        // single-device sampler.
        let a = adjacency();
        let batches: Vec<Vec<usize>> = vec![vec![1, 5], vec![0, 2]];
        let single = LadiesSampler::new(1, 10);
        let epoch = sample(4, 2, &single, &a, &batches, 5).unwrap();

        let mut rng = StdRng::seed_from_u64(23);
        let expected =
            single.sample_bulk(&a, &batches, &BulkSamplerConfig::new(2, 2), &mut rng).unwrap();
        for (got, want) in epoch.minibatches().iter().zip(&expected.minibatches) {
            assert_eq!(got.layers[0].rows, want.layers[0].rows);
            assert_eq!(got.layers[0].cols, want.layers[0].cols);
            assert!(got.layers[0].adjacency.approx_eq(&want.layers[0].adjacency, 1e-12));
        }
    }

    #[test]
    fn partitioned_ladies_sample_size_and_edges() {
        let a = random_graph(7, 8, 4);
        let n = a.rows();
        let batches: Vec<Vec<usize>> =
            (0..4).map(|i| vec![(i * 11) % n, (i * 13 + 2) % n, (i * 5 + 7) % n]).collect();
        let epoch = sample(4, 2, &LadiesSampler::new(1, 5), &a, &batches, 31).unwrap();
        for mb in epoch.minibatches() {
            let layer = &mb.layers[0];
            assert!(layer.cols.len() <= 5);
            // Every kept edge is a real edge between a batch and a sampled vertex.
            for (r, c, _) in layer.adjacency.iter() {
                assert_eq!(a.get(layer.rows[r], layer.cols[c]), 1.0);
            }
        }
    }

    #[test]
    fn invalid_configurations_rejected() {
        let a = adjacency();
        let sage = GraphSageSampler::new(vec![2]);
        assert!(sample(2, 2, &sage, &a, &[vec![99]], 0).is_err());
        // An empty batch is rejected before any rank samples, as on Local.
        assert!(matches!(
            sample(2, 2, &sage, &a, &[vec![1, 5], vec![]], 0),
            Err(SamplingError::InvalidConfig(_))
        ));
        // Replication must divide p.
        assert!(sample(2, 3, &sage, &a, &[vec![0]], 0).is_err());
        // Rectangular adjacency.
        assert!(sample(2, 2, &sage, &CsrMatrix::zeros(3, 4), &[vec![0]], 0).is_err());
    }

    #[test]
    fn process_rows_with_no_batches_still_join_every_collective() {
        // 2 batches on a 4 × 2 grid leave process rows 2 and 3 empty; they
        // must take part in every collective of the rows that do sample.
        // At full sample size every sampler is deterministic and must equal
        // Local.
        let a = random_graph(6, 4, 7);
        let n = a.rows();
        let batches = vec![vec![3, 17, 40], vec![8, 29, 55]];
        fn check<S: Sampler + Sync>(sampler: &S, a: &CsrMatrix, batches: &[Vec<usize>]) {
            let bulk = BulkSamplerConfig::new(3, batches.len());
            let local = LocalBackend::new(bulk).unwrap().sample_epoch(sampler, a, batches, 1);
            let grid = sample(8, 2, sampler, a, batches, 2).unwrap();
            assert_eq!(grid.per_unit.len(), 4);
            assert_eq!(grid.minibatches(), local.unwrap().minibatches(), "{}", sampler.name());
        }
        check(&GraphSageSampler::new(vec![n, n]), &a, &batches);
        check(&LadiesSampler::new(2, n), &a, &batches);
        check(&FastGcnSampler::new(2, n), &a, &batches);
    }

    #[test]
    fn row_assignment_balances() {
        let a = assign_batches_to_rows(7, 3);
        assert_eq!(a[0], vec![0, 3, 6]);
        assert_eq!(a[1], vec![1, 4]);
        assert_eq!(a[2], vec![2, 5]);
    }

    #[test]
    fn replication_reduces_stage_count_and_messages() {
        // Increasing c shrinks the number of 1.5D stages each process column
        // executes (p/c² in the paper), so the per-rank message count of the
        // probability SpGEMM must go down.  Batches are spread across the
        // whole vertex range so every rank genuinely needs remote rows.
        let a = random_graph(8, 8, 5);
        let n = a.rows();
        let batches: Vec<Vec<usize>> =
            (0..8).map(|i| (0..16).map(|j| (i + j * 16) % n).collect()).collect();
        let sage = GraphSageSampler::new(vec![4]);
        let c1 = sample(8, 1, &sage, &a, &batches, 7).unwrap();
        let c2 = sample(8, 2, &sage, &a, &batches, 7).unwrap();
        // Partitioned sampling with scattered batches must actually move data.
        assert!(c2.total_words_sent() > 0, "partitioned sampling with c=2 sent no data");
        // Per-reporting-rank message count shrinks with replication.
        let msgs_per_rank_c1 = c1.max_messages();
        let msgs_per_rank_c2 = c2.max_messages();
        assert!(
            msgs_per_rank_c2 < msgs_per_rank_c1,
            "c=2 rank sent {msgs_per_rank_c2} messages, c=1 rank sent {msgs_per_rank_c1}"
        );
    }
}
