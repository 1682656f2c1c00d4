//! Sparse general matrix-matrix multiplication (SpGEMM) — the *general* tier
//! of the three-tier kernel story.
//!
//! The central kernel of the paper: sampling probability distributions are
//! produced by `P ← Q^l · A` and LADIES extraction by `Q_R · A · Q_C`, all of
//! which are sparse × sparse products.  The paper uses nsparse / cuSPARSE on
//! GPU; here we implement the same row-wise (Gustavson) formulation with a
//! dense-accumulator or hash-map accumulator chosen per row.
//!
//! Not every product needs the general machinery, though.  The extraction
//! operands are selection matrices with one nonzero per row/column, and for
//! those the [`crate::extract`] kernels compute the identical result as a
//! row gather ([`crate::extract::extract_rows`]), a masked column filter
//! ([`crate::extract::extract_columns_masked`]) or both in one pass
//! ([`crate::extract::extract_submatrix_with`]) with no accumulation at all.
//! The tiers, from general to structure-exploiting:
//!
//! 1. **Gustavson SpGEMM** (this module) — arbitrary operands: the LADIES
//!    indicator probability step (several nonzeros per `Q` row) and the
//!    distributed 1.5D multiplies;
//! 2. **masked column filter** — `A · Q_C` with one nonzero per column of
//!    `Q_C`;
//! 3. **row gather** — `Q_R · A` with one nonzero per row of `Q_R`, as a
//!    matrix of its own (the samplers read those rows in place instead);
//! 4. **submatrix filter** — `Q_R · A · Q_C` in one pass (LADIES and
//!    FastGCN extraction).
//!
//! The serial kernels ([`spgemm`]) are deliberately kept as an *independent
//! reference implementation* of the two-pass kernel
//! ([`spgemm_parallel`] / [`spgemm_parallel_with`]): the inner Gustavson
//! loops exist in both, and the byte-identity contract between them is
//! pinned by `prop_spgemm_parallel_byte_identical_to_serial` (random inputs,
//! 1/2/8 threads, including cancellation zeros).  When editing either copy,
//! keep the accumulation order, the dense/hash `DENSE_ACCUM_MAX_COLS`
//! dispatch and the explicit-zero retention in sync — the proptests will
//! fail loudly if they drift.
//!
//! The two-pass kernel draws its dense accumulators, marker arrays and
//! symbolic-count scratch from a [`SpgemmWorkspace`] (thread-local by
//! default), so repeated probability steps stop reallocating their scratch
//! on every call — see [`crate::workspace`].
//!
//! The stage multiply of the distributed 1.5D SpGEMM,
//! [`spgemm_with_fetched_rows`], is the same dense-accumulator loop on the
//! same scratch, with the right operand given as the fetched rows of a
//! larger matrix and the product merged into the earlier stages' sum as it
//! is produced.  Its `#[cfg(test)]` oracle is the hash-map formulation it
//! replaced, followed by the `BTreeMap` add; the proptest
//! `prop_staged_fetched_multiply_is_bit_identical_to_the_oracle` pins the
//! two to the bit across stages, signed zeros and cancellation.

use crate::csr::{merge_add_row, CsrMatrix};
use crate::error::MatrixError;
use crate::pool::{block_ranges, Parallelism};
use crate::prefix::counts_to_offsets;
use crate::workspace::{with_workspace, SpgemmWorkspace, WorkerScratch};
use crate::Result;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

/// Threshold on the number of columns below which a dense accumulator row is
/// used instead of a hash map.  Dense accumulation is faster but costs
/// `O(cols)` scratch per call.
const DENSE_ACCUM_MAX_COLS: usize = 1 << 16;

/// Computes the sparse product `lhs * rhs` of two CSR matrices.
///
/// Uses Gustavson's row-wise algorithm: row `i` of the output is the linear
/// combination of the rows of `rhs` selected by the nonzeros of row `i` of
/// `lhs`.  Numerically zero entries produced by cancellation are kept (they
/// are structurally meaningful for sampling masks).
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `lhs.cols() != rhs.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::{CooMatrix, CsrMatrix, spgemm::spgemm};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 2, vec![(0, 1, 2.0)])?);
/// let b = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 2, vec![(1, 0, 3.0)])?);
/// let c = spgemm(&a, &b)?;
/// assert_eq!(c.get(0, 0), 6.0);
/// # Ok(())
/// # }
/// ```
pub fn spgemm(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    if rhs.cols() <= DENSE_ACCUM_MAX_COLS {
        spgemm_dense_accum(lhs, rhs)
    } else {
        spgemm_hash_accum(lhs, rhs)
    }
}

/// Computes the sparse product `lhs * rhs` on a scoped worker pool.
///
/// Row-blocked Gustavson SpGEMM in two passes: a **symbolic** pass counts the
/// output nonzeros of every row (parallel over contiguous row blocks, one
/// dense/hash scratch per worker), a prefix sum turns the counts into CSR
/// offsets, and a **numeric** pass fills each block's disjoint slice of the
/// output `indices`/`values` buffers in place.  Because every output row is
/// computed exactly as the serial kernel computes it (same accumulation
/// order, same sort), the result is **byte-identical to [`spgemm`] at any
/// thread count** — see the determinism proptests.
///
/// Scratch (dense accumulators, markers, symbolic counts) comes from this
/// thread's reusable [`SpgemmWorkspace`], so back-to-back products — the
/// per-layer probability steps of a bulk sampling epoch — allocate nothing
/// but their output buffers.  Use [`spgemm_parallel_with`] to supply an
/// explicit workspace instead.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `lhs.cols() != rhs.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::spgemm::{spgemm, spgemm_parallel};
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     3, 3, vec![(0, 1, 2.0), (1, 2, 0.5), (2, 0, -1.0)],
/// )?);
/// let serial = spgemm(&a, &a)?;
/// let parallel = spgemm_parallel(&a, &a, Parallelism::new(4))?;
/// assert_eq!(parallel, serial); // byte-identical, not just approximately
/// # Ok(())
/// # }
/// ```
pub fn spgemm_parallel(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    parallelism: Parallelism,
) -> Result<CsrMatrix> {
    with_workspace(|ws| spgemm_parallel_with(lhs, rhs, parallelism, ws))
}

/// [`spgemm_parallel`] with an explicit scratch workspace.
///
/// Runs the two-pass kernel at any block count (including one, where the
/// preallocated-buffer fill still beats the serial `from_rows` path), and is
/// byte-identical to [`spgemm`] regardless of `parallelism` or the state of
/// `ws`.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `lhs.cols() != rhs.rows()`.
pub fn spgemm_parallel_with(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    parallelism: Parallelism,
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm_parallel",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let rows = lhs.rows();
    if rows == 0 {
        return Ok(CsrMatrix::zeros(0, rhs.cols()));
    }
    let blocks = block_ranges(rows, parallelism.effective_blocks(rows));
    let use_dense = rhs.cols() <= DENSE_ACCUM_MAX_COLS;
    let dense_cols = if use_dense { rhs.cols() } else { 0 };

    // Disjoint borrows of the workspace fields used by the two passes.
    let counts = &mut ws.counts;
    counts.clear();
    counts.resize(rows, 0);
    if ws.workers.len() < blocks.len() {
        ws.workers.resize_with(blocks.len(), WorkerScratch::default);
    }
    let workers = &mut ws.workers[..blocks.len()];
    for w in workers.iter_mut() {
        w.ensure_cols(dense_cols);
    }

    // Pass 1 (symbolic): per-row output nnz, computed block-parallel with
    // one reusable scratch set per block.
    if blocks.len() <= 1 {
        symbolic_count_block(lhs, rhs, blocks[0].clone(), counts, &mut workers[0], use_dense);
    } else {
        let pass = crossbeam::thread::scope(|scope| {
            let mut counts_tail = counts.as_mut_slice();
            let mut workers_tail = &mut workers[..];
            let mut handles = Vec::with_capacity(blocks.len());
            for range in &blocks {
                let (counts_head, rest) =
                    std::mem::take(&mut counts_tail).split_at_mut(range.len());
                counts_tail = rest;
                let (scratch, rest) = std::mem::take(&mut workers_tail).split_at_mut(1);
                workers_tail = rest;
                let range = range.clone();
                handles.push(scope.spawn(move || {
                    symbolic_count_block(lhs, rhs, range, counts_head, &mut scratch[0], use_dense)
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        if let Err(payload) = pass {
            std::panic::resume_unwind(payload);
        }
    }

    // Prefix: counts -> CSR row offsets.
    let indptr = counts_to_offsets(counts);
    let total = indptr[rows];

    // Pass 2 (numeric): every block fills its disjoint slice of the output.
    let mut indices = vec![0usize; total];
    let mut values = vec![0.0f64; total];
    if blocks.len() <= 1 {
        numeric_fill_block(
            lhs,
            rhs,
            blocks[0].clone(),
            &indptr,
            &mut indices,
            &mut values,
            &mut workers[0],
            use_dense,
        );
    } else {
        let fill = crossbeam::thread::scope(|scope| {
            let mut idx_tail = indices.as_mut_slice();
            let mut val_tail = values.as_mut_slice();
            let mut workers_tail = &mut workers[..];
            let mut handles = Vec::with_capacity(blocks.len());
            for range in blocks {
                let len = indptr[range.end] - indptr[range.start];
                let (idx_head, rest) = std::mem::take(&mut idx_tail).split_at_mut(len);
                idx_tail = rest;
                let (val_head, rest) = std::mem::take(&mut val_tail).split_at_mut(len);
                val_tail = rest;
                let (scratch, rest) = std::mem::take(&mut workers_tail).split_at_mut(1);
                workers_tail = rest;
                let indptr = &indptr;
                handles.push(scope.spawn(move || {
                    numeric_fill_block(
                        lhs,
                        rhs,
                        range,
                        indptr,
                        idx_head,
                        val_head,
                        &mut scratch[0],
                        use_dense,
                    )
                }));
            }
            for handle in handles {
                if let Err(payload) = handle.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
        if let Err(payload) = fill {
            std::panic::resume_unwind(payload);
        }
    }
    CsrMatrix::from_raw(rows, rhs.cols(), indptr, indices, values)
}

/// Symbolic pass: writes the number of distinct output columns of every row
/// in `range` into `counts` (one slot per row of the range), using the
/// worker's reusable dense mark vector or a hash set.
fn symbolic_count_block(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    range: Range<usize>,
    counts: &mut [usize],
    scratch: &mut WorkerScratch,
    use_dense: bool,
) {
    let start = range.start;
    if use_dense {
        let marked = &mut scratch.marked;
        let touched = &mut scratch.touched;
        for i in range {
            for &k in lhs.row_indices(i) {
                for &j in rhs.row_indices(k) {
                    if !marked[j] {
                        marked[j] = true;
                        touched.push(j);
                    }
                }
            }
            counts[i - start] = touched.len();
            for &j in touched.iter() {
                marked[j] = false;
            }
            touched.clear();
        }
    } else {
        let mut seen: HashSet<usize> = HashSet::new();
        for i in range {
            for &k in lhs.row_indices(i) {
                seen.extend(rhs.row_indices(k).iter().copied());
            }
            counts[i - start] = seen.len();
            seen.clear();
        }
    }
}

/// Numeric pass: recomputes the rows of `range` with the same accumulation
/// order as the serial kernel and writes them into this block's slice of the
/// output buffers (`indices`/`values` start at `indptr[range.start]`).
#[allow(clippy::too_many_arguments)]
fn numeric_fill_block(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    range: Range<usize>,
    indptr: &[usize],
    indices: &mut [usize],
    values: &mut [f64],
    scratch: &mut WorkerScratch,
    use_dense: bool,
) {
    let base = indptr[range.start];
    if use_dense {
        let accum = &mut scratch.accum;
        let marked = &mut scratch.marked;
        let touched = &mut scratch.touched;
        for i in range {
            for (&k, &lv) in lhs.row_indices(i).iter().zip(lhs.row_values(i)) {
                for (&j, &rv) in rhs.row_indices(k).iter().zip(rhs.row_values(k)) {
                    if !marked[j] {
                        marked[j] = true;
                        touched.push(j);
                    }
                    accum[j] += lv * rv;
                }
            }
            touched.sort_unstable();
            let start = indptr[i] - base;
            for (slot, &j) in touched.iter().enumerate() {
                indices[start + slot] = j;
                values[start + slot] = accum[j];
                accum[j] = 0.0;
                marked[j] = false;
            }
            touched.clear();
        }
    } else {
        for i in range {
            let mut accum: HashMap<usize, f64> = HashMap::new();
            for (&k, &lv) in lhs.row_indices(i).iter().zip(lhs.row_values(i)) {
                for (&j, &rv) in rhs.row_indices(k).iter().zip(rhs.row_values(k)) {
                    *accum.entry(j).or_insert(0.0) += lv * rv;
                }
            }
            let mut row: Vec<(usize, f64)> = accum.into_iter().collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            let start = indptr[i] - base;
            for (slot, (j, v)) in row.into_iter().enumerate() {
                indices[start + slot] = j;
                values[start + slot] = v;
            }
        }
    }
}

/// Row-wise SpGEMM using a dense accumulator of length `rhs.cols()`.
fn spgemm_dense_accum(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    let out_cols = rhs.cols();
    let mut accum: Vec<f64> = vec![0.0; out_cols];
    let mut touched: Vec<usize> = Vec::new();
    let mut marked: Vec<bool> = vec![false; out_cols];
    let mut row_data: Vec<Vec<(usize, f64)>> = Vec::with_capacity(lhs.rows());

    for i in 0..lhs.rows() {
        for (&k, &lv) in lhs.row_indices(i).iter().zip(lhs.row_values(i)) {
            for (&j, &rv) in rhs.row_indices(k).iter().zip(rhs.row_values(k)) {
                if !marked[j] {
                    marked[j] = true;
                    touched.push(j);
                }
                accum[j] += lv * rv;
            }
        }
        touched.sort_unstable();
        let row: Vec<(usize, f64)> = touched.iter().map(|&j| (j, accum[j])).collect();
        for &j in &touched {
            accum[j] = 0.0;
            marked[j] = false;
        }
        touched.clear();
        row_data.push(row);
    }
    CsrMatrix::from_rows(lhs.rows(), out_cols, row_data)
}

/// Row-wise SpGEMM using a hash-map accumulator; used for very wide outputs
/// where a dense scratch row would be wasteful.
fn spgemm_hash_accum(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    let out_cols = rhs.cols();
    let mut row_data: Vec<Vec<(usize, f64)>> = Vec::with_capacity(lhs.rows());
    for i in 0..lhs.rows() {
        let mut accum: HashMap<usize, f64> = HashMap::new();
        for (&k, &lv) in lhs.row_indices(i).iter().zip(lhs.row_values(i)) {
            for (&j, &rv) in rhs.row_indices(k).iter().zip(rhs.row_values(k)) {
                *accum.entry(j).or_insert(0.0) += lv * rv;
            }
        }
        let mut row: Vec<(usize, f64)> = accum.into_iter().collect();
        row.sort_unstable_by_key(|&(c, _)| c);
        row_data.push(row);
    }
    CsrMatrix::from_rows(lhs.rows(), out_cols, row_data)
}

/// Computes `acc + lhs · R`, where the right operand `R` is given as a *set
/// of rows* of a larger matrix: row `needed[r]` of `R` is row `r` of
/// `fetched`, and every row not in `needed` is empty.
///
/// This is one stage of the sparsity-aware 1.5D algorithm (Algorithm 2 in
/// the paper): the left block `Q^l_{ik}` only needs the rows of `A_k`
/// matching its nonzero columns, which are delivered by communication as
/// one CSR slab and passed here without materialising the full block, and
/// the stage's product is added to the running sum `acc` of the earlier
/// stages.
///
/// The kernel is Gustavson's dense-accumulator loop on `ws`'s scratch: a
/// stamped dense lookup over `needed`'s span maps a column of `lhs` to its
/// fetched row, every output entry is accumulated from `+0.0` over the
/// `lhs` row's columns in ascending order, the touched columns are sorted,
/// and the row is merged into `acc`'s row with [`CsrMatrix::add`]'s merge.
/// The result is therefore bit-identical to multiplying through a hash map
/// per row and then adding with a `BTreeMap` per row, and cancellation
/// zeros stay stored.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `fetched` does not have one
/// row per entry of `needed`, or `acc` is not `lhs.rows() × fetched.cols()`,
/// and [`MatrixError::InvalidStructure`] if `needed` is not strictly
/// increasing or names a row `>= lhs.cols()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::spgemm::{spgemm, spgemm_with_fetched_rows};
/// use dmbs_matrix::workspace::SpgemmWorkspace;
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     3, 3, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)],
/// )?);
/// let q = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 3, vec![(0, 1, 1.0), (1, 2, 1.0)])?);
/// // Only rows 1 and 2 of `a` are fetched, which is all `q` reads.
/// let needed = [1, 2];
/// let fetched = a.gather_rows(&needed)?;
/// let zero = CsrMatrix::zeros(2, 3);
/// let mut ws = SpgemmWorkspace::new();
/// let p = spgemm_with_fetched_rows(&q, &needed, &fetched, &zero, &mut ws)?;
/// assert_eq!(p, spgemm(&q, &a)?);
/// # Ok(())
/// # }
/// ```
pub fn spgemm_with_fetched_rows(
    lhs: &CsrMatrix,
    needed: &[usize],
    fetched: &CsrMatrix,
    acc: &CsrMatrix,
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    let out_cols = fetched.cols();
    if fetched.rows() != needed.len() {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm_with_fetched_rows",
            lhs: (needed.len(), out_cols),
            rhs: fetched.shape(),
        });
    }
    if acc.shape() != (lhs.rows(), out_cols) {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm_with_fetched_rows",
            lhs: (lhs.rows(), out_cols),
            rhs: acc.shape(),
        });
    }
    if needed.windows(2).any(|w| w[0] >= w[1]) || needed.last().is_some_and(|&k| k >= lhs.cols()) {
        return Err(MatrixError::InvalidStructure(format!(
            "fetched row ids must be strictly increasing and below {}",
            lhs.cols()
        )));
    }

    // Dense lookup over the span of `needed`: `lhs` column `k` reads fetched
    // row `pos[k - lo]` when `stamp[k - lo]` is this call's generation.
    let lo = needed.first().copied().unwrap_or(0);
    let span = needed.last().map_or(0, |&hi| hi - lo + 1);
    let generation = ws.begin_mask(span);
    for (r, &k) in needed.iter().enumerate() {
        ws.mask_stamp[k - lo] = generation;
        ws.mask_pos[k - lo] = r;
    }
    if ws.workers.is_empty() {
        ws.workers.push(WorkerScratch::default());
    }
    let (stamp, pos) = (&ws.mask_stamp, &ws.mask_pos);
    let slot = |k: usize| {
        let t = k.wrapping_sub(lo);
        (t < span && stamp[t] == generation).then(|| pos[t])
    };

    // One allocation per output buffer: the sum has at most `acc`'s entries
    // plus one per multiply, and at most every column of every row.
    let flops = lhs
        .indices()
        .iter()
        .filter_map(|&k| slot(k))
        .fold(0usize, |sum, r| sum.saturating_add(fetched.row_nnz(r)));
    let bound = acc.nnz().saturating_add(flops).min(lhs.rows().saturating_mul(out_cols));
    let mut indptr = Vec::with_capacity(lhs.rows() + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(bound);
    let mut values = Vec::with_capacity(bound);

    let scratch = &mut ws.workers[0];
    scratch.ensure_cols(out_cols);
    let WorkerScratch { accum, marked, touched } = scratch;
    for i in 0..lhs.rows() {
        for (k, lv) in lhs.row_entries(i) {
            let Some(r) = slot(k) else { continue };
            for (j, rv) in fetched.row_entries(r) {
                if !marked[j] {
                    marked[j] = true;
                    touched.push(j);
                }
                accum[j] += lv * rv;
            }
        }
        touched.sort_unstable();
        merge_add_row(
            acc.row_entries(i),
            touched.iter().map(|&j| (j, accum[j])),
            &mut indices,
            &mut values,
        );
        for &j in touched.iter() {
            accum[j] = 0.0;
            marked[j] = false;
        }
        touched.clear();
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_raw_unchecked(lhs.rows(), out_cols, indptr, indices, values))
}

/// Reference SpGEMM that multiplies via dense matrices.  Only for testing the
/// sparse kernels on small inputs.
pub fn spgemm_dense_reference(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<CsrMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm_dense_reference",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    let dense = lhs.to_dense().matmul(&rhs.to_dense())?;
    let mut coo = crate::CooMatrix::new(lhs.rows(), rhs.cols());
    for r in 0..lhs.rows() {
        for c in 0..rhs.cols() {
            let v = dense.get(r, c);
            if v != 0.0 {
                coo.push(r, c, v)?;
            }
        }
    }
    Ok(CsrMatrix::from_coo(&coo))
}

/// The fetched-rows multiply the dense-accumulator stage kernel replaced,
/// kept as its oracle.
#[cfg(test)]
mod oracle {
    use super::{CsrMatrix, HashMap};

    /// `lhs · R` where row `row_ids[r]` of `R` is `rhs_rows[r]`, through a
    /// `HashMap` lookup and a `HashMap` accumulator per output row.
    pub(super) fn spgemm_with_fetched_rows(
        lhs: &CsrMatrix,
        row_ids: &[usize],
        rhs_rows: &[Vec<(usize, f64)>],
        out_cols: usize,
    ) -> CsrMatrix {
        let lookup: HashMap<usize, usize> =
            row_ids.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        let mut row_data: Vec<Vec<(usize, f64)>> = Vec::with_capacity(lhs.rows());
        for i in 0..lhs.rows() {
            let mut accum: HashMap<usize, f64> = HashMap::new();
            for (&k, &lv) in lhs.row_indices(i).iter().zip(lhs.row_values(i)) {
                if let Some(&pos) = lookup.get(&k) {
                    for &(j, rv) in &rhs_rows[pos] {
                        *accum.entry(j).or_insert(0.0) += lv * rv;
                    }
                }
            }
            let mut row: Vec<(usize, f64)> = accum.into_iter().collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            row_data.push(row);
        }
        CsrMatrix::from_rows(lhs.rows(), out_cols, row_data).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn figure1_graph() -> CsrMatrix {
        let edges = [
            (0, 1),
            (1, 0),
            (1, 2),
            (1, 4),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (3, 5),
            (4, 1),
            (4, 3),
            (4, 5),
            (5, 3),
            (5, 4),
        ];
        let coo = CooMatrix::from_triples(6, 6, edges.iter().map(|&(r, c)| (r, c, 1.0))).unwrap();
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn identity_is_neutral() {
        let a = figure1_graph();
        let i = CsrMatrix::identity(6);
        assert_eq!(spgemm(&i, &a).unwrap(), a);
        assert_eq!(spgemm(&a, &i).unwrap(), a);
    }

    #[test]
    fn dimension_mismatch() {
        let a = CsrMatrix::zeros(2, 3);
        let b = CsrMatrix::zeros(2, 3);
        assert!(matches!(spgemm(&a, &b), Err(MatrixError::DimensionMismatch { .. })));
    }

    #[test]
    fn graphsage_probability_rows_from_paper() {
        // Q^L for batch {1, 5} (GraphSAGE construction) times A gives the
        // neighborhoods of vertices 1 and 5 — the example in Figure 2a.
        let a = figure1_graph();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(2, 6, vec![(0, 1, 1.0), (1, 5, 1.0)]).unwrap(),
        );
        let p = spgemm(&q, &a).unwrap();
        assert_eq!(p.row_indices(0), &[0, 2, 4]);
        assert_eq!(p.row_indices(1), &[3, 4]);
    }

    #[test]
    fn ladies_probability_row_from_paper() {
        // Q^L for LADIES is a single row with nonzeros at the batch vertices
        // {1, 5}; P = Q A counts, per column, how many batch vertices point to
        // it — the example in Figure 2b gives [1, 0, 1, 1, 2, 0], which after
        // the LADIES squared normalization becomes [1/7, 0, 1/7, 1/7, 4/7, 0].
        let a = figure1_graph();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(1, 6, vec![(0, 1, 1.0), (0, 5, 1.0)]).unwrap(),
        );
        let p = spgemm(&q, &a).unwrap();
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(0, 1), 0.0);
        assert_eq!(p.get(0, 2), 1.0);
        assert_eq!(p.get(0, 3), 1.0);
        assert_eq!(p.get(0, 4), 2.0);
        assert_eq!(p.get(0, 5), 0.0);
    }

    #[test]
    fn hash_and_dense_accumulators_agree() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut coo_a = CooMatrix::new(30, 40);
        let mut coo_b = CooMatrix::new(40, 25);
        for _ in 0..200 {
            coo_a
                .push(rng.gen_range(0..30), rng.gen_range(0..40), rng.gen_range(-2.0..2.0))
                .unwrap();
            coo_b
                .push(rng.gen_range(0..40), rng.gen_range(0..25), rng.gen_range(-2.0..2.0))
                .unwrap();
        }
        let a = CsrMatrix::from_coo(&coo_a);
        let b = CsrMatrix::from_coo(&coo_b);
        let dense = spgemm_dense_accum(&a, &b).unwrap();
        let hash = spgemm_hash_accum(&a, &b).unwrap();
        assert!(dense.approx_eq(&hash, 1e-9));
    }

    /// `lhs · R` for the rows `needed` of `a`, added to nothing.
    fn fetched_product(lhs: &CsrMatrix, a: &CsrMatrix, needed: &[usize]) -> Result<CsrMatrix> {
        let fetched = a.gather_rows(needed)?;
        let zero = CsrMatrix::zeros(lhs.rows(), a.cols());
        spgemm_with_fetched_rows(lhs, needed, &fetched, &zero, &mut SpgemmWorkspace::new())
    }

    #[test]
    fn fetched_rows_matches_full_spgemm() {
        let a = figure1_graph();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(2, 6, vec![(0, 1, 1.0), (1, 5, 1.0)]).unwrap(),
        );
        // Supply only the rows of A that q actually needs (rows 1 and 5).
        let partial = fetched_product(&q, &a, &[1, 5]).unwrap();
        let full = spgemm(&q, &a).unwrap();
        assert_eq!(partial, full);
    }

    #[test]
    fn fetched_rows_missing_rows_are_empty() {
        let a = figure1_graph();
        let q = CsrMatrix::from_coo(
            &CooMatrix::from_triples(2, 6, vec![(0, 1, 1.0), (1, 5, 1.0)]).unwrap(),
        );
        // Supply only row 1; row 5 contributions are dropped.
        let partial = fetched_product(&q, &a, &[1]).unwrap();
        assert_eq!(partial.row_nnz(0), 3);
        assert_eq!(partial.row_nnz(1), 0);
    }

    #[test]
    fn fetched_rows_length_mismatch() {
        let q = CsrMatrix::identity(2);
        let ws = &mut SpgemmWorkspace::new();
        let one_row = CsrMatrix::zeros(1, 2);
        let two_rows = CsrMatrix::zeros(2, 2);
        let zero = CsrMatrix::zeros(2, 2);
        let mismatch =
            |r: Result<CsrMatrix>| matches!(r, Err(MatrixError::DimensionMismatch { .. }));
        let invalid = |r: Result<CsrMatrix>| matches!(r, Err(MatrixError::InvalidStructure(_)));
        assert!(mismatch(spgemm_with_fetched_rows(&q, &[0, 1], &one_row, &zero, ws)));
        assert!(mismatch(spgemm_with_fetched_rows(&q, &[0], &one_row, &one_row, ws)));
        assert!(invalid(spgemm_with_fetched_rows(&q, &[1, 0], &two_rows, &zero, ws)));
        assert!(invalid(spgemm_with_fetched_rows(&q, &[1, 1], &two_rows, &zero, ws)));
        assert!(invalid(spgemm_with_fetched_rows(&q, &[0, 2], &two_rows, &zero, ws)));
    }

    /// A `rows × cols` matrix holding `entries` as given (the last value of
    /// a repeated position wins), so `-0.0` stays `-0.0`.
    fn exact(rows: usize, cols: usize, entries: Vec<(usize, usize, f64)>) -> CsrMatrix {
        let mut cells = std::collections::BTreeMap::new();
        for (r, c, v) in entries {
            cells.insert((r, c), v);
        }
        let mut row_data = vec![Vec::new(); rows];
        for ((r, c), v) in cells {
            row_data[r].push((c, v));
        }
        CsrMatrix::from_rows(rows, cols, row_data).unwrap()
    }

    /// Values that exercise the rounding order: `+0.0`, `-0.0`, quarters
    /// (whose sums cancel exactly), ones and arbitrary non-integers.
    fn awkward_value() -> impl Strategy<Value = f64> {
        (0usize..6, -2.0f64..2.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => (x * 4.0).round() / 4.0,
            3 => 1.0,
            _ => x,
        })
    }

    fn bits(m: &CsrMatrix) -> (Vec<usize>, Vec<usize>, Vec<u64>) {
        let values = m.values().iter().map(|v| v.to_bits()).collect();
        (m.indptr().to_vec(), m.indices().to_vec(), values)
    }

    proptest! {
        /// The staged dense-accumulator multiply with its merge equals, bit
        /// for bit, the hash-map multiply followed by the `BTreeMap` add it
        /// replaced, stage after stage: `Q` rows span several stages, some
        /// requests are empty, some fetched rows hold no nonzeros and some
        /// read columns are not fetched at all.
        #[test]
        fn prop_staged_fetched_multiply_is_bit_identical_to_the_oracle(
            (q, a, stages) in (1usize..8, 1usize..16, 1usize..6).prop_flat_map(|(m, n, out)| {
                let q = collection::vec((0..m, 0..n, awkward_value()), 0..64);
                let a = collection::vec((0..n, 0..out, awkward_value()), 0..64);
                let stages = (1usize..5, collection::vec(0usize..4, n));
                (q, a, stages).prop_map(move |(qe, ae, stages)| {
                    (exact(m, n, qe), exact(n, out, ae), stages)
                })
            }),
        ) {
            let (stage_count, fetch_kind) = stages;
            let n = a.rows();
            let ws = &mut SpgemmWorkspace::new();
            let mut got = CsrMatrix::zeros(q.rows(), a.cols());
            let mut want = got.clone();
            let width = n.div_ceil(stage_count);
            for stage in 0..stage_count {
                let block = stage * width..((stage + 1) * width).min(n);
                // Mostly the rows `q` reads, sometimes an unread row, and
                // sometimes a read row left out.
                let needed: Vec<usize> = block
                    .filter(|&k| match fetch_kind[k] {
                        0 => true,
                        1 => false,
                        _ => q.indices().contains(&k),
                    })
                    .collect();
                let fetched = a.gather_rows(&needed).unwrap();
                got = spgemm_with_fetched_rows(&q, &needed, &fetched, &got, ws).unwrap();
                let rows: Vec<Vec<(usize, f64)>> =
                    needed.iter().map(|&k| a.row_entries(k).collect()).collect();
                let partial = oracle::spgemm_with_fetched_rows(&q, &needed, &rows, a.cols());
                want = crate::csr::oracle::add(&want, &partial);
            }
            prop_assert_eq!(bits(&got), bits(&want));
        }
    }

    fn arb_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
        (1usize..10, 1usize..10, 1usize..10).prop_flat_map(|(m, k, n)| {
            let lhs_entries = proptest::collection::vec((0..m, 0..k, -3.0f64..3.0), 0..40);
            let rhs_entries = proptest::collection::vec((0..k, 0..n, -3.0f64..3.0), 0..40);
            (lhs_entries, rhs_entries).prop_map(move |(le, re)| {
                (
                    CsrMatrix::from_coo(&CooMatrix::from_triples(m, k, le).unwrap()),
                    CsrMatrix::from_coo(&CooMatrix::from_triples(k, n, re).unwrap()),
                )
            })
        })
    }

    #[test]
    fn parallel_matches_serial_byte_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut coo_a = CooMatrix::new(64, 48);
        let mut coo_b = CooMatrix::new(48, 57);
        for _ in 0..600 {
            coo_a
                .push(rng.gen_range(0..64), rng.gen_range(0..48), rng.gen_range(-2.0..2.0))
                .unwrap();
            coo_b
                .push(rng.gen_range(0..48), rng.gen_range(0..57), rng.gen_range(-2.0..2.0))
                .unwrap();
        }
        let a = CsrMatrix::from_coo(&coo_a);
        let b = CsrMatrix::from_coo(&coo_b);
        let serial = spgemm(&a, &b).unwrap();
        for threads in [1usize, 2, 8] {
            let parallel = spgemm_parallel(&a, &b, Parallelism::new(threads)).unwrap();
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_hash_path_matches_serial() {
        // Force the hash accumulator by exceeding the dense-column threshold.
        let wide = DENSE_ACCUM_MAX_COLS + 10;
        let mut rng = StdRng::seed_from_u64(8);
        let mut coo_a = CooMatrix::new(20, 30);
        let mut coo_b = CooMatrix::new(30, wide);
        for _ in 0..200 {
            coo_a
                .push(rng.gen_range(0..20), rng.gen_range(0..30), rng.gen_range(-2.0..2.0))
                .unwrap();
            coo_b
                .push(rng.gen_range(0..30), rng.gen_range(0..wide), rng.gen_range(-2.0..2.0))
                .unwrap();
        }
        let a = CsrMatrix::from_coo(&coo_a);
        let b = CsrMatrix::from_coo(&coo_b);
        let serial = spgemm(&a, &b).unwrap();
        for threads in [2usize, 8] {
            assert_eq!(spgemm_parallel(&a, &b, Parallelism::new(threads)).unwrap(), serial);
        }
    }

    #[test]
    fn parallel_dimension_mismatch_and_empty() {
        let a = CsrMatrix::zeros(2, 3);
        assert!(matches!(
            spgemm_parallel(&a, &a, Parallelism::new(4)),
            Err(MatrixError::DimensionMismatch { .. })
        ));
        let empty = CsrMatrix::zeros(0, 0);
        let c = spgemm_parallel(&empty, &empty, Parallelism::new(4)).unwrap();
        assert_eq!(c.shape(), (0, 0));
    }

    proptest! {
        #[test]
        fn prop_spgemm_parallel_byte_identical_to_serial(
            (a, b) in arb_pair(),
            thread_choice in 0usize..3,
        ) {
            let threads = [1usize, 2, 8][thread_choice];
            let serial = spgemm(&a, &b).unwrap();
            let parallel = spgemm_parallel(&a, &b, Parallelism::new(threads)).unwrap();
            // Structural and value equality must be exact (not approximate).
            prop_assert_eq!(parallel, serial);
        }
    }

    proptest! {
        #[test]
        fn prop_spgemm_matches_dense((a, b) in arb_pair()) {
            let sparse = spgemm(&a, &b).unwrap();
            let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
            prop_assert!(sparse.to_dense().approx_eq(&dense, 1e-9));
        }

        #[test]
        fn prop_spgemm_associative_shapes((a, b) in arb_pair()) {
            let c = spgemm(&a, &b).unwrap();
            prop_assert_eq!(c.rows(), a.rows());
            prop_assert_eq!(c.cols(), b.cols());
        }
    }
}
