//! Sparse general matrix-matrix multiplication (SpGEMM) — the *general* tier
//! of the three-tier kernel story.
//!
//! The central kernel of the paper: sampling probability distributions are
//! produced by `P ← Q^l · A` and LADIES extraction by `Q_R · A · Q_C`, all of
//! which are sparse × sparse products.  The paper uses nsparse / cuSPARSE on
//! GPU; here we implement the same row-wise (Gustavson) formulation with a
//! dense accumulator.
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
//! **One kernel.**  [`spgemm`], [`spgemm_parallel`] / [`spgemm_parallel_with`]
//! and the 1.5D stage multiply [`spgemm_with_row_lookup`] all run one
//! Gustavson row loop under one driver.  The row loop reads the right
//! operand through a row lookup (the identity, or the slot of a held row),
//! accumulates every entry from `+0.0` over the left row's columns in
//! ascending order on a dense accumulator, and merges the row into a
//! running sum's row with [`CsrMatrix::add`]'s merge (an empty row for a
//! plain product).  The driver runs the rows in one pass over the row
//! blocks of a [`Parallelism`], each worker staging its block's rows in its
//! [`SpgemmWorkspace`] scratch, then copies the blocks out in order at
//! their exact size.  A row's result depends on the row alone, so the
//! output is byte-identical at any thread count.
//!
//! **Sparse and dense rows.**  A row reads the touched columns back in
//! ascending order one of two ways, chosen per row by its flop bound.  A
//! sparse row lists each column it touches and sorts the list.  A dense
//! row, whose flop bound is a large share of the output width (a LADIES
//! indicator row touches most of the graph), keeps no list: it scans every
//! column's marker in order, so nothing is sorted.
//!
//! **Unit values.**  When both operands are patterns
//! ([`CsrMatrix::is_unit_valued`]: an unweighted graph, a 0/1 indicator),
//! every product is `1.0 * 1.0 = 1.0`, so the row loop reads column indices
//! only and adds `1.0`: the same bits from half the bytes.  A dense unit row
//! marks nothing either, since its touched columns are exactly those with a
//! nonzero count.  The row loop is one `#[inline(always)]` body compiled
//! twice, for general and unit values, and the driver picks one from the
//! operands' variants once per call.  On the general path a pattern
//! operand's `1.0` is never multiplied in: `v * 1.0` is `v`, bit for bit.
//! The product stores its sums, unless every one is `1.0`: then it is a
//! pattern too, as the 1.5D product of a selection with a graph is.
//!
//! Merging against an empty row emits `0.0 + v`, which is `v` bit for bit:
//! the accumulator starts at `+0.0`, and a round-to-nearest sum that is
//! exactly zero is `+0.0`, so it never holds `-0.0`.
//!
//! The `#[cfg(test)]` oracle is the textbook hash-map Gustavson loop (for
//! the stage multiply, followed by the `BTreeMap` add).  The proptests
//! compare the kernel to it with `to_bits` at 1, 2 and 8 threads, over
//! signed zeros, cancelling sums, outputs wider than 65,536 columns, rows
//! on both sides of the dense threshold, unit and general operands, and
//! sums built stage by stage over a store of held rows grown between
//! stages.

use crate::csr::{merge_add_row, CsrMatrix};
use crate::error::MatrixError;
use crate::pool::{block_range, Parallelism};
use crate::workspace::{with_workspace, SpgemmWorkspace, WorkerScratch};
use crate::Result;

/// Computes the sparse product `lhs * rhs` of two CSR matrices.
///
/// Uses Gustavson's row-wise algorithm: row `i` of the output is the linear
/// combination of the rows of `rhs` selected by the nonzeros of row `i` of
/// `lhs`.  Numerically zero entries produced by cancellation are kept (they
/// are structurally meaningful for sampling masks).  This is
/// [`spgemm_parallel`] at [`Parallelism::serial`].
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `lhs.cols() != rhs.rows()`,
/// and [`MatrixError::InvalidStructure`] if the accumulator for `rhs.cols()`
/// columns cannot be allocated.
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
    spgemm_parallel(lhs, rhs, Parallelism::serial())
}

/// Computes the sparse product `lhs * rhs` on a scoped worker pool.
///
/// Row-blocked Gustavson SpGEMM in one pass: every block of rows is
/// computed by its own worker into that worker's staging buffers, and the
/// blocks are copied out in order into output buffers of exactly the
/// product's size.  Every output row is computed the same way whatever the
/// split, so the result is **byte-identical at any thread count** — see the
/// determinism proptests.
///
/// Scratch (dense accumulators, markers, staged rows) comes from this
/// thread's reusable [`SpgemmWorkspace`], so back-to-back products — the
/// per-layer probability steps of a bulk sampling epoch — allocate nothing
/// but their output buffers.  Use [`spgemm_parallel_with`] to supply an
/// explicit workspace instead.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `lhs.cols() != rhs.rows()`,
/// and [`MatrixError::InvalidStructure`] if the accumulators for
/// `rhs.cols()` columns cannot be allocated.
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
/// Byte-identical to [`spgemm`] regardless of `parallelism` or the state of
/// `ws`.
///
/// # Errors
///
/// As [`spgemm_parallel`].
pub fn spgemm_parallel_with(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    parallelism: Parallelism,
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    if lhs.cols() != rhs.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm",
            lhs: lhs.shape(),
            rhs: rhs.shape(),
        });
    }
    gustavson(lhs, rhs, Some, None, parallelism, &mut ws.workers)
}

/// Computes `acc + lhs · R`, where row `k` of the right operand `R` is row
/// `row_of(k)` of `rows`, and empty where `row_of(k)` is `None`.
///
/// This is one stage of the sparsity-aware 1.5D algorithm (Algorithm 2 in
/// the paper): the left block `Q^l_{ik}` only reads the rows of `A_k`
/// matching its nonzero columns, and the stage's product is added to the
/// running sum `acc` of the earlier stages.  The rows are the ones a rank
/// holds — its own block row, or the remote rows it has fetched, in arrival
/// order — read in place through the lookup, never copied into a block.
///
/// The kernel is the module's Gustavson row loop on `ws`'s scratch, in one
/// block, and each finished row is merged into `acc`'s row with
/// [`CsrMatrix::add`]'s merge.  The result is therefore bit-identical to
/// multiplying through a hash map per row and then adding with a `BTreeMap`
/// per row, and cancellation zeros stay stored.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `acc` is not
/// `lhs.rows() × rows.cols()`, and [`MatrixError::InvalidStructure`] if the
/// accumulator for `rows.cols()` columns cannot be allocated.
///
/// # Panics
///
/// Panics if `row_of` names a row `>= rows.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::spgemm::{spgemm, spgemm_with_row_lookup};
/// use dmbs_matrix::workspace::SpgemmWorkspace;
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     3, 3, vec![(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)],
/// )?);
/// let q = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 3, vec![(0, 1, 1.0), (1, 2, 1.0)])?);
/// // Rows 2 and 1 of `a`, held in that order.
/// let held = a.gather_rows(&[2, 1])?;
/// let zero = CsrMatrix::zeros(2, 3);
/// let mut ws = SpgemmWorkspace::new();
/// let p = spgemm_with_row_lookup(&q, &held, |k| [None, Some(1), Some(0)][k], &zero, &mut ws)?;
/// assert_eq!(p, spgemm(&q, &a)?);
/// # Ok(())
/// # }
/// ```
pub fn spgemm_with_row_lookup(
    lhs: &CsrMatrix,
    rows: &CsrMatrix,
    row_of: impl Fn(usize) -> Option<usize> + Sync,
    acc: &CsrMatrix,
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    if acc.shape() != (lhs.rows(), rows.cols()) {
        return Err(MatrixError::DimensionMismatch {
            op: "spgemm_with_row_lookup",
            lhs: (lhs.rows(), rows.cols()),
            rhs: acc.shape(),
        });
    }
    gustavson(lhs, rows, row_of, Some(acc), Parallelism::serial(), &mut ws.workers)
}

/// A row is accumulated in dense mode when its flop bound (the stored
/// entries of the right-operand rows it reads) is at least `1 /
/// DENSE_ROW_SHARE` of the output width.  Such a row touches a large share
/// of the columns, and scanning all of them in order is cheaper than
/// listing and sorting the touched ones.  Measured on 48-row products with
/// a random 16,384-column operand of 53 entries per row, unit-valued or
/// not: the two modes break even at a flop bound of about a tenth of the
/// width.
const DENSE_ROW_SHARE: usize = 10;

/// The one SpGEMM driver: `acc + lhs · R`, where row `k` of `R` is row
/// `row_of(k)` of `rhs` (empty where it is `None`) and a missing `acc` is
/// all zeros.
///
/// One pass over the row blocks of `parallelism`, each on its own worker
/// scratch: the worker stages its rows, then the blocks are copied out in
/// order into buffers of the product's exact size.  When both operands are
/// patterns the row kernel reads indices only.
fn gustavson(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    row_of: impl Fn(usize) -> Option<usize> + Sync,
    acc: Option<&CsrMatrix>,
    parallelism: Parallelism,
    workers: &mut Vec<WorkerScratch>,
) -> Result<CsrMatrix> {
    let rows = lhs.rows();
    let blocks = parallelism.effective_blocks(rows);
    if workers.len() < blocks {
        workers.resize_with(blocks, WorkerScratch::default);
    }
    let workers = &mut workers[..blocks];
    for w in workers.iter_mut() {
        w.ensure_cols(rhs.cols())?;
    }
    let unit = lhs.is_unit_valued() && rhs.is_unit_valued();
    let acc_row = |i| acc.map_or((&[][..], None), |a| (a.row_indices(i), a.row_values(i)));
    // The pool splits the workers one per block, so block `b` runs rows
    // `block_range(rows, blocks, b)` on worker `b`.
    parallelism.for_each_row_block(workers, 1, 1, |b, worker| {
        let w = &mut worker[0];
        w.staged_indices.clear();
        w.staged_values.clear();
        w.staged_ends.clear();
        let block = block_range(rows, blocks, b.start);
        if unit {
            block.for_each(|i| gustavson_row::<true>(lhs, i, rhs, &row_of, acc_row(i), w));
        } else {
            block.for_each(|i| gustavson_row::<false>(lhs, i, rhs, &row_of, acc_row(i), w));
        }
    });

    let nnz = workers.iter().map(|w| w.staged_indices.len()).sum();
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0);
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for w in workers.iter() {
        let base = indices.len();
        indptr.extend(w.staged_ends.iter().map(|&end| base + end));
        indices.extend_from_slice(&w.staged_indices);
        values.extend_from_slice(&w.staged_values);
    }
    Ok(CsrMatrix::from_raw_unchecked(rows, rhs.cols(), indptr, indices, Some(values)))
}

/// Gustavson's row loop: appends row `i` of `acc + lhs · R` (see
/// [`gustavson`]) to the worker's staged rows, given `acc`'s row `i` as its
/// columns and stored values (`None` for a pattern).  `UNIT` says both
/// operands are patterns: every product is then `1.0`, bit for bit, so no
/// value is read.
///
/// A sparse row marks each column it touches and lists it once, then sorts
/// the list.  A dense row (see [`DENSE_ROW_SHARE`]) lists nothing: it scans
/// every column in order and emits the touched ones, which are the marked
/// ones — or, with unit values, the nonzero sums, so it marks nothing.
#[inline(always)]
fn gustavson_row<const UNIT: bool>(
    lhs: &CsrMatrix,
    i: usize,
    rhs: &CsrMatrix,
    row_of: &impl Fn(usize) -> Option<usize>,
    (acc_cols, acc_vals): (&[usize], Option<&[f64]>),
    w: &mut WorkerScratch,
) {
    let WorkerScratch { accum, marked, touched, staged_indices, staged_values, staged_ends } = w;
    let cols = rhs.cols();
    let flops: usize =
        lhs.row_indices(i).iter().filter_map(|&k| row_of(k)).map(|r| rhs.row_nnz(r)).sum();
    if flops.saturating_mul(DENSE_ROW_SHARE) >= cols {
        accumulate::<UNIT>(lhs, i, rhs, row_of, accum, |j| {
            if !UNIT {
                marked[j] = true;
            }
        });
        let sums = &accum[..cols];
        let touched = |j: usize| if UNIT { sums[j] != 0.0 } else { marked[j] };
        if acc_cols.is_empty() {
            // Branch-free: every column is written just past the kept
            // ones, and the end advances over it only when it was touched.
            let start = staged_indices.len();
            staged_indices.resize(start + cols, 0);
            staged_values.resize(start + cols, 0.0);
            let (indices, values) = (&mut staged_indices[start..], &mut staged_values[start..]);
            let mut end = 0;
            for (j, &v) in sums.iter().enumerate() {
                indices[end] = j;
                values[end] = 0.0 + v;
                end += usize::from(touched(j));
            }
            staged_indices.truncate(start + end);
            staged_values.truncate(start + end);
        } else {
            let row = (0..cols).filter(|&j| touched(j)).map(|j| (j, sums[j]));
            merge_into(row, (acc_cols, acc_vals), staged_indices, staged_values);
        }
        accum[..cols].fill(0.0);
        if !UNIT {
            marked[..cols].fill(false);
        }
    } else {
        accumulate::<UNIT>(lhs, i, rhs, row_of, accum, |j| {
            if !marked[j] {
                marked[j] = true;
                touched.push(j);
            }
        });
        touched.sort_unstable();
        if acc_cols.is_empty() {
            // The merge against an empty row, in bulk: `0.0 + v` per entry.
            staged_indices.extend_from_slice(touched);
            staged_values.extend(touched.iter().map(|&j| 0.0 + accum[j]));
        } else {
            let row = touched.iter().map(|&j| (j, accum[j]));
            merge_into(row, (acc_cols, acc_vals), staged_indices, staged_values);
        }
        for &j in touched.iter() {
            accum[j] = 0.0;
            marked[j] = false;
        }
        touched.clear();
    }
    staged_ends.push(staged_indices.len());
}

/// Adds row `i` of `lhs · R` into the dense accumulator, left columns in
/// ascending order, calling `mark(j)` before each addition to column `j`.
#[inline(always)]
fn accumulate<const UNIT: bool>(
    lhs: &CsrMatrix,
    i: usize,
    rhs: &CsrMatrix,
    row_of: &impl Fn(usize) -> Option<usize>,
    accum: &mut [f64],
    mut mark: impl FnMut(usize),
) {
    let lvals = if UNIT { None } else { lhs.row_values(i) };
    for (n, &k) in lhs.row_indices(i).iter().enumerate() {
        let Some(r) = row_of(k) else { continue };
        if UNIT {
            for &j in rhs.row_indices(r) {
                mark(j);
                accum[j] += 1.0;
            }
        } else {
            // A pattern's `1.0` is not multiplied in: `v * 1.0` is `v`.
            let lv = lvals.map_or(1.0, |v| v[n]);
            match rhs.row_values(r) {
                Some(rvals) => {
                    for (&j, &rv) in rhs.row_indices(r).iter().zip(rvals) {
                        mark(j);
                        accum[j] += lv * rv;
                    }
                }
                None => {
                    for &j in rhs.row_indices(r) {
                        mark(j);
                        accum[j] += lv;
                    }
                }
            }
        }
    }
}

/// Stages one finished row, `row` in ascending column order, merged into
/// `acc`'s row with [`CsrMatrix::add`]'s merge.
fn merge_into(
    row: impl Iterator<Item = (usize, f64)>,
    (acc_cols, acc_vals): (&[usize], Option<&[f64]>),
    staged_indices: &mut Vec<usize>,
    staged_values: &mut Vec<f64>,
) {
    let acc_value = |n: usize| acc_vals.map_or(1.0, |v| v[n]);
    let acc_row = acc_cols.iter().enumerate().map(|(n, &c)| (c, acc_value(n)));
    merge_add_row(acc_row, row, staged_indices, staged_values);
}

/// The textbook Gustavson loop, kept as the kernel's oracle.
#[cfg(test)]
mod oracle {
    use super::CsrMatrix;
    use std::collections::HashMap;

    /// `lhs · rhs` through a `HashMap` accumulator per output row.
    pub(super) fn spgemm(lhs: &CsrMatrix, rhs: &CsrMatrix) -> CsrMatrix {
        let ids: Vec<usize> = (0..rhs.rows()).collect();
        let rows: Vec<Vec<(usize, f64)>> =
            ids.iter().map(|&k| rhs.row_entries(k).collect()).collect();
        spgemm_over_rows(lhs, &ids, &rows, rhs.cols())
    }

    /// `lhs · R` where row `row_ids[r]` of `R` is `rhs_rows[r]`, through a
    /// `HashMap` lookup and a `HashMap` accumulator per output row.
    pub(super) fn spgemm_over_rows(
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
            for (k, lv) in lhs.row_entries(i) {
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

    /// A product too wide for its accumulator to be allocated is a typed
    /// error, not an allocation failure that aborts the process.
    #[test]
    fn wide_scratch_is_a_typed_error_not_an_abort() {
        let wide = 1usize << 50;
        let too_wide = |r: Result<CsrMatrix>| match r {
            Err(MatrixError::InvalidStructure(m)) => m.contains(&wide.to_string()),
            _ => false,
        };
        let (zero, ws) = (CsrMatrix::zeros(1, 1), &mut SpgemmWorkspace::new());
        let (no_rows, acc) = (CsrMatrix::zeros(0, wide), CsrMatrix::zeros(1, wide));
        assert!(too_wide(spgemm_with_row_lookup(&zero, &no_rows, |_| None, &acc, ws)));
        assert!(too_wide(spgemm_parallel(&zero, &acc, Parallelism::new(2))));
        // The failed growth left the scratch usable.
        assert_eq!(spgemm_with_row_lookup(&zero, &zero, Some, &zero, ws).unwrap(), zero);
    }

    /// `lhs · R` for the rows `needed` of `a`, fetched in that order and
    /// read through the lookup, added to nothing.
    fn fetched_product(lhs: &CsrMatrix, a: &CsrMatrix, needed: &[usize]) -> Result<CsrMatrix> {
        let fetched = a.gather_rows(needed)?;
        let zero = CsrMatrix::zeros(lhs.rows(), a.cols());
        let row_of = |k: usize| needed.iter().position(|&v| v == k);
        spgemm_with_row_lookup(lhs, &fetched, row_of, &zero, &mut SpgemmWorkspace::new())
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
        (m.indptr().to_vec(), m.indices().to_vec(), crate::csr::oracle::bits(m))
    }

    /// `(Q, A, (stage count, fetch kind of each row of A))` for the staged
    /// multiply proptests.
    fn arb_staged() -> impl Strategy<Value = (CsrMatrix, CsrMatrix, (usize, Vec<usize>))> {
        (1usize..8, 1usize..16, 1usize..6).prop_flat_map(|(m, n, out)| {
            let q = collection::vec((0..m, 0..n, awkward_value()), 0..64);
            let a = collection::vec((0..n, 0..out, awkward_value()), 0..64);
            let stages = (1usize..5, collection::vec(0usize..4, n));
            (q, a, stages)
                .prop_map(move |(qe, ae, stages)| (exact(m, n, qe), exact(n, out, ae), stages))
        })
    }

    proptest! {
        /// The staged multiply with its merge, reading rows held across the
        /// stages through a row lookup — appended in reverse arrival order,
        /// as a rank holds them, with each stage seeing only its own block's
        /// rows — equals, bit for bit, the hash-map multiply followed by the
        /// `BTreeMap` add it replaced, stage after stage: `Q` rows span
        /// several stages, some requests are empty, some fetched rows hold
        /// no nonzeros and some read columns are not fetched at all.
        #[test]
        fn prop_staged_lookup_multiply_is_bit_identical_to_the_oracle(
            (q, a, stages) in arb_staged(),
        ) {
            let (stage_count, fetch_kind) = stages;
            let n = a.rows();
            let ws = &mut SpgemmWorkspace::new();
            let mut got = CsrMatrix::zeros(q.rows(), a.cols());
            let mut want = got.clone();
            let mut held = CsrMatrix::zeros(0, a.cols());
            let mut slots = vec![None; n];
            let width = n.div_ceil(stage_count);
            for stage in 0..stage_count {
                let block = stage * width..((stage + 1) * width).min(n);
                let needed: Vec<usize> = block
                    .clone()
                    .filter(|&k| match fetch_kind[k] {
                        0 => true,
                        1 => false,
                        _ => q.indices().contains(&k),
                    })
                    .collect();
                let arrived: Vec<usize> = needed.iter().rev().copied().collect();
                for (i, &k) in arrived.iter().enumerate() {
                    slots[k] = Some(held.rows() + i);
                }
                held.append_rows(&a.gather_rows(&arrived).unwrap()).unwrap();
                let row_of = |k: usize| if block.contains(&k) { slots[k] } else { None };
                got = spgemm_with_row_lookup(&q, &held, row_of, &got, ws).unwrap();
                let rows: Vec<Vec<(usize, f64)>> =
                    needed.iter().map(|&k| a.row_entries(k).collect()).collect();
                let partial = oracle::spgemm_over_rows(&q, &needed, &rows, a.cols());
                want = crate::csr::oracle::add(&want, &partial);
            }
            prop_assert_eq!(bits(&got), bits(&want));
            let wrong = CsrMatrix::zeros(q.rows() + 1, a.cols());
            prop_assert!(matches!(
                spgemm_with_row_lookup(&q, &held, |_| None, &wrong, ws),
                Err(MatrixError::DimensionMismatch { .. })
            ));
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

    /// `lhs · rhs` operands of `awkward_value` entries whose columns
    /// collide often.  In a quarter of the cases `rhs` is wider than 65,536
    /// columns, where an earlier kernel switched to a hash-map accumulator.
    fn arb_awkward_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
        let shape = (1usize..10, 1usize..10, (0usize..4, 1usize..10, 65_537usize..70_001));
        shape.prop_flat_map(|(m, k, (kind, narrow, wide))| {
            let n = if kind == 0 { wide } else { narrow };
            // Twelve column slots spread over `0..n`, first and last included.
            let lhs = collection::vec((0..m, 0..k, awkward_value()), 0..40);
            let rhs = collection::vec((0..k, 0usize..12, awkward_value()), 0..40);
            (lhs, rhs).prop_map(move |(le, re)| {
                let re = re.into_iter().map(|(r, c, v)| (r, c * (n - 1) / 11, v)).collect();
                (exact(m, k, le), exact(k, n, re))
            })
        })
    }

    proptest! {
        /// The kernel equals the textbook hash-map loop bit for bit, and so
        /// does every thread count's run of it.
        #[test]
        fn prop_spgemm_parallel_byte_identical_to_serial((a, b) in arb_awkward_pair()) {
            let want = bits(&oracle::spgemm(&a, &b));
            prop_assert_eq!(bits(&spgemm(&a, &b).unwrap()), want);
            for threads in [1usize, 2, 8] {
                let parallel = spgemm_parallel(&a, &b, Parallelism::new(threads)).unwrap();
                prop_assert_eq!(bits(&parallel), want, "threads = {}", threads);
            }
        }
    }

    /// Rows whose flop bound sits just below and at the dense threshold,
    /// unit-valued and not, equal the oracle bit for bit: every mode of the
    /// row kernel meets the same sum.
    #[test]
    fn rows_on_both_sides_of_the_dense_threshold_match_the_oracle() {
        let cols = 40 * DENSE_ROW_SHARE;
        // Row `k` of `rhs` holds 39 or 40 columns: 40 reaches the threshold.
        let wide = |k: usize, v: f64| (0..39 + k).map(|j| (j * 7, v)).collect();
        for (lv, rv) in [(1.0, 1.0), (1.0, -0.25), (0.5, 1.0)] {
            let rhs = CsrMatrix::from_rows(2, cols, vec![wide(0, rv), wide(1, rv)]).unwrap();
            let lhs = CsrMatrix::from_rows(2, 2, vec![vec![(0, lv)], vec![(1, lv)]]).unwrap();
            assert_eq!(lhs.is_unit_valued() && rhs.is_unit_valued(), lv == 1.0 && rv == 1.0);
            assert!(rhs.row_nnz(0) * DENSE_ROW_SHARE < cols);
            assert!(rhs.row_nnz(1) * DENSE_ROW_SHARE >= cols);
            let want = bits(&oracle::spgemm(&lhs, &rhs));
            for threads in [1usize, 2, 8] {
                let got = spgemm_parallel(&lhs, &rhs, Parallelism::new(threads)).unwrap();
                assert_eq!(bits(&got), want, "values {lv} × {rv}, threads = {threads}");
            }
        }
    }

    /// `(lhs, rhs, unit)` with `rhs` rows of up to a quarter of its `n`
    /// columns and `lhs` rows of up to eight entries, so row flop bounds
    /// fall on both sides of `n / DENSE_ROW_SHARE`.  With `unit` every value
    /// is `1.0`; otherwise values are `awkward_value`s, whose quarters cancel
    /// to stored zeros.
    fn arb_threshold_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix, bool)> {
        ((1usize..6, 1usize..8), (20usize..120, 0usize..2)).prop_flat_map(|((m, k), (n, unit))| {
            let unit = unit == 1;
            let value = move || awkward_value().prop_map(move |v| if unit { 1.0 } else { v });
            let lhs = collection::vec((0..m, 0..k, value()), 0..8 * m);
            let rhs = collection::vec((0..k, 0..n, value()), 0..k * n / 4);
            (lhs, rhs).prop_map(move |(le, re)| (exact(m, k, le), exact(k, n, re), unit))
        })
    }

    proptest! {
        /// Across the dense threshold, with unit and general operands, the
        /// kernel equals the hash-map loop bit for bit at every thread
        /// count, stored cancellation zeros included — and so does every
        /// mix of a pattern with its stored twin.
        #[test]
        fn prop_dense_and_unit_rows_are_bit_identical_to_the_oracle(
            (a, b, unit) in arb_threshold_pair(),
        ) {
            prop_assert_eq!(a.is_unit_valued() && b.is_unit_valued(), unit);
            let want = bits(&oracle::spgemm(&a, &b));
            let twin = crate::csr::oracle::stored_twin;
            let mixes = [(a.clone(), b.clone()), (twin(&a), b.clone()), (a.clone(), twin(&b))];
            for (lhs, rhs) in mixes {
                for threads in [1usize, 2, 8] {
                    let got = spgemm_parallel(&lhs, &rhs, Parallelism::new(threads)).unwrap();
                    prop_assert_eq!(bits(&got), want.clone(), "threads = {}", threads);
                }
            }
        }

        /// The stage multiply merges dense, sparse and unit rows into a
        /// non-empty running sum as the `BTreeMap` add does.  Its held rows
        /// are a store grown by `append_rows`, as a rank's pinned rows are:
        /// a store of pattern rows stays a pattern, so every product over
        /// it takes the unit path without reading a value.
        #[test]
        fn prop_stage_merge_into_a_sum_over_a_grown_store_matches_the_oracle(
            (q, a, _) in arb_threshold_pair(),
            (acc, stages) in (collection::vec((0usize..6, 0usize..120, awkward_value()), 0..40), 1usize..4),
        ) {
            let n = a.cols();
            let acc_entries = acc.into_iter().filter(|&(r, c, _)| r < q.rows() && c < n).collect();
            let mut got = exact(q.rows(), n, acc_entries);
            let mut want = got.clone();
            let ws = &mut SpgemmWorkspace::new();
            let mut held = CsrMatrix::zeros(0, n);
            prop_assert!(held.is_unit_valued());
            let mut slots = vec![None; a.rows()];
            let width = a.rows().div_ceil(stages);
            for stage in 0..stages {
                let block: Vec<usize> = (stage * width..((stage + 1) * width).min(a.rows())).collect();
                let slab = a.gather_rows(&block).unwrap();
                for (i, &k) in block.iter().enumerate() {
                    slots[k] = Some(held.rows() + i);
                }
                held.append_rows(&slab).unwrap();
                prop_assert_eq!(held.is_unit_valued(), held.value_iter().all(|v| v == 1.0));
                let in_block = |k: usize| if block.contains(&k) { slots[k] } else { None };
                got = spgemm_with_row_lookup(&q, &held, in_block, &got, ws).unwrap();
                let rows: Vec<Vec<(usize, f64)>> =
                    block.iter().map(|&k| a.row_entries(k).collect()).collect();
                want = crate::csr::oracle::add(&want, &oracle::spgemm_over_rows(&q, &block, &rows, n));
                prop_assert_eq!(bits(&got), bits(&want), "stage {}", stage);
            }
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
