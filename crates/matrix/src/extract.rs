//! Structure-aware extraction kernels: the cheap tiers of the three-tier
//! kernel story.
//!
//! The paper's extraction products are SpGEMMs against *selection matrices*
//! with exactly one nonzero per row (`Q_R`, §4.2.3) or per column (`Q_C`,
//! §8.2.2).  Feeding those through the general Gustavson kernel pays hash /
//! dense-accumulator prices for what is structurally a gather, so the
//! kernels here exploit the selection structure directly while staying
//! **byte-identical** to the SpGEMM formulation they replace:
//!
//! * [`extract_rows`] computes `Q_R · A` as a parallel CSR row gather:
//!   a symbolic `row_nnz` count, a prefix-offset pass, and a block-parallel
//!   `memcpy` of the selected rows into one exact-size allocation — `O(nnz
//!   of the selected rows)` with zero accumulation.  Pinned equivalent to
//!   `spgemm(row_selection_matrix(rows, n), A)` (and to
//!   [`CsrMatrix::gather_rows`]).
//! * [`extract_columns_masked`] computes `A · Q_C` as a stamped-bitmap
//!   column filter that renumbers the kept columns into the sampled vertex
//!   space in one sweep over `A`'s nonzeros.  Pinned equivalent to
//!   `CscMatrix::selection(n, cols).left_multiply(&A)`, including that
//!   formulation's dropping of stored zero values (the dot product of a
//!   zero entry with the selection column is `0.0` and the CSC kernel
//!   discards it).
//! * [`extract_submatrix_with`] computes `Q_R · A · Q_C` for a sorted,
//!   duplicate-free column selection in one pass over the selected rows of
//!   `A`, without forming `Q_R · A`: the renumbering is monotone, so every
//!   output row comes out sorted as it is read.  On a pattern `A`
//!   ([`CsrMatrix::is_unit_valued`], an unweighted graph) it reads and
//!   stages column indices only, and its output is a pattern too.  Pinned
//!   equivalent to the two kernels above chained.
//!
//! Each kernel reads a pattern's indices only and returns a pattern.

//!
//! All of them draw their scratch from a [`SpgemmWorkspace`] (thread-local
//! by default, explicit via the `*_with` variants), so steady-state
//! extraction allocates only its output.  The general [`crate::spgemm`]
//! kernels remain the tier for products with arbitrary operand structure
//! (LADIES' indicator probability step `P ← Q^L·A`, the 1.5D distributed
//! multiplies).

use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::pool::{block_ranges, Parallelism};
use crate::prefix::counts_to_offsets;
use crate::workspace::{column_set_in, with_workspace, ColumnRanks, SpgemmWorkspace};
use crate::Result;
use std::ops::Range;

/// Gathers the rows of `a` listed in `selected` (in order, duplicates
/// allowed) into a new CSR matrix, block-parallel over the selection.
///
/// This is the row-extraction product `Q_R · A` of LADIES (§4.2.3) and the
/// GraphSAGE probability step `P ← Q^L·A` (§4.1.1) as a matrix of its own
/// (the samplers read those rows of `A` in place instead), computed without
/// the SpGEMM machinery: because `Q_R` has exactly one unit nonzero per row,
/// output row `i` is a verbatim copy of row `selected[i]` of `a`.  The
/// result is byte-identical to
/// `spgemm_parallel(&row_selection_matrix(selected, a.rows())?, &a, ..)` at
/// any thread count (see the proptests in this module).
///
/// Uses this thread's reusable [`SpgemmWorkspace`] for the symbolic counts.
///
/// # Errors
///
/// Returns [`MatrixError::IndexOutOfBounds`] if any selected row is
/// `>= a.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::extract::extract_rows;
/// use dmbs_matrix::ops::row_selection_matrix;
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::spgemm::spgemm;
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     3, 3, vec![(0, 1, 2.0), (1, 2, 0.5), (2, 0, -1.0)],
/// )?);
/// let gathered = extract_rows(&a, &[2, 0, 2], Parallelism::new(4))?;
/// // Byte-identical to the selection-matrix SpGEMM it replaces.
/// let q = row_selection_matrix(&[2, 0, 2], 3)?;
/// assert_eq!(gathered, spgemm(&q, &a)?);
/// # Ok(())
/// # }
/// ```
pub fn extract_rows(
    a: &CsrMatrix,
    selected: &[usize],
    parallelism: Parallelism,
) -> Result<CsrMatrix> {
    if let Some(&bad) = selected.iter().find(|&&r| r >= a.rows()) {
        return Err(MatrixError::IndexOutOfBounds {
            row: bad,
            col: 0,
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let k = selected.len();

    // Symbolic pass: the output nnz of row `i` is row_nnz(selected[i]) —
    // an O(k) scan, no accumulation.
    let indptr = with_workspace(|ws| {
        ws.counts.clear();
        ws.counts.extend(selected.iter().map(|&r| a.row_nnz(r)));
        counts_to_offsets(&ws.counts)
    });
    let total = indptr[k];

    // Numeric pass: the selected rows are copied into one exact-size output
    // allocation.
    // A pattern's rows are copied without values.
    let blocks = block_ranges(k, parallelism.effective_blocks(k));
    let (indices, values) = if blocks.len() <= 1 {
        let mut indices = Vec::with_capacity(total);
        let mut values = a.values().map(|_| Vec::with_capacity(total));
        for &r in selected {
            indices.extend_from_slice(a.row_indices(r));
            if let (Some(out), Some(row)) = (&mut values, a.row_values(r)) {
                out.extend_from_slice(row);
            }
        }
        (indices, values)
    } else {
        // Every block copies into its disjoint slice of the output.
        let mut indices = vec![0; total];
        let mut values = a.values().map(|_| vec![0.0; total]);
        let fill =
            crossbeam::thread::scope(|scope| {
                let mut idx_tail = indices.as_mut_slice();
                let mut val_tail = values.as_deref_mut().unwrap_or_default();
                let mut handles = Vec::with_capacity(blocks.len());
                for range in blocks {
                    let len = indptr[range.end] - indptr[range.start];
                    let (idx_head, rest) = std::mem::take(&mut idx_tail).split_at_mut(len);
                    idx_tail = rest;
                    // A pattern has no values: its slices stay empty.
                    let val_len = len.min(val_tail.len());
                    let (val_head, rest) = std::mem::take(&mut val_tail).split_at_mut(val_len);
                    val_tail = rest;
                    let indptr = &indptr;
                    handles.push(scope.spawn(move || {
                        gather_block(a, selected, range, indptr, idx_head, val_head)
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
        (indices, values)
    };
    Ok(CsrMatrix::from_raw_unchecked(k, a.cols(), indptr, indices, values))
}

/// Copies the selected rows of `range` into this block's slice of the output
/// buffers (`indices`/`values` start at `indptr[range.start]`; `values` is
/// empty for a pattern).
fn gather_block(
    a: &CsrMatrix,
    selected: &[usize],
    range: Range<usize>,
    indptr: &[usize],
    indices: &mut [usize],
    values: &mut [f64],
) {
    let base = indptr[range.start];
    for i in range {
        let r = selected[i];
        let start = indptr[i] - base;
        let end = indptr[i + 1] - base;
        indices[start..end].copy_from_slice(a.row_indices(r));
        if let Some(row) = a.row_values(r) {
            values[start..end].copy_from_slice(row);
        }
    }
}

/// Keeps the columns of `a` listed in `cols`, renumbering them into the
/// output positions `0..cols.len()` (duplicates allowed: a source column
/// listed twice appears at both output positions).
///
/// This is the LADIES column-extraction product `A_R · Q_C` (§4.2.3,
/// hypersparse CSC formulation §8.2.2) computed as a stamped-bitmap column
/// filter: one sweep over `a`'s nonzeros against a mask of the selected
/// columns, instead of one sparse dot product per (row × selected column).
/// The result is byte-identical to
/// `CscMatrix::selection(a.cols(), cols).left_multiply(&a)`, including that
/// kernel's dropping of stored zero values.
///
/// Uses this thread's reusable [`SpgemmWorkspace`]; see
/// [`extract_columns_masked_with`] for an explicit workspace.
///
/// # Errors
///
/// Returns [`MatrixError::IndexOutOfBounds`] if any selected column is
/// `>= a.cols()` (stricter than the CSC formulation, which silently ignores
/// out-of-range selections).
///
/// # Example
///
/// ```
/// use dmbs_matrix::extract::extract_columns_masked;
/// use dmbs_matrix::{CooMatrix, CscMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     2, 4, vec![(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0)],
/// )?);
/// let kept = extract_columns_masked(&a, &[3, 1])?;
/// assert_eq!(kept.shape(), (2, 2));
/// assert_eq!(kept.get(0, 0), 2.0); // old column 3 is new column 0
/// // Byte-identical to the hypersparse CSC selection SpGEMM it replaces.
/// assert_eq!(kept, CscMatrix::selection(4, &[3, 1]).left_multiply(&a)?);
/// # Ok(())
/// # }
/// ```
pub fn extract_columns_masked(a: &CsrMatrix, cols: &[usize]) -> Result<CsrMatrix> {
    with_workspace(|ws| extract_columns_masked_with(a, cols, ws))
}

/// [`extract_columns_masked`] with an explicit scratch workspace (the column
/// mask and staging buffers are drawn from `ws`).
///
/// # Errors
///
/// Returns [`MatrixError::IndexOutOfBounds`] if any selected column is
/// `>= a.cols()`.
pub fn extract_columns_masked_with(
    a: &CsrMatrix,
    cols: &[usize],
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    if let Some(&bad) = cols.iter().find(|&&c| c >= a.cols()) {
        return Err(MatrixError::IndexOutOfBounds {
            row: 0,
            col: bad,
            rows: a.rows(),
            cols: a.cols(),
        });
    }

    // Build the stamped mask: mask_pos[c] = output position of global
    // column c, valid only under the current generation stamp.  Duplicate
    // selections cannot be expressed by a single-slot mask, so they take
    // the sorted-pairs merge path below.
    let gen = ws.begin_mask(a.cols());
    let mut has_duplicates = false;
    for (pos, &c) in cols.iter().enumerate() {
        if ws.mask_stamp[c] == gen {
            has_duplicates = true;
            break;
        }
        ws.mask_stamp[c] = gen;
        ws.mask_pos[c] = pos;
    }
    if has_duplicates {
        return extract_columns_pairs(a, cols, ws);
    }

    // Symbolic pass: per-row count of stored nonzero entries that hit the
    // mask (stored zeros are dropped, matching the CSC dot-product kernel).
    ws.counts.clear();
    for r in 0..a.rows() {
        let mut count = 0usize;
        for (c, v) in a.row_entries(r) {
            if ws.mask_stamp[c] == gen && v != 0.0 {
                count += 1;
            }
        }
        ws.counts.push(count);
    }
    let indptr = counts_to_offsets(&ws.counts);
    let total = indptr[a.rows()];

    // Numeric pass: renumber each row's surviving entries into the sampled
    // vertex space and restore output-column order.  Rows fill the output
    // contiguously, so a running cursor replaces per-row indptr lookups.
    let mut indices = vec![0usize; total];
    let mut values = a.values().map(|_| vec![0.0f64; total]);
    let mut out = 0usize;
    for r in 0..a.rows() {
        ws.row_buf.clear();
        for (c, v) in a.row_entries(r) {
            if ws.mask_stamp[c] == gen && v != 0.0 {
                ws.row_buf.push((ws.mask_pos[c], v));
            }
        }
        ws.row_buf.sort_unstable_by_key(|&(pos, _)| pos);
        for &(pos, v) in ws.row_buf.iter() {
            indices[out] = pos;
            if let Some(values) = &mut values {
                values[out] = v;
            }
            out += 1;
        }
    }
    Ok(CsrMatrix::from_raw_unchecked(a.rows(), cols.len(), indptr, indices, values))
}

/// Fallback for selections with duplicate columns: a merge join between each
/// sorted CSR row and the `(global column, output position)` pairs sorted by
/// global column, emitting one output entry per (row hit × listed position).
fn extract_columns_pairs(
    a: &CsrMatrix,
    cols: &[usize],
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    ws.pairs.clear();
    ws.pairs.extend(cols.iter().enumerate().map(|(pos, &c)| (c, pos)));
    ws.pairs.sort_unstable();
    let pairs = &ws.pairs;

    // Symbolic pass: each matching stored nonzero contributes one output
    // entry per duplicate listing of its column.
    ws.counts.clear();
    for r in 0..a.rows() {
        let mut count = 0usize;
        merge_join(a, r, pairs, |_, _| count += 1);
        ws.counts.push(count);
    }
    let indptr = counts_to_offsets(&ws.counts);
    let total = indptr[a.rows()];

    let mut indices = vec![0usize; total];
    let mut values = a.values().map(|_| vec![0.0f64; total]);
    let row_buf = &mut ws.row_buf;
    let mut out = 0usize;
    for r in 0..a.rows() {
        row_buf.clear();
        merge_join(a, r, pairs, |pos, v| row_buf.push((pos, v)));
        row_buf.sort_unstable_by_key(|&(pos, _)| pos);
        for &(pos, v) in row_buf.iter() {
            indices[out] = pos;
            if let Some(values) = &mut values {
                values[out] = v;
            }
            out += 1;
        }
    }
    Ok(CsrMatrix::from_raw_unchecked(a.rows(), cols.len(), indptr, indices, values))
}

/// Merge join of row `r` of `a` with the sorted selection pairs; calls
/// `emit(output position, value)` for every (stored nonzero × listing)
/// match, skipping stored zeros.
fn merge_join(a: &CsrMatrix, r: usize, pairs: &[(usize, usize)], mut emit: impl FnMut(usize, f64)) {
    let (row_cols, row_vals) = (a.row_indices(r), a.row_values(r));
    let value = |i: usize| row_vals.map_or(1.0, |v| v[i]);
    let (mut i, mut j) = (0usize, 0usize);
    while i < row_cols.len() && j < pairs.len() {
        match row_cols[i].cmp(&pairs[j].0) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                let col = row_cols[i];
                let mut jj = j;
                while jj < pairs.len() && pairs[jj].0 == col {
                    if value(i) != 0.0 {
                        emit(pairs[jj].1, value(i));
                    }
                    jj += 1;
                }
                i += 1;
                j = jj;
            }
        }
    }
}

/// `A[rows, cols]` in one pass: rows `rows` of `a` (in order, duplicates
/// allowed), keeping only the columns `cols`, renumbered to their positions
/// `0..cols.len()`.
///
/// This is LADIES' extraction `A_S = Q_R · A · Q_C` (§4.2.3) without
/// forming `Q_R · A`.  `cols` is a sampled vertex set — sorted and
/// duplicate-free — so the renumbering is monotone and each output row
/// comes out sorted as `a`'s row is read: no per-row sort, and no symbolic
/// pass (entries are staged in the workspace and copied out at their exact
/// size).  When `a` is a pattern no value is read or staged, and the
/// output is a pattern.  The result is byte-identical to
/// `extract_columns_masked(&extract_rows(a, rows, _)?, cols)`, including the
/// dropping of stored zeros.
///
/// # Errors
///
/// Returns [`MatrixError::IndexOutOfBounds`] if a row is `>= a.rows()` or a
/// column `>= a.cols()`, and [`MatrixError::InvalidStructure`] if `cols` is
/// not strictly increasing.
///
/// # Example
///
/// ```
/// use dmbs_matrix::extract::{extract_columns_masked, extract_rows, extract_submatrix_with};
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::workspace::SpgemmWorkspace;
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     3, 4, vec![(0, 0, 1.0), (0, 3, 2.0), (1, 1, 3.0), (2, 3, 4.0)],
/// )?);
/// let mut ws = SpgemmWorkspace::new();
/// let a_s = extract_submatrix_with(&a, &[2, 0, 2], &[1, 3], &mut ws)?;
/// assert_eq!(a_s.shape(), (3, 2));
/// assert_eq!(a_s.get(1, 1), 2.0); // row 0, old column 3
/// // The row gather and the masked column filter, in one pass.
/// let gathered = extract_rows(&a, &[2, 0, 2], Parallelism::serial())?;
/// assert_eq!(a_s, extract_columns_masked(&gathered, &[1, 3])?);
/// # Ok(())
/// # }
/// ```
pub fn extract_submatrix_with(
    a: &CsrMatrix,
    rows: &[usize],
    cols: &[usize],
    ws: &mut SpgemmWorkspace,
) -> Result<CsrMatrix> {
    if let Some(&bad) = rows.iter().find(|&&r| r >= a.rows()) {
        return Err(MatrixError::IndexOutOfBounds {
            row: bad,
            col: 0,
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    if cols.windows(2).any(|w| w[0] >= w[1]) {
        return Err(MatrixError::InvalidStructure(
            "a submatrix's columns must be strictly increasing".into(),
        ));
    }
    let mut set = column_set_in(&mut ws.marks, &mut ws.ranks, a.cols());
    for (pos, &c) in cols.iter().enumerate() {
        set.insert_ranked(c, pos)?;
    }
    let ranks = set.into_inserted_ranks();
    let mut indptr = Vec::with_capacity(rows.len() + 1);
    indptr.push(0);
    let staged = (&mut ws.staged_cols, &mut ws.staged_vals, &mut indptr);
    let (indices, values) = match a.values() {
        None => {
            let end = submatrix_body::<true>(a, &[], rows, &ranks, staged);
            (ws.staged_cols[..end].to_vec(), None)
        }
        Some(values) => {
            let end = submatrix_body::<false>(a, values, rows, &ranks, staged);
            (ws.staged_cols[..end].to_vec(), Some(ws.staged_vals[..end].to_vec()))
        }
    };
    Ok(CsrMatrix::from_raw_unchecked(rows.len(), cols.len(), indptr, indices, values))
}

/// Stages the kept entries of `a`'s rows `rows`, renumbered by `ranks`, and
/// pushes each row's end onto `indptr`; returns the number kept.  `UNIT`
/// says `a` is a pattern: no value is read or staged, and every entry of a
/// member column is kept.  Otherwise `values` are `a`'s, and stored zeros
/// are dropped.
///
/// Branch-free: every entry is written just past the kept ones, and the end
/// advances over it only when it is kept.  The staging buffers only grow,
/// so steady-state calls write each entry once.
#[inline(always)]
fn submatrix_body<const UNIT: bool>(
    a: &CsrMatrix,
    values: &[f64],
    rows: &[usize],
    ranks: &ColumnRanks<'_>,
    (staged_cols, staged_vals, indptr): (&mut Vec<usize>, &mut Vec<f64>, &mut Vec<usize>),
) -> usize {
    let mut end = 0;
    for &r in rows {
        let row_cols = a.row_indices(r);
        let grown = end + row_cols.len();
        if staged_cols.len() < grown {
            staged_cols.resize(grown, 0);
        }
        if !UNIT && staged_vals.len() < grown {
            staged_vals.resize(grown, 0.0);
        }
        if UNIT {
            for &c in row_cols {
                let member = ranks.marks[c / 64] >> (c % 64) & 1 != 0;
                staged_cols[end] = ranks.ranks[c];
                end += usize::from(member);
            }
        } else {
            let row_vals = &values[a.indptr()[r]..a.indptr()[r + 1]];
            for (&c, &v) in row_cols.iter().zip(row_vals) {
                let member = ranks.marks[c / 64] >> (c % 64) & 1 != 0;
                staged_cols[end] = ranks.ranks[c];
                staged_vals[end] = v;
                end += usize::from(member & (v != 0.0));
            }
        }
        indptr.push(end);
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csc::CscMatrix;
    use crate::ops::row_selection_matrix;
    use crate::spgemm::{spgemm, spgemm_parallel};
    use crate::CooMatrix;
    use proptest::prelude::*;

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
    fn extract_rows_matches_selection_spgemm_and_gather() {
        let a = figure1_graph();
        for selection in [vec![1usize, 5], vec![3, 3, 0], vec![], vec![5, 4, 3, 2, 1, 0]] {
            let q = row_selection_matrix(&selection, 6).unwrap();
            let expected = spgemm(&q, &a).unwrap();
            for threads in [1usize, 2, 8] {
                let got = extract_rows(&a, &selection, Parallelism::new(threads)).unwrap();
                assert_eq!(got, expected, "selection {selection:?}, threads {threads}");
            }
            assert_eq!(a.gather_rows(&selection).unwrap(), expected);
        }
    }

    #[test]
    fn extract_rows_rejects_out_of_range() {
        let a = figure1_graph();
        assert!(matches!(
            extract_rows(&a, &[2, 6], Parallelism::serial()),
            Err(MatrixError::IndexOutOfBounds { row: 6, .. })
        ));
    }

    #[test]
    fn extract_columns_matches_csc_selection() {
        let a = figure1_graph();
        for cols in [vec![1usize, 4], vec![4, 1], vec![], vec![3, 3, 0], vec![0, 1, 2, 3, 4, 5]] {
            let expected = CscMatrix::selection(6, &cols).left_multiply(&a).unwrap();
            let got = extract_columns_masked(&a, &cols).unwrap();
            assert_eq!(got, expected, "cols {cols:?}");
        }
    }

    #[test]
    fn extract_columns_drops_stored_zeros_like_csc_kernel() {
        // A stored zero must vanish from the masked extraction exactly as it
        // vanishes from the CSC dot products.
        let a =
            CsrMatrix::from_rows(2, 3, vec![vec![(0, 0.0), (2, 5.0)], vec![(1, -1.0)]]).unwrap();
        let cols = vec![0usize, 2];
        let expected = CscMatrix::selection(3, &cols).left_multiply(&a).unwrap();
        let got = extract_columns_masked(&a, &cols).unwrap();
        assert_eq!(got, expected);
        assert_eq!(got.row_nnz(0), 1); // the explicit zero at column 0 is gone
    }

    #[test]
    fn extract_columns_rejects_out_of_range() {
        let a = figure1_graph();
        assert!(matches!(
            extract_columns_masked(&a, &[0, 9]),
            Err(MatrixError::IndexOutOfBounds { col: 9, .. })
        ));
    }

    #[test]
    fn explicit_workspace_reuse_across_mixed_sizes() {
        // One workspace serving interleaved submatrix extractions, masked
        // extractions, column sets and SpGEMMs of different shapes must never
        // contaminate results.
        let a = figure1_graph();
        let big = CsrMatrix::identity(40);
        let mut ws = SpgemmWorkspace::new();
        for round in 0..3 {
            let rows = vec![5 - round, round, round];
            let cols = vec![round, 4];
            let gathered = extract_rows(&a, &rows, Parallelism::new(2)).unwrap();
            assert_eq!(
                extract_submatrix_with(&a, &rows, &cols, &mut ws).unwrap(),
                extract_columns_masked(&gathered, &cols).unwrap()
            );

            let big_rows: Vec<usize> = (0..40).rev().collect();
            let big_cols: Vec<usize> = (round..40).step_by(3).collect();
            assert_eq!(
                extract_submatrix_with(&big, &big_rows, &big_cols, &mut ws).unwrap(),
                extract_columns_masked(&big.gather_rows(&big_rows).unwrap(), &big_cols).unwrap()
            );

            let mut set = ws.column_set(40);
            for c in [39 - round, round, 39 - round] {
                set.insert(c).unwrap();
            }
            assert_eq!(set.into_ranks().0, vec![round, 39 - round]);

            let cols = vec![round, 4, 5 - round];
            assert_eq!(
                extract_columns_masked_with(&a, &cols, &mut ws).unwrap(),
                CscMatrix::selection(6, &cols).left_multiply(&a).unwrap()
            );

            assert_eq!(
                crate::spgemm::spgemm_parallel_with(&a, &a, Parallelism::new(2), &mut ws).unwrap(),
                spgemm(&a, &a).unwrap()
            );
        }
    }

    #[test]
    fn extract_submatrix_rejects_bad_selections() {
        let a = figure1_graph();
        let mut ws = SpgemmWorkspace::new();
        assert!(matches!(
            extract_submatrix_with(&a, &[0, 6], &[1], &mut ws),
            Err(MatrixError::IndexOutOfBounds { row: 6, .. })
        ));
        assert!(matches!(
            extract_submatrix_with(&a, &[0], &[1, 6], &mut ws),
            Err(MatrixError::IndexOutOfBounds { col: 6, .. })
        ));
        for unsorted in [vec![3, 1], vec![2, 2]] {
            assert!(matches!(
                extract_submatrix_with(&a, &[0], &unsorted, &mut ws),
                Err(MatrixError::InvalidStructure(_))
            ));
        }
        // A rejected call leaves no member behind for the next one.
        assert_eq!(
            extract_submatrix_with(&a, &[1], &[0], &mut ws).unwrap(),
            extract_columns_masked(&a.gather_rows(&[1]).unwrap(), &[0]).unwrap()
        );
    }

    /// A pattern whose values were then edited stores them and takes the
    /// general path: the edited `2.0` is copied and the edited stored zero
    /// dropped, where the unit path would write `1.0` for both.
    #[test]
    fn an_edit_after_the_unit_memo_takes_the_general_path() {
        let mut a = figure1_graph();
        let (rows, cols) = ([1usize, 4, 1], [0usize, 1, 2, 3, 5]);
        let mut ws = SpgemmWorkspace::new();
        let unit = extract_submatrix_with(&a, &rows, &cols, &mut ws).unwrap();
        assert!(a.is_unit_valued() && unit.is_unit_valued());
        a.row_values_mut(1).copy_from_slice(&[2.0, 0.0, 1.0]); // columns 0, 2, 4
        assert!(!a.is_unit_valued());
        let got = extract_submatrix_with(&a, &rows, &cols, &mut ws).unwrap();
        let gathered = extract_rows(&a, &rows, Parallelism::serial()).unwrap();
        assert_eq!(got, extract_columns_masked(&gathered, &cols).unwrap());
        assert_eq!((got.get(0, 0), got.row_nnz(0)), (2.0, 1));
    }

    fn arb_matrix() -> impl Strategy<Value = CsrMatrix> {
        (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
            proptest::collection::vec((0..rows, 0..cols, -3.0f64..3.0), 0..50).prop_map(
                move |entries| {
                    CsrMatrix::from_coo(&CooMatrix::from_triples(rows, cols, entries).unwrap())
                },
            )
        })
    }

    proptest! {
        #[test]
        fn prop_extract_rows_equals_selection_spgemm(
            a in arb_matrix(),
            raw in proptest::collection::vec(0usize..64, 0..24),
            thread_choice in 0usize..3,
        ) {
            let threads = [1usize, 2, 8][thread_choice];
            // Map into range; duplicates and empty selections included.
            let selection: Vec<usize> = raw.iter().map(|&r| r % a.rows()).collect();
            let q = row_selection_matrix(&selection, a.rows()).unwrap();
            let via_spgemm = spgemm_parallel(&q, &a, Parallelism::new(threads)).unwrap();
            let gathered = extract_rows(&a, &selection, Parallelism::new(threads)).unwrap();
            prop_assert_eq!(&gathered, &via_spgemm);
            prop_assert_eq!(gathered, a.gather_rows(&selection).unwrap());
        }

        #[test]
        fn prop_extract_columns_equals_csc_selection(
            a in arb_matrix(),
            raw in proptest::collection::vec(0usize..64, 0..24),
        ) {
            // Duplicates (hitting the merge path) and empty selections both
            // appear under this strategy.
            let cols: Vec<usize> = raw.iter().map(|&c| c % a.cols()).collect();
            let expected = CscMatrix::selection(a.cols(), &cols).left_multiply(&a).unwrap();
            prop_assert_eq!(extract_columns_masked(&a, &cols).unwrap(), expected);
        }

        #[test]
        fn prop_extract_submatrix_equals_gather_then_mask(
            a in arb_matrix(),
            raw_rows in proptest::collection::vec(0usize..64, 0..16),
            raw_cols in proptest::collection::vec(0usize..64, 0..12),
            zeros in proptest::collection::vec(0usize..64, 0..6),
        ) {
            // Stored zeros (dropped by both), repeated and empty row
            // selections, empty column selections.
            let mut a = a;
            let nnz = a.nnz();
            if nnz > 0 {
                let mut values: Vec<f64> = a.value_iter().collect();
                for z in &zeros {
                    values[z % nnz] = 0.0;
                }
                a = CsrMatrix::from_raw(
                    a.rows(), a.cols(), a.indptr().to_vec(), a.indices().to_vec(), values,
                ).unwrap();
            }
            let rows: Vec<usize> = raw_rows.iter().map(|&r| r % a.rows()).collect();
            let mut cols: Vec<usize> = raw_cols.iter().map(|&c| c % a.cols()).collect();
            cols.sort_unstable();
            cols.dedup();
            let expected = extract_columns_masked(
                &extract_rows(&a, &rows, Parallelism::serial()).unwrap(),
                &cols,
            ).unwrap();
            let got = with_workspace(|ws| extract_submatrix_with(&a, &rows, &cols, ws)).unwrap();
            prop_assert_eq!(got, expected);
        }

        /// On a pattern the index-only paths of the gather, the masked
        /// filter and the submatrix filter equal their general paths on the
        /// pattern's stored twin, and return patterns.
        #[test]
        fn prop_unit_submatrix_equals_gather_then_mask(
            a in arb_matrix(),
            raw_rows in proptest::collection::vec(0usize..64, 0..16),
            raw_cols in proptest::collection::vec(0usize..64, 0..12),
        ) {
            let mut a = a;
            a.map_values_inplace(|_| 1.0);
            prop_assert!(a.is_unit_valued());
            let rows: Vec<usize> = raw_rows.iter().map(|&r| r % a.rows()).collect();
            let mut cols: Vec<usize> = raw_cols.iter().map(|&c| c % a.cols()).collect();
            cols.sort_unstable();
            cols.dedup();
            let gathered = extract_rows(&a, &rows, Parallelism::serial()).unwrap();
            let expected = extract_columns_masked(&gathered, &cols).unwrap();
            let got = with_workspace(|ws| extract_submatrix_with(&a, &rows, &cols, ws)).unwrap();
            prop_assert_eq!(&got, &expected);
            let twin = crate::csr::oracle::stored_twin(&a);
            let bits = crate::csr::oracle::bits;
            for threads in [1usize, 2, 8] {
                let par = Parallelism::new(threads);
                let (unit, stored) = (extract_rows(&a, &rows, par), extract_rows(&twin, &rows, par));
                let (unit, stored) = (unit.unwrap(), stored.unwrap());
                prop_assert!(unit.is_unit_valued());
                prop_assert_eq!(bits(&unit), bits(&stored));
                prop_assert_eq!(&unit, &stored);
            }
            let twin_gathered = extract_rows(&twin, &rows, Parallelism::serial()).unwrap();
            let masked = extract_columns_masked(&twin_gathered, &cols).unwrap();
            prop_assert!(expected.is_unit_valued() && got.is_unit_valued());
            prop_assert_eq!(bits(&expected), bits(&masked));
            let mut twice = cols.clone();
            twice.extend_from_slice(&cols);
            let (unit, stored) = (extract_columns_masked(&a, &twice), extract_columns_masked(&twin, &twice));
            prop_assert_eq!(unit.unwrap(), stored.unwrap());
            let from_twin =
                with_workspace(|ws| extract_submatrix_with(&twin, &rows, &cols, ws)).unwrap();
            prop_assert_eq!(bits(&got), bits(&from_twin));
            prop_assert_eq!(got, from_twin);
        }

        #[test]
        fn prop_extraction_pipeline_equals_spgemm_formulation(
            a in arb_matrix(),
            raw_rows in proptest::collection::vec(0usize..64, 1..12),
            raw_cols in proptest::collection::vec(0usize..64, 1..12),
            thread_choice in 0usize..3,
        ) {
            // The full LADIES extraction A_S = Q_R · A · Q_C against the
            // matrix formulation, at 1/2/8 threads.
            let threads = [1usize, 2, 8][thread_choice];
            let rows: Vec<usize> = raw_rows.iter().map(|&r| r % a.rows()).collect();
            let mut cols: Vec<usize> = raw_cols.iter().map(|&c| c % a.cols()).collect();
            cols.sort_unstable();
            cols.dedup();
            let q_r = row_selection_matrix(&rows, a.rows()).unwrap();
            let a_r = spgemm(&q_r, &a).unwrap();
            let expected = CscMatrix::selection(a.cols(), &cols).left_multiply(&a_r).unwrap();
            let gathered = extract_rows(&a, &rows, Parallelism::new(threads)).unwrap();
            prop_assert_eq!(extract_columns_masked(&gathered, &cols).unwrap(), expected);
        }
    }
}
