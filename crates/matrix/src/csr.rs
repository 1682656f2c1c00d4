//! Compressed Sparse Row (CSR) matrices.
//!
//! CSR is the working format of the whole pipeline: the adjacency matrix `A`,
//! the sampler matrices `Q^l`, the probability matrices `P` and the sampled
//! adjacency matrices `A^l` are all CSR.  This mirrors the paper's
//! implementation, which relies on CSR-based SpGEMM (cuSPARSE / nsparse).

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::prefix::counts_to_offsets;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A sparse matrix in Compressed Sparse Row format.
///
/// Invariants maintained by every constructor:
///
/// * `indptr.len() == rows + 1`, `indptr[0] == 0`, non-decreasing,
///   `indptr[rows] == indices.len() == values.len()`;
/// * within each row, column indices are strictly increasing (sorted and
///   deduplicated);
/// * every column index is `< cols`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let coo = CooMatrix::from_triples(2, 3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0)])?;
/// let csr = CsrMatrix::from_coo(&coo);
/// assert_eq!(csr.nnz(), 3);
/// assert_eq!(csr.row_indices(1), &[0, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
    unit: UnitMemo,
}

/// The memo of [`CsrMatrix::is_unit_valued`], set on its first call and
/// cleared by every method that hands out the values mutably.  A cache, not
/// part of the matrix: any two memos compare equal.
#[derive(Debug, Clone, Default)]
struct UnitMemo(OnceLock<bool>);

impl PartialEq for UnitMemo {
    fn eq(&self, _: &UnitMemo) -> bool {
        true
    }
}

impl CsrMatrix {
    /// Creates an empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CsrMatrix {
            rows,
            cols,
            indptr: vec![0; rows + 1],
            indices: Vec::new(),
            values: Vec::new(),
            unit: UnitMemo::default(),
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            rows: n,
            cols: n,
            indptr: (0..=n).collect(),
            indices: (0..n).collect(),
            values: vec![1.0; n],
            unit: UnitMemo::default(),
        }
    }

    /// Builds a CSR matrix from COO triples, summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        let rows = coo.rows();
        let cols = coo.cols();
        // Collect per-row maps to sort columns and merge duplicates.
        let mut row_maps: Vec<BTreeMap<usize, f64>> = vec![BTreeMap::new(); rows];
        for &(r, c, v) in coo.iter() {
            *row_maps[r].entry(c).or_insert(0.0) += v;
        }
        let counts: Vec<usize> = row_maps.iter().map(|m| m.len()).collect();
        let indptr = counts_to_offsets(&counts);
        let nnz = indptr[rows];
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for m in row_maps {
            for (c, v) in m {
                indices.push(c);
                values.push(v);
            }
        }
        CsrMatrix { rows, cols, indptr, indices, values, unit: UnitMemo::default() }
    }

    /// Builds a CSR matrix from sorted per-row `(col, value)` lists.
    ///
    /// This is the fast path used by kernels that already produce sorted,
    /// deduplicated rows.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if any row is unsorted,
    /// contains duplicates, or references a column `>= cols`.
    pub fn from_rows(rows: usize, cols: usize, row_data: Vec<Vec<(usize, f64)>>) -> Result<Self> {
        if row_data.len() != rows {
            return Err(MatrixError::InvalidStructure(format!(
                "expected {rows} rows of data, got {}",
                row_data.len()
            )));
        }
        let counts: Vec<usize> = row_data.iter().map(|r| r.len()).collect();
        let indptr = counts_to_offsets(&counts);
        let nnz = indptr[rows];
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for (i, row) in row_data.into_iter().enumerate() {
            let mut prev: Option<usize> = None;
            for (c, v) in row {
                if c >= cols {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {i} references column {c} >= {cols}"
                    )));
                }
                if let Some(p) = prev {
                    if c <= p {
                        return Err(MatrixError::InvalidStructure(format!(
                            "row {i} is not strictly increasing at column {c}"
                        )));
                    }
                }
                prev = Some(c);
                indices.push(c);
                values.push(v);
            }
        }
        Ok(CsrMatrix { rows, cols, indptr, indices, values, unit: UnitMemo::default() })
    }

    /// Builds a CSR matrix from raw buffers, validating every invariant.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if the buffers are
    /// inconsistent (see the type-level invariants).
    pub fn from_raw(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if indptr.len() != rows + 1 {
            return Err(MatrixError::InvalidStructure(format!(
                "indptr length {} != rows + 1 = {}",
                indptr.len(),
                rows + 1
            )));
        }
        if indptr[0] != 0 {
            return Err(MatrixError::InvalidStructure("indptr[0] must be 0".into()));
        }
        if indices.len() != values.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr[rows] != indices.len() {
            return Err(MatrixError::InvalidStructure(format!(
                "indptr[rows] = {} != nnz = {}",
                indptr[rows],
                indices.len()
            )));
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(MatrixError::InvalidStructure("indptr must be non-decreasing".into()));
            }
        }
        for r in 0..rows {
            let row = &indices[indptr[r]..indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {r} columns are not strictly increasing"
                    )));
                }
            }
            if let Some(&last) = row.last() {
                if last >= cols {
                    return Err(MatrixError::InvalidStructure(format!(
                        "row {r} references column {last} >= {cols}"
                    )));
                }
            }
        }
        Ok(CsrMatrix { rows, cols, indptr, indices, values, unit: UnitMemo::default() })
    }

    /// Builds a CSR matrix from raw buffers **without** revalidating the
    /// invariants.  For kernels (gathers, masked filters) whose construction
    /// guarantees them; debug builds still assert.
    pub(crate) fn from_raw_unchecked(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), rows + 1);
        debug_assert_eq!(indices.len(), values.len());
        debug_assert_eq!(indptr.first().copied(), Some(0));
        debug_assert_eq!(indptr[rows], indices.len());
        debug_assert!(indptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!((0..rows).all(|r| {
            let row = &indices[indptr[r]..indptr[r + 1]];
            row.windows(2).all(|w| w[0] < w[1]) && row.last().is_none_or(|&c| c < cols)
        }));
        CsrMatrix { rows, cols, indptr, indices, values, unit: UnitMemo::default() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored nonzeros.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Number of nonzeros in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        assert!(r < self.rows, "row index out of bounds");
        self.indptr[r + 1] - self.indptr[r]
    }

    /// Column indices of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_indices(&self, r: usize) -> &[usize] {
        assert!(r < self.rows, "row index out of bounds");
        &self.indices[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_values(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// Mutable values of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_values_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        self.unit.0.take();
        &mut self.values[self.indptr[r]..self.indptr[r + 1]]
    }

    /// The row pointer array (`rows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All column indices in row-major order.
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// All values in row-major order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether every stored value is exactly `1.0`, as in the adjacency
    /// matrix of an unweighted graph (vacuously true with no nonzeros).
    /// Computed on the first call and memoised; the memo is cleared by the
    /// methods that change values ([`CsrMatrix::row_values_mut`],
    /// [`CsrMatrix::map_values_inplace`], [`CsrMatrix::normalize_rows`]).
    pub fn is_unit_valued(&self) -> bool {
        *self.unit.0.get_or_init(|| self.values.iter().all(|&v| v == 1.0))
    }

    /// Returns the stored value at `(r, c)` or `0.0` if absent.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        let row = self.row_indices(r);
        match row.binary_search(&c) {
            Ok(pos) => self.row_values(r)[pos],
            Err(_) => 0.0,
        }
    }

    /// Iterator over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.rows).flat_map(move |r| {
            self.row_indices(r).iter().zip(self.row_values(r)).map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Converts to a dense matrix.  Intended for tests and small examples.
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            d.set(r, c, v);
        }
        d
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> CsrMatrix {
        // Count nonzeros per output row (= input column).
        let mut counts = vec![0usize; self.cols];
        for &c in &self.indices {
            counts[c] += 1;
        }
        let indptr = counts_to_offsets(&counts);
        let mut next = indptr.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        for r in 0..self.rows {
            for (&c, &v) in self.row_indices(r).iter().zip(self.row_values(r)) {
                let dst = next[c];
                indices[dst] = r;
                values[dst] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            indptr,
            indices,
            values,
            unit: UnitMemo::default(),
        }
    }

    /// Per-row sums of the stored values.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|r| self.row_values(r).iter().sum()).collect()
    }

    /// Per-column sums of the stored values.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.cols];
        for (_, c, v) in self.iter() {
            sums[c] += v;
        }
        sums
    }

    /// Divides every stored value by its row sum, turning each non-empty row
    /// into a probability distribution.  Rows whose sum is zero are left
    /// unchanged.
    pub fn normalize_rows(&mut self) {
        self.unit.0.take();
        for r in 0..self.rows {
            let sum: f64 = self.row_values(r).iter().sum();
            if sum != 0.0 {
                for v in self.row_values_mut(r) {
                    *v /= sum;
                }
            }
        }
    }

    /// Applies `f` to every stored value in place.
    pub fn map_values_inplace<F: Fn(f64) -> f64>(&mut self, f: F) {
        self.unit.0.take();
        for v in &mut self.values {
            *v = f(*v);
        }
    }

    /// Returns a copy with `f` applied to every stored value.
    pub fn map_values<F: Fn(f64) -> f64>(&self, f: F) -> CsrMatrix {
        let mut out = self.clone();
        out.map_values_inplace(f);
        out
    }

    /// Gathers the given rows (in order, duplicates allowed) into a new
    /// matrix with `indices.len()` rows and the same column count.
    ///
    /// This is the "row extraction" primitive: multiplying a selection matrix
    /// `Q_R` with `A` (as the paper does for LADIES row extraction) is exactly
    /// this gather when `Q_R` has one nonzero per row.  Delegates to the
    /// serial form of [`crate::extract::extract_rows`] so the repo has a
    /// single row-gather implementation.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any index is out of range.
    pub fn gather_rows(&self, rows: &[usize]) -> Result<CsrMatrix> {
        crate::extract::extract_rows(self, rows, crate::pool::Parallelism::serial())
    }

    /// Keeps only the listed columns, relabelling them `0..cols.len()` in the
    /// given order.  Columns may be listed at most once; entries in columns
    /// not listed are dropped.
    ///
    /// This is the "column extraction" primitive (`A · Q_C` with a one-nonzero
    /// -per-column selection matrix `Q_C`).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any column is out of
    /// range, or [`MatrixError::InvalidStructure`] if a column is repeated.
    pub fn select_columns(&self, cols: &[usize]) -> Result<CsrMatrix> {
        let mut remap: Vec<Option<usize>> = vec![None; self.cols];
        for (new, &old) in cols.iter().enumerate() {
            if old >= self.cols {
                return Err(MatrixError::IndexOutOfBounds {
                    row: 0,
                    col: old,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            if remap[old].is_some() {
                return Err(MatrixError::InvalidStructure(format!(
                    "column {old} selected more than once"
                )));
            }
            remap[old] = Some(new);
        }
        let mut row_data: Vec<Vec<(usize, f64)>> = Vec::with_capacity(self.rows);
        for r in 0..self.rows {
            let mut row: Vec<(usize, f64)> = self
                .row_indices(r)
                .iter()
                .zip(self.row_values(r))
                .filter_map(|(&c, &v)| remap[c].map(|nc| (nc, v)))
                .collect();
            row.sort_unstable_by_key(|&(c, _)| c);
            row_data.push(row);
        }
        CsrMatrix::from_rows(self.rows, cols.len(), row_data)
    }

    /// Drops every column that contains no nonzero, relabelling the remaining
    /// columns consecutively.  Returns the compacted matrix together with the
    /// original indices of the kept columns (the "frontier" of sampled
    /// vertices in GraphSAGE extraction, §4.1.3).
    ///
    /// Implemented as a marker-array pass, not a hash set or a
    /// [`CsrMatrix::select_columns`] detour: one sweep marks the occupied
    /// columns, one sweep derives the (sorted) kept list and the dense
    /// old→new remap, and one sweep renumbers the indices in place order.
    /// The remap is monotone over the kept columns, so rows stay sorted and
    /// the structure (`indptr`, values, nnz) is reused verbatim.  (The
    /// samplers compact each batch straight from their draws on a
    /// workspace [`crate::workspace::ColumnSet`] instead, and keep this as
    /// their test oracle.)
    pub fn compact_columns(&self) -> (CsrMatrix, Vec<usize>) {
        let mut remap = vec![0usize; self.cols];
        for &c in &self.indices {
            remap[c] = 1;
        }
        let mut kept: Vec<usize> = Vec::new();
        for (c, slot) in remap.iter_mut().enumerate() {
            if *slot != 0 {
                *slot = kept.len();
                kept.push(c);
            }
        }
        let indices: Vec<usize> = self.indices.iter().map(|&c| remap[c]).collect();
        let compacted = CsrMatrix {
            rows: self.rows,
            cols: kept.len(),
            indptr: self.indptr.clone(),
            indices,
            values: self.values.clone(),
            unit: self.unit.clone(),
        };
        (compacted, kept)
    }

    /// Returns the sorted list of distinct column indices that contain at
    /// least one nonzero.
    pub fn nonzero_columns(&self) -> Vec<usize> {
        let mut seen = vec![false; self.cols];
        let mut distinct = 0;
        for &c in &self.indices {
            distinct += usize::from(!seen[c]);
            seen[c] = true;
        }
        let mut out = Vec::with_capacity(distinct);
        out.extend((0..self.cols).filter(|&c| seen[c]));
        out
    }

    /// The `(column, value)` entries of row `r`, in column order.
    pub(crate) fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.row_indices(r).iter().copied().zip(self.row_values(r).iter().copied())
    }

    /// Element-wise sum `self + rhs`: a two-pointer merge of each pair of
    /// sorted rows.  An entry stored in one operand only becomes `0.0 + v`
    /// (so `-0.0` becomes `+0.0`), one stored in both `(0.0 + a) + b`, and a
    /// sum that cancels to zero stays stored.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, rhs: &CsrMatrix) -> Result<CsrMatrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "csr add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut indptr = Vec::with_capacity(self.rows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(self.nnz() + rhs.nnz());
        let mut values = Vec::with_capacity(self.nnz() + rhs.nnz());
        for r in 0..self.rows {
            merge_add_row(self.row_entries(r), rhs.row_entries(r), &mut indices, &mut values);
            indptr.push(indices.len());
        }
        Ok(CsrMatrix::from_raw_unchecked(self.rows, self.cols, indptr, indices, values))
    }

    /// Extracts the block of rows `[start, end)` as a new matrix with the same
    /// column count: a copy of one contiguous run of the CSR arrays.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > rows` (a slice bound check; debug
    /// builds name the invariant).
    pub fn row_block(&self, start: usize, end: usize) -> CsrMatrix {
        debug_assert!(
            start <= end && end <= self.rows,
            "row block [{start}, {end}) must lie within the {} rows",
            self.rows
        );
        let bounds = &self.indptr[start..=end];
        let (lo, hi) = (bounds[0], bounds[end - start]);
        CsrMatrix {
            rows: end - start,
            cols: self.cols,
            indptr: bounds.iter().map(|&p| p - lo).collect(),
            indices: self.indices[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
            unit: UnitMemo::default(),
        }
    }

    /// Appends the rows of `other` below this matrix's rows.  Both operands
    /// are valid CSR matrices of the same width, so the result is one too.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if the column counts
    /// differ.
    pub fn append_rows(&mut self, other: &CsrMatrix) -> Result<()> {
        if other.cols != self.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "append_rows",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let base = self.indices.len();
        self.indptr.extend(other.indptr[1..].iter().map(|&p| base + p));
        self.indices.extend_from_slice(&other.indices);
        self.values.extend_from_slice(&other.values);
        self.rows += other.rows;
        self.unit = UnitMemo::default();
        Ok(())
    }

    /// Approximate equality of structure and values within `tol`.
    pub fn approx_eq(&self, rhs: &CsrMatrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.indptr == rhs.indptr
            && self.indices == rhs.indices
            && self.values.iter().zip(&rhs.values).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Number of bytes required to store the CSR arrays.
    pub fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }
}

/// Appends the sum of two sorted sparse rows to `indices` / `values`.
///
/// A two-pointer merge that computes what accumulating both rows into a map
/// of zeros computes: a column in one row only becomes `0.0 + v`, a column
/// in both becomes `(0.0 + a) + b`.  The `0.0 +` is not a no-op: it turns a
/// `-0.0` into `+0.0`, exactly as the `or_insert(0.0) +=` formulation did.
/// Every column is emitted, so a sum that cancels to zero stays stored.
pub(crate) fn merge_add_row(
    a: impl IntoIterator<Item = (usize, f64)>,
    b: impl IntoIterator<Item = (usize, f64)>,
    indices: &mut Vec<usize>,
    values: &mut Vec<f64>,
) {
    let mut a = a.into_iter().peekable();
    let mut b = b.into_iter().peekable();
    while let (Some(&(ca, va)), Some(&(cb, vb))) = (a.peek(), b.peek()) {
        let (c, v) = if ca == cb {
            a.next();
            b.next();
            (ca, (0.0 + va) + vb)
        } else if ca < cb {
            a.next();
            (ca, 0.0 + va)
        } else {
            b.next();
            (cb, 0.0 + vb)
        };
        indices.push(c);
        values.push(v);
    }
    // One row is used up: the rest of the other is copied through.
    for (c, v) in a.chain(b) {
        indices.push(c);
        values.push(0.0 + v);
    }
}

/// The formulations the merge-add replaced, kept as its oracles.
#[cfg(test)]
pub(crate) mod oracle {
    use super::CsrMatrix;
    use std::collections::BTreeMap;

    /// `a + b` through a `BTreeMap` per row.
    pub(crate) fn add(a: &CsrMatrix, b: &CsrMatrix) -> CsrMatrix {
        let mut row_data = Vec::with_capacity(a.rows());
        for r in 0..a.rows() {
            let mut merged: BTreeMap<usize, f64> = BTreeMap::new();
            for (c, v) in a.row_entries(r).chain(b.row_entries(r)) {
                *merged.entry(c).or_insert(0.0) += v;
            }
            row_data.push(merged.into_iter().collect::<Vec<_>>());
        }
        CsrMatrix::from_rows(a.rows(), a.cols(), row_data).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// 6-vertex example graph from Figure 1 of the paper (directed both ways).
    /// Neighborhoods: N(1) = {0, 2, 4}, N(5) = {3, 4}, matching the sampling
    /// examples of Figure 2.
    pub(crate) fn figure1_graph() -> CsrMatrix {
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
    fn zeros_and_identity() {
        let z = CsrMatrix::zeros(3, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (3, 4));
        let i = CsrMatrix::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn from_coo_sums_duplicates_and_sorts() {
        let coo =
            CooMatrix::from_triples(2, 4, vec![(0, 3, 1.0), (0, 1, 2.0), (0, 3, 4.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        assert_eq!(csr.row_indices(0), &[1, 3]);
        assert_eq!(csr.row_values(0), &[2.0, 5.0]);
        assert_eq!(csr.row_nnz(1), 0);
    }

    #[test]
    fn from_raw_validation() {
        // Valid.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).is_ok());
        // Bad indptr length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Bad nnz.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 3], vec![0, 1], vec![1.0, 2.0]).is_err());
        // Unsorted row.
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // Column out of range.
        assert!(CsrMatrix::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]).is_err());
        // Decreasing indptr.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn from_rows_validation() {
        assert!(CsrMatrix::from_rows(1, 3, vec![vec![(0, 1.0), (2, 2.0)]]).is_ok());
        assert!(CsrMatrix::from_rows(1, 3, vec![vec![(2, 1.0), (0, 2.0)]]).is_err());
        assert!(CsrMatrix::from_rows(1, 3, vec![vec![(0, 1.0), (0, 2.0)]]).is_err());
        assert!(CsrMatrix::from_rows(1, 3, vec![vec![(3, 1.0)]]).is_err());
        assert!(CsrMatrix::from_rows(2, 3, vec![vec![]]).is_err());
    }

    #[test]
    fn get_and_iter() {
        let a = figure1_graph();
        assert_eq!(a.get(1, 0), 1.0);
        assert_eq!(a.get(1, 1), 0.0);
        assert_eq!(a.get(5, 4), 1.0);
        assert_eq!(a.iter().count(), 14);
        assert_eq!(a.nnz(), 14);
    }

    #[test]
    fn to_dense_roundtrip_via_coo() {
        let a = figure1_graph();
        let d = a.to_dense();
        assert_eq!(d.get(3, 5), 1.0);
        assert_eq!(d.get(5, 5), 0.0);
        let back = CsrMatrix::from_coo(&CooMatrix::from_triples(6, 6, a.iter()).unwrap());
        assert_eq!(back, a);
    }

    #[test]
    fn transpose_involution() {
        let a = figure1_graph();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_matches_dense() {
        let a = figure1_graph();
        let t = a.transpose();
        assert_eq!(t.to_dense(), a.to_dense().transpose());
    }

    #[test]
    fn row_and_col_sums() {
        let a = figure1_graph();
        assert_eq!(a.row_sums()[1], 3.0); // vertex 1 has out-degree 3
        assert_eq!(a.col_sums()[3], 3.0); // vertex 3 has in-degree 3
    }

    #[test]
    fn normalize_rows_makes_distributions() {
        let mut a = figure1_graph();
        a.normalize_rows();
        for r in 0..a.rows() {
            let s: f64 = a.row_values(r).iter().sum();
            if a.row_nnz(r) > 0 {
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn unit_valued_memo_is_cleared_by_every_value_mutator() {
        let a = figure1_graph();
        assert!(a.is_unit_valued());
        let mutators: [fn(&mut CsrMatrix); 3] = [
            |m| m.row_values_mut(1)[0] = 2.0,
            |m| m.map_values_inplace(|v| v * 3.0),
            CsrMatrix::normalize_rows, // vertex 1's three neighbours each become 1/3
        ];
        for mutate in mutators {
            let mut m = a.clone();
            assert!(m.is_unit_valued(), "the clone carries the memo");
            mutate(&mut m);
            assert!(!m.is_unit_valued());
            // And back: a memo of `false` is cleared just the same.
            m.map_values_inplace(|_| 1.0);
            assert!(m.is_unit_valued());
        }
        let weighted = CsrMatrix::from_rows(1, 2, vec![vec![(0, 1.0), (1, 0.5)]]).unwrap();
        assert!(!weighted.is_unit_valued());
        assert!(CsrMatrix::zeros(2, 2).is_unit_valued());
    }

    #[test]
    fn the_unit_memo_takes_no_part_in_equality() {
        let a = figure1_graph();
        assert!(a.is_unit_valued());
        let memoised = a.clone();
        let fresh = CsrMatrix::from_raw(
            a.rows(),
            a.cols(),
            a.indptr().to_vec(),
            a.indices().to_vec(),
            a.values().to_vec(),
        )
        .unwrap();
        assert_eq!(memoised, fresh);
        assert_eq!(fresh, memoised);
        assert!(fresh.is_unit_valued());
        assert_ne!(a, a.map_values(|v| v * 2.0));
    }

    #[test]
    fn normalize_rows_skips_empty() {
        let mut m = CsrMatrix::zeros(2, 2);
        m.normalize_rows();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn gather_rows_basic() {
        let a = figure1_graph();
        let g = a.gather_rows(&[1, 5]).unwrap();
        assert_eq!(g.shape(), (2, 6));
        assert_eq!(g.row_indices(0), &[0, 2, 4]);
        assert_eq!(g.row_indices(1), &[3, 4]);
        assert!(a.gather_rows(&[9]).is_err());
    }

    #[test]
    fn select_columns_basic() {
        let a = figure1_graph();
        let s = a.select_columns(&[0, 4]).unwrap();
        assert_eq!(s.shape(), (6, 2));
        // Row 1 had neighbors {0, 2, 4}; after selecting columns {0, 4} it has {0 -> 0, 4 -> 1}.
        assert_eq!(s.row_indices(1), &[0, 1]);
        assert!(a.select_columns(&[0, 0]).is_err());
        assert!(a.select_columns(&[7]).is_err());
    }

    #[test]
    fn select_columns_respects_order() {
        let a = figure1_graph();
        // Reversed order: original column 4 becomes new column 0.
        let s = a.select_columns(&[4, 0]).unwrap();
        assert_eq!(s.get(1, 0), a.get(1, 4));
        assert_eq!(s.get(1, 1), a.get(1, 0));
    }

    #[test]
    fn compact_columns_drops_empty() {
        let coo =
            CooMatrix::from_triples(2, 6, vec![(0, 2, 1.0), (1, 4, 1.0), (0, 4, 1.0)]).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        let (compact, kept) = m.compact_columns();
        assert_eq!(kept, vec![2, 4]);
        assert_eq!(compact.shape(), (2, 2));
        assert_eq!(compact.get(0, 0), 1.0);
        assert_eq!(compact.get(1, 1), 1.0);
    }

    #[test]
    fn nonzero_columns_sorted() {
        let coo = CooMatrix::from_triples(2, 6, vec![(0, 5, 1.0), (1, 1, 1.0)]).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        assert_eq!(m.nonzero_columns(), vec![1, 5]);
    }

    #[test]
    fn add_matches_dense() {
        let a = figure1_graph();
        let b = CsrMatrix::identity(6);
        let sum = a.add(&b).unwrap();
        let expected = a.to_dense().add(&b.to_dense()).unwrap();
        assert_eq!(sum.to_dense(), expected);
        assert!(a.add(&CsrMatrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn add_is_bit_identical_to_the_btreemap_oracle() {
        let a = CsrMatrix::from_rows(
            3,
            4,
            vec![vec![(0, -0.0), (1, 0.1), (3, 0.25)], vec![(2, -0.0)], vec![]],
        )
        .unwrap();
        let b =
            CsrMatrix::from_rows(3, 4, vec![vec![(1, 0.2), (2, -0.0), (3, -0.25)], vec![], vec![]])
                .unwrap();
        let bits = |m: &CsrMatrix| -> Vec<u64> { m.values().iter().map(|v| v.to_bits()).collect() };
        for (x, y) in [(&a, &b), (&b, &a), (&a, &a), (&b, &b)] {
            let (got, want) = (x.add(y).unwrap(), oracle::add(x, y));
            assert_eq!((got.indptr(), got.indices()), (want.indptr(), want.indices()));
            assert_eq!(bits(&got), bits(&want));
        }
        // `-0.0` alone becomes `+0.0`, and a cancelled column stays stored.
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.row_indices(0), &[0, 1, 2, 3]);
        assert_eq!(sum.row_values(0)[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(sum.row_values(0)[3].to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn row_block_extracts_contiguous_rows() {
        let a = figure1_graph();
        let block = a.row_block(2, 4);
        assert_eq!(block.rows(), 2);
        assert_eq!(block.row_indices(0), a.row_indices(2));
        assert_eq!(block.row_indices(1), a.row_indices(3));
        // Every range, empty ones included, equals the gather of its rows.
        for start in 0..=a.rows() {
            for end in start..=a.rows() {
                let rows: Vec<usize> = (start..end).collect();
                assert_eq!(a.row_block(start, end), a.gather_rows(&rows).unwrap());
            }
        }
    }

    #[test]
    fn append_rows_equals_the_gather_of_both_blocks() {
        let a = figure1_graph();
        // Every split point, empty halves included.
        for mid in 0..=a.rows() {
            let mut stacked = a.row_block(0, mid);
            stacked.append_rows(&a.row_block(mid, a.rows())).unwrap();
            assert_eq!(stacked, a, "split at {mid}");
        }
        let mut twice = a.clone();
        twice.append_rows(&a).unwrap();
        let rows: Vec<usize> = (0..a.rows()).chain(0..a.rows()).collect();
        assert_eq!(twice, a.gather_rows(&rows).unwrap());
        // The memo of the old rows does not outlive the append.
        let mut unit = CsrMatrix::identity(2);
        assert!(unit.is_unit_valued());
        unit.append_rows(&CsrMatrix::from_rows(1, 2, vec![vec![(1, 3.0)]]).unwrap()).unwrap();
        assert!(!unit.is_unit_valued());
        assert!(matches!(
            unit.append_rows(&CsrMatrix::zeros(1, 3)),
            Err(MatrixError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn map_values() {
        let a = figure1_graph();
        let doubled = a.map_values(|v| v * 2.0);
        assert_eq!(doubled.get(0, 1), 2.0);
        assert_eq!(doubled.nnz(), a.nnz());
    }

    #[test]
    fn nbytes_positive() {
        assert!(figure1_graph().nbytes() > 0);
    }

    fn arb_coo() -> impl Strategy<Value = CooMatrix> {
        (1usize..12, 1usize..12).prop_flat_map(|(rows, cols)| {
            let entry = (0..rows, 0..cols, -5.0f64..5.0);
            proptest::collection::vec(entry, 0..60)
                .prop_map(move |entries| CooMatrix::from_triples(rows, cols, entries).unwrap())
        })
    }

    proptest! {
        #[test]
        fn prop_coo_csr_dense_agree(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo(&coo);
            // Dense accumulation of triples must match the CSR view.
            let mut dense = DenseMatrix::zeros(coo.rows(), coo.cols());
            for &(r, c, v) in coo.iter() {
                dense.set(r, c, dense.get(r, c) + v);
            }
            prop_assert!(csr.to_dense().approx_eq(&dense, 1e-9));
        }

        #[test]
        fn prop_transpose_involution(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo(&coo);
            prop_assert!(csr.transpose().transpose().approx_eq(&csr, 0.0));
        }

        #[test]
        fn prop_row_sums_match_dense(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo(&coo);
            let dense_sums = csr.to_dense().row_sums();
            let sparse_sums = csr.row_sums();
            for (a, b) in dense_sums.iter().zip(&sparse_sums) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn prop_roundtrip_raw(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo(&coo);
            let rebuilt = CsrMatrix::from_raw(
                csr.rows(), csr.cols(),
                csr.indptr().to_vec(), csr.indices().to_vec(), csr.values().to_vec(),
            ).unwrap();
            prop_assert_eq!(rebuilt, csr);
        }

        #[test]
        fn prop_compact_columns_preserves_nnz(coo in arb_coo()) {
            let csr = CsrMatrix::from_coo(&coo);
            let (compact, kept) = csr.compact_columns();
            prop_assert_eq!(compact.nnz(), csr.nnz());
            prop_assert_eq!(compact.cols(), kept.len());
            // Every kept column must indeed be nonzero in the original.
            let nz = csr.nonzero_columns();
            prop_assert_eq!(kept, nz);
        }
    }
}
