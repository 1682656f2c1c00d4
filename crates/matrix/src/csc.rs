//! Compressed Sparse Column (CSC) matrices.
//!
//! The paper notes (§8.2.2) that the LADIES column-extraction matrix is
//! hypersparse — it has `k·n` rows but only `k·s` nonzeros — which makes CSR
//! storage wasteful (the row-pointer array alone dominates).  CSC (or COO)
//! storage avoids that cost.  This module provides a minimal CSC type used to
//! represent such tall, hypersparse selection matrices, built from COO
//! triples or directly as a column selection.

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;
use crate::prefix::counts_to_offsets;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A sparse matrix in Compressed Sparse Column format.
///
/// Column pointers, row indices within each column sorted and unique.
///
/// # Example
///
/// ```
/// use dmbs_matrix::{CooMatrix, CscMatrix, CsrMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let coo = CooMatrix::from_triples(4, 2, vec![(0, 1, 1.0), (3, 0, 2.0)])?;
/// let csc = CscMatrix::from_coo(&coo);
/// assert_eq!(csc.col_indices(0), &[3]);
/// assert_eq!(csc.col_values(0), &[2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CscMatrix {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an empty (all-zero) `rows x cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CscMatrix { rows, cols, indptr: vec![0; cols + 1], indices: Vec::new(), values: Vec::new() }
    }

    /// Builds a CSC matrix from COO triples, summing duplicates.
    pub fn from_coo(coo: &CooMatrix) -> Self {
        // Reuse the CSR builder on the transpose, then reinterpret.
        let csr_of_transpose = CsrMatrix::from_coo(&coo.transpose());
        CscMatrix {
            rows: coo.rows(),
            cols: coo.cols(),
            indptr: csr_of_transpose.indptr().to_vec(),
            indices: csr_of_transpose.indices().to_vec(),
            values: csr_of_transpose.values().to_vec(),
        }
    }

    /// Builds a selection matrix with exactly one nonzero (value 1.0) per
    /// column: column `j` selects row `rows_selected[j]`.  This is the
    /// `Q_C` column-extraction matrix of LADIES (§4.2.3).
    pub fn selection(rows: usize, rows_selected: &[usize]) -> Self {
        let cols = rows_selected.len();
        let counts = vec![1usize; cols];
        let indptr = counts_to_offsets(&counts);
        CscMatrix { rows, cols, indptr, indices: rows_selected.to_vec(), values: vec![1.0; cols] }
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

    /// Row indices of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col_indices(&self, c: usize) -> &[usize] {
        assert!(c < self.cols, "column index out of bounds");
        &self.indices[self.indptr[c]..self.indptr[c + 1]]
    }

    /// Values of column `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c >= cols`.
    pub fn col_values(&self, c: usize) -> &[f64] {
        assert!(c < self.cols, "column index out of bounds");
        &self.values[self.indptr[c]..self.indptr[c + 1]]
    }

    /// The column pointer array (`cols + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Number of bytes required to store the CSC arrays.  Compare against
    /// [`CsrMatrix::nbytes`](crate::CsrMatrix::nbytes) of the same logical
    /// matrix to see the hypersparse storage argument from §8.2.2.
    pub fn nbytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<usize>()
            + self.values.len() * std::mem::size_of::<f64>()
    }

    /// Multiplies a CSR matrix by this CSC matrix (`lhs * self`), returning a
    /// CSR result.  Used for the LADIES column-extraction product `A_R · Q_C`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::MatrixError::DimensionMismatch`] if
    /// `lhs.cols() != self.rows()`.
    pub fn left_multiply(&self, lhs: &CsrMatrix) -> Result<CsrMatrix> {
        if lhs.cols() != self.rows {
            return Err(crate::MatrixError::DimensionMismatch {
                op: "csr x csc multiply",
                lhs: lhs.shape(),
                rhs: self.shape(),
            });
        }
        let mut row_data: Vec<Vec<(usize, f64)>> = Vec::with_capacity(lhs.rows());
        for r in 0..lhs.rows() {
            let lhs_cols = lhs.row_indices(r);
            let lhs_vals = lhs.row_values(r);
            let mut row: Vec<(usize, f64)> = Vec::new();
            for c in 0..self.cols {
                // Dot product of sparse lhs row with sparse rhs column via merge.
                let rhs_rows = self.col_indices(c);
                let rhs_vals = self.col_values(c);
                let mut acc = 0.0;
                let (mut i, mut j) = (0usize, 0usize);
                while i < lhs_cols.len() && j < rhs_rows.len() {
                    match lhs_cols[i].cmp(&rhs_rows[j]) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            acc += lhs_vals[i] * rhs_vals[j];
                            i += 1;
                            j += 1;
                        }
                    }
                }
                if acc != 0.0 {
                    row.push((c, acc));
                }
            }
            row_data.push(row);
        }
        CsrMatrix::from_rows(lhs.rows(), self.cols, row_data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The CSR form of `csc`, read column by column.
    fn csr_of(csc: &CscMatrix) -> CsrMatrix {
        let mut coo = CooMatrix::new(csc.rows(), csc.cols());
        for c in 0..csc.cols() {
            for (&r, &v) in csc.col_indices(c).iter().zip(csc.col_values(c)) {
                coo.push(r, c, v).unwrap();
            }
        }
        CsrMatrix::from_coo(&coo)
    }

    #[test]
    fn zeros_shape() {
        let m = CscMatrix::zeros(3, 2);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn from_coo_and_back() {
        let coo =
            CooMatrix::from_triples(3, 3, vec![(0, 2, 1.0), (2, 0, 2.0), (1, 1, 3.0)]).unwrap();
        let csc = CscMatrix::from_coo(&coo);
        assert_eq!(csc.nnz(), 3);
        assert_eq!(csc.col_indices(0), &[2]);
        assert_eq!(csc.col_values(1), &[3.0]);
        assert_eq!(csr_of(&csc), CsrMatrix::from_coo(&coo));
    }

    #[test]
    fn csr_csc_roundtrip() {
        let coo =
            CooMatrix::from_triples(4, 3, vec![(0, 1, 1.0), (3, 2, 4.0), (2, 0, -1.0)]).unwrap();
        let csr = CsrMatrix::from_coo(&coo);
        let csc = CscMatrix::from_coo(&coo);
        assert_eq!(csr_of(&csc), csr);
    }

    #[test]
    fn selection_matrix() {
        let sel = CscMatrix::selection(6, &[4, 0, 4]);
        assert_eq!(sel.shape(), (6, 3));
        assert_eq!(sel.nnz(), 3);
        assert_eq!(sel.col_indices(0), &[4]);
        assert_eq!(sel.col_indices(2), &[4]);
        // Multiplying the identity by a selection extracts columns.
        let identity = CsrMatrix::identity(6);
        let picked = sel.left_multiply(&identity).unwrap();
        assert_eq!(picked.shape(), (6, 3));
        assert_eq!(picked.get(4, 0), 1.0);
        assert_eq!(picked.get(0, 1), 1.0);
        assert_eq!(picked.get(4, 2), 1.0);
    }

    #[test]
    fn left_multiply_matches_dense() {
        let a = CooMatrix::from_triples(2, 3, vec![(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)]).unwrap();
        let b = CooMatrix::from_triples(3, 2, vec![(0, 1, 4.0), (2, 0, 5.0), (1, 0, 6.0)]).unwrap();
        let a_csr = CsrMatrix::from_coo(&a);
        let b_csc = CscMatrix::from_coo(&b);
        let c = b_csc.left_multiply(&a_csr).unwrap();
        let expected = a_csr.to_dense().matmul(&csr_of(&b_csc).to_dense()).unwrap();
        assert!(c.to_dense().approx_eq(&expected, 1e-12));
    }

    #[test]
    fn left_multiply_dimension_mismatch() {
        let a = CsrMatrix::identity(3);
        let b = CscMatrix::zeros(4, 2);
        assert!(b.left_multiply(&a).is_err());
    }

    #[test]
    fn hypersparse_storage_is_smaller_than_csr() {
        // A 10_000 x 4 selection matrix with 4 nonzeros: CSC needs ~5 pointers,
        // CSR needs 10_001.
        let sel = CscMatrix::selection(10_000, &[17, 256, 999, 4321]);
        let as_csr = csr_of(&sel);
        assert!(sel.nbytes() < as_csr.nbytes() / 100);
    }

    proptest! {
        #[test]
        fn prop_csr_csc_roundtrip(entries in proptest::collection::vec((0usize..8, 0usize..8, -3.0f64..3.0), 0..40)) {
            let coo = CooMatrix::from_triples(8, 8, entries).unwrap();
            let csr = CsrMatrix::from_coo(&coo);
            let csc = CscMatrix::from_coo(&coo);
            prop_assert_eq!(csr_of(&csc), csr.clone());
            prop_assert_eq!(csc.nnz(), csr.nnz());
        }
    }
}
