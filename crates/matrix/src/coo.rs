//! Coordinate-format (COO) sparse matrices.
//!
//! COO is the natural construction format: edges, sampler nonzeros and
//! extraction matrices are all accumulated as `(row, col, value)` triples and
//! then converted to [`CsrMatrix`](crate::CsrMatrix) for the SpGEMM kernels.

use crate::error::MatrixError;
use crate::Result;
use serde::{Deserialize, Serialize};

/// A sparse matrix stored as unsorted `(row, col, value)` triples.
///
/// Duplicate entries are allowed; [`CsrMatrix::from_coo`](crate::CsrMatrix::from_coo)
/// sums them during conversion (matching the semantics of building an
/// adjacency matrix from an edge list with repeated edges).
///
/// # Example
///
/// ```
/// use dmbs_matrix::CooMatrix;
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let mut coo = CooMatrix::new(3, 3);
/// coo.push(0, 1, 1.0)?;
/// coo.push(2, 0, 2.0)?;
/// assert_eq!(coo.nnz(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CooMatrix {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooMatrix {
    /// Creates an empty `rows x cols` COO matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::new() }
    }

    /// Creates an empty COO matrix with pre-allocated capacity for `cap`
    /// entries.
    pub fn with_capacity(rows: usize, cols: usize, cap: usize) -> Self {
        CooMatrix { rows, cols, entries: Vec::with_capacity(cap) }
    }

    /// Builds a COO matrix directly from a list of triples.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any triple lies outside
    /// the matrix.
    pub fn from_triples(
        rows: usize,
        cols: usize,
        triples: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self> {
        let mut m = CooMatrix::new(rows, cols);
        for (r, c, v) in triples {
            m.push(r, c, v)?;
        }
        Ok(m)
    }

    /// Appends an entry.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if `(row, col)` lies outside
    /// the matrix.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.rows || col >= self.cols {
            return Err(MatrixError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        self.entries.push((row, col, value));
        Ok(())
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

    /// Number of stored entries (including duplicates).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterator over stored `(row, col, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = &(usize, usize, f64)> {
        self.entries.iter()
    }

    /// Borrow of the underlying triples.
    pub fn entries(&self) -> &[(usize, usize, f64)] {
        &self.entries
    }

    /// Returns the transpose (rows and columns swapped) as a new COO matrix.
    pub fn transpose(&self) -> CooMatrix {
        CooMatrix {
            rows: self.cols,
            cols: self.rows,
            entries: self.entries.iter().map(|&(r, c, v)| (c, r, v)).collect(),
        }
    }
}

impl Extend<(usize, usize, f64)> for CooMatrix {
    /// Extends the matrix with triples, skipping out-of-bounds entries is
    /// **not** silent: out-of-bounds entries panic, because `Extend` cannot
    /// report errors.  Use [`CooMatrix::push`] for fallible insertion.
    fn extend<T: IntoIterator<Item = (usize, usize, f64)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v).expect("out-of-bounds entry in CooMatrix::extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let m = CooMatrix::new(4, 5);
        assert_eq!(m.shape(), (4, 5));
        assert_eq!(m.nnz(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn push_and_iter() {
        let mut m = CooMatrix::new(2, 2);
        m.push(0, 0, 1.0).unwrap();
        m.push(1, 1, 2.0).unwrap();
        let collected: Vec<_> = m.iter().cloned().collect();
        assert_eq!(collected, vec![(0, 0, 1.0), (1, 1, 2.0)]);
    }

    #[test]
    fn push_out_of_bounds() {
        let mut m = CooMatrix::new(2, 2);
        assert!(matches!(m.push(2, 0, 1.0), Err(MatrixError::IndexOutOfBounds { .. })));
        assert!(matches!(m.push(0, 2, 1.0), Err(MatrixError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn from_triples_roundtrip() {
        let m = CooMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (2, 2, 3.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.entries()[1], (2, 2, 3.0));
    }

    #[test]
    fn from_triples_rejects_out_of_bounds() {
        assert!(CooMatrix::from_triples(2, 2, vec![(3, 0, 1.0)]).is_err());
    }

    #[test]
    fn transpose_swaps_indices() {
        let m = CooMatrix::from_triples(2, 3, vec![(0, 2, 5.0), (1, 0, 7.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.entries(), &[(2, 0, 5.0), (0, 1, 7.0)]);
    }

    #[test]
    fn extend_collects() {
        let mut m = CooMatrix::new(2, 2);
        m.extend(vec![(0, 0, 1.0), (1, 0, 2.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    #[should_panic(expected = "out-of-bounds")]
    fn extend_panics_out_of_bounds() {
        let mut m = CooMatrix::new(1, 1);
        m.extend(vec![(1, 1, 1.0)]);
    }
}
