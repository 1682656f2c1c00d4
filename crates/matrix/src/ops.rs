//! Selection-matrix constructors.
//!
//! Algorithm 1 of the paper writes row gathers as products `Q · A` against a
//! row-selection matrix `Q` (§4.1.1, §4.2.3).  [`row_selection_matrix`] builds
//! that `Q`; the product never needs to be materialised as an SpGEMM — the
//! row gather [`crate::extract::extract_rows`] computes the byte-identical
//! result in `O(nnz of the selected rows)` — so the constructor remains as
//! the reference formulation the extraction proptests pin against.  A product
//! with several nonzeros per `Q` row (the LADIES indicator rows, built in
//! place with [`CsrMatrix::from_raw`]) genuinely needs the general Gustavson
//! kernel of [`crate::spgemm`].

use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::prefix::counts_to_offsets;
use crate::Result;

/// Builds a row-selection matrix `Q ∈ {0,1}^{b×n}` with one nonzero per row:
/// row `i` selects column `selected[i]`.  Multiplying `Q · A` gathers the rows
/// of `A` listed in `selected` — the GraphSAGE `Q^L` construction (§4.1.1)
/// and the LADIES row-extraction matrix `Q_R` (§4.2.3).
///
/// # Errors
///
/// Returns [`MatrixError::InvalidStructure`] if any selected index is `>= n`.
pub fn row_selection_matrix(selected: &[usize], n: usize) -> Result<CsrMatrix> {
    let rows = selected.len();
    for &s in selected {
        if s >= n {
            return Err(MatrixError::InvalidStructure(format!(
                "selected vertex {s} out of range for n = {n}"
            )));
        }
    }
    let indptr = counts_to_offsets(&vec![1usize; rows]);
    CsrMatrix::from_raw(rows, n, indptr, selected.to_vec(), vec![1.0; rows])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spgemm::spgemm;
    use crate::CooMatrix;

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
    fn row_selection_matrix_gathers_rows() {
        let a = figure1_graph();
        let q = row_selection_matrix(&[1, 5], 6).unwrap();
        let p = spgemm(&q, &a).unwrap();
        assert_eq!(p, a.gather_rows(&[1, 5]).unwrap());
        assert!(row_selection_matrix(&[6], 6).is_err());
    }

    #[test]
    fn row_selection_allows_duplicates() {
        let a = figure1_graph();
        let q = row_selection_matrix(&[3, 3], 6).unwrap();
        let p = spgemm(&q, &a).unwrap();
        assert_eq!(p.row_indices(0), p.row_indices(1));
    }

    #[test]
    fn indicator_row_counts_neighbors() {
        let a = figure1_graph();
        // The LADIES indicator row of {1, 5}, built in place.
        let q = CsrMatrix::from_raw(1, 6, vec![0, 2], vec![1, 5], vec![1.0; 2]).unwrap();
        let p = spgemm(&q, &a).unwrap();
        // Aggregated neighborhood multiplicities of {1, 5}: [1, 0, 1, 1, 2, 0].
        assert_eq!(p.get(0, 0), 1.0);
        assert_eq!(p.get(0, 2), 1.0);
        assert_eq!(p.get(0, 3), 1.0);
        assert_eq!(p.get(0, 4), 2.0);
        assert_eq!(p.nnz(), 4);
    }
}
