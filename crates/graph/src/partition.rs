//! Block-row partitionings of matrices across a process grid.
//!
//! The paper distributes the sampler matrix `Q^l`, the adjacency matrix `A`
//! and the feature matrix `H` with block-row partitionings:
//!
//! * the **Graph Replicated** algorithm (§5.1) splits `Q^l` into `p` block
//!   rows (1D) and replicates `A` everywhere;
//! * the **Graph Partitioned** algorithm (§5.2) uses a 1.5D scheme on a
//!   `p/c × c` process grid: both `Q^l` and `A` are split into `p/c` block
//!   rows, and each block row is replicated on the `c` processes of its
//!   process row;
//! * the training pipeline (§6) partitions the feature matrix `H` with the
//!   same 1.5D scheme so that feature fetching is an all-to-allv within a
//!   process column.
//!
//! Every scheme is a [`OneDPartition`] of the rows over the right number of
//! block rows (`p`, or `p/c` for 1.5D); the grid that maps ranks to block
//! rows is `dmbs_comm::ProcessGrid`.

use crate::graph::GraphError;
use dmbs_matrix::{CsrMatrix, DenseMatrix};
use serde::{Deserialize, Serialize};

/// A 1D block-row partition of `n` rows over `p` parts.
///
/// Rows are split as evenly as possible: the first `n % p` parts get one
/// extra row.
///
/// # Example
///
/// ```
/// use dmbs_graph::partition::OneDPartition;
///
/// # fn main() -> Result<(), dmbs_graph::GraphError> {
/// let part = OneDPartition::new(10, 3)?;
/// assert_eq!(part.range(0), 0..4);
/// assert_eq!(part.range(2), 7..10);
/// assert_eq!(part.owner_of(7), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneDPartition {
    n: usize,
    parts: usize,
    /// Start offset of each part, with a final sentinel equal to `n`.
    offsets: Vec<usize>,
}

impl OneDPartition {
    /// Creates a block-row partition of `n` rows into `parts` parts.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if `parts == 0`.
    pub fn new(n: usize, parts: usize) -> Result<Self, GraphError> {
        if parts == 0 {
            return Err(GraphError::InvalidConfig("partition requires at least one part".into()));
        }
        let base = n / parts;
        let extra = n % parts;
        let mut offsets = Vec::with_capacity(parts + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for i in 0..parts {
            acc += base + usize::from(i < extra);
            offsets.push(acc);
        }
        Ok(OneDPartition { n, parts, offsets })
    }

    /// Total number of rows being partitioned.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts
    }

    /// Row range owned by `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= num_parts`.
    pub fn range(&self, part: usize) -> std::ops::Range<usize> {
        assert!(part < self.parts, "part index out of range");
        self.offsets[part]..self.offsets[part + 1]
    }

    /// Number of rows owned by `part`.
    ///
    /// # Panics
    ///
    /// Panics if `part >= num_parts`.
    pub fn part_len(&self, part: usize) -> usize {
        self.range(part).len()
    }

    /// The part that owns global row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len`.
    pub fn owner_of(&self, row: usize) -> usize {
        assert!(row < self.n, "row out of range");
        // Binary search over offsets: find the last offset <= row.
        match self.offsets.binary_search(&row) {
            Ok(i) if i == self.parts => self.parts - 1,
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    /// Converts a global row index to `(part, local_index)`.
    ///
    /// # Panics
    ///
    /// Panics if `row >= len`.
    pub fn to_local(&self, row: usize) -> (usize, usize) {
        let part = self.owner_of(row);
        (part, row - self.offsets[part])
    }

    /// Converts `(part, local_index)` back to a global row index.
    ///
    /// # Panics
    ///
    /// Panics if the local index lies outside the part.
    pub fn to_global(&self, part: usize, local: usize) -> usize {
        let range = self.range(part);
        assert!(local < range.len(), "local index out of range for part");
        range.start + local
    }

    /// Splits a CSR matrix into one block-row matrix per part.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the matrix row count does not
    /// match the partition length.
    pub fn split_csr(&self, matrix: &CsrMatrix) -> Result<Vec<CsrMatrix>, GraphError> {
        (0..self.parts).map(|part| self.block_csr(matrix, part)).collect()
    }

    /// The block row of a CSR matrix that part `part` owns: one part of
    /// [`OneDPartition::split_csr`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the matrix row count does not
    /// match the partition length or `part` is not a part.
    pub fn block_csr(&self, matrix: &CsrMatrix, part: usize) -> Result<CsrMatrix, GraphError> {
        if matrix.rows() != self.n {
            return Err(GraphError::InvalidConfig(format!(
                "matrix has {} rows but partition covers {}",
                matrix.rows(),
                self.n
            )));
        }
        if part >= self.parts {
            return Err(GraphError::InvalidConfig(format!(
                "part {part} out of range for {} parts",
                self.parts
            )));
        }
        let r = self.range(part);
        Ok(matrix.row_block(r.start, r.end))
    }

    /// Splits a dense matrix into one block-row matrix per part.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the matrix row count does not
    /// match the partition length.
    pub fn split_dense(&self, matrix: &DenseMatrix) -> Result<Vec<DenseMatrix>, GraphError> {
        if matrix.rows() != self.n {
            return Err(GraphError::InvalidConfig(format!(
                "matrix has {} rows but partition covers {}",
                matrix.rows(),
                self.n
            )));
        }
        Ok((0..self.parts)
            .map(|p| {
                let r = self.range(p);
                let rows: Vec<usize> = r.collect();
                matrix.gather_rows(&rows).expect("partition ranges are in bounds")
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_comm::ProcessGrid;
    use dmbs_matrix::CooMatrix;
    use proptest::prelude::*;

    /// The 1.5D layout every backend builds: a `p/c × c` process grid and a
    /// 1D partition of the `n` rows over its `p/c` process rows.
    fn one_five_d(p: usize, c: usize, n: usize) -> (ProcessGrid, OneDPartition) {
        let grid = ProcessGrid::new(p, c).unwrap();
        let rows = OneDPartition::new(n, grid.rows()).unwrap();
        (grid, rows)
    }

    #[test]
    fn one_d_even_and_uneven() {
        let even = OneDPartition::new(8, 4).unwrap();
        assert_eq!(even.part_len(0), 2);
        assert_eq!(even.range(3), 6..8);

        let uneven = OneDPartition::new(10, 3).unwrap();
        assert_eq!(uneven.part_len(0), 4);
        assert_eq!(uneven.part_len(1), 3);
        assert_eq!(uneven.part_len(2), 3);
        assert_eq!(uneven.range(1), 4..7);
    }

    #[test]
    fn one_d_owner_and_local_roundtrip() {
        let p = OneDPartition::new(10, 3).unwrap();
        for row in 0..10 {
            let (part, local) = p.to_local(row);
            assert!(p.range(part).contains(&row));
            assert_eq!(p.to_global(part, local), row);
        }
        assert_eq!(p.owner_of(0), 0);
        assert_eq!(p.owner_of(9), 2);
    }

    #[test]
    fn one_d_zero_rows() {
        let p = OneDPartition::new(0, 3).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.part_len(0), 0);
        assert_eq!(p.part_len(2), 0);
    }

    #[test]
    fn one_d_requires_parts() {
        assert!(OneDPartition::new(5, 0).is_err());
    }

    #[test]
    fn one_d_more_parts_than_rows() {
        let p = OneDPartition::new(2, 5).unwrap();
        assert_eq!(p.part_len(0), 1);
        assert_eq!(p.part_len(1), 1);
        assert_eq!(p.part_len(4), 0);
    }

    #[test]
    fn split_csr_preserves_rows() {
        let coo =
            CooMatrix::from_triples(6, 4, vec![(0, 1, 1.0), (3, 2, 2.0), (5, 0, 3.0)]).unwrap();
        let m = CsrMatrix::from_coo(&coo);
        let part = OneDPartition::new(6, 3).unwrap();
        let blocks = part.split_csr(&m).unwrap();
        assert_eq!(blocks.len(), 3);
        assert_eq!(blocks[0].rows(), 2);
        assert_eq!(blocks[1].get(1, 2), 2.0); // global row 3 = block 1 local row 1
        assert_eq!(blocks[2].get(1, 0), 3.0); // global row 5 = block 2 local row 1
        assert!(part.split_csr(&CsrMatrix::zeros(5, 4)).is_err());
        for (p, block) in blocks.iter().enumerate() {
            assert_eq!(&part.block_csr(&m, p).unwrap(), block);
        }
        assert!(part.block_csr(&m, 3).is_err());
    }

    #[test]
    fn split_dense_preserves_rows() {
        let d = DenseMatrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0], vec![4.0]]).unwrap();
        let part = OneDPartition::new(4, 2).unwrap();
        let blocks = part.split_dense(&d).unwrap();
        assert_eq!(blocks[1].get(0, 0), 3.0);
        assert!(part.split_dense(&DenseMatrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn one_five_d_grid_layout() {
        let (g, rows) = one_five_d(8, 2, 100);
        assert_eq!(g.size(), 8);
        assert_eq!(g.cols(), 2);
        assert_eq!(g.rows(), 4);
        assert_eq!(rows.num_parts(), 4);
        assert_eq!(g.num_stages(), 2);
        assert_eq!(g.coords(0), (0, 0));
        assert_eq!(g.coords(7), (3, 1));
        assert_eq!(g.rank_at(3, 1), 7);
        assert_eq!(g.row_ranks(2), vec![2, 3]);
        assert_eq!(g.col_ranks(0), vec![0, 2, 4, 6]);
        // Rank 6 sits in process row 3, so it stores block row 3.
        assert_eq!(rows.range(g.coords(6).0), 75..100);
    }

    #[test]
    fn one_five_d_block_ranges_cover_rows() {
        let (g, rows) = one_five_d(6, 3, 10);
        assert_eq!(g.rows(), 2);
        let total: usize = (0..g.rows()).map(|i| rows.range(i).len()).sum();
        assert_eq!(total, 10);
        assert_eq!(rows.owner_of(9), 1);
    }

    #[test]
    fn one_five_d_validation() {
        assert!(ProcessGrid::new(0, 1).is_err());
        assert!(ProcessGrid::new(4, 0).is_err());
        assert!(ProcessGrid::new(6, 4).is_err());
        // c = p: fully replicated, one block row holding every row.
        let (g, rows) = one_five_d(4, 4, 10);
        assert_eq!(g.rows(), 1);
        assert_eq!(rows.range(0), 0..10);
    }

    #[test]
    fn one_five_d_num_stages_minimum_one() {
        // p = c^2 gives exactly 1 stage; p < c^2 clamps to 1.
        assert_eq!(one_five_d(4, 2, 10).0.num_stages(), 1);
        assert_eq!(one_five_d(4, 4, 10).0.num_stages(), 1);
        assert_eq!(one_five_d(16, 2, 10).0.num_stages(), 4);
    }

    proptest! {
        #[test]
        fn prop_one_d_parts_cover_everything(n in 0usize..200, parts in 1usize..17) {
            let p = OneDPartition::new(n, parts).unwrap();
            let mut total = 0usize;
            for i in 0..parts {
                total += p.part_len(i);
                // Sizes differ by at most one.
                prop_assert!(p.part_len(i) + 1 >= n / parts);
                prop_assert!(p.part_len(i) <= n / parts + 1);
            }
            prop_assert_eq!(total, n);
        }

        #[test]
        fn prop_owner_is_consistent(n in 1usize..200, parts in 1usize..17, row_seed in 0usize..10_000) {
            let p = OneDPartition::new(n, parts).unwrap();
            let row = row_seed % n;
            let owner = p.owner_of(row);
            prop_assert!(p.range(owner).contains(&row));
        }

        #[test]
        fn prop_grid_rank_coords_roundtrip(pc in 1usize..8, c in 1usize..5) {
            let (g, rows) = one_five_d(pc * c, c, 64);
            for rank in 0..g.size() {
                let (i, j) = g.coords(rank);
                prop_assert_eq!(g.rank_at(i, j), rank);
                prop_assert!(i < rows.num_parts());
            }
        }
    }
}
