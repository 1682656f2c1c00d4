//! Process grids.
//!
//! The pipeline treats its `p` ranks as a `p/c × c` grid (§5.2, §6):
//! block rows of `Q`, `A` and `H` live on process rows, and feature fetching
//! is an all-to-allv within process columns.  [`ProcessGrid`] maps ranks to
//! grid coordinates and enumerates row/column groups for the collectives in
//! [`crate::collectives`].

use crate::error::CommError;
use serde::{Deserialize, Serialize};

/// A `p/c × c` process grid with row-major rank numbering
/// (`rank = i * c + j`).
///
/// # Example
///
/// ```
/// use dmbs_comm::ProcessGrid;
///
/// # fn main() -> Result<(), dmbs_comm::CommError> {
/// let grid = ProcessGrid::new(8, 2)?;
/// assert_eq!(grid.rows(), 4);
/// assert_eq!(grid.coords(5), (2, 1));
/// assert_eq!(grid.row_ranks(5), vec![4, 5]);
/// assert_eq!(grid.col_ranks(5), vec![1, 3, 5, 7]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProcessGrid {
    p: usize,
    c: usize,
}

impl ProcessGrid {
    /// Creates a grid of `p` processes with replication factor (column count)
    /// `c`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if `p == 0`, `c == 0`, or `c`
    /// does not divide `p`.
    pub fn new(p: usize, c: usize) -> Result<Self, CommError> {
        if p == 0 || c == 0 {
            return Err(CommError::InvalidConfig("p and c must be positive".into()));
        }
        if !p.is_multiple_of(c) {
            return Err(CommError::InvalidConfig(format!(
                "replication factor {c} must divide process count {p}"
            )));
        }
        Ok(ProcessGrid { p, c })
    }

    /// Total number of processes.
    pub fn size(&self) -> usize {
        self.p
    }

    /// Number of process columns (the replication factor `c`).
    pub fn cols(&self) -> usize {
        self.c
    }

    /// Number of process rows (`p / c`).
    pub fn rows(&self) -> usize {
        self.p / self.c
    }

    /// Number of stages of the 1.5D SpGEMM, `⌈p/c²⌉`: each process column
    /// multiplies a contiguous chunk of that many block rows, one per stage.
    pub fn num_stages(&self) -> usize {
        self.rows().div_ceil(self.c)
    }

    /// Grid coordinates `(row, col)` of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size`.
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        assert!(rank < self.p, "rank out of range");
        (rank / self.c, rank % self.c)
    }

    /// Rank at grid coordinates `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn rank_at(&self, row: usize, col: usize) -> usize {
        assert!(row < self.rows() && col < self.c, "grid coordinates out of range");
        row * self.c + col
    }

    /// Ranks sharing the process row of `rank` (including itself), in column
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size`.
    pub fn row_ranks(&self, rank: usize) -> Vec<usize> {
        let (row, _) = self.coords(rank);
        (0..self.c).map(|j| self.rank_at(row, j)).collect()
    }

    /// Ranks sharing the process column of `rank` (including itself), in row
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= size`.
    pub fn col_ranks(&self, rank: usize) -> Vec<usize> {
        let (_, col) = self.coords(rank);
        (0..self.rows()).map(|i| self.rank_at(i, col)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_validation() {
        assert!(ProcessGrid::new(0, 1).is_err());
        assert!(ProcessGrid::new(4, 0).is_err());
        assert!(ProcessGrid::new(6, 4).is_err());
        assert!(ProcessGrid::new(6, 3).is_ok());
    }

    #[test]
    fn layout_matches_paper_convention() {
        let g = ProcessGrid::new(8, 2).unwrap();
        assert_eq!(g.size(), 8);
        assert_eq!(g.rows(), 4);
        assert_eq!(g.cols(), 2);
        assert_eq!(g.num_stages(), 2);
        assert_eq!(g.coords(0), (0, 0));
        assert_eq!(g.coords(3), (1, 1));
        assert_eq!(g.rank_at(3, 0), 6);
        assert_eq!(g.row_ranks(6), vec![6, 7]);
        assert_eq!(g.col_ranks(6), vec![0, 2, 4, 6]);
    }

    #[test]
    fn one_column_grid_is_pure_1d() {
        let g = ProcessGrid::new(4, 1).unwrap();
        assert_eq!(g.rows(), 4);
        assert_eq!(g.row_ranks(2), vec![2]);
        assert_eq!(g.col_ranks(2), vec![0, 1, 2, 3]);
        assert_eq!(g.num_stages(), 4);
    }

    #[test]
    fn num_stages_cover_every_block_row() {
        // Column j owns block rows [j·s, (j+1)·s); the last chunk may be
        // short, so the count rounds up, and p ≤ c² leaves one stage.
        assert_eq!(ProcessGrid::new(6, 2).unwrap().num_stages(), 2);
        assert_eq!(ProcessGrid::new(10, 2).unwrap().num_stages(), 3);
        assert_eq!(ProcessGrid::new(4, 2).unwrap().num_stages(), 1);
        assert_eq!(ProcessGrid::new(4, 4).unwrap().num_stages(), 1);
        assert_eq!(ProcessGrid::new(16, 2).unwrap().num_stages(), 4);
    }

    proptest! {
        #[test]
        fn prop_coords_roundtrip(rows in 1usize..10, c in 1usize..6) {
            let g = ProcessGrid::new(rows * c, c).unwrap();
            for rank in 0..g.size() {
                let (i, j) = g.coords(rank);
                prop_assert_eq!(g.rank_at(i, j), rank);
                prop_assert!(g.row_ranks(rank).contains(&rank));
                prop_assert!(g.col_ranks(rank).contains(&rank));
            }
        }

        #[test]
        fn prop_rows_and_cols_partition_world(rows in 1usize..8, c in 1usize..5) {
            let g = ProcessGrid::new(rows * c, c).unwrap();
            // Every rank appears in exactly one process row group (taking the
            // group of each row leader).
            let mut seen = vec![false; g.size()];
            for i in 0..g.rows() {
                for r in g.row_ranks(g.rank_at(i, 0)) {
                    prop_assert!(!seen[r]);
                    seen[r] = true;
                }
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }
}
