//! Incremental graph ingest: applying [`DeltaBatch`]es to a live adjacency.
//!
//! A [`GraphIngest`] wraps the adjacency matrix of a running training or
//! serving session and applies edge insert/delete batches between epochs.
//! Two materialization strategies are offered, and the delta-equivalence
//! sweep (`tests/delta_equivalence.rs`) pins that they are byte-identical:
//!
//! * [`IngestMode::Delta`] — batches accumulate in a [`DeltaCsr`] overlay and
//!   are merged lazily the next time [`GraphIngest::adjacency`] is read
//!   (incremental compaction, the production path);
//! * [`IngestMode::Rebuild`] — every batch eagerly rebuilds the whole CSR
//!   from the final edge set via [`CooMatrix`] (the brute-force reference
//!   path).
//!
//! Under the 1.5D partition, ownership of an edge operation follows its
//! **source row**: [`GraphIngest::route_by_owner`] splits a batch into
//! per-block sub-batches so each process row can account for (and validate)
//! the operations landing in its block.  The adjacency itself is replicated
//! per rank in both distributed algorithms, so every rank applies the full
//! batch; the routing is the accounting surface, not a scatter.
//!
//! # Example
//!
//! ```
//! use dmbs_graph::ingest::{GraphIngest, IngestMode};
//! use dmbs_matrix::{CsrMatrix, DeltaBatch};
//!
//! # fn main() -> Result<(), dmbs_graph::GraphError> {
//! let mut ingest = GraphIngest::new(CsrMatrix::identity(4))?;
//! let mut batch = DeltaBatch::new();
//! batch.insert(0, 3, 1.0);
//! batch.delete(2, 2);
//! let receipt = ingest.apply(&batch)?;
//! assert_eq!(receipt.dirty, vec![0, 2, 3]);
//! assert_eq!(ingest.version(), 1);
//! assert_eq!(ingest.adjacency().nnz(), 4); // +1 insert, -1 delete
//! # Ok(())
//! # }
//! ```

use crate::graph::GraphError;
use crate::partition::OneDPartition;
use dmbs_matrix::{CooMatrix, CsrMatrix, DeltaBatch, DeltaCsr};
use serde::{Deserialize, Serialize};

/// How an applied batch is materialized into the adjacency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum IngestMode {
    /// Accumulate batches in the [`DeltaCsr`] overlay and compact lazily on
    /// the next adjacency read (the default, incremental path).
    #[default]
    Delta,
    /// Eagerly rebuild the full CSR from the final edge set on every batch
    /// (the brute-force reference path the equivalence sweep compares
    /// against).
    Rebuild,
}

/// What one [`GraphIngest::apply`] did: the sorted dirty-vertex set (both
/// endpoints of every operation), the operation count, and the graph version
/// after the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReceipt {
    /// Sorted, deduplicated vertices touched by the batch — the set precise
    /// cache invalidation works from.
    pub dirty: Vec<usize>,
    /// Number of distinct edge operations in the batch.
    pub ops: usize,
    /// Graph version after applying the batch (one bump per batch).
    pub version: u64,
}

/// A mutable adjacency with versioned batch ingest.
///
/// The version starts at 0 and bumps once per applied batch; consumers that
/// cached derived state (fetch plans, pinned feature rows) compare their
/// recorded version against [`GraphIngest::version`] to detect staleness.
#[derive(Debug, Clone)]
pub struct GraphIngest {
    delta: DeltaCsr,
    mode: IngestMode,
    version: u64,
}

impl GraphIngest {
    /// Wraps a square adjacency matrix at version 0, in
    /// [`IngestMode::Delta`].
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the matrix is not square.
    pub fn new(adjacency: CsrMatrix) -> Result<Self, GraphError> {
        if adjacency.rows() != adjacency.cols() {
            return Err(GraphError::InvalidConfig(format!(
                "adjacency matrix must be square, got {}x{}",
                adjacency.rows(),
                adjacency.cols()
            )));
        }
        Ok(GraphIngest { delta: DeltaCsr::new(adjacency), mode: IngestMode::Delta, version: 0 })
    }

    /// Selects the materialization strategy.
    pub fn with_mode(mut self, mode: IngestMode) -> Self {
        self.mode = mode;
        self
    }

    /// The materialization strategy in effect.
    pub fn mode(&self) -> IngestMode {
        self.mode
    }

    /// Current graph version (number of batches applied).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of vertices in the adjacency.
    pub fn num_vertices(&self) -> usize {
        self.delta.base().rows()
    }

    /// Applies one batch and bumps the version.
    ///
    /// In [`IngestMode::Delta`] the batch lands in the overlay and the CSR is
    /// rebuilt lazily on the next [`GraphIngest::adjacency`] read; in
    /// [`IngestMode::Rebuild`] the whole matrix is rebuilt eagerly from the
    /// final edge set.  Both paths produce byte-identical adjacencies.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Matrix`] if any operation lies outside the
    /// adjacency; nothing is applied and the version does not bump.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<IngestReceipt, GraphError> {
        match self.mode {
            IngestMode::Delta => self.delta.apply(batch)?,
            IngestMode::Rebuild => {
                // Fold the batch into the *compacted* current edge set and
                // rebuild from scratch through the COO construction path —
                // deliberately a different code path from DeltaCsr::compact.
                let current = self.delta.compact();
                let n = current.rows();
                let mut edges: std::collections::BTreeMap<(usize, usize), f64> =
                    current.iter().map(|(r, c, v)| ((r, c), v)).collect();
                for (r, c, op) in batch.ops() {
                    if r >= n || c >= n {
                        return Err(GraphError::Matrix(
                            dmbs_matrix::MatrixError::IndexOutOfBounds {
                                row: r,
                                col: c,
                                rows: n,
                                cols: n,
                            },
                        ));
                    }
                    match op {
                        Some(w) => {
                            edges.insert((r, c), w);
                        }
                        None => {
                            edges.remove(&(r, c));
                        }
                    }
                }
                let coo =
                    CooMatrix::from_triples(n, n, edges.into_iter().map(|((r, c), v)| (r, c, v)))?;
                self.delta = DeltaCsr::new(CsrMatrix::from_coo(&coo));
            }
        }
        self.version += 1;
        Ok(IngestReceipt { dirty: batch.dirty_vertices(), ops: batch.len(), version: self.version })
    }

    /// The current adjacency, compacting any pending overlay first.
    pub fn adjacency(&mut self) -> &CsrMatrix {
        self.delta.compact()
    }

    /// Splits a batch into per-block sub-batches by the **source row's**
    /// owning block under a 1D block-row partition (the row partition of the
    /// 1.5D grid).  The union of the sub-batches is exactly the input batch.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an operation's source row
    /// lies outside the partition.
    pub fn route_by_owner(
        batch: &DeltaBatch,
        partition: &OneDPartition,
    ) -> Result<Vec<DeltaBatch>, GraphError> {
        let mut routed: Vec<DeltaBatch> = vec![DeltaBatch::new(); partition.num_parts()];
        for (r, c, op) in batch.ops() {
            if r >= partition.len() {
                return Err(GraphError::VertexOutOfRange {
                    vertex: r,
                    num_vertices: partition.len(),
                });
            }
            let owner = partition.owner_of(r);
            match op {
                Some(w) => {
                    routed[owner].insert(r, c, w);
                }
                None => {
                    routed[owner].delete(r, c);
                }
            }
        }
        Ok(routed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(ops: &[(usize, usize, Option<f64>)]) -> DeltaBatch {
        ops.iter().copied().collect()
    }

    #[test]
    fn requires_square_adjacency() {
        assert!(GraphIngest::new(CsrMatrix::zeros(2, 3)).is_err());
        assert!(GraphIngest::new(CsrMatrix::identity(3)).is_ok());
    }

    #[test]
    fn apply_bumps_version_and_reports_dirty() {
        let mut ingest = GraphIngest::new(CsrMatrix::identity(5)).unwrap();
        let receipt = ingest.apply(&batch(&[(0, 3, Some(1.0)), (4, 1, None)])).unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.ops, 2);
        assert_eq!(receipt.dirty, vec![0, 1, 3, 4]);
        assert_eq!(ingest.version(), 1);
        let a = ingest.adjacency();
        assert_eq!(a.get(0, 3), 1.0);
        assert_eq!(a.get(4, 4), 1.0); // delete-of-absent (4,1) was a no-op
    }

    #[test]
    fn out_of_bounds_batch_leaves_version_alone() {
        let mut ingest = GraphIngest::new(CsrMatrix::identity(3)).unwrap();
        assert!(ingest.apply(&batch(&[(0, 9, Some(1.0))])).is_err());
        assert_eq!(ingest.version(), 0);
        let mut rebuild =
            GraphIngest::new(CsrMatrix::identity(3)).unwrap().with_mode(IngestMode::Rebuild);
        assert!(rebuild.apply(&batch(&[(9, 0, Some(1.0))])).is_err());
        assert_eq!(rebuild.version(), 0);
    }

    #[test]
    fn delta_and_rebuild_modes_are_byte_identical() {
        let batches = [
            batch(&[(0, 2, Some(1.0)), (3, 3, None), (1, 0, Some(0.0))]),
            batch(&[(0, 2, None), (2, 4, Some(2.5))]),
            batch(&[]),
            batch(&[(4, 0, Some(-1.0)), (2, 4, Some(7.0))]),
        ];
        let base = CsrMatrix::identity(5);
        let mut delta = GraphIngest::new(base.clone()).unwrap();
        let mut rebuild = GraphIngest::new(base).unwrap().with_mode(IngestMode::Rebuild);
        for b in &batches {
            delta.apply(b).unwrap();
            rebuild.apply(b).unwrap();
        }
        let a = delta.adjacency().clone();
        let b = rebuild.adjacency().clone();
        assert_eq!(a.indptr(), b.indptr());
        assert_eq!(a.indices(), b.indices());
        let bits = |m: &CsrMatrix| m.value_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn routing_partitions_by_source_row_and_unions_back() {
        let part = OneDPartition::new(10, 3).unwrap();
        let b = batch(&[(0, 9, Some(1.0)), (3, 0, None), (4, 4, Some(2.0)), (9, 1, Some(3.0))]);
        let routed = GraphIngest::route_by_owner(&b, &part).unwrap();
        assert_eq!(routed.len(), 3);
        assert_eq!(routed[0].len(), 2); // rows 0 and 3 live in block 0 (rows 0..4)
        assert_eq!(routed[1].len(), 1); // row 4 lives in block 1 (rows 4..7)
        assert_eq!(routed[2].len(), 1); // row 9 lives in block 2 (rows 7..10)
        let mut union = DeltaBatch::new();
        for sub in &routed {
            union.merge(sub);
        }
        assert_eq!(union, b);
    }

    #[test]
    fn routing_rejects_out_of_range_rows() {
        let part = OneDPartition::new(4, 2).unwrap();
        assert!(matches!(
            GraphIngest::route_by_owner(&batch(&[(7, 0, None)]), &part),
            Err(GraphError::VertexOutOfRange { vertex: 7, .. })
        ));
    }
}
