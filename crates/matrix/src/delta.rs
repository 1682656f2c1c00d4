//! Delta overlay over a base [`CsrMatrix`]: batched edge inserts/deletes
//! merged lazily by an explicit [`DeltaCsr::compact`].
//!
//! Dynamic-graph workloads mutate the adjacency between training epochs.
//! Rebuilding the CSR from scratch on every edge event would be wasteful and
//! — worse for this repo's discipline — would make incremental ingest a
//! *different numerical artifact* from a full rebuild.  The delta layer is
//! built around the opposite contract:
//!
//! * a [`DeltaBatch`] is a sorted, deduplicated set of edge operations with
//!   deterministic **last-write-wins** semantics (the last `insert`/`delete`
//!   recorded for an `(row, col)` pair is the one that counts);
//! * a [`DeltaCsr`] overlays pending operations on a base matrix and merges
//!   them into a rebuilt base only when [`DeltaCsr::compact`] is called;
//! * the compacted matrix is **byte-identical** (same `indptr`/`indices`/
//!   `values` buffers) to eagerly rebuilding a CSR from the final edge set —
//!   the property the `tests/delta_equivalence.rs` sweep and the proptests in
//!   this module pin.
//!
//! Stored-zero policy: inserting an edge with weight `0.0` stores an explicit
//! zero, exactly as [`CsrMatrix::from_coo`] does when converting an edge
//! list.  Deleting removes the entry entirely.  The two are distinct — an
//! explicit zero still occupies a slot in the sparsity pattern (and the CSC
//! formulation of the sampler treats pattern, not value, as structure).
//!
//! # Example
//!
//! ```
//! use dmbs_matrix::{CooMatrix, CsrMatrix, DeltaBatch, DeltaCsr};
//!
//! # fn main() -> Result<(), dmbs_matrix::MatrixError> {
//! let coo = CooMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (2, 0, 1.0)])?;
//! let base = CsrMatrix::from_coo(&coo);
//!
//! let mut delta = DeltaCsr::new(base);
//! let mut batch = DeltaBatch::new();
//! batch.insert(1, 2, 1.0);
//! batch.delete(2, 0);
//! delta.apply(&batch)?;
//!
//! assert_eq!(delta.pending_ops(), 2);
//! let merged = delta.compact();
//! assert_eq!(merged.nnz(), 2); // (0,1) survives, (1,2) added, (2,0) gone
//! # Ok(())
//! # }
//! ```

use crate::csr::CsrMatrix;
use crate::error::MatrixError;
use crate::Result;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One edge operation: `Some(w)` inserts (or overwrites) the edge with
/// weight `w`; `None` deletes it.
pub type EdgeOp = Option<f64>;

/// A sorted, deduplicated batch of edge inserts and deletes with
/// deterministic last-write-wins semantics.
///
/// The batch is dimension-free: bounds are checked when it is applied to a
/// [`DeltaCsr`] (whose base matrix fixes the shape).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DeltaBatch {
    /// `(row, col) -> op`, last write wins by map semantics.
    ops: BTreeMap<(usize, usize), EdgeOp>,
}

impl DeltaBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    /// Records an edge insert (or weight overwrite).  A later `insert` or
    /// [`DeltaBatch::delete`] of the same `(row, col)` wins.
    pub fn insert(&mut self, row: usize, col: usize, weight: f64) -> &mut Self {
        self.ops.insert((row, col), Some(weight));
        self
    }

    /// Records an edge delete.  Deleting an edge the base does not contain is
    /// a no-op at compaction time.
    pub fn delete(&mut self, row: usize, col: usize) -> &mut Self {
        self.ops.insert((row, col), None);
        self
    }

    /// Number of distinct `(row, col)` operations recorded.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if no operations are recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Iterator over `(row, col, op)` in sorted `(row, col)` order.
    pub fn ops(&self) -> impl Iterator<Item = (usize, usize, EdgeOp)> + '_ {
        self.ops.iter().map(|(&(r, c), &op)| (r, c, op))
    }

    /// The sorted, deduplicated set of vertices touched by the batch — both
    /// endpoints of every operation.  This is the dirty set precise cache
    /// invalidation works from.
    pub fn dirty_vertices(&self) -> Vec<usize> {
        let mut dirty: Vec<usize> = self.ops.keys().flat_map(|&(r, c)| [r, c]).collect();
        dirty.sort_unstable();
        dirty.dedup();
        dirty
    }

    /// Folds `other` into `self`; on conflicting `(row, col)` pairs, `other`
    /// wins (it is the later write).
    pub fn merge(&mut self, other: &DeltaBatch) {
        for (k, v) in &other.ops {
            self.ops.insert(*k, *v);
        }
    }
}

impl FromIterator<(usize, usize, EdgeOp)> for DeltaBatch {
    fn from_iter<T: IntoIterator<Item = (usize, usize, EdgeOp)>>(iter: T) -> Self {
        let mut batch = DeltaBatch::new();
        for (r, c, op) in iter {
            batch.ops.insert((r, c), op);
        }
        batch
    }
}

/// A base [`CsrMatrix`] plus a pending overlay of edge operations, merged
/// lazily by [`DeltaCsr::compact`].
///
/// Reads ([`DeltaCsr::get`]) see the overlay; the structural buffers only
/// change at compaction, and the compacted result is byte-identical to an
/// eager rebuild from the final edge set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeltaCsr {
    base: CsrMatrix,
    overlay: BTreeMap<(usize, usize), EdgeOp>,
}

impl DeltaCsr {
    /// Wraps a base matrix with an empty overlay.
    pub fn new(base: CsrMatrix) -> Self {
        DeltaCsr { base, overlay: BTreeMap::new() }
    }

    /// The current base matrix (pending operations not included).
    pub fn base(&self) -> &CsrMatrix {
        &self.base
    }

    /// Number of pending (uncompacted) operations.
    pub fn pending_ops(&self) -> usize {
        self.overlay.len()
    }

    /// Returns `true` if operations are pending.
    pub fn is_dirty(&self) -> bool {
        !self.overlay.is_empty()
    }

    /// Applies a batch to the overlay (last write wins over earlier pending
    /// operations), without compacting.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any operation lies
    /// outside the base matrix; the overlay is untouched in that case.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<()> {
        for (r, c, _) in batch.ops() {
            if r >= self.base.rows() || c >= self.base.cols() {
                return Err(MatrixError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows: self.base.rows(),
                    cols: self.base.cols(),
                });
            }
        }
        for (r, c, op) in batch.ops() {
            self.overlay.insert((r, c), op);
        }
        Ok(())
    }

    /// The effective value at `(row, col)`: pending operations first, then
    /// the base.  Deleted entries and absent entries both read `0.0` (use the
    /// compacted pattern to distinguish stored zeros).
    ///
    /// # Panics
    ///
    /// Panics if the position lies outside the matrix (as
    /// [`CsrMatrix::get`] does).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        match self.overlay.get(&(row, col)) {
            Some(Some(w)) => *w,
            Some(None) => {
                assert!(row < self.base.rows() && col < self.base.cols(), "index out of bounds");
                0.0
            }
            None => self.base.get(row, col),
        }
    }

    /// Merges pending operations into the base and returns the rebuilt
    /// matrix.  The result is byte-identical to rebuilding a CSR eagerly from
    /// the final edge set (the delta-equivalence contract); with no pending
    /// operations this is a cheap no-op.
    pub fn compact(&mut self) -> &CsrMatrix {
        if self.overlay.is_empty() {
            return &self.base;
        }
        let rows = self.base.rows();
        let cols = self.base.cols();
        let mut indptr = Vec::with_capacity(rows + 1);
        let mut indices = Vec::with_capacity(self.base.nnz() + self.overlay.len());
        let mut values = Vec::with_capacity(self.base.nnz() + self.overlay.len());
        indptr.push(0);
        let mut overlay = self.overlay.iter().peekable();
        for r in 0..rows {
            let base_cols = self.base.row_indices(r);
            let base_vals = self.base.row_values(r);
            let base_val = |bi: usize| base_vals.map_or(1.0, |v| v[bi]);
            let mut bi = 0;
            // Merge-walk the sorted base row with the sorted overlay run for
            // this row; both are strictly increasing in column, so the output
            // is too.
            loop {
                let next_overlay_col = match overlay.peek() {
                    Some(&(&(or, oc), _)) if or == r => Some(oc),
                    _ => None,
                };
                match (base_cols.get(bi), next_overlay_col) {
                    (Some(&bc), Some(oc)) if bc < oc => {
                        indices.push(bc);
                        values.push(base_val(bi));
                        bi += 1;
                    }
                    (Some(&bc), Some(oc)) if bc == oc => {
                        // Overlay overrides the base entry.
                        let (_, op) = overlay.next().expect("peeked");
                        if let Some(w) = op {
                            indices.push(bc);
                            values.push(*w);
                        }
                        bi += 1;
                    }
                    (_, Some(oc)) => {
                        let (_, op) = overlay.next().expect("peeked");
                        if let Some(w) = op {
                            indices.push(oc);
                            values.push(*w);
                        }
                    }
                    (Some(&bc), None) => {
                        indices.push(bc);
                        values.push(base_val(bi));
                        bi += 1;
                    }
                    (None, None) => break,
                }
            }
            indptr.push(indices.len());
        }
        self.overlay.clear();
        self.base = CsrMatrix::from_raw_unchecked(rows, cols, indptr, indices, Some(values));
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn base_3x3() -> CsrMatrix {
        let coo =
            CooMatrix::from_triples(3, 3, vec![(0, 1, 1.0), (1, 0, 2.0), (1, 2, 3.0), (2, 2, 4.0)])
                .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    /// Eagerly rebuilds the final matrix from the base edge set plus a
    /// sequence of batches — the independent second code path every
    /// compaction result is held against.
    fn eager_rebuild(base: &CsrMatrix, batches: &[DeltaBatch]) -> CsrMatrix {
        let mut edges: BTreeMap<(usize, usize), f64> =
            base.iter().map(|(r, c, v)| ((r, c), v)).collect();
        for batch in batches {
            for (r, c, op) in batch.ops() {
                match op {
                    Some(w) => {
                        edges.insert((r, c), w);
                    }
                    None => {
                        edges.remove(&(r, c));
                    }
                }
            }
        }
        let coo = CooMatrix::from_triples(
            base.rows(),
            base.cols(),
            edges.into_iter().map(|((r, c), v)| (r, c, v)),
        )
        .unwrap();
        CsrMatrix::from_coo(&coo)
    }

    fn assert_byte_identical(a: &CsrMatrix, b: &CsrMatrix) {
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.indptr(), b.indptr(), "indptr diverged");
        assert_eq!(a.indices(), b.indices(), "indices diverged");
        let bits = crate::csr::oracle::bits;
        assert_eq!(bits(a), bits(b), "values not bit-identical");
    }

    #[test]
    fn batch_last_write_wins() {
        let mut b = DeltaBatch::new();
        b.insert(0, 1, 1.0);
        b.delete(0, 1);
        b.insert(0, 1, 7.0);
        assert_eq!(b.len(), 1);
        assert_eq!(b.ops().next(), Some((0, 1, Some(7.0))));
    }

    #[test]
    fn batch_dirty_vertices_sorted_dedup() {
        let mut b = DeltaBatch::new();
        b.insert(4, 1, 1.0);
        b.delete(1, 4);
        b.insert(2, 2, 1.0);
        assert_eq!(b.dirty_vertices(), vec![1, 2, 4]);
    }

    #[test]
    fn batch_merge_later_wins() {
        let mut a = DeltaBatch::new();
        a.insert(0, 0, 1.0);
        a.insert(1, 1, 2.0);
        let mut b = DeltaBatch::new();
        b.delete(0, 0);
        a.merge(&b);
        assert_eq!(a.ops().next(), Some((0, 0, None)));
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn apply_bounds_checked_and_atomic() {
        let mut d = DeltaCsr::new(base_3x3());
        let mut bad = DeltaBatch::new();
        bad.insert(0, 0, 1.0);
        bad.insert(3, 0, 1.0);
        assert!(matches!(d.apply(&bad), Err(MatrixError::IndexOutOfBounds { .. })));
        // The in-bounds half of the failed batch must not leak in.
        assert_eq!(d.pending_ops(), 0);
    }

    #[test]
    fn get_sees_overlay_before_compaction() {
        let mut d = DeltaCsr::new(base_3x3());
        let mut b = DeltaBatch::new();
        b.insert(0, 0, 9.0);
        b.delete(1, 2);
        d.apply(&b).unwrap();
        assert_eq!(d.get(0, 0), 9.0);
        assert_eq!(d.get(1, 2), 0.0);
        assert_eq!(d.get(2, 2), 4.0); // untouched base entry
        assert_eq!(d.base().get(0, 0), 0.0); // base unchanged until compact
    }

    #[test]
    fn compact_matches_eager_rebuild_simple() {
        let base = base_3x3();
        let mut b = DeltaBatch::new();
        b.insert(0, 0, 5.0); // new edge before existing (0,1)
        b.insert(1, 2, -1.0); // overwrite
        b.delete(2, 2); // delete existing
        b.delete(0, 2); // delete-of-absent: no-op
        let mut d = DeltaCsr::new(base.clone());
        d.apply(&b).unwrap();
        let compacted = d.compact().clone();
        let rebuilt = eager_rebuild(&base, std::slice::from_ref(&b));
        assert_byte_identical(&compacted, &rebuilt);
        assert!(!d.is_dirty());
    }

    #[test]
    fn compact_with_empty_overlay_is_identity() {
        let base = base_3x3();
        let mut d = DeltaCsr::new(base.clone());
        assert_byte_identical(d.compact(), &base);
    }

    #[test]
    fn stored_zero_insert_keeps_pattern_slot() {
        // Weight-0.0 inserts store an explicit zero, matching from_coo's
        // edge-list semantics (PR 3's CSC formulation treats pattern as
        // structure).
        let base = base_3x3();
        let mut b = DeltaBatch::new();
        b.insert(0, 0, 0.0);
        b.insert(1, 0, 0.0); // overwrite existing with explicit zero
        let mut d = DeltaCsr::new(base.clone());
        d.apply(&b).unwrap();
        let compacted = d.compact().clone();
        assert_eq!(compacted.nnz(), base.nnz() + 1);
        assert_eq!(compacted.row_indices(0), &[0, 1]);
        assert_eq!(compacted.get(1, 0), 0.0);
        let rebuilt = eager_rebuild(&base, std::slice::from_ref(&b));
        assert_byte_identical(&compacted, &rebuilt);
    }

    #[test]
    fn sequential_batches_match_one_eager_rebuild() {
        let base = base_3x3();
        let mut b1 = DeltaBatch::new();
        b1.insert(0, 2, 1.5);
        b1.delete(1, 0);
        let mut b2 = DeltaBatch::new();
        b2.insert(1, 0, 2.5); // resurrect the edge b1 deleted
        b2.delete(0, 2); // delete the edge b1 inserted
        let mut d = DeltaCsr::new(base.clone());
        d.apply(&b1).unwrap();
        d.compact();
        d.apply(&b2).unwrap();
        let compacted = d.compact().clone();
        let rebuilt = eager_rebuild(&base, &[b1, b2]);
        assert_byte_identical(&compacted, &rebuilt);
    }

    /// Random operation sequences for the round-trip proptests.  Roughly a
    /// quarter of the operations are deletes (including deletes of absent
    /// edges); the rest insert, some with weight collisions on the same
    /// `(row, col)` within and across batches.
    fn arb_batches(n: usize) -> impl Strategy<Value = Vec<DeltaBatch>> {
        let op = ((0..n, 0..n), (0usize..4, -4.0f64..4.0));
        let batch = proptest::collection::vec(op, 0..12).prop_map(|ops| {
            ops.into_iter()
                .map(|((r, c), (tag, w))| (r, c, (tag != 0).then_some(w)))
                .collect::<DeltaBatch>()
        });
        proptest::collection::vec(batch, 0..5)
    }

    proptest! {
        /// The tentpole property: lazy compaction over any batch sequence —
        /// duplicate edges, delete-of-absent, empty batches, stored zeros —
        /// is byte-identical to an eager rebuild from the final edge set.
        #[test]
        fn prop_compact_equals_eager_rebuild(
            (n, batches) in (2usize..8)
                .prop_flat_map(|n| (n..n + 1, arb_batches(n))),
            base_edges in
                proptest::collection::vec((0usize..8, 0usize..8, -4.0f64..4.0), 0..20),
        ) {
            let edges: Vec<_> =
                base_edges.into_iter().filter(|&(r, c, _)| r < n && c < n).collect();
            let coo = CooMatrix::from_triples(n, n, edges).unwrap();
            let base = CsrMatrix::from_coo(&coo);
            let mut d = DeltaCsr::new(base.clone());
            for b in &batches {
                d.apply(b).unwrap();
            }
            let compacted = d.compact().clone();
            let rebuilt = eager_rebuild(&base, &batches);
            prop_assert_eq!(compacted.indptr(), rebuilt.indptr());
            prop_assert_eq!(compacted.indices(), rebuilt.indices());
            let bits = crate::csr::oracle::bits;
            prop_assert_eq!(bits(&compacted), bits(&rebuilt));
        }

        /// Compacting after every batch gives the same final matrix as one
        /// compaction at the end (compaction points are unobservable).
        #[test]
        fn prop_compaction_points_unobservable(
            (n, batches) in (2usize..8)
                .prop_flat_map(|n| (n..n + 1, arb_batches(n))),
        ) {
            let base = CsrMatrix::identity(n);
            let mut eager = DeltaCsr::new(base.clone());
            let mut lazy = DeltaCsr::new(base);
            for b in &batches {
                eager.apply(b).unwrap();
                eager.compact();
                lazy.apply(b).unwrap();
            }
            let a = eager.compact().clone();
            let b = lazy.compact().clone();
            prop_assert_eq!(a.indptr(), b.indptr());
            prop_assert_eq!(a.indices(), b.indices());
            let bits = crate::csr::oracle::bits;
            prop_assert_eq!(bits(&a), bits(&b));
        }
    }
}
