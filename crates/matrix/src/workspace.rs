//! Reusable scratch memory for the SpGEMM and extraction kernels.
//!
//! On this class of workload the measurable wins come from *allocation and
//! work avoidance*, not thread count.  The dense accumulators, marker
//! arrays, staged output rows, column masks and per-row counts that every
//! SpGEMM / extraction call needs are collected into one [`SpgemmWorkspace`]
//! that is **reused across calls**: across layers of one bulk sampling
//! step, across minibatches and bulk groups of an epoch, and across epochs
//! for as long as sampling stays on one thread (a caller looping
//! `sample_epoch`, or a distributed rank alive for the whole run; a pipeline
//! that spawns a fresh sampling worker per epoch regrows the worker's
//! workspace once per epoch).
//!
//! **What stays resident.**  Each SpGEMM worker (one per row block) holds
//! 9 bytes per output column — an `f64` accumulator and a `bool` marker —
//! plus its `touched` list, and stages its block's output rows in grow-only
//! buffers before the kernel copies them out at their exact size: 16 bytes
//! per output nonzero and 8 per output row, up to the largest block's
//! output so far.  [`SpgemmWorkspace::nbytes`] counts all of it, so
//! [`trim_thread_workspace`] bounds it too.
//!
//! Two ways to get a workspace:
//!
//! * the `*_with` kernel variants ([`crate::spgemm::spgemm_parallel_with`],
//!   [`crate::extract::extract_columns_masked_with`],
//!   [`crate::extract::extract_submatrix_with`]) take an explicit
//!   `&mut SpgemmWorkspace` the caller owns;
//! * [`with_workspace`] borrows a **thread-local** workspace (the common
//!   case), so the plain entry points (`spgemm_parallel`, `extract_rows`,
//!   `extract_columns_masked`) stop paying per-call allocation without any
//!   caller cooperation.  The samplers use it too: every sampling path
//!   runs on the thread-local workspace, and a long-lived thread that must
//!   bound its resident scratch can call [`trim_thread_workspace`] between
//!   calls.
//!
//! It also holds a bitmap over the global columns, lent out as a
//! [`ColumnSet`]: the samplers' extraction steps number the columns a batch
//! touches with it instead of allocating an `n`-sized remap per batch.
//!
//! The workspace never changes *what* a kernel computes — every kernel
//! restores its scratch invariants (accumulators zeroed, markers cleared)
//! before returning, and the column mask uses generation stamps so stale
//! entries from a previous call can never be misread.  Byte-identity of the
//! workspace-backed kernels is pinned by the proptests in
//! `crate::spgemm` and `crate::extract`.

use crate::error::MatrixError;
use crate::Result;
use std::cell::RefCell;

/// Per-worker scratch of the Gustavson SpGEMM kernel: one instance per
/// parallel row block, reused across calls.
///
/// Invariant between uses: `accum` is all-zero, `marked` is all-`false` and
/// `touched` is empty — the kernel resets exactly the entries it touched.
/// The `staged_*` buffers hold the worker's last block of output rows; each
/// call clears them and they only grow.
#[derive(Debug, Default)]
pub(crate) struct WorkerScratch {
    /// Dense value accumulator, grown to the output column count.
    pub(crate) accum: Vec<f64>,
    /// Dense occupancy markers, grown alongside `accum`.
    pub(crate) marked: Vec<bool>,
    /// The columns touched while accumulating the current row.
    pub(crate) touched: Vec<usize>,
    /// Column indices of the block's output rows, in row order.
    pub(crate) staged_indices: Vec<usize>,
    /// Values matching `staged_indices`.
    pub(crate) staged_values: Vec<f64>,
    /// The end of each of the block's rows within `staged_indices`.
    pub(crate) staged_ends: Vec<usize>,
}

impl WorkerScratch {
    /// Grows the dense accumulator and marker array to at least `cols`
    /// entries.  Growth preserves the all-zero / all-`false` invariant.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if the memory for `cols`
    /// columns cannot be allocated; the scratch keeps its contents and its
    /// invariant.
    pub(crate) fn ensure_cols(&mut self, cols: usize) -> Result<()> {
        let more = cols.saturating_sub(self.accum.len());
        if more > 0 {
            let reserved = self.accum.try_reserve_exact(more);
            if reserved.and_then(|()| self.marked.try_reserve_exact(more)).is_err() {
                return Err(MatrixError::InvalidStructure(format!(
                    "cannot allocate SpGEMM scratch for {cols} output columns"
                )));
            }
            self.accum.resize(cols, 0.0);
            self.marked.resize(cols, false);
        }
        Ok(())
    }
}

/// Reusable scratch for the SpGEMM and extraction kernels: per-worker dense
/// accumulators, marker arrays and staged output rows, the per-row count
/// buffer of the extraction kernels, and the stamped column mask of the
/// masked column filter.
///
/// A workspace is cheap to create empty and grows lazily to the largest
/// problem it has seen; [`SpgemmWorkspace::clear`] releases the memory.  It
/// is *not* shared between threads — each thread that runs kernels holds its
/// own (see [`with_workspace`]).
///
/// # Example
///
/// ```
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::spgemm::{spgemm_parallel, spgemm_parallel_with};
/// use dmbs_matrix::workspace::SpgemmWorkspace;
/// use dmbs_matrix::CsrMatrix;
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::identity(8);
/// let mut ws = SpgemmWorkspace::new();
/// // Explicit workspace: scratch is reused across both calls.
/// let c1 = spgemm_parallel_with(&a, &a, Parallelism::new(2), &mut ws)?;
/// let c2 = spgemm_parallel_with(&a, &a, Parallelism::new(2), &mut ws)?;
/// // The workspace never changes results.
/// assert_eq!(c1, spgemm_parallel(&a, &a, Parallelism::new(2))?);
/// assert_eq!(c1, c2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct SpgemmWorkspace {
    /// One scratch set per parallel row block.
    pub(crate) workers: Vec<WorkerScratch>,
    /// Per-row output-nnz counts of the extraction kernels.
    pub(crate) counts: Vec<usize>,
    /// Column mask: `mask_pos[c]` is the output position of global column
    /// `c`, valid only when `mask_stamp[c] == mask_gen`.
    pub(crate) mask_pos: Vec<usize>,
    /// Generation stamps validating `mask_pos` entries.
    pub(crate) mask_stamp: Vec<u64>,
    /// Current mask generation; bumped per masked-extraction call so the
    /// mask never needs an `O(n)` clear.
    pub(crate) mask_gen: u64,
    /// Per-row `(output column, value)` staging buffer.
    pub(crate) row_buf: Vec<(usize, f64)>,
    /// `(global column, output position)` pairs, sorted, for selections with
    /// duplicate columns.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Bitmap over global columns: the members of the current
    /// [`ColumnSet`] (one bit per column).
    pub(crate) marks: Vec<u64>,
    /// `ranks[c]` is the rank of member column `c` of the current
    /// [`ColumnSet`], valid only where its bit in `marks` is set.
    pub(crate) ranks: Vec<usize>,
}

impl SpgemmWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        SpgemmWorkspace::default()
    }

    /// Releases all scratch memory (the workspace stays usable and will
    /// regrow on demand).
    pub fn clear(&mut self) {
        *self = SpgemmWorkspace { mask_gen: self.mask_gen, ..SpgemmWorkspace::default() };
    }

    /// Approximate number of bytes currently held by the scratch buffers.
    pub fn nbytes(&self) -> usize {
        let per_worker = |w: &WorkerScratch| {
            w.accum.capacity() * std::mem::size_of::<f64>()
                + w.marked.capacity()
                + w.touched.capacity() * std::mem::size_of::<usize>()
                + w.staged_indices.capacity() * std::mem::size_of::<usize>()
                + w.staged_values.capacity() * std::mem::size_of::<f64>()
                + w.staged_ends.capacity() * std::mem::size_of::<usize>()
        };
        self.workers.iter().map(per_worker).sum::<usize>()
            + self.counts.capacity() * std::mem::size_of::<usize>()
            + self.mask_pos.capacity() * std::mem::size_of::<usize>()
            + self.mask_stamp.capacity() * std::mem::size_of::<u64>()
            + self.row_buf.capacity() * std::mem::size_of::<(usize, f64)>()
            + self.pairs.capacity() * std::mem::size_of::<(usize, usize)>()
            + self.marks.capacity() * std::mem::size_of::<u64>()
            + self.ranks.capacity() * std::mem::size_of::<usize>()
    }

    /// Releases the scratch buffers if they currently hold more than
    /// `byte_bound` bytes, returning whether a trim happened.  This is the
    /// long-lived-thread counterpart of [`SpgemmWorkspace::clear`]: a serving
    /// thread that reuses its workspace across micro-bulks calls this between
    /// bulks so one oversized request cannot pin peak-sized scratch for the
    /// rest of the process, while steady-state requests below the bound keep
    /// full reuse.
    pub fn shrink_if_larger(&mut self, byte_bound: usize) -> bool {
        if self.nbytes() > byte_bound {
            self.clear();
            true
        } else {
            false
        }
    }

    /// Starts a new column-mask generation over `n` global columns and
    /// returns the stamp value that marks entries of this generation.
    pub(crate) fn begin_mask(&mut self, n: usize) -> u64 {
        if self.mask_stamp.len() < n {
            self.mask_stamp.resize(n, 0);
            self.mask_pos.resize(n, 0);
        }
        self.mask_gen += 1;
        self.mask_gen
    }

    /// An empty set of columns of `0..n`, held in this workspace's column
    /// bitmap: building and numbering it allocates nothing `n`-sized once
    /// the workspace has grown to `n` columns.
    pub fn column_set(&mut self, n: usize) -> ColumnSet<'_> {
        column_set_in(&mut self.marks, &mut self.ranks, n)
    }
}

/// [`SpgemmWorkspace::column_set`] on the two buffers it needs, so a kernel
/// can hold the set beside other scratch of the same workspace.
pub(crate) fn column_set_in<'w>(
    marks: &'w mut Vec<u64>,
    ranks: &'w mut Vec<usize>,
    n: usize,
) -> ColumnSet<'w> {
    let words = n.div_ceil(64);
    if marks.len() < words {
        marks.resize(words, 0);
    }
    if ranks.len() < n {
        ranks.resize(n, 0);
    }
    let marks = &mut marks[..words];
    marks.fill(0);
    ColumnSet { marks, ranks: &mut ranks[..n], n }
}

/// A set of global columns `0..n` on a workspace's column bitmap (see
/// [`SpgemmWorkspace::column_set`]).  Columns go in in any order, with
/// repeats; [`ColumnSet::into_ranks`] lists the members ascending and
/// numbers them `0..len`, which is how an extraction step drops the empty
/// columns of a block without a remap the size of the graph.
///
/// # Example
///
/// ```
/// use dmbs_matrix::workspace::SpgemmWorkspace;
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let mut ws = SpgemmWorkspace::new();
/// let mut set = ws.column_set(100);
/// for c in [70, 3, 70, 41] {
///     set.insert(c)?;
/// }
/// assert!(set.insert(100).is_err());
/// let (members, ranks) = set.into_ranks();
/// assert_eq!(members, vec![3, 41, 70]);
/// assert_eq!((ranks.rank(41), ranks.rank(42)), (Some(1), None));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ColumnSet<'w> {
    marks: &'w mut [u64],
    ranks: &'w mut [usize],
    n: usize,
}

impl<'w> ColumnSet<'w> {
    /// Adds column `c` (adding a member again is a no-op).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if `c >= n`.
    #[inline]
    pub fn insert(&mut self, c: usize) -> Result<()> {
        if c >= self.n {
            return Err(MatrixError::IndexOutOfBounds { row: 0, col: c, rows: 1, cols: self.n });
        }
        self.marks[c / 64] |= 1 << (c % 64);
        Ok(())
    }

    /// Adds column `c` and ranks it `rank` directly, for a caller that
    /// already knows the order (a sorted selection ranks each column by
    /// its position).
    pub(crate) fn insert_ranked(&mut self, c: usize, rank: usize) -> Result<()> {
        self.insert(c)?;
        self.ranks[c] = rank;
        Ok(())
    }

    /// The ranks given by [`ColumnSet::insert_ranked`], without numbering
    /// the members.
    pub(crate) fn into_inserted_ranks(self) -> ColumnRanks<'w> {
        ColumnRanks { marks: self.marks, ranks: self.ranks }
    }

    /// The members in ascending order (an exactly sized vector), and the
    /// rank of each member among them.
    pub fn into_ranks(self) -> (Vec<usize>, ColumnRanks<'w>) {
        let len = self.marks.iter().map(|w| w.count_ones() as usize).sum();
        let mut members = Vec::with_capacity(len);
        for (w, &word) in self.marks.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let c = w * 64 + bits.trailing_zeros() as usize;
                self.ranks[c] = members.len();
                members.push(c);
                bits &= bits - 1;
            }
        }
        (members, ColumnRanks { marks: self.marks, ranks: self.ranks })
    }
}

/// The ranks of a [`ColumnSet`]'s members, from [`ColumnSet::into_ranks`].
#[derive(Debug)]
pub struct ColumnRanks<'w> {
    pub(crate) marks: &'w [u64],
    pub(crate) ranks: &'w [usize],
}

impl ColumnRanks<'_> {
    /// The rank of column `c` among the members, or `None` if `c` is not
    /// one.
    #[inline]
    pub fn rank(&self, c: usize) -> Option<usize> {
        let member = self.marks.get(c / 64).is_some_and(|w| w >> (c % 64) & 1 != 0);
        member.then(|| self.ranks[c])
    }
}

thread_local! {
    static THREAD_WORKSPACE: RefCell<SpgemmWorkspace> = RefCell::new(SpgemmWorkspace::new());
}

/// Runs `f` with this thread's long-lived scratch workspace, so scratch
/// allocated by one call is reused by the next — across sampling layers,
/// minibatches and epochs on the same thread.
///
/// Re-entrant use (calling `with_workspace` while already inside it on the
/// same thread) falls back to a fresh workspace rather than aliasing the
/// borrowed one.
///
/// # Example
///
/// ```
/// use dmbs_matrix::workspace::with_workspace;
///
/// let grew = with_workspace(|ws| {
///     // Kernels grow the workspace; it persists for this thread.
///     ws.nbytes()
/// });
/// assert!(grew == with_workspace(|ws| ws.nbytes()));
/// ```
pub fn with_workspace<R>(f: impl FnOnce(&mut SpgemmWorkspace) -> R) -> R {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        // Re-entrant call: never alias the outer borrow.
        Err(_) => f(&mut SpgemmWorkspace::new()),
    })
}

/// Applies [`SpgemmWorkspace::shrink_if_larger`] to this thread's long-lived
/// workspace and returns the bytes it holds afterwards.  Callers that go
/// through the plain kernel entry points (and therefore never see the
/// thread-local workspace directly) use this to bound resident scratch on a
/// long-lived thread.
pub fn trim_thread_workspace(byte_bound: usize) -> usize {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => {
            ws.shrink_if_larger(byte_bound);
            ws.nbytes()
        }
        // Re-entrant call: the workspace is in use further up this thread's
        // stack; leave it alone.
        Err(_) => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_grows_and_clears() {
        let mut ws = SpgemmWorkspace::new();
        assert_eq!(ws.nbytes(), 0);
        ws.workers.resize_with(3, WorkerScratch::default);
        for w in &mut ws.workers {
            w.ensure_cols(64).unwrap();
            assert!(w.accum.len() >= 64);
            assert!(w.marked.len() >= 64);
            // Growth never shrinks.
            w.ensure_cols(8).unwrap();
            assert!(w.accum.len() >= 64);
        }
        assert!(ws.nbytes() > 0);
        ws.clear();
        assert_eq!(ws.nbytes(), 0);
    }

    #[test]
    fn shrink_respects_the_byte_bound() {
        let mut ws = SpgemmWorkspace::new();
        ws.counts.resize(1024, 0);
        let held = ws.nbytes();
        assert!(held > 0);
        // Under the bound: untouched.
        assert!(!ws.shrink_if_larger(held));
        assert_eq!(ws.nbytes(), held);
        // Over the bound: released.
        assert!(ws.shrink_if_larger(held - 1));
        assert_eq!(ws.nbytes(), 0);
        // Trimming preserves mask-generation monotonicity (stale mask
        // entries must stay invalid after a trim).
        let g1 = ws.begin_mask(4);
        ws.counts.resize(1024, 0);
        ws.shrink_if_larger(0);
        let g2 = ws.begin_mask(4);
        assert!(g2 > g1);
    }

    #[test]
    fn thread_workspace_trims_past_the_bound() {
        with_workspace(|ws| ws.counts.resize(4096, 0));
        let held = with_workspace(|ws| ws.nbytes());
        assert!(held > 0);
        // A generous bound leaves the scratch resident…
        assert_eq!(trim_thread_workspace(usize::MAX), held);
        // …and a zero bound releases it.
        assert_eq!(trim_thread_workspace(0), 0);
        assert_eq!(with_workspace(|ws| ws.nbytes()), 0);
        // A product's staged output rows are counted, and released too.
        let a = crate::CsrMatrix::identity(64);
        crate::spgemm::spgemm(&a, &a).unwrap();
        let (held, staged) = with_workspace(|ws| {
            let w = &ws.workers[0];
            let word = std::mem::size_of::<usize>();
            let staged = (w.staged_indices.capacity() + w.staged_ends.capacity()) * word
                + w.staged_values.capacity() * std::mem::size_of::<f64>();
            (ws.nbytes(), staged)
        });
        assert!(staged >= 64 * 24, "64 rows of one nonzero each were staged");
        assert!(held >= staged + 64 * 9, "the accumulator and markers are counted too");
        assert_eq!(trim_thread_workspace(0), 0);
        assert_eq!(with_workspace(|ws| ws.nbytes()), 0);
    }

    #[test]
    fn mask_generations_invalidate_old_entries() {
        let mut ws = SpgemmWorkspace::new();
        let g1 = ws.begin_mask(10);
        ws.mask_stamp[3] = g1;
        ws.mask_pos[3] = 7;
        let g2 = ws.begin_mask(10);
        assert_ne!(g1, g2);
        // The old entry no longer matches the current generation.
        assert_ne!(ws.mask_stamp[3], g2);
    }

    #[test]
    fn column_sets_start_empty_whatever_the_last_one_held() {
        let mut ws = SpgemmWorkspace::new();
        let mut set = ws.column_set(200);
        for c in (0..200).step_by(7) {
            set.insert(c).unwrap();
        }
        // Left without being ranked: the next set must not see its bits.
        for n in [200, 65, 64, 1] {
            let mut set = ws.column_set(n);
            set.insert(n - 1).unwrap();
            set.insert(0).unwrap();
            assert!(set.insert(n).is_err());
            let (members, ranks) = set.into_ranks();
            assert_eq!(members, if n == 1 { vec![0] } else { vec![0, n - 1] });
            assert_eq!(ranks.rank(n - 1), Some(members.len() - 1));
            assert_eq!(ranks.rank(n), None);
            assert_eq!(ranks.rank(usize::MAX), None);
        }
        assert!(ws.nbytes() >= 200 * std::mem::size_of::<usize>());
        ws.clear();
        assert_eq!(ws.nbytes(), 0);
    }

    #[test]
    fn with_workspace_reuses_thread_local() {
        let before = with_workspace(|ws| {
            ws.counts.resize(128, 0);
            ws.nbytes()
        });
        let after = with_workspace(|ws| ws.nbytes());
        assert_eq!(before, after);
    }

    #[test]
    fn with_workspace_is_reentrant_safe() {
        let v = with_workspace(|outer| {
            outer.counts.resize(4, 0);
            with_workspace(|inner| inner.nbytes())
        });
        // The inner call fell back to a fresh workspace.
        assert_eq!(v, 0);
    }
}
