//! Shared-memory worker pool for the bulk matrix kernels.
//!
//! The paper's thesis is that minibatch sampling reduces to bulk sparse
//! matrix kernels (`P ← Q^l · A`, per-row ITS), which are embarrassingly
//! parallel over output rows.  This module provides the row-blocking
//! machinery those kernels share: a [`Parallelism`] knob carried through
//! sampler/backend configuration, balanced contiguous [`block_ranges`],
//! [`Parallelism::map_blocks`], a scoped fork-join over the vendored
//! `crossbeam::thread::scope`, and its in-place twin
//! [`Parallelism::for_each_row_block`] for kernels that write disjoint rows
//! of one output buffer (the SpMM and the dense products).
//!
//! Every parallel kernel in the workspace is **deterministic**: work is
//! split into contiguous row blocks whose per-row computation is independent
//! of the split, so output is byte-identical at any thread count (see the
//! determinism tests in `spgemm`, `spmm`, `dense` and `dmbs-sampling::its`).

use serde::{Deserialize, Serialize};
use std::num::NonZeroUsize;
use std::ops::Range;

/// Degree of shared-memory parallelism used by the bulk kernels.
///
/// A value of `1` (the default) keeps every kernel on the calling thread.
/// The knob travels inside
/// `BulkSamplerConfig`/`DistConfig`/`TrainingSession` so a single setting
/// parallelizes SpGEMM, SpMM and per-row ITS across all sampling backends.
///
/// # Example
///
/// ```
/// use dmbs_matrix::pool::Parallelism;
///
/// let par = Parallelism::new(4);
/// assert_eq!(par.threads(), 4);
/// // Zero is clamped: "no threads" means serial, never "no work".
/// assert_eq!(Parallelism::new(0), Parallelism::serial());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Parallelism {
    threads: usize,
}

impl Parallelism {
    /// A parallelism of `threads` worker threads; `0` is clamped to `1`.
    pub fn new(threads: usize) -> Self {
        Parallelism { threads: threads.max(1) }
    }

    /// Serial execution (one thread, no pool).
    pub fn serial() -> Self {
        Parallelism { threads: 1 }
    }

    /// One worker per hardware thread reported by the OS (falls back to
    /// serial when the count is unavailable).
    pub fn available() -> Self {
        Parallelism::new(std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1))
    }

    /// The configured worker count (always at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of blocks `items` work items are actually split into:
    /// never more than the thread count, never more than the items.
    pub fn effective_blocks(&self, items: usize) -> usize {
        self.threads.min(items).max(1)
    }

    /// Runs `f` over balanced contiguous blocks of `0..items`, one scoped
    /// worker thread per block, and returns the per-block results in block
    /// order.  With one effective block, `f` runs on the calling thread;
    /// with zero items no block is produced and the result is empty.
    ///
    /// Determinism: the blocks partition `0..items` in order, so any `f`
    /// whose per-item work is independent of the split yields results that
    /// concatenate identically at every thread count.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f` (the scope joins every worker first).
    pub fn map_blocks<T, F>(&self, items: usize, f: F) -> Vec<T>
    where
        F: Fn(Range<usize>) -> T + Sync,
        T: Send,
    {
        let blocks = block_ranges(items, self.effective_blocks(items));
        if blocks.len() <= 1 {
            return blocks.into_iter().map(&f).collect();
        }
        let results = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> =
                blocks.into_iter().map(|range| scope.spawn(|| f(range))).collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(value) => value,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect::<Vec<T>>()
        });
        match results {
            Ok(results) => results,
            // A worker panic was caught by the scope: re-raise it on the
            // calling thread so parallel and serial panics look identical.
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }

    /// Runs `f(rows, block)` over balanced contiguous row blocks of the
    /// row-major buffer `data` (rows of `row_len` values), one scoped worker
    /// per block, where `block` is the mutable slice holding exactly those
    /// rows.  Every block starts on a multiple of `granule` rows and every
    /// block but the last ends on one, so a kernel that tiles rows by
    /// `granule` sees the same tiles at every thread count.  With one
    /// effective block, `f` runs on the calling thread; an empty buffer runs
    /// nothing.
    ///
    /// This is [`Parallelism::map_blocks`] for kernels that write their
    /// result in place: blocks are split as there (over `granule`-row
    /// groups) and each worker owns a disjoint part of the output.
    ///
    /// # Panics
    ///
    /// Propagates a panic from `f`.
    pub fn for_each_row_block<T, F>(&self, data: &mut [T], row_len: usize, granule: usize, f: F)
    where
        T: Send,
        F: Fn(Range<usize>, &mut [T]) + Sync,
    {
        if row_len == 0 || data.is_empty() {
            return;
        }
        let rows = data.len() / row_len;
        let granule = granule.max(1);
        let groups = rows.div_ceil(granule);
        let blocks = self.effective_blocks(groups);
        if blocks <= 1 {
            return f(0..rows, data);
        }
        let fill = crossbeam::thread::scope(|scope| {
            let mut tail = data;
            let mut handles = Vec::with_capacity(blocks);
            for groups in block_ranges(groups, blocks) {
                let range = groups.start * granule..(groups.end * granule).min(rows);
                let (head, rest) = std::mem::take(&mut tail).split_at_mut(range.len() * row_len);
                tail = rest;
                let f = &f;
                handles.push(scope.spawn(move || f(range, head)));
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
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::serial()
    }
}

/// Splits `0..items` into (up to) `blocks` contiguous ranges whose lengths
/// differ by at most one, in ascending order.  Empty ranges are never
/// produced; fewer than `blocks` ranges are returned when `items < blocks`.
///
/// # Example
///
/// ```
/// let blocks = dmbs_matrix::pool::block_ranges(10, 4);
/// assert_eq!(blocks, vec![0..3, 3..6, 6..8, 8..10]);
/// ```
pub fn block_ranges(items: usize, blocks: usize) -> Vec<Range<usize>> {
    let blocks = blocks.min(items);
    (0..blocks).map(|b| block_range(items, blocks, b)).collect()
}

/// Block `b` of [`block_ranges`]`(items, blocks)`, without building the
/// list (`blocks` must be at least one and at most `max(items, 1)`).
pub(crate) fn block_range(items: usize, blocks: usize, b: usize) -> Range<usize> {
    let (base, remainder) = (items / blocks, items % blocks);
    let start = b * base + b.min(remainder);
    start..start + base + usize::from(b < remainder)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_clamps_and_reports() {
        assert_eq!(Parallelism::new(0).threads(), 1);
        assert_eq!(Parallelism::new(8).threads(), 8);
        assert_eq!(Parallelism::serial().threads(), 1);
        assert_eq!(Parallelism::default(), Parallelism::serial());
        assert!(Parallelism::available().threads() >= 1);
        assert_eq!(Parallelism::new(8).effective_blocks(3), 3);
        assert_eq!(Parallelism::new(2).effective_blocks(100), 2);
        assert_eq!(Parallelism::new(4).effective_blocks(0), 1);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for items in [0usize, 1, 2, 7, 10, 64, 101] {
            for blocks in [1usize, 2, 3, 8, 200] {
                let ranges = block_ranges(items, blocks);
                // Covers 0..items contiguously and in order.
                let mut expect = 0;
                for r in &ranges {
                    assert_eq!(r.start, expect);
                    assert!(!r.is_empty());
                    expect = r.end;
                }
                assert_eq!(expect, items);
                // Balanced to within one item.
                if let (Some(min), Some(max)) =
                    (ranges.iter().map(|r| r.len()).min(), ranges.iter().map(|r| r.len()).max())
                {
                    assert!(max - min <= 1);
                }
            }
        }
    }

    #[test]
    fn map_blocks_preserves_block_order() {
        for threads in [1usize, 2, 3, 8] {
            let par = Parallelism::new(threads);
            let sums = par.map_blocks(100, |range| range.sum::<usize>());
            assert_eq!(sums.len(), par.effective_blocks(100));
            assert_eq!(sums.iter().sum::<usize>(), (0..100).sum::<usize>());
            // Concatenating per-block item results is split-invariant.
            let items: Vec<Vec<usize>> = par.map_blocks(17, |r| r.map(|i| i * i).collect());
            let flat: Vec<usize> = items.into_iter().flatten().collect();
            assert_eq!(flat, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn row_blocks_cover_the_buffer_on_granule_boundaries() {
        for threads in [1usize, 2, 3, 8] {
            for rows in [0usize, 1, 5, 17, 40] {
                let mut data = vec![usize::MAX; rows * 3];
                let starts = std::sync::Mutex::new(Vec::new());
                Parallelism::new(threads).for_each_row_block(&mut data, 3, 4, |range, block| {
                    assert_eq!(block.len(), range.len() * 3);
                    starts.lock().unwrap().push(range.start);
                    for (r, row) in range.zip(block.chunks_exact_mut(3)) {
                        row.fill(r);
                    }
                });
                let want: Vec<usize> = (0..rows).flat_map(|r| [r; 3]).collect();
                assert_eq!(data, want, "{rows} rows on {threads} threads");
                assert!(starts.into_inner().unwrap().iter().all(|s| s % 4 == 0));
            }
        }
    }

    #[test]
    fn map_blocks_handles_empty_input() {
        let out = Parallelism::new(4).map_blocks(0, |r| r.len());
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn map_blocks_propagates_worker_panics() {
        Parallelism::new(2).map_blocks(10, |r| {
            if r.start > 0 {
                panic!("boom");
            }
            r.len()
        });
    }
}
