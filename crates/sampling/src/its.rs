//! Distribution sampling kernels.
//!
//! All GNN sampling algorithms reduce to drawing `s` elements from discrete
//! probability distributions (§2.3).  The paper uses **inverse transform
//! sampling (ITS)**: a prefix sum over the probability row followed by binary
//! searches of uniform random numbers (§4.1.2, §4.2.2).
//!
//! # Drawing `s` distinct positions: lazy-rescan ITS
//!
//! Sampling *without* replacement means successive sampling: each draw picks
//! position `i` with probability `w_i / (W − taken mass)` among the positions
//! not yet taken.  The literal reading zeroes the pick and rebuilds the whole
//! prefix sum before every draw, `O(s · nnz)` per row.  This module scans the
//! row's positive-weight support **once**, draws by binary search on that
//! scan, and **rejects** a hit on an already-taken position:
//!
//! * *Rejection preserves the law.*  A draw from the stale scan lands on
//!   position `i` with probability `w_i / W`; discarding the draws that land
//!   on taken positions conditions on the untaken set, which leaves
//!   `w_i / (W − taken mass)`, exactly what zero-and-rescan samples from.
//! * *Acceptance stays ≥ ½.*  As soon as the taken mass exceeds half of the
//!   scan's total, the untaken positions are compacted and rescanned.  A draw
//!   is therefore accepted with probability at least ½ (two binary searches
//!   per pick in expectation, at worst), and a rescan only ever follows an
//!   accepted draw: never more rescans than draws, so no row does more scan
//!   work than zero-and-rescan did, and a typical row does exactly one scan.
//!
//! The scan holds only positions of positive weight and the search compares
//! strictly (`scan[i] > target`), so a zero-weight position is unreachable
//! even when the uniform variate is exactly `0.0`.  The zero-and-rescan
//! formulation survives as the `#[cfg(test)]` oracle: both kernels are held to
//! the exact successive-sampling inclusion probabilities by a chi-square
//! test.
//!
//! # Drawing from rows where they live
//!
//! The samplers draw from rows of `A` (GraphSAGE) or of the LADIES product
//! `Q·A`, read in place: no probability matrix `P` is copied out and
//! normalised first.  The row's `NORM` law (`RowLaw`) is applied inside
//! the prefix scan, with the operations of the pass it replaces, so the
//! picks are bit-identical to the materialised formulation, which the tests
//! keep as the oracle.  A row whose weights are all positive — every row of
//! an unweighted graph — is scanned over its own positions: no `live` list
//! is built until a rescan needs one, and the `taken` flags are reset
//! through the picks, `O(s)` per row instead of `O(deg)`.
//!
//! # Unit rows: one scan per length
//!
//! When every stored value of the matrix is exactly `1.0` — the adjacency of
//! an unweighted graph, [`CsrMatrix::is_unit_valued`] — `Σx = Σx² = len`
//! holds exactly, so under both normalising laws every weight of a row is
//! `1.0 / len` and its prefix scan depends on its length alone.  Each
//! distinct length's scan is built once per call and every row of that
//! length draws from it without being read: at most Σ(distinct lengths) ≤
//! nnz(rows drawn) scan work, never more than scanning row by row.  A
//! rescan over `m` live positions needs no work either: constant weights
//! over `m` positions sum to the table's first `m` entries.  The search
//! starts where the target's share of the total falls and walks to the
//! first entry strictly above the target, which is exactly what the binary
//! search returns, in a load or two.

use crate::error::SamplingError;
use crate::Result;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// How a row's stored values become its draw weights: the `NORM` step of
/// Algorithm 1, applied inside the draw's prefix scan instead of as a pass
/// of its own, with the same operations in the same order as the pass it
/// replaces — so the picks are bit-identical to normalising first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RowLaw {
    /// The stored values themselves ([`sample_rows_par`]).
    Raw,
    /// `x / Σx`, as [`CsrMatrix::normalize_rows`] computes it: GraphSAGE's
    /// uniform law over a neighbourhood.
    Normalized,
    /// `x² / Σx²`, as squaring every value and then `normalize_rows`
    /// computes it: LADIES' law over an aggregated neighbourhood.
    SquaredNormalized,
}

/// The buffers of one lazy-rescan draw, reused across the rows of a block so
/// the kernel allocates nothing per row once they have grown.
#[derive(Debug, Default)]
struct DrawScratch {
    /// Inclusive prefix sum of the live positions' weights.
    scan: Vec<f64>,
    /// The position in the weight row behind each scan entry, once the row
    /// is not scanned over its own positions.
    live: Vec<usize>,
    /// Whether each position of the row has been picked; all `false`
    /// between draws (a draw resets the entries it set through `picked`).
    taken: Vec<bool>,
    /// The picked positions; sorted ascending when `draw` returns.
    picked: Vec<usize>,
}

/// The prefix scans of unit rows, one per row length.  On a row whose stored
/// values are all exactly `1.0`, `Σx = Σx² = len` holds exactly, so under
/// [`RowLaw::Normalized`] and [`RowLaw::SquaredNormalized`] every weight is
/// `1.0 / len` and the row's scan depends on its length alone.
#[derive(Debug, Default)]
struct UnitScans {
    /// `start[len]` is one past where length `len`'s scan begins in `scans`;
    /// `0` while it is not built.
    start: Vec<usize>,
    /// The built scans, back to back.
    scans: Vec<f64>,
}

impl UnitScans {
    /// Forgets every scan, keeping the buffers.
    fn clear(&mut self) {
        self.start.clear();
        self.scans.clear();
    }

    /// The scan of a unit row of `len` positions: `1.0 / len` added `len`
    /// times in order, bit for bit what scanning the normalised row adds.
    /// Built on the first request for `len`, so a table never holds more
    /// entries than the rows it served.
    fn get(&mut self, len: usize) -> &[f64] {
        if self.start.len() <= len {
            self.start.resize(len + 1, 0);
        }
        if self.start[len] == 0 {
            self.start[len] = self.scans.len() + 1;
            let (weight, mut acc) = (1.0 / len as f64, 0.0);
            self.scans.extend((0..len).map(|_| {
                acc += weight;
                acc
            }));
        }
        let begin = self.start[len] - 1;
        &self.scans[begin..begin + len]
    }
}

/// Where a draw's prefix scan comes from.
enum Scan<'t, W> {
    /// The row's own, in [`DrawScratch::scan`], rebuilt from the weights at
    /// every rescan.
    Own(W),
    /// A unit row's length's [`UnitScans`] entry.  Constant weights over `m`
    /// live positions sum to the entry's first `m` values, so after a
    /// rescan the live scan is that prefix: nothing is rebuilt.
    Unit(&'t [f64]),
}

impl DrawScratch {
    /// [`DrawScratch::draw`] over one stored row whose weights `law` derives
    /// from `values`.
    fn draw_row<R: Rng + ?Sized>(
        &mut self,
        values: &[f64],
        law: RowLaw,
        s: usize,
        rng: &mut R,
    ) -> Result<()> {
        let len = values.len();
        // A row summing to zero is left as it is, as `normalize_rows` does.
        match law {
            RowLaw::Raw => self.draw(len, |pos| values[pos], s, rng),
            RowLaw::Normalized => {
                let sum: f64 = values.iter().sum();
                if sum != 0.0 {
                    self.draw(len, |pos| values[pos] / sum, s, rng)
                } else {
                    self.draw(len, |pos| values[pos], s, rng)
                }
            }
            RowLaw::SquaredNormalized => {
                let sum: f64 = values.iter().map(|v| v * v).sum();
                if sum != 0.0 {
                    self.draw(len, |pos| values[pos] * values[pos] / sum, s, rng)
                } else {
                    self.draw(len, |pos| values[pos] * values[pos], s, rng)
                }
            }
        }
    }

    /// [`DrawScratch::draw_row`] over a unit row of `len` positions under
    /// [`RowLaw::Normalized`] or [`RowLaw::SquaredNormalized`], without
    /// reading it: every weight is `1.0 / len`, so the row is drawn from its
    /// length's scan in `tables` and the picks are the same.
    fn draw_unit<R: Rng + ?Sized>(
        &mut self,
        len: usize,
        tables: &mut UnitScans,
        s: usize,
        rng: &mut R,
    ) -> Result<()> {
        self.picked.clear();
        if len <= s {
            self.picked.extend(0..len);
            return Ok(());
        }
        self.grow_taken(len);
        self.draw_from(Scan::<fn(usize) -> f64>::Unit(tables.get(len)), true, s, rng)
    }

    /// Draws `min(s, support)` distinct positions of a row of `len` weights,
    /// `weight(pos)` each, by successive sampling and leaves them, sorted
    /// ascending, in `self.picked`.  The support is the positive-weight
    /// positions, or every position (taken uniformly) when no weight is
    /// positive.
    ///
    /// A row longer than `s` whose weights are all positive — every row of
    /// an unweighted graph — is scanned over its own positions: no `live`
    /// list is built unless a rescan needs one, and the first rescan hands
    /// over to exactly the state the filtered path would have reached.
    fn draw<R, W>(&mut self, len: usize, weight: W, s: usize, rng: &mut R) -> Result<()>
    where
        R: Rng + ?Sized,
        W: Fn(usize) -> f64,
    {
        self.picked.clear();
        self.grow_taken(len);
        // Whether scan entry `i` is position `i` (no `live` list yet).
        let in_place = len > s && self.scan_in_place(len, &weight)?;
        let mut uniform = false;
        if !in_place {
            self.live.clear();
            self.live.extend((0..len).filter(|&pos| weight(pos) > 0.0));
            uniform = self.live.is_empty();
            if uniform {
                self.live.extend(0..len);
            }
            if self.live.len() <= s {
                self.picked.extend_from_slice(&self.live);
                return Ok(());
            }
        }
        let weight = |pos: usize| if uniform { 1.0 } else { weight(pos) };
        if !in_place {
            self.rescan(weight)?;
        }
        self.draw_from(Scan::Own(weight), in_place, s, rng)
    }

    /// The draw loop over a prepared scan of more than `s` live positions —
    /// the row's own or a unit table — where `in_place` says whether scan
    /// entry `i` is position `i` (no `live` list yet).
    fn draw_from<R, W>(
        &mut self,
        source: Scan<'_, W>,
        mut in_place: bool,
        s: usize,
        rng: &mut R,
    ) -> Result<()>
    where
        R: Rng + ?Sized,
        W: Fn(usize) -> f64,
    {
        // The number of live positions, and so of scan entries.
        let mut m = match source {
            Scan::Own(_) => self.scan.len(),
            Scan::Unit(table) => table.len(),
        };
        let mut taken_mass = 0.0;
        while self.picked.len() < s {
            let scan = match source {
                Scan::Own(_) => &self.scan[..],
                Scan::Unit(table) => &table[..m],
            };
            let total = scan[m - 1];
            let target = rng.gen::<f64>() * total;
            // First entry strictly above the target.  `target < total` for
            // every normal total; the clamp covers subnormal round-up.  A
            // unit scan's entries grow by one weight each, so the entry is
            // found by walking from where the target's share of the total
            // falls, usually in a load or two.
            let hit = match source {
                Scan::Own(_) => scan.partition_point(|&c| c <= target),
                Scan::Unit(_) => partition_from(scan, target, (target / total * m as f64) as usize),
            }
            .min(m - 1);
            let pos = if in_place { hit } else { self.live[hit] };
            if self.taken[pos] {
                continue;
            }
            self.taken[pos] = true;
            self.picked.push(pos);
            taken_mass += scan[hit] - if hit == 0 { 0.0 } else { scan[hit - 1] };
            if 2.0 * taken_mass > total && self.picked.len() < s {
                let taken = &self.taken;
                if in_place {
                    self.live.clear();
                    self.live.extend((0..m).filter(|&pos| !taken[pos]));
                    in_place = false;
                } else {
                    self.live.retain(|&pos| !taken[pos]);
                }
                m = self.live.len();
                if let Scan::Own(weight) = &source {
                    self.rescan(weight)?;
                }
                taken_mass = 0.0;
            }
        }
        for &pos in &self.picked {
            self.taken[pos] = false;
        }
        self.picked.sort_unstable();
        Ok(())
    }

    /// Makes room for a row of `len` positions in `taken`.
    fn grow_taken(&mut self, len: usize) {
        if self.taken.len() < len {
            self.taken.resize(len, false);
        }
    }

    /// Scans all `len` positions; returns whether every weight is positive
    /// (only then is the scan the draw's, and its total checked).
    fn scan_in_place(&mut self, len: usize, weight: impl Fn(usize) -> f64) -> Result<bool> {
        let (mut acc, mut positive) = (0.0, true);
        self.scan.clear();
        self.scan.extend((0..len).map(|pos| {
            let w = weight(pos);
            positive &= w > 0.0;
            acc += w;
            acc
        }));
        if positive {
            finite_total(acc)?;
        }
        Ok(positive)
    }

    /// Rebuilds `scan` over the current `live` positions.
    fn rescan(&mut self, weight: impl Fn(usize) -> f64) -> Result<()> {
        let mut acc = 0.0;
        self.scan.clear();
        self.scan.extend(self.live.iter().map(|&pos| {
            acc += weight(pos);
            acc
        }));
        finite_total(acc)
    }
}

/// The first entry of the non-decreasing `scan` strictly above `target` —
/// exactly what `scan.partition_point(|&c| c <= target)` returns — found by
/// walking from `guess`: up past every entry `≤ target`, then down past
/// every entry before it `> target`, so it stops only at the partition
/// point.
fn partition_from(scan: &[f64], target: f64, guess: usize) -> usize {
    let mut i = guess.min(scan.len());
    while i < scan.len() && scan[i] <= target {
        i += 1;
    }
    while i > 0 && scan[i - 1] > target {
        i -= 1;
    }
    i
}

fn finite_total(total: f64) -> Result<()> {
    if total.is_finite() {
        Ok(())
    } else {
        Err(SamplingError::InvalidConfig("ITS weights must have a finite sum".into()))
    }
}

/// Draws up to `s` *distinct* positions (indices into `weights`) without
/// replacement using lazy-rescan inverse transform sampling (see the module
/// documentation).
///
/// Returns `min(s, support)` positions, where the support is the positions
/// of positive weight: a neighborhood smaller than the fanout is kept whole,
/// and zero-weight candidates are never selected unless no weight is
/// positive, in which case candidates are taken uniformly.
///
/// The returned positions are sorted in ascending order.
///
/// # Errors
///
/// Returns [`SamplingError::InvalidConfig`] if `s == 0` or the weights do not
/// have a finite sum.
pub fn its_without_replacement<R: Rng + ?Sized>(
    weights: &[f64],
    s: usize,
    rng: &mut R,
) -> Result<Vec<usize>> {
    if s == 0 {
        return Err(SamplingError::InvalidConfig("sample count s must be positive".into()));
    }
    let mut scratch = DrawScratch::default();
    scratch.draw(weights.len(), |pos| weights[pos], s, rng)?;
    Ok(scratch.picked)
}

/// The RNG seed of `row`'s private stream under `base_seed` — a splitmix64
/// finalizer over the row index, so adjacent rows get decorrelated streams.
///
/// Every row owning its own seeded stream (rather than all rows sharing one
/// sequential stream) is what makes per-row ITS parallelizable **and**
/// reproducible: the draw for row `r` depends only on `(base_seed, r)`,
/// never on which thread processed it or how many threads ran.
pub fn row_stream_seed(base_seed: u64, row: usize) -> u64 {
    crate::seed::stream_seed(base_seed, row as u64)
}

/// Serial reference for [`sample_rows_par`]: samples `s` nonzero columns from
/// every row of `p` with a per-row RNG stream seeded by
/// [`row_stream_seed`]`(base_seed, row)`.
///
/// # Errors
///
/// Returns [`SamplingError::InvalidConfig`] if `s == 0`.
pub fn sample_rows_seeded(p: &CsrMatrix, s: usize, base_seed: u64) -> Result<CsrMatrix> {
    sample_rows_par(p, s, base_seed, Parallelism::serial())
}

/// Samples `s` nonzero columns from every row of a CSR probability matrix on
/// a scoped worker pool — the parallel `SAMPLE` step of Algorithm 1.
///
/// Rows are processed in contiguous blocks across `parallelism` threads;
/// each row draws from its own [`row_stream_seed`]-seeded RNG stream, so the
/// output is **byte-identical at any thread count** (and identical to
/// [`sample_rows_seeded`]).  Each row draws with the lazy-rescan kernel of
/// [`its_without_replacement`] from its thread's scratch, and the picks are
/// written straight into the output's `indices`: row `r` gets
/// `min(s, support of r)` nonzeros, so rows with no nonzeros stay empty.
///
/// # Errors
///
/// Returns [`SamplingError::InvalidConfig`] if `s == 0` or a row's weights
/// do not have a finite sum.
///
/// # Example
///
/// ```
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::{CooMatrix, CsrMatrix};
/// use dmbs_sampling::its::sample_rows_par;
///
/// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
/// let p = CsrMatrix::from_coo(&CooMatrix::from_triples(
///     2, 4, vec![(0, 0, 0.5), (0, 2, 0.5), (1, 1, 1.0)],
/// ).unwrap());
/// let serial = sample_rows_par(&p, 1, 42, Parallelism::serial())?;
/// let parallel = sample_rows_par(&p, 1, 42, Parallelism::new(8))?;
/// assert_eq!(serial, parallel); // reproducible independent of thread count
/// # Ok(())
/// # }
/// ```
pub fn sample_rows_par(
    p: &CsrMatrix,
    s: usize,
    base_seed: u64,
    parallelism: Parallelism,
) -> Result<CsrMatrix> {
    let row = |r| (p.row_indices(r), p.row_values(r));
    let picks = sample_rows(p.rows(), row, RowLaw::Raw, false, s, base_seed, parallelism)?;
    let values = vec![1.0; picks.indices.len()];
    Ok(CsrMatrix::from_raw(p.rows(), p.cols(), picks.indptr, picks.indices, values)?)
}

/// The picked columns of every row of a draw, CSR-style without values:
/// row `i` is `indices[indptr[i]..indptr[i + 1]]`, ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Picks {
    pub(crate) indptr: Vec<usize>,
    pub(crate) indices: Vec<usize>,
}

impl Picks {
    pub(crate) fn row(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }
}

/// One thread's draw buffers, kept across calls of [`sample_rows`] so a
/// call allocates only its output once they have grown.
#[derive(Debug, Default)]
struct Scratch {
    draw: DrawScratch,
    unit: UnitScans,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The kernel behind [`sample_rows_par`] and the samplers' fused draw: row
/// `i` of `rows` is `row(i)` — its columns and stored values, read in place
/// wherever they live — and is drawn from under `law` with its own
/// [`row_stream_seed`]`(base_seed, i)` stream.  Byte-identical at any thread
/// count, and to materialising the rows, applying `law` as a pass and
/// calling [`sample_rows_par`].
///
/// `unit_rows` says that every stored value is exactly `1.0`
/// ([`CsrMatrix::is_unit_valued`]).  Under a normalising law each row is then
/// drawn from its length's scan, built once per call and thread, and its
/// values are never read; the scans this adds never exceed the rows' nonzeros.
pub(crate) fn sample_rows<'a, F>(
    rows: usize,
    row: F,
    law: RowLaw,
    unit_rows: bool,
    s: usize,
    base_seed: u64,
    parallelism: Parallelism,
) -> Result<Picks>
where
    F: Fn(usize) -> (&'a [usize], &'a [f64]) + Sync,
{
    if s == 0 {
        return Err(SamplingError::InvalidConfig("sample count s must be positive".into()));
    }
    let unit = unit_rows && law != RowLaw::Raw;
    // Per block: the picked columns of its rows back to back, and each row's
    // length (`min(s, support)`, known only after the support is counted).
    let blocks: Vec<Result<(Vec<usize>, Vec<usize>)>> = parallelism.map_blocks(rows, |range| {
        let block_nnz: usize = range.clone().map(|i| row(i).0.len()).sum();
        let mut picks = Vec::with_capacity(block_nnz.min(range.len().saturating_mul(s)));
        let mut lens = Vec::with_capacity(range.len());
        SCRATCH.with_borrow_mut(|Scratch { draw, unit: tables }| {
            tables.clear();
            for i in range {
                let (cols, values) = row(i);
                let mut rng = StdRng::seed_from_u64(row_stream_seed(base_seed, i));
                if unit {
                    draw.draw_unit(values.len(), tables, s, &mut rng)?;
                } else {
                    draw.draw_row(values, law, s, &mut rng)?;
                }
                picks.extend(draw.picked.iter().map(|&pos| cols[pos]));
                lens.push(draw.picked.len());
            }
            Ok((picks, lens))
        })
    });
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0);
    let mut indices: Vec<usize> = Vec::new();
    for block in blocks {
        let (picks, lens) = block?;
        let mut end = indices.len();
        indptr.extend(lens.into_iter().map(|len| {
            end += len;
            end
        }));
        if indices.is_empty() {
            // The serial path has one block: take its buffer, copy nothing.
            indices = picks;
        } else {
            indices.extend_from_slice(&picks);
        }
    }
    Ok(Picks { indptr, indices })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use dmbs_matrix::prefix::{inclusive_scan, upper_bound};
    use dmbs_matrix::CooMatrix;
    use proptest::prelude::*;
    use rand::RngCore;

    /// The literal §4.1.2 formulation the lazy-rescan kernel replaced: zero
    /// the pick and rebuild the whole prefix sum before every draw.  Kept as
    /// the oracle of the successive-sampling law (for rows with more than `s`
    /// candidates; it predates the `u == 0.0` fix pinned below).
    fn zero_and_rescan_oracle<R: Rng + ?Sized>(
        weights: &[f64],
        s: usize,
        rng: &mut R,
    ) -> Result<Vec<usize>> {
        assert!(weights.len() > s, "the oracle covers rows with more than s candidates");
        let mut working: Vec<f64> = weights.to_vec();
        let mut selected = Vec::with_capacity(s);
        for _ in 0..s {
            let scan = inclusive_scan(&working);
            let total = *scan.last().expect("weights are non-empty");
            if total <= 0.0 {
                break;
            }
            let pos = upper_bound(&scan, rng.gen::<f64>() * total);
            selected.push(pos);
            working[pos] = 0.0;
        }
        selected.sort_unstable();
        selected.dedup();
        Ok(selected)
    }

    /// An RNG that replays a fixed script of `u64` words, cyclically.
    struct ScriptedRng {
        script: Vec<u64>,
        next: usize,
    }

    impl RngCore for ScriptedRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            let word = self.script[self.next % self.script.len()];
            self.next += 1;
            word
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for byte in dest {
                *byte = self.next_u64() as u8;
            }
        }
    }

    /// The exact law of successive sampling: the probability of every
    /// `s`-subset of positions (as a bitmask), summed over the orders it can
    /// be drawn in.
    fn exact_subset_law(weights: &[f64], s: usize) -> std::collections::BTreeMap<u32, f64> {
        fn walk(
            weights: &[f64],
            left: usize,
            mask: u32,
            prob: f64,
            law: &mut std::collections::BTreeMap<u32, f64>,
        ) {
            if left == 0 {
                *law.entry(mask).or_insert(0.0) += prob;
                return;
            }
            let untaken = |i: &usize| mask & (1 << i) == 0;
            let remaining: f64 = (0..weights.len()).filter(untaken).map(|i| weights[i]).sum();
            for i in (0..weights.len()).filter(untaken) {
                if weights[i] > 0.0 {
                    walk(weights, left - 1, mask | 1 << i, prob * weights[i] / remaining, law);
                }
            }
        }
        let mut law = std::collections::BTreeMap::new();
        walk(weights, s, 0, 1.0, &mut law);
        law
    }

    /// The 99.9 % point of chi-square with six degrees of freedom.  Each
    /// inclusion count is Binomial(TRIALS, π_i), so every term of the
    /// statistic below has mean 1 − π_i ≤ 1 and the point for `support ≤ 6`
    /// degrees of freedom is a conservative gate.
    const CHI_SQUARE_GATE: f64 = 22.5;

    /// Compares `kernel`'s inclusion frequencies over many seeded draws with
    /// the exact inclusion probabilities of successive sampling, on skewed,
    /// uniform and zero-containing rows for every `s ≤ 3`, and returns the
    /// largest chi-square statistic seen.
    fn worst_chi_square_against_exact_law(
        kernel: fn(&[f64], usize, &mut StdRng) -> Result<Vec<usize>>,
    ) -> f64 {
        const TRIALS: usize = 40_000;
        let rows: [&[f64]; 4] = [
            &[32.0, 16.0, 8.0, 4.0, 2.0, 1.0],
            &[1.0, 1.0, 1.0, 1.0, 1.0],
            &[0.0, 5.0, 0.0, 1.0, 1.0, 3.0],
            &[0.7, 0.1, 0.1, 0.1],
        ];
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut worst: f64 = 0.0;
        for weights in rows {
            let support = weights.iter().filter(|&&w| w > 0.0).count();
            for s in 1..=3.min(support - 1) {
                let mut inclusion = vec![0.0; weights.len()];
                for (mask, prob) in exact_subset_law(weights, s) {
                    for (i, slot) in inclusion.iter_mut().enumerate() {
                        if mask & (1 << i) != 0 {
                            *slot += prob;
                        }
                    }
                }
                assert!((inclusion.iter().sum::<f64>() - s as f64).abs() < 1e-12);

                let mut counts = vec![0usize; weights.len()];
                for _ in 0..TRIALS {
                    let picked = kernel(weights, s, &mut rng).unwrap();
                    assert_eq!(picked.len(), s);
                    for pos in picked {
                        counts[pos] += 1;
                    }
                }
                let mut chi2 = 0.0;
                for (i, &pi) in inclusion.iter().enumerate() {
                    let expected = pi * TRIALS as f64;
                    if pi == 0.0 {
                        assert_eq!(counts[i], 0, "zero-weight position {i} was drawn");
                    } else {
                        chi2 += (counts[i] as f64 - expected).powi(2) / expected;
                    }
                }
                worst = worst.max(chi2);
            }
        }
        worst
    }

    #[test]
    fn lazy_rescan_matches_the_successive_sampling_law() {
        let chi2 = worst_chi_square_against_exact_law(its_without_replacement);
        assert!(chi2 < CHI_SQUARE_GATE, "chi-square {chi2}");
    }

    #[test]
    fn zero_and_rescan_oracle_matches_the_successive_sampling_law() {
        let chi2 = worst_chi_square_against_exact_law(zero_and_rescan_oracle);
        assert!(chi2 < CHI_SQUARE_GATE, "chi-square {chi2}");
    }

    #[test]
    fn chi_square_gate_rejects_a_different_law() {
        // The gate has power: weighted draws *with* replacement, deduplicated
        // and topped up from the front of the support, is not successive
        // sampling.
        let wrong = |w: &[f64], s: usize, rng: &mut StdRng| -> Result<Vec<usize>> {
            let scan = inclusive_scan(w);
            let total = scan[scan.len() - 1];
            let mut picked: Vec<usize> = (0..s)
                .map(|_| {
                    let target = rng.gen::<f64>() * total;
                    scan.partition_point(|&c| c <= target).min(w.len() - 1)
                })
                .collect();
            picked.sort_unstable();
            picked.dedup();
            let mut fill = (0..w.len()).filter(|&i| w[i] > 0.0);
            while picked.len() < s {
                let candidate = fill.next().expect("support exceeds s");
                if !picked.contains(&candidate) {
                    picked.push(candidate);
                }
            }
            Ok(picked)
        };
        assert!(worst_chi_square_against_exact_law(wrong) > 10.0 * CHI_SQUARE_GATE);
    }

    #[test]
    fn extreme_uniform_variates_never_select_zero_weight_positions() {
        // u == 0.0 used to land on a leading zero-weight (or already taken)
        // position, and the final dedup then returned s − 1 picks.
        let weights = [0.0, 3.0, 0.0, 1.0, 1.0, 2.0];
        for script in [vec![0, u64::MAX], vec![u64::MAX, 0]] {
            let mut rng = ScriptedRng { script, next: 0 };
            // One pass over the script: it does produce u == 0.0.
            assert_eq!(rng.gen::<f64>().min(rng.gen::<f64>()), 0.0);
            for s in 1..=5 {
                let picked = its_without_replacement(&weights, s, &mut rng).unwrap();
                assert_eq!(picked.len(), s.min(4), "s = {s}: {picked:?}");
                assert!(picked.windows(2).all(|w| w[0] < w[1]), "s = {s}: {picked:?}");
                assert!(picked.iter().all(|&i| weights[i] > 0.0), "s = {s}: {picked:?}");
            }
        }
        // The replaced formulation, on the same script.
        let mut rng = ScriptedRng { script: vec![0, u64::MAX], next: 0 };
        assert_eq!(zero_and_rescan_oracle(&weights, 3, &mut rng).unwrap(), vec![0, 5]);
    }

    #[test]
    fn non_finite_weight_sums_are_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(8);
        for weights in [[1.0, f64::INFINITY, 1.0], [f64::MAX, f64::MAX, 1.0]] {
            let err = its_without_replacement(&weights, 2, &mut rng).unwrap_err();
            assert!(matches!(err, SamplingError::InvalidConfig(_)), "{err}");
        }
        // NaN and negative weights are outside the support, not an error.
        let picked = its_without_replacement(&[f64::NAN, 1.0, -2.0, 3.0, 4.0], 2, &mut rng);
        assert!(picked.unwrap().iter().all(|&i| [1, 3, 4].contains(&i)));
    }

    #[test]
    fn without_replacement_returns_distinct_in_support() {
        let weights = vec![0.0, 1.0, 2.0, 0.0, 3.0, 1.0, 4.0];
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let picked = its_without_replacement(&weights, 3, &mut rng).unwrap();
            assert_eq!(picked.len(), 3);
            let mut sorted = picked.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicates in {picked:?}");
            assert!(picked.iter().all(|&i| weights[i] > 0.0));
        }
    }

    #[test]
    fn without_replacement_small_support_returns_all() {
        let weights = vec![1.0, 2.0];
        let mut rng = StdRng::seed_from_u64(2);
        let picked = its_without_replacement(&weights, 5, &mut rng).unwrap();
        assert_eq!(picked, vec![0, 1]);
    }

    #[test]
    fn without_replacement_zero_weights_fall_back_to_uniform() {
        let weights = vec![0.0; 6];
        let mut rng = StdRng::seed_from_u64(3);
        let picked = its_without_replacement(&weights, 3, &mut rng).unwrap();
        assert_eq!(picked.len(), 3);
    }

    #[test]
    fn without_replacement_rejects_zero_s() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(its_without_replacement(&[1.0], 0, &mut rng).is_err());
    }

    #[test]
    fn frequencies_track_probabilities() {
        // Column 2 has 10x the weight of column 0; over many single draws it
        // must be picked roughly 10x as often.
        let weights = vec![1.0, 0.0, 10.0];
        let mut rng = StdRng::seed_from_u64(11);
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            let picked = its_without_replacement(&weights, 1, &mut rng).unwrap();
            counts[picked[0]] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0].max(1) as f64;
        assert!(ratio > 7.0 && ratio < 13.0, "ratio {ratio} outside expected band");
    }

    #[test]
    fn sample_rows_par_is_thread_count_invariant() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut coo = CooMatrix::new(50, 64);
        for _ in 0..400 {
            coo.push(rng.gen_range(0..50), rng.gen_range(0..64), rng.gen_range(0.1..3.0)).ok();
        }
        let p = CsrMatrix::from_coo(&coo);
        for seed in [0u64, 9, 0xDEAD_BEEF] {
            let serial = sample_rows_seeded(&p, 3, seed).unwrap();
            for threads in [1usize, 2, 8] {
                let par = sample_rows_par(&p, 3, seed, Parallelism::new(threads)).unwrap();
                assert_eq!(par, serial, "seed = {seed}, threads = {threads}");
            }
        }
    }

    #[test]
    fn sample_rows_par_respects_support_and_fanout() {
        let p = CsrMatrix::from_coo(
            &CooMatrix::from_triples(
                2,
                6,
                vec![
                    (0, 0, 1.0 / 3.0),
                    (0, 2, 1.0 / 3.0),
                    (0, 4, 1.0 / 3.0),
                    (1, 3, 0.5),
                    (1, 4, 0.5),
                ],
            )
            .unwrap(),
        );
        let q = sample_rows_par(&p, 2, 7, Parallelism::new(4)).unwrap();
        assert_eq!(q.shape(), (2, 6));
        assert_eq!(q.row_nnz(0), 2);
        assert!(q.row_indices(0).iter().all(|c| [0, 2, 4].contains(c)));
        assert_eq!(q.row_indices(1), &[3, 4]);
        assert!(sample_rows_par(&p, 0, 7, Parallelism::new(4)).is_err());
        // Empty rows stay empty.
        let empty = CsrMatrix::zeros(3, 4);
        assert_eq!(sample_rows_par(&empty, 2, 1, Parallelism::new(2)).unwrap().nnz(), 0);
    }

    #[test]
    fn row_stream_seeds_are_decorrelated() {
        // Adjacent rows and adjacent base seeds must give distinct streams.
        let a = row_stream_seed(1, 0);
        let b = row_stream_seed(1, 1);
        let c = row_stream_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    proptest! {
        #[test]
        fn prop_sample_rows_par_thread_invariant(
            entries in proptest::collection::vec((0usize..8, 0usize..12, 0.1f64..5.0), 1..60),
            s in 1usize..5,
            seed in 0u64..100,
            thread_choice in 0usize..3,
        ) {
            let p = CsrMatrix::from_coo(&CooMatrix::from_triples(8, 12, entries).unwrap());
            let threads = [1usize, 2, 8][thread_choice];
            let serial = sample_rows_seeded(&p, s, seed).unwrap();
            let par = sample_rows_par(&p, s, seed, Parallelism::new(threads)).unwrap();
            prop_assert_eq!(par, serial);
        }
    }

    proptest! {
        #[test]
        fn prop_its_without_replacement_invariants(
            weights in proptest::collection::vec(0.0f64..5.0, 1..40),
            s in 1usize..10,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let picked = its_without_replacement(&weights, s, &mut rng).unwrap();
            // Distinct and sorted.
            prop_assert!(picked.windows(2).all(|w| w[0] < w[1]));
            // Never more than requested (unless the whole support is returned).
            prop_assert!(picked.len() <= s.max(weights.len()));
            if weights.len() > s {
                prop_assert!(picked.len() <= s);
            }
            // All indices valid.
            prop_assert!(picked.iter().all(|&i| i < weights.len()));
        }

        #[test]
        fn prop_geometric_weights_still_return_s_distinct_picks(
            n in 2usize..80,
            s_choice in 0usize..80,
            seed in 0u64..1000,
        ) {
            // Weights 2^-i: the first pick takes more than half of the mass
            // nearly every time, so nearly every draw is followed by a
            // rescan; past i = 53 a weight vanishes in the running sum and
            // its position is reachable only after a rescan.
            let weights: Vec<f64> = (0..n).map(|i| 0.5f64.powi(i as i32)).collect();
            let s = 1 + s_choice % (n - 1);
            let mut rng = StdRng::seed_from_u64(seed);
            let picked = its_without_replacement(&weights, s, &mut rng).unwrap();
            prop_assert_eq!(picked.len(), s);
            prop_assert!(picked.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(picked.iter().all(|&i| i < n));
        }

        #[test]
        fn prop_sample_rows_subset_of_support(
            entries in proptest::collection::vec((0usize..8, 0usize..12, 0.1f64..5.0), 1..60),
            s in 1usize..5,
            seed in 0u64..100,
        ) {
            let p = CsrMatrix::from_coo(&CooMatrix::from_triples(8, 12, entries).unwrap());
            let q = sample_rows_seeded(&p, s, seed).unwrap();
            prop_assert_eq!(q.shape(), p.shape());
            for r in 0..p.rows() {
                let support: std::collections::HashSet<usize> = p.row_indices(r).iter().copied().collect();
                prop_assert!(q.row_nnz(r) <= s.min(p.row_nnz(r)).max(p.row_nnz(r).min(s)));
                prop_assert!(q.row_indices(r).iter().all(|c| support.contains(c)));
                // Exactly min(s, nnz) picked.
                prop_assert_eq!(q.row_nnz(r), s.min(p.row_nnz(r)));
            }
        }
    }

    /// The materialised formulation the fused draw replaced, kept as its
    /// oracle: gather the selected rows into `P`, apply the law as a pass
    /// (`normalize_rows`, or squaring then `normalize_rows`), then
    /// [`sample_rows_par`].
    pub(crate) fn materialized_draw(
        a: &CsrMatrix,
        select: &[usize],
        law: RowLaw,
        s: usize,
        seed: u64,
        parallelism: Parallelism,
    ) -> CsrMatrix {
        let mut p = a.gather_rows(select).unwrap();
        apply_law(&mut p, law);
        sample_rows_par(&p, s, seed, parallelism).unwrap()
    }

    /// `law` applied to every row of `p` as a pass of its own.
    fn apply_law(p: &mut CsrMatrix, law: RowLaw) {
        match law {
            RowLaw::Raw => {}
            RowLaw::Normalized => p.normalize_rows(),
            RowLaw::SquaredNormalized => {
                p.map_values_inplace(|v| v * v);
                p.normalize_rows();
            }
        }
    }

    /// The fused draw over rows `select` of `a`, read in place, as a matrix.
    fn fused_draw(
        a: &CsrMatrix,
        select: &[usize],
        law: RowLaw,
        s: usize,
        seed: u64,
        parallelism: Parallelism,
    ) -> CsrMatrix {
        let row = |i: usize| (a.row_indices(select[i]), a.row_values(select[i]));
        let unit = a.is_unit_valued();
        let picks = sample_rows(select.len(), row, law, unit, s, seed, parallelism).unwrap();
        let values = vec![1.0; picks.indices.len()];
        CsrMatrix::from_raw(select.len(), a.cols(), picks.indptr, picks.indices, values).unwrap()
    }

    /// A row of `len` stored values of one `kind`: unit, weighted, weighted
    /// with stored zeros, all zero, geometric (forcing rescans, and past
    /// `2^-53` of the head weights that vanish in the running sum), or
    /// negative and zero only (no positive weight: the uniform fallback).
    fn row_values(kind: usize, len: usize, rng: &mut StdRng) -> Vec<f64> {
        (0..len)
            .map(|i| match kind {
                0 => 1.0,
                1 => rng.gen_range(0.1..5.0),
                2 => [0.0, 0.0, rng.gen_range(0.1..5.0)][i % 3],
                3 => 0.0,
                4 => 0.5f64.powi(i as i32),
                _ => -(i as f64),
            })
            .collect()
    }

    #[test]
    fn fused_scan_is_bit_identical_to_scanning_the_normalised_row() {
        // The picks can hide a last-bit difference in the weights; the scan
        // cannot.  With `s = 1` the draw never rescans, so the scratch
        // holds the scan it drew from: it must be the prefix sum of the
        // normalised row's positive weights, bit for bit.
        let mut rng = StdRng::seed_from_u64(31);
        for kind in 0..6 {
            for len in [2, 3, 17, 90] {
                let row = CsrMatrix::from_rows(
                    1,
                    len,
                    vec![(0..len).zip(row_values(kind, len, &mut rng)).collect()],
                )
                .unwrap();
                for law in [RowLaw::Raw, RowLaw::Normalized, RowLaw::SquaredNormalized] {
                    let mut scratch = DrawScratch::default();
                    let mut draws = StdRng::seed_from_u64(1);
                    scratch.draw_row(row.row_values(0), law, 1, &mut draws).unwrap();
                    let mut normalized = row.clone();
                    apply_law(&mut normalized, law);
                    let mut positive: Vec<f64> =
                        normalized.values().iter().copied().filter(|&w| w > 0.0).collect();
                    if positive.is_empty() {
                        positive = vec![1.0; len];
                    }
                    if positive.len() <= 1 {
                        continue; // kept whole: nothing was drawn from a scan
                    }
                    let mut acc = 0.0;
                    let expected: Vec<u64> = positive
                        .iter()
                        .map(|w| {
                            acc += w;
                            f64::to_bits(acc)
                        })
                        .collect();
                    let scan: Vec<u64> = scratch.scan.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(scan, expected, "kind {kind}, len {len}, {law:?}");
                }
            }
        }
    }

    #[test]
    fn fused_draw_is_bit_identical_to_the_materialised_one() {
        let mut rng = StdRng::seed_from_u64(30);
        let (rows, cols) = (24, 90);
        let mut row_data = Vec::with_capacity(rows);
        for r in 0..rows {
            // Lengths from empty through `s` (kept whole) to long.
            let len = [0, 1, 3, 5, 12, 40, 90][r % 7];
            let mut positions: Vec<usize> = (0..cols).collect();
            for i in (1..cols).rev() {
                positions.swap(i, rng.gen_range(0..=i));
            }
            positions.truncate(len);
            positions.sort_unstable();
            let values = row_values(r % 6, len, &mut rng);
            row_data.push(positions.into_iter().zip(values).collect());
        }
        let a = CsrMatrix::from_rows(rows, cols, row_data).unwrap();
        // Every row, then a stacked selection with repeated rows.
        let all: Vec<usize> = (0..rows).collect();
        let repeated: Vec<usize> = (0..60).map(|i| (i * 7) % rows).collect();
        for select in [&all, &repeated] {
            for law in [RowLaw::Raw, RowLaw::Normalized, RowLaw::SquaredNormalized] {
                for s in [1, 3, 5, 30] {
                    for threads in [1, 2, 8] {
                        let par = Parallelism::new(threads);
                        let seed = 17 + s as u64;
                        assert_eq!(
                            fused_draw(&a, select, law, s, seed, par),
                            materialized_draw(&a, select, law, s, seed, par),
                            "{law:?}, s = {s}, {threads} threads"
                        );
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_fused_draw_equals_the_materialised_one(
            rows in proptest::collection::vec(
                (0usize..6, proptest::collection::vec(0usize..40, 0..40)),
                1..10,
            ),
            raw_select in proptest::collection::vec(0usize..64, 0..20),
            s in 1usize..12,
            law_choice in 0usize..3,
            thread_choice in 0usize..3,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let row_data = rows
                .iter()
                .map(|(kind, cols)| {
                    let mut cols = cols.clone();
                    cols.sort_unstable();
                    cols.dedup();
                    let values = row_values(*kind, cols.len(), &mut rng);
                    cols.into_iter().zip(values).collect()
                })
                .collect();
            let a = CsrMatrix::from_rows(rows.len(), 40, row_data).unwrap();
            let select: Vec<usize> = raw_select.iter().map(|&r| r % a.rows()).collect();
            let law = [RowLaw::Raw, RowLaw::Normalized, RowLaw::SquaredNormalized][law_choice];
            let par = Parallelism::new([1usize, 2, 8][thread_choice]);
            prop_assert_eq!(
                fused_draw(&a, &select, law, s, seed, par),
                materialized_draw(&a, &select, law, s, seed, par)
            );
        }
    }

    /// A matrix whose rows are all unit-valued, of lengths `lens`, each over
    /// a random run of `cols` columns.
    fn unit_matrix(lens: &[usize], cols: usize, rng: &mut StdRng) -> CsrMatrix {
        let rows = lens
            .iter()
            .map(|&len| {
                let first = rng.gen_range(0..=cols - len);
                (first..first + len).map(|c| (c, 1.0)).collect()
            })
            .collect();
        CsrMatrix::from_rows(lens.len(), cols, rows).unwrap()
    }

    #[test]
    fn unit_scans_are_bit_identical_to_scanning_the_normalised_unit_row() {
        let mut tables = UnitScans::default();
        // The scan the general path takes of a unit row: normalise it as a
        // pass, then add up its weights in order.
        let expected = |n: usize, law| {
            let mut row =
                CsrMatrix::from_rows(1, n, vec![(0..n).map(|c| (c, 1.0)).collect()]).unwrap();
            apply_law(&mut row, law);
            let mut acc = 0.0;
            row.values()
                .iter()
                .map(|w| {
                    acc += w;
                    f64::to_bits(acc)
                })
                .collect::<Vec<_>>()
        };
        let bits = |scan: &[f64]| scan.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in 1..=3000 {
            let table = bits(tables.get(n));
            assert_eq!(table, expected(n, RowLaw::Normalized), "n = {n}");
            assert_eq!(table, expected(n, RowLaw::SquaredNormalized), "n = {n}");
        }
        // A length built earlier is served from where it was built.
        assert_eq!(bits(tables.get(17)), expected(17, RowLaw::Normalized));
        tables.clear();
        assert_eq!(bits(tables.get(5)), expected(5, RowLaw::Normalized));
    }

    #[test]
    fn one_non_unit_row_sends_the_matrix_down_the_general_path() {
        let mut rng = StdRng::seed_from_u64(40);
        let mut a = unit_matrix(&[12, 30, 12, 7, 30], 64, &mut rng);
        assert!(a.is_unit_valued());
        // A skewed row among unit ones: a unit-path draw of it would pick
        // from the wrong law.
        a.row_values_mut(2).iter_mut().step_by(3).for_each(|v| *v = 9.0);
        assert!(!a.is_unit_valued());
        let select = [0, 2, 1, 2, 4, 3, 2];
        let mut forced_differs = false;
        for law in [RowLaw::Normalized, RowLaw::SquaredNormalized] {
            for s in [1, 2, 5] {
                for threads in [1, 2, 8] {
                    let par = Parallelism::new(threads);
                    for seed in 0..20 {
                        let oracle = materialized_draw(&a, &select, law, s, seed, par);
                        assert_eq!(fused_draw(&a, &select, law, s, seed, par), oracle);
                        let row = |i: usize| (a.row_indices(select[i]), a.row_values(select[i]));
                        let forced = sample_rows(select.len(), row, law, true, s, seed, par);
                        forced_differs |= forced.unwrap().indices != oracle.indices();
                    }
                }
            }
        }
        assert!(forced_differs, "the skewed row must be told apart from a unit one");
    }

    proptest! {
        #[test]
        fn prop_unit_rows_draw_what_the_materialised_law_draws(
            s in 1usize..12,
            kinds in proptest::collection::vec(0usize..7, 1..10),
            long in 1usize..5000,
            raw_select in proptest::collection::vec(0usize..64, 0..24),
            law_choice in 0usize..2,
            thread_choice in 0usize..3,
            seed in 0u64..1000,
        ) {
            // Empty, kept whole, one over `s` and its multiples (which
            // force rescans), and long rows.
            let lens: Vec<usize> =
                kinds.iter().map(|&k| [0, 1, s, s + 1, 2 * s, 3 * s, long][k]).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let a = unit_matrix(&lens, 5000, &mut rng);
            prop_assert!(a.is_unit_valued());
            let mut select: Vec<usize> = raw_select.iter().map(|&r| r % a.rows()).collect();
            // Stacked selections repeat rows.
            select.extend_from_within(..select.len() / 2);
            let law = [RowLaw::Normalized, RowLaw::SquaredNormalized][law_choice];
            let par = Parallelism::new([1usize, 2, 8][thread_choice]);
            prop_assert_eq!(
                fused_draw(&a, &select, law, s, seed, par),
                materialized_draw(&a, &select, law, s, seed, par)
            );
        }

        #[test]
        fn prop_partition_from_any_guess_is_the_partition_point(
            weights in proptest::collection::vec(0.0f64..3.0, 1..60),
            u in 0.0f64..1.2,
            guess in 0usize..80,
        ) {
            let scan = inclusive_scan(&weights);
            let target = u * scan[scan.len() - 1];
            prop_assert_eq!(
                partition_from(&scan, target, guess),
                scan.partition_point(|&c| c <= target)
            );
        }
    }
}
