//! Sparse × dense matrix multiplication (SpMM).
//!
//! Neighborhood aggregation in forward propagation multiplies a sampled
//! adjacency matrix (CSR) by a sampled feature/embedding matrix (dense):
//! `Z = A_S · H`.  The backward pass needs the transposed product
//! `A_S^T · G`.  Both kernels live here, each compiled for the build
//! target, AVX2 and AVX-512F, with the widest copy the CPU runs chosen at
//! run time (`crate::isa`).
//!
//! The forward kernel holds a block of output columns in registers across a
//! row's stored entries and stores it once: 64 columns (eight `zmm`) on
//! AVX-512, 32 (eight `ymm`) on AVX2 and 16 (eight `xmm`) on the build
//! target, then halving blocks down to 8 columns, and the last few columns
//! accumulated in place.  Every output entry still starts at `+0.0` and adds
//! `w · x` over the row's stored entries in order, so each copy is
//! byte-identical to the textbook row loop.
//!
//! Each copy is compiled twice more for a pattern operand
//! ([`CsrMatrix::is_unit_valued`], a sampled layer), picked once per call:
//! no value is read, and every entry of a row weighs the same.  Under
//! [`RowWeights::RowNormalized`] that weight is `1.0 / len`: a row of `len`
//! ones sums to exactly `len`, so it is the division `v / Σv` performs on
//! the stored row.  Under [`RowWeights::Stored`] it is the constant `1.0`,
//! and the multiply by it goes away (`1.0 * x` is `x`, bit for bit).

use crate::csr::CsrMatrix;
use crate::dense::DenseMatrix;
use crate::error::MatrixError;
use crate::isa::{Isa, Level};
use crate::pool::Parallelism;
use crate::Result;
use std::ops::Range;

/// How the stored values of a sparse row weight the dense rows they select.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowWeights {
    /// The stored values as they are.
    Stored,
    /// Each stored value divided by its row's sum, exactly as
    /// [`CsrMatrix::normalize_rows`] computes it (a row that sums to zero
    /// keeps its values): GraphSAGE's neighbourhood mean, without
    /// materialising the normalised matrix.
    RowNormalized,
}

impl RowWeights {
    /// What a row with the stored `values` divides them by, if anything.
    fn divisor(self, values: &[f64]) -> Option<f64> {
        match self {
            RowWeights::Stored => None,
            RowWeights::RowNormalized => {
                let sum: f64 = values.iter().sum();
                (sum != 0.0).then_some(sum)
            }
        }
    }

    /// The weight of every entry of a pattern row of `len` entries, which
    /// sums to exactly `len` (every partial sum is an integer below 2^53):
    /// `1.0 / len`, the division `v / Σv` performs on the stored row, under
    /// [`RowWeights::RowNormalized`], and `1.0` under [`RowWeights::Stored`].
    fn unit_weight(self, len: usize) -> f64 {
        match self {
            RowWeights::Stored => 1.0,
            RowWeights::RowNormalized => 1.0 / len as f64,
        }
    }
}

/// Computes `sparse * dense`.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `sparse.cols() != dense.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::{CooMatrix, CsrMatrix, DenseMatrix, spmm::spmm};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 3, vec![(0, 1, 2.0), (1, 2, 1.0)])?);
/// let h = DenseMatrix::from_rows(&[vec![1.0], vec![10.0], vec![100.0]])?;
/// let z = spmm(&a, &h)?;
/// assert_eq!(z.get(0, 0), 20.0);
/// assert_eq!(z.get(1, 0), 100.0);
/// # Ok(())
/// # }
/// ```
pub fn spmm(sparse: &CsrMatrix, dense: &DenseMatrix) -> Result<DenseMatrix> {
    spmm_parallel(sparse, dense, RowWeights::Stored, Parallelism::serial())
}

/// Computes `W * dense`, where `W` is `sparse` with its values weighted by
/// `weights`, on a scoped worker pool, row-blocking the output across
/// `parallelism` threads.  Each output row is accumulated in place from
/// `+0.0` over the row's stored entries in order.
///
/// Every output row is the same linear combination the serial kernel
/// computes, in the same order, so the result is **byte-identical to
/// [`spmm`] at any thread count**.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `sparse.cols() != dense.rows()`.
///
/// # Example
///
/// ```
/// use dmbs_matrix::pool::Parallelism;
/// use dmbs_matrix::spmm::{spmm, spmm_parallel, RowWeights};
/// use dmbs_matrix::{CooMatrix, CsrMatrix, DenseMatrix};
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = CsrMatrix::from_coo(&CooMatrix::from_triples(2, 3, vec![(0, 1, 2.0), (1, 2, 1.0)])?);
/// let h = DenseMatrix::from_rows(&[vec![1.0], vec![10.0], vec![100.0]])?;
/// let par = Parallelism::new(2);
/// assert_eq!(spmm_parallel(&a, &h, RowWeights::Stored, par)?, spmm(&a, &h)?);
/// // Row 0 holds a single 2.0, so its mean weight is 1.
/// assert_eq!(spmm_parallel(&a, &h, RowWeights::RowNormalized, par)?.get(0, 0), 10.0);
/// # Ok(())
/// # }
/// ```
pub fn spmm_parallel(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    parallelism: Parallelism,
) -> Result<DenseMatrix> {
    spmm_with(sparse, dense, weights, parallelism, Isa::host())
}

/// [`spmm_parallel`] on the copy `isa` names.
fn spmm_with(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    parallelism: Parallelism,
    isa: Isa,
) -> Result<DenseMatrix> {
    if sparse.cols() != dense.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spmm",
            lhs: sparse.shape(),
            rhs: dense.shape(),
        });
    }
    let cols = dense.cols();
    let mut out = DenseMatrix::zeros(sparse.rows(), cols);
    parallelism.for_each_row_block(out.as_mut_slice(), cols, 1, |rows, block| {
        spmm_rows(isa, sparse, dense, weights, rows, block)
    });
    Ok(out)
}

/// Output rows `rows` of `W · dense` into the zero `block`, on the copy
/// `isa` names.
fn spmm_rows(
    isa: Isa,
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    rows: Range<usize>,
    block: &mut [f64],
) {
    match isa.level() {
        Level::Portable => spmm_rows_body::<16>(sparse, dense, weights, rows, block),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `spmm_rows_avx2` requires only AVX2, and an `Isa` at
        // `Avx2` exists only where AVX2 was detected.
        Level::Avx2 => unsafe { spmm_rows_avx2(sparse, dense, weights, rows, block) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `spmm_rows_avx512` requires only AVX-512F, and an `Isa` at
        // `Avx512` exists only where AVX-512F was detected.
        Level::Avx512 => unsafe { spmm_rows_avx512(sparse, dense, weights, rows, block) },
    }
}

/// [`spmm_rows_body`] with 32-column blocks, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn spmm_rows_avx2(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    rows: Range<usize>,
    block: &mut [f64],
) {
    spmm_rows_body::<32>(sparse, dense, weights, rows, block)
}

/// [`spmm_rows_body`] with 64-column blocks, compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn spmm_rows_avx512(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    rows: Range<usize>,
    block: &mut [f64],
) {
    spmm_rows_body::<64>(sparse, dense, weights, rows, block)
}

/// The row kernel over rows `rows`, its unit-valued instantiation picked
/// once from the variant of `sparse`'s values: a pattern row's entries all
/// carry the one weight [`RowWeights::unit_weight`], and under
/// [`RowWeights::Stored`] that is the constant `1.0`, whose multiply
/// compiles away (`1.0 * x` is `x`, bit for bit).
#[inline(always)]
fn spmm_rows_body<const W: usize>(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    rows: Range<usize>,
    block: &mut [f64],
) {
    let (cols, x) = (dense.cols(), dense.as_slice());
    let (indptr, indices) = (sparse.indptr(), sparse.indices());
    let blocks = rows.zip(block.chunks_exact_mut(cols));
    match (sparse.values(), weights) {
        (None, RowWeights::Stored) => {
            for (r, out) in blocks {
                let row = &indices[indptr[r]..indptr[r + 1]];
                spmm_row::<W, _>(|| row.iter().map(|&c| (c, 1.0)), x, cols, out);
            }
        }
        (None, RowWeights::RowNormalized) => {
            for (r, out) in blocks {
                let row = &indices[indptr[r]..indptr[r + 1]];
                let w = weights.unit_weight(row.len());
                spmm_row::<W, _>(|| row.iter().map(move |&c| (c, w)), x, cols, out);
            }
        }
        (Some(values), _) => {
            for (r, out) in blocks {
                let (lo, hi) = (indptr[r], indptr[r + 1]);
                let (row, vals) = (&indices[lo..hi], &values[lo..hi]);
                let divisor = weights.divisor(vals);
                let weighted = |&v: &f64| divisor.map_or(v, |s| v / s);
                spmm_row::<W, _>(
                    || row.iter().copied().zip(vals.iter().map(weighted)),
                    x,
                    cols,
                    out,
                );
            }
        }
    }
}

/// One output row from its weighted `(column, weight)` entries: `W`-column
/// register blocks, then one block each of 32, 16 and 8 columns where `W`
/// is wider and they fit, then the last `cols % 8` columns accumulated in
/// place.
#[inline(always)]
fn spmm_row<const W: usize, I: Iterator<Item = (usize, f64)>>(
    entries: impl Fn() -> I,
    x: &[f64],
    cols: usize,
    out: &mut [f64],
) {
    let mut j = 0;
    while j + W <= cols {
        column_block::<W>(entries(), x, cols, j, out);
        j += W;
    }
    if W > 32 && j + 32 <= cols {
        column_block::<32>(entries(), x, cols, j, out);
        j += 32;
    }
    if W > 16 && j + 16 <= cols {
        column_block::<16>(entries(), x, cols, j, out);
        j += 16;
    }
    if W > 8 && j + 8 <= cols {
        column_block::<8>(entries(), x, cols, j, out);
        j += 8;
    }
    if j < cols {
        for (c, w) in entries() {
            for (a, d) in out[j..].iter_mut().zip(&x[c * cols + j..(c + 1) * cols]) {
                *a += w * d;
            }
        }
    }
}

/// Columns `j..j + W` of one output row, summed from `+0.0` in registers
/// over the row's weighted `entries` in order and stored once.
#[inline(always)]
fn column_block<const W: usize>(
    entries: impl Iterator<Item = (usize, f64)>,
    x: &[f64],
    cols: usize,
    j: usize,
    out: &mut [f64],
) {
    let mut acc = [0.0f64; W];
    for (c, w) in entries {
        let row: &[f64; W] = x[c * cols + j..][..W].try_into().expect("a block is W wide");
        for (a, &d) in acc.iter_mut().zip(row) {
            *a += w * d;
        }
    }
    out[j..j + W].copy_from_slice(&acc);
}

/// Computes `W^T * dense`, where `W` is `sparse` with its values weighted by
/// `weights`, on a scoped worker pool without materialising the transpose.
///
/// The transposed product scatters into output rows, so row-blocking the
/// *output* would race; instead the **columns** of `dense` are blocked: each
/// worker computes the full scatter restricted to its column slice, which
/// touches a disjoint set of output entries and accumulates every entry in
/// the serial kernel's input-row order.  The result is therefore
/// byte-identical to [`spmm_transpose`] at any thread count.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `sparse.rows() != dense.rows()`.
pub fn spmm_transpose_parallel(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    parallelism: Parallelism,
) -> Result<DenseMatrix> {
    spmm_transpose_with(sparse, dense, weights, parallelism, Isa::host())
}

/// [`spmm_transpose_parallel`] on the copy `isa` names.
fn spmm_transpose_with(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    parallelism: Parallelism,
    isa: Isa,
) -> Result<DenseMatrix> {
    if sparse.rows() != dense.rows() {
        return Err(MatrixError::DimensionMismatch {
            op: "spmm_transpose",
            lhs: sparse.shape(),
            rhs: dense.shape(),
        });
    }
    let cols = dense.cols();
    let mut out = DenseMatrix::zeros(sparse.cols(), cols);
    if parallelism.effective_blocks(cols) <= 1 {
        // One block spans every column, so the slab is `out` itself.
        scatter_transpose(isa, sparse, dense, weights, 0..cols, out.as_mut_slice());
        return Ok(out);
    }
    // Each worker fills a (sparse.cols() × block) slab over its column range.
    let slabs: Vec<(Range<usize>, Vec<f64>)> = parallelism.map_blocks(cols, |range| {
        let mut slab = vec![0.0f64; sparse.cols() * range.len()];
        scatter_transpose(isa, sparse, dense, weights, range.clone(), &mut slab);
        (range, slab)
    });
    for (range, slab) in slabs {
        let width = range.len();
        for r in 0..sparse.cols() {
            out.row_mut(r)[range.clone()].copy_from_slice(&slab[r * width..(r + 1) * width]);
        }
    }
    Ok(out)
}

/// Computes `sparse^T * dense` without materialising the transpose.
///
/// # Errors
///
/// Returns [`MatrixError::DimensionMismatch`] if `sparse.rows() != dense.rows()`.
pub fn spmm_transpose(sparse: &CsrMatrix, dense: &DenseMatrix) -> Result<DenseMatrix> {
    spmm_transpose_parallel(sparse, dense, RowWeights::Stored, Parallelism::serial())
}

/// The transposed scatter restricted to `dense`'s columns `range`, added
/// into a zero `sparse.cols() × range.len()` slab, on the copy `isa` names.
fn scatter_transpose(
    isa: Isa,
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    range: Range<usize>,
    slab: &mut [f64],
) {
    match isa.level() {
        Level::Portable => scatter_body(sparse, dense, weights, range, slab),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `scatter_avx2` requires only AVX2, and an `Isa` at `Avx2`
        // exists only where AVX2 was detected.
        Level::Avx2 => unsafe { scatter_avx2(sparse, dense, weights, range, slab) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `scatter_avx512` requires only AVX-512F, and an `Isa` at
        // `Avx512` exists only where AVX-512F was detected.
        Level::Avx512 => unsafe { scatter_avx512(sparse, dense, weights, range, slab) },
    }
}

/// [`scatter_body`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scatter_avx2(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    range: Range<usize>,
    slab: &mut [f64],
) {
    scatter_body(sparse, dense, weights, range, slab)
}

/// [`scatter_body`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn scatter_avx512(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    range: Range<usize>,
    slab: &mut [f64],
) {
    scatter_body(sparse, dense, weights, range, slab)
}

/// The scatter: each input row's weighted columns `range` added into the
/// slab rows its stored entries name, input rows in order.  The unit-valued
/// instantiation is picked once, as in [`spmm_rows_body`].
#[inline(always)]
fn scatter_body(
    sparse: &CsrMatrix,
    dense: &DenseMatrix,
    weights: RowWeights,
    range: Range<usize>,
    slab: &mut [f64],
) {
    let width = range.len();
    let (indptr, indices) = (sparse.indptr(), sparse.indices());
    let drows = (0..sparse.rows()).map(|r| (r, &dense.row(r)[range.clone()]));
    match (sparse.values(), weights) {
        (None, RowWeights::Stored) => {
            for (r, drow) in drows {
                let row = &indices[indptr[r]..indptr[r + 1]];
                scatter_row(row.iter().map(|&c| (c, 1.0)), drow, width, slab);
            }
        }
        (None, RowWeights::RowNormalized) => {
            for (r, drow) in drows {
                let row = &indices[indptr[r]..indptr[r + 1]];
                let w = weights.unit_weight(row.len());
                scatter_row(row.iter().map(|&c| (c, w)), drow, width, slab);
            }
        }
        (Some(values), _) => {
            for (r, drow) in drows {
                let (lo, hi) = (indptr[r], indptr[r + 1]);
                let (row, vals) = (&indices[lo..hi], &values[lo..hi]);
                let divisor = weights.divisor(vals);
                let weighted = vals.iter().map(|&v| divisor.map_or(v, |s| v / s));
                scatter_row(row.iter().copied().zip(weighted), drow, width, slab);
            }
        }
    }
}

/// One input row's scatter: `w · drow` added into slab row `c` for each of
/// its `(c, w)` entries, in order.
#[inline(always)]
fn scatter_row(
    entries: impl Iterator<Item = (usize, f64)>,
    drow: &[f64],
    width: usize,
    slab: &mut [f64],
) {
    for (c, w) in entries {
        for (o, d) in slab[c * width..(c + 1) * width].iter_mut().zip(drow) {
            *o += w * d;
        }
    }
}

/// The textbook loops the row kernel and the scatter replaced, kept as their
/// oracles: the weights applied by a `normalize_rows` copy, then one pass
/// over the stored entries adding each weighted dense row in place.
#[cfg(test)]
mod oracle {
    use super::*;

    fn weighted(sparse: &CsrMatrix, weights: RowWeights) -> CsrMatrix {
        let mut weighted = sparse.clone();
        if weights == RowWeights::RowNormalized {
            weighted.normalize_rows();
        }
        weighted
    }

    /// `W · dense`, row by row.
    pub(super) fn spmm(
        sparse: &CsrMatrix,
        dense: &DenseMatrix,
        weights: RowWeights,
    ) -> DenseMatrix {
        let w = weighted(sparse, weights);
        let n = dense.cols();
        let mut out = DenseMatrix::zeros(w.rows(), n);
        for r in 0..w.rows() {
            for (c, v) in w.row_entries(r) {
                for j in 0..n {
                    out.as_mut_slice()[r * n + j] += v * dense.as_slice()[c * n + j];
                }
            }
        }
        out
    }

    /// `W^T · dense`, scattering each input row in order.
    pub(super) fn spmm_transpose(
        sparse: &CsrMatrix,
        dense: &DenseMatrix,
        weights: RowWeights,
    ) -> DenseMatrix {
        let w = weighted(sparse, weights);
        let n = dense.cols();
        let mut out = DenseMatrix::zeros(w.cols(), n);
        for r in 0..w.rows() {
            for (c, v) in w.row_entries(r) {
                for j in 0..n {
                    out.as_mut_slice()[c * n + j] += v * dense.as_slice()[r * n + j];
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Column counts around every register block and in-place tail.
    const COLS: [usize; 13] = [1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65];

    /// An eighth `+0.0`, an eighth `-0.0`, the rest uniform in `[-1, 1]`.
    fn signed(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.gen_range(-1.0..=1.0),
        }
    }

    /// A 23 × 29 sparse matrix with stored `±0` entries and signed values,
    /// row 0 empty, row 1 summing to zero and row 2 holding only zeros.
    fn awkward_sparse(rng: &mut StdRng) -> CsrMatrix {
        let (rows, cols) = (23, 29);
        let mut data = vec![Vec::new(), vec![(3, 1.5), (7, -1.5)], vec![(4, 0.0), (9, -0.0)]];
        for _ in 3..rows {
            let kept: Vec<usize> = (0..cols).filter(|_| rng.gen_range(0..4) == 0).collect();
            data.push(kept.into_iter().map(|c| (c, signed(rng))).collect());
        }
        CsrMatrix::from_rows(rows, cols, data).unwrap()
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every compiled copy of the SpMM row kernel and of the transposed
    /// scatter this CPU runs equals its textbook loop bit for bit, under
    /// both weightings, at widths around every register block, with empty,
    /// zero-sum and all-zero rows and `±0` operands, on one and three
    /// threads (three split the scatter's columns into narrower slabs).  The
    /// unit-valued copies on a pattern equal the textbook loop on its
    /// stored twin, which divides by the summed ones.
    #[test]
    fn every_copy_is_bit_identical_to_the_textbook_loops() {
        let mut rng = StdRng::seed_from_u64(51);
        let awkward = awkward_sparse(&mut rng);
        let (rows, cols) = awkward.shape();
        let indptr = awkward.indptr().to_vec();
        let pattern = CsrMatrix::from_pattern(rows, cols, indptr, awkward.indices().to_vec());
        let pattern = pattern.unwrap();
        let twin = crate::csr::oracle::stored_twin(&pattern);
        for (sparse, reference) in [(&awkward, &awkward), (&pattern, &twin)] {
            every_copy_matches(sparse, reference, &mut rng);
        }
    }

    fn every_copy_matches(sparse: &CsrMatrix, reference: &CsrMatrix, rng: &mut StdRng) {
        for n in COLS {
            let data = (0..sparse.cols() * n).map(|_| signed(rng)).collect();
            let dense = DenseMatrix::from_vec(sparse.cols(), n, data).unwrap();
            let data = (0..sparse.rows() * n).map(|_| signed(rng)).collect();
            let dense_t = DenseMatrix::from_vec(sparse.rows(), n, data).unwrap();
            for weights in [RowWeights::Stored, RowWeights::RowNormalized] {
                let want = bits(&oracle::spmm(reference, &dense, weights));
                let want_t = bits(&oracle::spmm_transpose(reference, &dense_t, weights));
                for isa in Isa::each_copy() {
                    for threads in [1usize, 3] {
                        let par = Parallelism::new(threads);
                        let unit = sparse.is_unit_valued();
                        let shape = format!("{isa:?} {weights:?} n={n} threads={threads} {unit}");
                        let got = spmm_with(sparse, &dense, weights, par, isa).unwrap();
                        assert_eq!(bits(&got), want, "spmm {shape}");
                        let got = spmm_transpose_with(sparse, &dense_t, weights, par, isa).unwrap();
                        assert_eq!(bits(&got), want_t, "spmm_transpose {shape}");
                    }
                }
            }
        }
    }

    fn small_sparse() -> CsrMatrix {
        CsrMatrix::from_coo(
            &CooMatrix::from_triples(3, 4, vec![(0, 0, 1.0), (0, 3, 2.0), (2, 1, -1.0)]).unwrap(),
        )
    }

    #[test]
    fn spmm_known_values() {
        let a = small_sparse();
        let h = DenseMatrix::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 8.0],
        ])
        .unwrap();
        let z = spmm(&a, &h).unwrap();
        assert_eq!(z.get(0, 0), 15.0);
        assert_eq!(z.get(0, 1), 18.0);
        assert_eq!(z.get(1, 0), 0.0);
        assert_eq!(z.get(2, 0), -3.0);
    }

    #[test]
    fn spmm_dimension_mismatch() {
        let a = small_sparse();
        let h = DenseMatrix::zeros(3, 2);
        assert!(spmm(&a, &h).is_err());
    }

    #[test]
    fn spmm_transpose_matches_explicit_transpose() {
        let a = small_sparse();
        let g = DenseMatrix::from_rows(&[vec![1.0, 0.5], vec![2.0, -1.0], vec![0.0, 3.0]]).unwrap();
        let fused = spmm_transpose(&a, &g).unwrap();
        let explicit = spmm(&a.transpose(), &g).unwrap();
        assert!(fused.approx_eq(&explicit, 1e-12));
    }

    #[test]
    fn spmm_transpose_dimension_mismatch() {
        let a = small_sparse();
        let g = DenseMatrix::zeros(4, 2);
        assert!(spmm_transpose(&a, &g).is_err());
    }

    #[test]
    fn parallel_variants_match_serial_byte_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut coo = CooMatrix::new(40, 32);
        for _ in 0..300 {
            coo.push(rng.gen_range(0..40), rng.gen_range(0..32), rng.gen_range(-2.0..2.0)).unwrap();
        }
        let sparse = CsrMatrix::from_coo(&coo);
        let dense = DenseMatrix::random_uniform(32, 9, 1.5, &mut rng);
        let dense_t = DenseMatrix::random_uniform(40, 9, 1.5, &mut rng);
        let serial = spmm(&sparse, &dense).unwrap();
        let serial_t = spmm_transpose(&sparse, &dense_t).unwrap();
        for threads in [1usize, 2, 8] {
            let par = Parallelism::new(threads);
            assert_eq!(spmm_parallel(&sparse, &dense, RowWeights::Stored, par).unwrap(), serial);
            assert_eq!(
                spmm_transpose_parallel(&sparse, &dense_t, RowWeights::Stored, par).unwrap(),
                serial_t
            );
        }
    }

    /// Row-normalised weighting is bit-identical to multiplying by a
    /// `normalize_rows` copy — including a row summing to zero, which keeps
    /// its values, and an empty row — at any thread count.
    #[test]
    fn row_normalized_weights_equal_a_normalized_copy() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        let mut coo = CooMatrix::new(40, 32);
        for _ in 0..300 {
            coo.push(rng.gen_range(2..40), rng.gen_range(0..32), rng.gen_range(0.1..2.0)).unwrap();
        }
        coo.push(0, 3, 1.5).unwrap();
        coo.push(0, 7, -1.5).unwrap();
        let sparse = CsrMatrix::from_coo(&coo);
        let mut normalized = sparse.clone();
        normalized.normalize_rows();
        let dense = DenseMatrix::random_uniform(32, 9, 1.5, &mut rng);
        let dense_t = DenseMatrix::random_uniform(40, 9, 1.5, &mut rng);
        let bits = |m: &DenseMatrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = bits(&spmm(&normalized, &dense).unwrap());
        let want_t = bits(&spmm_transpose(&normalized, &dense_t).unwrap());
        let mean = RowWeights::RowNormalized;
        for threads in [1usize, 2, 8] {
            let par = Parallelism::new(threads);
            let got = spmm_parallel(&sparse, &dense, mean, par).unwrap();
            assert_eq!(bits(&got), want, "spmm at {threads} threads");
            let got = spmm_transpose_parallel(&sparse, &dense_t, mean, par).unwrap();
            assert_eq!(bits(&got), want_t, "spmm_transpose at {threads} threads");
        }
    }

    #[test]
    fn parallel_variants_validate_dimensions() {
        let sparse = small_sparse();
        let par = Parallelism::new(4);
        let stored = RowWeights::Stored;
        assert!(spmm_parallel(&sparse, &DenseMatrix::zeros(3, 2), stored, par).is_err());
        assert!(spmm_transpose_parallel(&sparse, &DenseMatrix::zeros(4, 2), stored, par).is_err());
    }

    proptest! {
        #[test]
        fn prop_spmm_parallel_byte_identical(
            entries in proptest::collection::vec((0usize..6, 0usize..7, -2.0f64..2.0), 0..30),
            dense_vals in proptest::collection::vec(-2.0f64..2.0, 7 * 3),
            thread_choice in 0usize..3,
        ) {
            let sparse = CsrMatrix::from_coo(&CooMatrix::from_triples(6, 7, entries).unwrap());
            let dense = DenseMatrix::from_vec(7, 3, dense_vals).unwrap();
            let par = Parallelism::new([1usize, 2, 8][thread_choice]);
            prop_assert_eq!(
                spmm_parallel(&sparse, &dense, RowWeights::Stored, par).unwrap(),
                spmm(&sparse, &dense).unwrap()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_spmm_matches_dense(
            entries in proptest::collection::vec((0usize..6, 0usize..7, -2.0f64..2.0), 0..30),
            dense_vals in proptest::collection::vec(-2.0f64..2.0, 7 * 3),
        ) {
            let sparse = CsrMatrix::from_coo(&CooMatrix::from_triples(6, 7, entries).unwrap());
            let dense = DenseMatrix::from_vec(7, 3, dense_vals).unwrap();
            let sp = spmm(&sparse, &dense).unwrap();
            let reference = sparse.to_dense().matmul(&dense).unwrap();
            prop_assert!(sp.approx_eq(&reference, 1e-9));
        }

        #[test]
        fn prop_spmm_transpose_matches_dense(
            entries in proptest::collection::vec((0usize..6, 0usize..7, -2.0f64..2.0), 0..30),
            dense_vals in proptest::collection::vec(-2.0f64..2.0, 6 * 2),
        ) {
            let sparse = CsrMatrix::from_coo(&CooMatrix::from_triples(6, 7, entries).unwrap());
            let dense = DenseMatrix::from_vec(6, 2, dense_vals).unwrap();
            let sp = spmm_transpose(&sparse, &dense).unwrap();
            let reference = sparse.to_dense().transpose().matmul(&dense).unwrap();
            prop_assert!(sp.approx_eq(&reference, 1e-9));
        }
    }
}
