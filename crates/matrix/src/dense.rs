//! Row-major dense matrices.
//!
//! The GNN substrate (`dmbs-gnn`) uses dense matrices for embeddings, weights
//! and gradients.  Only the kernels needed there are implemented: GEMM,
//! transpose, element-wise maps, row reductions, row gather/scatter and a few
//! utility constructors.
//!
//! The three products ([`DenseMatrix::matmul`],
//! [`DenseMatrix::transpose_matmul`], [`DenseMatrix::matmul_transpose`]) and
//! their `_parallel` forms share one register-blocked micro-kernel: a 4 × 8 tile
//! of the output is held in registers while `k` runs in ascending order.
//! Every output entry is summed from `+0.0` over ascending `k` with a
//! separate multiply and add, exactly as the textbook loops do, so the
//! result is byte-identical to them (ARCHITECTURE.md, "Propagation at the
//! kernel tier", gives the argument).  The kernel is compiled twice, once
//! for the baseline target and once with AVX2 enabled, and the AVX2 copy is
//! chosen at run time where the CPU has it.

use crate::error::MatrixError;
use crate::pool::Parallelism;
use crate::Result;
use serde::{Deserialize, Serialize};

/// Output rows of the GEMM register tile.
const TILE_ROWS: usize = 4;
/// Output columns of the GEMM register tile: two 4-lane AVX2 registers.
const TILE_COLS: usize = 8;
/// Rows of the left operand that `transpose_matmul` transposes at a time;
/// each chunk continues the tile accumulators from the output.  At 64 the
/// chunk of the right operand a 64-wide product sweeps per row tile (32 KiB)
/// stays in L1; 128 or more halves the kernel's speed.
const TN_CHUNK: usize = 64;

/// A GEMM kernel: `out (+)= a · b` over row-major `a` (rows × `k`), `b`
/// (`k` × `n`) and `out` (rows × `n`, `n > 0`); with `accumulate` each entry
/// continues from its value in `out`, otherwise from `+0.0`.
type Kernel = fn(&[f64], usize, &[f64], usize, &mut [f64], bool);

/// The [`Kernel`] on the widest instruction set the CPU offers.
fn gemm(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64], accumulate: bool) {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") {
        // SAFETY: `gemm_avx2`'s only requirement is that the CPU supports
        // AVX2, which was detected on the line above.
        return unsafe { gemm_avx2(a, k, b, n, out, accumulate) };
    }
    gemm_portable(a, k, b, n, out, accumulate)
}

/// [`gemm_body`] compiled for the AVX2 instruction set.  AVX2 alone brings
/// no fused multiply-add, so the arithmetic is the portable copy's.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_avx2(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64], accumulate: bool) {
    gemm_body(a, k, b, n, out, accumulate)
}

/// [`gemm_body`] compiled for the baseline target.
fn gemm_portable(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64], accumulate: bool) {
    gemm_body(a, k, b, n, out, accumulate)
}

/// The micro-kernel: 4-row tiles, then a 1-row tile for the leftover rows.
#[inline(always)]
fn gemm_body(a: &[f64], k: usize, b: &[f64], n: usize, out: &mut [f64], accumulate: bool) {
    let rows = out.len() / n;
    let mut i = 0;
    while i + TILE_ROWS <= rows {
        tile_row::<TILE_ROWS>(a, k, b, n, out, i, accumulate);
        i += TILE_ROWS;
    }
    for i in i..rows {
        tile_row::<1>(a, k, b, n, out, i, accumulate);
    }
}

/// Output rows `i..i + R`: 8-column tiles, then 1-column tiles.
#[inline(always)]
fn tile_row<const R: usize>(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    i: usize,
    accumulate: bool,
) {
    let mut j = 0;
    while j + TILE_COLS <= n {
        tile::<R, TILE_COLS>(a, k, b, n, out, i, j, accumulate);
        j += TILE_COLS;
    }
    for j in j..n {
        tile::<R, 1>(a, k, b, n, out, i, j, accumulate);
    }
}

/// One `R × C` output tile held in registers while `k` ascends.  The 1-row
/// tile skips zero left-hand entries, as the textbook i-k-j loop does; the
/// 4-row tile adds their `±0` products, which changes nothing (an
/// accumulator that starts at `+0.0` is never `−0.0`, so adding `±0` to it
/// is exact).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile<const R: usize, const C: usize>(
    a: &[f64],
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    i: usize,
    j: usize,
    accumulate: bool,
) {
    let mut acc = [[0.0f64; C]; R];
    if accumulate {
        for (r, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&out[(i + r) * n + j..][..C]);
        }
    }
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| &a[(i + r) * k..][..k]);
    for kk in 0..k {
        let b_tile: &[f64; C] = b[kk * n + j..][..C].try_into().expect("a tile is C wide");
        for (acc, a_row) in acc.iter_mut().zip(&a_rows) {
            let x = a_row[kk];
            if R == 1 && x == 0.0 {
                continue;
            }
            for (s, &y) in acc.iter_mut().zip(b_tile) {
                *s += x * y;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[(i + r) * n + j..][..C].copy_from_slice(acc);
    }
}

/// A row-major dense matrix of `f64` values.
///
/// # Example
///
/// ```
/// use dmbs_matrix::DenseMatrix;
///
/// # fn main() -> Result<(), dmbs_matrix::MatrixError> {
/// let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = DenseMatrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a `rows x cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        DenseMatrix { rows, cols, data: vec![value; rows * cols] }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if rows have differing
    /// lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() {
            return Ok(Self::zeros(0, 0));
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MatrixError::InvalidStructure(format!(
                    "row {i} has length {} but expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(DenseMatrix { rows: rows.len(), cols, data })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::InvalidStructure`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(MatrixError::InvalidStructure(format!(
                "buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(DenseMatrix { rows, cols, data })
    }

    /// Creates a matrix with entries drawn uniformly from `[-scale, scale]`.
    pub fn random_uniform<R: rand::Rng + ?Sized>(
        rows: usize,
        cols: usize,
        scale: f64,
        rng: &mut R,
    ) -> Self {
        let data = (0..rows * cols).map(|_| rng.gen_range(-scale..=scale)).collect();
        DenseMatrix { rows, cols, data }
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

    /// Borrow of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable borrow of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Sets the value at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows` or `c >= cols`.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "dense index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_parallel(rhs, Parallelism::serial())
    }

    /// Matrix product `self^T * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.transpose_matmul_parallel(rhs, Parallelism::serial())
    }

    /// Matrix product `self * rhs^T`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        self.matmul_transpose_parallel(rhs, Parallelism::serial())
    }

    /// [`DenseMatrix::matmul`] on `parallelism` worker threads: row blocks in
    /// multiples of the 4-row tile, so the result is byte-identical at any
    /// thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul_parallel(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
    ) -> Result<DenseMatrix> {
        self.matmul_with(rhs, parallelism, gemm)
    }

    /// [`DenseMatrix::transpose_matmul`] on `parallelism` worker threads:
    /// blocks of the output's rows, byte-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.rows() != rhs.rows()`.
    pub fn transpose_matmul_parallel(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
    ) -> Result<DenseMatrix> {
        self.transpose_matmul_with(rhs, parallelism, gemm)
    }

    /// [`DenseMatrix::matmul_transpose`] on `parallelism` worker threads: row
    /// blocks in multiples of the 4-row tile, byte-identical at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if `self.cols() != rhs.cols()`.
    pub fn matmul_transpose_parallel(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
    ) -> Result<DenseMatrix> {
        self.matmul_transpose_with(rhs, parallelism, gemm)
    }

    fn matmul_with(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
        kernel: Kernel,
    ) -> Result<DenseMatrix> {
        if self.cols != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "dense matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.cols);
        let k = self.cols;
        parallelism.for_each_row_block(&mut out.data, rhs.cols, TILE_ROWS, |rows, block| {
            kernel(&self.data[rows.start * k..rows.end * k], k, &rhs.data, rhs.cols, block, false)
        });
        Ok(out)
    }

    fn transpose_matmul_with(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
        kernel: Kernel,
    ) -> Result<DenseMatrix> {
        if self.rows != rhs.rows {
            return Err(MatrixError::DimensionMismatch {
                op: "dense transpose_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.cols, rhs.cols);
        let (k, n) = (self.rows, rhs.cols);
        parallelism.for_each_row_block(&mut out.data, n, TILE_ROWS, |cols, block| {
            // `chunk` holds rows `k0..k0 + kc` of `self`, restricted to this
            // block's columns, transposed: `chunk[i * kc + kk]`.
            let mut chunk = vec![0.0; cols.len() * TN_CHUNK.min(k)];
            for k0 in (0..k).step_by(TN_CHUNK) {
                let kc = TN_CHUNK.min(k - k0);
                for kk in 0..kc {
                    let src = &self.row(k0 + kk)[cols.clone()];
                    for (i, &v) in src.iter().enumerate() {
                        chunk[i * kc + kk] = v;
                    }
                }
                let chunk = &chunk[..cols.len() * kc];
                kernel(chunk, kc, &rhs.data[k0 * n..(k0 + kc) * n], n, block, true);
            }
        });
        Ok(out)
    }

    fn matmul_transpose_with(
        &self,
        rhs: &DenseMatrix,
        parallelism: Parallelism,
        kernel: Kernel,
    ) -> Result<DenseMatrix> {
        if self.cols != rhs.cols {
            return Err(MatrixError::DimensionMismatch {
                op: "dense matmul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = DenseMatrix::zeros(self.rows, rhs.rows);
        // `rhs` is the small operand (a weight matrix): transposing it once
        // turns the dot products into the NN tile, summed in the same order.
        let rhs_t = rhs.transpose();
        let k = self.cols;
        parallelism.for_each_row_block(&mut out.data, rhs.rows, TILE_ROWS, |rows, block| {
            kernel(&self.data[rows.start * k..rows.end * k], k, &rhs_t.data, rhs.rows, block, false)
        });
        Ok(out)
    }

    /// Returns the transpose of the matrix.
    pub fn transpose(&self) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Element-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn add(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(DenseMatrix { rows: self.rows, cols: self.cols, data })
    }

    /// In-place element-wise `self += alpha * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &DenseMatrix) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense axpy",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns a new matrix with `f` applied to each entry.
    pub fn map<F: Fn(f64) -> f64>(&self, f: F) -> DenseMatrix {
        DenseMatrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::DimensionMismatch`] if shapes differ.
    pub fn hadamard(&self, rhs: &DenseMatrix) -> Result<DenseMatrix> {
        if self.shape() != rhs.shape() {
            return Err(MatrixError::DimensionMismatch {
                op: "dense hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).collect();
        Ok(DenseMatrix { rows: self.rows, cols: self.cols, data })
    }

    /// Multiplies every entry by `alpha` and returns the result.
    pub fn scale(&self, alpha: f64) -> DenseMatrix {
        self.map(|v| v * alpha)
    }

    /// Gathers the given rows into a new matrix (duplicates allowed).
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::IndexOutOfBounds`] if any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            if src >= self.rows {
                return Err(MatrixError::IndexOutOfBounds {
                    row: src,
                    col: 0,
                    rows: self.rows,
                    cols: self.cols,
                });
            }
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        Ok(out)
    }

    /// Sum over every entry.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Per-row sums as a vector of length `rows`.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.rows).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Per-column mean as a vector of length `cols`.
    pub fn col_means(&self) -> Vec<f64> {
        if self.rows == 0 {
            return vec![0.0; self.cols];
        }
        let mut means = vec![0.0; self.cols];
        for i in 0..self.rows {
            for (m, v) in means.iter_mut().zip(self.row(i)) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Index of the maximum entry in each row (`argmax`), used for
    /// classification decisions.
    pub fn row_argmax(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| {
                let row = self.row(i);
                let mut best = 0;
                for (j, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = j;
                    }
                }
                best
            })
            .collect()
    }

    /// Approximate equality within `tol` (same shape, max absolute difference).
    pub fn approx_eq(&self, rhs: &DenseMatrix, tol: f64) -> bool {
        self.shape() == rhs.shape()
            && self.data.iter().zip(&rhs.data).all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Number of bytes required to store the matrix values.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl Default for DenseMatrix {
    fn default() -> Self {
        DenseMatrix::zeros(0, 0)
    }
}

/// The textbook loops the micro-kernel replaced, kept as its oracles.
#[cfg(test)]
mod oracle {
    use super::DenseMatrix;

    /// `a * b`, i-k-j, skipping zero `a` entries.
    pub(super) fn matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for k in 0..a.cols {
                let aik = a.data[i * a.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rrow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aik * r;
                }
            }
        }
        out
    }

    /// `a^T * b`, k-i-j, skipping zero `a` entries.
    pub(super) fn transpose_matmul(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.cols, b.cols);
        for k in 0..a.rows {
            for i in 0..a.cols {
                let aki = a.data[k * a.cols + i];
                if aki == 0.0 {
                    continue;
                }
                let rrow = &b.data[k * b.cols..(k + 1) * b.cols];
                let orow = &mut out.data[i * b.cols..(i + 1) * b.cols];
                for (o, r) in orow.iter_mut().zip(rrow.iter()) {
                    *o += aki * r;
                }
            }
        }
        out
    }

    /// `a * b^T` as one dot product per output entry.
    pub(super) fn matmul_transpose(a: &DenseMatrix, b: &DenseMatrix) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(a.rows, b.rows);
        for i in 0..a.rows {
            let arow = &a.data[i * a.cols..(i + 1) * a.cols];
            for j in 0..b.rows {
                let brow = &b.data[j * b.cols..(j + 1) * b.cols];
                let mut acc = 0.0;
                for (a, b) in arow.iter().zip(brow.iter()) {
                    acc += a * b;
                }
                out.data[i * b.rows + j] = acc;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A quarter `+0.0`, a quarter `-0.0`, the rest uniform in `[-1, 1]`.
    fn sparse_signed(rows: usize, cols: usize, rng: &mut StdRng) -> DenseMatrix {
        let data = (0..rows * cols)
            .map(|_| match rng.gen_range(0..8) {
                0..=1 => 0.0,
                2..=3 => -0.0,
                _ => rng.gen_range(-1.0..=1.0),
            })
            .collect();
        DenseMatrix::from_vec(rows, cols, data).unwrap()
    }

    fn bits(m: &DenseMatrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Every product, through the portable and the dispatched kernel and at
    /// several thread counts, equals its textbook loop bit for bit.
    #[test]
    fn products_are_bit_identical_to_the_textbook_loops() {
        let mut rng = StdRng::seed_from_u64(28);
        let kernels: [(&str, Kernel); 2] = [("portable", gemm_portable), ("dispatched", gemm)];
        for m in [0usize, 1, 3, 4, 5, 17] {
            for n in [1usize, 7, 8, 9, 16, 64] {
                for k in [0usize, 1, 64, 100, 128, 300] {
                    let a = sparse_signed(m, k, &mut rng);
                    let b = sparse_signed(k, n, &mut rng);
                    let a_t = sparse_signed(k, m, &mut rng);
                    let b_t = sparse_signed(n, k, &mut rng);
                    let want_nn = bits(&oracle::matmul(&a, &b));
                    let want_tn = bits(&oracle::transpose_matmul(&a_t, &b));
                    let want_nt = bits(&oracle::matmul_transpose(&a, &b_t));
                    for (name, kernel) in kernels {
                        for threads in [1usize, 2, 3, 8] {
                            let par = Parallelism::new(threads);
                            let shape = format!("{name} m={m} n={n} k={k} threads={threads}");
                            let got = a.matmul_with(&b, par, kernel).unwrap();
                            assert_eq!(bits(&got), want_nn, "NN {shape}");
                            let got = a_t.transpose_matmul_with(&b, par, kernel).unwrap();
                            assert_eq!(bits(&got), want_tn, "TN {shape}");
                            let got = a.matmul_transpose_with(&b_t, par, kernel).unwrap();
                            assert_eq!(bits(&got), want_nt, "NT {shape}");
                        }
                    }
                    assert_eq!(bits(&a.matmul(&b).unwrap()), want_nn);
                    assert_eq!(bits(&a_t.transpose_matmul(&b).unwrap()), want_tn);
                    assert_eq!(bits(&a.matmul_transpose(&b_t).unwrap()), want_nt);
                }
            }
        }
    }

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.sum(), 0.0);
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = sample();
        let i = DenseMatrix::identity(3);
        assert_eq!(a.matmul(&i).unwrap(), a);
    }

    #[test]
    fn matmul_known_result() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, DenseMatrix::from_rows(&[vec![4.0, 5.0], vec![10.0, 11.0]]).unwrap());
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = sample();
        let b = DenseMatrix::zeros(2, 2);
        assert!(matches!(a.matmul(&b), Err(MatrixError::DimensionMismatch { .. })));
    }

    #[test]
    fn transpose_involution() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = DenseMatrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(4, 5, 1.0, &mut rng);
        let direct = a.transpose().matmul(&b).unwrap();
        let fused = a.transpose_matmul(&b).unwrap();
        assert!(direct.approx_eq(&fused, 1e-12));
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = DenseMatrix::random_uniform(4, 3, 1.0, &mut rng);
        let b = DenseMatrix::random_uniform(5, 3, 1.0, &mut rng);
        let direct = a.matmul(&b.transpose()).unwrap();
        let fused = a.matmul_transpose(&b).unwrap();
        assert!(direct.approx_eq(&fused, 1e-12));
    }

    #[test]
    fn add_and_axpy() {
        let a = sample();
        let b = sample();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.get(1, 2), 12.0);
        let mut c = a.clone();
        c.axpy(2.0, &b).unwrap();
        assert_eq!(c.get(0, 0), 3.0);
    }

    #[test]
    fn hadamard_and_scale() {
        let a = sample();
        let h = a.hadamard(&a).unwrap();
        assert_eq!(h.get(1, 1), 25.0);
        assert_eq!(a.scale(2.0).get(0, 2), 6.0);
    }

    #[test]
    fn gather_rows_and_out_of_bounds() {
        let a = sample();
        let g = a.gather_rows(&[1, 0, 1]).unwrap();
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), a.row(1));
        assert!(a.gather_rows(&[5]).is_err());
    }

    #[test]
    fn reductions() {
        let a = sample();
        assert_eq!(a.sum(), 21.0);
        assert_eq!(a.row_sums(), vec![6.0, 15.0]);
        assert_eq!(a.col_means(), vec![2.5, 3.5, 4.5]);
        assert_eq!(a.hadamard(&a).unwrap().sum(), 91.0);
    }

    #[test]
    fn row_argmax_picks_first_max() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 3.0, 3.0], vec![5.0, 2.0, 1.0]]).unwrap();
        assert_eq!(a.row_argmax(), vec![1, 0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(DenseMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn from_rows_validates_lengths() {
        assert!(DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn random_uniform_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DenseMatrix::random_uniform(10, 10, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.abs() <= 0.5));
    }
}
