//! # dmbs-matrix
//!
//! Sparse and dense matrix substrate used by the `dmbs` (Distributed
//! Matrix-Based Sampling) reproduction of *Distributed Matrix-Based Sampling
//! for Graph Neural Network Training* (MLSys 2024).
//!
//! The paper expresses GNN minibatch sampling as sparse matrix products
//! (SpGEMM) between a sampler matrix `Q` and the graph adjacency matrix `A`,
//! followed by row-wise normalization, row-wise inverse-transform sampling and
//! row/column extraction.  This crate provides everything those steps need:
//!
//! * [`CooMatrix`], [`CsrMatrix`] and [`CscMatrix`] sparse formats with
//!   conversions between them,
//! * a dense-accumulator row-wise (Gustavson) SpGEMM ([`spgemm::spgemm`])
//!   standing in for cuSPARSE / nsparse,
//! * structure-aware extraction kernels ([`extract`]) that compute the
//!   selection-matrix products (`Q_R · A`, `A · Q_C`) as a row gather and a
//!   masked column filter, byte-identical to their SpGEMM formulation,
//! * a reusable kernel scratch ([`workspace::SpgemmWorkspace`]) so repeated
//!   products and extractions stop reallocating their accumulators,
//! * sparse × dense SpMM ([`spmm::spmm`]) used by neighborhood aggregation,
//!   which can row-normalise the sparse operand on the fly
//!   ([`spmm::RowWeights`]),
//! * structural operators (vertical stacking, block-diagonal composition,
//!   row/column extraction) used by bulk sampling,
//! * a small dense matrix type ([`DenseMatrix`]) with the GEMM/transpose/
//!   reduction kernels needed by the GNN training substrate; its three
//!   products share one register-blocked micro-kernel, compiled (like the
//!   SpMMs) for the build target, AVX2 and AVX-512F with the widest copy the
//!   CPU runs chosen at run time, byte-identical to the textbook loops,
//! * a delta overlay ([`DeltaCsr`]) holding batched edge inserts/deletes
//!   ([`DeltaBatch`]) merged lazily into a rebuilt base — the substrate of
//!   dynamic-graph ingest,
//! * prefix sums used by inverse transform sampling,
//! * a scoped worker pool ([`pool`]) with a [`Parallelism`] knob driving the
//!   deterministic row-blocked parallel kernels
//!   ([`spgemm::spgemm_parallel`], [`spmm::spmm_parallel`],
//!   [`DenseMatrix::matmul_parallel`]).
//!
//! All numeric values are `f64`.  Indices are `usize` throughout; shapes are
//! validated eagerly and dimension mismatches are reported through
//! [`MatrixError`] rather than panics wherever a caller could reasonably trip
//! them with untrusted input.
//!
//! # Example
//!
//! ```
//! use dmbs_matrix::{CooMatrix, CsrMatrix, spgemm::spgemm};
//!
//! # fn main() -> Result<(), dmbs_matrix::MatrixError> {
//! // Build the example graph from Figure 1 of the paper.
//! let mut coo = CooMatrix::new(6, 6);
//! for &(r, c) in &[(0usize, 1usize), (1, 0), (1, 2), (1, 4), (2, 1), (2, 3),
//!                  (3, 2), (3, 4), (3, 5), (4, 1), (4, 3), (4, 5), (5, 3), (5, 4)] {
//!     coo.push(r, c, 1.0)?;
//! }
//! let a = CsrMatrix::from_coo(&coo);
//!
//! // Q^L for a minibatch {1, 5}: one nonzero per row (GraphSAGE construction).
//! let mut q = CooMatrix::new(2, 6);
//! q.push(0, 1, 1.0)?;
//! q.push(1, 5, 1.0)?;
//! let q = CsrMatrix::from_coo(&q);
//!
//! // P = Q * A has one probability distribution (row) per batch vertex.
//! let p = spgemm(&q, &a)?;
//! assert_eq!(p.shape(), (2, 6));
//! assert_eq!(p.row_nnz(0), 3); // vertex 1 has neighbors {0, 2, 4}
//! assert_eq!(p.row_nnz(1), 2); // vertex 5 has neighbors {2, 3}
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coo;
pub mod csc;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod error;
pub mod extract;
mod isa;
pub mod ops;
pub mod pool;
pub mod prefix;
pub mod spgemm;
pub mod spmm;
pub mod workspace;

pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use delta::{DeltaBatch, DeltaCsr};
pub use dense::DenseMatrix;
pub use error::MatrixError;
pub use pool::Parallelism;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, MatrixError>;
