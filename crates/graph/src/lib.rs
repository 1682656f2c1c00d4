//! # dmbs-graph
//!
//! Graph substrate for the `dmbs` reproduction of *Distributed Matrix-Based
//! Sampling for Graph Neural Network Training* (MLSys 2024).
//!
//! The paper evaluates on three large graphs (OGB `products`, OGB
//! `papers100M` and the HipMCL `protein` graph) that are not redistributable
//! and far exceed a single-machine CPU budget.  This crate provides:
//!
//! * a [`Graph`] type wrapping a CSR adjacency matrix with degrees and
//!   optional vertex features / labels,
//! * synthetic generators ([`generators`]) — R-MAT, Erdős–Rényi, Chung–Lu and
//!   small deterministic graphs — used to build scaled-down stand-ins with the
//!   same average degree and skew as the paper's datasets ([`datasets`]),
//! * the block-row partitioner ([`partition`]) behind the 1D and 1.5D
//!   layouts of §5 and §6 of the paper,
//! * versioned incremental edge ingest ([`ingest`]) applying
//!   [`dmbs_matrix::DeltaBatch`]es with partition-aware owner routing,
//! * training-set shuffling and minibatch construction ([`minibatch`]).
//!
//! # Example
//!
//! ```
//! use dmbs_graph::generators::{rmat, RmatConfig};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = rmat(&RmatConfig::new(8, 4), &mut rng)?;
//! assert_eq!(graph.num_vertices(), 256);
//! assert!(graph.num_edges() > 0);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod datasets;
pub mod generators;
pub mod graph;
pub mod ingest;
pub mod minibatch;
pub mod partition;

pub use graph::{Graph, GraphError};
pub use ingest::{GraphIngest, IngestMode, IngestReceipt};
pub use minibatch::MinibatchPlan;
pub use partition::OneDPartition;

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, GraphError>;
