//! # dmbs-sampling
//!
//! Matrix-based bulk minibatch sampling for GNN training — the primary
//! contribution of *Distributed Matrix-Based Sampling for Graph Neural
//! Network Training* (MLSys 2024), reimplemented from scratch in Rust.
//!
//! The paper expresses GNN sampling algorithms as sparse matrix operations
//! (Algorithm 1):
//!
//! ```text
//! for l = L .. 1:
//!     P       = Q^l · A            (SpGEMM)
//!     P       = NORM(P)            (sampler-specific row normalization)
//!     Q^(l-1) = SAMPLE(P, b, s)    (inverse transform sampling per row)
//!     A^l     = EXTRACT(A, Q^l, Q^(l-1))
//! ```
//!
//! and samples `k` minibatches *in bulk* by vertically stacking their `Q`,
//! `P` and `A^l` matrices (Equation 1).  On one device `P = Q^l · A` for a
//! one-nonzero-per-row `Q^l` is a row selection, so the implementation
//! reads those rows of `A` in place and applies `NORM` inside `SAMPLE`'s
//! prefix scan, bit-identical to the listing above.
//!
//! The crate's API mirrors the paper's central claim — one formulation for
//! **every sampling algorithm × every distribution strategy** — with two
//! orthogonal abstractions:
//!
//! * the [`Sampler`] trait picks the algorithm:
//!   [`GraphSageSampler`] (node-wise, §4.1), [`LadiesSampler`] (layer-wise
//!   dependency, §4.2), [`FastGcnSampler`] (degree-based layer-wise,
//!   §2.2.2);
//! * the [`SamplingBackend`] trait picks the distribution strategy:
//!   [`LocalBackend`] (single device, §4), [`ReplicatedBackend`]
//!   (Graph Replicated, §5.1: `Q` partitioned 1D, `A` replicated, zero
//!   communication) and [`Partitioned1p5dBackend`] (Graph Partitioned, §5.2:
//!   a `p/c × c` grid driving the sparsity-aware 1.5D SpGEMM of
//!   Algorithm 2), all sharing one [`DistConfig`] and returning
//!   [`EpochSamples`].
//!
//! Because bulk sampling materializes every frontier up front, the
//! feature-fetching phase can be planned: [`FetchPlan`] deduplicates the
//! union of the sampled layer-0 frontiers, the basis of the `dmbs-gnn`
//! feature cache's prefetch-once pipeline.
//!
//! Both axes meet in one pipeline: the same node-wise or layer-wise driver
//! runs a sampler's [`SamplerSpec`] on one device or on a 1.5D process row.
//!
//! Supporting modules: [`its`] — inverse transform sampling over CSR
//! probability rows, including the per-row-seeded parallel
//! [`its::sample_rows_par`] whose output is byte-identical at any thread
//! count (the [`BulkSamplerConfig::parallelism`] knob); [`baseline`] —
//! a per-vertex sampler standing in for Quiver/DGL and a reference
//! per-batch CPU LADIES; [`replicated`] / [`partitioned`] — the batch
//! assignment and the 1.5D SpGEMM behind the distributed backends.
//!
//! # Example: one sampler, two distribution strategies
//!
//! ```
//! use dmbs_sampling::{
//!     BulkSamplerConfig, DistConfig, GraphSageSampler, LocalBackend,
//!     Partitioned1p5dBackend, SamplingBackend,
//! };
//! use dmbs_graph::generators::figure1_example;
//!
//! # fn main() -> Result<(), dmbs_sampling::SamplingError> {
//! let graph = figure1_example();
//! let sampler = GraphSageSampler::new(vec![2]);
//! let batches = vec![vec![1, 5], vec![0, 3]];
//! let bulk = BulkSamplerConfig::new(2, 2);
//!
//! // Single device …
//! let local = LocalBackend::new(bulk)?;
//! let out = local.sample_epoch(&sampler, graph.adjacency(), &batches, 7)?;
//! assert_eq!(out.num_batches(), 2);
//! // Layer L of the first minibatch has the batch vertices as rows.
//! assert_eq!(out.minibatches()[0].layers.last().unwrap().rows, vec![1, 5]);
//!
//! // … and the same call against a 4-rank, c = 2 partitioned grid.
//! let partitioned = Partitioned1p5dBackend::new(DistConfig::new(4, 2, bulk))?;
//! let out = partitioned.sample_epoch(&sampler, graph.adjacency(), &batches, 7)?;
//! assert_eq!(out.num_batches(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod backend;
pub mod baseline;
pub mod error;
pub mod fastgcn;
pub mod its;
pub mod ladies;
pub mod micro;
pub mod partitioned;
mod pipeline;
pub mod plan;
pub mod replicated;
pub mod sage;
pub mod sampler;
pub mod seed;
pub mod spec;

pub use backend::{
    DistConfig, EpochSamples, LocalBackend, Partitioned1p5dBackend, ReplicatedBackend,
    SamplingBackend,
};
pub use error::SamplingError;
pub use fastgcn::FastGcnSampler;
pub use ladies::LadiesSampler;
pub use micro::{request_stream_seed, sample_micro_bulk, MicroBulkSample, MicroRequest};
pub use partitioned::RankRows;
pub use plan::{BulkSampleOutput, FetchPlan, LayerSample, MinibatchSample};
pub use sage::GraphSageSampler;
pub use sampler::{BulkSamplerConfig, Sampler};
pub use spec::{BackendSpec, SamplerSpec};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, SamplingError>;
