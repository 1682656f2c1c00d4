//! # dmbs — Distributed Matrix-Based Sampling for GNN Training
//!
//! Umbrella crate re-exporting the full public API of the `dmbs` workspace, a
//! from-scratch Rust reproduction of *Distributed Matrix-Based Sampling for
//! Graph Neural Network Training* (Tripathy, Yelick, Buluç — MLSys 2024).
//!
//! The workspace is organised as:
//!
//! * [`matrix`] — sparse (COO/CSR/CSC) and dense matrices, SpGEMM, SpMM;
//! * [`graph`] — synthetic graph generators, OGB-like dataset stand-ins,
//!   1D / 1.5D partitioning and minibatch construction;
//! * [`comm`] — a simulated multi-rank runtime (threads + channels) with
//!   collectives and an α–β communication cost model;
//! * [`sampling`] — the paper's contribution: matrix-based bulk minibatch
//!   sampling (GraphSAGE, LADIES, FastGCN) behind the unified
//!   [`SamplingBackend`](sampling::SamplingBackend) trait, whose three
//!   implementations cover single-device (§4), graph-replicated (§5.1) and
//!   1.5D graph-partitioned (§5.2) execution of the *same* Algorithm 1;
//! * [`gnn`] — GraphSAGE layers with explicit gradients, losses, optimizers,
//!   distributed feature fetching, and the fluent
//!   [`TrainingSession`](gnn::TrainingSession) builder whose
//!   [`MinibatchStream`](gnn::MinibatchStream) overlaps bulk sampling with
//!   training (§6 pipelining).
//!
//! # Quickstart
//!
//! Any sampler composes with any backend through one entry point, and a
//! `TrainingSession` drives the end-to-end pipeline:
//!
//! ```
//! use dmbs::gnn::TrainingSession;
//! use dmbs::graph::datasets::{build_dataset, DatasetConfig};
//! use dmbs::sampling::{
//!     BulkSamplerConfig, GraphSageSampler, LocalBackend, SamplingBackend,
//! };
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A small synthetic dataset with features and labels.
//! let mut cfg = DatasetConfig::products_like(8); // 256 vertices
//! cfg.feature_dim = 8;
//! cfg.num_classes = 4;
//! cfg.train_fraction = 0.5;
//! let dataset = build_dataset(&cfg, &mut StdRng::seed_from_u64(0))?;
//!
//! // Bulk-sample two minibatches through the unified backend API.
//! let sampler = GraphSageSampler::new(vec![5, 5]);
//! let backend = LocalBackend::new(BulkSamplerConfig::new(16, 2))?;
//! let batches: Vec<Vec<usize>> =
//!     dataset.train_set.chunks(16).take(2).map(<[usize]>::to_vec).collect();
//! let epoch = backend.sample_epoch(&sampler, dataset.graph.adjacency(), &batches, 0)?;
//! assert_eq!(epoch.num_batches(), 2);
//!
//! // Or let a TrainingSession run the whole pipeline with prefetch.
//! let report = TrainingSession::builder()
//!     .dataset(dataset)
//!     .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
//!     .backend(LocalBackend::new(BulkSamplerConfig::new(16, 2))?)
//!     .hidden_dim(8)
//!     .epochs(1)
//!     .build()?
//!     .train()?;
//! assert_eq!(report.epochs.len(), 1);
//! # Ok(())
//! # }
//! ```
//!
//! Swap [`LocalBackend`](sampling::LocalBackend) for
//! [`ReplicatedBackend`](sampling::ReplicatedBackend) or
//! [`Partitioned1p5dBackend`](sampling::Partitioned1p5dBackend) — built from
//! the shared [`DistConfig`](sampling::DistConfig) — and the same session
//! trains data-parallel over simulated ranks.

#![deny(missing_docs)]

pub use dmbs_comm as comm;
pub use dmbs_gnn as gnn;
pub use dmbs_graph as graph;
pub use dmbs_matrix as matrix;
pub use dmbs_sampling as sampling;

/// Compiles `TUNING.md`'s Rust snippet as a doctest, so the guide cannot
/// drift from the tuner types it names.
#[cfg(doctest)]
#[doc = include_str!("../TUNING.md")]
struct TuningGuide;
