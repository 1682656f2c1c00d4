//! # dmbs-gnn
//!
//! GNN training substrate for the `dmbs` reproduction of *Distributed
//! Matrix-Based Sampling for Graph Neural Network Training* (MLSys 2024).
//!
//! The paper wraps its bulk sampling step in an end-to-end pipeline (§6,
//! Figure 3) with three phases per epoch: (1) bulk sampling, (2) feature
//! fetching via all-to-allv across process columns of a 1.5D-partitioned
//! feature matrix, and (3) forward/backward propagation of a GraphSAGE model.
//! This crate provides those pieces:
//!
//! * [`loss`] — softmax cross-entropy with gradient;
//! * [`optim`] — SGD and Adam optimizers;
//! * [`model`] — a multi-layer [`SageModel`] of mean-aggregator GraphSAGE
//!   layers and a linear classifier, with explicit forward/backward passes
//!   (no autograd dependency), that trains on the
//!   [`MinibatchSample`](dmbs_sampling::MinibatchSample)s produced by the
//!   sampling crate;
//! * [`features`] — the 1.5D-partitioned feature store with all-to-allv
//!   fetching (§6.2), including the no-replication variant of Figure 6, plus
//!   the communication-avoiding [`FeatureCache`] (epoch-pinned prefetch of a
//!   [`FetchPlan`](dmbs_sampling::FetchPlan), or byte-budgeted LRU) behind
//!   the `TrainingSession::builder().feature_cache(...)` knob;
//! * [`session`] — the [`TrainingSession`] builder that binds dataset ×
//!   sampler × backend and runs the streaming or distributed training loop;
//! * [`trainer`] — the per-phase epoch breakdowns ([`EpochStats`]) it
//!   reports, as plotted in Figures 4 and 6.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod activations;
pub mod error;
pub mod features;
mod layers;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod serve;
pub mod session;
pub mod trainer;
pub mod worker;

pub use error::GnnError;
pub use features::{
    ensure_plan_fresh, FeatureCache, FeatureCacheConfig, FeatureStore, InvalidationPolicy,
    PendingFetch, PendingPrefetch,
};
pub use model::SageModel;
pub use serve::{
    ModelSnapshot, RequestTrace, ServeError, ServeReport, ServeRequest, ServeResponse, ServeResult,
    ServeStats, ServingConfig, ServingSession, TraceArrival,
};
pub use session::{
    IngestEvent, Minibatch, MinibatchStream, Session, SessionBuilder, TrainingSession,
};
pub use trainer::{EpochStats, TrainingReport};

/// The cost-model-driven auto-tuner behind [`SessionBuilder::auto`],
/// re-exported so session users can inspect the chosen [`Schedule`] and the
/// scored grid without a direct `dmbs_comm` dependency.
pub use dmbs_comm::tune::{Schedule, ScoredChoice, TuningOutcome};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, GnnError>;
