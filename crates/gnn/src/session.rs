//! The [`TrainingSession`] builder and the streaming minibatch pipeline.
//!
//! This is the composable entry point to the end-to-end pipeline of §6
//! (Figure 3).  A session binds a dataset, a [`Sampler`] (which algorithm)
//! and a [`SamplingBackend`] (which distribution strategy) and offers two
//! views of an epoch:
//!
//! * [`TrainingSession::stream`] — a [`MinibatchStream`] iterator with
//!   **double-buffered bulk prefetch**: a background thread samples bulk
//!   group `g + 1` through the backend while the consumer trains on group
//!   `g`, making the paper's §6 sampling/training overlap a first-class API
//!   instead of trainer-internal logic;
//! * [`TrainingSession::train`] — the full training loop (feature fetching,
//!   forward/backward propagation, optimizer steps), running single-device
//!   over one stream of every epoch for the local backend (one sampling
//!   worker for the call, which samples the next epoch's first group while
//!   the last group of this one trains), or bulk-synchronous data-parallel
//!   (1.5D feature store + gradient all-reduce) for distributed backends.
//!
//! # Example
//!
//! ```
//! use dmbs_gnn::session::TrainingSession;
//! use dmbs_graph::datasets::{build_dataset, DatasetConfig};
//! use dmbs_sampling::{BulkSamplerConfig, GraphSageSampler, LocalBackend};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = DatasetConfig::products_like(7);
//! cfg.feature_dim = 8;
//! cfg.num_classes = 4;
//! cfg.train_fraction = 0.5;
//! let dataset = build_dataset(&cfg, &mut StdRng::seed_from_u64(1))?;
//!
//! let session = TrainingSession::builder()
//!     .dataset(dataset)
//!     .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
//!     .backend(LocalBackend::new(BulkSamplerConfig::new(16, 4))?)
//!     .hidden_dim(8)
//!     .epochs(1)
//!     .seed(3)
//!     .build()?;
//!
//! // Stream minibatches (bulk group g+1 samples while g is consumed) …
//! let mut count = 0;
//! for minibatch in session.stream(0)? {
//!     let minibatch = minibatch?;
//!     assert!(!minibatch.sample.batch.is_empty());
//!     count += 1;
//! }
//! assert!(count > 0);
//!
//! // … or run the whole training loop.
//! let report = session.train()?;
//! assert_eq!(report.epochs.len(), 1);
//! # Ok(())
//! # }
//! ```

use crate::error::GnnError;
use crate::features::{
    ensure_plan_fresh, FeatureCache, FeatureCacheConfig, FeatureStore, PendingPrefetch,
};
use crate::metrics::{accuracy, RunningMean};
use crate::model::SageModel;
use crate::optim::{Optimizer, Sgd};
use crate::serve::ModelSnapshot;
use crate::trainer::{EpochStats, TrainingReport};
use crate::Result;
use dmbs_comm::tune::{self, ProbeEpoch, ProbeSet, TuningGrid, TuningModel, TuningOutcome};
use dmbs_comm::{
    Codec, CommStats, Communicator, Group, Phase, PhaseProfile, ProcessGrid, Schedule,
    TransportSelect,
};
use dmbs_graph::datasets::Dataset;
use dmbs_graph::minibatch::MinibatchPlan;
use dmbs_graph::{GraphIngest, IngestMode};
use dmbs_matrix::{CsrMatrix, DeltaBatch, DenseMatrix};
use dmbs_sampling::backend::group_seed;
use dmbs_sampling::{
    BulkSampleOutput, FetchPlan, MinibatchSample, RankRows, Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Short alias so the fluent entry point reads
/// `Session::builder().dataset(d).sampler(s).backend(b).build()`.
pub type Session<S, B> = TrainingSession<S, B>;

/// One scheduled graph mutation of a dynamic-graph training run: after epoch
/// `after_epoch` finishes (its stats already booked), every rank applies
/// `batch` to its adjacency.  Pinned feature rows survive it: an edge batch
/// never changes a feature row.  The pinned rows of `A` it dirties (both
/// endpoints of every edge) are dropped and fetched again on next use.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestEvent {
    /// Epoch after which the batch lands (0-based).  At least one epoch must
    /// follow every ingest: `after_epoch + 1 < epochs`.
    pub after_epoch: usize,
    /// The edge insert/delete batch.
    pub batch: DeltaBatch,
}

/// Hyper-parameters a session adds on top of its sampler and backend.  The
/// run's shape — batch size `b`, bulk count `k`, replication `c` and the
/// kernels' thread count — is not among them: it lives in the backend's
/// [`SamplingBackend::bulk`] / [`SamplingBackend::dist`] and nowhere else.
/// `pub(crate)` (fields included) so the [`crate::worker`] module can rebuild
/// an exact session from a wire-decoded spec in a rank process.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SessionConfig {
    pub(crate) hidden_dim: usize,
    pub(crate) learning_rate: f64,
    pub(crate) epochs: usize,
    pub(crate) seed: u64,
    pub(crate) evaluate: bool,
    pub(crate) schedule: Schedule,
    pub(crate) transport: TransportSelect,
    pub(crate) grad_top_k: Option<usize>,
    pub(crate) ingest: Vec<IngestEvent>,
    pub(crate) ingest_mode: IngestMode,
}

impl SessionConfig {
    /// Checks the configuration against the backend and dataset it will run
    /// on.  Every session is constructed through this — the builder's and the
    /// one a rank process rebuilds from a wire-decoded job alike — so a forged
    /// job is a typed error, never a panic in the training loop.
    pub(crate) fn validate<B: SamplingBackend>(
        &self,
        backend: &B,
        dataset: &Dataset,
    ) -> Result<()> {
        // The built-in backends validate on construction; a custom one could
        // still report a zero `b` or `k`.
        backend.bulk().validate().map_err(GnnError::Sampling)?;
        if self.hidden_dim == 0 || self.epochs == 0 {
            return Err(GnnError::InvalidConfig("hidden_dim and epochs must be positive".into()));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(GnnError::InvalidConfig(format!(
                "learning_rate must be positive and finite, got {}",
                self.learning_rate
            )));
        }
        if self.grad_top_k == Some(0) {
            return Err(GnnError::InvalidConfig("grad_top_k must be positive".into()));
        }
        if let Some(dist) = backend.dist() {
            dist.validate().map_err(GnnError::Sampling)?;
        }
        if dataset.train_set.is_empty() {
            return Err(GnnError::InvalidConfig("dataset has an empty training set".into()));
        }
        if !self.ingest.is_empty() {
            if backend.dist().is_none() {
                return Err(GnnError::InvalidConfig(
                    "graph ingest requires a distributed backend (the ingest path routes \
                     batches by the 1.5D owner partition)"
                        .into(),
                ));
            }
            let n = dataset.graph.num_vertices();
            for event in &self.ingest {
                if event.after_epoch + 1 >= self.epochs {
                    return Err(GnnError::InvalidConfig(format!(
                        "ingest scheduled after epoch {} but the session trains only {} \
                         epoch(s); at least one epoch must follow every ingest",
                        event.after_epoch, self.epochs
                    )));
                }
                for (row, col, _) in event.batch.ops() {
                    if row >= n || col >= n {
                        return Err(GnnError::InvalidConfig(format!(
                            "ingest edge ({row}, {col}) outside the {n}-vertex graph"
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// The per-rank result of the distributed training loop: per-epoch
/// `(profile, comm delta, mean loss)` plus the rank's final model parameters.
pub(crate) type RankEpochs = (Vec<(PhaseProfile, CommStats, f64)>, Vec<DenseMatrix>);

/// One sampled minibatch yielded by a [`MinibatchStream`].
#[derive(Debug, Clone, PartialEq)]
pub struct Minibatch {
    /// Epoch this minibatch belongs to.
    pub epoch: usize,
    /// Bulk group index within the epoch.
    pub group: usize,
    /// Batch index within the epoch (position in the shuffled plan).
    pub index: usize,
    /// The sampled `L`-layer neighborhood.
    pub sample: MinibatchSample,
}

/// One bulk group as the stream's worker hands it over: the epoch and group
/// it belongs to, the plan index of its first minibatch, and its samples.
struct SampledGroup {
    epoch: usize,
    group: usize,
    base_index: usize,
    output: BulkSampleOutput,
}

type GroupMessage = Result<SampledGroup>;

/// One stage of the distributed training pipeline: a sampled bulk group whose
/// pinned prefetch (if any) has been posted but not yet completed, plus the
/// stage's modeled communication seconds.  Under the overlapped schedule the
/// stage is posted while the previous group trains, and those seconds are
/// the candidate for overlap credit; the synchronous schedule completes each
/// stage right after posting it and credits nothing.
#[derive(Debug)]
struct PipelineStage {
    /// `(index within the group, sample)` for every minibatch this rank
    /// trains.
    samples: Vec<(usize, dmbs_sampling::MinibatchSample)>,
    /// The posted (not yet completed) pinned prefetch of this stage.
    pending: Option<PendingPrefetch>,
    /// Comm-only profile of the stage's sampling collectives plus its
    /// prefetch rounds — what the overlapped schedule hoists ahead of the
    /// previous group's training.
    hoisted: PhaseProfile,
}

/// An iterator over sampled minibatches with double-buffered bulk prefetch:
/// a worker thread runs the backend one bulk group ahead of the consumer and
/// hands each finished group over by rendezvous (the channel buffers
/// nothing, so at most two groups are live).
///
/// [`TrainingSession::stream`] opens one over one epoch.  `train()` on a
/// local backend runs the same driver over every epoch of the call with one
/// worker, which crosses epoch boundaries without stopping: epoch `e + 1`'s
/// first group is sampled while epoch `e`'s last group trains.  Each
/// [`Minibatch`] carries the epoch it belongs to.
///
/// Yields minibatches in epoch and plan order.  After exhaustion,
/// [`MinibatchStream::sampling_profile`] and [`MinibatchStream::comm_stats`]
/// expose the accumulated sampling-phase statistics.  Dropping the stream,
/// or the first error it yields, joins the worker.
#[derive(Debug)]
pub struct MinibatchStream {
    rx: Option<mpsc::Receiver<GroupMessage>>,
    pending: VecDeque<Minibatch>,
    profile: PhaseProfile,
    comm: CommStats,
    worker: Option<JoinHandle<()>>,
    failed: bool,
}

impl MinibatchStream {
    /// Accumulated sampling-phase timing of the groups consumed so far.
    pub fn sampling_profile(&self) -> &PhaseProfile {
        &self.profile
    }

    /// Accumulated sampling communication statistics of the groups consumed
    /// so far.
    pub fn comm_stats(&self) -> &CommStats {
        &self.comm
    }

    /// The next sampled group, in epoch and plan order, or `None` once the
    /// worker has handed over its last one.  An error (the worker's, or its
    /// panic) is returned once, after which the worker is joined and the
    /// stream is over.
    fn next_group(&mut self) -> Option<Result<SampledGroup>> {
        if self.failed {
            return None;
        }
        let error = match self.rx.as_ref()?.recv() {
            Ok(Ok(group)) => return Some(Ok(group)),
            Ok(Err(e)) => Some(e),
            // The channel closed: either the worker finished, or it
            // panicked mid-sampling — the latter must surface as an error,
            // not a truncated run.
            Err(_) => None,
        };
        self.failed = true;
        let panicked = self.join_worker();
        let panic = || GnnError::InvalidConfig("minibatch sampling worker panicked".into());
        error.or_else(|| panicked.then(panic)).map(Err)
    }

    /// Joins the worker thread; returns `true` if it panicked.
    fn join_worker(&mut self) -> bool {
        self.rx = None;
        match self.worker.take() {
            Some(handle) => handle.join().is_err(),
            None => false,
        }
    }
}

impl Iterator for MinibatchStream {
    type Item = Result<Minibatch>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(mb) = self.pending.pop_front() {
                return Some(Ok(mb));
            }
            let SampledGroup { epoch, group, base_index, output } = match self.next_group()? {
                Ok(group) => group,
                Err(e) => return Some(Err(e)),
            };
            self.profile.merge_sum(&output.profile);
            self.comm.merge(&output.comm_stats);
            self.pending.extend(output.minibatches.into_iter().enumerate().map(
                |(offset, sample)| Minibatch { epoch, group, index: base_index + offset, sample },
            ));
        }
    }
}

impl Drop for MinibatchStream {
    fn drop(&mut self) {
        // Dropping the receiver makes the worker's next send fail, so it
        // exits even when the stream is abandoned mid-epoch.
        let _ = self.join_worker();
    }
}

/// Builder for [`TrainingSession`]; see the module docs for an example.
#[derive(Debug, Clone)]
pub struct SessionBuilder<S, B> {
    dataset: Option<Arc<Dataset>>,
    sampler: Option<S>,
    backend: Option<B>,
    /// Everything else, with its defaults; the setters write straight into
    /// it.
    config: SessionConfig,
}

impl<S, B> Default for SessionBuilder<S, B> {
    fn default() -> Self {
        SessionBuilder {
            dataset: None,
            sampler: None,
            backend: None,
            config: SessionConfig {
                hidden_dim: 256,
                learning_rate: 0.01,
                epochs: 3,
                seed: 0,
                evaluate: true,
                schedule: Schedule::default(),
                transport: TransportSelect::Simulator,
                grad_top_k: None,
                ingest: Vec::new(),
                ingest_mode: IngestMode::default(),
            },
        }
    }
}

impl<S: Sampler, B: SamplingBackend> SessionBuilder<S, B> {
    /// The dataset (graph + features + labels + train/test split) to train
    /// on.
    pub fn dataset(mut self, dataset: impl Into<Arc<Dataset>>) -> Self {
        self.dataset = Some(dataset.into());
        self
    }

    /// The sampling algorithm (GraphSAGE, LADIES, FastGCN, or any custom
    /// [`Sampler`]).
    pub fn sampler(mut self, sampler: S) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// The distribution strategy ([`dmbs_sampling::LocalBackend`],
    /// [`dmbs_sampling::ReplicatedBackend`] or
    /// [`dmbs_sampling::Partitioned1p5dBackend`]).  Its configuration is the
    /// run's shape: the session plans minibatches of the backend's batch size
    /// `b`, samples bulk groups of its `k`, runs sampling *and* propagation
    /// kernels on its [`dmbs_sampling::BulkSamplerConfig::parallelism`], and
    /// partitions features on its `p/c × c` grid (§6.2).  The "NoRep"
    /// configuration of Figure 6 is a backend with `c = 1`.
    pub fn backend(mut self, backend: B) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Hidden dimension of every SAGE layer (default 256, Table 4).
    pub fn hidden_dim(mut self, dim: usize) -> Self {
        self.config.hidden_dim = dim;
        self
    }

    /// SGD learning rate (default 0.01).
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.config.learning_rate = lr;
        self
    }

    /// Number of training epochs (default 3).
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.config.epochs = epochs;
        self
    }

    /// Base RNG seed for model init, shuffling and sampling (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Skips the post-training test-set evaluation.
    pub fn without_evaluation(mut self) -> Self {
        self.config.evaluate = false;
        self
    }

    /// The per-rank feature cache of the communication-avoiding §6.2
    /// pipeline (default [`FeatureCacheConfig::Pinned`]):
    ///
    /// * [`FeatureCacheConfig::Pinned`] — each bulk group's [`FetchPlan`]
    ///   (the deduplicated union of its layer-0 frontiers) is prefetched
    ///   with one all-to-allv round, missing rows only, and pinned for the
    ///   whole run, so each remote feature row crosses the wire at most once
    ///   per run and the per-step fetch collectives disappear.  The pinned
    ///   rows are at most the graph's `n` vertices, so a rank holds at most
    ///   one more copy of the feature matrix;
    /// * [`FeatureCacheConfig::Off`] — every step re-fetches its full
    ///   frontier (the uncached reference the cache books balance against).
    ///
    /// The cache is pure work avoidance: cached and uncached training are
    /// byte-identical (see the `tests/backend_equivalence.rs` sweep), only
    /// [`CommStats`] — words sent, cache hits/misses, words saved — differs.
    ///
    /// Like every [`Schedule`] knob (cache, [`SessionBuilder::wire_codec`],
    /// [`SessionBuilder::overlap`]) it describes the distributed wire: a
    /// local backend has none, reads every row from the one feature matrix
    /// and ignores it.
    pub fn feature_cache(mut self, cache: FeatureCacheConfig) -> Self {
        self.config.schedule.cache = cache;
        self
    }

    /// Software-pipelines the distributed training loop (default off): while
    /// bulk group `k` trains, group `k + 1` is sampled and — with the
    /// [`FeatureCacheConfig::Pinned`] cache — its prefetch all-to-allv
    /// is posted nonblocking, so the α–β communication bill hides behind
    /// propagation compute instead of adding to it.  Off runs the same
    /// pipeline with a look-ahead of zero: each group is sampled, fetched and
    /// trained before the next one is sampled.  The modeled time hidden
    /// this way is recorded as overlapped seconds
    /// ([`dmbs_comm::PhaseProfile::total_overlap`],
    /// [`dmbs_comm::CommStats::overlapped_time`]); the wire books themselves
    /// (words, messages, total modeled time) are untouched.
    ///
    /// The overlapped schedule is **byte-identical** to the synchronous one —
    /// same losses, same accuracy, same fetched rows, same per-epoch word
    /// counts — for every grid shape and cache mode (pinned by the
    /// `tests/overlap_pipeline.rs` sweep).  Degradations are graceful, never
    /// errors: with no cache the per-step fetch collectives stay synchronous
    /// so ranks stay matched and only group `k + 1`'s sampling is hoisted.
    /// Like the rest of the [`Schedule`], a local backend ignores the knob:
    /// its [`MinibatchStream`] worker thread already overlaps sampling with
    /// training.
    pub fn overlap(mut self, overlap: bool) -> Self {
        self.config.schedule.overlap = overlap;
        self
    }

    /// Selects the transport the distributed training loop runs over
    /// (default [`TransportSelect::Simulator`]):
    ///
    /// * [`TransportSelect::Simulator`] — ranks are threads of this process,
    ///   payloads cross as wire bytes over in-process channels;
    /// * [`TransportSelect::UnixSocket`] — one OS process per rank; the
    ///   session, dataset included, is wire-encoded to each rank process,
    ///   which rebuilds it and runs the identical per-rank loop over real
    ///   Unix-domain-socket collectives.  Requires the sampler and backend to
    ///   be spec-describable ([`Sampler::spec`] /
    ///   [`SamplingBackend::spec`]), and
    ///   has no effect on local (non-distributed) backends.
    ///
    /// The two transports are byte-identical in everything deterministic —
    /// losses, accuracy, words/messages/cache counters — which the
    /// `tests/transport_equivalence.rs` sweep pins.
    pub fn transport(mut self, transport: TransportSelect) -> Self {
        self.config.transport = transport;
        self
    }

    /// How feature rows travel on the distributed fetch lanes (default
    /// [`Codec::Exact`]):
    ///
    /// * [`Codec::Exact`] — rows ship as little-endian `f64` words,
    ///   byte-identical to training without a codec;
    /// * [`Codec::Fp16`] — rows ship as IEEE-754 half floats, 4× fewer
    ///   payload bytes, relative error ≤ 2⁻¹⁰ per value;
    /// * [`Codec::Int8`] — rows ship as one `i8` per value plus one `f64`
    ///   scale per row, ~8× fewer payload bytes, absolute error ≤
    ///   `row_max/254` per value.
    ///
    /// The codec changes only the *bytes on the wire* — request rounds,
    /// message counts and logical word counts are identical across codecs,
    /// and the per-epoch byte books balance exactly:
    /// `bytes_on_wire(codec) + bytes_saved == bytes_on_wire(exact)`
    /// ([`CommStats::bytes_on_wire`], [`CommStats::bytes_saved`]).  The α–β
    /// modeled β charge follows the real encoded bytes, so compressed runs
    /// model a genuinely smaller communication bill.  Decoded rows are what
    /// the trainer (and the [`SessionBuilder::feature_cache`]) sees, so
    /// cached and uncached runs stay byte-identical under any one codec.  A
    /// local backend has no wire and ignores the codec.
    pub fn wire_codec(mut self, codec: Codec) -> Self {
        self.config.schedule.codec = codec;
        self
    }

    /// Compresses the per-step gradient all-reduce to its `k`
    /// largest-magnitude coordinates with **error feedback** (default off:
    /// dense exact reduce).  Each rank folds its residual into the fresh
    /// gradient, ships only the top-`k` `(index, value)` pairs (ties broken
    /// by lower index), and keeps everything unshipped as residual for the
    /// next step — so no gradient mass is ever dropped, only delayed.  The
    /// sparse lists merge in ascending-rank order at the reduce root and the
    /// union is broadcast, so every rank applies the identical update and
    /// the replicas never diverge.  The step-count reduce stays exact.
    ///
    /// This genuinely shrinks the wire: `2·k` words per rank per step
    /// instead of one word per model parameter.  Unlike
    /// [`SessionBuilder::wire_codec`] it is lossy in *trajectory* (losses
    /// differ from the dense run, within the tolerance the
    /// `tests/backend_equivalence.rs` sweep pins), though both transports
    /// and all cache modes remain byte-identical to each other under it.
    pub fn grad_top_k(mut self, k: usize) -> Self {
        self.config.grad_top_k = Some(k);
        self
    }

    /// Schedules an edge insert/delete batch to land after epoch
    /// `after_epoch` finishes (0-based).  Every rank applies the batch to
    /// its adjacency under [`GraphIngest`] before the next epoch samples;
    /// pinned feature rows stay resident, since an edge batch changes no
    /// feature row, and fetch plans carry the graph version they were
    /// sampled at.  Events accumulate in call order; several may share an
    /// epoch.  Requires a distributed backend (the ingest path routes by the
    /// 1.5D owner partition).
    pub fn ingest(mut self, after_epoch: usize, batch: DeltaBatch) -> Self {
        self.config.ingest.push(IngestEvent { after_epoch, batch });
        self
    }

    /// How scheduled ingest batches fold into the adjacency:
    /// [`IngestMode::Delta`] (default) keeps a lazy delta-CSR overlay
    /// compacted on demand; [`IngestMode::Rebuild`] eagerly rebuilds the CSR
    /// from scratch.  Both produce byte-identical matrices — the
    /// `tests/delta_equivalence.rs` sweep pins this.
    pub fn ingest_mode(mut self, mode: IngestMode) -> Self {
        self.config.ingest_mode = mode;
        self
    }

    /// Validates the configuration and builds the session.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] when a required component is
    /// missing, a numeric parameter is zero or the learning rate is not
    /// positive and finite, and propagates typed
    /// [`dmbs_sampling::SamplingError`]s from backend validation.
    pub fn build(self) -> Result<TrainingSession<S, B>> {
        let dataset = self
            .dataset
            .ok_or_else(|| GnnError::InvalidConfig("session needs a dataset".into()))?;
        let sampler = self
            .sampler
            .ok_or_else(|| GnnError::InvalidConfig("session needs a sampler".into()))?;
        let backend = self
            .backend
            .ok_or_else(|| GnnError::InvalidConfig("session needs a backend".into()))?;
        TrainingSession::from_parts(dataset, sampler, backend, self.config)
    }
}

impl<S, B> SessionBuilder<S, B>
where
    S: Sampler + Send + Sync + 'static,
    B: SamplingBackend + Send + Sync + 'static,
{
    /// Builds the session, then **auto-tunes** its schedule knobs with the
    /// cost-model-driven tuner ([`dmbs_comm::tune`]): a few cheap one-epoch
    /// probes book the workload's words, bytes and per-phase compute, a
    /// [`TuningModel`] is fitted from them, the valid knob grid at the
    /// backend's `(p, c)` shape is searched, and the arg-min schedule —
    /// feature-cache mode, wire codec, overlapped pipeline — is applied to
    /// the returned session.  [`TrainingSession::tuning_outcome`] exposes
    /// every scored candidate with its predicted cost breakdown.
    ///
    /// Tuning is conservative by construction:
    ///
    /// * **local backends are returned untouched** — there is no
    ///   communication to tune;
    /// * **lossy codecs are opt-in** — the grid admits `Fp16`/`Int8` only
    ///   when the builder explicitly set a lossy [`SessionBuilder::wire_codec`]
    ///   (and then two extra probes calibrate their real byte savings);
    /// * **ties keep the default** — a workload the knobs cannot improve
    ///   (e.g. a fully-replicated shape with nothing on the wire) trains
    ///   with the same configuration [`SessionBuilder::build`] would have
    ///   produced, by the deterministic lexicographic tie-break.
    ///
    /// Probes always run over the in-process simulator transport (both
    /// transports are bit-identical in every counter the model reads); the
    /// returned session still trains over whatever
    /// [`SessionBuilder::transport`] selected.  Because probes share the
    /// session's seed and the tuned knobs never change what is sampled or
    /// trained (cache/overlap are byte-identical schedules; the codec is
    /// bit-exact unless lossy was opted into), training the auto-tuned
    /// session is bit-identical to explicitly passing the chosen knobs to a
    /// fresh builder — `tests/autotune_pipeline.rs` pins this.
    ///
    /// ```
    /// use dmbs_comm::{CostModel, Runtime};
    /// use dmbs_gnn::session::TrainingSession;
    /// use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    /// use dmbs_sampling::{BulkSamplerConfig, DistConfig, GraphSageSampler, ReplicatedBackend};
    /// use rand::rngs::StdRng;
    /// use rand::SeedableRng;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let mut cfg = DatasetConfig::products_like(7);
    /// cfg.feature_dim = 8;
    /// cfg.num_classes = 4;
    /// cfg.train_fraction = 0.5;
    /// let dataset = build_dataset(&cfg, &mut StdRng::seed_from_u64(1))?;
    ///
    /// // A comm-dominant cost model makes the schedule knobs load-bearing.
    /// let runtime = Runtime::with_cost_model(4, CostModel::new(2.0e-4, 5.0e-8))?;
    /// let dist = DistConfig::new(4, 2, BulkSamplerConfig::new(16, 2));
    /// let session = TrainingSession::builder()
    ///     .dataset(dataset)
    ///     .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
    ///     .backend(ReplicatedBackend::with_runtime(runtime, dist)?)
    ///     .hidden_dim(8)
    ///     .epochs(1)
    ///     .without_evaluation()
    ///     .auto()?;
    ///
    /// let outcome = session.tuning_outcome().expect("distributed sessions are tuned");
    /// // The arg-min is never worse than the default schedule (candidate 0).
    /// assert!(outcome.chosen().cost.total_s() <= outcome.scored[0].cost.total_s());
    /// # Ok(())
    /// # }
    /// ```
    ///
    /// # Errors
    ///
    /// Everything [`SessionBuilder::build`] rejects, plus probe training
    /// failures and [`GnnError::Comm`] when the tuner's books do not balance
    /// (which would mean a double-entry accounting bug — see
    /// [`TuningModel::fit`]).
    pub fn auto(self) -> Result<TrainingSession<S, B>> {
        // Lossy codecs are strictly opt-in: only an explicit builder
        // setting admits them to the searched grid.
        let allow_lossy = self.config.schedule.codec != Codec::Exact;
        let mut session = self.build()?;
        let (p, cost, c) = match (session.backend.runtime(), session.backend.dist()) {
            (Some(runtime), Some(dist)) => {
                (runtime.size(), runtime.cost_model(), dist.replication_c)
            }
            // Local backends have no communication to tune; the built
            // session is already the arg-min.
            _ => return Ok(session),
        };
        let grid = TuningGrid::new(p, c)?.with_lossy(allow_lossy);

        let probe = |schedule: Schedule| -> Result<ProbeEpoch> {
            let probe_session = TrainingSession {
                dataset: Arc::clone(&session.dataset),
                sampler: Arc::clone(&session.sampler),
                backend: Arc::clone(&session.backend),
                config: SessionConfig {
                    epochs: 1,
                    evaluate: false,
                    schedule,
                    // Probes always run in-process: both transports are
                    // bit-identical in every counter the model reads, and
                    // the simulator avoids spawning rank processes per
                    // probe.  Ingest is dropped — it lands after later
                    // epochs a one-epoch probe never reaches.
                    transport: TransportSelect::Simulator,
                    ingest: Vec::new(),
                    ..session.config.clone()
                },
                tuning: None,
            };
            let report = probe_session.train()?;
            let epoch = report.epochs.first().ok_or_else(|| {
                GnnError::InvalidConfig("probe epoch produced no statistics".into())
            })?;
            Ok(ProbeEpoch::from_books(&epoch.profile, &epoch.comm))
        };

        // Probes share the session seed, so every probe sees the identical
        // epoch-0 schedule and the cross-probe double-entry identities that
        // TuningModel::fit verifies hold exactly.  The baseline is the
        // uncached reference; the pinned probe is the default schedule.
        let pinned = Schedule::default();
        let probes = ProbeSet {
            baseline: probe(Schedule { cache: FeatureCacheConfig::Off, ..pinned })?,
            pinned: probe(pinned)?,
            fp16: allow_lossy
                .then(|| probe(Schedule { codec: Codec::Fp16, ..pinned }))
                .transpose()?,
            int8: allow_lossy
                .then(|| probe(Schedule { codec: Codec::Int8, ..pinned }))
                .transpose()?,
            overlapped: (c > 1).then(|| probe(Schedule { overlap: true, ..pinned })).transpose()?,
        };
        let model = TuningModel::fit(cost, p, probes)?;
        let outcome = tune::search(&model, &grid);
        session.config.schedule = outcome.chosen().choice;
        session.tuning = Some(outcome);
        Ok(session)
    }
}

/// A configured end-to-end training pipeline: dataset × sampler × backend.
///
/// Construct with [`TrainingSession::builder`]; see the module docs.
#[derive(Debug, Clone)]
pub struct TrainingSession<S, B> {
    dataset: Arc<Dataset>,
    sampler: Arc<S>,
    backend: Arc<B>,
    config: SessionConfig,
    /// The auto-tuner's scored grid, present only on sessions built with
    /// [`SessionBuilder::auto`].  Not shipped to rank processes — the chosen
    /// knobs already live in `config`.
    tuning: Option<TuningOutcome>,
}

impl<S: Sampler, B: SamplingBackend> TrainingSession<S, B> {
    /// Starts a fluent builder.
    pub fn builder() -> SessionBuilder<S, B> {
        SessionBuilder::default()
    }

    /// The one constructor: validates `config` against the backend and
    /// dataset ([`SessionConfig::validate`]) and assembles the session.
    /// [`SessionBuilder::build`] ends here, and so does the [`crate::worker`]
    /// entry point, where a rank process reconstructs the exact session the
    /// parent encoded — the decoded config is outside input and gets the same
    /// checks.
    pub(crate) fn from_parts(
        dataset: Arc<Dataset>,
        sampler: S,
        backend: B,
        config: SessionConfig,
    ) -> Result<Self> {
        config.validate(&backend, &dataset)?;
        Ok(TrainingSession {
            dataset,
            sampler: Arc::new(sampler),
            backend: Arc::new(backend),
            config,
            tuning: None,
        })
    }

    /// The dataset this session trains on.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The sampling algorithm.
    pub fn sampler(&self) -> &S {
        &self.sampler
    }

    /// The distribution strategy.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The resolved session hyper-parameters (for the [`crate::worker`]
    /// codec).
    pub(crate) fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// The auto-tuner's scored grid and applied arg-min choice, when this
    /// session was built with [`SessionBuilder::auto`]; `None` for sessions
    /// built with [`SessionBuilder::build`] (including sessions rebuilt
    /// inside a socket-transport rank process, whose knobs were already
    /// tuned by the parent).
    pub fn tuning_outcome(&self) -> Option<&TuningOutcome> {
        self.tuning.as_ref()
    }

    /// The epoch's shuffled minibatch plan (deterministic in the session
    /// seed, identical on every rank).
    fn plan(&self, epoch: usize) -> Result<MinibatchPlan> {
        epoch_plan(&self.dataset, self.backend.bulk().batch_size, self.config.seed, epoch)
    }

    /// The sampling seed of an epoch (bulk groups derive theirs with
    /// [`group_seed`]).
    fn epoch_sample_seed(&self, epoch: usize) -> u64 {
        epoch_sample_seed(self.config.seed, epoch)
    }
}

/// The shuffled minibatch plan of `epoch` under the session seed `seed`.
fn epoch_plan(
    dataset: &Dataset,
    batch_size: usize,
    seed: u64,
    epoch: usize,
) -> Result<MinibatchPlan> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1 + epoch as u64));
    Ok(MinibatchPlan::new(&dataset.train_set, batch_size, &mut rng)?)
}

/// The sampling seed of `epoch` under the session seed `seed`.
fn epoch_sample_seed(seed: u64, epoch: usize) -> u64 {
    seed.wrapping_add((epoch as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03))
}

impl<S, B> TrainingSession<S, B>
where
    S: Sampler + Send + Sync + 'static,
    B: SamplingBackend + Send + Sync + 'static,
{
    /// Samples one epoch eagerly (no prefetch), in plan order.  The stream
    /// yields exactly these minibatches; see the equivalence tests.
    ///
    /// # Errors
    ///
    /// Propagates plan and sampling errors.
    pub fn sample_epoch_eager(&self, epoch: usize) -> Result<BulkSampleOutput> {
        let plan = self.plan(epoch)?;
        let mut merged = BulkSampleOutput::default();
        let seed = self.epoch_sample_seed(epoch);
        for (gi, group) in plan.batches().chunks(self.backend.bulk().bulk_size).enumerate() {
            let epoch_samples = self
                .backend
                .sample_epoch(
                    &*self.sampler,
                    self.dataset.graph.adjacency(),
                    group,
                    group_seed(seed, gi),
                )
                .map_err(GnnError::Sampling)?;
            merged.merge(epoch_samples.output);
        }
        Ok(merged)
    }

    /// Opens a double-buffered [`MinibatchStream`] over `epoch`: a worker
    /// thread samples bulk group `g + 1` through the backend while the
    /// caller consumes group `g` (§6 pipelining).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if the plan cannot be built;
    /// sampling errors surface through the iterator's items.
    pub fn stream(&self, epoch: usize) -> Result<MinibatchStream> {
        self.stream_epochs(epoch..epoch + 1)
    }

    /// The stream driver: one worker samples every bulk group of `epochs`,
    /// epoch after epoch, through one rendezvous.  The first epoch's plan is
    /// built here, so a plan that cannot be built is an error of the call
    /// (every epoch's plan shuffles the same training set into batches of
    /// the same size, so they fail alike); the worker builds the others.
    fn stream_epochs(&self, epochs: Range<usize>) -> Result<MinibatchStream> {
        let mut first_plan = Some(self.plan(epochs.start)?);
        let batch_size = self.backend.bulk().batch_size;
        let bulk_size = self.backend.bulk().bulk_size;
        let seed = self.config.seed;
        let dataset = Arc::clone(&self.dataset);
        let sampler = Arc::clone(&self.sampler);
        let backend = Arc::clone(&self.backend);

        // Rendezvous hand-off: the worker samples group `g + 1` while the
        // consumer trains on group `g`, then blocks in `send` until it is
        // taken.  Two groups live at most — double buffering.  (A capacity-1
        // channel would hold a third: one consumed, one buffered, one
        // finished and blocked in `send`.)
        let (tx, rx) = mpsc::sync_channel::<GroupMessage>(0);
        let worker = std::thread::spawn(move || {
            for epoch in epochs {
                let plan = first_plan
                    .take()
                    .map_or_else(|| epoch_plan(&dataset, batch_size, seed, epoch), Ok);
                let plan = match plan {
                    Ok(plan) => plan,
                    Err(e) => {
                        let _ = tx.send(Err(e));
                        return;
                    }
                };
                let sample_seed = epoch_sample_seed(seed, epoch);
                let mut base_index = 0;
                for (group, batches) in plan.batches().chunks(bulk_size).enumerate() {
                    let adjacency = dataset.graph.adjacency();
                    let message = backend
                        .sample_epoch(&*sampler, adjacency, batches, group_seed(sample_seed, group))
                        .map(|s| SampledGroup { epoch, group, base_index, output: s.output })
                        .map_err(GnnError::Sampling);
                    let failed = message.is_err();
                    if tx.send(message).is_err() || failed {
                        return;
                    }
                    base_index += batches.len();
                }
            }
        });

        Ok(MinibatchStream {
            rx: Some(rx),
            pending: VecDeque::new(),
            profile: PhaseProfile::new(),
            comm: CommStats::default(),
            worker: Some(worker),
            failed: false,
        })
    }

    /// Runs the full training loop and returns per-epoch statistics (and
    /// test accuracy unless disabled).
    ///
    /// With a local backend the loop consumes one [`MinibatchStream`] over
    /// every epoch, so bulk sampling overlaps training across epoch
    /// boundaries too, and each epoch's stats book only its own groups.  With a distributed backend it runs the
    /// bulk-synchronous pipeline of Figure 3: backend sampling inside the
    /// SPMD region, 1.5D-partitioned feature fetching, propagation, and a
    /// data-parallel gradient all-reduce.
    ///
    /// # Errors
    ///
    /// Returns configuration errors (missing features/labels), sampling
    /// errors and collective failures.
    pub fn train(&self) -> Result<TrainingReport> {
        self.train_model().map(|(report, _)| report)
    }

    /// Runs the full training loop and exports the trained model as a
    /// [`ModelSnapshot`] for the serving tier, alongside the usual report.
    /// The snapshot carries the dataset shape it was trained against, so
    /// [`crate::serve::ServingSession::new`] can reject a mismatched graph
    /// with a typed error instead of a garbage forward pass.
    ///
    /// # Errors
    ///
    /// Exactly those of [`TrainingSession::train`].
    pub fn train_and_export(&self) -> Result<(TrainingReport, ModelSnapshot)> {
        let (report, model) = self.train_model()?;
        let num_vertices = self.dataset.graph.adjacency().rows();
        Ok((report, ModelSnapshot::new(model, num_vertices)?))
    }

    fn train_model(&self) -> Result<(TrainingReport, SageModel)> {
        let (feature_dim, num_classes) = self.dataset_dims()?;
        if self.backend.runtime().is_some() {
            self.train_distributed(feature_dim, num_classes)
        } else {
            self.train_streaming(feature_dim, num_classes)
        }
    }

    fn dataset_dims(&self) -> Result<(usize, usize)> {
        let features = self
            .dataset
            .graph
            .features()
            .ok_or_else(|| GnnError::InvalidConfig("dataset has no feature matrix".into()))?;
        if self.dataset.graph.labels().is_none() {
            return Err(GnnError::InvalidConfig("dataset has no labels".into()));
        }
        Ok((features.cols(), self.dataset.graph.num_classes()))
    }

    /// The model at its seeded initialization: the same parameters on the
    /// streaming path, on every rank and in the parent that reassembles the
    /// trained model from rank 0's.
    fn initial_model(&self, feature_dim: usize, num_classes: usize) -> Result<SageModel> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let layers = self.sampler.num_layers();
        let model =
            SageModel::new(feature_dim, self.config.hidden_dim, num_classes, layers, &mut rng)?;
        Ok(model.with_parallelism(self.backend.bulk().parallelism))
    }

    fn batch_labels(&self, batch: &[usize]) -> Vec<usize> {
        let labels = self.dataset.graph.labels().expect("validated");
        batch.iter().map(|&v| labels[v]).collect()
    }

    /// Single-device training over the prefetching stream.
    fn train_streaming(
        &self,
        feature_dim: usize,
        num_classes: usize,
    ) -> Result<(TrainingReport, SageModel)> {
        keep_step_memory();
        let mut model = self.initial_model(feature_dim, num_classes)?;
        let mut optimizer = Sgd::new(self.config.learning_rate);

        // One stream over every epoch: the worker samples epoch `e + 1`'s
        // first group while epoch `e`'s last one trains, and each epoch's
        // stats book only the groups tagged with it.
        let mut report = TrainingReport::default();
        let mut stream = self.stream_epochs(0..self.config.epochs)?;
        let mut next = stream.next_group().transpose()?;
        for epoch in 0..self.config.epochs {
            let mut profile = PhaseProfile::new();
            let mut sampling = PhaseProfile::new();
            let mut comm = CommStats::default();
            let mut loss = RunningMean::new();
            while let Some(SampledGroup { output, .. }) = next.take_if(|g| g.epoch == epoch) {
                sampling.merge_sum(&output.profile);
                comm.merge(&output.comm_stats);
                // Each sample is dropped after its step, so the trained part
                // of a group is freed while the worker samples the next one.
                for sample in output.minibatches {
                    loss.push(self.train_step(
                        &mut model,
                        &mut optimizer,
                        &sample,
                        &mut profile,
                    )?);
                }
                next = stream.next_group().transpose()?;
            }
            profile.merge_sum(&sampling);
            report.epochs.push(EpochStats { epoch, profile, comm, mean_loss: loss.mean() });
        }

        if self.config.evaluate {
            report.test_accuracy = Some(self.evaluate_model(&model, &self.dataset.test_set)?);
        }
        Ok((report, model))
    }

    /// One single-device training step: gathers `sample`'s input rows and
    /// steps the model on its loss, timed into `profile`.
    fn train_step(
        &self,
        model: &mut SageModel,
        optimizer: &mut Sgd,
        sample: &MinibatchSample,
        profile: &mut PhaseProfile,
    ) -> Result<f64> {
        // Every input row is read straight from the one feature matrix:
        // nothing crosses a wire, so the schedule (cache, codec, overlap)
        // has nothing to act on here.
        let features = self.dataset.graph.features().expect("validated");
        let input = profile
            .time_compute(Phase::FeatureFetch, || features.gather_rows(sample.input_vertices()))?;
        let labels = self.batch_labels(&sample.batch);
        profile.time_compute(Phase::Propagation, || {
            let (l, _, grads) = model.loss_and_gradients(sample, &input, &labels)?;
            optimizer.step(model.parameters_mut(), &grads)?;
            Ok(l)
        })
    }

    /// The per-rank body of the distributed training loop — everything one
    /// rank does inside the SPMD region, from feature-store partitioning to
    /// the per-epoch profile/loss bookkeeping.  Shared verbatim by both
    /// transports: [`TrainingSession::train_distributed`] calls it from a
    /// simulator closure, and the [`crate::worker`] train worker calls it in
    /// a rank *process* whose communicator runs over Unix sockets.  Every
    /// input is recomputed deterministically from the session (plans, grid,
    /// seeds), so the two call sites are byte-identical by construction.
    pub(crate) fn distributed_rank_main(&self, comm: &mut Communicator) -> Result<RankEpochs> {
        let dist = self.backend.dist().ok_or_else(|| {
            GnnError::InvalidConfig("distributed backend without DistConfig".into())
        })?;
        let (feature_dim, num_classes) = self.dataset_dims()?;
        let features = self.dataset.graph.features().expect("validated");
        let p = comm.size();
        let config = &self.config;
        let grid = ProcessGrid::new(p, dist.replication_c)?;

        // Per-epoch plans are identical on every rank.
        let mut plans = Vec::with_capacity(config.epochs);
        for epoch in 0..config.epochs {
            plans.push(self.plan(epoch)?);
        }

        let rank = comm.rank();
        // The feature matrix is split into the grid's `p/c` block rows and
        // fetched within this rank's process column (§6.2); at `c = 1` the
        // column is the whole world.  The wire codec rides on the store:
        // reply rows of both fetch lanes (uncached, pinned prefetch) encode
        // the same way, so cache modes stay byte-identical under any codec.
        let (my_row, _) = grid.coords(rank);
        let store = FeatureStore::from_full(features, grid.rows(), my_row)?
            .with_codec(config.schedule.codec);
        let fetch_group = Group::new(&grid.col_ranks(rank))?;

        let mut model = self.initial_model(feature_dim, num_classes)?;
        let mut optimizer = Sgd::new(config.learning_rate);
        // Error-feedback residual of the top-k gradient compressor: the
        // gradient mass this rank has not yet shipped.  Lives for the whole
        // run so nothing is dropped at epoch boundaries, only delayed.
        let mut grad_residual = config.grad_top_k.map(|_| vec![0.0; model.num_parameters()]);
        // The communication-avoiding feature cache (§6.2).  Every rank makes
        // the same mode decision, so the collective schedule stays matched:
        // the cache replaces the per-step all-to-allv with one prefetch
        // round per bulk group.  Its rows live for the whole run.
        let mut cache =
            config.schedule.cache.is_enabled().then(|| FeatureCache::new(store.feature_dim()));
        // The same schedule pins the other static operand: the rows of `A`
        // a partitioned backend reads, held beside the feature rows so each
        // remote adjacency row is fetched once per run, not once per product.
        let mut a_rows = config.schedule.cache.is_enabled().then(RankRows::new);

        // Dynamic-graph state: every rank folds scheduled ingest batches
        // into its own replica of the adjacency.  Static sessions pay one
        // clone and the overlay stays empty forever.
        let mut ingest = GraphIngest::new(self.dataset.graph.adjacency().clone())
            .map_err(GnnError::Graph)?
            .with_mode(config.ingest_mode);

        let mut epochs = Vec::with_capacity(config.epochs);
        for (epoch, plan) in plans.iter().enumerate() {
            let mut profile = PhaseProfile::new();
            let mut loss = RunningMean::new();
            let comm_start = comm.stats();
            let epoch_seed = self.epoch_sample_seed(epoch);
            // Compact any batch landed after the previous epoch so this
            // epoch samples the post-ingest graph.  The version is captured
            // before the borrow so fetch plans can be stamped while the
            // adjacency reference is live.
            let graph_version = ingest.version();
            let adjacency = ingest.adjacency();

            // The software pipeline of §6 / Figure 3, one loop for both
            // schedules: stages up to `k + lookahead` are sampled and their
            // pinned prefetches posted before stage k's prefetch completes
            // and its steps run.  With `overlap` the look-ahead is one
            // group, so group k+1's communication is hoisted ahead of group
            // k's training; the synchronous schedule is the same pipeline
            // with nothing hoisted.
            let lookahead = usize::from(config.schedule.overlap);
            let groups: Vec<&[Vec<usize>]> =
                plan.batches().chunks(self.backend.bulk().bulk_size).collect();
            let mut posted: VecDeque<PipelineStage> = VecDeque::with_capacity(lookahead + 1);
            let mut prev_steps_secs = 0.0f64;
            for k in 0..groups.len() {
                while posted.len() <= lookahead {
                    let next = k + posted.len();
                    let Some(&group) = groups.get(next) else { break };
                    posted.push_back(self.sample_and_post_stage(
                        comm,
                        adjacency,
                        graph_version,
                        group,
                        group_seed(epoch_seed, next),
                        &store,
                        &fetch_group,
                        &mut cache,
                        a_rows.as_mut(),
                        &mut profile,
                    )?);
                }
                let mut stage = posted.pop_front().expect("stage k was posted");
                // Complete stage k's prefetch (the reply rows of the posted
                // all-to-allv land here).
                if let Some(pending) = stage.pending.take() {
                    let cache = cache.as_mut().expect("pending implies pinned cache");
                    let wait_start = std::time::Instant::now();
                    let comm_before = comm.stats().modeled_time;
                    cache.complete_prefetch(&store, comm, &fetch_group, pending)?;
                    profile.add_compute(Phase::FeatureFetch, wait_start.elapsed().as_secs_f64());
                    let wait_comm = comm.stats().modeled_time - comm_before;
                    profile.add_comm(Phase::FeatureFetch, wait_comm);
                    stage.hoisted.add_comm(Phase::FeatureFetch, wait_comm);
                }
                if lookahead > 0 {
                    // Charge the hoisted communication as hidden behind the
                    // previous group's training: the pipelined schedule pays
                    // max(comm, compute), so min(comm, compute) is credited
                    // as overlapped seconds — phase by phase until the
                    // budget runs out.  The wire books (words, messages,
                    // modeled time) are untouched.
                    let mut budget = prev_steps_secs;
                    for phase in Phase::ALL {
                        let credit =
                            comm.cost_model().overlap_credit(stage.hoisted.comm(phase), budget);
                        if credit > 0.0 {
                            profile.add_overlap(phase, credit);
                            budget -= credit;
                        }
                    }
                }
                prev_steps_secs = self.run_group_steps(
                    comm,
                    &stage.samples,
                    &store,
                    &fetch_group,
                    &mut cache,
                    &mut model,
                    &mut optimizer,
                    &mut grad_residual,
                    &mut profile,
                    &mut loss,
                )?;
            }

            let mut comm_delta = comm.stats().since(&comm_start);
            // The hidden seconds live in the profile's overlap books;
            // mirror the epoch total into the comm counters so the
            // harnesses see one number per epoch.
            comm_delta.record_overlap(profile.total_overlap());
            if let Some(cache) = cache.as_mut() {
                // Fold in this epoch's hit/miss/saved-words counters (and
                // reset them for the next epoch).  The rows stay pinned.
                comm_delta.merge(&cache.take_stats());
            }
            if let Some(rows) = a_rows.as_mut() {
                comm_delta.words_saved += rows.take_words_saved();
            }
            epochs.push((profile, comm_delta, loss.mean()));

            // --- Dynamic graphs: land every batch scheduled after this
            // epoch.  The adjacency is replicated, so each rank applies the
            // full batch; the owner routing is still computed (and its
            // sub-batches checked to repartition the batch exactly) because
            // that is the lane a sharded adjacency would ship updates over.
            // The pinned feature rows stay: an edge batch changes no feature
            // row, and the next epoch's plans carry the new graph version.
            // The pinned rows of `A` it touches go, with the block row.
            for event in config.ingest.iter().filter(|e| e.after_epoch == epoch) {
                let routed = GraphIngest::route_by_owner(&event.batch, store.partition())
                    .map_err(GnnError::Graph)?;
                debug_assert_eq!(
                    routed.iter().map(DeltaBatch::len).sum::<usize>(),
                    event.batch.len(),
                    "owner routing must partition the batch exactly"
                );
                let receipt = ingest.apply(&event.batch).map_err(GnnError::Graph)?;
                if let Some(rows) = a_rows.as_mut() {
                    rows.invalidate(&receipt.dirty);
                }
            }
        }
        let params = model.parameters().to_vec();
        Ok((epochs, params))
    }

    /// Bulk-synchronous data-parallel training (Figure 3) for distributed
    /// backends.  The per-rank loop is [`TrainingSession::distributed_rank_main`];
    /// this method dispatches it over the configured transport (simulator
    /// threads, or one process per rank via the [`crate::worker`] registry)
    /// and aggregates the per-rank results.
    fn train_distributed(
        &self,
        feature_dim: usize,
        num_classes: usize,
    ) -> Result<(TrainingReport, SageModel)> {
        let runtime = self.backend.runtime().expect("distributed path");
        let config = &self.config;

        let per_rank_ok: Vec<RankEpochs> = match &config.transport {
            TransportSelect::Simulator => {
                let per_rank = runtime.run(|comm| self.distributed_rank_main(comm))?;
                let mut ok = Vec::with_capacity(per_rank.len());
                for o in per_rank {
                    ok.push(o.value?);
                }
                ok
            }
            TransportSelect::UnixSocket(launch) => {
                let runtime =
                    runtime.clone().with_transport(TransportSelect::UnixSocket(launch.clone()));
                let job = crate::worker::encode_train_job(self)?;
                let outputs = runtime.run_worker(
                    &crate::worker::registry(),
                    crate::worker::TRAIN_WORKER,
                    &job,
                )?;
                let mut ok = Vec::with_capacity(outputs.len());
                for o in outputs {
                    ok.push(crate::worker::decode_rank_epochs(&o.value)?);
                }
                ok
            }
        };

        // Aggregate across ranks: max for times, sum for volumes, mean of the
        // per-rank mean losses.
        let mut report = TrainingReport::default();
        for epoch in 0..config.epochs {
            let mut profile = PhaseProfile::new();
            let mut comm = CommStats::default();
            let mut loss = RunningMean::new();
            for (rank_epochs, _) in &per_rank_ok {
                let (p_, c_, l_) = &rank_epochs[epoch];
                profile.merge_max(p_);
                comm.merge(c_);
                if *l_ > 0.0 {
                    loss.push(*l_);
                }
            }
            report.epochs.push(EpochStats { epoch, profile, comm, mean_loss: loss.mean() });
        }

        // All ranks hold identical models (same init, all-reduced
        // gradients); rebuild rank 0's for evaluation and export.
        let mut model = self.initial_model(feature_dim, num_classes)?;
        let trained = &per_rank_ok[0].1;
        for (param, value) in model.parameters_mut().iter_mut().zip(trained) {
            *param = value.clone();
        }
        if self.config.evaluate {
            report.test_accuracy = Some(self.evaluate_model(&model, &self.dataset.test_set)?);
        }
        Ok((report, model))
    }

    /// Samples one bulk group inside the SPMD region, reading `A` through
    /// the rank's pinned rows when given, and, with the pinned cache, posts
    /// its prefetch nonblocking — the first half of every pipeline stage,
    /// on both schedules.  The stage's modeled communication
    /// is collected in [`PipelineStage::hoisted`]; the overlapped schedule,
    /// which posts it while the previous group trains, credits it as
    /// overlapped once the budget (the previous group's step seconds) is
    /// known.
    #[allow(clippy::too_many_arguments)]
    fn sample_and_post_stage(
        &self,
        comm: &mut Communicator,
        adjacency: &CsrMatrix,
        graph_version: u64,
        group: &[Vec<usize>],
        seed: u64,
        store: &FeatureStore,
        fetch_group: &Group,
        cache: &mut Option<FeatureCache>,
        a_rows: Option<&mut RankRows>,
        profile: &mut PhaseProfile,
    ) -> Result<PipelineStage> {
        let shard = self
            .backend
            .sample_group_on_rank_with(comm, &*self.sampler, adjacency, group, seed, a_rows)
            .map_err(GnnError::Sampling)?;
        profile.merge_sum(&shard.profile);
        let mut hoisted = PhaseProfile::new();
        for phase in Phase::ALL {
            let comm_secs = shard.profile.comm(phase);
            if comm_secs > 0.0 {
                hoisted.add_comm(phase, comm_secs);
            }
        }
        let pending = if let Some(cache) = cache.as_mut() {
            let fetch_plan = FetchPlan::from_sample_iter(shard.samples.iter().map(|(_, mb)| mb))
                .with_version(graph_version);
            // Load-bearing guard: a plan computed before an ingest must
            // never feed a prefetch afterwards.
            ensure_plan_fresh(&fetch_plan, graph_version)?;
            let post_start = std::time::Instant::now();
            let comm_before = comm.stats().modeled_time;
            let pending =
                cache.post_prefetch(store, comm, fetch_group, fetch_plan.unique_vertices())?;
            profile.add_compute(Phase::FeatureFetch, post_start.elapsed().as_secs_f64());
            let post_comm = comm.stats().modeled_time - comm_before;
            profile.add_comm(Phase::FeatureFetch, post_comm);
            hoisted.add_comm(Phase::FeatureFetch, post_comm);
            Some(pending)
        } else {
            None
        };
        Ok(PipelineStage { samples: shard.samples, pending, hoisted })
    }

    /// Runs the bulk-synchronous training steps of one group: every rank
    /// takes the same number of steps so the collectives stay matched.  Each
    /// step reduces the contributing-rank count, then the gradient — dense,
    /// or top-k sparse with error feedback — with blocking all-reduces.  The
    /// per-step *fetch* collectives of the uncached mode are blocking too:
    /// they are demand-driven, and keeping them blocking is what keeps ranks
    /// matched.  Returns the measured wall seconds of the step loop —
    /// the compute budget the next stage's hoisted communication can hide
    /// behind.
    #[allow(clippy::too_many_arguments)]
    fn run_group_steps(
        &self,
        comm: &mut Communicator,
        my_samples: &[(usize, MinibatchSample)],
        store: &FeatureStore,
        fetch_group: &Group,
        cache: &mut Option<FeatureCache>,
        model: &mut SageModel,
        optimizer: &mut Sgd,
        grad_residual: &mut Option<Vec<f64>>,
        profile: &mut PhaseProfile,
        loss: &mut RunningMean,
    ) -> Result<f64> {
        let loop_start = std::time::Instant::now();
        let steps = comm.allreduce(my_samples.len(), |a, b| *a.max(b))?;
        for step in 0..steps {
            let sample = my_samples.get(step).map(|(_, mb)| mb);

            let fetch_start = std::time::Instant::now();
            let comm_before = comm.stats().modeled_time;
            let wanted: Vec<usize> =
                sample.map(|s| s.input_vertices().to_vec()).unwrap_or_default();
            let input = match cache.as_mut() {
                // Pinned: served locally, no collective.
                Some(cache) => cache.gather_pinned(store, &wanted)?,
                None => store.fetch(comm, fetch_group, &wanted)?,
            };
            profile.add_compute(Phase::FeatureFetch, fetch_start.elapsed().as_secs_f64());
            profile.add_comm(Phase::FeatureFetch, comm.stats().modeled_time - comm_before);

            let prop_start = std::time::Instant::now();
            let comm_before = comm.stats().modeled_time;
            let (local_loss, grads) = if let Some(sample) = sample {
                let labels = self.batch_labels(&sample.batch);
                let (l, _, grads) = model.loss_and_gradients(sample, &input, &labels)?;
                (Some(l), SageModel::flatten_grads(&grads))
            } else {
                (None, vec![0.0; model.num_parameters()])
            };
            let contributing =
                comm.allreduce(usize::from(local_loss.is_some()), |a, b| a + b)?.max(1);
            let summed = if let (Some(k), Some(residual)) =
                (self.config.grad_top_k, grad_residual.as_mut())
            {
                // Top-k error-feedback compression of the gradient reduce:
                // fold the residual into the fresh gradient, ship only the
                // k largest-magnitude coordinates as (index, value) pairs,
                // and keep everything unshipped as next step's residual.
                // The sorted sparse lists merge in ascending-rank order at
                // the root and the union broadcasts, so every rank applies
                // the identical update.  The step-count reduce stays exact.
                let compensated: Vec<f64> =
                    residual.iter().zip(&grads).map(|(r, g)| r + g).collect();
                let pairs: Vec<(usize, f64)> = top_k_indices(&compensated, k)
                    .into_iter()
                    .map(|i| (i, compensated[i]))
                    .collect();
                residual.clone_from(&compensated);
                for &(i, _) in &pairs {
                    residual[i] = 0.0;
                }
                let mut summed = vec![0.0; grads.len()];
                for (i, v) in comm.allreduce(pairs, |a, b| merge_sparse(a, b))? {
                    summed[i] = v;
                }
                summed
            } else {
                comm.allreduce(grads, |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect())?
            };
            let averaged: Vec<f64> = summed.into_iter().map(|g| g / contributing as f64).collect();
            let grads = model.unflatten_grads(&averaged)?;
            optimizer.step(model.parameters_mut(), &grads)?;
            if let Some(l) = local_loss {
                loss.push(l);
            }
            profile.add_compute(Phase::Propagation, prop_start.elapsed().as_secs_f64());
            profile.add_comm(Phase::Propagation, comm.stats().modeled_time - comm_before);
        }
        Ok(loop_start.elapsed().as_secs_f64())
    }

    /// Evaluates classification accuracy on `vertices` by sampling their
    /// neighborhoods with the session's sampler.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] for an empty vertex set or missing
    /// features/labels.
    pub fn evaluate_model(&self, model: &SageModel, vertices: &[usize]) -> Result<f64> {
        if vertices.is_empty() {
            return Err(GnnError::InvalidConfig("evaluation set is empty".into()));
        }
        let features = self
            .dataset
            .graph
            .features()
            .ok_or_else(|| GnnError::InvalidConfig("dataset has no feature matrix".into()))?;
        let labels = self
            .dataset
            .graph
            .labels()
            .ok_or_else(|| GnnError::InvalidConfig("dataset has no labels".into()))?;
        let mut rng = StdRng::seed_from_u64(self.config.seed.wrapping_add(0xE7A1));
        let mut predictions = Vec::with_capacity(vertices.len());
        let mut truth = Vec::with_capacity(vertices.len());
        for chunk in vertices.chunks(self.backend.bulk().batch_size) {
            let sample =
                self.sampler.sample_minibatch(self.dataset.graph.adjacency(), chunk, &mut rng)?;
            let input = features.gather_rows(sample.input_vertices())?;
            predictions.extend(model.predict(&sample, &input)?);
            truth.extend(chunk.iter().map(|&v| labels[v]));
        }
        accuracy(&predictions, &truth)
    }
}

/// The indices of the `k` largest-magnitude entries of `values`, ascending.
/// Ties break toward the lower index, so the selection is a pure function of
/// the values — every rank running this on the same vector picks the same
/// coordinates.
fn top_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_unstable_by(|&a, &b| values[b].abs().total_cmp(&values[a].abs()).then(a.cmp(&b)));
    order.truncate(k);
    order.sort_unstable();
    order
}

/// Merges two index-sorted sparse gradients, summing values on shared
/// indices.  The fold operator of the top-k gradient reduce: associative over
/// the ascending-rank fold order the collectives use, and the output stays
/// index-sorted, so the reduce is deterministic end to end.
fn merge_sparse(a: &[(usize, f64)], b: &[(usize, f64)]) -> Vec<(usize, f64)> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].0.cmp(&b[j].0) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push((a[i].0, a[i].1 + b[j].1));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Keeps the memory a training step frees in the process for the next
/// step, where the C library would hand it back to the kernel.
///
/// A step allocates its activations and gradients (≈36 MiB for the
/// benchmark's GraphSAGE step at scale 14) and frees them at its end.
/// glibc's `free` returns the top of its heap to the kernel once more than
/// its trim threshold is free there.  That threshold is twice the largest
/// `mmap`ped block freed so far, which is often smaller than a step.  So
/// every step faulted its pages back in: 141 k minor faults per `sage_train`
/// epoch, ≈0.4 s of a ≈1.3 s epoch.  The thresholds are fixed here at the
/// values glibc's own heuristic reaches once a 32 MiB block has been freed.
/// Blocks below 32 MiB then come from the heap, and a heap top is trimmed
/// only past 64 MiB free.  The peak is unchanged, since the pages kept were
/// resident at the step's own peak.  On other C libraries this does
/// nothing.
fn keep_step_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            extern "C" {
                fn mallopt(param: i32, value: i32) -> i32;
            }
            // `<malloc.h>`'s parameter numbers.
            const M_TRIM_THRESHOLD: i32 = -1;
            const M_MMAP_THRESHOLD: i32 = -3;
            // SAFETY: `mallopt` takes two integers and only stores malloc
            // parameters, under glibc's own arena lock, so any thread may
            // call it at any time.  Both values lie in the ranges glibc
            // accepts (an mmap threshold of at most 32 MiB on 64-bit); a
            // rejected value would leave the default in place.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, 64 << 20);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{
        BulkSamplerConfig, DistConfig, GraphSageSampler, LocalBackend, Partitioned1p5dBackend,
        ReplicatedBackend,
    };

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut cfg = DatasetConfig::products_like(7); // 128 vertices
        cfg.feature_dim = 16;
        cfg.num_classes = 4;
        cfg.train_fraction = 0.5;
        cfg.homophily = 0.6;
        build_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    fn local_base(dataset_seed: u64) -> SessionBuilder<GraphSageSampler, LocalBackend> {
        TrainingSession::builder()
            .dataset(tiny_dataset(dataset_seed))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(LocalBackend::new(BulkSamplerConfig::new(16, 4)).unwrap())
            .hidden_dim(16)
            .learning_rate(0.05)
    }

    fn local_session(seed: u64) -> TrainingSession<GraphSageSampler, LocalBackend> {
        local_base(seed).epochs(3).seed(42).build().unwrap()
    }

    /// A 4-rank (c = 2) replicated two-epoch session builder, evaluation off.
    fn replicated_base(
        dataset_seed: u64,
        seed: u64,
    ) -> SessionBuilder<GraphSageSampler, ReplicatedBackend> {
        TrainingSession::builder()
            .dataset(tiny_dataset(dataset_seed))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(2)
            .seed(seed)
            .without_evaluation()
    }

    #[test]
    fn builder_requires_components_and_positive_values() {
        let b: SessionBuilder<GraphSageSampler, LocalBackend> = TrainingSession::builder();
        assert!(b.build().is_err());
        let complete = || {
            TrainingSession::<GraphSageSampler, LocalBackend>::builder()
                .dataset(tiny_dataset(1))
                .sampler(GraphSageSampler::new(vec![2]))
                .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
        };
        assert!(complete().build().is_ok());
        assert!(complete().epochs(0).build().is_err());
        // A learning rate that is not positive and finite trains to garbage
        // without an error: rejected.
        for lr in [f64::NAN, f64::INFINITY, 0.0, -0.05] {
            match complete().learning_rate(lr).build() {
                Err(GnnError::InvalidConfig(message)) => {
                    assert!(message.contains("learning_rate must be positive"), "{lr}: {message}")
                }
                other => panic!("learning_rate {lr}: expected InvalidConfig, got {other:?}"),
            }
        }
        // Top-0 gradient compression would ship nothing, ever: rejected.
        assert!(complete().grad_top_k(0).build().is_err());
    }

    #[test]
    fn top_k_selection_and_sparse_merge_are_deterministic() {
        let v = [0.5, -2.0, 2.0, 0.0, -0.5];
        // Magnitude ties (indices 1/2 at |2.0|, then 0/4 at |0.5|) break
        // toward the lower index; the result comes back index-sorted.
        assert_eq!(top_k_indices(&v, 3), vec![0, 1, 2]);
        assert_eq!(top_k_indices(&v, 0), Vec::<usize>::new());
        assert_eq!(top_k_indices(&v, 99), vec![0, 1, 2, 3, 4]);
        let a = vec![(0, 1.0), (3, 2.0)];
        let b = vec![(1, 0.5), (3, -1.0), (7, 4.0)];
        assert_eq!(merge_sparse(&a, &b), vec![(0, 1.0), (1, 0.5), (3, 1.0), (7, 4.0)]);
        assert_eq!(merge_sparse(&a, &[]), a);
        assert_eq!(merge_sparse(&[], &b), b);
    }

    #[test]
    fn stream_yields_every_batch_in_plan_order() {
        let session = local_session(1);
        let plan = session.plan(0).unwrap();
        let minibatches: Vec<Minibatch> =
            session.stream(0).unwrap().collect::<Result<Vec<_>>>().unwrap();
        assert_eq!(minibatches.len(), plan.num_batches());
        for (i, mb) in minibatches.iter().enumerate() {
            assert_eq!(mb.index, i);
            assert_eq!(mb.epoch, 0);
            assert_eq!(mb.sample.batch.as_slice(), plan.batch(i));
            assert_eq!(mb.group, i / 4);
        }
    }

    #[test]
    fn stream_matches_eager_sampling_exactly() {
        // Double-buffered prefetch must not change what is sampled.
        let session = local_session(2);
        for epoch in 0..2 {
            let eager = session.sample_epoch_eager(epoch).unwrap();
            let streamed: Vec<Minibatch> =
                session.stream(epoch).unwrap().collect::<Result<Vec<_>>>().unwrap();
            assert_eq!(streamed.len(), eager.num_batches());
            for (mb, want) in streamed.iter().zip(&eager.minibatches) {
                assert_eq!(&mb.sample, want);
            }
        }
    }

    #[test]
    fn dropping_stream_midway_shuts_down_worker() {
        let session = local_session(3);
        let mut stream = session.stream(0).unwrap();
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.index, 0);
        drop(stream); // must not hang or leak the worker
    }

    /// GraphSAGE sampling that records the thread of every bulk call and
    /// fails call number `fail_at` (counting from 0), if any: with an error,
    /// or with a panic if `panics`.
    #[derive(Debug)]
    struct Probe {
        inner: GraphSageSampler,
        fail_at: Option<usize>,
        panics: bool,
        threads: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl Probe {
        fn calls(&self) -> usize {
            self.threads.lock().unwrap().len()
        }
    }

    impl Sampler for Probe {
        fn name(&self) -> &'static str {
            "probe"
        }

        fn num_layers(&self) -> usize {
            self.inner.num_layers()
        }

        fn fanout(&self, step: usize) -> usize {
            self.inner.fanout(step)
        }

        fn spec(&self) -> Option<dmbs_sampling::spec::SamplerSpec> {
            self.inner.spec()
        }

        fn sample_bulk(
            &self,
            adjacency: &CsrMatrix,
            batches: &[Vec<usize>],
            config: &BulkSamplerConfig,
            rng: &mut dyn rand::RngCore,
        ) -> dmbs_sampling::Result<BulkSampleOutput> {
            let call = {
                let mut threads = self.threads.lock().unwrap();
                threads.push(std::thread::current().id());
                threads.len() - 1
            };
            if Some(call) == self.fail_at {
                assert!(!self.panics, "probe panic");
                return Err(dmbs_sampling::SamplingError::InvalidConfig("probe failure".into()));
            }
            self.inner.sample_bulk(adjacency, batches, config, rng)
        }
    }

    /// A three-epoch session of 8 batches of 8 in bulk groups of 2: four
    /// groups per epoch, sampled by a [`Probe`] failing call `fail_at`.
    fn probe_session(fail_at: Option<usize>, panics: bool) -> TrainingSession<Probe, LocalBackend> {
        let inner = GraphSageSampler::new(vec![5, 5]).with_self_loops();
        let probe = Probe { inner, fail_at, panics, threads: Default::default() };
        TrainingSession::builder()
            .dataset(tiny_dataset(9))
            .sampler(probe)
            .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(3)
            .seed(5)
            .without_evaluation()
            .build()
            .unwrap()
    }

    #[test]
    fn a_multi_epoch_stream_yields_each_epoch_as_eager_sampling_does() {
        let session = probe_session(None, false);
        let streamed: Vec<Minibatch> =
            session.stream_epochs(0..3).unwrap().collect::<Result<Vec<_>>>().unwrap();
        let mut rest = streamed.as_slice();
        for epoch in 0..3 {
            let eager = session.sample_epoch_eager(epoch).unwrap();
            let (this, later) = rest.split_at(eager.num_batches());
            for (i, (mb, want)) in this.iter().zip(&eager.minibatches).enumerate() {
                assert_eq!((mb.epoch, mb.index, mb.group), (epoch, i, i / 2));
                assert_eq!(&mb.sample, want);
            }
            rest = later;
        }
        assert!(rest.is_empty());
        // The stream's calls all ran on one thread, and not this one.
        let threads = session.sampler.threads.lock().unwrap()[..12].to_vec();
        assert!(threads.iter().all(|&t| t == threads[0] && t != std::thread::current().id()));
    }

    #[test]
    fn train_books_each_epoch_over_one_sampling_worker() {
        let session = probe_session(None, false);
        let report = session.train().unwrap();
        let epochs: Vec<usize> = report.epochs.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, [0, 1, 2]);
        let threads = session.sampler.threads.lock().unwrap().clone();
        assert_eq!(threads.len(), 12);
        assert!(threads.iter().all(|&t| t == threads[0]), "one worker for the whole call");
        // The probe samples what GraphSAGE samples, so the losses are those
        // of the plain sampler's run.
        let plain = TrainingSession::builder()
            .dataset(tiny_dataset(9))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(3)
            .seed(5)
            .without_evaluation()
            .build()
            .unwrap();
        let losses = |r: &TrainingReport| r.epochs.iter().map(|e| e.mean_loss.to_bits()).collect();
        let want: Vec<u64> = losses(&plain.train().unwrap());
        assert_eq!(losses(&report), want);
    }

    #[test]
    fn an_error_mid_epoch_joins_the_one_worker() {
        // Call 5 is epoch 1's second group; it fails with an error, then
        // with a panic, which surfaces as an error too.
        for (panics, message) in [(false, "probe failure"), (true, "worker panicked")] {
            let session = probe_session(Some(5), panics);
            let mut stream = session.stream_epochs(0..3).unwrap();
            let mut yielded = Vec::new();
            let error = loop {
                match stream.next().expect("the stream ends in the error") {
                    Ok(mb) => yielded.push((mb.epoch, mb.index)),
                    Err(e) => break e,
                }
            };
            assert!(error.to_string().contains(message), "{error}");
            let want: Vec<(usize, usize)> =
                (0..8).map(|i| (0, i)).chain([(1, 0), (1, 1)]).collect();
            assert_eq!(yielded, want);
            // The error joined the worker: it holds the sampler no longer
            // and sampled nothing after the failure.
            assert_eq!(Arc::strong_count(&session.sampler), 1);
            assert!(stream.next().is_none());
            assert_eq!(session.sampler.calls(), 6);

            let session = probe_session(Some(5), panics);
            assert!(session.train().is_err());
            assert_eq!(Arc::strong_count(&session.sampler), 1);
            assert_eq!(session.sampler.calls(), 6);
        }
    }

    #[test]
    fn dropping_a_multi_epoch_stream_early_joins_the_worker() {
        let session = probe_session(None, false);
        let mut stream = session.stream_epochs(0..3).unwrap();
        assert_eq!(stream.next().unwrap().unwrap().index, 0);
        drop(stream);
        assert_eq!(Arc::strong_count(&session.sampler), 1);
        // Group 0 was handed over and group 1 at most was sampled ahead.
        assert!(session.sampler.calls() <= 2);
    }

    #[test]
    fn local_training_learns_above_chance() {
        let session = local_session(4);
        let report = session.train().unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert!(report.epochs.last().unwrap().mean_loss < report.epochs[0].mean_loss);
        let accuracy = report.test_accuracy.unwrap();
        let chance = 1.0 / session.dataset().graph.num_classes() as f64;
        assert!(accuracy > chance * 1.5, "accuracy {accuracy} vs chance {chance}");
        let e = &report.epochs[0];
        assert!(e.sampling_time() > 0.0);
        assert!(e.feature_fetch_time() > 0.0);
        assert!(e.propagation_time() > 0.0);
        assert!(e.total_time() >= e.sampling_time());
    }

    #[test]
    fn training_requires_features_and_labels() {
        let mut dataset = tiny_dataset(3);
        dataset.graph =
            dmbs_graph::Graph::from_adjacency(dataset.graph.adjacency().clone()).unwrap();
        let session = TrainingSession::builder()
            .dataset(dataset)
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(LocalBackend::new(BulkSamplerConfig::new(16, 4)).unwrap())
            .build()
            .unwrap();
        assert!(session.train().is_err());
    }

    #[test]
    fn replicated_training_runs_all_phases_and_communicates() {
        let session = TrainingSession::builder()
            .dataset(tiny_dataset(5))
            .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(2)
            .seed(11)
            .build()
            .unwrap();
        let report = session.train().unwrap();
        assert_eq!(report.epochs.len(), 2);
        for e in &report.epochs {
            assert!(e.sampling_time() > 0.0);
            assert!(e.feature_fetch_time() > 0.0);
            assert!(e.propagation_time() > 0.0);
            assert!(e.comm.messages > 0);
            assert!(e.mean_loss.is_finite());
        }
        assert!(report.epochs[1].mean_loss < report.epochs[0].mean_loss * 1.2);
        assert!(report.test_accuracy.is_some());
    }

    #[test]
    fn partitioned_backend_also_drives_training() {
        // The same session API trains through the graph-partitioned strategy.
        let session = TrainingSession::builder()
            .dataset(tiny_dataset(6))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(
                Partitioned1p5dBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(16, 4)))
                    .unwrap(),
            )
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(1)
            .seed(13)
            .build()
            .unwrap();
        let report = session.train().unwrap();
        assert_eq!(report.epochs.len(), 1);
        let e = &report.epochs[0];
        assert!(e.sampling_time() > 0.0);
        assert!(e.mean_loss.is_finite());
        // Partitioned sampling really communicates.
        assert!(e.comm.messages > 0);
    }

    #[test]
    fn feature_cache_modes_leave_local_training_byte_identical() {
        // A local backend has no wire, so every schedule knob — cache mode,
        // codec, overlap — is ignored: losses, accuracy and every comm
        // counter equal the default schedule's, bit for bit.
        let base = local_base(9).epochs(2).seed(31);
        let reference = base.clone().build().unwrap().train().unwrap();
        for cache in [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned] {
            for codec in [Codec::Exact, Codec::Int8] {
                for overlap in [false, true] {
                    let run = base
                        .clone()
                        .feature_cache(cache)
                        .wire_codec(codec)
                        .overlap(overlap)
                        .build()
                        .unwrap()
                        .train()
                        .unwrap();
                    let label = format!("{cache:?} {codec} overlap={overlap}");
                    assert_eq!(run.epochs.len(), reference.epochs.len(), "{label}");
                    for (a, b) in reference.epochs.iter().zip(&run.epochs) {
                        assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits(), "{label}");
                        assert_eq!(a.comm, b.comm, "{label}");
                    }
                    assert_eq!(
                        reference.test_accuracy.unwrap().to_bits(),
                        run.test_accuracy.unwrap().to_bits(),
                        "{label}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_pinned_cache_books_balance_exactly() {
        // Sampling and gradient traffic are identical cache-on vs cache-off,
        // so the words the pinned pipeline kept off the wire must equal the
        // difference in total words sent: saved + sent == uncached bill.
        let base = replicated_base(10, 33);
        let off =
            base.clone().feature_cache(FeatureCacheConfig::Off).build().unwrap().train().unwrap();
        let on = base.feature_cache(FeatureCacheConfig::Pinned).build().unwrap().train().unwrap();
        for (a, b) in off.epochs.iter().zip(&on.epochs) {
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
            assert!(b.comm.words_sent <= a.comm.words_sent);
            assert_eq!(
                b.comm.words_sent + b.comm.words_saved,
                a.comm.words_sent,
                "the α–β books must balance"
            );
        }
    }

    #[test]
    fn compressed_feature_wire_balances_bytes_and_still_learns() {
        let base = replicated_base(12, 21);
        let exact = base.clone().build().unwrap().train().unwrap();
        for e in &exact.epochs {
            // Exact default: every word costs exactly 8 bytes, nothing saved.
            assert_eq!(e.comm.bytes_on_wire, e.comm.words_sent * 8);
            assert_eq!(e.comm.bytes_saved, 0);
        }
        for codec in [Codec::Fp16, Codec::Int8] {
            let on = base.clone().wire_codec(codec).build().unwrap().train().unwrap();
            for (a, b) in exact.epochs.iter().zip(&on.epochs) {
                // The codec shrinks bytes, never the logical schedule.
                assert_eq!(a.comm.words_sent, b.comm.words_sent, "{codec}");
                assert_eq!(a.comm.messages, b.comm.messages, "{codec}");
                assert!(b.comm.bytes_on_wire < a.comm.bytes_on_wire, "{codec}");
                assert_eq!(
                    b.comm.bytes_on_wire + b.comm.bytes_saved,
                    a.comm.bytes_on_wire,
                    "{codec}: the byte books must balance"
                );
                assert!(b.mean_loss.is_finite(), "{codec}");
            }
            // Quantization error is bounded, so the loss trajectory stays
            // close to the exact run's.
            let (a, b) = (exact.epochs.last().unwrap(), on.epochs.last().unwrap());
            assert!(
                (a.mean_loss - b.mean_loss).abs() < 0.25,
                "{codec}: exact {} vs compressed {}",
                a.mean_loss,
                b.mean_loss
            );
        }
    }

    #[test]
    fn grad_top_k_shrinks_the_gradient_wire_and_still_trains() {
        let base = replicated_base(13, 27);
        let dense = base.clone().build().unwrap().train().unwrap();
        let sparse = base.grad_top_k(32).build().unwrap().train().unwrap();
        for (a, b) in dense.epochs.iter().zip(&sparse.epochs) {
            // Same collective schedule, genuinely fewer words: 2·k words of
            // (index, value) pairs replace one word per model parameter.
            assert_eq!(a.comm.messages, b.comm.messages);
            assert!(b.comm.words_sent < a.comm.words_sent);
            assert!(b.mean_loss.is_finite());
        }
        // Error feedback delays gradient mass instead of dropping it, so
        // training still converges.
        assert!(sparse.epochs.last().unwrap().mean_loss < sparse.epochs[0].mean_loss);
    }

    #[test]
    fn norep_moves_more_feature_data() {
        // NoRep (Figure 6) is the `c = 1` grid: every rank's process column
        // is the whole world, so feature rows cross where `c = p` ships none.
        let dataset = Arc::new(tiny_dataset(7));
        let train = |c: usize| {
            let dist = DistConfig::new(4, c, BulkSamplerConfig::new(16, 4));
            TrainingSession::builder()
                .dataset(Arc::clone(&dataset))
                .sampler(GraphSageSampler::new(vec![5, 5]).with_self_loops())
                .backend(ReplicatedBackend::new(dist).unwrap())
                .hidden_dim(16)
                .epochs(1)
                .seed(9)
                .build()
                .unwrap()
                .train()
                .unwrap()
        };
        let (rep, norep) = (train(4), train(1));
        assert!(norep.epochs[0].comm.words_sent > rep.epochs[0].comm.words_sent);
    }
}
