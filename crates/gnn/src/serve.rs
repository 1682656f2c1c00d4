//! The low-latency inference serving tier.
//!
//! Training answers "how fast can we finish an epoch"; serving answers "how
//! fast can we answer one user".  This module serves per-request
//! neighbor-sampling + forward-pass queries against a trained
//! [`ModelSnapshot`] exported by
//! [`TrainingSession::train_and_export`](crate::session::TrainingSession::train_and_export),
//! riding the bulk machinery the training tier already built instead of
//! growing a parallel implementation:
//!
//! ```text
//! request ─▶ admission ─▶ coalesce ─▶ micro-bulk ─▶ fetch ─▶ forward ─▶ reply
//!            control      window      sample         books
//!            (queue depth  (batch up   (bulk sampler, (hot tier,
//!             + timeout)    to k reqs)  shared SpGEMM  one α per bulk)
//!                                       workspace)
//! ```
//!
//! * **Micro-bulk coalescing.**  Requests that arrive within a configurable
//!   window (bounded by [`ServingConfig::max_micro_bulk`]) are batched into
//!   one micro-bulk: one sampling pass per request through the bulk kernels
//!   (sharing the thread-local SpGEMM workspace), then **one** deduplicated
//!   modeled α–β fetch message for the whole bulk.  Each request's input
//!   rows are read straight from the one feature matrix: serving has no
//!   wire, so it keeps no feature cache and ignores the training
//!   [`Schedule`](dmbs_comm::Schedule).
//!   Each request samples from its own seeded RNG stream
//!   ([`dmbs_sampling::micro`]), so coalescing is *byte-transparent*: a
//!   request's prediction is bit-for-bit independent of which other requests
//!   share its bulk.
//! * **Hot-vertex pinned tier.**  A running frequency count over gathered
//!   vertices periodically re-pins the hottest vertices; their rows are left
//!   out of the modeled fetch message.  Under a Zipf request mix (the
//!   open-loop bench) the tier absorbs the head of the distribution.
//! * **Admission control.**  A queue-depth bound sheds arrivals and a
//!   per-request timeout budget sheds stale queue entries, both with typed
//!   [`ServeError`]s — overload degrades into counted rejections, not
//!   unbounded queues.
//!
//! The open-loop driver ([`RequestTrace`] + [`ServingSession::run_trace`])
//! runs the queueing dynamics in deterministic *virtual* time driven by the
//! modeled service cost, so latency percentiles, coalescing factors and shed
//! counts are exactly reproducible across runs — the serving analogue of the
//! training tier's modeled α–β accounting — while measured wall time is
//! reported separately.
//!
//! # Example
//!
//! ```
//! use dmbs_gnn::serve::{ServingConfig, ServingSession};
//! use dmbs_gnn::session::TrainingSession;
//! use dmbs_graph::datasets::{build_dataset, DatasetConfig};
//! use dmbs_sampling::{BulkSamplerConfig, GraphSageSampler, LocalBackend};
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut cfg = DatasetConfig::products_like(6); // 64 vertices
//! cfg.feature_dim = 8;
//! cfg.num_classes = 4;
//! let dataset = build_dataset(&cfg, &mut StdRng::seed_from_u64(1))?;
//! let sampler = GraphSageSampler::new(vec![3, 3]).with_self_loops();
//! let session = TrainingSession::builder()
//!     .dataset(dataset.clone())
//!     .sampler(sampler.clone())
//!     .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2))?)
//!     .epochs(1)
//!     .build()?;
//! let (_report, snapshot) = session.train_and_export()?;
//!
//! let mut serving =
//!     ServingSession::new(dataset, sampler, snapshot, ServingConfig::default())?;
//! let response = serving.serve_one(5)?;
//! assert_eq!(response.vertex, 5);
//! assert!(response.prediction < 4);
//! # Ok(())
//! # }
//! ```

use crate::error::GnnError;
use crate::model::SageModel;
use dmbs_comm::{CommStats, CostModel};
use dmbs_graph::datasets::Dataset;
use dmbs_sampling::micro::{request_stream_seed, sample_micro_bulk, MicroRequest};
use dmbs_sampling::{BulkSamplerConfig, Sampler, SamplingError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Result alias for the serving tier.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// Typed failures of the serving tier.
///
/// Mirrors the [`GnnError`] pattern: struct-field variants carrying the
/// numbers a caller needs to react (retry, back off, fix the request), plus
/// a wrapper for errors propagated from the training-tier crates.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue is full; the request was shed at arrival.
    AdmissionRejected {
        /// Requests already queued when this one arrived.
        queue_depth: usize,
        /// The configured [`ServingConfig::queue_depth`] bound.
        limit: usize,
    },
    /// The request waited in the queue past its timeout budget and was shed
    /// before service.
    TimeoutExceeded {
        /// Seconds the request had waited when it was examined.
        waited: f64,
        /// The configured [`ServingConfig::timeout_budget`].
        budget: f64,
    },
    /// The requested seed vertex does not exist in the served graph.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        limit: usize,
    },
    /// The model snapshot does not fit the dataset or sampler it is being
    /// served against.
    ShapeMismatch {
        /// Which dimension disagrees (`"feature_dim"`, `"num_vertices"`,
        /// `"num_layers"`).
        what: &'static str,
        /// The snapshot's value.
        model: usize,
        /// The dataset's / sampler's value.
        graph: usize,
    },
    /// An error propagated from the model / feature layers.
    Gnn(GnnError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::AdmissionRejected { queue_depth, limit } => write!(
                f,
                "admission rejected: queue holds {queue_depth} requests (limit {limit})"
            ),
            ServeError::TimeoutExceeded { waited, budget } => write!(
                f,
                "timeout exceeded: request waited {waited:.6}s (budget {budget:.6}s)"
            ),
            ServeError::VertexOutOfRange { vertex, limit } => {
                write!(f, "vertex {vertex} out of range (graph has {limit} vertices)")
            }
            ServeError::ShapeMismatch { what, model, graph } => write!(
                f,
                "model/graph shape mismatch on {what}: snapshot has {model}, serving target has {graph}"
            ),
            ServeError::Gnn(e) => write!(f, "serving failed: {e}"),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Gnn(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GnnError> for ServeError {
    fn from(e: GnnError) -> Self {
        ServeError::Gnn(e)
    }
}

impl From<SamplingError> for ServeError {
    fn from(e: SamplingError) -> Self {
        ServeError::Gnn(GnnError::Sampling(e))
    }
}

impl From<dmbs_matrix::MatrixError> for ServeError {
    fn from(e: dmbs_matrix::MatrixError) -> Self {
        ServeError::Gnn(GnnError::Matrix(e))
    }
}

/// A trained model frozen for serving, together with the shape of the data
/// it was trained against so a [`ServingSession`] can validate compatibility
/// up front.
///
/// Produced by
/// [`TrainingSession::train_and_export`](crate::session::TrainingSession::train_and_export).
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    model: SageModel,
    feature_dim: usize,
    num_classes: usize,
    num_vertices: usize,
}

impl ModelSnapshot {
    /// Freezes `model` (trained against a graph of `num_vertices` vertices)
    /// for serving.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `num_vertices` is zero.
    pub fn new(model: SageModel, num_vertices: usize) -> crate::Result<Self> {
        if num_vertices == 0 {
            return Err(GnnError::InvalidConfig("a model snapshot needs a non-empty graph".into()));
        }
        let feature_dim = model.input_dim();
        let num_classes = model.num_classes();
        Ok(ModelSnapshot { model, feature_dim, num_classes, num_vertices })
    }

    /// The frozen model.
    pub fn model(&self) -> &SageModel {
        &self.model
    }

    /// Input feature dimension the model expects.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Number of vertices in the graph the model was trained on.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of GNN layers (sampling depth the snapshot requires).
    pub fn num_layers(&self) -> usize {
        self.model.num_layers()
    }
}

/// Configuration of a [`ServingSession`].
///
/// The deterministic service-time model that drives the open-loop queueing
/// simulation ([`ServingSession::run_trace`]) is fixed: serving a micro-bulk
/// of `k` requests with `E` sampled edges and `W` charged fetch words is
/// modeled as
///
/// ```text
/// SECONDS_PER_BATCH + k·SECONDS_PER_REQUEST + E·SECONDS_PER_EDGE + (α + β·W)
/// ```
///
/// with `SECONDS_PER_BATCH = 200 µs`, `SECONDS_PER_REQUEST = 20 µs`,
/// `SECONDS_PER_EDGE = 50 ns` and the α–β of [`CostModel::slingshot`], so
/// the per-batch overhead and the α latency amortize over the bulk — the
/// serving-tier analogue of the paper's bulk-sampling argument.  Requests
/// are sampled serially.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServingConfig {
    /// Largest number of requests coalesced into one micro-bulk.
    pub max_micro_bulk: usize,
    /// Coalescing window in (virtual) seconds: a batch closes no earlier
    /// than its oldest request's arrival plus this window.  `0.0` disables
    /// coalescing entirely (every batch holds one request).
    pub coalesce_window: f64,
    /// Admission bound: arrivals finding this many requests queued are shed.
    pub queue_depth: usize,
    /// Per-request timeout budget in (virtual) seconds: requests that waited
    /// longer are shed at batch-formation time instead of being served.
    pub timeout_budget: f64,
    /// Capacity of the hot-vertex pinned tier in rows (`0` disables it).
    pub hot_capacity: usize,
    /// Re-pin the hot tier from the running frequency counts every this many
    /// micro-bulks.
    pub hot_warm_interval: usize,
    /// Base seed of the per-request sampling streams.
    pub seed: u64,
}

/// Fixed modeled overhead of serving one micro-bulk (kernel + forward
/// launch).
const SECONDS_PER_BATCH: f64 = 2.0e-4;
/// Modeled per-request service time (per-request sampling + forward).
const SECONDS_PER_REQUEST: f64 = 2.0e-5;
/// Modeled per-sampled-edge service time (aggregation work).
const SECONDS_PER_EDGE: f64 = 5.0e-8;

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            max_micro_bulk: 16,
            coalesce_window: 1.0e-3,
            queue_depth: 64,
            timeout_budget: 0.1,
            hot_capacity: 256,
            hot_warm_interval: 8,
            seed: 0,
        }
    }
}

/// One inference request: predict the label of `vertex`.
///
/// The `id` names the request's private sampling stream (via
/// [`request_stream_seed`] under the session seed), so the *same* `(session
/// seed, id, vertex)` triple always produces the *same* prediction — alone,
/// coalesced, or replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeRequest {
    /// Caller-assigned request id (the sampling-stream selector).
    pub id: u64,
    /// The vertex whose label is requested.
    pub vertex: usize,
}

/// The answer to one [`ServeRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResponse {
    /// Id of the request this answers.
    pub id: u64,
    /// The queried vertex.
    pub vertex: usize,
    /// Predicted class (argmax of `logits`).
    pub prediction: usize,
    /// Raw output logits, one per class — kept so byte-identity can be
    /// asserted at full precision, not just on the argmax.
    pub logits: Vec<f64>,
}

/// Deterministic counters of a [`ServingSession`] — every field is exact
/// under a fixed seed and request trace, which is what the CI drift gate
/// pins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to the session (served + shed).
    pub requests_offered: usize,
    /// Requests answered with a prediction.
    pub requests_served: usize,
    /// Requests shed by the admission queue-depth bound.
    pub shed_admission: usize,
    /// Requests shed by the per-request timeout budget.
    pub shed_timeout: usize,
    /// Micro-bulks executed.
    pub batches: usize,
    /// Fetch rows of vertices pinned in the hot tier (left out of the fetch
    /// message).
    pub hot_hits: usize,
    /// Fetch rows of vertices not pinned in the hot tier (charged to the
    /// fetch message).
    pub hot_misses: usize,
}

impl ServeStats {
    /// Mean requests per micro-bulk — `1.0` means coalescing never engaged.
    pub fn coalescing_factor(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests_served as f64 / self.batches as f64
        }
    }

    /// Fraction of fetch rows served from the hot tier, or `None` before any
    /// fetch happened.
    pub fn hot_hit_rate(&self) -> Option<f64> {
        let lookups = self.hot_hits + self.hot_misses;
        (lookups > 0).then(|| self.hot_hits as f64 / lookups as f64)
    }
}

/// The hot-vertex pinned tier: running frequency counts over gathered
/// vertices, and the currently pinned hottest ones.  It pins vertex ids, not
/// row copies: the rows live in the feature matrix, which ingest never
/// changes.
#[derive(Debug, Default)]
struct HotVertexTier {
    capacity: usize,
    counts: HashMap<usize, u64>,
    pinned: HashSet<usize>,
    /// Pinned vertices whose neighborhood a graph ingest dirtied since the
    /// last rewarm.  Serving one is a typed error, never a silent answer
    /// against the pre-ingest graph.
    stale: HashSet<usize>,
}

impl HotVertexTier {
    fn new(capacity: usize) -> Self {
        HotVertexTier { capacity, ..HotVertexTier::default() }
    }

    fn note(&mut self, vertex: usize) {
        if self.capacity > 0 {
            *self.counts.entry(vertex).or_insert(0) += 1;
        }
    }

    fn contains(&self, vertex: usize) -> bool {
        self.pinned.contains(&vertex)
    }

    /// Marks every pinned row among `dirty` stale; returns how many newly
    /// became stale.
    fn mark_stale(&mut self, dirty: &[usize]) -> usize {
        let mut marked = 0;
        for &v in dirty {
            if self.pinned.contains(&v) && self.stale.insert(v) {
                marked += 1;
            }
        }
        marked
    }

    fn is_stale(&self, vertex: usize) -> bool {
        self.stale.contains(&vertex)
    }

    /// Re-pins the `capacity` hottest vertices.  Ties break by vertex id so
    /// the pinned set is a pure function of the counts — rewarming is
    /// deterministic.
    fn rewarm(&mut self) {
        if self.capacity == 0 {
            return;
        }
        let mut by_freq: Vec<(u64, usize)> = self.counts.iter().map(|(&v, &c)| (c, v)).collect();
        by_freq.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        self.pinned.clear();
        // Rewarming repins against the current graph, so staleness is
        // discharged wholesale.
        self.stale.clear();
        self.pinned.extend(by_freq.iter().take(self.capacity).map(|&(_, v)| v));
    }

    fn resident(&self) -> usize {
        self.pinned.len()
    }
}

/// A serving session: a frozen [`ModelSnapshot`], the graph it serves, and
/// the coalescing / caching / admission machinery around them.
///
/// See the [module docs](self) for the request path and the example.
#[derive(Debug)]
pub struct ServingSession<S> {
    dataset: Arc<Dataset>,
    sampler: S,
    snapshot: ModelSnapshot,
    config: ServingConfig,
    hot: HotVertexTier,
    stats: ServeStats,
    comm: CommStats,
    next_request_id: u64,
    batches_since_warm: usize,
    /// Monotone graph version: bumped by [`ServingSession::notify_ingest`].
    graph_version: u64,
    /// Graph version the hot tier was last (re)warmed against.
    hot_pinned_version: u64,
}

impl<S: Sampler> ServingSession<S> {
    /// Opens a serving session for `snapshot` against `dataset`, validating
    /// that the three shapes that must agree do: the feature dimension, the
    /// vertex count, and the sampler's layer depth.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShapeMismatch`] naming the first disagreeing
    /// dimension, or [`ServeError::Gnn`] if the dataset has no feature
    /// matrix.
    pub fn new(
        dataset: impl Into<Arc<Dataset>>,
        sampler: S,
        snapshot: ModelSnapshot,
        config: ServingConfig,
    ) -> ServeResult<Self> {
        let dataset = dataset.into();
        let features = dataset.graph.features().ok_or_else(|| {
            GnnError::InvalidConfig("serving needs a dataset with features".into())
        })?;
        if features.cols() != snapshot.feature_dim() {
            return Err(ServeError::ShapeMismatch {
                what: "feature_dim",
                model: snapshot.feature_dim(),
                graph: features.cols(),
            });
        }
        let num_vertices = dataset.graph.adjacency().rows();
        if num_vertices != snapshot.num_vertices() {
            return Err(ServeError::ShapeMismatch {
                what: "num_vertices",
                model: snapshot.num_vertices(),
                graph: num_vertices,
            });
        }
        if sampler.num_layers() != snapshot.num_layers() {
            return Err(ServeError::ShapeMismatch {
                what: "num_layers",
                model: snapshot.num_layers(),
                graph: sampler.num_layers(),
            });
        }
        let hot = HotVertexTier::new(config.hot_capacity);
        Ok(ServingSession {
            dataset,
            sampler,
            snapshot,
            config,
            hot,
            stats: ServeStats::default(),
            comm: CommStats::default(),
            next_request_id: 0,
            batches_since_warm: 0,
            graph_version: 0,
            hot_pinned_version: 0,
        })
    }

    /// Tells the session a graph ingest landed, dirtying `dirty` vertices
    /// (typically [`dmbs_graph::IngestReceipt::dirty`]).  Bumps the graph
    /// version and marks every pinned hot-tier row among `dirty` stale:
    /// serving one afterwards is a typed
    /// [`GnnError::StalePlan`] until [`ServingSession::rewarm`] (or the
    /// periodic rewarm) repins against the post-ingest graph.  Un-pinned
    /// rows are untouched — invalidation is precise.  Returns how many
    /// pinned rows became stale.
    pub fn notify_ingest(&mut self, dirty: &[usize]) -> usize {
        self.graph_version += 1;
        self.hot.mark_stale(dirty)
    }

    /// The graph version the session has been notified up to.
    pub fn graph_version(&self) -> u64 {
        self.graph_version
    }

    /// Explicitly re-pins the hot tier from the running frequency counts,
    /// discharging any ingest staleness.
    pub fn rewarm(&mut self) {
        self.hot.rewarm();
        self.hot_pinned_version = self.graph_version;
        self.batches_since_warm = 0;
    }

    /// The session's deterministic counters so far.
    pub fn stats(&self) -> ServeStats {
        self.stats
    }

    /// The session's modeled α–β communication books so far (fetch messages
    /// amortized over their micro-bulks, hot-tier savings as cache hits).
    pub fn comm_stats(&self) -> CommStats {
        self.comm
    }

    /// Rows currently pinned in the hot tier.
    pub fn hot_resident(&self) -> usize {
        self.hot.resident()
    }

    /// Checks the admission bound against `pending` already-queued requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::AdmissionRejected`] when the queue is full.
    pub fn check_admission(&self, pending: usize) -> ServeResult<()> {
        if pending >= self.config.queue_depth {
            return Err(ServeError::AdmissionRejected {
                queue_depth: pending,
                limit: self.config.queue_depth,
            });
        }
        Ok(())
    }

    /// Checks a request's queueing delay against the timeout budget.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::TimeoutExceeded`] when `waited` exceeds it.
    pub fn check_timeout(&self, waited: f64) -> ServeResult<()> {
        if waited > self.config.timeout_budget {
            return Err(ServeError::TimeoutExceeded { waited, budget: self.config.timeout_budget });
        }
        Ok(())
    }

    /// Serves one request, assigning it the next session request id.
    ///
    /// # Errors
    ///
    /// Those of [`ServingSession::serve`].
    pub fn serve_one(&mut self, vertex: usize) -> ServeResult<ServeResponse> {
        let id = self.next_request_id;
        self.next_request_id += 1;
        let mut out = self.serve(&[ServeRequest { id, vertex }])?;
        Ok(out.pop().expect("one request yields one response"))
    }

    /// Serves one micro-bulk of already-admitted requests: per-request
    /// seeded sampling, one deduplicated hot-tier-aware fetch message
    /// amortized over the bulk, and a forward pass per request over its
    /// input rows of the feature matrix.
    ///
    /// Responses come back in request order.  Because every request samples
    /// from its own stream, the responses are bit-for-bit what each request
    /// would get served alone (the byte-identity pinned by
    /// `tests/serving_pipeline.rs`).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::VertexOutOfRange`] for an unknown vertex, a
    /// wrapped [`GnnError::StalePlan`] when the gather touches a hot-tier
    /// row dirtied by [`ServingSession::notify_ingest`], and propagates
    /// sampling / model errors.
    pub fn serve(&mut self, requests: &[ServeRequest]) -> ServeResult<Vec<ServeResponse>> {
        Ok(self.serve_inner(requests)?.0)
    }

    /// Deterministic modeled service seconds of one micro-bulk (see
    /// [`ServingConfig`]).
    fn modeled_service_seconds(k: usize, edges: usize, charged_words: usize) -> f64 {
        let fetch = if charged_words > 0 {
            CostModel::slingshot().message_cost(charged_words)
        } else {
            0.0
        };
        SECONDS_PER_BATCH + k as f64 * SECONDS_PER_REQUEST + edges as f64 * SECONDS_PER_EDGE + fetch
    }

    fn serve_inner(&mut self, requests: &[ServeRequest]) -> ServeResult<(Vec<ServeResponse>, f64)> {
        if requests.is_empty() {
            return Ok((Vec::new(), 0.0));
        }
        let num_vertices = self.snapshot.num_vertices();
        for r in requests {
            if r.vertex >= num_vertices {
                return Err(ServeError::VertexOutOfRange { vertex: r.vertex, limit: num_vertices });
            }
        }
        let features = self.dataset.graph.features().expect("validated at new()");
        let micro_reqs: Vec<MicroRequest> = requests
            .iter()
            .map(|r| MicroRequest {
                vertex: r.vertex,
                seed: request_stream_seed(self.config.seed, r.id),
            })
            .collect();
        let micro = sample_micro_bulk(
            &self.sampler,
            self.dataset.graph.adjacency(),
            &micro_reqs,
            &BulkSamplerConfig::new(1, 1),
        )?;

        // --- One coalesced fetch message for the whole micro-bulk: hot-tier
        // rows are free, everything else is charged to it.  The pass only
        // counts, so a refused micro-bulk books nothing.
        let fdim = self.snapshot.feature_dim();
        let union = micro.plan.unique_vertices();
        let mut hot_rows = 0;
        for &v in union {
            if self.hot.is_stale(v) {
                // A pinned row dirtied by an ingest: refuse with the same
                // typed staleness error the training tier's fetch plans use,
                // instead of answering against the pre-ingest graph.
                return Err(ServeError::Gnn(GnnError::StalePlan {
                    plan_version: self.hot_pinned_version,
                    graph_version: self.graph_version,
                }));
            }
            hot_rows += usize::from(self.hot.contains(v));
        }
        let charged_rows = union.len() - hot_rows;
        self.stats.hot_hits += hot_rows;
        self.stats.hot_misses += charged_rows;
        for _ in 0..hot_rows {
            // A pinned row never enters the fetch message: one α–β row
            // (features + the request id word) stayed off the wire.
            self.comm.record_cache_hit(fdim + 1);
        }
        let k = requests.len();
        let charged_words = charged_rows * (fdim + 1);
        if charged_words > 0 {
            // One message for the whole micro-bulk: α paid once, amortized
            // over its k requests in the per-request books.
            self.comm.record_amortized(charged_words, &CostModel::slingshot(), k);
        }

        // --- Forward pass per request over its input rows.
        let mut responses = Vec::with_capacity(k);
        for (request, sample) in requests.iter().zip(&micro.samples) {
            let input = features.gather_rows(sample.input_vertices())?;
            let logits = self.snapshot.model().logits(sample, &input)?;
            let prediction = logits.row_argmax()[0];
            responses.push(ServeResponse {
                id: request.id,
                vertex: request.vertex,
                prediction,
                logits: logits.row(0).to_vec(),
            });
        }

        // --- Bookkeeping: frequency statistics, periodic hot-tier rewarm.
        for &v in union {
            self.hot.note(v);
        }
        self.stats.requests_offered += k;
        self.stats.requests_served += k;
        self.stats.batches += 1;
        self.batches_since_warm += 1;
        if self.config.hot_capacity > 0
            && self.batches_since_warm >= self.config.hot_warm_interval.max(1)
        {
            self.hot.rewarm();
            self.hot_pinned_version = self.graph_version;
            self.batches_since_warm = 0;
        }
        let service = Self::modeled_service_seconds(k, micro.total_edges(), charged_words);
        Ok((responses, service))
    }

    /// Replays an open-loop [`RequestTrace`] through the session's queueing
    /// machinery in deterministic virtual time.
    ///
    /// A single server drains a FIFO queue: a batch closes no earlier than
    /// its oldest request's arrival plus the coalescing window (window `0`
    /// serves strictly one request per batch), takes up to
    /// [`ServingConfig::max_micro_bulk`] queued requests, sheds the ones past
    /// their timeout budget, serves the rest as one micro-bulk and advances
    /// virtual time by the modeled service cost.  Arrivals finding the queue
    /// at [`ServingConfig::queue_depth`] are shed at their arrival instant.
    ///
    /// Everything in the returned report except `wall_s` is a pure function
    /// of the session seed, the configuration and the trace — two same-seed
    /// runs agree exactly (the determinism guard of
    /// `tests/serving_pipeline.rs`).
    ///
    /// # Errors
    ///
    /// Those of [`ServingSession::serve`] (trace vertices are validated per
    /// batch).
    pub fn run_trace(&mut self, trace: &RequestTrace) -> ServeResult<ServeReport> {
        let wall_start = std::time::Instant::now();
        let arrivals = &trace.arrivals;
        let mut latencies = Vec::with_capacity(arrivals.len());
        let mut queue: VecDeque<(u64, usize, f64)> = VecDeque::new();
        let mut next = 0usize;
        let mut free_at = 0.0f64;
        let mut makespan = 0.0f64;
        let window = self.config.coalesce_window;
        let cap = if window > 0.0 { self.config.max_micro_bulk.max(1) } else { 1 };

        while next < arrivals.len() || !queue.is_empty() {
            if queue.is_empty() {
                // An empty queue always admits the next arrival directly.
                let a = arrivals[next];
                queue.push_back((next as u64, a.vertex, a.at));
                next += 1;
            }
            let head_arrival = queue.front().expect("non-empty").2;
            let close = if window > 0.0 { head_arrival + window } else { head_arrival };
            let start = free_at.max(close);
            // Admit (or shed) every arrival up to the batch's start instant.
            while next < arrivals.len() && arrivals[next].at <= start {
                let a = arrivals[next];
                if self.check_admission(queue.len()).is_err() {
                    self.stats.requests_offered += 1;
                    self.stats.shed_admission += 1;
                } else {
                    queue.push_back((next as u64, a.vertex, a.at));
                }
                next += 1;
            }
            // Form the batch: FIFO order, timeout-shed entries do not count
            // against the micro-bulk capacity.
            let mut batch: Vec<(u64, usize, f64)> = Vec::new();
            while batch.len() < cap {
                let Some(entry) = queue.pop_front() else { break };
                if self.check_timeout(start - entry.2).is_err() {
                    self.stats.requests_offered += 1;
                    self.stats.shed_timeout += 1;
                    continue;
                }
                batch.push(entry);
            }
            if batch.is_empty() {
                free_at = free_at.max(start);
                makespan = makespan.max(start);
                continue;
            }
            let requests: Vec<ServeRequest> =
                batch.iter().map(|&(id, vertex, _)| ServeRequest { id, vertex }).collect();
            let (_, service) = self.serve_inner(&requests)?;
            let finish = start + service;
            for &(_, _, arrival) in &batch {
                latencies.push(finish - arrival);
            }
            free_at = finish;
            makespan = makespan.max(finish);
        }

        Ok(ServeReport {
            stats: self.stats,
            comm: self.comm,
            latencies,
            makespan,
            wall_s: wall_start.elapsed().as_secs_f64(),
        })
    }
}

/// One arrival of an open-loop request trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceArrival {
    /// Arrival instant in virtual seconds.
    pub at: f64,
    /// The requested seed vertex.
    pub vertex: usize,
}

/// A deterministic open-loop request trace: Poisson arrivals at a target
/// QPS, seed vertices drawn from a Zipf distribution (the "millions of
/// users" access pattern — a heavy head and a long tail).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The arrivals, in non-decreasing time order.
    pub arrivals: Vec<TraceArrival>,
}

impl RequestTrace {
    /// Generates `num_requests` arrivals: exponential interarrival times at
    /// rate `qps`, vertices Zipf-distributed with exponent `zipf_exponent`
    /// over `0..num_vertices` (vertex `0` hottest).  Fully determined by
    /// `seed`.
    pub fn open_loop(
        num_requests: usize,
        qps: f64,
        zipf_exponent: f64,
        num_vertices: usize,
        seed: u64,
    ) -> Self {
        assert!(num_vertices > 0, "a trace needs a non-empty vertex universe");
        assert!(qps > 0.0, "a trace needs a positive arrival rate");
        // Inverse-CDF table of the (truncated) Zipf distribution.
        let mut cumulative = Vec::with_capacity(num_vertices);
        let mut total = 0.0f64;
        for i in 0..num_vertices {
            total += 1.0 / ((i + 1) as f64).powf(zipf_exponent);
            cumulative.push(total);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut at = 0.0f64;
        let mut arrivals = Vec::with_capacity(num_requests);
        for _ in 0..num_requests {
            let u: f64 = rng.gen();
            // Exponential interarrival: -ln(1-u)/λ, u ∈ [0, 1).
            at += -(1.0 - u).ln() / qps;
            let z: f64 = rng.gen::<f64>() * total;
            let vertex = cumulative.partition_point(|&c| c < z).min(num_vertices - 1);
            arrivals.push(TraceArrival { at, vertex });
        }
        RequestTrace { arrivals }
    }

    /// Number of arrivals in the trace.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the trace holds no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// What a [`RequestTrace`] replay produced: the session counters, the
/// modeled communication books, and the per-served-request virtual-time
/// latencies.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Deterministic serving counters (cumulative for the session).
    pub stats: ServeStats,
    /// Modeled α–β communication books (cumulative for the session).
    pub comm: CommStats,
    /// Virtual-time latency of every served request, in service order.
    /// Deterministic — these feed the bench's p50/p99/p999.
    pub latencies: Vec<f64>,
    /// Virtual time at which the last batch finished.
    pub makespan: f64,
    /// Measured wall seconds of the replay (the only non-deterministic
    /// field).
    pub wall_s: f64,
}

impl ServeReport {
    /// Served requests per virtual second over the whole replay.
    pub fn sustained_qps(&self) -> f64 {
        if self.makespan > 0.0 {
            self.stats.requests_served as f64 / self.makespan
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::TrainingSession;
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{GraphSageSampler, LocalBackend};

    fn trained_setup() -> (Arc<Dataset>, GraphSageSampler, ModelSnapshot) {
        let mut cfg = DatasetConfig::products_like(6); // 64 vertices
        cfg.feature_dim = 6;
        cfg.num_classes = 3;
        let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(9)).unwrap());
        let sampler = GraphSageSampler::new(vec![3, 3]).with_self_loops();
        let session = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(sampler.clone())
            .backend(LocalBackend::new(BulkSamplerConfig::new(8, 2)).unwrap())
            .epochs(1)
            .without_evaluation()
            .build()
            .unwrap();
        let (_, snapshot) = session.train_and_export().unwrap();
        (dataset, sampler, snapshot)
    }

    #[test]
    fn serve_answers_requests_and_counts() {
        let (dataset, sampler, snapshot) = trained_setup();
        let mut s =
            ServingSession::new(dataset, sampler, snapshot, ServingConfig::default()).unwrap();
        let reqs = [ServeRequest { id: 0, vertex: 3 }, ServeRequest { id: 1, vertex: 17 }];
        let out = s.serve(&reqs).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].vertex, 3);
        assert_eq!(out[1].id, 1);
        assert!(out.iter().all(|r| r.prediction < 3 && r.logits.len() == 3));
        assert_eq!(s.stats().requests_served, 2);
        assert_eq!(s.stats().batches, 1);
        assert!((s.stats().coalescing_factor() - 2.0).abs() < 1e-12);
        // The micro-bulk was billed as one message amortized over 2 requests.
        assert_eq!(s.comm_stats().messages, 1);
        assert_eq!(s.comm_stats().amortized_requests, 2);
        // serve_one assigns fresh ids.
        let one = s.serve_one(3).unwrap();
        assert_eq!(one.id, 0);
        assert_eq!(s.stats().batches, 2);
    }

    #[test]
    fn hot_tier_warms_and_serves_rows() {
        let (dataset, sampler, snapshot) = trained_setup();
        let config =
            ServingConfig { hot_capacity: 64, hot_warm_interval: 1, ..ServingConfig::default() };
        let mut s = ServingSession::new(dataset, sampler, snapshot, config).unwrap();
        let cold = s.serve_one(5).unwrap();
        assert_eq!(s.stats().hot_hits, 0);
        assert!(s.hot_resident() > 0, "rewarm after the first batch");
        // The same request id/vertex replayed now hits the pinned tier and
        // still answers byte-identically.
        let warm = s.serve(&[ServeRequest { id: 0, vertex: 5 }]).unwrap();
        assert!(s.stats().hot_hits > 0);
        assert!(s.comm_stats().words_saved > 0);
        let a: Vec<u64> = cold.logits.iter().map(|x| x.to_bits()).collect();
        let b: Vec<u64> = warm[0].logits.iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn ingest_staleness_is_typed_and_rewarm_discharges_it() {
        let (dataset, sampler, snapshot) = trained_setup();
        let config =
            ServingConfig { hot_capacity: 64, hot_warm_interval: 1000, ..ServingConfig::default() };
        let mut s = ServingSession::new(dataset, sampler, snapshot, config).unwrap();
        // Warm the tier on a request, then explicitly repin so vertex 5's
        // frontier is resident.
        s.serve_one(5).unwrap();
        s.rewarm();
        assert!(s.hot_resident() > 0);
        assert_eq!(s.graph_version(), 0);
        // Dirty every pinned vertex: an ingest touched their neighborhoods.
        let all: Vec<usize> = (0..64).collect();
        let marked = s.notify_ingest(&all);
        assert_eq!(marked, s.hot_resident());
        assert_eq!(s.graph_version(), 1);
        // Serving a request whose gather hits a stale pinned row is the
        // typed staleness error, not a silent pre-ingest answer.
        let err = s.serve(&[ServeRequest { id: 7, vertex: 5 }]).unwrap_err();
        assert!(matches!(
            err,
            ServeError::Gnn(GnnError::StalePlan { plan_version: 0, graph_version: 1 })
        ));
        // Dirtying again is idempotent on already-stale rows.
        assert_eq!(s.notify_ingest(&all), 0);
        // Rewarm repins against the current graph and service resumes.
        s.rewarm();
        let out = s.serve(&[ServeRequest { id: 7, vertex: 5 }]).unwrap();
        assert_eq!(out[0].vertex, 5);
    }

    #[test]
    fn a_refused_micro_bulk_books_nothing() {
        let (dataset, sampler, snapshot) = trained_setup();
        let config =
            ServingConfig { hot_capacity: 64, hot_warm_interval: 1000, ..ServingConfig::default() };
        let mut s = ServingSession::new(dataset, sampler, snapshot, config).unwrap();
        let request = [ServeRequest { id: 0, vertex: 5 }];
        s.serve(&request).unwrap();
        s.rewarm();
        // Dirty only the highest pinned vertex, so the staleness pass meets
        // every other pinned row of the gather before the stale one.
        let highest = *s.hot.pinned.iter().max().unwrap();
        assert_eq!(s.notify_ingest(&[highest]), 1);
        let (stats, comm) = (s.stats(), s.comm_stats());
        let err = s.serve(&request).unwrap_err();
        assert!(matches!(err, ServeError::Gnn(GnnError::StalePlan { .. })));
        assert_eq!(s.stats(), stats);
        assert_eq!(s.comm_stats(), comm);
    }

    #[test]
    fn admission_and_timeout_checks_are_typed() {
        let (dataset, sampler, snapshot) = trained_setup();
        let config =
            ServingConfig { queue_depth: 2, timeout_budget: 0.5, ..ServingConfig::default() };
        let s = ServingSession::new(dataset, sampler, snapshot, config).unwrap();
        assert!(s.check_admission(1).is_ok());
        assert!(matches!(
            s.check_admission(2),
            Err(ServeError::AdmissionRejected { queue_depth: 2, limit: 2 })
        ));
        assert!(s.check_timeout(0.5).is_ok());
        assert!(matches!(s.check_timeout(0.6), Err(ServeError::TimeoutExceeded { .. })));
    }

    #[test]
    fn trace_is_deterministic_and_zipf_skewed() {
        let t1 = RequestTrace::open_loop(500, 1000.0, 1.1, 40, 13);
        let t2 = RequestTrace::open_loop(500, 1000.0, 1.1, 40, 13);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), 500);
        assert!(!t1.is_empty());
        // Arrivals are time-ordered.
        assert!(t1.arrivals.windows(2).all(|w| w[0].at <= w[1].at));
        // The head of the Zipf distribution dominates the tail.
        let head = t1.arrivals.iter().filter(|a| a.vertex < 4).count();
        let tail = t1.arrivals.iter().filter(|a| a.vertex >= 36).count();
        assert!(head > 3 * tail, "head {head} vs tail {tail}");
    }

    #[test]
    fn run_trace_serves_sheds_and_reports() {
        let (dataset, sampler, snapshot) = trained_setup();
        // Overload a coalescing-disabled server so both shed paths engage.
        let config = ServingConfig {
            coalesce_window: 0.0,
            queue_depth: 4,
            timeout_budget: 2.0e-3,
            ..ServingConfig::default()
        };
        let mut s = ServingSession::new(dataset, sampler, snapshot, config).unwrap();
        let trace = RequestTrace::open_loop(300, 20_000.0, 1.1, 50, 3);
        let report = s.run_trace(&trace).unwrap();
        let st = report.stats;
        assert_eq!(st.requests_offered, 300);
        assert_eq!(st.requests_served + st.shed_admission + st.shed_timeout, 300);
        assert!(st.shed_admission > 0, "overload must shed at admission");
        assert_eq!(report.latencies.len(), st.requests_served);
        assert!(report.makespan > 0.0);
        assert!(report.sustained_qps() > 0.0);
        // window = 0 means no coalescing: exactly one request per batch.
        assert!((st.coalescing_factor() - 1.0).abs() < 1e-12);
        // Every served latency respects the timeout budget plus service.
        let max_latency = report.latencies.iter().cloned().fold(0.0, f64::max);
        assert!(max_latency < config.timeout_budget + 0.1);
    }

    #[test]
    fn shape_mismatches_are_rejected_up_front() {
        let (dataset, sampler, snapshot) = trained_setup();
        // Wrong sampler depth.
        let shallow = GraphSageSampler::new(vec![3]).with_self_loops();
        let err = ServingSession::new(
            Arc::clone(&dataset),
            shallow,
            snapshot.clone(),
            ServingConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { what: "num_layers", .. }));
        // Wrong graph.
        let mut other_cfg = DatasetConfig::products_like(5); // 32 vertices
        other_cfg.feature_dim = 6;
        other_cfg.num_classes = 3;
        let other = build_dataset(&other_cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        let err =
            ServingSession::new(other, sampler, snapshot, ServingConfig::default()).unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { what: "num_vertices", .. }));
    }

    #[test]
    fn errors_display_and_convert() {
        let e = ServeError::AdmissionRejected { queue_depth: 9, limit: 8 };
        assert!(e.to_string().contains("queue holds 9"));
        let e = ServeError::TimeoutExceeded { waited: 0.2, budget: 0.1 };
        assert!(e.to_string().contains("budget"));
        let e = ServeError::VertexOutOfRange { vertex: 7, limit: 5 };
        assert!(e.to_string().contains("vertex 7"));
        let e = ServeError::ShapeMismatch { what: "feature_dim", model: 8, graph: 6 };
        assert!(e.to_string().contains("feature_dim"));
        let wrapped: ServeError = GnnError::InvalidConfig("x".into()).into();
        assert!(wrapped.source().is_some());
        let via_sampling: ServeError = SamplingError::InvalidConfig("y".into()).into();
        assert!(matches!(via_sampling, ServeError::Gnn(GnnError::Sampling(_))));
    }
}
