//! The distributed feature store, its all-to-allv fetching step (§6.2), and
//! the communication-avoiding per-rank feature cache layered on top of it.
//!
//! The input feature matrix `H` is partitioned into block rows.  With the
//! paper's 1.5D scheme, `H` is split into `p/c` block rows, each replicated
//! on the `c` ranks of its process row; a rank then fetches the rows it needs
//! with an all-to-allv **within its process column**, which contains exactly
//! one replica of every block row.  The larger the replication factor `c`,
//! the fewer ranks each fetch touches — the mechanism behind the Figure 4/6
//! scaling of the feature-fetching phase.  Setting the number of blocks to
//! `p` (one block per rank, `c = 1` for features) gives the "NoRep"
//! configuration of Figure 6.
//!
//! # The communication-avoiding tier
//!
//! Feature fetching is the dominant communication cost of minibatch training,
//! yet bulk sampling (§4) materializes *every* frontier of a bulk group
//! before the first gradient step — exactly the information needed to move
//! each remote feature row at most once.  [`FeatureCache`] exploits that in
//! two modes:
//!
//! * [`FeatureCacheConfig::EpochPinned`] — a
//!   [`FetchPlan`](dmbs_sampling::FetchPlan) built from the sampled
//!   minibatches is prefetched with **one** all-to-allv round
//!   ([`FeatureCache::prefetch`]) and pinned; per-step gathers
//!   ([`FeatureCache::gather_pinned`]) are then purely local, so the
//!   per-step collectives disappear entirely (α *and* β savings);
//! * [`FeatureCacheConfig::Lru`] — a byte-budgeted read-through cache on
//!   the per-step fetch ([`FeatureCache::fetch_through`]): the per-step
//!   all-to-allv still runs on every rank (keeping collectives matched), but
//!   only cache *misses* cross the wire, and resident rows are evicted
//!   least-recently-used.
//!
//! Both modes are pure work avoidance: the rows a cache serves are exact
//! copies of what [`FeatureStore::fetch`] would have returned, so cached and
//! uncached training are byte-identical (pinned by the
//! `tests/backend_equivalence.rs` sweep).  Hits, misses and the α–β words
//! kept off the wire are recorded in [`CommStats`].
//!
//! The cache lives only here, in front of the wire.  Single-device training
//! and the serving tier read rows straight from the one in-memory feature
//! matrix (`DenseMatrix::gather_rows`): without a wire there is nothing for
//! a cache to avoid, so they ignore the cache mode.

use crate::error::GnnError;
use crate::Result;
/// Configuration of the per-rank [`FeatureCache`]; defined beside
/// [`dmbs_comm::Schedule`], whose `cache` field it is.
pub use dmbs_comm::FeatureCacheConfig;
use dmbs_comm::{Codec, CommStats, Communicator, Group, PendingCollective, WireRows};
use dmbs_graph::partition::OneDPartition;
use dmbs_matrix::DenseMatrix;
use std::collections::{BTreeMap, HashMap, HashSet};

/// One rank's shard of the vertex feature matrix.
#[derive(Debug, Clone)]
pub struct FeatureStore {
    partition: OneDPartition,
    block_index: usize,
    block: DenseMatrix,
    feature_dim: usize,
    /// How reply rows travel on the fetch lanes (requests stay exact ids).
    codec: Codec,
}

impl FeatureStore {
    /// Builds the shard for `block_index` out of the full feature matrix.
    ///
    /// `num_blocks` is the number of block rows `H` is split into (the number
    /// of process rows in the 1.5D layout, or `p` for NoRep).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if `block_index >= num_blocks` or
    /// the partition cannot be built.
    pub fn from_full(
        features: &DenseMatrix,
        num_blocks: usize,
        block_index: usize,
    ) -> Result<Self> {
        if block_index >= num_blocks {
            return Err(GnnError::InvalidConfig(format!(
                "block index {block_index} out of range for {num_blocks} blocks"
            )));
        }
        let partition = OneDPartition::new(features.rows(), num_blocks)?;
        let range = partition.range(block_index);
        let rows: Vec<usize> = range.collect();
        let block = features.gather_rows(&rows)?;
        Ok(FeatureStore {
            partition,
            block_index,
            block,
            feature_dim: features.cols(),
            codec: Codec::Exact,
        })
    }

    /// Sets the wire codec for the reply rounds of
    /// [`FeatureStore::fetch`] / [`FeatureStore::post_fetch`]: reply rows are
    /// encoded once at the serving rank and decoded at the requester, so
    /// every consumer of fetched rows — including the [`FeatureCache`], which
    /// stores *decoded* rows — sees the same values on every transport.
    /// Request ids always travel exact.  All ranks of a fetch group must
    /// agree on the codec (the session builder guarantees this).
    pub fn with_codec(mut self, codec: Codec) -> Self {
        self.codec = codec;
        self
    }

    /// The wire codec in effect for reply rows.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Feature dimension.
    pub fn feature_dim(&self) -> usize {
        self.feature_dim
    }

    /// Number of vertex rows stored locally.
    pub fn local_rows(&self) -> usize {
        self.block.rows()
    }

    /// The vertex partition over all blocks.
    pub fn partition(&self) -> &OneDPartition {
        &self.partition
    }

    /// The block row this shard holds.
    pub fn block_index(&self) -> usize {
        self.block_index
    }

    /// True when `vertex` is owned by this shard's block, i.e. a fetch for it
    /// never crosses the wire.
    pub fn is_locally_owned(&self, vertex: usize) -> bool {
        vertex < self.partition.len() && self.partition.owner_of(vertex) == self.block_index
    }

    /// Reads the features of vertices that are stored locally.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::InvalidConfig`] if any vertex is not owned by this
    /// block.
    pub fn local_features(&self, vertices: &[usize]) -> Result<DenseMatrix> {
        let range = self.partition.range(self.block_index);
        let locals: Vec<usize> = vertices
            .iter()
            .map(|&v| {
                if range.contains(&v) {
                    Ok(v - range.start)
                } else {
                    Err(GnnError::InvalidConfig(format!(
                        "vertex {v} is not stored in block {}",
                        self.block_index
                    )))
                }
            })
            .collect::<Result<_>>()?;
        Ok(self.block.gather_rows(&locals)?)
    }

    /// Fetches the features of arbitrary vertices with an all-to-allv across
    /// `group`, where the member at position `i` of the group owns block `i`
    /// (in the 1.5D layout this is the caller's process column; for NoRep it
    /// is the whole world).  Every member of the group must call this the
    /// same number of times per training step, even with an empty request.
    ///
    /// Returns the requested rows in the order of `vertices`.
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::FetchGroupMismatch`] if the group size does not
    /// match the number of blocks, [`GnnError::VertexOutOfRange`] for a
    /// vertex id outside the partition, or a communication error if a
    /// collective fails.
    pub fn fetch(
        &self,
        comm: &mut Communicator,
        group: &Group,
        vertices: &[usize],
    ) -> Result<DenseMatrix> {
        let (requests, origin) = self.bucket_requests(group, vertices)?;
        // Exchange requests, serve them from the local block, exchange rows
        // (encoded under the store's wire codec).
        let incoming = comm.group_all_to_allv(group, requests)?;
        let replies = self.serve_requests(&incoming);
        let received = comm.group_all_to_allv(group, replies)?;
        let decoded: Vec<Vec<f64>> = received.iter().map(WireRows::rows).collect();
        Ok(self.assemble_rows(&origin, &decoded))
    }

    /// Posts the fetch of `vertices` nonblocking: the request round's
    /// messages leave immediately (on the tagged nonblocking lane, so any
    /// amount of blocking traffic may run in between) and the returned
    /// [`PendingFetch`] completes the exchange when waited.  The traffic —
    /// message counts, words, α–β modeled time — is identical to
    /// [`FeatureStore::fetch`]; only the schedule moves.
    ///
    /// Every rank of `group` must post at the same pipeline point and wait at
    /// the same later point (the reply round runs inside
    /// [`PendingFetch::wait`], modeling an asynchronous progress engine that
    /// serves requests while the poster computes).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::FetchGroupMismatch`] /
    /// [`GnnError::VertexOutOfRange`] exactly like [`FeatureStore::fetch`],
    /// plus any communication error from posting.
    pub fn post_fetch(
        &self,
        comm: &mut Communicator,
        group: &Group,
        vertices: &[usize],
    ) -> Result<PendingFetch> {
        let (requests, origin) = self.bucket_requests(group, vertices)?;
        let pending_requests = comm.post_group_all_to_allv(group, requests)?;
        Ok(PendingFetch { pending_requests, origin })
    }

    /// Buckets `vertices` by owning block; returns the per-member request
    /// lists and, for each requested vertex, its `(owner, slot)` origin.
    #[allow(clippy::type_complexity)]
    fn bucket_requests(
        &self,
        group: &Group,
        vertices: &[usize],
    ) -> Result<(Vec<Vec<usize>>, Vec<(usize, usize)>)> {
        if group.len() != self.partition.num_parts() {
            return Err(GnnError::FetchGroupMismatch {
                blocks: self.partition.num_parts(),
                group: group.len(),
            });
        }
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); group.len()];
        let mut origin: Vec<(usize, usize)> = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if v >= self.partition.len() {
                return Err(GnnError::VertexOutOfRange { vertex: v, limit: self.partition.len() });
            }
            let owner = self.partition.owner_of(v);
            origin.push((owner, requests[owner].len()));
            requests[owner].push(v);
        }
        Ok((requests, origin))
    }

    /// Serves incoming per-member request lists from the local block,
    /// encoding each member's reply rows under the store's wire codec (the
    /// lossy quantization — if any — happens exactly once, here).
    fn serve_requests(&self, incoming: &[Vec<usize>]) -> Vec<WireRows> {
        let my_range = self.partition.range(self.block_index);
        incoming
            .iter()
            .map(|wanted| {
                let mut flat = Vec::with_capacity(wanted.len() * self.feature_dim);
                for &v in wanted {
                    let local = v - my_range.start;
                    flat.extend_from_slice(self.block.row(local));
                }
                WireRows::from_rows(self.codec, self.feature_dim, &flat)
            })
            .collect()
    }

    /// Reassembles the received per-owner reply rows in request order.
    fn assemble_rows(&self, origin: &[(usize, usize)], received: &[Vec<f64>]) -> DenseMatrix {
        let mut out = DenseMatrix::zeros(origin.len(), self.feature_dim);
        for (i, &(owner, slot)) in origin.iter().enumerate() {
            let start = slot * self.feature_dim;
            out.row_mut(i).copy_from_slice(&received[owner][start..start + self.feature_dim]);
        }
        out
    }
}

/// An in-flight [`FeatureCache::post_prefetch`]: the posted fetch plus the
/// rows it will pin when completed.
#[must_use = "a posted prefetch does nothing until completed"]
#[derive(Debug)]
pub struct PendingPrefetch {
    fetch: PendingFetch,
    missing: Vec<usize>,
}

impl PendingPrefetch {
    /// The vertices this prefetch requested (will be pinned on completion).
    pub fn requested(&self) -> &[usize] {
        &self.missing
    }
}

/// An in-flight [`FeatureStore::post_fetch`].  Must be waited by every rank
/// of the fetch group at the same pipeline point.
#[must_use = "a posted fetch does nothing until waited"]
#[derive(Debug)]
pub struct PendingFetch {
    pending_requests: PendingCollective<Vec<usize>>,
    origin: Vec<(usize, usize)>,
}

impl PendingFetch {
    /// Completes the fetch: receives the in-flight requests, serves them from
    /// the local block and exchanges the reply rows.  Returns the requested
    /// rows in the order they were passed to [`FeatureStore::post_fetch`],
    /// byte-identical to a blocking [`FeatureStore::fetch`].
    ///
    /// # Errors
    ///
    /// Propagates communication errors from the reply exchange.
    pub fn wait(
        self,
        store: &FeatureStore,
        comm: &mut Communicator,
        group: &Group,
    ) -> Result<DenseMatrix> {
        let incoming = self.pending_requests.wait(comm)?;
        let replies = store.serve_requests(&incoming);
        let received = comm.group_all_to_allv(group, replies)?;
        let decoded: Vec<Vec<f64>> = received.iter().map(WireRows::rows).collect();
        Ok(store.assemble_rows(&self.origin, &decoded))
    }
}

/// How cached feature state reacts to a graph ingest
/// ([`dmbs_graph::ingest::GraphIngest`]).
///
/// Edge batches never change *feature rows* — features live on vertices — so
/// invalidation here is about derived state: fetch plans computed against the
/// old adjacency and the rows they pinned.  Both policies leave training
/// byte-identical (the rows a refetch returns are the rows the cache held);
/// they differ only in the refetch bill, which the
/// [`CommStats`] invalidation books account for exactly:
/// `invalidation_words(FlushAll) == invalidation_words(Precise) +
/// retained_words(Precise)` for the same ingest schedule.  Ingest lands
/// between epochs, after the [`FeatureCacheConfig::EpochPinned`] cache has
/// dropped its epoch's rows, so the policies only differ for the
/// [`FeatureCacheConfig::Lru`] cache; the pinned cache books nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InvalidationPolicy {
    /// Evict exactly the resident rows whose vertex lies in the ingest's
    /// dirty set, and book every survivor as retained (the default).
    #[default]
    Precise,
    /// Evict everything resident, booking it all as invalidated — the
    /// brute-force baseline precise invalidation is measured against.
    FlushAll,
}

/// Checks a [`FetchPlan`](dmbs_sampling::FetchPlan) against the current
/// graph version: a plan computed before the last ingest must be recomputed,
/// not served.
///
/// # Errors
///
/// Returns [`GnnError::StalePlan`] when `plan.version() < graph_version`.
pub fn ensure_plan_fresh(plan: &dmbs_sampling::FetchPlan, graph_version: u64) -> Result<()> {
    if plan.version() < graph_version {
        return Err(GnnError::StalePlan { plan_version: plan.version(), graph_version });
    }
    Ok(())
}

/// One resident feature row.
#[derive(Debug, Clone)]
struct CachedRow {
    data: Vec<f64>,
    /// Last-use tick, mirrored in the LRU index.
    tick: u64,
    /// True while the wire cost of this row has been paid (by a prefetch)
    /// but not yet consumed by a lookup.  The first hit on a charged row
    /// saves nothing — the baseline would have paid the same single
    /// transfer — every later hit saves the full request + reply.
    charged: bool,
}

/// A per-rank feature cache layered on a [`FeatureStore`] — the
/// communication-avoiding tier of the §6.2 feature pipeline (see the module
/// docs for the two modes).
///
/// All accounting flows into a [`CommStats`] whose cache counters obey the
/// invariant that, summed across ranks,
/// `words_sent(cached run) + words_saved == words_sent(uncached run)` for
/// the feature-fetch phase.
#[derive(Debug, Clone)]
pub struct FeatureCache {
    config: FeatureCacheConfig,
    feature_dim: usize,
    rows: HashMap<usize, CachedRow>,
    /// LRU index: last-use tick → vertex.  Ticks are unique, so eviction
    /// (pop the smallest tick) is deterministic.
    by_tick: BTreeMap<u64, usize>,
    /// Vertices requested by a posted-but-not-yet-completed prefetch
    /// ([`FeatureCache::post_prefetch`]).  A later post must not re-request
    /// them — that keeps the overlapped schedule's per-epoch word counts
    /// byte-identical to the synchronous schedule's.
    in_flight: HashSet<usize>,
    /// Maximum resident rows (`usize::MAX` when pinned, 0 when off).
    max_rows: usize,
    tick: u64,
    stats: CommStats,
}

impl FeatureCache {
    /// Creates a cache for rows of width `feature_dim`.
    ///
    /// An [`FeatureCacheConfig::Lru`] budget smaller than one row yields a
    /// cache that stores nothing (every lookup misses); this is well-defined
    /// and still byte-identical, just save-free.
    pub fn new(config: FeatureCacheConfig, feature_dim: usize) -> Self {
        let max_rows = match config {
            FeatureCacheConfig::Off => 0,
            FeatureCacheConfig::EpochPinned => usize::MAX,
            FeatureCacheConfig::Lru { byte_budget } => {
                byte_budget / (feature_dim.max(1) * std::mem::size_of::<f64>())
            }
        };
        FeatureCache {
            config,
            feature_dim,
            rows: HashMap::new(),
            by_tick: BTreeMap::new(),
            in_flight: HashSet::new(),
            max_rows,
            tick: 0,
            stats: CommStats::default(),
        }
    }

    /// The configured mode.
    pub fn config(&self) -> FeatureCacheConfig {
        self.config
    }

    /// Number of rows currently resident.
    pub fn resident_rows(&self) -> usize {
        self.rows.len()
    }

    /// Bytes currently resident (feature data only).
    pub fn resident_bytes(&self) -> usize {
        self.rows.len() * self.feature_dim * std::mem::size_of::<f64>()
    }

    /// Accumulated hit/miss/words-saved counters (the wire counters of the
    /// returned [`CommStats`] are always zero — actual traffic is recorded
    /// by the [`Communicator`]).
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Returns and resets the accumulated counters.
    pub fn take_stats(&mut self) -> CommStats {
        std::mem::take(&mut self.stats)
    }

    /// Drops every resident row (epoch boundary for the pinned mode); the
    /// stats counters are kept.  Any in-flight posted prefetch is forgotten —
    /// the pipelined trainer drains its pipeline before the epoch boundary,
    /// so nothing is in flight when this runs.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.by_tick.clear();
        self.in_flight.clear();
    }

    /// Evicts exactly the resident rows whose vertex lies in `dirty` (the
    /// [`InvalidationPolicy::Precise`] reaction to a graph ingest), books
    /// each eviction's refetch words into the
    /// [`CommStats::rows_invalidated`] /
    /// [`CommStats::invalidation_words`] books, and books every surviving
    /// resident row as retained.  Pending in-flight requests for dirty
    /// vertices are forgotten too.  Returns the number of rows evicted.
    pub fn invalidate(&mut self, store: &FeatureStore, dirty: &[usize]) -> usize {
        let mut evicted = 0;
        for &v in dirty {
            if let Some(row) = self.rows.remove(&v) {
                self.by_tick.remove(&row.tick);
                let words = self.words_for_remote(store, v);
                self.stats.record_invalidation(words);
                evicted += 1;
            }
            self.in_flight.remove(&v);
        }
        let survivors: Vec<usize> = self.rows.keys().copied().collect();
        for v in survivors {
            let words = self.words_for_remote(store, v);
            self.stats.record_retention(words);
        }
        evicted
    }

    /// Evicts everything resident (the [`InvalidationPolicy::FlushAll`]
    /// reaction to a graph ingest), booking every row as invalidated.
    /// Returns the number of rows evicted.
    pub fn invalidate_all(&mut self, store: &FeatureStore) -> usize {
        let vertices: Vec<usize> = self.rows.keys().copied().collect();
        for &v in &vertices {
            let words = self.words_for_remote(store, v);
            self.stats.record_invalidation(words);
        }
        self.clear();
        vertices.len()
    }

    /// Words a hit on `vertex` keeps off the wire: one request id plus one
    /// feature row for remote-owned vertices, nothing for locally-owned ones
    /// (they never travel in the baseline either).
    fn words_for_remote(&self, store: &FeatureStore, vertex: usize) -> usize {
        if store.is_locally_owned(vertex) {
            0
        } else {
            self.feature_dim + 1
        }
    }

    /// Bumps `vertex` to most-recently-used.
    fn touch(&mut self, vertex: usize) {
        if let Some(row) = self.rows.get_mut(&vertex) {
            self.by_tick.remove(&row.tick);
            self.tick += 1;
            row.tick = self.tick;
            self.by_tick.insert(self.tick, vertex);
        }
    }

    /// Inserts a row, evicting least-recently-used entries beyond the
    /// capacity.  `charged` marks a prefetched row whose first lookup must
    /// not count as a saving.
    fn insert(&mut self, vertex: usize, data: &[f64], charged: bool) {
        if self.max_rows == 0 {
            return;
        }
        self.tick += 1;
        if let Some(old) =
            self.rows.insert(vertex, CachedRow { data: data.to_vec(), tick: self.tick, charged })
        {
            self.by_tick.remove(&old.tick);
        }
        self.by_tick.insert(self.tick, vertex);
        while self.rows.len() > self.max_rows {
            let (_, evicted) = self.by_tick.pop_first().expect("rows and index stay in sync");
            self.rows.remove(&evicted);
        }
    }

    /// Prefetches the missing subset of `plan_vertices` with **one**
    /// collective fetch round and pins the rows: a
    /// [`FeatureCache::post_prefetch`] completed at once by
    /// [`FeatureCache::complete_prefetch`], with the same messages, words
    /// and α–β time as a blocking [`FeatureStore::fetch`].  Every rank of
    /// `group` must call this collectively (with its own plan); a rank whose
    /// plan is fully resident still participates with an empty request,
    /// which is what keeps the collectives matched.
    ///
    /// Returns the number of rows that were actually fetched.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureStore::fetch`] errors (group mismatch, vertex out
    /// of range, collective failures).
    pub fn prefetch(
        &mut self,
        store: &FeatureStore,
        comm: &mut Communicator,
        group: &Group,
        plan_vertices: &[usize],
    ) -> Result<usize> {
        let pending = self.post_prefetch(store, comm, group, plan_vertices)?;
        self.complete_prefetch(store, comm, group, pending)
    }

    /// Posts the prefetch of `plan_vertices` nonblocking — the first half of
    /// [`FeatureCache::prefetch`], which the pipelined trainer splits around
    /// the previous group's training.  The missing set excludes both
    /// resident rows *and* rows already requested by an earlier still-pending
    /// post, so a software-pipelined schedule (post group `k + 1` before
    /// group `k`'s rows have landed) requests exactly the rows the
    /// synchronous schedule would: per-epoch words stay byte-identical.
    ///
    /// Complete with [`FeatureCache::complete_prefetch`] before the first
    /// [`FeatureCache::gather_pinned`] that needs the rows.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureStore::post_fetch`] errors.
    pub fn post_prefetch(
        &mut self,
        store: &FeatureStore,
        comm: &mut Communicator,
        group: &Group,
        plan_vertices: &[usize],
    ) -> Result<PendingPrefetch> {
        let missing: Vec<usize> = plan_vertices
            .iter()
            .copied()
            .filter(|v| !self.rows.contains_key(v) && !self.in_flight.contains(v))
            .collect();
        // Mark rows in flight only once the post succeeded: a failed post
        // (group mismatch, out-of-range vertex) must leave the cache exactly
        // as it found it, so a corrected retry re-requests the same rows.
        let fetch = store.post_fetch(comm, group, &missing)?;
        self.in_flight.extend(missing.iter().copied());
        Ok(PendingPrefetch { fetch, missing })
    }

    /// Completes a posted prefetch: waits the in-flight exchange, pins the
    /// fetched rows and records them as the misses that paid for the
    /// transfer.  Returns the number of rows that crossed the wire.
    ///
    /// # Errors
    ///
    /// Propagates [`PendingFetch::wait`] errors.
    pub fn complete_prefetch(
        &mut self,
        store: &FeatureStore,
        comm: &mut Communicator,
        group: &Group,
        pending: PendingPrefetch,
    ) -> Result<usize> {
        let PendingPrefetch { fetch, missing } = pending;
        let fetched = fetch.wait(store, comm, group)?;
        for (i, &v) in missing.iter().enumerate() {
            self.in_flight.remove(&v);
            // A prefetched row is a cache *miss* — it was fetched fresh —
            // so a cold cache is visible in the counters.
            self.stats.record_cache_miss();
            self.insert(v, fetched.row(i), true);
        }
        Ok(missing.len())
    }

    /// Serves `vertices` purely from resident rows — the per-step gather of
    /// the pinned mode, after [`FeatureCache::prefetch`] covered the plan.
    /// No collective is issued, so **every** rank must be in pinned mode for
    /// the pipeline to stay matched (the session builder guarantees this).
    ///
    /// # Errors
    ///
    /// Returns [`GnnError::CacheMiss`] if a vertex was never prefetched —
    /// an invariant violation, since the plan is computed from the same
    /// samples that are being trained.
    pub fn gather_pinned(
        &mut self,
        store: &FeatureStore,
        vertices: &[usize],
    ) -> Result<DenseMatrix> {
        let mut out = DenseMatrix::zeros(vertices.len(), self.feature_dim);
        for (i, &v) in vertices.iter().enumerate() {
            let row = self.rows.get_mut(&v).ok_or(GnnError::CacheMiss { vertex: v })?;
            out.row_mut(i).copy_from_slice(&row.data);
            let first_use_of_charged = std::mem::replace(&mut row.charged, false);
            let saved = if first_use_of_charged { 0 } else { self.words_for_remote(store, v) };
            self.stats.record_cache_hit(saved);
        }
        Ok(out)
    }

    /// Read-through fetch for the LRU mode: the collective
    /// [`FeatureStore::fetch`] is **always** issued (so ranks stay matched),
    /// but it carries only the deduplicated cache misses; hits are served
    /// from resident rows and the fetched rows are inserted (evicting LRU
    /// entries beyond the byte budget).
    ///
    /// Returns the rows in the order of `vertices`, byte-identical to an
    /// uncached [`FeatureStore::fetch`] of the full list.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureStore::fetch`] errors.
    pub fn fetch_through(
        &mut self,
        store: &FeatureStore,
        comm: &mut Communicator,
        group: &Group,
        vertices: &[usize],
    ) -> Result<DenseMatrix> {
        // Deduplicated misses: even within one call, a repeated vertex
        // crosses the wire once.
        let mut missing: Vec<usize> = Vec::new();
        let mut seen_missing: HashMap<usize, usize> = HashMap::new();
        for &v in vertices {
            if !self.rows.contains_key(&v) && !seen_missing.contains_key(&v) {
                seen_missing.insert(v, missing.len());
                missing.push(v);
            }
        }
        let fetched = store.fetch(comm, group, &missing)?;

        let mut out = DenseMatrix::zeros(vertices.len(), self.feature_dim);
        let mut first_use: Vec<bool> = vec![true; missing.len()];
        for (i, &v) in vertices.iter().enumerate() {
            if let Some(&slot) = seen_missing.get(&v) {
                out.row_mut(i).copy_from_slice(fetched.row(slot));
                if first_use[slot] {
                    // The use that paid for the transfer.
                    first_use[slot] = false;
                    self.stats.record_cache_miss();
                } else {
                    // A duplicate of a miss within the same call: the
                    // baseline would have shipped the row again.
                    let saved = self.words_for_remote(store, v);
                    self.stats.record_cache_hit(saved);
                }
            } else {
                let row = self.rows.get(&v).expect("resident: not in the miss set");
                out.row_mut(i).copy_from_slice(&row.data);
                self.touch(v);
                let saved = self.words_for_remote(store, v);
                self.stats.record_cache_hit(saved);
            }
        }
        // Insert after assembly: the inserting use is the one that paid.
        for (slot, &v) in missing.iter().enumerate() {
            self.insert(v, fetched.row(slot), false);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_comm::{ProcessGrid, Runtime};

    fn full_features(n: usize, f: usize) -> DenseMatrix {
        // Row v = [v, v+0.5, v+1.0, ...] so fetched rows are easy to verify.
        DenseMatrix::from_rows(
            &(0..n)
                .map(|v| (0..f).map(|j| v as f64 + j as f64 * 0.5).collect())
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    #[test]
    fn shard_construction_and_local_reads() {
        let h = full_features(10, 3);
        let store = FeatureStore::from_full(&h, 3, 1).unwrap();
        assert_eq!(store.feature_dim(), 3);
        assert_eq!(store.local_rows(), 3); // rows 4..7
        let local = store.local_features(&[4, 6]).unwrap();
        assert_eq!(local.get(0, 0), 4.0);
        assert_eq!(local.get(1, 0), 6.0);
        assert!(store.local_features(&[0]).is_err());
        assert!(FeatureStore::from_full(&h, 3, 3).is_err());
    }

    #[test]
    fn fetch_within_process_column_matches_full_matrix() {
        // 4 ranks, c = 2: feature matrix split into 2 block rows; each process
        // column {0,2} / {1,3} holds one full copy.
        let n = 12;
        let h = full_features(n, 4);
        let runtime = Runtime::new(4).unwrap();
        let outs = runtime
            .run(|comm| {
                let grid = ProcessGrid::new(comm.size(), 2).unwrap();
                let (my_row, _) = grid.coords(comm.rank());
                let store = FeatureStore::from_full(&h, grid.rows(), my_row).unwrap();
                let col_group = Group::new(&grid.col_ranks(comm.rank())).unwrap();
                // Each rank wants a different scattered set of vertices.
                let wanted: Vec<usize> = vec![comm.rank(), 11 - comm.rank(), 5];
                let fetched = store.fetch(comm, &col_group, &wanted).unwrap();
                (wanted, fetched)
            })
            .unwrap();
        for out in outs {
            let (wanted, fetched) = out.value;
            for (i, &v) in wanted.iter().enumerate() {
                assert_eq!(fetched.row(i), h.row(v), "vertex {v} features mismatch");
            }
            // Fetching moved data between ranks.
            assert!(out.stats.messages > 0);
        }
    }

    #[test]
    fn norep_fetch_uses_whole_world_and_costs_more_messages() {
        let n = 16;
        let h = full_features(n, 2);
        let runtime = Runtime::new(4).unwrap();

        // Replicated (c = 4 → a single block, fetches are local).
        let rep = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, 1, 0).unwrap();
                let group = Group::new(&[comm.rank()]).unwrap();
                let fetched = store.fetch(comm, &group, &[1, 7, 13]).unwrap();
                (fetched.get(2, 0), comm.stats().words_sent)
            })
            .unwrap();
        // NoRep (one block per rank, fetch across the whole world).
        let norep = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let fetched = store.fetch(comm, &world, &[1, 7, 13]).unwrap();
                (fetched.get(2, 0), comm.stats().words_sent)
            })
            .unwrap();
        for (r, n_) in rep.iter().zip(&norep) {
            assert_eq!(r.value.0, 13.0);
            assert_eq!(n_.value.0, 13.0);
            // NoRep ships feature rows over the (simulated) network; the fully
            // replicated store ships nothing.
            assert_eq!(r.value.1, 0);
            assert!(n_.value.1 > 0);
        }
    }

    #[test]
    fn fetch_under_compressed_codecs_balances_the_byte_book() {
        let n = 16;
        let f = 8;
        let h = full_features(n, f);
        let runtime = Runtime::new(4).unwrap();
        let wanted: Vec<usize> = vec![1, 7, 13, 2, 11, 5];
        let run = |codec: Codec| {
            runtime
                .run(|comm| {
                    let store = FeatureStore::from_full(&h, comm.size(), comm.rank())
                        .unwrap()
                        .with_codec(codec);
                    assert_eq!(store.codec(), codec);
                    let world = comm.world();
                    let fetched = store.fetch(comm, &world, &wanted).unwrap();
                    (fetched, comm.stats())
                })
                .unwrap()
        };
        let exact = run(Codec::Exact);
        for e in &exact {
            // Exact: the byte book is exactly 8 × words, nothing saved.
            assert_eq!(e.value.1.bytes_on_wire, e.value.1.words_sent * 8);
            assert_eq!(e.value.1.bytes_saved, 0);
            for (i, &v) in wanted.iter().enumerate() {
                assert_eq!(e.value.0.row(i), h.row(v));
            }
        }
        for codec in [Codec::Fp16, Codec::Int8] {
            let out = run(codec);
            for (e, o) in exact.iter().zip(&out) {
                // Identical logical traffic; strictly fewer wire bytes; the
                // balance identity holds per rank.
                assert_eq!(e.value.1.words_sent, o.value.1.words_sent);
                assert_eq!(e.value.1.messages, o.value.1.messages);
                assert!(o.value.1.bytes_on_wire < e.value.1.bytes_on_wire, "{codec}");
                assert_eq!(
                    o.value.1.bytes_on_wire + o.value.1.bytes_saved,
                    e.value.1.bytes_on_wire,
                    "{codec}: byte books must balance"
                );
                // Decoded rows stay within the codec's error bound.
                for (i, &v) in wanted.iter().enumerate() {
                    let max_abs = h.row(v).iter().fold(0.0f64, |m, &x| m.max(x.abs()));
                    for (a, b) in h.row(v).iter().zip(o.value.0.row(i)) {
                        let tol = match codec {
                            Codec::Exact => 0.0,
                            Codec::Fp16 => a.abs() / 1024.0 + 1e-12,
                            Codec::Int8 => max_abs / 254.0 + 1e-12,
                        };
                        assert!((a - b).abs() <= tol, "{codec}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn fetch_validates_group_and_vertices() {
        let h = full_features(8, 2);
        let runtime = Runtime::new(2).unwrap();
        let outs = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, 2, comm.rank()).unwrap();
                let wrong_group = Group::new(&[comm.rank()]).unwrap();
                let bad_group = store.fetch(comm, &wrong_group, &[0]).is_err();
                let world = comm.world();
                let bad_vertex = store.fetch(comm, &world, &[99]).is_err();
                bad_group && bad_vertex
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value));
    }

    #[test]
    fn pinned_prefetch_then_gather_matches_direct_fetch_and_saves_words() {
        let n = 16;
        let f = 4;
        let h = full_features(n, f);
        let runtime = Runtime::new(4).unwrap();
        // Each rank wants the same scattered list twice (two "steps").
        let wanted: Vec<usize> = vec![1, 7, 13, 7, 2];
        let uncached = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let a = store.fetch(comm, &world, &wanted).unwrap();
                let b = store.fetch(comm, &world, &wanted).unwrap();
                (a, b, comm.stats().words_sent)
            })
            .unwrap();
        let cached = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let mut cache = FeatureCache::new(FeatureCacheConfig::EpochPinned, f);
                let mut plan = wanted.clone();
                plan.sort_unstable();
                plan.dedup();
                cache.prefetch(&store, comm, &world, &plan).unwrap();
                let a = cache.gather_pinned(&store, &wanted).unwrap();
                let b = cache.gather_pinned(&store, &wanted).unwrap();
                (a, b, comm.stats().words_sent, *cache.stats())
            })
            .unwrap();
        let mut words_uncached = 0;
        let mut words_cached = 0;
        let mut words_saved = 0;
        for (u, c) in uncached.iter().zip(&cached) {
            assert_eq!(u.value.0, c.value.0, "first gather diverged");
            assert_eq!(u.value.1, c.value.1, "second gather diverged");
            words_uncached += u.value.2;
            words_cached += c.value.2;
            words_saved += c.value.3.words_saved;
            // Ten lookups per rank, all hits after the prefetch; the four
            // unique prefetched rows count as the misses that paid.
            assert_eq!(c.value.3.cache_hits, 10);
            assert_eq!(c.value.3.cache_misses, 4);
        }
        assert!(words_cached < words_uncached, "{words_cached} !< {words_uncached}");
        // The cache's books balance: saved + sent == the uncached bill.
        assert_eq!(words_cached + words_saved, words_uncached);
    }

    #[test]
    fn posted_fetch_matches_blocking_fetch_and_traffic() {
        let n = 16;
        let f = 4;
        let h = full_features(n, f);
        let runtime = Runtime::new(4).unwrap();
        let wanted: Vec<usize> = vec![3, 14, 9, 14, 0];
        let outs = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let blocking = store.fetch(comm, &world, &wanted).unwrap();
                let words_blocking = comm.stats().words_sent;
                let pending = store.post_fetch(comm, &world, &wanted).unwrap();
                let after_post = comm.stats().words_sent;
                // Blocking traffic runs while the fetch is in flight.
                comm.barrier().unwrap();
                let _ = comm.allreduce(comm.rank(), |a, b| a + b).unwrap();
                let before_wait = comm.stats().words_sent;
                let posted = pending.wait(&store, comm, &world).unwrap();
                let words_posted =
                    (after_post - words_blocking) + (comm.stats().words_sent - before_wait);
                (blocking == posted, words_blocking, words_posted)
            })
            .unwrap();
        for o in &outs {
            assert!(o.value.0, "posted fetch diverged from blocking fetch");
        }
        // Identical traffic, summed across ranks (per-rank request volume is
        // owner-dependent, but the collective's bill is schedule-invariant).
        let blocking_total: usize = outs.iter().map(|o| o.value.1).sum();
        let posted_total: usize = outs.iter().map(|o| o.value.2).sum();
        assert_eq!(blocking_total, posted_total);
    }

    #[test]
    fn pipelined_posted_prefetches_request_exactly_the_synchronous_rows() {
        // Two bulk groups with overlapping plans: posting group 1's prefetch
        // before group 0's rows have landed must still request exactly what
        // the synchronous schedule would (the in-flight set dedups), so the
        // per-epoch words match bit for bit.
        let n = 16;
        let f = 3;
        let h = full_features(n, f);
        let runtime = Runtime::new(2).unwrap();
        let plan0: Vec<usize> = vec![1, 5, 9, 13];
        let plan1: Vec<usize> = vec![5, 9, 2, 6]; // overlaps plan0 on {5, 9}
        let sync = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let mut cache = FeatureCache::new(FeatureCacheConfig::EpochPinned, f);
                cache.prefetch(&store, comm, &world, &plan0).unwrap();
                let a = cache.gather_pinned(&store, &plan0).unwrap();
                cache.prefetch(&store, comm, &world, &plan1).unwrap();
                let b = cache.gather_pinned(&store, &plan1).unwrap();
                (a, b, comm.stats().words_sent, *cache.stats())
            })
            .unwrap();
        let pipelined = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let mut cache = FeatureCache::new(FeatureCacheConfig::EpochPinned, f);
                // Software pipeline: both posts in flight before either wait.
                let p0 = cache.post_prefetch(&store, comm, &world, &plan0).unwrap();
                let p1 = cache.post_prefetch(&store, comm, &world, &plan1).unwrap();
                assert_eq!(p1.requested(), &[2, 6], "in-flight rows must not re-travel");
                cache.complete_prefetch(&store, comm, &world, p0).unwrap();
                let a = cache.gather_pinned(&store, &plan0).unwrap();
                cache.complete_prefetch(&store, comm, &world, p1).unwrap();
                let b = cache.gather_pinned(&store, &plan1).unwrap();
                (a, b, comm.stats().words_sent, *cache.stats())
            })
            .unwrap();
        for (s, p) in sync.iter().zip(&pipelined) {
            assert_eq!(s.value.0, p.value.0, "group 0 rows diverged");
            assert_eq!(s.value.1, p.value.1, "group 1 rows diverged");
            assert_eq!(s.value.2, p.value.2, "pipelined words diverged from synchronous");
            assert_eq!(s.value.3, p.value.3, "cache counters diverged");
        }
    }

    #[test]
    fn pinned_gather_misses_are_typed() {
        let h = full_features(8, 2);
        let runtime = Runtime::new(1).unwrap();
        let outs = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, 1, 0).unwrap();
                let world = comm.world();
                let mut cache = FeatureCache::new(FeatureCacheConfig::EpochPinned, 2);
                cache.prefetch(&store, comm, &world, &[1, 2]).unwrap();
                cache.gather_pinned(&store, &[1, 5]).unwrap_err()
            })
            .unwrap();
        assert_eq!(outs[0].value, GnnError::CacheMiss { vertex: 5 });
    }

    #[test]
    fn lru_fetch_through_matches_direct_fetch_and_respects_budget() {
        let n = 12;
        let f = 3;
        let h = full_features(n, f);
        let runtime = Runtime::new(2).unwrap();
        let steps: Vec<Vec<usize>> = vec![vec![0, 5, 5, 9], vec![5, 9, 1], vec![0, 1, 11]];
        let outs = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                // Budget for exactly two rows of 3 f64 words.
                let budget = 2 * f * std::mem::size_of::<f64>();
                let mut cache =
                    FeatureCache::new(FeatureCacheConfig::Lru { byte_budget: budget }, f);
                let mut outputs = Vec::new();
                for wanted in &steps {
                    let via_cache = cache.fetch_through(&store, comm, &world, wanted).unwrap();
                    outputs.push(via_cache);
                    assert!(cache.resident_rows() <= 2, "budget exceeded");
                }
                (outputs, *cache.stats())
            })
            .unwrap();
        // Reference without any cache.
        let reference = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                steps.iter().map(|w| store.fetch(comm, &world, w).unwrap()).collect::<Vec<_>>()
            })
            .unwrap();
        for (o, r) in outs.iter().zip(&reference) {
            assert_eq!(o.value.0, r.value, "LRU read-through diverged from direct fetch");
            // The duplicate 5 in step one is served without a second transfer.
            assert!(o.value.1.cache_hits > 0);
            assert!(o.value.1.cache_misses > 0);
        }
    }

    #[test]
    fn zero_budget_lru_caches_nothing_but_stays_correct() {
        let h = full_features(8, 2);
        let runtime = Runtime::new(2).unwrap();
        let outs = runtime
            .run(|comm| {
                let store = FeatureStore::from_full(&h, comm.size(), comm.rank()).unwrap();
                let world = comm.world();
                let mut cache = FeatureCache::new(FeatureCacheConfig::Lru { byte_budget: 0 }, 2);
                let a = cache.fetch_through(&store, comm, &world, &[3, 3, 6]).unwrap();
                let direct = store.fetch(comm, &world, &[3, 3, 6]).unwrap();
                assert_eq!(cache.resident_rows(), 0);
                a == direct
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value));
    }
}
