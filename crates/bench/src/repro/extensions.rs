//! The extensions' claims: the pinned feature cache, the wire codecs, the
//! overlapped schedule, the serving tier, the socket transport, delta
//! ingest and the auto-tuner, each at one small size.
//!
//! Every row restates an identity against a reference formulation or an
//! inequality the extension's design guarantees, so every row is a contract
//! ([`Claim::is_contract`]): `repro` exits non-zero on a row that does not
//! hold, whatever the baseline says.  Identities are rows of
//! `matching lhs == compared rhs` (bit-equal fetched blocks, epochs, matrix
//! rows).  No row reads a clock: the seconds these runs measure stay in
//! `benchmark/`, and `repro` prints the fitted socket α and β only.

use super::{ns, Claim, Relation};
use dmbs_comm::tune::{self, ProbeEpoch, ProbeSet, Schedule, TuningGrid, TuningModel};
use dmbs_comm::{
    Codec, CommStats, CostModel, Group, ProcessGrid, Runtime, SocketLaunch, TransportSelect,
};
use dmbs_gnn::{
    FeatureCache, FeatureCacheConfig, FeatureStore, RequestTrace, ServeReport, ServingConfig,
    ServingSession, SessionBuilder, TrainingReport, TrainingSession,
};
use dmbs_graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs_graph::generators::{rmat, RmatConfig};
use dmbs_graph::{GraphIngest, IngestMode};
use dmbs_matrix::{CsrMatrix, DeltaBatch, DenseMatrix};
use dmbs_sampling::{
    BulkSamplerConfig, DistConfig, FetchPlan, GraphSageSampler, LocalBackend, MinibatchSample,
    ReplicatedBackend, Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use Relation::{Eq, Ge, Gt, Le, Lt};

/// Every extension claim, family by family.
pub(crate) fn all() -> Vec<Claim> {
    let mut claims = fetch();
    claims.extend(compress());
    claims.extend(overlap());
    claims.extend(serve());
    claims.extend(transport());
    claims.extend(dynamic());
    claims.extend(autotune());
    claims
}

/// A row over counters.
fn row(id: &'static str, at: String, lhs: usize, relation: Relation, rhs: usize) -> Claim {
    Claim::new(id, at, lhs as u64, relation, rhs as u64)
}

/// An identity row: how many of the compared items are equal, against how
/// many there are.
fn agree<T: PartialEq>(id: &'static str, at: String, ours: &[T], reference: &[T]) -> Claim {
    let matching = ours.iter().zip(reference).filter(|(a, b)| a == b).count();
    row(id, at, matching, Eq, ours.len().max(reference.len()))
}

/// What two training runs must agree on, epoch by epoch: the loss bits and
/// every deterministic counter.
fn epochs(report: &TrainingReport) -> Vec<(u64, [usize; 6])> {
    let counters = |s: &CommStats| {
        [s.words_sent, s.messages, s.bytes_on_wire, s.cache_hits, s.cache_misses, s.words_saved]
    };
    report.epochs.iter().map(|e| (e.mean_loss.to_bits(), counters(&e.comm))).collect()
}

/// The communication books of a whole training run: every epoch's counters,
/// summed across ranks and epochs (the wire bill).
fn run_books(report: &TrainingReport) -> CommStats {
    let mut books = CommStats::default();
    for epoch in &report.epochs {
        books.merge(&epoch.comm);
    }
    books
}

/// A products-like stand-in of `2^scale` vertices.
fn products_dataset(scale: u32, feature_dim: usize, num_classes: usize, seed: u64) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = num_classes;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).expect("dataset"))
}

/// The grid shapes of the distributed training claims.
const SHAPES: [(usize, usize); 2] = [(2, 1), (4, 2)];

/// The cost model of the overlap, transport and auto-tuner runs:
/// deliberately coarse (`α = 200 µs`, `β = 50 ns/word`, a WAN-ish stress
/// model) so the communication bill, and with it the schedule knobs, carry
/// weight next to the tiny CPU workload.
const STRESS_COST: CostModel = CostModel { alpha: 2.0e-4, beta: 5.0e-8 };

/// The session those runs train: distributed GraphSAGE `[10, 5]`, two
/// epochs on the replicated backend under [`STRESS_COST`], bulk `k = 2`, on
/// a 128-vertex stand-in with batches of 8 (four bulk groups per epoch, so
/// a pipeline has stages to hoist).
fn stress_builder(
    dataset: &Arc<Dataset>,
    (p, c): (usize, usize),
    epochs: usize,
) -> SessionBuilder<GraphSageSampler, ReplicatedBackend> {
    let batch_size = (dataset.train_set.len() / 8).max(8);
    let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
    let runtime = Runtime::with_cost_model(p, STRESS_COST).expect("runtime");
    let backend = ReplicatedBackend::with_runtime(runtime, dist).expect("backend");
    TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
        .backend(backend)
        .hidden_dim(32)
        .learning_rate(0.05)
        .epochs(epochs)
        .seed(42)
        .without_evaluation()
}

/// The stand-in the stress sessions train on.
fn stress_dataset() -> Arc<Dataset> {
    products_dataset(7, 16, 4, 5)
}

fn train<S, B>(builder: SessionBuilder<S, B>) -> TrainingReport
where
    S: Sampler + Send + Sync + 'static,
    B: SamplingBackend + Send + Sync + 'static,
{
    builder.build().and_then(|s| s.train()).expect("training")
}

/// What the fetch and compress claims share: one bulk-sampled GraphSAGE
/// `[5, 5]` epoch (8 batches of 64) on an RMAT scale-8 graph, its fetch
/// plan, and a synthetic feature matrix of width 16 in `[0, 1)`.
struct FetchWorkload {
    h: DenseMatrix,
    minibatches: Vec<MinibatchSample>,
    plan: FetchPlan,
}

/// The grid shapes of the standalone fetch epochs.
const FETCH_SHAPES: [(usize, usize); 3] = [(2, 1), (2, 2), (4, 2)];

fn fetch_workload() -> FetchWorkload {
    let (batch_size, f) = (64, 16);
    let graph = rmat(&RmatConfig::new(8, 8), &mut StdRng::seed_from_u64(99)).expect("RMAT config");
    let a = graph.adjacency();
    let n = a.rows();
    let h = DenseMatrix::from_rows(
        &(0..n)
            .map(|v| (0..f).map(|j| ((v * 31 + j * 7) % 1000) as f64 * 1e-3).collect())
            .collect::<Vec<_>>(),
    )
    .expect("feature matrix");
    let batches: Vec<Vec<usize>> =
        (0..8).map(|i| (0..batch_size).map(|j| (i * batch_size + j * 7) % n).collect()).collect();
    let backend = LocalBackend::new(BulkSamplerConfig::new(batch_size, 4)).expect("bulk config");
    let sampler = GraphSageSampler::new(vec![5, 5]);
    let minibatches =
        backend.sample_epoch(&sampler, a, &batches, 7).expect("epoch").output.minibatches;
    FetchWorkload { h, plan: FetchPlan::from_minibatches(&minibatches), minibatches }
}

/// The feature-fetching phase of one epoch on a simulated `p/c × c` grid:
/// each rank fetches the layer-0 frontiers of its round-robin share of the
/// minibatches, step by step (bulk synchronous, empty requests for idle
/// ranks, the distributed trainer's schedule), through the cache `mode`
/// with the reply rows under `codec`.  Returns every fetched block, rank by
/// rank, and the books summed over ranks: the wire counters and the
/// caches' hit, miss and saved counters.
fn run_fetch_epoch(
    w: &FetchWorkload,
    (p, c): (usize, usize),
    mode: FeatureCacheConfig,
    codec: Codec,
) -> (Vec<DenseMatrix>, CommStats) {
    let steps = w.minibatches.len().div_ceil(p);
    let outs = Runtime::new(p)
        .expect("runtime")
        .run(|comm| {
            let rank = comm.rank();
            let grid = ProcessGrid::new(p, c).expect("valid grid");
            let (my_row, _) = grid.coords(rank);
            let store = FeatureStore::from_full(&w.h, grid.rows(), my_row)
                .expect("store")
                .with_codec(codec);
            let group = Group::new(&grid.col_ranks(rank)).expect("group");
            let mine: Vec<&MinibatchSample> = w.minibatches.iter().skip(rank).step_by(p).collect();
            let mut cache = mode.is_enabled().then(|| FeatureCache::new(store.feature_dim()));
            if let Some(cache) = cache.as_mut() {
                let plan = FetchPlan::from_sample_iter(mine.iter().copied());
                cache.prefetch(&store, comm, &group, plan.unique_vertices()).expect("prefetch");
            }
            let mut fetched = Vec::with_capacity(mine.len());
            for step in 0..steps {
                let wanted = mine.get(step).map_or(&[][..], |mb| mb.input_vertices());
                let rows = match cache.as_mut() {
                    Some(cache) => cache.gather_pinned(&store, wanted).expect("gather"),
                    None => store.fetch(comm, &group, wanted).expect("fetch"),
                };
                if step < mine.len() {
                    fetched.push(rows);
                }
            }
            (fetched, cache.map(|c| *c.stats()).unwrap_or_default())
        })
        .expect("fetch epoch");
    let mut blocks = Vec::new();
    let mut books = CommStats::default();
    for o in outs {
        books.merge(&o.stats);
        books.merge(&o.value.1);
        blocks.extend(o.value.0);
    }
    (blocks, books)
}

/// §6.2's feature cache, on the standalone fetch epoch at each grid shape:
/// the pinned cache returns the uncached rows bit for bit, moves no more
/// words or messages, and its books balance: the words it saved are the
/// uncached bill minus the words it sent, every request hits the pinned
/// rows, and each rank misses a row at most once.  The uncached run looks
/// nothing up (no hit, no miss) and saves nothing.
pub(crate) fn fetch() -> Vec<Claim> {
    let w = fetch_workload();
    let mut claims = Vec::new();
    for (p, c) in FETCH_SHAPES {
        let at = |what: &str| format!("p={p} c={c} {what}");
        let run = |mode| run_fetch_epoch(&w, (p, c), mode, Codec::Exact);
        let ((base_rows, base), (rows, pinned)) =
            (run(FeatureCacheConfig::Off), run(FeatureCacheConfig::Pinned));
        claims.extend([
            agree("fetch.pinned_rows_equal_uncached", at("fetched blocks"), &rows, &base_rows),
            row(
                "fetch.pinned_words_le_uncached",
                at("words"),
                pinned.words_sent,
                Le,
                base.words_sent,
            ),
            row(
                "fetch.pinned_messages_le_uncached",
                at("messages"),
                pinned.messages,
                Le,
                base.messages,
            ),
            row(
                "fetch.saved_eq_uncached_minus_sent",
                at("pinned"),
                pinned.words_saved,
                Eq,
                base.words_sent.saturating_sub(pinned.words_sent),
            ),
            row("fetch.saved_eq_uncached_minus_sent", at("uncached"), base.words_saved, Eq, 0),
            row(
                "fetch.pinned_hits_every_request",
                at("hits"),
                pinned.cache_hits,
                Eq,
                w.plan.total_requests(),
            ),
            row(
                "fetch.pinned_misses_each_row_once_per_rank",
                at("misses vs p x unique rows"),
                pinned.cache_misses,
                Le,
                p * w.plan.unique_len(),
            ),
            row("fetch.uncached_looks_nothing_up", at("hits"), base.cache_hits, Eq, 0),
            row("fetch.uncached_looks_nothing_up", at("misses"), base.cache_misses, Eq, 0),
        ]);
    }
    claims
}

/// `⌊1000 · exact / bytes⌋`: 1000 is 1.0x, and a run without wire bytes
/// reduces nothing.
fn reduction_x1000(exact_bytes: usize, bytes: usize) -> usize {
    (exact_bytes * 1000).checked_div(bytes).unwrap_or(1000)
}

/// §6.2's β bill under the wire codecs: the fetch epoch at each shape and a
/// small training run, each under every codec.  The exact codec bills 8
/// bytes a word and saves nothing; fp16 and int8 keep the schedule (words,
/// messages), balance their byte books (`saved == exact − sent`), shrink
/// the wire and clear their reduction floors on the feature lanes (fp16
/// 1.9x, int8 3.5x where `p > c`; full replication has no wire, and the
/// training run's bytes include exact-coded gradients, so both floors there
/// are 1.0x).  The fetched rows stay within each codec's error bound
/// (`x1e9`), and training loss within 0.25 of exact's.
pub(crate) fn compress() -> Vec<Claim> {
    let w = fetch_workload();
    let mut runs = Vec::new();
    for (p, c) in FETCH_SHAPES {
        let run = |codec| run_fetch_epoch(&w, (p, c), FeatureCacheConfig::Off, codec);
        let [(exact_rows, exact), (fp16_rows, fp16), (int8_rows, int8)] =
            [Codec::Exact, Codec::Fp16, Codec::Int8].map(run);
        // The features live in [0, 1): fp16 resolves 2^-11 relative, int8
        // max_abs / 254 per row.
        let quality = [(&fp16_rows, 1.0 / 1024.0), (&int8_rows, 1.0 / 254.0 + 1e-12)]
            .map(|(rows, bound)| [ns(max_row_error(rows, &exact_rows)), ns(bound)]);
        let floors = if p > c { [1900, 3500] } else { [1000, 1000] };
        runs.push(CodecRuns {
            point: format!("fetch p={p} c={c}"),
            books: [exact, fp16, int8],
            quality,
            floors,
        });
    }
    // One small training run per codec: the loss must survive quantized
    // feature lanes, and the byte books flow through the session's epochs.
    let dataset = products_dataset(6, 16, 3, 17);
    let train_codec = |codec: Codec| {
        let backend = ReplicatedBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::new(8, 2)))
            .expect("backend");
        train(
            TrainingSession::builder()
                .dataset(Arc::clone(&dataset))
                .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
                .backend(backend)
                .hidden_dim(16)
                .learning_rate(0.05)
                .epochs(2)
                .seed(23)
                .wire_codec(codec)
                .without_evaluation(),
        )
    };
    let reports = [Codec::Exact, Codec::Fp16, Codec::Int8].map(train_codec);
    let final_loss = |r: &TrainingReport| r.epochs.last().expect("epochs").mean_loss;
    let loss_delta = |r: &TrainingReport| ns((final_loss(r) - final_loss(&reports[0])).abs());
    runs.push(CodecRuns {
        point: "train p=2 c=1".into(),
        books: reports.each_ref().map(run_books),
        quality: [&reports[1], &reports[2]].map(|r| [loss_delta(r), 250_000_000]),
        floors: [1000, 1000],
    });

    let mut claims = Vec::new();
    for CodecRuns { point, books: [exact, fp16, int8], quality, floors } in runs {
        let at = |what: &str| format!("{point} {what}");
        let exact_bytes = exact.bytes_on_wire;
        claims.extend([
            row(
                "compress.exact_bytes_are_8_per_word",
                at("exact"),
                exact_bytes,
                Eq,
                8 * exact.words_sent,
            ),
            row("compress.exact_saves_nothing", at("exact"), exact.bytes_saved, Eq, 0),
            row(
                "compress.exact_reduction_is_1x",
                at("exact x1000"),
                reduction_x1000(exact_bytes, exact_bytes),
                Eq,
                1000,
            ),
        ]);
        let (quality_id, quality_relation) = if point.starts_with("fetch") {
            ("compress.row_error_within_codec_bound", Le)
        } else {
            ("compress.loss_within_0_25_of_exact", Lt)
        };
        for (((codec, books), floor), bound) in
            [(Codec::Fp16, fp16), (Codec::Int8, int8)].into_iter().zip(floors).zip(quality)
        {
            let at = |what: &str| at(&format!("{codec} {what}"));
            let bytes = books.bytes_on_wire;
            claims.extend([
                row(
                    "compress.codec_keeps_schedule",
                    at("words"),
                    books.words_sent,
                    Eq,
                    exact.words_sent,
                ),
                row(
                    "compress.codec_keeps_schedule",
                    at("messages"),
                    books.messages,
                    Eq,
                    exact.messages,
                ),
                row(
                    "compress.saved_eq_exact_minus_sent",
                    at("bytes"),
                    books.bytes_saved,
                    Eq,
                    exact_bytes.saturating_sub(bytes),
                ),
                if exact_bytes > 0 {
                    row("compress.codec_shrinks_wire", at("bytes"), bytes, Lt, exact_bytes)
                } else {
                    row("compress.no_wire_no_bytes", at("bytes"), bytes, Eq, 0)
                },
                row(
                    "compress.reduction_clears_floor",
                    at("x1000"),
                    reduction_x1000(exact_bytes, bytes),
                    Ge,
                    floor,
                ),
                Claim::new(quality_id, at("x1e9"), bound[0], quality_relation, bound[1]),
            ]);
        }
    }
    claims
}

/// The books of one point of the codec claims under the exact, fp16 and
/// int8 codecs, with the fp16 and int8 quality rows (`[value, bound]`, in
/// billionths) and reduction floors (`x1000`).
struct CodecRuns {
    point: String,
    books: [CommStats; 3],
    quality: [[u64; 2]; 2],
    floors: [usize; 2],
}

/// Worst `|a − b|` over two sequences of identically shaped blocks.
fn max_row_error(a: &[DenseMatrix], b: &[DenseMatrix]) -> f64 {
    let pairs = a.iter().zip(b).flat_map(|(x, y)| x.as_slice().iter().zip(y.as_slice()));
    pairs.map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

/// §6's overlapped schedule (replicated backend, pinned cache) at each grid
/// shape: the pipeline is pure schedule, so every epoch's loss bits and
/// counters, and the run's words and messages, equal the synchronous run's.
pub(crate) fn overlap() -> Vec<Claim> {
    let dataset = stress_dataset();
    let mut claims = Vec::new();
    for shape @ (p, c) in SHAPES {
        let run = |overlap| train(stress_builder(&dataset, shape, 2).overlap(overlap));
        let (sync, pipelined) = (run(false), run(true));
        let hidden = |r: &TrainingReport| r.epochs.iter().map(|e| e.overlapped_time()).sum::<f64>();
        assert_eq!(hidden(&sync), 0.0, "p={p} c={c}: the synchronous schedule hid communication");
        assert!(hidden(&pipelined) > 0.0, "p={p} c={c}: the pipeline hid no communication");
        let (s, o) = (run_books(&sync), run_books(&pipelined));
        let at = |what: &str| format!("p={p} c={c} {what}");
        claims.extend([
            agree("overlap.equals_sync", at("epochs"), &epochs(&pipelined), &epochs(&sync)),
            row("overlap.equals_sync", at("words"), o.words_sent, Eq, s.words_sent),
            row("overlap.equals_sync", at("messages"), o.messages, Eq, s.messages),
        ]);
    }
    claims
}

/// The serving tier: one trained GraphSAGE `[10, 5]` snapshot serves a
/// Zipf(1.1) open-loop trace of 300 requests at 2k and 8k offered QPS,
/// without (window 0) and with a 1 ms coalescing window.  Queueing runs in
/// virtual time, so two fresh replays of a cell agree bit for bit and
/// every count is exact.  At each load the window merges requests into
/// fewer batches (one message each), serves no fewer, sheds no more, and
/// cuts words and hot-tier lookups; at the overloaded 8k QPS it cuts the
/// p99 latency (virtual nanoseconds).
pub(crate) fn serve() -> Vec<Claim> {
    let num_requests = 300;
    let mut cfg = DatasetConfig::products_like(7);
    cfg.feature_dim = 16;
    cfg.num_classes = 8;
    cfg.train_fraction = 0.5;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(33)).expect("dataset"));
    let batch_size = (dataset.train_set.len() / 8).max(8);
    let sampler = || GraphSageSampler::new(vec![10, 5]).with_self_loops();
    let (_, snapshot) = TrainingSession::builder()
        .dataset(Arc::clone(&dataset))
        .sampler(sampler())
        .backend(LocalBackend::new(BulkSamplerConfig::new(batch_size, 2)).expect("bulk config"))
        .hidden_dim(32)
        .learning_rate(0.05)
        .epochs(1)
        .seed(42)
        .without_evaluation()
        .build()
        .and_then(|s| s.train_and_export())
        .expect("training");
    let replay = |qps: usize, window_us: usize| -> ServeReport {
        let config = ServingConfig {
            coalesce_window: window_us as f64 * 1e-6,
            hot_capacity: 32,
            seed: 7,
            ..ServingConfig::default()
        };
        let mut session =
            ServingSession::new(Arc::clone(&dataset), sampler(), snapshot.clone(), config)
                .expect("serving session");
        // One trace seed at every cell: the vertex sequence is the same at
        // both loads (the gaps scale), so cells differ in load and window.
        let trace =
            RequestTrace::open_loop(num_requests, qps as f64, 1.1, dataset.num_vertices(), 11);
        session.run_trace(&trace).expect("trace replay")
    };
    // Every count of a replay, then the bits of every latency sample.
    let replay_bits = |r: &ServeReport| -> Vec<u64> {
        let s = r.stats;
        let counts = [s.requests_offered, s.requests_served, s.batches, s.hot_hits, s.hot_misses];
        let tail = [s.shed_admission, s.shed_timeout, r.comm.words_sent, r.comm.messages];
        let counts = counts.into_iter().chain(tail).map(|x| x as u64);
        counts.chain(r.latencies.iter().map(|l| l.to_bits())).collect()
    };
    let mut claims = Vec::new();
    for qps in [2000, 8000] {
        let [solo, coalesced] = [0, 1000].map(|window_us| {
            let report = replay(qps, window_us);
            let at = format!("qps={qps} window={window_us}us, {num_requests} requests");
            let [first, second] = [&report, &replay(qps, window_us)].map(replay_bits);
            claims.push(agree("serve.replays_bit_identical", at.clone(), &second, &first));
            claims.push(row(
                "serve.one_message_per_batch",
                at,
                report.comm.messages,
                Eq,
                report.stats.batches,
            ));
            report
        });
        let at = |what: &str| format!("qps={qps} window=1000us vs 0 {what}");
        let (s, c) = (solo.stats, coalesced.stats);
        let factor = |s: dmbs_gnn::ServeStats| (s.coalescing_factor() * 1000.0).round() as usize;
        claims.extend([
            row("serve.coalescing_cuts_batches", at("batches"), c.batches, Lt, s.batches),
            row(
                "serve.coalescing_factor_rises",
                at("served per batch x1000"),
                factor(c),
                Gt,
                factor(s),
            ),
            row(
                "serve.coalescing_serves_no_fewer",
                at("served"),
                c.requests_served,
                Ge,
                s.requests_served,
            ),
            row(
                "serve.coalescing_sheds_no_more",
                at("admission"),
                c.shed_admission,
                Le,
                s.shed_admission,
            ),
            row(
                "serve.coalescing_sheds_no_more",
                at("timeout"),
                c.shed_timeout,
                Le,
                s.shed_timeout,
            ),
            row(
                "serve.coalescing_cuts_words",
                at("words"),
                coalesced.comm.words_sent,
                Lt,
                solo.comm.words_sent,
            ),
            row("serve.coalescing_cuts_hot_tier_lookups", at("hits"), c.hot_hits, Lt, s.hot_hits),
            row(
                "serve.coalescing_cuts_hot_tier_lookups",
                at("misses"),
                c.hot_misses,
                Lt,
                s.hot_misses,
            ),
        ]);
        if qps == 8000 {
            let p99 =
                |r: &ServeReport| ns(crate::stats::LatencySummary::from_samples(&r.latencies).p99);
            claims.push(Claim::new(
                "serve.coalescing_cuts_p99_at_overload",
                at("p99 ns"),
                p99(&coalesced),
                Lt,
                p99(&solo),
            ));
        }
    }
    claims
}

/// §5's SPMD execution on real processes: a 2-rank ping-pong over Unix
/// sockets books one message per send and its payload's words at each
/// message size (the α and β fitted to its wall clock are printed, never
/// gated), and at each grid shape a session trained over socket rank
/// processes equals the simulator's: every epoch's loss bits and counters,
/// and the run's words, messages and cache books.
pub(crate) fn transport() -> Vec<Claim> {
    use crate::transport::{decode_ping_result, encode_ping_job, fit_alpha_beta, registry};
    use crate::transport::{ProbeSample, PING_WORKER};
    let launch = SocketLaunch::default().timeout_ms(180_000);
    let rounds = 16;
    let probe = Runtime::new(2)
        .expect("probe runtime")
        .with_transport(TransportSelect::UnixSocket(launch.clone()));
    let mut claims = Vec::new();
    let mut samples = Vec::new();
    for words in [64, 1_024, 16_384] {
        let outs = probe
            .run_worker(&registry(), PING_WORKER, &encode_ping_job(words, rounds))
            .expect("ping-pong probe");
        // Rank 0's clock covers the whole loop; the bill it paid for is both
        // ranks' sends (each round trip is one send per rank, serialized).
        let (mut seconds, mut booked_words, mut messages) = (0.0, 0, 0);
        for o in &outs {
            let (s, w, m) = decode_ping_result(&o.value).expect("well-formed probe result");
            if o.rank == 0 {
                seconds = s;
            }
            booked_words += w;
            messages += m;
        }
        let at = |what: &str| format!("{rounds} round trips of {words} words: {what}");
        claims.push(row(
            "transport.probe_books_each_send",
            at("messages"),
            messages,
            Eq,
            2 * rounds,
        ));
        claims.push(row(
            "transport.probe_books_each_send",
            at("words"),
            booked_words,
            Eq,
            2 * rounds * words,
        ));
        samples.push(ProbeSample {
            messages: messages as f64,
            words: booked_words as f64,
            seconds,
        });
    }
    let (alpha, beta) = fit_alpha_beta(&samples).expect("probe sizes are non-degenerate");
    println!("socket transport fit: alpha = {alpha:.3e} s/message, beta = {beta:.3e} s/word");

    let dataset = stress_dataset();
    for shape @ (p, c) in SHAPES {
        let run = |transport| {
            train(
                stress_builder(&dataset, shape, 2)
                    .feature_cache(FeatureCacheConfig::Pinned)
                    .transport(transport),
            )
        };
        let (sim, sock) =
            (run(TransportSelect::Simulator), run(TransportSelect::UnixSocket(launch.clone())));
        let (s, o) = (run_books(&sim), run_books(&sock));
        let at = |what: &str| format!("p={p} c={c} {what}");
        claims.extend([
            agree("transport.socket_equals_simulator", at("epochs"), &epochs(&sock), &epochs(&sim)),
            row("transport.socket_equals_simulator", at("words"), o.words_sent, Eq, s.words_sent),
            row("transport.socket_equals_simulator", at("messages"), o.messages, Eq, s.messages),
            row(
                "transport.socket_equals_simulator",
                at("cache hits"),
                o.cache_hits,
                Eq,
                s.cache_hits,
            ),
            row(
                "transport.socket_equals_simulator",
                at("cache misses"),
                o.cache_misses,
                Eq,
                s.cache_misses,
            ),
            row(
                "transport.socket_equals_simulator",
                at("words saved"),
                o.words_saved,
                Eq,
                s.words_saved,
            ),
        ]);
    }
    claims
}

/// The rows of a CSR matrix as (columns, value bits), for a row-by-row
/// identity.
fn csr_rows(a: &CsrMatrix) -> Vec<(Vec<usize>, Vec<u64>)> {
    (0..a.rows())
        .map(|r| (a.row_indices(r).to_vec(), a.row_values(r).iter().map(|v| v.to_bits()).collect()))
        .collect()
}

/// Delta ingest: folding 4 batches of 64 edge inserts and deletes into an
/// RMAT scale-8 adjacency through the lazily compacted overlay gives the
/// eagerly rebuilt matrix row for row, and at each grid shape a three-epoch
/// session with a two-event ingest schedule (30 ops) under the overlay
/// equals the rebuild's: every epoch's loss bits and counters, words and
/// messages.
pub(crate) fn dynamic() -> Vec<Claim> {
    let graph = rmat(&RmatConfig::new(8, 8), &mut StdRng::seed_from_u64(99)).expect("RMAT config");
    let a = graph.adjacency();
    let n = a.rows();
    let (num_batches, per_batch) = (4, 64);
    let batches: Vec<DeltaBatch> = (0..num_batches)
        .map(|i| {
            let mut batch = DeltaBatch::new();
            for j in 0..per_batch {
                let r = (i * per_batch + j) * 2_654_435_761 % n;
                if j % 4 == 0 {
                    batch.delete(r, (r + 1) % n);
                } else {
                    batch.insert(r, (i * 97 + j * 131) % n, 1.0 + (j % 7) as f64);
                }
            }
            batch
        })
        .collect();
    let ops: usize = batches.iter().map(DeltaBatch::len).sum();
    let apply = |mode| {
        let mut ingest = GraphIngest::new(a.clone()).expect("ingest").with_mode(mode);
        for batch in &batches {
            ingest.apply(batch).expect("apply");
        }
        csr_rows(ingest.adjacency())
    };
    let at = format!("apply {num_batches} batches, {ops} ops: rows");
    let mut claims = vec![agree(
        "dynamic.delta_equals_rebuild",
        at,
        &apply(IngestMode::Delta),
        &apply(IngestMode::Rebuild),
    )];

    // The schedule, derived from the dataset itself: after epoch 0 delete
    // real edges and fan new ones out; after epoch 1 retract more and grow
    // further.
    let dataset = stress_dataset();
    let adj = dataset.graph.adjacency();
    let dn = adj.rows();
    let existing: Vec<(usize, usize)> = adj.iter().map(|(r, c, _)| (r, c)).take(6).collect();
    let missing: Vec<(usize, usize)> = (0..dn)
        .flat_map(|r| (0..dn).map(move |c| (r, c)))
        .filter(|&(r, c)| r != c && adj.get(r, c) == 0.0)
        .take(24)
        .collect();
    let (mut first, mut second) = (DeltaBatch::new(), DeltaBatch::new());
    for (i, &(r, c)) in existing.iter().enumerate() {
        if i < 4 { &mut first } else { &mut second }.delete(r, c);
    }
    for (i, &(r, c)) in missing.iter().enumerate() {
        let (batch, weight) = if i < 16 { (&mut first, 1.0) } else { (&mut second, 1.5) };
        batch.insert(r, c, weight);
    }
    let schedule_ops = first.len() + second.len();
    let events = [(0, first), (1, second)];
    let batch_size = (dataset.train_set.len() / 8).max(8);
    for (p, c) in SHAPES {
        let run = |mode| {
            let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
            let mut builder = TrainingSession::builder()
                .dataset(Arc::clone(&dataset))
                .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
                .backend(ReplicatedBackend::new(dist).expect("backend"))
                .hidden_dim(16)
                .learning_rate(0.05)
                .epochs(3)
                .seed(42)
                .ingest_mode(mode)
                .without_evaluation();
            for (after_epoch, batch) in &events {
                builder = builder.ingest(*after_epoch, batch.clone());
            }
            train(builder)
        };
        let (delta, rebuild) = (run(IngestMode::Delta), run(IngestMode::Rebuild));
        let (d, r) = (run_books(&delta), run_books(&rebuild));
        let at = |what: &str| format!("p={p} c={c} {schedule_ops} ops: {what}");
        claims.extend([
            agree("dynamic.delta_equals_rebuild", at("epochs"), &epochs(&delta), &epochs(&rebuild)),
            row("dynamic.delta_equals_rebuild", at("words"), d.words_sent, Eq, r.words_sent),
            row("dynamic.delta_equals_rebuild", at("messages"), d.messages, Eq, r.messages),
        ]);
    }
    claims
}

/// §5.2.1 as a decision procedure: at each grid shape the tuner's five
/// probe epochs fit a [`TuningModel`], which searches the lossless grid
/// (what `builder().auto()` does) and the lossy-admitted one.  Candidate 0
/// is the default schedule, the lossy grid extends the lossless one, and
/// each realized schedule (default, lossless and lossy arg-min, named in
/// `at` with its knobs) books in its first epoch exactly the words,
/// messages and bytes predicted for it.  The chosen schedules realize no
/// more words, messages or bytes over the run than the default, nor are
/// predicted to pay more α–β nanoseconds; `builder().auto()` picks the
/// offline search's candidate and trains it bit for bit.
pub(crate) fn autotune() -> Vec<Claim> {
    let dataset = stress_dataset();
    let mut claims = Vec::new();
    for shape @ (p, c) in SHAPES {
        let run = |s: &Schedule, epochs| {
            let builder = stress_builder(&dataset, shape, epochs);
            train(builder.feature_cache(s.cache).wire_codec(s.codec).overlap(s.overlap))
        };
        // The five probes `builder().auto()` runs (the two lossy ones
        // calibrate codec savings for the lossy-admitted grid).
        let probe = |schedule: Schedule| {
            let report = run(&schedule, 1);
            ProbeEpoch::from_books(&report.epochs[0].profile, &report.epochs[0].comm)
        };
        let pinned = Schedule::default();
        let probes = ProbeSet {
            baseline: probe(Schedule { cache: FeatureCacheConfig::Off, ..pinned }),
            pinned: probe(pinned),
            fp16: Some(probe(Schedule { codec: Codec::Fp16, ..pinned })),
            int8: Some(probe(Schedule { codec: Codec::Int8, ..pinned })),
            overlapped: (c > 1).then(|| probe(Schedule { overlap: true, ..pinned })),
        };
        let model = TuningModel::fit(STRESS_COST, p, probes).expect("probe books must balance");
        let lossless = tune::search(&model, &TuningGrid::new(p, c).expect("shape"));
        let lossy = tune::search(&model, &TuningGrid::new(p, c).expect("shape").with_lossy(true));
        let index = |choice: Schedule| {
            lossless.scored.iter().position(|s| s.choice == choice).unwrap_or(lossless.scored.len())
        };
        let at = |what: &str| format!("p={p} c={c} {what}");
        claims.extend([
            row("autotune.candidate0_is_default", at("index"), index(pinned), Eq, 0),
            row(
                "autotune.lossy_grid_extends_lossless",
                at("candidates"),
                lossy.scored.len(),
                Gt,
                lossless.scored.len(),
            ),
        ]);
        let runs = [
            ("default", &lossless.scored[0]),
            ("chosen", lossless.chosen()),
            ("chosen_lossy", lossy.chosen()),
        ]
        .map(|(mode, pred)| (mode, pred, run(&pred.choice, 2)));
        let default_books = run_books(&runs[0].2);
        let default_comm_ns = runs[0].1.cost.comm_ns() as usize;
        for (mode, pred, report) in &runs {
            let s = pred.choice;
            let overlap = if s.overlap { "on" } else { "off" };
            let schedule =
                format!("{mode} ({} {} overlap {overlap})", s.cache.name(), s.codec.name());
            let at = |what: &str| at(&format!("{schedule} {what}"));
            let (cost, e0) = (&pred.cost, &report.epochs[0].comm);
            claims.extend([
                row(
                    "autotune.prediction_matches_epoch0",
                    at("words"),
                    cost.words,
                    Eq,
                    e0.words_sent,
                ),
                row(
                    "autotune.prediction_matches_epoch0",
                    at("messages"),
                    cost.messages,
                    Eq,
                    e0.messages,
                ),
                row(
                    "autotune.prediction_matches_epoch0",
                    at("bytes"),
                    cost.bytes_on_wire,
                    Eq,
                    e0.bytes_on_wire,
                ),
            ]);
            if *mode != "default" {
                let books = run_books(report);
                claims.extend([
                    row(
                        "autotune.realized_chosen_le_sync",
                        at("words"),
                        books.words_sent,
                        Le,
                        default_books.words_sent,
                    ),
                    row(
                        "autotune.realized_chosen_le_sync",
                        at("messages"),
                        books.messages,
                        Le,
                        default_books.messages,
                    ),
                    row(
                        "autotune.realized_chosen_le_sync",
                        at("bytes"),
                        books.bytes_on_wire,
                        Le,
                        default_books.bytes_on_wire,
                    ),
                    row(
                        "autotune.chosen_comm_le_default",
                        at("predicted ns"),
                        cost.comm_ns() as usize,
                        Le,
                        default_comm_ns,
                    ),
                ]);
            }
        }
        let auto = stress_builder(&dataset, shape, 2).auto().expect("auto build");
        let auto_choice = auto.tuning_outcome().expect("tuned").chosen().choice;
        let auto_report = auto.train().expect("auto training");
        claims.extend([
            row(
                "autotune.search_equals_builder_auto",
                at("choice index"),
                index(auto_choice),
                Eq,
                index(runs[1].1.choice),
            ),
            agree(
                "autotune.search_equals_builder_auto",
                at("epochs"),
                &epochs(&auto_report),
                &epochs(&runs[1].2),
            ),
        ]);
    }
    claims
}
