//! The inside harness: every sweep that writes a `BENCH_*.json`, one record
//! schema for all of them, and the `--check` gate that re-derives the
//! deterministic part in CI.
//!
//! **One schema.**  Every sweep returns [`Record`]s — ordered
//! `(name, class, value)` lists built where the sweep measures — and `main`
//! prints, writes and checks them through `dmbs_bench::record` and
//! `dmbs_bench::check`.  The class of a field is its whole gating policy:
//!
//! * `key` — identifies the record in its file (`p`, `c`, `mode`, `codec`, …);
//! * `exact` — a counter of the seeded schedule (words, messages, byte, cache,
//!   serving, ingest and tuner books): must equal `ci/baseline/`;
//! * `soft` — measured or fitted seconds: slower than the baseline beyond
//!   `--tolerance` only warns;
//! * `identity` — a byte-identity contract against a reference formulation:
//!   `false` fails the run;
//! * `info` — recorded, deliberately never gated: `throughput`,
//!   `cache_hit_rate`, `reduction_vs_uncached`, `max_abs_err`, `final_loss`,
//!   `loss_delta_vs_exact`, `serial_epoch_s`, `overlapped_s`,
//!   `overlap_fraction`, `hot_hit_rate`, `sustained_qps`, `mean_s`, `max_s`
//!   (each is a ratio or a digest of fields that *are* gated, or carries
//!   measured-compute noise), and the kernel files' speedups and phase split.
//!
//! **The sweeps** (the `SWEEPS` table at the bottom; each sweep's own doc
//! comment says what it measures and asserts).  With no family flag, the five
//! kernel sweeps run at 1..N threads on a synthetic RMAT workload — SpGEMM
//! (`P ← Q · A`), the extraction kernels vs the selection-matrix SpGEMM
//! formulation they replaced, per-row ITS, and a GraphSAGE and a LADIES bulk
//! sampling epoch through `LocalBackend` — each result asserted
//! byte-identical to its reference.  Seven family flags select the gated
//! sweeps instead; several may be given and run in table order: `--fetch`
//! (feature cache), `--compress` (wire codecs), `--overlap` (pipelined
//! schedule), `--serve` (inference tier), `--calibrate` (socket transport vs
//! simulator, `BENCH_transport.json`), `--dynamic` (delta-CSR ingest) and
//! `--autotune` (cost-model-driven tuner).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin perf_baseline \
//!     [--smoke] [--fetch] [--compress] [--overlap] [--serve] [--calibrate] \
//!     [--dynamic] [--autotune] \
//!     [--check <baseline-dir>] [--tolerance <rel>] [output_dir]
//! ```
//!
//! `output_dir` defaults to the current directory.  `--smoke` shrinks the
//! workload to a seconds-long CI-sized run that still sweeps every kernel
//! and asserts every byte-identity contract.  `--check <dir>` is the CI
//! perf-regression gate: it compares every file this invocation wrote
//! against the committed baseline in `<dir>` (`ci/baseline/` in CI).
//! `DMBS_PERF_THREADS` (comma-separated, default `1,2,4,8`) overrides the
//! thread sweep.  Thread counts above the host's `available_parallelism()`
//! are dropped (and said so): a speedup the host cannot support is not a
//! result.  The committed trajectory is `ci/baseline/` for the counters and
//! `benchmark/` for wall clock; this binary publishes no top-level files.

use dmbs_bench::record::{self, Record, Workload};
use dmbs_bench::stats::{time_best, LatencySummary};
use dmbs_comm::tune::{self, ProbeEpoch, ProbeSet, Schedule, TuningGrid, TuningModel};
use dmbs_comm::{
    Codec, CommStats, CostModel, Group, Phase, ProcessGrid, Runtime, SocketLaunch, TransportSelect,
};
use dmbs_gnn::{
    FeatureCache, FeatureCacheConfig, FeatureStore, RequestTrace, ServeReport, ServingConfig,
    ServingSession, SessionBuilder, TrainingReport, TrainingSession,
};
use dmbs_graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs_graph::generators::{rmat, RmatConfig};
use dmbs_graph::{GraphIngest, IngestMode};
use dmbs_matrix::extract::{extract_columns_masked, extract_rows};
use dmbs_matrix::ops::row_selection_matrix;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spgemm::{spgemm, spgemm_parallel};
use dmbs_matrix::{CscMatrix, CsrMatrix, DeltaBatch, DenseMatrix};
use dmbs_sampling::its::{sample_rows_par, sample_rows_seeded};
use dmbs_sampling::{
    BulkSamplerConfig, DistConfig, FetchPlan, GraphSageSampler, LadiesSampler, LocalBackend,
    MinibatchSample, ReplicatedBackend, Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Measures one thread sweep: `measure(t)` returns the wall seconds at `t`
/// threads, whether the result was identical to the serial reference, and the
/// per-phase compute seconds (empty outside the epoch benches); `items` is
/// the work of one run, the throughput numerator.  The speedup baseline is
/// the 1-thread wall, which [`thread_sweep`] guarantees is always measured; it
/// runs the serial code path inside the same measurement loop as the other
/// thread counts (measuring the baseline in a separate earlier phase proved
/// systematically biased).
fn thread_records(
    threads: &[usize],
    items: usize,
    mut measure: impl FnMut(usize) -> (f64, bool, Vec<(&'static str, f64)>),
) -> Vec<Record> {
    let measured: Vec<_> = threads.iter().map(|&t| (t, measure(t))).collect();
    let baseline = measured
        .iter()
        .find(|(t, _)| *t == 1)
        .map(|(_, (wall, ..))| *wall)
        .expect("thread_sweep always includes 1");
    measured
        .into_iter()
        .map(|(t, (wall, identical, phases))| {
            let r = Record::new()
                .key("threads", t)
                .soft("wall_s", wall)
                .info("throughput", items as f64 / wall)
                .info("speedup_vs_serial", baseline / wall)
                .identity("identical_to_serial", identical);
            if phases.is_empty() {
                r
            } else {
                r.info("phase_compute_s", phases)
            }
        })
        .collect()
}

/// The thread counts to measure.  Always contains `1` (the serial speedup
/// baseline); an unparsable or empty `DMBS_PERF_THREADS` falls back to the
/// given default sweep rather than silently producing empty BENCH records.
/// Counts the host cannot run in parallel are dropped, whichever list they
/// came from.
fn thread_sweep(default: &[usize]) -> Vec<usize> {
    let mut sweep: Vec<usize> = match std::env::var("DMBS_PERF_THREADS") {
        Ok(spec) => spec
            .split(',')
            .filter_map(|t| t.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .collect(),
        Err(_) => default.to_vec(),
    };
    if sweep.is_empty() {
        eprintln!("DMBS_PERF_THREADS parsed to an empty sweep; using the default {default:?}");
        sweep = default.to_vec();
    }
    if !sweep.contains(&1) {
        sweep.insert(0, 1);
    }
    let host = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    let (kept, dropped): (Vec<usize>, Vec<usize>) = sweep.iter().partition(|&&t| t <= host);
    if !dropped.is_empty() {
        println!("thread sweep: dropped {dropped:?} — this host runs {host} thread(s) in parallel");
    }
    kept
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

/// The scaled-down products-like dataset the training sweeps run on.
fn products_dataset(scale: u32, feature_dim: usize, num_classes: usize, seed: u64) -> Arc<Dataset> {
    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = num_classes;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).expect("dataset"))
}

/// The cost model of the `--overlap`, `--calibrate` and `--autotune` sweeps:
/// deliberately coarse (`α = 200 µs`, `β = 50 ns/word` — a WAN-ish stress
/// model) so the communication bill is visible, and the schedule knobs
/// load-bearing, next to the tiny CPU workload.
const STRESS_COST: CostModel = CostModel { alpha: 2.0e-4, beta: 5.0e-8 };

/// The session those three sweeps train: distributed GraphSAGE `[10, 5]` on
/// the replicated backend under [`STRESS_COST`], bulk `k = 2`.
fn stress_builder(
    dataset: &Arc<Dataset>,
    (p, c): (usize, usize),
    batch_size: usize,
    epochs: usize,
) -> SessionBuilder<GraphSageSampler, ReplicatedBackend> {
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

/// Builds the session and trains it; returns the report and the measured
/// wall seconds of the whole training run.
fn train_timed<S, B>(builder: SessionBuilder<S, B>) -> (TrainingReport, f64)
where
    S: Sampler + Send + Sync + 'static,
    B: SamplingBackend + Send + Sync + 'static,
{
    let session = builder.build().expect("session");
    let start = Instant::now();
    let report = session.train().expect("training");
    (report, start.elapsed().as_secs_f64())
}

/// Whether two runs trained bit-identically: the same epochs, each with the
/// same loss bits and the same value of every deterministic counter.
fn same_run(a: &TrainingReport, b: &TrainingReport) -> bool {
    let counters = |s: &CommStats| {
        [s.words_sent, s.messages, s.bytes_on_wire, s.cache_hits, s.cache_misses, s.words_saved]
    };
    a.epochs.len() == b.epochs.len()
        && a.epochs.iter().zip(&b.epochs).all(|(x, y)| {
            x.mean_loss.to_bits() == y.mean_loss.to_bits() && counters(&x.comm) == counters(&y.comm)
        })
}

/// The synthetic workload the five kernel sweeps share: an RMAT graph and a
/// stacked Q of frontier rows, the shape of the paper's `P ← Q^l · A`
/// probability step.
struct KernelWorkload {
    scale: u32,
    degree: usize,
    q_rows: usize,
    /// Timing repetitions (best-of).
    reps: usize,
    batch_size: usize,
    /// Batches per epoch.
    num_batches: usize,
    threads: Vec<usize>,
    a: CsrMatrix,
    stacked: Vec<usize>,
    q: CsrMatrix,
    /// `Q · A` by the one-thread call of the SpGEMM kernel, computed once
    /// (untimed): the reference of the thread-count invariance checks and of
    /// the extraction kernels' byte-identity.  The speedup baseline is the
    /// *timed* 1-thread record of each sweep.
    serial_p: CsrMatrix,
}

fn kernel_workload(smoke: bool) -> &'static KernelWorkload {
    static WORKLOAD: OnceLock<KernelWorkload> = OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let (scale, degree, q_rows, reps, batch_size, num_batches) =
            if smoke { (8, 8, 1024, 1, 64, 4) } else { (13, 16, 32_768, 3, 256, 16) };
        let threads = if smoke { thread_sweep(&[1, 2]) } else { thread_sweep(&[1, 2, 4, 8]) };
        let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
            .expect("valid RMAT config");
        let a = graph.adjacency().clone();
        let n = a.rows();
        let stacked: Vec<usize> = (0..q_rows).map(|i| (i * 2_654_435_761) % n).collect();
        let q = row_selection_matrix(&stacked, n).expect("valid selection");
        let serial_p = spgemm(&q, &a).expect("spgemm");
        KernelWorkload {
            scale,
            degree,
            q_rows,
            reps,
            batch_size,
            num_batches,
            threads,
            a,
            stacked,
            q,
            serial_p,
        }
    })
}

/// SpGEMM: `P = Q · A` at each thread count (`BENCH_spgemm.json`).
fn spgemm_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let k = kernel_workload(smoke);
    let flops: usize = k.stacked.iter().map(|&v| k.a.row_nnz(v)).sum();
    let records = thread_records(&k.threads, flops, |t| {
        let par = Parallelism::new(t);
        let (wall, p) =
            time_best(k.reps, || spgemm_parallel(&k.q, &k.a, par).expect("spgemm_parallel"));
        (wall, p == k.serial_p, Vec::new())
    });
    let workload = Workload {
        name: "spgemm",
        detail: format!(
            "P = Q*A, rmat scale {} deg {} (n = {}, nnz(A) = {}), Q = {} stacked frontier rows",
            k.scale,
            k.degree,
            k.a.rows(),
            k.a.nnz(),
            k.q_rows
        ),
        items: flops,
        throughput_unit: "multiply-adds/s",
    };
    (workload, records)
}

/// Extraction kernels vs their selection-matrix SpGEMM formulation
/// (`BENCH_extract.json`).  Row gather: `extract_rows(A, stacked)` vs
/// `spgemm(row_selection, A)` — the exact product LADIES row extraction and
/// the GraphSAGE probability step used to pay Gustavson prices for.  Column
/// filter: per-batch masked extraction vs the hypersparse CSC selection
/// SpGEMM of §8.2.2.
fn extract_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let k = kernel_workload(smoke);
    let (a, n) = (&k.a, k.a.rows());
    let record = |kernel: &str, threads: usize, wall: f64, spgemm_wall: f64, items: usize, same| {
        Record::new()
            .key("kernel", kernel)
            .key("threads", threads)
            // Wall time of the structure-aware kernel.
            .soft("wall_s", wall)
            // Nonzeros this kernel's run touches.  Each record carries its
            // own (the two kernels process different nnz counts), so
            // `throughput == items / wall_s` holds per record; the header's
            // `items_per_run` is the combined total.
            .exact("items", items)
            .info("throughput", items as f64 / wall)
            // Wall time of the selection-matrix SpGEMM formulation it replaced.
            .info("spgemm_formulation_wall_s", spgemm_wall)
            .info("speedup_vs_spgemm_formulation", spgemm_wall / wall)
            .identity("identical_to_spgemm_formulation", same)
    };
    let gathered_nnz = k.serial_p.nnz();
    let mut records = Vec::new();
    for &t in &k.threads {
        let par = Parallelism::new(t);
        let (gather_wall, gathered) =
            time_best(k.reps, || extract_rows(a, &k.stacked, par).expect("extract_rows"));
        let (spgemm_wall, via_spgemm) =
            time_best(k.reps, || spgemm_parallel(&k.q, a, par).expect("spgemm_parallel"));
        let same = gathered == via_spgemm && gathered == k.serial_p;
        records.push(record("row_gather", t, gather_wall, spgemm_wall, gathered_nnz, same));
    }
    // Column extraction on LADIES-shaped per-batch blocks: k blocks of
    // `batch_size` gathered rows, each filtered down to `s` sampled columns.
    let col_k = k.num_batches;
    let col_s = if smoke { 64 } else { 512 };
    let block_rows = k.batch_size;
    let blocks: Vec<CsrMatrix> = (0..col_k)
        .map(|i| {
            let rows: Vec<usize> = (0..block_rows).map(|j| (i * block_rows + j * 13) % n).collect();
            extract_rows(a, &rows, Parallelism::serial()).expect("block gather")
        })
        .collect();
    let col_lists: Vec<Vec<usize>> = (0..col_k)
        .map(|i| {
            let mut cols: Vec<usize> = (0..col_s).map(|j| (i * 7 + j * 97) % n).collect();
            cols.sort_unstable();
            cols.dedup();
            cols
        })
        .collect();
    let filter_nnz: usize = blocks.iter().map(CsrMatrix::nnz).sum();
    let (mask_wall, masked) = time_best(k.reps, || {
        blocks
            .iter()
            .zip(&col_lists)
            .map(|(block, cols)| extract_columns_masked(block, cols).expect("masked filter"))
            .collect::<Vec<_>>()
    });
    let (csc_wall, via_csc) = time_best(k.reps, || {
        blocks
            .iter()
            .zip(&col_lists)
            .map(|(block, cols)| {
                CscMatrix::selection(n, cols).left_multiply(block).expect("csc spgemm")
            })
            .collect::<Vec<_>>()
    });
    records.push(record("column_mask", 1, mask_wall, csc_wall, filter_nnz, masked == via_csc));
    let workload = Workload {
        name: "extract",
        detail: format!(
            "row gather of {} frontier rows (nnz = {gathered_nnz}) + masked column filter of \
             {col_k} blocks of {block_rows} rows down to {col_s} columns (nnz in = \
             {filter_nnz}), vs the selection-matrix SpGEMM formulation, rmat scale {} deg {}",
            k.q_rows, k.scale, k.degree
        ),
        items: gathered_nnz + filter_nnz,
        throughput_unit: "nnz/s",
    };
    (workload, records)
}

/// Per-row ITS over the normalized probability rows (`BENCH_its.json`).
fn its_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let k = kernel_workload(smoke);
    let mut p_norm = k.serial_p.clone();
    p_norm.normalize_rows();
    let fanout = 10;
    let its_serial = sample_rows_seeded(&p_norm, fanout, 4242).expect("its");
    let records = thread_records(&k.threads, p_norm.rows(), |t| {
        let par = Parallelism::new(t);
        let (wall, sampled) =
            time_best(k.reps, || sample_rows_par(&p_norm, fanout, 4242, par).expect("its par"));
        (wall, sampled == its_serial, Vec::new())
    });
    let workload = Workload {
        name: "its",
        detail: format!(
            "per-row ITS without replacement, s = {fanout}, over {} probability rows \
             (nnz(P) = {})",
            p_norm.rows(),
            p_norm.nnz()
        ),
        items: p_norm.rows(),
        throughput_unit: "rows/s",
    };
    (workload, records)
}

/// One bulk sampling epoch through `LocalBackend` at each thread count, with
/// extraction attributed to its own `PhaseProfile` phase.
fn epoch_sweep<S: Sampler + Sync>(
    smoke: bool,
    name: &'static str,
    sampler: &S,
    describe: String,
) -> (Workload, Vec<Record>) {
    let k = kernel_workload(smoke);
    let (n, batch_size, num_batches) = (k.a.rows(), k.batch_size, k.num_batches);
    let batches: Vec<Vec<usize>> = (0..num_batches)
        .map(|i| (0..batch_size).map(|j| (i * batch_size + j * 7) % n).collect())
        .collect();
    let run_epoch = |t: usize| {
        let bulk = BulkSamplerConfig::new(batch_size, 4).with_parallelism(Parallelism::new(t));
        let backend = LocalBackend::new(bulk).expect("valid bulk config");
        let epoch = backend.sample_epoch(sampler, &k.a, &batches, 7).expect("epoch");
        (epoch.output.minibatches, epoch.output.profile)
    };
    let epoch_serial = run_epoch(1);
    let records = thread_records(&k.threads, num_batches, |t| {
        let (wall, (minibatches, profile)) = time_best(k.reps, || run_epoch(t));
        // Per-phase compute seconds of the epoch, in display order.
        let phases =
            Phase::sampling_phases().iter().map(|&p| (p.name(), profile.compute(p))).collect();
        (wall, minibatches == epoch_serial.0, phases)
    });
    let workload = Workload {
        name,
        detail: format!(
            "{describe} bulk epoch via LocalBackend: {num_batches} batches of {batch_size} on \
             rmat scale {} (bulk k = 4)",
            k.scale
        ),
        items: num_batches,
        throughput_unit: "minibatches/s",
    };
    (workload, records)
}

/// The GraphSAGE bulk epoch (`BENCH_epoch.json`).
fn sage_epoch_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let sampler = GraphSageSampler::new(if smoke { vec![5, 5] } else { vec![15, 10, 5] });
    let describe = format!("GraphSAGE {:?}", sampler.fanouts());
    epoch_sweep(smoke, "bulk_epoch", &sampler, describe)
}

/// The full LADIES pipeline — probability SpGEMM → ITS → gather + masked
/// column filter (`BENCH_ladies_epoch.json`).
fn ladies_epoch_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let sampler = LadiesSampler::new(if smoke { 2 } else { 3 }, if smoke { 64 } else { 512 });
    let describe =
        format!("LADIES {} layers x s = {}", sampler.num_layers(), sampler.samples_per_layer());
    epoch_sweep(smoke, "ladies_bulk_epoch", &sampler, describe)
}

/// The feature-fetching phase of one epoch, run standalone on a simulated
/// grid: each rank fetches the layer-0 frontiers of its round-robin share of
/// the epoch's minibatches, step by step (bulk synchronous, empty requests
/// for idle ranks — exactly the distributed trainer's schedule), through the
/// cache `mode` with the reply rows travelling under `codec`.  Returns
/// per-rank fetched rows plus the books summed over ranks: the wire counters
/// of the ranks and the hit/miss/saved counters of their caches.
fn run_fetch_epoch(
    runtime: &Runtime,
    w: &FetchWorkload,
    c: usize,
    mode: FeatureCacheConfig,
    codec: Codec,
) -> (Vec<Vec<DenseMatrix>>, CommStats) {
    let p = runtime.size();
    let steps = w.minibatches.len().div_ceil(p);
    let outs = runtime
        .run(|comm| {
            let rank = comm.rank();
            let grid = ProcessGrid::new(p, c).expect("valid grid");
            let (my_row, _) = grid.coords(rank);
            let store = FeatureStore::from_full(&w.h, grid.rows(), my_row)
                .expect("store")
                .with_codec(codec);
            let group = Group::new(&grid.col_ranks(rank)).expect("group");
            let my_mbs: Vec<&MinibatchSample> =
                w.minibatches.iter().skip(rank).step_by(p).collect();
            let mut cache = mode.is_enabled().then(|| FeatureCache::new(store.feature_dim()));
            if let Some(cache) = cache.as_mut() {
                let plan = FetchPlan::from_sample_iter(my_mbs.iter().copied());
                cache.prefetch(&store, comm, &group, plan.unique_vertices()).expect("prefetch");
            }
            let mut fetched = Vec::with_capacity(my_mbs.len());
            for step in 0..steps {
                let wanted: Vec<usize> =
                    my_mbs.get(step).map(|mb| mb.input_vertices().to_vec()).unwrap_or_default();
                let rows = match cache.as_mut() {
                    Some(cache) => cache.gather_pinned(&store, &wanted).expect("gather"),
                    None => store.fetch(comm, &group, &wanted).expect("fetch"),
                };
                if step < my_mbs.len() {
                    fetched.push(rows);
                }
            }
            let cache_stats = cache.map(|c| *c.stats()).unwrap_or_default();
            (fetched, cache_stats)
        })
        .expect("fetch epoch");
    let mut per_rank = Vec::with_capacity(outs.len());
    let mut books = CommStats::default();
    for o in outs {
        books.merge(&o.stats);
        books.merge(&o.value.1);
        per_rank.push(o.value.0);
    }
    (per_rank, books)
}

/// What `--fetch` and `--compress` share: one bulk-sampled GraphSAGE epoch on
/// an RMAT graph — the fetch phase is what varies, not the samples — its
/// fetch plan, a synthetic feature matrix of width `f`, and the grid shapes.
struct FetchWorkload {
    n: usize,
    f: usize,
    h: DenseMatrix,
    minibatches: Vec<MinibatchSample>,
    plan: FetchPlan,
    shapes: &'static [(usize, usize)],
    /// Timing repetitions (best-of).
    reps: usize,
    /// The epoch's description for the file header.
    detail: String,
}

/// `f_full` is the feature width of the full-size run (smoke pins 16).
fn fetch_workload(smoke: bool, f_full: usize) -> FetchWorkload {
    // (rmat scale, rmat degree, feature dim, batch size, batches, fanouts)
    let (scale, degree, f, batch_size, num_batches, fanouts) =
        if smoke { (8, 8, 16, 64, 8, vec![5, 5]) } else { (12, 12, f_full, 256, 16, vec![10, 5]) };
    let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
        .expect("valid RMAT config");
    let a = graph.adjacency();
    let n = a.rows();
    let h = DenseMatrix::from_rows(
        &(0..n)
            .map(|v| (0..f).map(|j| ((v * 31 + j * 7) % 1000) as f64 * 1e-3).collect())
            .collect::<Vec<_>>(),
    )
    .expect("feature matrix");
    let batches: Vec<Vec<usize>> = (0..num_batches)
        .map(|i| (0..batch_size).map(|j| (i * batch_size + j * 7) % n).collect())
        .collect();
    let sampler = GraphSageSampler::new(fanouts.clone());
    let backend = LocalBackend::new(BulkSamplerConfig::new(batch_size, 4)).expect("bulk config");
    let minibatches =
        backend.sample_epoch(&sampler, a, &batches, 7).expect("epoch").output.minibatches;
    FetchWorkload {
        n,
        f,
        h,
        plan: FetchPlan::from_minibatches(&minibatches),
        minibatches,
        shapes: if smoke {
            &[(2, 1), (2, 2), (4, 2)]
        } else {
            &[(4, 1), (4, 2), (4, 4), (8, 2), (8, 4)]
        },
        reps: if smoke { 1 } else { 3 },
        detail: format!(
            "feature-fetch phase of one GraphSAGE {fanouts:?} bulk epoch ({num_batches} batches \
             of {batch_size}, f = {f}) on rmat scale {scale} deg {degree}"
        ),
    }
}

/// The `--fetch` sweep: the feature-fetching phase of one bulk-sampled epoch
/// across grid shapes, cache off vs pinned, asserting that the pinned run
/// returns byte-identical rows, moves no more all-to-allv words than the
/// uncached baseline, and that `sent + saved == uncached` (the α–β books
/// balance).  `BENCH_fetch.json`.
fn fetch_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let w = fetch_workload(smoke, 64);
    let (n, f, plan) = (w.n, w.f, &w.plan);
    println!(
        "epoch frontier: {} raw input-vertex requests, {} unique ({} duplicates, ≤ {} words \
         avoidable at f = {f})",
        plan.total_requests(),
        plan.unique_len(),
        plan.duplicate_requests(),
        plan.words_avoided_upper_bound(f)
    );

    let record = |(p, c): (usize, usize),
                  mode: &str,
                  wall: f64,
                  books: &CommStats,
                  base_words: usize,
                  identical: bool| {
        Record::new()
            .key("p", p)
            .key("c", c)
            .key("mode", mode)
            .soft("wall_s", wall)
            // All-to-allv words this mode moved over the whole epoch (all ranks).
            .exact("words_per_epoch", books.words_sent)
            .exact("messages", books.messages)
            .exact("cache_hits", books.cache_hits)
            .exact("cache_misses", books.cache_misses)
            // The library's own formula; `null` when nothing was looked up.
            .info("cache_hit_rate", books.cache_hit_rate().unwrap_or(f64::NAN))
            .exact("words_saved", books.words_saved)
            // `words_per_epoch(uncached) / words_per_epoch(this mode)`; a
            // fully-replicated shape moves zero words either way.
            .info(
                "reduction_vs_uncached",
                if base_words == 0 {
                    1.0
                } else {
                    base_words as f64 / books.words_sent.max(1) as f64
                },
            )
            .identity("identical_to_uncached", identical)
    };
    let mut records = Vec::new();
    for &(p, c) in w.shapes {
        let runtime = Runtime::new(p).expect("runtime");
        // How the plan's unique rows spread over the owning feature blocks
        // (the block rows of the p/c × c layout) — the request-balance view
        // of the owner-block grouping the all-to-allv rides on.
        let block_partition =
            dmbs_graph::partition::OneDPartition::new(n, p / c).expect("partition");
        let per_block = plan.by_owner_block(&block_partition).expect("plan in range");
        let block_lens: Vec<usize> = per_block.iter().map(Vec::len).collect();
        println!(
            "p={p} c={c}: plan rows per owner block: min {} max {} (of {} blocks)",
            block_lens.iter().min().unwrap(),
            block_lens.iter().max().unwrap(),
            block_lens.len()
        );
        // `time_best` returns the (deterministic) epoch output, so one sweep
        // yields wall time, counters and the identity reference together.
        let fetch =
            |mode| time_best(w.reps, || run_fetch_epoch(&runtime, &w, c, mode, Codec::Exact));
        let (base_wall, (base_rows, base)) = fetch(FeatureCacheConfig::Off);
        let base_words = base.words_sent;
        records.push(record((p, c), "uncached", base_wall, &base, base_words, true));
        let (wall, (rows, books)) = fetch(FeatureCacheConfig::Pinned);
        let identical = rows == base_rows;
        assert!(identical, "p={p} c={c}: pinned fetch diverged from uncached");
        assert!(
            books.words_sent <= base_words,
            "p={p} c={c}: the pinned cache moved more words ({} > {base_words})",
            books.words_sent
        );
        assert_eq!(
            books.words_sent + books.words_saved,
            base_words,
            "p={p} c={c}: sent + saved must equal the uncached bill"
        );
        records.push(record((p, c), "pinned", wall, &books, base_words, identical));
    }

    let workload = Workload {
        name: "fetch_epoch",
        detail: format!(
            "{}; {} raw requests, {} unique",
            w.detail,
            plan.total_requests(),
            plan.unique_len()
        ),
        items: plan.total_requests(),
        throughput_unit: "requests/epoch",
    };
    (workload, records)
}

/// Worst `|a − b|` over two identically-shaped per-rank fetch results.
fn max_row_error(a: &[Vec<DenseMatrix>], b: &[Vec<DenseMatrix>]) -> f64 {
    let mut worst = 0.0f64;
    for (ra, rb) in a.iter().zip(b) {
        for (ma, mb) in ra.iter().zip(rb) {
            for (x, y) in ma.as_slice().iter().zip(mb.as_slice()) {
                worst = worst.max((x - y).abs());
            }
        }
    }
    worst
}

/// The `--compress` sweep: the `--fetch` feature-fetch epoch (cache off)
/// replayed under every wire codec, plus one small end-to-end training run
/// per codec.  Asserts in-sweep that the exact codec *is* the word book
/// (`bytes == 8 · words`, nothing saved), that compressed codecs keep the
/// schedule (words, messages) bit-identical while the byte books balance
/// (`bytes_on_wire + bytes_saved == bytes_on_wire(exact)`), that the feature
/// lanes clear the reduction floors (fp16 ≥ 1.9×, int8 ≥ 3.5× wherever
/// p > c — full replication serves every fetch locally, so there is no wire
/// to shrink), that per-row quantization error stays inside each codec's
/// stated bound, and that the quantized training loss lands within 0.25 of
/// exact.  `BENCH_compress.json`.
fn compress_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    // The --fetch workload family, pinned at f = 16 so the per-row framing
    // (tag + scale byte for int8) is amortized the way real feature widths
    // amortize it.
    let w = fetch_workload(smoke, 16);

    // One record per (grid shape × codec); `mode` distinguishes the
    // standalone feature-fetch replay (`"fetch"`) from the small end-to-end
    // training run (`"train"`).  `quality` is `[max_abs_err, final_loss,
    // loss_delta_vs_exact]`, NaN (→ `null`) where a row has no such number.
    let record = |(p, c): (usize, usize),
                  mode: &str,
                  codec: Codec,
                  wall: f64,
                  books: &CommStats,
                  exact_bytes: usize,
                  quality: [f64; 3],
                  identical: bool| {
        Record::new()
            .key("p", p)
            .key("c", c)
            .key("mode", mode)
            .key("codec", codec.name())
            .soft("wall_s", wall)
            // All-to-allv words this run moved (all ranks) —
            // codec-independent by contract, so the CI gate pins it exactly.
            .exact("words_per_epoch", books.words_sent)
            .exact("messages", books.messages)
            // Bytes the codec actually put on the wire (all ranks).
            .exact("bytes_on_wire", books.bytes_on_wire)
            // Bytes avoided vs the exact encoding; by construction
            // `bytes_on_wire + bytes_saved == bytes_on_wire(exact)`.
            .exact("bytes_saved", books.bytes_saved)
            // `⌊1000 · bytes_on_wire(exact) / bytes_on_wire⌋` — an integer so
            // the CI gate compares it exactly (1000 ⇔ 1.0×; a byte-free,
            // fully replicated shape reduces nothing).
            .exact(
                "bytes_reduction_x1000",
                (exact_bytes * 1000).checked_div(books.bytes_on_wire).unwrap_or(1000),
            )
            // Worst `|decoded − exact|` over every fetched row (fetch rows).
            .info("max_abs_err", quality[0])
            // Final-epoch mean loss (train rows).
            .info("final_loss", quality[1])
            // `|final_loss − final_loss(exact)|` (train rows).
            .info("loss_delta_vs_exact", quality[2])
            // Codecs change byte encodings, never the schedule: same words
            // and messages as the exact run.
            .identity("identical_to_exact_schedule", identical)
    };

    let mut records = Vec::new();
    for &(p, c) in w.shapes {
        let runtime = Runtime::new(p).expect("runtime");
        let fetch = |codec| {
            time_best(w.reps, || run_fetch_epoch(&runtime, &w, c, FeatureCacheConfig::Off, codec))
        };
        let (exact_wall, (exact_rows, exact)) = fetch(Codec::Exact);
        let exact_bytes = exact.bytes_on_wire;
        assert_eq!(
            exact_bytes,
            exact.words_sent * 8,
            "p={p} c={c}: the exact codec must bill exactly 8 bytes per word"
        );
        assert_eq!(exact.bytes_saved, 0, "p={p} c={c}: the exact codec saved bytes from thin air");
        let no_loss = [0.0, f64::NAN, f64::NAN];
        records.push(record(
            (p, c),
            "fetch",
            Codec::Exact,
            exact_wall,
            &exact,
            exact_bytes,
            no_loss,
            true,
        ));
        for codec in [Codec::Fp16, Codec::Int8] {
            let (wall, (rows, books)) = fetch(codec);
            let label = format!("p={p} c={c} {codec}");
            let identical =
                books.words_sent == exact.words_sent && books.messages == exact.messages;
            assert!(identical, "{label}: the codec changed the communication schedule");
            assert_eq!(
                books.bytes_on_wire + books.bytes_saved,
                exact_bytes,
                "{label}: byte books do not balance"
            );
            if p > c {
                // Fully-replicated shapes (p == c) serve every fetch locally,
                // so there are no wire bytes to shrink.
                let reduction_x1000 =
                    (exact_bytes * 1000).checked_div(books.bytes_on_wire).unwrap_or(1000);
                let floor = if codec == Codec::Fp16 { 1900 } else { 3500 };
                assert!(
                    reduction_x1000 >= floor,
                    "{label}: {:.2}x reduction is under the {:.2}x floor on the feature lanes",
                    reduction_x1000 as f64 / 1000.0,
                    floor as f64 / 1000.0,
                );
            }
            let max_err = max_row_error(&rows, &exact_rows);
            // The synthetic features live in [0, 1): fp16 resolves ~2⁻¹¹
            // relative, int8 max_abs/254 per row.
            let bound = if codec == Codec::Fp16 { 1.0 / 1024.0 } else { 1.0 / 254.0 + 1e-12 };
            assert!(
                max_err <= bound,
                "{label}: row error {max_err:.3e} above the codec bound {bound:.3e}"
            );
            let quality = [max_err, f64::NAN, f64::NAN];
            records.push(record(
                (p, c),
                "fetch",
                codec,
                wall,
                &books,
                exact_bytes,
                quality,
                identical,
            ));
        }
    }

    // One small end-to-end training run per codec: the loss trajectory must
    // survive quantized feature lanes, and the byte books must flow through
    // the session's per-epoch deltas (not just the standalone fetch path).
    let shape = if smoke { (2, 1) } else { (4, 2) };
    let (tp, tc) = shape;
    let dataset = products_dataset(if smoke { 6 } else { 8 }, w.f, 3, 17);
    let train = |codec: Codec| {
        let dist = DistConfig::new(tp, tc, BulkSamplerConfig::new(if smoke { 8 } else { 16 }, 2));
        let backend = ReplicatedBackend::new(dist).expect("backend");
        train_timed(
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
    let final_loss = |r: &TrainingReport| r.epochs.last().expect("epochs").mean_loss;
    let (exact_train, exact_train_wall) = train(Codec::Exact);
    let exact = run_books(&exact_train);
    let exact_bytes = exact.bytes_on_wire;
    assert_eq!(exact_bytes, exact.words_sent * 8, "train exact: bytes must be 8 · words");
    assert_eq!(exact.bytes_saved, 0, "train exact: nothing to save under the exact codec");
    let quality = [f64::NAN, final_loss(&exact_train), 0.0];
    records.push(record(
        shape,
        "train",
        Codec::Exact,
        exact_train_wall,
        &exact,
        exact_bytes,
        quality,
        true,
    ));
    for codec in [Codec::Fp16, Codec::Int8] {
        let (report, wall) = train(codec);
        let books = run_books(&report);
        let label = format!("train p={tp} c={tc} {codec}");
        assert_eq!(books.words_sent, exact.words_sent, "{label}: words diverged from exact");
        assert_eq!(books.messages, exact.messages, "{label}: messages diverged from exact");
        assert_eq!(
            books.bytes_on_wire + books.bytes_saved,
            exact_bytes,
            "{label}: training byte books do not balance"
        );
        // Both presets pick tp > tc, so the feature lanes carry real bytes.
        assert!(books.bytes_on_wire < exact_bytes, "{label}: the codec did not shrink the wire");
        let loss = final_loss(&report);
        let delta = (loss - final_loss(&exact_train)).abs();
        assert!(
            delta < 0.25,
            "{label}: final loss {loss:.4} drifted {delta:.4} from exact — quantization broke \
             training"
        );
        let quality = [f64::NAN, loss, delta];
        records.push(record(shape, "train", codec, wall, &books, exact_bytes, quality, true));
    }

    let workload = Workload {
        name: "compress_fetch",
        detail: format!(
            "{}, replayed under every wire codec; plus one {tp}x{tc} products-like training run \
             per codec; {} raw requests, {} unique",
            w.detail,
            w.plan.total_requests(),
            w.plan.unique_len()
        ),
        items: w.plan.total_requests(),
        throughput_unit: "requests/epoch",
    };
    (workload, records)
}

/// The `--overlap` sweep: distributed training (replicated backend, pinned
/// feature cache) across grid shapes, synchronous vs software-pipelined
/// schedule, asserting that the pipeline is pure schedule — bit-identical
/// losses, identical words/messages — while the modeled epoch seconds drop
/// by exactly the overlapped (hidden) α–β time; under [`STRESS_COST`] the
/// *fractions* are what the trajectory tracks.  `BENCH_overlap.json`.
fn overlap_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (scale, feature_dim, epochs) = if smoke { (7, 16, 2) } else { (9, 32, 3) };
    let dataset = products_dataset(scale, feature_dim, 4, 5);
    // Enough bulk groups per epoch (≥ 2) that the pipeline has stages to
    // hoist: batch = train/8, bulk k = 2 → 4 groups.
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let train = |p: usize, c: usize, overlap: bool| {
        train_timed(
            stress_builder(&dataset, (p, c), batch_size, epochs)
                .feature_cache(FeatureCacheConfig::Pinned)
                .overlap(overlap),
        )
    };

    let mut records = Vec::new();
    for &(p, c) in shapes {
        let (sync, sync_wall) = train(p, c, false);
        let (pipelined, overlap_wall) = train(p, c, true);

        // All seconds are critical-path (max across ranks, the
        // bulk-synchronous epoch time); words/messages are summed across
        // ranks (the wire bill).
        let seconds = |r: &TrainingReport| {
            let serial: f64 = r.epochs.iter().map(|e| e.total_time()).sum();
            let modeled: f64 = r.epochs.iter().map(|e| e.modeled_epoch_seconds()).sum();
            let hidden: f64 = r.epochs.iter().map(|e| e.overlapped_time()).sum();
            let comm: f64 = r.epochs.iter().map(|e| e.profile.total_comm()).sum();
            (serial, modeled, hidden, comm)
        };
        let (s_serial, _, s_hidden, _) = seconds(&sync);
        let (o_serial, o_modeled, o_hidden, o_comm) = seconds(&pipelined);
        let (s_books, o_books) = (run_books(&sync), run_books(&pipelined));

        // The overlap contract, asserted on every shape: pure schedule.
        let losses_identical = sync
            .epochs
            .iter()
            .zip(&pipelined.epochs)
            .all(|(a, b)| a.mean_loss.to_bits() == b.mean_loss.to_bits());
        assert!(losses_identical, "p={p} c={c}: overlap changed the losses");
        assert_eq!(
            o_books.words_sent, s_books.words_sent,
            "p={p} c={c}: overlap changed the words"
        );
        assert_eq!(o_books.messages, s_books.messages, "p={p} c={c}: overlap changed the messages");
        assert_eq!(s_hidden, 0.0, "p={p} c={c}: sync schedule must hide nothing");
        assert!(o_hidden > 0.0, "p={p} c={c}: pipeline hid no communication");
        assert!(
            o_modeled < o_serial,
            "p={p} c={c}: effective epoch seconds must drop by the hidden time"
        );

        // The cross-schedule comparison charges both schedules from ONE
        // measured compute baseline (the sync run's): the two runs execute
        // bit-identical compute and identical α–β bills, so the only
        // schedule-level difference is the hidden seconds — using a common
        // baseline keeps run-to-run machine noise out of the committed
        // trajectory.  Each row's own-run serial seconds stay in
        // `serial_epoch_s` for transparency.
        let fraction = if o_comm > 0.0 { o_hidden / o_comm } else { 0.0 };
        for (mode, wall, serial, modeled, hidden, fraction, books, identical) in [
            ("sync", sync_wall, s_serial, s_serial, s_hidden, 0.0, &s_books, true),
            (
                "overlap",
                overlap_wall,
                o_serial,
                s_serial - o_hidden,
                o_hidden,
                fraction,
                &o_books,
                losses_identical && o_books.words_sent == s_books.words_sent,
            ),
        ] {
            records.push(
                Record::new()
                    .key("p", p)
                    .key("c", c)
                    .key("mode", mode)
                    // Measured wall seconds of the whole training run.
                    .soft("wall_s", wall)
                    // Serial-schedule epoch seconds of this run (compute +
                    // full α–β bill), summed over epochs — identical in
                    // expectation between the two schedules, but carries
                    // this run's compute-measurement noise.
                    .info("serial_epoch_s", serial)
                    // Epoch seconds the schedule pays, charged from the
                    // *sync run's* measured compute baseline.
                    .soft("modeled_epoch_s", modeled)
                    // Modeled communication seconds hidden behind compute.
                    .info("overlapped_s", hidden)
                    // `overlapped_s / total modeled comm` — how much of the
                    // α–β bill hid.
                    .info("overlap_fraction", fraction)
                    // All-to-allv + allreduce words over the whole run (all
                    // ranks) — byte-identical between schedules by contract.
                    .exact("words_total", books.words_sent)
                    .exact("messages", books.messages)
                    // Losses bit-identical and words equal to the
                    // synchronous schedule.
                    .identity("identical_to_sync", identical),
            );
        }
    }

    let workload = Workload {
        name: "overlap_epoch",
        detail: format!(
            "distributed GraphSAGE [10, 5] training, replicated backend + pinned cache, \
             sync vs software-pipelined schedule; products-like scale {scale} (f = \
             {feature_dim}, batch {batch_size}, bulk k = 2, {epochs} epochs), stress cost \
             model alpha = {:.1e}s beta = {:.1e}s/word",
            STRESS_COST.alpha, STRESS_COST.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    (workload, records)
}

/// The `--autotune` sweep: per grid shape, run the tuner's probe epochs, fit
/// the [`dmbs_comm::tune::TuningModel`], search the lossless grid (exactly
/// what `builder().auto()` does) and the lossy-admitted grid, then *realize*
/// the default, chosen, and lossy-chosen schedules with full training runs —
/// asserting that the chosen schedules' realized effective epoch seconds
/// never exceed the default's, that the chosen run's epoch-0 books equal the
/// prediction counter-for-counter, and that `builder().auto()` reproduces
/// the offline search bit-identically.  `BENCH_autotune.json`.
fn autotune_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (scale, feature_dim, epochs) = if smoke { (7, 16, 2) } else { (9, 32, 3) };

    let dataset = products_dataset(scale, feature_dim, 4, 5);
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let train = |p: usize, c: usize, choice: &Schedule, n_epochs: usize| {
        train_timed(
            stress_builder(&dataset, (p, c), batch_size, n_epochs)
                .feature_cache(choice.cache)
                .wire_codec(choice.codec)
                .overlap(choice.overlap),
        )
    };

    let mut records = Vec::new();
    for &(p, c) in shapes {
        // Probe: one-epoch runs book the workload under each calibrating
        // knob — the same five probes `builder().auto()` would run (the two
        // lossy probes calibrate codec savings for the lossy-admitted grid).
        let probe = |schedule: Schedule| -> ProbeEpoch {
            let (report, _) = train(p, c, &schedule, 1);
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

        // Search: the lossless grid is exactly `builder().auto()`'s; the
        // lossy-admitted grid additionally enumerates fp16/int8.
        let lossless_grid = TuningGrid::new(p, c).expect("shape");
        let lossy_grid = TuningGrid::new(p, c).expect("shape").with_lossy(true);
        let lossless = tune::search(&model, &lossless_grid);
        let lossy = tune::search(&model, &lossy_grid);
        assert_eq!(
            lossless.scored[0].choice,
            Schedule::default(),
            "p={p} c={c}: candidate 0 must be the default schedule"
        );
        // Realize: full-length training of the default schedule, the tuner's
        // lossless arg-min (`"chosen"` — what `builder().auto()` applies) and
        // the lossy-admitted arg-min (`"chosen_lossy"`), each with the number
        // of valid candidates its grid enumerated.
        let runs = [
            ("default", &lossless.scored[0], &lossless),
            ("chosen", lossless.chosen(), &lossless),
            ("chosen_lossy", lossy.chosen(), &lossy),
        ]
        .map(|(mode, pred, search)| {
            let (report, wall) = train(p, c, &pred.choice, epochs);
            (mode, pred, search.scored.len(), report, wall)
        });
        let (_, _, _, default_report, _) = &runs[0];
        let (_, chosen_pred, _, chosen_report, _) = &runs[1];

        // Cross-run seconds are charged from ONE measured compute baseline
        // (the default run's) plus each run's own modeled comm minus its
        // hidden seconds — every schedule executes bit-identical compute,
        // so the common baseline isolates the schedule effect.
        let base_compute: f64 =
            default_report.epochs.iter().map(|e| e.profile.total_compute()).sum();
        let realize = |r: &TrainingReport| -> f64 {
            let comm: f64 = r.epochs.iter().map(|e| e.profile.total_comm()).sum();
            let hidden: f64 = r.epochs.iter().map(|e| e.profile.total_overlap()).sum();
            (base_compute + comm - hidden) / epochs as f64
        };
        let realized_default = realize(default_report);
        for (mode, pred, _, report, _) in &runs[1..] {
            // A chosen run's epoch-0 books must equal the prediction
            // counter-for-counter: the probes booked this exact schedule.
            let e0 = &report.epochs[0];
            assert_eq!(pred.cost.words, e0.comm.words_sent, "p={p} c={c} {mode}: words");
            assert_eq!(pred.cost.messages, e0.comm.messages, "p={p} c={c} {mode}: messages");
            assert_eq!(
                pred.cost.bytes_on_wire, e0.comm.bytes_on_wire,
                "p={p} c={c} {mode}: bytes on wire"
            );
            // The acceptance criterion: the tuner never picks a schedule that
            // realizes worse than the default it was free to keep.
            let realized = realize(report);
            assert!(
                realized <= realized_default,
                "p={p} c={c}: {mode} schedule realized {realized}s/epoch, worse than the \
                 default's {realized_default}s/epoch"
            );
        }

        // `builder().auto()` must reproduce the offline search: same chosen
        // schedule, bit-identical training.
        let auto_session =
            stress_builder(&dataset, (p, c), batch_size, epochs).auto().expect("auto build");
        let auto_choice = auto_session.tuning_outcome().expect("tuned").chosen().choice;
        assert_eq!(
            auto_choice, chosen_pred.choice,
            "p={p} c={c}: builder().auto() disagrees with the offline search"
        );
        let auto_report = auto_session.train().expect("auto training");
        let auto_identical = same_run(&auto_report, chosen_report);
        assert!(auto_identical, "p={p} c={c}: auto() diverged from the explicit chosen config");

        for (mode, pred, candidates, report, wall) in &runs {
            let books = run_books(report);
            records.push(
                Record::new()
                    .key("p", p)
                    .key("c", c)
                    .key("mode", *mode)
                    // The chosen rows' knobs are part of the record key
                    // (`policy` = cache mode `"off"` / `"pinned"`,
                    // `codec`), so any drift in the tuner's choice
                    // hard-fails the CI check as a missing record.
                    .key("policy", pred.choice.cache.name())
                    .key("codec", pred.choice.codec.name())
                    // `1` when this row's schedule overlaps communication
                    // with compute.
                    .exact("overlap_on", usize::from(pred.choice.overlap))
                    // Valid candidates this row's grid enumerated (lossless
                    // grid for the default/chosen rows, lossy-admitted grid
                    // for the chosen_lossy row).
                    .exact("candidates", *candidates)
                    // Predicted per-epoch words and bytes on the wire (all
                    // ranks).
                    .exact("predicted_words", pred.cost.words)
                    .exact("predicted_bytes_on_wire", pred.cost.bytes_on_wire)
                    // Predicted per-rank α–β communication seconds per
                    // epoch, as integer nanoseconds — a pure function of the
                    // deterministic probe books.
                    .exact("predicted_comm_ns", pred.cost.comm_ns())
                    // Predicted effective epoch seconds (probed compute +
                    // predicted comm − overlap credit) — carries
                    // measured-compute noise.
                    .soft("predicted_epoch_s", pred.cost.total_s())
                    // Realized effective epoch seconds, charged from the
                    // *default run's* measured compute baseline (above).
                    .soft("realized_epoch_s", realize(report))
                    // Realized words / messages / bytes over the whole run
                    // (all ranks).
                    .exact("words_total", books.words_sent)
                    .exact("messages", books.messages)
                    .exact("bytes_on_wire", books.bytes_on_wire)
                    // Measured wall seconds of the whole realized run.
                    .soft("wall_s", *wall)
                    // Per-shape fact stamped on every row of the shape:
                    // `builder().auto()` picked this shape's `chosen`
                    // schedule and trained bit-identically to the explicit
                    // configuration.
                    .identity("identical_to_builder_auto", auto_identical),
            );
        }
    }

    let workload = Workload {
        name: "autotune_epoch",
        detail: format!(
            "cost-model-driven auto-tuner: probe/fit/search then realize default vs chosen vs \
             lossy-chosen schedules; distributed GraphSAGE [10, 5], replicated backend, \
             products-like scale {scale} (f = {feature_dim}, batch {batch_size}, bulk k = 2, \
             {epochs} epochs), stress cost model alpha = {:.1e}s beta = {:.1e}s/word",
            STRESS_COST.alpha, STRESS_COST.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    (workload, records)
}

/// The `--dynamic` sweep: the incremental-ingest path end to end.
///
/// Part one folds a stream of delta batches into an RMAT adjacency through
/// [`GraphIngest`] under both modes and asserts the lazily-compacted CSR is
/// byte-identical to the eagerly-rebuilt one (ops/s is the trajectory).
/// Part two trains each grid shape with a live ingest schedule under the
/// default (pinned) feature cache, delta × rebuild; rebuild must reproduce
/// delta bit for bit, and the run's wire books are recorded for the CI gate
/// to pin.  `BENCH_dynamic.json`.
fn dynamic_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    // One row is either a standalone ingest-apply microbench (`mode`
    // `"apply_delta"` / `"apply_rebuild"`, `p = c = 1`, zero books) or a
    // distributed training run with a live ingest schedule (`mode`
    // `"train"`).
    let record = |(p, c): (usize, usize),
                  mode: &str,
                  wall: f64,
                  ops: usize,
                  throughput: f64,
                  books: &CommStats,
                  identical: bool| {
        Record::new()
            .key("p", p)
            .key("c", c)
            .key("mode", mode)
            .soft("wall_s", wall)
            // Delta ops applied over the run (inserts + deletes,
            // post-coalescing).
            .exact("ingest_ops", ops)
            // Apply rows: ops folded per second.  NaN → null on train rows.
            .info("throughput", throughput)
            .exact("words_total", books.words_sent)
            .exact("messages", books.messages)
            // Losses and every counter bit-identical to the eager-rebuild
            // run of the same configuration.
            .identity("identical_to_rebuild", identical)
    };

    // ---- Part one: apply throughput, lazy overlay vs eager rebuild.
    let (scale, degree, num_batches, ops_per_batch) =
        if smoke { (8, 8, 4, 64) } else { (12, 12, 8, 512) };
    let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
        .expect("valid RMAT config");
    let a = graph.adjacency().clone();
    let n = a.rows();
    let batches: Vec<DeltaBatch> = (0..num_batches)
        .map(|i| {
            let mut batch = DeltaBatch::new();
            for j in 0..ops_per_batch {
                let r = (i * ops_per_batch + j) * 2_654_435_761 % n;
                if j % 4 == 0 {
                    batch.delete(r, (r + 1) % n);
                } else {
                    batch.insert(r, (i * 97 + j * 131) % n, 1.0 + (j % 7) as f64);
                }
            }
            batch
        })
        .collect();
    let total_ops: usize = batches.iter().map(DeltaBatch::len).sum();
    let reps = if smoke { 1 } else { 3 };
    let run_apply = |mode: IngestMode| {
        let mut ingest = GraphIngest::new(a.clone()).expect("ingest").with_mode(mode);
        for batch in &batches {
            ingest.apply(batch).expect("apply");
        }
        ingest.adjacency().clone()
    };
    let (delta_wall, delta_adj) = time_best(reps, || run_apply(IngestMode::Delta));
    let (rebuild_wall, rebuild_adj) = time_best(reps, || run_apply(IngestMode::Rebuild));
    let apply_identical = delta_adj == rebuild_adj;
    assert!(apply_identical, "lazy delta compaction diverged from the eager rebuild");
    let mut records = Vec::new();
    for (mode, wall) in [("apply_delta", delta_wall), ("apply_rebuild", rebuild_wall)] {
        let throughput = total_ops as f64 / wall;
        let no_books = CommStats::default();
        records.push(record((1, 1), mode, wall, total_ops, throughput, &no_books, apply_identical));
    }

    // ---- Part two: training with a live ingest schedule.
    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (dscale, feature_dim) = if smoke { (7, 16) } else { (9, 16) };
    let dataset = products_dataset(dscale, feature_dim, 4, 5);
    let dn = dataset.graph.num_vertices();
    let batch_size = (dataset.train_set.len() / 8).max(8);
    // The schedule, derived from the dataset itself: after epoch 0 delete
    // real edges and fan new ones out; after epoch 1 retract some inserts
    // and grow further.
    let adj = dataset.graph.adjacency();
    let existing: Vec<(usize, usize)> = adj.iter().map(|(r, c, _)| (r, c)).take(6).collect();
    let mut missing = Vec::new();
    'scan: for r in 0..dn {
        for c in 0..dn {
            if r != c && adj.get(r, c) == 0.0 {
                missing.push((r, c));
                if missing.len() == 24 {
                    break 'scan;
                }
            }
        }
    }
    let mut first = DeltaBatch::new();
    for &(r, c) in &existing[..4] {
        first.delete(r, c);
    }
    for &(r, c) in &missing[..16] {
        first.insert(r, c, 1.0);
    }
    let mut second = DeltaBatch::new();
    for &(r, c) in &existing[4..] {
        second.delete(r, c);
    }
    for &(r, c) in &missing[16..] {
        second.insert(r, c, 1.5);
    }
    let events = [(0usize, first), (1usize, second)];
    let schedule_ops: usize = events.iter().map(|(_, b)| b.len()).sum();

    let train = |p: usize, c: usize, mode: IngestMode| {
        let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
        let backend = ReplicatedBackend::new(dist).expect("backend");
        let mut builder = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(backend)
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(3)
            .seed(42)
            .ingest_mode(mode)
            .without_evaluation();
        for (after_epoch, batch) in &events {
            builder = builder.ingest(*after_epoch, batch.clone());
        }
        train_timed(builder)
    };
    for &(p, c) in shapes {
        let (delta, wall) = train(p, c, IngestMode::Delta);
        let (rebuild, _) = train(p, c, IngestMode::Rebuild);
        let identical = same_run(&delta, &rebuild);
        assert!(identical, "p={p} c={c}: rebuild diverged from the delta overlay");
        let books = run_books(&delta);
        records.push(record((p, c), "train", wall, schedule_ops, f64::NAN, &books, identical));
    }

    let workload = Workload {
        name: "dynamic_ingest",
        detail: format!(
            "delta-CSR apply of {num_batches} batches x {ops_per_batch} ops on rmat scale \
             {scale} deg {degree} (lazy overlay vs eager rebuild), plus distributed GraphSAGE \
             [4, 3] training with a 2-event ingest schedule ({schedule_ops} ops) on \
             products-like scale {dscale} (f = {feature_dim}, batch {batch_size}, 3 epochs, \
             pinned cache) under delta x rebuild"
        ),
        items: total_ops + schedule_ops,
        throughput_unit: "delta-ops/run",
    };
    (workload, records)
}

/// The `--calibrate` sweep: measure the real Unix-socket transport against
/// the in-process simulator.  Two phases:
///
/// 1. **α–β probe** — a 2-rank ping-pong worker over real OS processes and
///    sockets at several message sizes; a least-squares fit of
///    `seconds ≈ α·messages + β·words` recovers the transport's actual
///    latency and inverse bandwidth in the cost model's own units.
/// 2. **Equivalence + epoch timing** — per grid shape, train the identical
///    session on both transports, assert bit-identical losses and
///    words/messages/cache counters (the cross-backend contract
///    `tests/transport_equivalence.rs` also pins), and record modeled vs
///    measured epoch seconds next to what the fitted constants predict.
///
/// `BENCH_transport.json`.  The counters and `identical_to_simulator`
/// hard-fail under `--check`; every measured or fitted seconds field only
/// soft-warns (it is a property of the host, not of the schedule).
fn calibrate_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    use dmbs_bench::transport::{
        decode_ping_result, encode_ping_job, fit_alpha_beta, registry, ProbeSample, PING_WORKER,
    };

    let launch = SocketLaunch::default().timeout_ms(180_000);

    // ---- Phase 1: ping-pong probe over real processes.
    let (sizes, rounds): (&[usize], usize) =
        if smoke { (&[64, 1_024, 16_384], 16) } else { (&[64, 1_024, 16_384, 131_072], 32) };
    println!("== α–β probe: {rounds}-round ping-pong per message size (2 rank processes) ==");
    let probe_runtime = Runtime::new(2)
        .expect("probe runtime")
        .with_transport(TransportSelect::UnixSocket(launch.clone()));
    let reg = registry();
    let mut samples = Vec::new();
    for &words in sizes {
        let outs = probe_runtime
            .run_worker(&reg, PING_WORKER, &encode_ping_job(words, rounds))
            .expect("ping-pong probe");
        // Rank 0's clock covers the whole loop; the bill it paid for is both
        // ranks' sends (each round trip is one send per rank, serialized).
        let (mut seconds, mut w, mut m) = (0.0, 0usize, 0usize);
        for o in &outs {
            let (s, ws, ms) = decode_ping_result(&o.value).expect("well-formed probe result");
            if o.rank == 0 {
                seconds = s;
            }
            w += ws;
            m += ms;
        }
        println!(
            "  {words:>8} words/msg: {m:>4} msgs {w:>9} words  {seconds:.6}s  \
             ({:.1} µs one-way)",
            seconds / (2.0 * rounds as f64) * 1e6
        );
        samples.push(ProbeSample { messages: m as f64, words: w as f64, seconds });
    }
    let (fit_alpha, fit_beta) =
        fit_alpha_beta(&samples).expect("probe sizes are non-degenerate by construction");
    println!("fitted: alpha = {fit_alpha:.3e} s/message, beta = {fit_beta:.3e} s/word");

    // ---- Phase 2: sim-vs-socket training per grid shape.  Same session
    // shape as the overlap sweep (replicated backend, pinned cache) so the
    // trajectories are comparable; the stress cost model keeps the *modeled*
    // bill visible next to the measured one.
    let shapes: &[(usize, usize)] =
        if smoke { &[(2, 1), (4, 2)] } else { &[(2, 1), (4, 2), (4, 4)] };
    let (scale, feature_dim, epochs) = if smoke { (7, 16, 2) } else { (8, 32, 3) };

    let dataset = products_dataset(scale, feature_dim, 4, 5);
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let train = |p: usize, c: usize, transport: TransportSelect| {
        train_timed(
            stress_builder(&dataset, (p, c), batch_size, epochs)
                .feature_cache(FeatureCacheConfig::Pinned)
                .transport(transport),
        )
    };

    let mut records = Vec::new();
    for &(p, c) in shapes {
        let (sim, sim_wall) = train(p, c, TransportSelect::Simulator);
        let (sock, sock_wall) = train(p, c, TransportSelect::UnixSocket(launch.clone()));

        // The cross-transport contract: the socket backend replays the exact
        // schedule the simulator models — losses and every deterministic
        // counter bit-identical, per epoch.
        let identical = same_run(&sim, &sock);
        assert!(identical, "p={p} c={c}: socket transport diverged from the simulator");

        for (transport, report, wall) in
            [("simulator", &sim, sim_wall), ("socket", &sock, sock_wall)]
        {
            let modeled: f64 = report.epochs.iter().map(|e| e.modeled_epoch_seconds()).sum();
            let books = run_books(report);
            records.push(
                Record::new()
                    .key("p", p)
                    .key("c", c)
                    // `"simulator"` or `"socket"`.
                    .key("transport", transport)
                    // Training epochs in the run (exact — a changed schedule
                    // length would silently rescale every per-epoch field).
                    .exact("epochs", epochs)
                    // Measured wall seconds of the whole training run on
                    // this transport.
                    .soft("wall_s", wall)
                    // Modeled epoch seconds (measured compute + configured
                    // α–β comm bill), summed over epochs.  The α–β portion is
                    // bit-identical between transports by the equivalence
                    // contract; the compute portion is measured wall time,
                    // so the field drifts with the machine.
                    .soft("modeled_epoch_s", modeled)
                    // Measured wall seconds per epoch.  On the socket row
                    // this includes real process spawn + wire time; the gap
                    // to `modeled_epoch_s / epochs` is what the calibration
                    // quantifies.
                    .soft("measured_epoch_s", wall / epochs as f64)
                    // Per-rank communication seconds per epoch the *fitted*
                    // α–β constants predict for this run's wire bill.
                    .soft(
                        "fit_comm_epoch_s",
                        (fit_alpha * books.messages as f64 + fit_beta * books.words_sent as f64)
                            / (p * epochs) as f64,
                    )
                    // Fitted per-message latency (seconds) and per-word cost
                    // (seconds/word) of the socket transport.
                    .soft("fit_alpha_s", fit_alpha)
                    .soft("fit_beta_s_per_word", fit_beta)
                    // Wire bill over the whole run, summed across ranks —
                    // byte-identical between transports by contract.
                    .exact("words_total", books.words_sent)
                    .exact("messages", books.messages)
                    .exact("cache_hits", books.cache_hits)
                    .exact("cache_misses", books.cache_misses)
                    .exact("words_saved", books.words_saved)
                    // Losses bit-identical and all counters equal to the
                    // simulator run.
                    .identity("identical_to_simulator", identical),
            );
        }
    }

    let workload = Workload {
        name: "transport_epoch",
        detail: format!(
            "distributed GraphSAGE [10, 5] training, replicated backend + pinned cache, \
             in-process simulator vs Unix-socket rank processes; products-like scale {scale} \
             (f = {feature_dim}, batch {batch_size}, bulk k = 2, {epochs} epochs), stress cost \
             model alpha = {:.1e}s beta = {:.1e}s/word; probe sizes {sizes:?} x {rounds} rounds",
            STRESS_COST.alpha, STRESS_COST.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    (workload, records)
}

/// The `--serve` sweep: trains one snapshot, then drives a fresh
/// `ServingSession` per (offered QPS × coalescing window) cell with the
/// same Zipf open-loop trace generator, replaying every cell twice and
/// asserting the deterministic virtual-time counters are bit-identical.
/// Asserts the tentpole latency claim — at the overloaded QPS level,
/// coalescing lowers p99 versus the window-0 (no-bulking) configuration.
/// `BENCH_serve.json`.
fn serve_sweep(smoke: bool) -> (Workload, Vec<Record>) {
    // The two offered loads straddle the window-0 saturation point of the
    // modeled service time (~1 / (200 µs per micro-bulk) ≈ 4.5k QPS): the low
    // level is stable everywhere, the high level overloads the un-coalesced
    // server (queueing + admission shed) while the micro-bulked one absorbs
    // it — the p99 gap the acceptance gate asserts.
    let qps_levels: [usize; 2] = [2000, 8000];
    let windows_us: [usize; 2] = [0, 1000];
    let (scale, feature_dim, num_requests, hot_capacity) =
        if smoke { (7, 16, 300, 32) } else { (10, 32, 4000, 128) };

    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = 8;
    cfg.train_fraction = 0.5;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(33)).expect("dataset"));
    let n = dataset.num_vertices();
    let batch_size = (dataset.train_set.len() / 8).max(8);

    // One trained snapshot, shared by every cell: serving is what varies.
    let training = TrainingSession::builder()
        .dataset(Arc::clone(&dataset))
        .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
        .backend(LocalBackend::new(BulkSamplerConfig::new(batch_size, 2)).expect("bulk config"))
        .hidden_dim(32)
        .learning_rate(0.05)
        .epochs(1)
        .seed(42)
        .without_evaluation()
        .build()
        .expect("training session");
    let (_, snapshot) = training.train_and_export().expect("training");
    println!(
        "snapshot: {} layers, f = {}, {} classes over {n} vertices (batch {batch_size})",
        snapshot.num_layers(),
        snapshot.feature_dim(),
        snapshot.num_classes()
    );

    let replay = |qps: usize, window_us: usize| -> ServeReport {
        let config = ServingConfig {
            coalesce_window: window_us as f64 * 1e-6,
            hot_capacity,
            seed: 7,
            ..ServingConfig::default()
        };
        let mut session = ServingSession::new(
            Arc::clone(&dataset),
            GraphSageSampler::new(vec![10, 5]).with_self_loops(),
            snapshot.clone(),
            config,
        )
        .expect("serving session");
        // Same trace seed at every cell: the vertex sequence is identical
        // across QPS levels (interarrival gaps just scale), so the cells
        // differ only in load and window.
        let trace = RequestTrace::open_loop(num_requests, qps as f64, 1.1, n, 11);
        session.run_trace(&trace).expect("trace replay")
    };

    let mut records = Vec::new();
    let mut p99s = Vec::new();
    for &qps in &qps_levels {
        for &window_us in &windows_us {
            let first = replay(qps, window_us);
            let second = replay(qps, window_us);
            // The determinism guard: queue dynamics live in virtual time,
            // so a fresh same-seed session must reproduce every counter,
            // every modeled word, and every latency sample bit-for-bit.
            let identical = first.stats == second.stats
                && first.comm.words_sent == second.comm.words_sent
                && first.comm.messages == second.comm.messages
                && first.latencies.len() == second.latencies.len()
                && first
                    .latencies
                    .iter()
                    .zip(&second.latencies)
                    .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(identical, "qps={qps} window={window_us}us: replay diverged");
            let stats = first.stats;
            let latency = LatencySummary::from_samples(&first.latencies);
            p99s.push((qps, window_us, latency.p99));
            records.push(
                Record::new()
                    // Offered load of the open-loop generator (requests per
                    // virtual second).
                    .key("qps", qps)
                    // Coalescing window in microseconds; `0` disables
                    // micro-bulking.
                    .key("window_us", window_us)
                    // The open-loop trace is replayed in deterministic
                    // virtual time, so queue dynamics — how requests
                    // coalesce, shed, and hit the hot tier — are exact.
                    .exact("requests_offered", stats.requests_offered)
                    .exact("requests_served", stats.requests_served)
                    .exact("batches", stats.batches)
                    // `round(served / batches * 1000)` — the coalescing
                    // factor as an integer so the CI gate can compare it
                    // exactly.
                    .exact("coalescing_x1000", (stats.coalescing_factor() * 1000.0).round() as u64)
                    .exact("hot_hits", stats.hot_hits)
                    .exact("hot_misses", stats.hot_misses)
                    .info("hot_hit_rate", stats.hot_hit_rate().unwrap_or(0.0))
                    .exact("shed_admission", stats.shed_admission)
                    .exact("shed_timeout", stats.shed_timeout)
                    // All-to-allv words actually charged over the run
                    // (hot-tier and cache hits avoid their share).
                    .exact("words_total", first.comm.words_sent)
                    .exact("messages", first.comm.messages)
                    // Served requests per virtual second of makespan.
                    .info("sustained_qps", first.sustained_qps())
                    // Virtual-time latency digest over the served requests.
                    // The percentiles ride the modeled service-time
                    // constants, which are tuning knobs rather than schedule
                    // contracts — latency drift warns, the counters above
                    // are what hard-fail.
                    .info("mean_s", latency.mean)
                    .soft("p50_s", latency.p50)
                    .soft("p99_s", latency.p99)
                    .soft("p999_s", latency.p999)
                    .info("max_s", latency.max)
                    // Measured wall seconds of the replay.
                    .soft("wall_s", first.wall_s)
                    // Two fresh same-seed replays produced bit-identical
                    // counters, books and latencies.
                    .identity("identical_across_replays", identical),
            );
        }
    }

    // The tentpole claim, asserted before anything is written: at the
    // overloaded QPS level, micro-bulk coalescing must lower tail latency
    // versus serving each request alone.
    let high = *qps_levels.iter().max().expect("non-empty sweep");
    let p99_of = |window_us: usize| {
        p99s.iter().find(|&&(q, w, _)| q == high && w == window_us).expect("cell measured").2
    };
    let (p99_solo, p99_coalesced) = (p99_of(0), p99_of(windows_us[1]));
    assert!(
        p99_coalesced < p99_solo,
        "coalescing must cut p99 at {high} QPS: window=0 p99 {p99_solo:.6}s vs \
         window={}us p99 {p99_coalesced:.6}s",
        windows_us[1]
    );
    println!(
        "coalescing cut p99 at {high} QPS from {:.3}ms to {:.3}ms",
        p99_solo * 1e3,
        p99_coalesced * 1e3
    );

    let workload = Workload {
        name: "serve_openloop",
        detail: format!(
            "open-loop Zipf(1.1) inference serving of a GraphSAGE [10, 5] snapshot on \
             products-like scale {scale} (f = {feature_dim}, {num_requests} requests per cell, \
             hot capacity {hot_capacity}); virtual-time queueing from the modeled service \
             time, {} QPS levels x {} coalescing windows, every cell replayed twice",
            qps_levels.len(),
            windows_us.len()
        ),
        items: num_requests,
        throughput_unit: "requests/cell",
    };
    (workload, records)
}

/// A sweep measures and returns the header and records of one file.
type Sweep = fn(bool) -> (Workload, Vec<Record>);

/// Every sweep: the flag that selects it (`""`: runs when no family flag is
/// given), the file it writes, and the function that measures it.  Several
/// family flags run in this order.
const SWEEPS: [(&str, &str, Sweep); 12] = [
    ("", "BENCH_spgemm.json", spgemm_sweep),
    ("", "BENCH_extract.json", extract_sweep),
    ("", "BENCH_its.json", its_sweep),
    ("", "BENCH_epoch.json", sage_epoch_sweep),
    ("", "BENCH_ladies_epoch.json", ladies_epoch_sweep),
    ("--fetch", "BENCH_fetch.json", fetch_sweep),
    ("--compress", "BENCH_compress.json", compress_sweep),
    ("--overlap", "BENCH_overlap.json", overlap_sweep),
    ("--serve", "BENCH_serve.json", serve_sweep),
    ("--calibrate", "BENCH_transport.json", calibrate_sweep),
    ("--dynamic", "BENCH_dynamic.json", dynamic_sweep),
    ("--autotune", "BENCH_autotune.json", autotune_sweep),
];

const USAGE: &str = "usage: perf_baseline [--smoke] [--fetch] [--compress] [--overlap] \
                     [--serve] [--calibrate] [--dynamic] [--autotune] \
                     [--check <baseline-dir>] [--tolerance <rel>] [output_dir]";

fn main() {
    // The --calibrate sweep re-executes this binary as its rank processes;
    // if the rendezvous environment is set, run the worker and exit before
    // any argument parsing or sweeping.
    dmbs_comm::run_if_worker(&dmbs_bench::transport::registry());
    let mut smoke = false;
    let mut selected: Vec<&str> = Vec::new();
    let mut check_dir: Option<std::path::PathBuf> = None;
    let mut tolerance = 0.5;
    let mut out_dir = std::path::PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--check" {
            let Some(dir) = args.next() else {
                eprintln!("--check needs a baseline directory; {USAGE}");
                std::process::exit(2);
            };
            check_dir = Some(std::path::PathBuf::from(dir));
        } else if arg == "--tolerance" {
            let parsed = args.next().and_then(|t| t.parse::<f64>().ok()).filter(|t| *t >= 0.0);
            let Some(parsed) = parsed else {
                eprintln!("--tolerance needs a non-negative relative value; {USAGE}");
                std::process::exit(2);
            };
            tolerance = parsed;
        } else if arg.starts_with("--") {
            // Reject unknown flags up front instead of running the full
            // multi-minute sweep and panicking at the first JSON write.
            let Some((flag, ..)) = SWEEPS.iter().find(|(flag, ..)| *flag == arg) else {
                eprintln!("unknown flag {arg:?}; {USAGE}");
                std::process::exit(2);
            };
            selected.push(flag);
        } else {
            out_dir = std::path::PathBuf::from(arg);
        }
    }
    if let Some(baseline_dir) = &check_dir {
        // Guard BEFORE the sweep runs: writing the fresh JSONs into the
        // baseline directory would clobber the committed baseline and then
        // compare the files against themselves (a vacuous pass).
        if dmbs_bench::check::same_dir(baseline_dir, &out_dir) {
            eprintln!(
                "--check baseline directory {} is also the output directory; the sweep would \
                 overwrite the baseline before comparing.  Pass a different output_dir.",
                baseline_dir.display()
            );
            std::process::exit(2);
        }
    }
    if smoke {
        println!("smoke mode: tiny workloads, full sweeps + identity checks");
    }
    if selected.is_empty() {
        selected.push("");
    }
    let mut produced = Vec::new();
    for (flag, file, sweep) in SWEEPS {
        if !selected.contains(&flag) {
            continue;
        }
        let (workload, records) = sweep(smoke);
        record::print(&format!("{file}: {}", workload.detail), &records);
        let path = out_dir.join(file);
        record::write(&path, &workload, &records).unwrap_or_else(|e| panic!("{e}"));
        println!("wrote {}", path.display());
        // The determinism contract the files advertise, enforced after the
        // write so a diverging record is preserved on disk.
        for r in &records {
            assert!(
                r.broken_identities().next().is_none(),
                "{file} [{}]: diverged from its reference formulation",
                r.key_string()
            );
        }
        produced.push((file, records));
    }
    if let Some(baseline_dir) = check_dir {
        if !dmbs_bench::check::run(&baseline_dir, &produced, tolerance) {
            std::process::exit(1);
        }
    }
}
