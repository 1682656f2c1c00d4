//! Perf-trajectory harness for the shared-memory hot paths.
//!
//! Runs the parallelized kernels — SpGEMM (`P ← Q · A`), the structure-aware
//! extraction kernels (row gather / masked column filter vs the
//! selection-matrix SpGEMM formulation they replaced), per-row ITS
//! (`SAMPLE`), and two full bulk sampling epochs (GraphSAGE and LADIES)
//! through `LocalBackend` — at 1..N threads on a synthetic RMAT workload,
//! verifies that every result is byte-identical to its reference
//! formulation, and writes one JSON record file per bench
//! (`BENCH_spgemm.json`, `BENCH_extract.json`, `BENCH_its.json`,
//! `BENCH_epoch.json`, `BENCH_ladies_epoch.json`) with wall time,
//! throughput, speedup-vs-serial and — for the epoch benches — the
//! per-`Phase` breakdown (probability / sampling / extraction attributed
//! separately via `PhaseProfile`), so future PRs have a recorded trajectory
//! to beat.
//!
//! Seven further sweeps ride on the same harness: `--fetch` measures the
//! communication-avoiding feature pipeline (`BENCH_fetch.json`),
//! `--compress` measures the wire codecs on the feature-fetch lanes
//! (`BENCH_compress.json`: per (shape × codec) the exact byte books —
//! `bytes_on_wire + bytes_saved == bytes_on_wire(exact)` asserted in-sweep —
//! the ×1000-scaled bytes reduction with its fp16 ≥ 1.9× / int8 ≥ 3.5×
//! floors, the worst-case row quantization error, and a small training run
//! per codec pinning the loss delta vs exact),
//! `--overlap` measures the software-pipelined distributed training
//! schedule against the synchronous one (`BENCH_overlap.json`: modeled
//! epoch seconds, hidden α–β time, words unchanged), `--serve` drives
//! the inference tier with a Zipf open-loop request trace across QPS ×
//! coalescing-window cells (`BENCH_serve.json`: p50/p99/p999 modeled
//! latency, sustained throughput, coalescing factor, hot-tier hit rate,
//! shed counts — every counter replayed twice and asserted identical), and
//! `--calibrate` measures the real multi-process Unix-socket transport
//! against the in-process simulator (`BENCH_transport.json`: a ping-pong
//! probe fits the socket's actual α and β, then each grid shape trains the
//! same session on both transports, asserts bit-identical losses and
//! counters, and records modeled vs measured epoch seconds), and
//! `--dynamic` measures the delta-CSR ingest path (`BENCH_dynamic.json`:
//! lazy-overlay vs eager-rebuild apply throughput with the compacted CSRs
//! asserted byte-identical, then per grid shape a training run with a live
//! ingest schedule under both ingest modes and both invalidation policies —
//! losses and counters bit-identical across modes, the double-entry
//! invalidation books recorded exactly, and the refetch words precise
//! invalidation avoids vs the flush-all baseline pinned), and
//! `--autotune` runs the cost-model-driven auto-tuner offline
//! (`BENCH_autotune.json`: per grid shape, probe epochs fit a
//! `TuningModel`, the lossless and lossy-admitted grids are searched, and
//! the default / chosen / lossy-chosen schedules are realized with full
//! training runs — chosen realized epoch seconds asserted no worse than the
//! default's, epoch-0 books asserted equal to the prediction
//! counter-for-counter, and `builder().auto()` asserted bit-identical to
//! the offline search).
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin perf_baseline \
//!     [--smoke] [--fetch | --compress | --overlap | --serve | --calibrate | \
//!      --dynamic | --autotune] \
//!     [--check <baseline-dir>] [--tolerance <rel>] [output_dir]
//! ```
//!
//! `output_dir` defaults to the current directory.  `--smoke` shrinks the
//! workload to a seconds-long CI-sized run that still sweeps every kernel
//! and asserts every byte-identity contract — the regression tripwire wired
//! into the CI workflow.  `--check <dir>` is the CI perf-regression gate: it
//! compares the JSONs this invocation wrote against the committed baselines
//! in `<dir>` (`ci/baseline/` in CI) — kernel byte-identity and the modeled
//! words/messages counters hard-fail on any drift, wall clock soft-warns
//! beyond `--tolerance` (relative, default `0.5`).  `DMBS_SCALE=large`
//! roughly quadruples the workload; `DMBS_PERF_THREADS` (comma-separated,
//! default `1,2,4,8`) overrides the thread sweep.

use dmbs_bench::stats::{time_best, LatencySummary};
use dmbs_comm::{Codec, Group, Phase, ProcessGrid, Runtime};
use dmbs_gnn::{FeatureCache, FeatureCacheConfig, FeatureStore};
use dmbs_graph::generators::{rmat, RmatConfig};
use dmbs_matrix::extract::{extract_columns_masked, extract_rows};
use dmbs_matrix::ops::row_selection_matrix;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spgemm::{spgemm, spgemm_parallel};
use dmbs_matrix::{CscMatrix, CsrMatrix, DenseMatrix};
use dmbs_sampling::its::{sample_rows_par, sample_rows_seeded};
use dmbs_sampling::{
    BulkSamplerConfig, FetchPlan, GraphSageSampler, LadiesSampler, LocalBackend, MinibatchSample,
    Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One measured configuration of one kernel.
struct Record {
    threads: usize,
    wall_s: f64,
    throughput: f64,
    speedup: f64,
    identical: bool,
    /// Optional per-phase compute-seconds breakdown (epoch benches).
    phases: Vec<(&'static str, f64)>,
}

/// One measured configuration of an extraction kernel against its SpGEMM
/// formulation.
struct ExtractRecord {
    kernel: &'static str,
    threads: usize,
    /// Wall time of the structure-aware kernel.
    wall_s: f64,
    /// Wall time of the selection-matrix SpGEMM formulation it replaced.
    spgemm_wall_s: f64,
    /// Nonzeros this kernel's run touches (its throughput numerator).
    items: usize,
    identical: bool,
}

/// Workload description embedded in each JSON file.
struct Workload {
    name: &'static str,
    detail: String,
    /// Work items per run — nonzeros touched for the matrix kernels,
    /// minibatches for the epochs — used for the throughput field.
    items: usize,
    throughput_unit: &'static str,
}

fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.6e}")
    } else {
        "null".to_string()
    }
}

/// The header fields shared by every BENCH JSON file; keep the schema of
/// the whole `BENCH_*.json` family in one place.
fn json_header(workload: &Workload) -> String {
    format!(
        "{{\n  \"bench\": \"{}\",\n  \"workload\": \"{}\",\n  \"items_per_run\": {},\n  \
         \"throughput_unit\": \"{}\",\n  \"host_threads\": {},\n",
        workload.name,
        workload.detail,
        workload.items,
        workload.throughput_unit,
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    )
}

fn write_json(path: &std::path::Path, workload: &Workload, records: &[Record]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let phases = if r.phases.is_empty() {
            String::new()
        } else {
            let fields: Vec<String> = r
                .phases
                .iter()
                .map(|(name, secs)| format!("\"{name}\": {}", json_f64(*secs)))
                .collect();
            format!(", \"phase_compute_s\": {{{}}}", fields.join(", "))
        };
        out.push_str(&format!(
            "    {{\"threads\": {}, \"wall_s\": {}, \"throughput\": {}, \
             \"speedup_vs_serial\": {}, \"identical_to_serial\": {}{}}}{}\n",
            r.threads,
            json_f64(r.wall_s),
            json_f64(r.throughput),
            json_f64(r.speedup),
            r.identical,
            phases,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn write_extract_json(path: &std::path::Path, workload: &Workload, records: &[ExtractRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        // Each record carries its own `items` (the two kernels process
        // different nnz counts), so `throughput == items / wall_s` holds
        // per record; the header's `items_per_run` is the combined total.
        out.push_str(&format!(
            "    {{\"kernel\": \"{}\", \"threads\": {}, \"wall_s\": {}, \"items\": {}, \
             \"throughput\": {}, \"spgemm_formulation_wall_s\": {}, \
             \"speedup_vs_spgemm_formulation\": {}, \"identical_to_spgemm_formulation\": {}}}{}\n",
            r.kernel,
            r.threads,
            json_f64(r.wall_s),
            r.items,
            json_f64(r.items as f64 / r.wall_s),
            json_f64(r.spgemm_wall_s),
            json_f64(r.spgemm_wall_s / r.wall_s),
            r.identical,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Turns raw `(threads, wall, identical, phases)` measurements into records.
/// The speedup baseline is the 1-thread wall, which [`thread_sweep`]
/// guarantees is always measured; it runs the serial code path inside the
/// same measurement loop as the other thread counts (measuring the baseline
/// in a separate earlier phase proved systematically biased).
#[allow(clippy::type_complexity)]
fn finish_records(
    walls: &[(usize, f64, bool, Vec<(&'static str, f64)>)],
    throughput: impl Fn(f64) -> f64,
) -> Vec<Record> {
    let baseline = walls
        .iter()
        .find(|&&(t, _, _, _)| t == 1)
        .map(|&(_, wall, _, _)| wall)
        .expect("thread_sweep always includes 1");
    walls
        .iter()
        .map(|(t, wall, identical, phases)| Record {
            threads: *t,
            wall_s: *wall,
            throughput: throughput(*wall),
            speedup: baseline / wall,
            identical: *identical,
            phases: phases.clone(),
        })
        .collect()
}

/// The thread counts to measure.  Always contains `1` (the serial speedup
/// baseline); an unparsable or empty `DMBS_PERF_THREADS` falls back to the
/// given default sweep rather than silently producing empty BENCH records.
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
    sweep
}

/// Fails the run when any parallel result diverged from the serial kernel —
/// the determinism contract the committed BENCH files advertise.  Called
/// after the JSON is written so the diverging record is preserved on disk.
fn assert_identical(bench: &str, records: &[Record]) {
    for r in records {
        assert!(
            r.identical,
            "{bench}: parallel output at {} threads diverged from the serial kernel",
            r.threads
        );
    }
}

fn print_records(title: &str, unit: &str, records: &[Record]) {
    println!("\n== {title} ==");
    println!("{:>7}  {:>12}  {:>14}  {:>8}  identical", "threads", "wall_s", unit, "speedup");
    for r in records {
        println!(
            "{:>7}  {:>12.6}  {:>14.3e}  {:>7.2}x  {}",
            r.threads, r.wall_s, r.throughput, r.speedup, r.identical
        );
    }
}

fn print_extract_records(title: &str, records: &[ExtractRecord]) {
    println!("\n== {title} ==");
    println!(
        "{:>12}  {:>7}  {:>12}  {:>14}  {:>10}  identical",
        "kernel", "threads", "wall_s", "spgemm_wall_s", "speedup"
    );
    for r in records {
        println!(
            "{:>12}  {:>7}  {:>12.6}  {:>14.6}  {:>9.2}x  {}",
            r.kernel,
            r.threads,
            r.wall_s,
            r.spgemm_wall_s,
            r.spgemm_wall_s / r.wall_s,
            r.identical
        );
    }
}

/// Per-phase compute seconds of an epoch, in display order.
fn phase_breakdown(profile: &dmbs_comm::PhaseProfile) -> Vec<(&'static str, f64)> {
    Phase::sampling_phases().iter().map(|&p| (p.name(), profile.compute(p))).collect()
}

/// One measured (grid shape × cache mode) configuration of the feature-fetch
/// sweep.
struct FetchRecord {
    p: usize,
    c: usize,
    mode: &'static str,
    wall_s: f64,
    /// All-to-allv words this mode moved over the whole epoch (all ranks).
    words_per_epoch: usize,
    messages: usize,
    cache_hits: usize,
    cache_misses: usize,
    words_saved: usize,
    /// `words_per_epoch(uncached) / words_per_epoch(this mode)`.
    reduction_vs_uncached: f64,
    identical: bool,
}

impl FetchRecord {
    /// The record's hit rate through the one canonical implementation
    /// (`CommStats::cache_hit_rate`), so the JSON, the table and the library
    /// can never disagree on the formula.
    fn hit_rate(&self) -> Option<f64> {
        dmbs_comm::CommStats {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            ..Default::default()
        }
        .cache_hit_rate()
    }
}

fn write_fetch_json(path: &std::path::Path, workload: &Workload, records: &[FetchRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        let hit_rate = r.hit_rate().unwrap_or(f64::NAN); // json_f64: NaN → null
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"mode\": \"{}\", \"wall_s\": {}, \
             \"words_per_epoch\": {}, \"messages\": {}, \"cache_hits\": {}, \
             \"cache_misses\": {}, \"cache_hit_rate\": {}, \"words_saved\": {}, \
             \"reduction_vs_uncached\": {}, \"identical_to_uncached\": {}}}{}\n",
            r.p,
            r.c,
            r.mode,
            json_f64(r.wall_s),
            r.words_per_epoch,
            r.messages,
            r.cache_hits,
            r.cache_misses,
            json_f64(hit_rate),
            r.words_saved,
            json_f64(r.reduction_vs_uncached),
            r.identical,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_fetch_records(records: &[FetchRecord]) {
    println!("\n== Feature-fetch epoch: words moved, cache on vs off ==");
    println!(
        "{:>3} {:>3} {:>9}  {:>12}  {:>10}  {:>9}  {:>9}  {:>9}  identical",
        "p", "c", "mode", "words/epoch", "messages", "hit_rate", "saved", "reduction"
    );
    for r in records {
        let hit_rate = r.hit_rate().map_or("-".to_string(), |h| format!("{h:.3}"));
        println!(
            "{:>3} {:>3} {:>9}  {:>12}  {:>10}  {:>9}  {:>9}  {:>8.2}x  {}",
            r.p,
            r.c,
            r.mode,
            r.words_per_epoch,
            r.messages,
            hit_rate,
            r.words_saved,
            r.reduction_vs_uncached,
            r.identical
        );
    }
}

/// The feature-fetching phase of one epoch, run standalone on a simulated
/// grid: each rank fetches the layer-0 frontiers of its round-robin share of
/// the epoch's minibatches, step by step (bulk synchronous, empty requests
/// for idle ranks — exactly the distributed trainer's schedule).  Returns
/// per-rank fetched rows plus the summed communication counters.
#[allow(clippy::type_complexity)]
fn run_fetch_epoch(
    runtime: &Runtime,
    h: &DenseMatrix,
    minibatches: &[MinibatchSample],
    c: usize,
    mode: FeatureCacheConfig,
) -> (Vec<Vec<DenseMatrix>>, usize, usize, usize, usize, usize) {
    let p = runtime.size();
    let steps = minibatches.len().div_ceil(p);
    let outs = runtime
        .run(|comm| {
            let rank = comm.rank();
            let grid = ProcessGrid::new(p, c).expect("valid grid");
            let (my_row, _) = grid.coords(rank);
            let store = FeatureStore::from_full(h, grid.rows(), my_row).expect("store");
            let group = Group::new(&grid.col_ranks(rank)).expect("group");
            let my_mbs: Vec<&MinibatchSample> = minibatches.iter().skip(rank).step_by(p).collect();
            let mut cache = mode.is_enabled().then(|| FeatureCache::new(mode, store.feature_dim()));
            if let (Some(cache), FeatureCacheConfig::EpochPinned) = (cache.as_mut(), mode) {
                let plan = FetchPlan::from_sample_iter(my_mbs.iter().copied());
                cache.prefetch(&store, comm, &group, plan.unique_vertices()).expect("prefetch");
            }
            let mut fetched = Vec::with_capacity(my_mbs.len());
            for step in 0..steps {
                let wanted: Vec<usize> =
                    my_mbs.get(step).map(|mb| mb.input_vertices().to_vec()).unwrap_or_default();
                let rows = match cache.as_mut() {
                    Some(cache) if mode == FeatureCacheConfig::EpochPinned => {
                        cache.gather_pinned(&store, &wanted).expect("gather")
                    }
                    Some(cache) => {
                        cache.fetch_through(&store, comm, &group, &wanted).expect("fetch")
                    }
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
    let (mut words, mut messages, mut hits, mut misses, mut saved) = (0, 0, 0, 0, 0);
    for o in outs {
        words += o.stats.words_sent;
        messages += o.stats.messages;
        hits += o.value.1.cache_hits;
        misses += o.value.1.cache_misses;
        saved += o.value.1.words_saved;
        per_rank.push(o.value.0);
    }
    (per_rank, words, messages, hits, misses, saved)
}

const USAGE: &str = "usage: perf_baseline [--smoke] [--fetch | --compress | --overlap | \
                     --serve | --calibrate | --dynamic | --autotune] [--check <baseline-dir>] \
                     [--tolerance <rel>] [output_dir]";

fn main() {
    // The --calibrate sweep re-executes this binary as its rank processes;
    // if the rendezvous environment is set, run the worker and exit before
    // any argument parsing or sweeping.
    dmbs_comm::run_if_worker(&dmbs_bench::transport::registry());
    let mut smoke = false;
    let mut fetch_only = false;
    let mut compress_only = false;
    let mut overlap_only = false;
    let mut serve_only = false;
    let mut calibrate_only = false;
    let mut dynamic_only = false;
    let mut autotune_only = false;
    let mut check_dir: Option<std::path::PathBuf> = None;
    let mut tolerance = 0.5;
    let mut out_dir = std::path::PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--smoke" {
            smoke = true;
        } else if arg == "--fetch" {
            fetch_only = true;
        } else if arg == "--compress" {
            compress_only = true;
        } else if arg == "--overlap" {
            overlap_only = true;
        } else if arg == "--serve" {
            serve_only = true;
        } else if arg == "--calibrate" {
            calibrate_only = true;
        } else if arg == "--dynamic" {
            dynamic_only = true;
        } else if arg == "--autotune" {
            autotune_only = true;
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
            eprintln!("unknown flag {arg:?}; {USAGE}");
            std::process::exit(2);
        } else {
            out_dir = std::path::PathBuf::from(arg);
        }
    }
    if [
        fetch_only,
        compress_only,
        overlap_only,
        serve_only,
        calibrate_only,
        dynamic_only,
        autotune_only,
    ]
    .iter()
    .filter(|&&f| f)
    .count()
        > 1
    {
        // The sweeps are exclusive; silently running only one of them would
        // leave the other's BENCH file stale while --check reports success.
        eprintln!(
            "--fetch, --compress, --overlap, --serve, --calibrate, --dynamic and --autotune \
             are mutually exclusive; {USAGE}"
        );
        std::process::exit(2);
    }
    if let Some(baseline_dir) = &check_dir {
        // Guard BEFORE the sweep runs: writing the fresh JSONs into the
        // baseline directory would clobber the committed baseline and then
        // compare the files against themselves (a vacuous pass).
        let same_dir = match (baseline_dir.canonicalize(), out_dir.canonicalize()) {
            (Ok(a), Ok(b)) => a == b,
            _ => *baseline_dir == out_dir,
        };
        if same_dir {
            eprintln!(
                "--check baseline directory {} is also the output directory; the sweep would \
                 overwrite the baseline before comparing.  Pass a different output_dir.",
                baseline_dir.display()
            );
            std::process::exit(2);
        }
    }
    // The sweep (which also decides which files --check compares).
    let produced: &[&str] = if fetch_only {
        run_fetch_sweep(smoke, &out_dir);
        &["BENCH_fetch.json"]
    } else if compress_only {
        run_compress_sweep(smoke, &out_dir);
        &["BENCH_compress.json"]
    } else if overlap_only {
        run_overlap_sweep(smoke, &out_dir);
        &["BENCH_overlap.json"]
    } else if serve_only {
        run_serve_sweep(smoke, &out_dir);
        &["BENCH_serve.json"]
    } else if calibrate_only {
        run_calibrate_sweep(smoke, &out_dir);
        &["BENCH_transport.json"]
    } else if dynamic_only {
        run_dynamic_sweep(smoke, &out_dir);
        &["BENCH_dynamic.json"]
    } else if autotune_only {
        run_autotune_sweep(smoke, &out_dir);
        &["BENCH_autotune.json"]
    } else {
        run_kernel_sweeps(smoke, &out_dir);
        &[
            "BENCH_spgemm.json",
            "BENCH_extract.json",
            "BENCH_its.json",
            "BENCH_epoch.json",
            "BENCH_ladies_epoch.json",
        ]
    };
    if let Some(baseline_dir) = check_dir {
        run_check(&baseline_dir, &out_dir, produced, tolerance);
    }
}

/// The `--check` gate: compare the files this invocation produced against
/// the committed baselines.  Hard findings (kernel-identity or exact-counter
/// drift) fail the process; wall-clock findings only warn.
fn run_check(
    baseline_dir: &std::path::Path,
    fresh_dir: &std::path::Path,
    files: &[&str],
    tolerance: f64,
) {
    use dmbs_bench::check::{compare_file, passes, Severity};
    println!(
        "\n== perf-regression check vs {} (wall tolerance {:.0}%) ==",
        baseline_dir.display(),
        tolerance * 100.0
    );
    let mut all = Vec::new();
    for file in files {
        all.extend(compare_file(baseline_dir, fresh_dir, file, tolerance));
    }
    for finding in &all {
        match finding.severity {
            Severity::Hard => eprintln!("FAIL {}", finding.message),
            Severity::Soft => eprintln!("warn {}", finding.message),
        }
    }
    if passes(&all) {
        println!(
            "check passed: {} file(s), {} soft warning(s), no hard regressions",
            files.len(),
            all.len()
        );
    } else {
        eprintln!("check FAILED: a committed perf contract regressed (see FAIL lines above)");
        std::process::exit(1);
    }
}

fn run_kernel_sweeps(smoke: bool, out_dir: &std::path::Path) {
    let large = matches!(std::env::var("DMBS_SCALE").as_deref(), Ok("large") | Ok("LARGE"));
    // (rmat scale, rmat degree, stacked Q rows, timing reps, batch size,
    // batches per epoch)
    let (scale, degree, q_rows, reps, batch_size, num_batches) = if smoke {
        (8, 8, 1024, 1, 64, 4)
    } else if large {
        (15, 20, 131_072, 5, 256, 16)
    } else {
        (13, 16, 32_768, 3, 256, 16)
    };
    let threads = if smoke { thread_sweep(&[1, 2]) } else { thread_sweep(&[1, 2, 4, 8]) };
    if smoke {
        println!("smoke mode: tiny workload, full kernel sweep + identity checks");
    }

    // ---- Shared synthetic workload: an RMAT graph and a stacked Q of
    // frontier rows, the shape of the paper's P ← Q^l · A probability step.
    let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
        .expect("valid RMAT config");
    let a = graph.adjacency().clone();
    let n = a.rows();
    let stacked: Vec<usize> = (0..q_rows).map(|i| (i * 2_654_435_761) % n).collect();
    let q = row_selection_matrix(&stacked, n).expect("valid selection");

    // ---- SpGEMM: P = Q · A at each thread count.  The serial reference is
    // computed once (untimed) for the byte-identity check; the speedup
    // baseline is the *timed* 1-thread record, which runs the identical
    // serial code path inside the same measurement loop (measuring the
    // baseline in a separate earlier phase proved systematically biased).
    let serial_p = spgemm(&q, &a).expect("spgemm");
    let flops: usize = stacked.iter().map(|&v| a.row_nnz(v)).sum();
    let mut walls = Vec::new();
    for &t in &threads {
        let par = Parallelism::new(t);
        let (wall, p) = time_best(reps, || spgemm_parallel(&q, &a, par).expect("spgemm_parallel"));
        walls.push((t, wall, p == serial_p, Vec::new()));
    }
    let records = finish_records(&walls, |wall| flops as f64 / wall);
    let workload = Workload {
        name: "spgemm",
        detail: format!(
            "P = Q*A, rmat scale {scale} deg {degree} (n = {n}, nnz(A) = {}), Q = {q_rows} \
             stacked frontier rows",
            a.nnz()
        ),
        items: flops,
        throughput_unit: "multiply-adds/s",
    };
    print_records("SpGEMM P = Q*A", "flops/s", &records);
    write_json(&out_dir.join("BENCH_spgemm.json"), &workload, &records);
    assert_identical("spgemm", &records);

    // ---- Extraction kernels vs their selection-matrix SpGEMM formulation.
    // Row gather: extract_rows(A, stacked) vs spgemm(row_selection, A) — the
    // exact product LADIES row extraction and the GraphSAGE probability step
    // used to pay Gustavson prices for.  Column filter: per-batch masked
    // extraction vs the hypersparse CSC selection SpGEMM of §8.2.2.
    let gathered_nnz = serial_p.nnz();
    let mut extract_records = Vec::new();
    for &t in &threads {
        let par = Parallelism::new(t);
        let (gather_wall, gathered) =
            time_best(reps, || extract_rows(&a, &stacked, par).expect("extract_rows"));
        let (spgemm_wall, via_spgemm) =
            time_best(reps, || spgemm_parallel(&q, &a, par).expect("spgemm_parallel"));
        extract_records.push(ExtractRecord {
            kernel: "row_gather",
            threads: t,
            wall_s: gather_wall,
            spgemm_wall_s: spgemm_wall,
            items: gathered_nnz,
            identical: gathered == via_spgemm && gathered == serial_p,
        });
    }
    // Column extraction on LADIES-shaped per-batch blocks: k blocks of
    // `batch_size` gathered rows, each filtered down to `s` sampled columns.
    let col_k = num_batches;
    let col_s = if smoke { 64 } else { 512 };
    let block_rows = batch_size;
    let blocks: Vec<CsrMatrix> = (0..col_k)
        .map(|i| {
            let rows: Vec<usize> = (0..block_rows).map(|j| (i * block_rows + j * 13) % n).collect();
            extract_rows(&a, &rows, Parallelism::serial()).expect("block gather")
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
    let (mask_wall, masked) = time_best(reps, || {
        blocks
            .iter()
            .zip(&col_lists)
            .map(|(block, cols)| extract_columns_masked(block, cols).expect("masked filter"))
            .collect::<Vec<_>>()
    });
    let (csc_wall, via_csc) = time_best(reps, || {
        blocks
            .iter()
            .zip(&col_lists)
            .map(|(block, cols)| {
                CscMatrix::selection(n, cols).left_multiply(block).expect("csc spgemm")
            })
            .collect::<Vec<_>>()
    });
    extract_records.push(ExtractRecord {
        kernel: "column_mask",
        threads: 1,
        wall_s: mask_wall,
        spgemm_wall_s: csc_wall,
        items: filter_nnz,
        identical: masked == via_csc,
    });
    let workload = Workload {
        name: "extract",
        detail: format!(
            "row gather of {q_rows} frontier rows (nnz = {gathered_nnz}) + masked column \
             filter of {col_k} blocks of {block_rows} rows down to {col_s} columns (nnz in = \
             {filter_nnz}), vs the selection-matrix SpGEMM formulation, rmat scale {scale} \
             deg {degree}"
        ),
        items: gathered_nnz + filter_nnz,
        throughput_unit: "nnz/s",
    };
    print_extract_records("Extraction kernels vs SpGEMM formulation", &extract_records);
    write_extract_json(&out_dir.join("BENCH_extract.json"), &workload, &extract_records);
    for r in &extract_records {
        assert!(
            r.identical,
            "extract: {} at {} threads diverged from the SpGEMM formulation",
            r.kernel, r.threads
        );
    }

    // ---- Per-row ITS over the normalized probability rows.
    let mut p_norm = serial_p.clone();
    p_norm.normalize_rows();
    let fanout = 10;
    let its_serial = sample_rows_seeded(&p_norm, fanout, 4242).expect("its");
    let mut walls = Vec::new();
    for &t in &threads {
        let par = Parallelism::new(t);
        let (wall, sampled) =
            time_best(reps, || sample_rows_par(&p_norm, fanout, 4242, par).expect("its par"));
        walls.push((t, wall, sampled == its_serial, Vec::new()));
    }
    let records = finish_records(&walls, |wall| p_norm.rows() as f64 / wall);
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
    print_records("Per-row ITS", "rows/s", &records);
    write_json(&out_dir.join("BENCH_its.json"), &workload, &records);
    assert_identical("its", &records);

    // ---- Bulk epochs through LocalBackend: GraphSAGE and the full LADIES
    // pipeline (probability SpGEMM → ITS → gather + masked column filter),
    // with extraction attributed to its own PhaseProfile phase.
    let batches: Vec<Vec<usize>> = (0..num_batches)
        .map(|i| (0..batch_size).map(|j| (i * batch_size + j * 7) % n).collect())
        .collect();
    let run_epoch = |sampler: &dyn SamplerEpoch, t: usize| {
        let backend = LocalBackend::new(BulkSamplerConfig::new(batch_size, 4))
            .expect("valid bulk config")
            .with_parallelism(Parallelism::new(t));
        sampler.epoch(&backend, &a, &batches)
    };

    let sage = GraphSageSampler::new(if smoke { vec![5, 5] } else { vec![15, 10, 5] });
    let ladies = LadiesSampler::new(if smoke { 2 } else { 3 }, if smoke { 64 } else { 512 });
    for (file, title, name, sampler) in [
        (
            "BENCH_epoch.json",
            "Bulk sampling epoch (GraphSAGE)",
            "bulk_epoch",
            &sage as &dyn SamplerEpoch,
        ),
        (
            "BENCH_ladies_epoch.json",
            "Bulk sampling epoch (LADIES)",
            "ladies_bulk_epoch",
            &ladies as &dyn SamplerEpoch,
        ),
    ] {
        let epoch_serial = run_epoch(sampler, 1);
        let mut walls = Vec::new();
        for &t in &threads {
            let (wall, epoch) = time_best(reps, || run_epoch(sampler, t));
            let identical = epoch.0 == epoch_serial.0;
            walls.push((t, wall, identical, phase_breakdown(&epoch.1)));
        }
        let records = finish_records(&walls, |wall| num_batches as f64 / wall);
        let workload = Workload {
            name,
            detail: format!(
                "{} bulk epoch via LocalBackend: {num_batches} batches of {batch_size} on \
                 rmat scale {scale} (bulk k = 4)",
                sampler.describe()
            ),
            items: num_batches,
            throughput_unit: "minibatches/s",
        };
        print_records(title, "batches/s", &records);
        write_json(&out_dir.join(file), &workload, &records);
        assert_identical(name, &records);
    }

    println!(
        "\nAll kernels byte-identical to their reference formulations; records written to {}",
        out_dir.display()
    );
}

/// The `--fetch` sweep: the feature-fetching phase of one bulk-sampled epoch
/// across grid shapes, cache-off vs epoch-pinned vs LRU, asserting that every
/// cached run returns byte-identical rows, moves no more all-to-allv words
/// than the uncached baseline, and that `sent + saved == uncached` (the α–β
/// books balance).  Writes `BENCH_fetch.json`.
fn run_fetch_sweep(smoke: bool, out_dir: &std::path::Path) {
    // (rmat scale, rmat degree, feature dim, batch size, batches, fanouts)
    let (scale, degree, f, batch_size, num_batches, fanouts) =
        if smoke { (8, 8, 16, 64, 8, vec![5, 5]) } else { (12, 12, 64, 256, 16, vec![10, 5]) };
    let shapes: &[(usize, usize)] =
        if smoke { &[(2, 1), (2, 2), (4, 2)] } else { &[(4, 1), (4, 2), (4, 4), (8, 2), (8, 4)] };
    if smoke {
        println!("fetch smoke mode: tiny workload, full shape sweep + identity checks");
    }

    let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
        .expect("valid RMAT config");
    let a = graph.adjacency().clone();
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
    // One bulk-sampled epoch, shared by every shape: the fetch phase is what
    // varies, not the samples.
    let sampler = GraphSageSampler::new(fanouts.clone());
    let backend = LocalBackend::new(BulkSamplerConfig::new(batch_size, 4)).expect("bulk config");
    let epoch = backend.sample_epoch(&sampler, &a, &batches, 7).expect("epoch");
    let minibatches = epoch.output.minibatches;
    let plan = FetchPlan::from_minibatches(&minibatches);
    println!(
        "epoch frontier: {} raw input-vertex requests, {} unique ({} duplicates, ≤ {} words \
         avoidable at f = {f})",
        plan.total_requests(),
        plan.unique_len(),
        plan.duplicate_requests(),
        plan.words_avoided_upper_bound(f)
    );

    let mut records = Vec::new();
    for &(p, c) in shapes {
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
        let reps = if smoke { 1 } else { 3 };
        let (base_wall, (base_rows, base_words, base_msgs, ..)) = time_best(reps, || {
            run_fetch_epoch(&runtime, &h, &minibatches, c, FeatureCacheConfig::Off)
        });
        records.push(FetchRecord {
            p,
            c,
            mode: "uncached",
            wall_s: base_wall,
            words_per_epoch: base_words,
            messages: base_msgs,
            cache_hits: 0,
            cache_misses: 0,
            words_saved: 0,
            reduction_vs_uncached: 1.0,
            identical: true,
        });
        let lru_budget = n * f * std::mem::size_of::<f64>() / 4; // a quarter of H
        for (mode, label) in [
            (FeatureCacheConfig::EpochPinned, "pinned"),
            (FeatureCacheConfig::Lru { byte_budget: lru_budget }, "lru"),
        ] {
            let (wall, (rows, words, msgs, hits, misses, saved)) =
                time_best(reps, || run_fetch_epoch(&runtime, &h, &minibatches, c, mode));
            let identical = rows == base_rows;
            assert!(identical, "p={p} c={c} {label}: cached fetch diverged from uncached");
            assert!(
                words <= base_words,
                "p={p} c={c} {label}: cache moved more words ({words} > {base_words})"
            );
            assert_eq!(
                words + saved,
                base_words,
                "p={p} c={c} {label}: sent + saved must equal the uncached bill"
            );
            records.push(FetchRecord {
                p,
                c,
                mode: label,
                wall_s: wall,
                words_per_epoch: words,
                messages: msgs,
                cache_hits: hits,
                cache_misses: misses,
                words_saved: saved,
                // A fully-replicated shape moves zero words either way.
                reduction_vs_uncached: if base_words == 0 {
                    1.0
                } else {
                    base_words as f64 / words.max(1) as f64
                },
                identical,
            });
        }
    }

    let workload = Workload {
        name: "fetch_epoch",
        detail: format!(
            "feature-fetch phase of one GraphSAGE {fanouts:?} bulk epoch ({num_batches} batches \
             of {batch_size}, f = {f}) on rmat scale {scale} deg {degree}; \
             {} raw requests, {} unique",
            plan.total_requests(),
            plan.unique_len()
        ),
        items: plan.total_requests(),
        throughput_unit: "requests/epoch",
    };
    print_fetch_records(&records);
    write_fetch_json(&out_dir.join("BENCH_fetch.json"), &workload, &records);
    println!("\nAll cached fetches byte-identical to the uncached all-to-allv baseline.");
}

/// One measured (grid shape × codec) configuration of the wire-compression
/// sweep.  `mode` distinguishes the standalone feature-fetch replay
/// (`"fetch"`) from the small end-to-end training run (`"train"`).
struct CompressRecord {
    p: usize,
    c: usize,
    mode: &'static str,
    codec: &'static str,
    wall_s: f64,
    /// All-to-allv words this run moved (all ranks) — codec-independent by
    /// contract, so the CI gate pins it exactly.
    words_per_epoch: usize,
    messages: usize,
    /// Bytes the codec actually put on the wire (all ranks).
    bytes_on_wire: usize,
    /// Bytes avoided vs the exact encoding; by construction
    /// `bytes_on_wire + bytes_saved == bytes_on_wire(exact)`.
    bytes_saved: usize,
    /// `⌊1000 · bytes_on_wire(exact) / bytes_on_wire⌋` — an integer so the
    /// CI gate compares it exactly (1000 ⇔ 1.0×).
    bytes_reduction_x1000: usize,
    /// Worst `|decoded − exact|` over every fetched row (fetch rows only;
    /// NaN → null on train rows).
    max_abs_err: f64,
    /// Final-epoch mean loss (train rows only; NaN → null on fetch rows).
    final_loss: f64,
    /// `|final_loss − final_loss(exact)|` (train rows only).
    loss_delta_vs_exact: f64,
    /// Codecs change byte encodings, never the schedule: same words and
    /// messages as the exact run.
    identical_to_exact_schedule: bool,
}

fn write_compress_json(path: &std::path::Path, workload: &Workload, records: &[CompressRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"mode\": \"{}\", \"codec\": \"{}\", \"wall_s\": {}, \
             \"words_per_epoch\": {}, \"messages\": {}, \"bytes_on_wire\": {}, \
             \"bytes_saved\": {}, \"bytes_reduction_x1000\": {}, \"max_abs_err\": {}, \
             \"final_loss\": {}, \"loss_delta_vs_exact\": {}, \
             \"identical_to_exact_schedule\": {}}}{}\n",
            r.p,
            r.c,
            r.mode,
            r.codec,
            json_f64(r.wall_s),
            r.words_per_epoch,
            r.messages,
            r.bytes_on_wire,
            r.bytes_saved,
            r.bytes_reduction_x1000,
            json_f64(r.max_abs_err),
            json_f64(r.final_loss),
            json_f64(r.loss_delta_vs_exact),
            r.identical_to_exact_schedule,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_compress_records(records: &[CompressRecord]) {
    println!("\n== Wire compression: bytes on the feature and gradient lanes ==");
    println!(
        "{:>3} {:>3} {:>5} {:>6}  {:>12}  {:>12}  {:>12}  {:>9}  {:>8}  identical",
        "p", "c", "mode", "codec", "words/epoch", "bytes_wire", "bytes_saved", "reduction", "loss"
    );
    for r in records {
        let loss =
            if r.final_loss.is_nan() { "-".to_string() } else { format!("{:.4}", r.final_loss) };
        println!(
            "{:>3} {:>3} {:>5} {:>6}  {:>12}  {:>12}  {:>12}  {:>8.2}x  {:>8}  {}",
            r.p,
            r.c,
            r.mode,
            r.codec,
            r.words_per_epoch,
            r.bytes_on_wire,
            r.bytes_saved,
            r.bytes_reduction_x1000 as f64 / 1000.0,
            loss,
            r.identical_to_exact_schedule
        );
    }
}

/// The fetch epoch of [`run_fetch_epoch`], cache off, with the feature rows
/// travelling under `codec`.  Returns per-rank fetched rows plus the summed
/// word, message and byte books.
#[allow(clippy::type_complexity)]
fn run_compress_epoch(
    runtime: &Runtime,
    h: &DenseMatrix,
    minibatches: &[MinibatchSample],
    c: usize,
    codec: Codec,
) -> (Vec<Vec<DenseMatrix>>, usize, usize, usize, usize) {
    let p = runtime.size();
    let steps = minibatches.len().div_ceil(p);
    let outs = runtime
        .run(|comm| {
            let rank = comm.rank();
            let grid = ProcessGrid::new(p, c).expect("valid grid");
            let (my_row, _) = grid.coords(rank);
            let store =
                FeatureStore::from_full(h, grid.rows(), my_row).expect("store").with_codec(codec);
            let group = Group::new(&grid.col_ranks(rank)).expect("group");
            let my_mbs: Vec<&MinibatchSample> = minibatches.iter().skip(rank).step_by(p).collect();
            let mut fetched = Vec::with_capacity(my_mbs.len());
            for step in 0..steps {
                let wanted: Vec<usize> =
                    my_mbs.get(step).map(|mb| mb.input_vertices().to_vec()).unwrap_or_default();
                let rows = store.fetch(comm, &group, &wanted).expect("fetch");
                if step < my_mbs.len() {
                    fetched.push(rows);
                }
            }
            fetched
        })
        .expect("compress epoch");
    let mut per_rank = Vec::with_capacity(outs.len());
    let (mut words, mut messages, mut bytes, mut saved) = (0, 0, 0, 0);
    for o in outs {
        words += o.stats.words_sent;
        messages += o.stats.messages;
        bytes += o.stats.bytes_on_wire;
        saved += o.stats.bytes_saved;
        per_rank.push(o.value);
    }
    (per_rank, words, messages, bytes, saved)
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
/// exact.  Writes `BENCH_compress.json`.
fn run_compress_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_gnn::{TrainingReport, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{DistConfig, ReplicatedBackend};
    use std::sync::Arc;

    // The --fetch workload family, pinned at f = 16 so the per-row framing
    // (tag + scale byte for int8) is amortized the way real feature widths
    // amortize it.
    let (scale, degree, f, batch_size, num_batches, fanouts) =
        if smoke { (8, 8, 16, 64, 8, vec![5, 5]) } else { (12, 12, 16, 256, 16, vec![10, 5]) };
    let shapes: &[(usize, usize)] =
        if smoke { &[(2, 1), (2, 2), (4, 2)] } else { &[(4, 1), (4, 2), (4, 4), (8, 2), (8, 4)] };
    if smoke {
        println!("compress smoke mode: tiny workload, full shape × codec sweep + byte books");
    }

    let graph = rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(99))
        .expect("valid RMAT config");
    let a = graph.adjacency().clone();
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
    let epoch = backend.sample_epoch(&sampler, &a, &batches, 7).expect("epoch");
    let minibatches = epoch.output.minibatches;
    let plan = FetchPlan::from_minibatches(&minibatches);

    let mut records = Vec::new();
    for &(p, c) in shapes {
        let runtime = Runtime::new(p).expect("runtime");
        let reps = if smoke { 1 } else { 3 };
        let (exact_wall, (exact_rows, exact_words, exact_msgs, exact_bytes, exact_saved)) =
            time_best(reps, || run_compress_epoch(&runtime, &h, &minibatches, c, Codec::Exact));
        assert_eq!(
            exact_bytes,
            exact_words * 8,
            "p={p} c={c}: the exact codec must bill exactly 8 bytes per word"
        );
        assert_eq!(exact_saved, 0, "p={p} c={c}: the exact codec saved bytes out of thin air");
        records.push(CompressRecord {
            p,
            c,
            mode: "fetch",
            codec: Codec::Exact.name(),
            wall_s: exact_wall,
            words_per_epoch: exact_words,
            messages: exact_msgs,
            bytes_on_wire: exact_bytes,
            bytes_saved: 0,
            bytes_reduction_x1000: 1000,
            max_abs_err: 0.0,
            final_loss: f64::NAN,
            loss_delta_vs_exact: f64::NAN,
            identical_to_exact_schedule: true,
        });
        for codec in [Codec::Fp16, Codec::Int8] {
            let (wall, (rows, words, msgs, bytes, saved)) =
                time_best(reps, || run_compress_epoch(&runtime, &h, &minibatches, c, codec));
            let label = format!("p={p} c={c} {codec}");
            let identical = words == exact_words && msgs == exact_msgs;
            assert!(identical, "{label}: the codec changed the communication schedule");
            assert_eq!(bytes + saved, exact_bytes, "{label}: byte books do not balance");
            // A byte-free shape (fully replicated) reduces nothing: 1.0×.
            let reduction_x1000 = (exact_bytes * 1000).checked_div(bytes).unwrap_or(1000);
            if p > c {
                // Fully-replicated shapes (p == c) serve every fetch locally,
                // so there are no wire bytes to shrink.
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
            records.push(CompressRecord {
                p,
                c,
                mode: "fetch",
                codec: codec.name(),
                wall_s: wall,
                words_per_epoch: words,
                messages: msgs,
                bytes_on_wire: bytes,
                bytes_saved: saved,
                bytes_reduction_x1000: reduction_x1000,
                max_abs_err: max_err,
                final_loss: f64::NAN,
                loss_delta_vs_exact: f64::NAN,
                identical_to_exact_schedule: identical,
            });
        }
    }

    // One small end-to-end training run per codec: the loss trajectory must
    // survive quantized feature lanes, and the byte books must flow through
    // the session's per-epoch deltas (not just the standalone fetch path).
    let (tp, tc) = if smoke { (2, 1) } else { (4, 2) };
    let mut cfg = DatasetConfig::products_like(if smoke { 6 } else { 8 });
    cfg.feature_dim = f;
    cfg.num_classes = 3;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(17)).expect("dataset"));
    let train = |codec: Codec| -> (f64, TrainingReport) {
        let dist = DistConfig::new(tp, tc, BulkSamplerConfig::new(if smoke { 8 } else { 16 }, 2));
        let backend = ReplicatedBackend::new(dist).expect("backend");
        let session = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![4, 3]).with_self_loops())
            .backend(backend)
            .hidden_dim(16)
            .learning_rate(0.05)
            .epochs(2)
            .seed(23)
            .wire_codec(codec)
            .without_evaluation()
            .build()
            .expect("session");
        let start = Instant::now();
        let report = session.train().expect("training");
        (start.elapsed().as_secs_f64(), report)
    };
    let book = |r: &TrainingReport| -> (usize, usize, usize, usize) {
        (
            r.epochs.iter().map(|e| e.comm.words_sent).sum(),
            r.epochs.iter().map(|e| e.comm.messages).sum(),
            r.epochs.iter().map(|e| e.comm.bytes_on_wire).sum(),
            r.epochs.iter().map(|e| e.comm.bytes_saved).sum(),
        )
    };
    let final_loss = |r: &TrainingReport| r.epochs.last().expect("epochs").mean_loss;
    let (exact_train_wall, exact_train) = train(Codec::Exact);
    let (ew, em, eb, es) = book(&exact_train);
    assert_eq!(eb, ew * 8, "train exact: bytes must be 8 · words");
    assert_eq!(es, 0, "train exact: nothing to save under the exact codec");
    records.push(CompressRecord {
        p: tp,
        c: tc,
        mode: "train",
        codec: Codec::Exact.name(),
        wall_s: exact_train_wall,
        words_per_epoch: ew,
        messages: em,
        bytes_on_wire: eb,
        bytes_saved: 0,
        bytes_reduction_x1000: 1000,
        max_abs_err: f64::NAN,
        final_loss: final_loss(&exact_train),
        loss_delta_vs_exact: 0.0,
        identical_to_exact_schedule: true,
    });
    for codec in [Codec::Fp16, Codec::Int8] {
        let (wall, report) = train(codec);
        let (w, m, b, s) = book(&report);
        let label = format!("train p={tp} c={tc} {codec}");
        assert_eq!(w, ew, "{label}: words diverged from exact");
        assert_eq!(m, em, "{label}: messages diverged from exact");
        assert_eq!(b + s, eb, "{label}: training byte books do not balance");
        // Both presets pick tp > tc, so the feature lanes carry real bytes.
        assert!(b < eb, "{label}: the codec did not shrink the training wire");
        let loss = final_loss(&report);
        let delta = (loss - final_loss(&exact_train)).abs();
        assert!(
            delta < 0.25,
            "{label}: final loss {loss:.4} drifted {delta:.4} from exact — quantization broke \
             training"
        );
        records.push(CompressRecord {
            p: tp,
            c: tc,
            mode: "train",
            codec: codec.name(),
            wall_s: wall,
            words_per_epoch: w,
            messages: m,
            bytes_on_wire: b,
            bytes_saved: s,
            bytes_reduction_x1000: eb * 1000 / b,
            max_abs_err: f64::NAN,
            final_loss: loss,
            loss_delta_vs_exact: delta,
            identical_to_exact_schedule: true,
        });
    }

    let workload = Workload {
        name: "compress_fetch",
        detail: format!(
            "feature-fetch phase of one GraphSAGE {fanouts:?} bulk epoch ({num_batches} batches \
             of {batch_size}, f = {f}) on rmat scale {scale} deg {degree}, replayed under every \
             wire codec; plus one {tp}x{tc} products-like training run per codec; {} raw \
             requests, {} unique",
            plan.total_requests(),
            plan.unique_len()
        ),
        items: plan.total_requests(),
        throughput_unit: "requests/epoch",
    };
    print_compress_records(&records);
    write_compress_json(&out_dir.join("BENCH_compress.json"), &workload, &records);
    println!(
        "\nAll codecs kept the schedule bit-identical; every byte book balanced \
         (bytes_on_wire + bytes_saved == exact bill)."
    );
}

/// One measured (grid shape × schedule) configuration of the overlap sweep.
struct OverlapRecord {
    p: usize,
    c: usize,
    /// `"sync"` or `"overlap"`.
    mode: &'static str,
    /// Measured wall seconds of the whole training run.
    wall_s: f64,
    /// Serial-schedule epoch seconds of this run (compute + full α–β bill),
    /// summed over epochs — identical in expectation between the two
    /// schedules, but carries this run's compute-measurement noise.
    serial_epoch_s: f64,
    /// Epoch seconds the schedule pays, charged from the *sync run's*
    /// measured compute baseline: `sync serial` for the sync row,
    /// `sync serial - overlapped_s` for the overlap row.  Both schedules
    /// execute bit-identical compute and identical α–β bills, so the common
    /// baseline isolates the schedule effect from machine noise.
    modeled_epoch_s: f64,
    /// Modeled communication seconds hidden behind compute, summed.
    overlapped_s: f64,
    /// `overlapped_s / total modeled comm` — how much of the α–β bill hid.
    overlap_fraction: f64,
    /// All-to-allv + allreduce words over the whole run (all ranks) —
    /// byte-identical between schedules by contract.
    words_total: usize,
    messages: usize,
    /// Losses bit-identical and words equal to the synchronous schedule.
    identical_to_sync: bool,
}

fn write_overlap_json(path: &std::path::Path, workload: &Workload, records: &[OverlapRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"mode\": \"{}\", \"wall_s\": {}, \
             \"serial_epoch_s\": {}, \"modeled_epoch_s\": {}, \"overlapped_s\": {}, \
             \"overlap_fraction\": {}, \"words_total\": {}, \"messages\": {}, \
             \"identical_to_sync\": {}}}{}\n",
            r.p,
            r.c,
            r.mode,
            json_f64(r.wall_s),
            json_f64(r.serial_epoch_s),
            json_f64(r.modeled_epoch_s),
            json_f64(r.overlapped_s),
            json_f64(r.overlap_fraction),
            r.words_total,
            r.messages,
            r.identical_to_sync,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_overlap_records(records: &[OverlapRecord]) {
    println!("\n== Overlapped pipeline: modeled epoch seconds, sync vs overlap ==");
    println!(
        "{:>3} {:>3} {:>8}  {:>13}  {:>13}  {:>11}  {:>9}  {:>11}  {:>9}  identical",
        "p", "c", "mode", "serial_s", "modeled_s", "hidden_s", "hidden_%", "words", "messages"
    );
    for r in records {
        println!(
            "{:>3} {:>3} {:>8}  {:>13.6}  {:>13.6}  {:>11.6}  {:>8.1}%  {:>11}  {:>9}  {}",
            r.p,
            r.c,
            r.mode,
            r.serial_epoch_s,
            r.modeled_epoch_s,
            r.overlapped_s,
            r.overlap_fraction * 100.0,
            r.words_total,
            r.messages,
            r.identical_to_sync
        );
    }
}

/// The `--overlap` sweep: distributed training (replicated backend, pinned
/// feature cache) across grid shapes, synchronous vs software-pipelined
/// schedule, asserting that the pipeline is pure schedule — bit-identical
/// losses, identical words/messages — while the modeled epoch seconds drop
/// by exactly the overlapped (hidden) α–β time.  Writes `BENCH_overlap.json`.
///
/// The cost model is deliberately coarse (`α = 200 µs`, `β = 50 ns/word` —
/// a WAN-ish stress model) so the communication bill is visible next to the
/// tiny CPU workload; the *fractions* are what the trajectory tracks.
fn run_overlap_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_gnn::{FeatureCacheConfig as CacheMode, TrainingReport, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{DistConfig, ReplicatedBackend};
    use std::sync::Arc;

    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (scale, feature_dim, epochs) = if smoke { (7, 16, 2) } else { (9, 32, 3) };
    if smoke {
        println!("overlap smoke mode: tiny workload, full shape sweep + identity checks");
    }
    let cost = dmbs_comm::CostModel::new(2.0e-4, 5.0e-8);

    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = 4;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(5)).expect("dataset"));
    // Enough bulk groups per epoch (≥ 2) that the pipeline has stages to
    // hoist: batch = train/8, bulk k = 2 → 4 groups.
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let train = |p: usize, c: usize, overlap: bool| -> (TrainingReport, f64) {
        let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
        let runtime = Runtime::with_cost_model(p, cost).expect("runtime");
        let backend = ReplicatedBackend::with_runtime(runtime, dist).expect("backend");
        let session = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
            .backend(backend)
            .hidden_dim(32)
            .learning_rate(0.05)
            .epochs(epochs)
            .seed(42)
            .feature_cache(CacheMode::EpochPinned)
            .overlap(overlap)
            .without_evaluation()
            .build()
            .expect("session");
        let start = Instant::now();
        let report = session.train().expect("training");
        (report, start.elapsed().as_secs_f64())
    };

    let mut records = Vec::new();
    for &(p, c) in shapes {
        let (sync, sync_wall) = train(p, c, false);
        let (pipelined, overlap_wall) = train(p, c, true);

        // All seconds are critical-path (max across ranks, the
        // bulk-synchronous epoch time); words/messages are summed across
        // ranks (the wire bill).
        let summarize = |r: &TrainingReport| {
            let serial: f64 = r.epochs.iter().map(|e| e.total_time()).sum();
            let modeled: f64 = r.epochs.iter().map(|e| e.modeled_epoch_seconds()).sum();
            let hidden: f64 = r.epochs.iter().map(|e| e.overlapped_time()).sum();
            let comm: f64 = r.epochs.iter().map(|e| e.profile.total_comm()).sum();
            let words: usize = r.epochs.iter().map(|e| e.comm.words_sent).sum();
            let messages: usize = r.epochs.iter().map(|e| e.comm.messages).sum();
            (serial, modeled, hidden, comm, words, messages)
        };
        let (s_serial, _s_modeled, s_hidden, _s_comm, s_words, s_messages) = summarize(&sync);
        let (o_serial, o_modeled, o_hidden, o_comm, o_words, o_messages) = summarize(&pipelined);

        // The overlap contract, asserted on every shape: pure schedule.
        let losses_identical = sync
            .epochs
            .iter()
            .zip(&pipelined.epochs)
            .all(|(a, b)| a.mean_loss.to_bits() == b.mean_loss.to_bits());
        assert!(losses_identical, "p={p} c={c}: overlap changed the losses");
        assert_eq!(o_words, s_words, "p={p} c={c}: overlap changed the word count");
        assert_eq!(o_messages, s_messages, "p={p} c={c}: overlap changed the message count");
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
        records.push(OverlapRecord {
            p,
            c,
            mode: "sync",
            wall_s: sync_wall,
            serial_epoch_s: s_serial,
            modeled_epoch_s: s_serial,
            overlapped_s: s_hidden,
            overlap_fraction: 0.0,
            words_total: s_words,
            messages: s_messages,
            identical_to_sync: true,
        });
        records.push(OverlapRecord {
            p,
            c,
            mode: "overlap",
            wall_s: overlap_wall,
            serial_epoch_s: o_serial,
            modeled_epoch_s: s_serial - o_hidden,
            overlapped_s: o_hidden,
            overlap_fraction: if o_comm > 0.0 { o_hidden / o_comm } else { 0.0 },
            words_total: o_words,
            messages: o_messages,
            identical_to_sync: losses_identical && o_words == s_words,
        });
    }

    let workload = Workload {
        name: "overlap_epoch",
        detail: format!(
            "distributed GraphSAGE [10, 5] training, replicated backend + EpochPinned cache, \
             sync vs software-pipelined schedule; products-like scale {scale} (f = \
             {feature_dim}, batch {batch_size}, bulk k = 2, {epochs} epochs), stress cost \
             model alpha = {:.1e}s beta = {:.1e}s/word",
            cost.alpha, cost.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    print_overlap_records(&records);
    write_overlap_json(&out_dir.join("BENCH_overlap.json"), &workload, &records);
    println!("\nOverlapped schedule byte-identical to synchronous; α–β bill partially hidden.");
}

/// One row of the auto-tuner sweep: the default schedule, the tuner's
/// lossless arg-min (`"chosen"` — what `builder().auto()` applies), or the
/// lossy-admitted arg-min (`"chosen_lossy"`) at one grid shape.  The chosen
/// rows' knobs are part of the record key (`policy` = cache mode, `codec`),
/// so any drift in the tuner's choice hard-fails the CI check as a missing
/// record.
struct AutotuneRecord {
    p: usize,
    c: usize,
    /// `"default"`, `"chosen"` or `"chosen_lossy"`.
    mode: &'static str,
    /// Cache mode of this row's schedule (`"off"` / `"pinned"` / `"lru"`).
    policy: &'static str,
    /// Wire codec of this row's schedule.
    codec: &'static str,
    /// `1` when this row's schedule overlaps communication with compute.
    overlap_on: usize,
    /// Valid candidates this row's grid enumerated (lossless grid for the
    /// default/chosen rows, lossy-admitted grid for the chosen_lossy row).
    candidates: usize,
    /// Predicted per-epoch words on the wire (all ranks) — exact.
    predicted_words: usize,
    /// Predicted per-epoch bytes on the wire (all ranks) — exact.
    predicted_bytes_on_wire: usize,
    /// Predicted per-rank α–β communication seconds per epoch, as integer
    /// nanoseconds — a pure function of the deterministic probe books.
    predicted_comm_ns: u64,
    /// Predicted effective epoch seconds (probed compute + predicted comm −
    /// overlap credit) — carries measured-compute noise, soft-gated.
    predicted_epoch_s: f64,
    /// Realized effective epoch seconds, charged from the *default run's*
    /// measured compute baseline plus this run's own modeled comm minus its
    /// hidden seconds — same common-baseline discipline as the overlap
    /// sweep, so the committed trajectory isolates the schedule effect.
    realized_epoch_s: f64,
    /// Realized words / messages / bytes over the whole run (all ranks).
    words_total: usize,
    messages: usize,
    bytes_on_wire: usize,
    /// Measured wall seconds of the whole realized training run.
    wall_s: f64,
    /// Per-shape fact stamped on every row of the shape:
    /// `builder().auto()` picked this shape's `chosen` schedule and trained
    /// bit-identically to the explicit configuration.
    identical_to_builder_auto: bool,
}

fn write_autotune_json(path: &std::path::Path, workload: &Workload, records: &[AutotuneRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"mode\": \"{}\", \"policy\": \"{}\", \
             \"codec\": \"{}\", \"overlap_on\": {}, \"candidates\": {}, \
             \"predicted_words\": {}, \"predicted_bytes_on_wire\": {}, \
             \"predicted_comm_ns\": {}, \"predicted_epoch_s\": {}, \
             \"realized_epoch_s\": {}, \"words_total\": {}, \"messages\": {}, \
             \"bytes_on_wire\": {}, \"wall_s\": {}, \
             \"identical_to_builder_auto\": {}}}{}\n",
            r.p,
            r.c,
            r.mode,
            r.policy,
            r.codec,
            r.overlap_on,
            r.candidates,
            r.predicted_words,
            r.predicted_bytes_on_wire,
            r.predicted_comm_ns,
            json_f64(r.predicted_epoch_s),
            json_f64(r.realized_epoch_s),
            r.words_total,
            r.messages,
            r.bytes_on_wire,
            json_f64(r.wall_s),
            r.identical_to_builder_auto,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_autotune_records(records: &[AutotuneRecord]) {
    println!("\n== Auto-tuner: predicted vs realized epoch seconds, default vs chosen ==");
    println!(
        "{:>3} {:>3} {:>13} {:>7} {:>6} {:>4} {:>5}  {:>11}  {:>11}  {:>12}  {:>12}  auto",
        "p",
        "c",
        "mode",
        "cache",
        "codec",
        "ovl",
        "cand",
        "pred_words",
        "words",
        "pred_s/ep",
        "real_s/ep"
    );
    for r in records {
        println!(
            "{:>3} {:>3} {:>13} {:>7} {:>6} {:>4} {:>5}  {:>11}  {:>11}  {:>12.6}  {:>12.6}  {}",
            r.p,
            r.c,
            r.mode,
            r.policy,
            r.codec,
            if r.overlap_on == 1 { "on" } else { "off" },
            r.candidates,
            r.predicted_words,
            r.words_total,
            r.predicted_epoch_s,
            r.realized_epoch_s,
            r.identical_to_builder_auto
        );
    }
}

/// The `--autotune` sweep: per grid shape, run the tuner's probe epochs, fit
/// the [`dmbs_comm::tune::TuningModel`], search the lossless grid (exactly
/// what `builder().auto()` does) and the lossy-admitted grid, then *realize*
/// the default, chosen, and lossy-chosen schedules with full training runs —
/// asserting that the chosen schedules' realized effective epoch seconds
/// never exceed the default's, that the chosen run's epoch-0 books equal the
/// prediction counter-for-counter, and that `builder().auto()` reproduces
/// the offline search bit-identically.  Writes `BENCH_autotune.json`.
///
/// Same WAN-ish stress cost model as the overlap sweep (`α = 200 µs`,
/// `β = 50 ns/word`) so the schedule knobs are load-bearing next to the tiny
/// CPU workload.
fn run_autotune_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_comm::tune::{self, ProbeEpoch, ProbeSet, Schedule, TuningGrid, TuningModel};
    use dmbs_gnn::{FeatureCacheConfig as CacheMode, TrainingReport, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{DistConfig, ReplicatedBackend};
    use std::sync::Arc;

    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (scale, feature_dim, epochs) = if smoke { (7, 16, 2) } else { (9, 32, 3) };
    if smoke {
        println!("autotune smoke mode: tiny workload, full shape sweep + identity checks");
    }
    let cost = dmbs_comm::CostModel::new(2.0e-4, 5.0e-8);
    // Budget for the LRU candidates the lossy grid enumerates (the tuner
    // scores them pessimistically; they document the knob, they never win).
    let lru_budget = 1usize << 16;

    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = 4;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(5)).expect("dataset"));
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let builder = |p: usize, c: usize| {
        let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
        let runtime = Runtime::with_cost_model(p, cost).expect("runtime");
        let backend = ReplicatedBackend::with_runtime(runtime, dist).expect("backend");
        TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
            .backend(backend)
            .hidden_dim(32)
            .learning_rate(0.05)
            .epochs(epochs)
            .seed(42)
            .without_evaluation()
    };
    let train = |p: usize, c: usize, choice: &Schedule, n_epochs: usize| -> (TrainingReport, f64) {
        let session = builder(p, c)
            .epochs(n_epochs)
            .feature_cache(choice.cache)
            .wire_codec(choice.codec)
            .overlap(choice.overlap)
            .build()
            .expect("session");
        let start = Instant::now();
        let report = session.train().expect("training");
        (report, start.elapsed().as_secs_f64())
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
        let pinned = Schedule { cache: CacheMode::EpochPinned, ..Schedule::default() };
        let probes = ProbeSet {
            baseline: probe(Schedule::default()),
            pinned: probe(pinned),
            fp16: Some(probe(Schedule { codec: Codec::Fp16, ..pinned })),
            int8: Some(probe(Schedule { codec: Codec::Int8, ..pinned })),
            overlapped: (c > 1).then(|| probe(Schedule { overlap: true, ..pinned })),
        };
        let model = TuningModel::fit(cost, p, probes).expect("probe books must balance");

        // Search: the lossless grid is exactly `builder().auto()`'s; the
        // lossy-admitted grid additionally enumerates fp16/int8 and LRU.
        let lossless_grid = TuningGrid::new(p, c).expect("shape");
        let lossy_grid =
            TuningGrid::new(p, c).expect("shape").with_lru_budget(lru_budget).with_lossy(true);
        let lossless = tune::search(&model, &lossless_grid);
        let lossy = tune::search(&model, &lossy_grid);
        assert_eq!(
            lossless.scored[0].choice,
            Schedule::default(),
            "p={p} c={c}: candidate 0 must be the default schedule"
        );
        let default_pred = &lossless.scored[0];
        let chosen_pred = lossless.chosen();
        let lossy_pred = lossy.chosen();

        // Realize: full-length training of the three schedules.
        let (default_report, default_wall) = train(p, c, &default_pred.choice, epochs);
        let (chosen_report, chosen_wall) = train(p, c, &chosen_pred.choice, epochs);
        let (lossy_report, lossy_wall) = train(p, c, &lossy_pred.choice, epochs);

        // The chosen run's epoch-0 books must equal the prediction
        // counter-for-counter: the probes booked this exact schedule.
        for (label, pred, report) in
            [("chosen", chosen_pred, &chosen_report), ("chosen_lossy", lossy_pred, &lossy_report)]
        {
            let e0 = &report.epochs[0];
            assert_eq!(pred.cost.words, e0.comm.words_sent, "p={p} c={c} {label}: words");
            assert_eq!(pred.cost.messages, e0.comm.messages, "p={p} c={c} {label}: messages");
            assert_eq!(
                pred.cost.bytes_on_wire, e0.comm.bytes_on_wire,
                "p={p} c={c} {label}: bytes on wire"
            );
        }

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
        let realized_default = realize(&default_report);
        let realized_chosen = realize(&chosen_report);
        let realized_lossy = realize(&lossy_report);
        // The acceptance criterion: the tuner never picks a schedule that
        // realizes worse than the default it was free to keep.
        assert!(
            realized_chosen <= realized_default,
            "p={p} c={c}: chosen schedule realized {realized_chosen}s/epoch, worse than the \
             default's {realized_default}s/epoch"
        );
        assert!(
            realized_lossy <= realized_default,
            "p={p} c={c}: lossy-chosen schedule realized worse than the default"
        );

        // `builder().auto()` must reproduce the offline search: same chosen
        // schedule, bit-identical training.
        let auto_session = builder(p, c).auto().expect("auto build");
        let auto_choice = auto_session.tuning_outcome().expect("tuned").chosen().choice;
        assert_eq!(
            auto_choice, chosen_pred.choice,
            "p={p} c={c}: builder().auto() disagrees with the offline search"
        );
        let auto_report = auto_session.train().expect("auto training");
        let auto_identical = auto_report.epochs.iter().zip(&chosen_report.epochs).all(|(a, b)| {
            a.mean_loss.to_bits() == b.mean_loss.to_bits()
                && a.comm.words_sent == b.comm.words_sent
                && a.comm.messages == b.comm.messages
                && a.comm.bytes_on_wire == b.comm.bytes_on_wire
        });
        assert!(auto_identical, "p={p} c={c}: auto() diverged from the explicit chosen config");

        let summarize = |r: &TrainingReport| {
            let words: usize = r.epochs.iter().map(|e| e.comm.words_sent).sum();
            let messages: usize = r.epochs.iter().map(|e| e.comm.messages).sum();
            let bytes: usize = r.epochs.iter().map(|e| e.comm.bytes_on_wire).sum();
            (words, messages, bytes)
        };
        for (mode, pred, candidates, report, wall, realized) in [
            (
                "default",
                default_pred,
                lossless.scored.len(),
                &default_report,
                default_wall,
                realized_default,
            ),
            (
                "chosen",
                chosen_pred,
                lossless.scored.len(),
                &chosen_report,
                chosen_wall,
                realized_chosen,
            ),
            (
                "chosen_lossy",
                lossy_pred,
                lossy.scored.len(),
                &lossy_report,
                lossy_wall,
                realized_lossy,
            ),
        ] {
            let (words, messages, bytes) = summarize(report);
            records.push(AutotuneRecord {
                p,
                c,
                mode,
                policy: pred.choice.cache.name(),
                codec: pred.choice.codec.name(),
                overlap_on: usize::from(pred.choice.overlap),
                candidates,
                predicted_words: pred.cost.words,
                predicted_bytes_on_wire: pred.cost.bytes_on_wire,
                predicted_comm_ns: pred.cost.comm_ns(),
                predicted_epoch_s: pred.cost.total_s(),
                realized_epoch_s: realized,
                words_total: words,
                messages,
                bytes_on_wire: bytes,
                wall_s: wall,
                identical_to_builder_auto: auto_identical,
            });
        }
    }

    let workload = Workload {
        name: "autotune_epoch",
        detail: format!(
            "cost-model-driven auto-tuner: probe/fit/search then realize default vs chosen vs \
             lossy-chosen schedules; distributed GraphSAGE [10, 5], replicated backend, \
             products-like scale {scale} (f = {feature_dim}, batch {batch_size}, bulk k = 2, \
             {epochs} epochs), stress cost model alpha = {:.1e}s beta = {:.1e}s/word",
            cost.alpha, cost.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    print_autotune_records(&records);
    write_autotune_json(&out_dir.join("BENCH_autotune.json"), &workload, &records);
    println!(
        "\nChosen schedule realized no worse than the default on every shape; \
         builder().auto() reproduced the offline search bit-identically."
    );
}

/// One row of the dynamic-graph sweep: either a standalone ingest-apply
/// microbench (`mode` `"apply_delta"` / `"apply_rebuild"`, `p = c = 1`) or a
/// distributed training run with a live ingest schedule (`mode` `"train"`,
/// keyed additionally by invalidation `policy`).
struct DynamicRecord {
    p: usize,
    c: usize,
    mode: &'static str,
    /// `"precise"` / `"flush_all"` on train rows, `"-"` on apply rows.
    policy: &'static str,
    wall_s: f64,
    /// Delta ops applied over the run (inserts + deletes, post-coalescing).
    ingest_ops: usize,
    /// Apply rows: ops folded per second.  NaN → null on train rows.
    throughput: f64,
    words_total: usize,
    messages: usize,
    rows_invalidated: usize,
    rows_retained: usize,
    invalidation_words: usize,
    retained_words: usize,
    /// Words the flush-all run refetched that this run did not (precise
    /// rows; `0` elsewhere) — the payoff precise invalidation is for.
    refetch_words_avoided: usize,
    /// Losses and every counter bit-identical to the eager-rebuild run of
    /// the same configuration.
    identical_to_rebuild: bool,
}

fn write_dynamic_json(path: &std::path::Path, workload: &Workload, records: &[DynamicRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"mode\": \"{}\", \"policy\": \"{}\", \"wall_s\": {}, \
             \"ingest_ops\": {}, \"throughput\": {}, \"words_total\": {}, \"messages\": {}, \
             \"rows_invalidated\": {}, \"rows_retained\": {}, \"invalidation_words\": {}, \
             \"retained_words\": {}, \"refetch_words_avoided\": {}, \
             \"identical_to_rebuild\": {}}}{}\n",
            r.p,
            r.c,
            r.mode,
            r.policy,
            json_f64(r.wall_s),
            r.ingest_ops,
            json_f64(r.throughput),
            r.words_total,
            r.messages,
            r.rows_invalidated,
            r.rows_retained,
            r.invalidation_words,
            r.retained_words,
            r.refetch_words_avoided,
            r.identical_to_rebuild,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_dynamic_records(records: &[DynamicRecord]) {
    println!("\n== Dynamic graphs: delta-CSR ingest and precise invalidation ==");
    println!(
        "{:>3} {:>3} {:>13} {:>10}  {:>10}  {:>12}  {:>9}  {:>9}  {:>11}  {:>11}  identical",
        "p", "c", "mode", "policy", "ops", "ops/s", "inv_rows", "ret_rows", "inv_words", "avoided"
    );
    for r in records {
        let ops_s =
            if r.throughput.is_nan() { "-".to_string() } else { format!("{:.3e}", r.throughput) };
        println!(
            "{:>3} {:>3} {:>13} {:>10}  {:>10}  {:>12}  {:>9}  {:>9}  {:>11}  {:>11}  {}",
            r.p,
            r.c,
            r.mode,
            r.policy,
            r.ingest_ops,
            ops_s,
            r.rows_invalidated,
            r.rows_retained,
            r.invalidation_words,
            r.refetch_words_avoided,
            r.identical_to_rebuild
        );
    }
}

/// The `--dynamic` sweep: the incremental-ingest path end to end.
///
/// Part one folds a stream of delta batches into an RMAT adjacency through
/// [`GraphIngest`](dmbs_graph::GraphIngest) under both modes and asserts the lazily-compacted CSR is
/// byte-identical to the eagerly-rebuilt one (ops/s is the trajectory).
/// Part two trains each grid shape with a live ingest schedule under
/// delta × rebuild × {precise, flush-all}; rebuild must reproduce delta bit
/// for bit, the invalidation policy must not move a loss, and the
/// double-entry invalidation books plus the words precise invalidation
/// avoids refetching are recorded for the CI gate to pin.  Writes
/// `BENCH_dynamic.json`.
fn run_dynamic_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_gnn::{InvalidationPolicy, TrainingReport, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_graph::{GraphIngest, IngestMode};
    use dmbs_matrix::DeltaBatch;
    use dmbs_sampling::{DistConfig, ReplicatedBackend};
    use std::sync::Arc;

    if smoke {
        println!("dynamic smoke mode: tiny workload, full mode × policy sweep + identity checks");
    }

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
        records.push(DynamicRecord {
            p: 1,
            c: 1,
            mode,
            policy: "-",
            wall_s: wall,
            ingest_ops: total_ops,
            throughput: total_ops as f64 / wall,
            words_total: 0,
            messages: 0,
            rows_invalidated: 0,
            rows_retained: 0,
            invalidation_words: 0,
            retained_words: 0,
            refetch_words_avoided: 0,
            identical_to_rebuild: apply_identical,
        });
    }

    // ---- Part two: training with a live ingest schedule.
    let shapes: &[(usize, usize)] = if smoke { &[(2, 1), (4, 2)] } else { &[(4, 2), (8, 4)] };
    let (dscale, feature_dim) = if smoke { (7, 16) } else { (9, 16) };
    let mut cfg = DatasetConfig::products_like(dscale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = 4;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(5)).expect("dataset"));
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
    let lru_budget = dn * feature_dim * std::mem::size_of::<f64>() / 2;

    let train = |p: usize,
                 c: usize,
                 mode: IngestMode,
                 policy: InvalidationPolicy|
     -> (f64, TrainingReport) {
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
            .feature_cache(FeatureCacheConfig::Lru { byte_budget: lru_budget })
            .ingest_mode(mode)
            .invalidation(policy)
            .without_evaluation();
        for (after_epoch, batch) in &events {
            builder = builder.ingest(*after_epoch, batch.clone());
        }
        let session = builder.build().expect("session");
        let start = Instant::now();
        let report = session.train().expect("training");
        (start.elapsed().as_secs_f64(), report)
    };
    let identical = |a: &TrainingReport, b: &TrainingReport| {
        a.epochs.len() == b.epochs.len()
            && a.epochs.iter().zip(&b.epochs).all(|(x, y)| {
                x.mean_loss.to_bits() == y.mean_loss.to_bits()
                    && x.comm.words_sent == y.comm.words_sent
                    && x.comm.messages == y.comm.messages
                    && x.comm.cache_hits == y.comm.cache_hits
                    && x.comm.cache_misses == y.comm.cache_misses
                    && x.comm.words_saved == y.comm.words_saved
                    && x.comm.rows_invalidated == y.comm.rows_invalidated
                    && x.comm.rows_retained == y.comm.rows_retained
                    && x.comm.invalidation_words == y.comm.invalidation_words
                    && x.comm.retained_words == y.comm.retained_words
            })
    };
    let sum = |r: &TrainingReport, field: fn(&dmbs_comm::CommStats) -> usize| -> usize {
        r.epochs.iter().map(|e| field(&e.comm)).sum()
    };
    for &(p, c) in shapes {
        let mut by_policy = Vec::new();
        for (policy, label) in
            [(InvalidationPolicy::Precise, "precise"), (InvalidationPolicy::FlushAll, "flush_all")]
        {
            let (wall, delta) = train(p, c, IngestMode::Delta, policy);
            let (_, rebuild) = train(p, c, IngestMode::Rebuild, policy);
            let same = identical(&delta, &rebuild);
            assert!(same, "p={p} c={c} {label}: rebuild diverged from the delta overlay");
            by_policy.push((label, wall, delta));
        }
        let (_, _, precise) = &by_policy[0];
        let (_, _, flush) = &by_policy[1];
        assert!(
            precise
                .epochs
                .iter()
                .zip(&flush.epochs)
                .all(|(x, y)| x.mean_loss.to_bits() == y.mean_loss.to_bits()),
            "p={p} c={c}: the invalidation policy moved a loss"
        );
        let precise_words = sum(precise, |s| s.words_sent);
        let flush_words = sum(flush, |s| s.words_sent);
        assert!(
            precise_words <= flush_words,
            "p={p} c={c}: precise invalidation refetched more than flush-all"
        );
        for (label, wall, report) in &by_policy {
            records.push(DynamicRecord {
                p,
                c,
                mode: "train",
                policy: label,
                wall_s: *wall,
                ingest_ops: schedule_ops,
                throughput: f64::NAN,
                words_total: sum(report, |s| s.words_sent),
                messages: sum(report, |s| s.messages),
                rows_invalidated: sum(report, |s| s.rows_invalidated),
                rows_retained: sum(report, |s| s.rows_retained),
                invalidation_words: sum(report, |s| s.invalidation_words),
                retained_words: sum(report, |s| s.retained_words),
                refetch_words_avoided: if *label == "precise" {
                    flush_words - precise_words
                } else {
                    0
                },
                identical_to_rebuild: true,
            });
        }
    }

    let workload = Workload {
        name: "dynamic_ingest",
        detail: format!(
            "delta-CSR apply of {num_batches} batches x {ops_per_batch} ops on rmat scale \
             {scale} deg {degree} (lazy overlay vs eager rebuild), plus distributed GraphSAGE \
             [4, 3] training with a 2-event ingest schedule ({schedule_ops} ops) on \
             products-like scale {dscale} (f = {feature_dim}, batch {batch_size}, 3 epochs, \
             LRU cache) under delta x rebuild x {{precise, flush-all}}"
        ),
        items: total_ops + schedule_ops,
        throughput_unit: "delta-ops/run",
    };
    print_dynamic_records(&records);
    write_dynamic_json(&out_dir.join("BENCH_dynamic.json"), &workload, &records);
    println!(
        "\nDelta overlay byte-identical to eager rebuild everywhere; invalidation books \
         double-entry balanced."
    );
}

/// One (grid shape × transport) row of the calibration sweep.
struct TransportRecord {
    p: usize,
    c: usize,
    /// `"simulator"` or `"socket"`.
    transport: &'static str,
    /// Training epochs in the run (exact — a changed schedule length would
    /// silently rescale every per-epoch field below).
    epochs: usize,
    /// Measured wall seconds of the whole training run on this transport.
    wall_s: f64,
    /// Modeled epoch seconds (measured compute + configured α–β comm
    /// bill), summed over epochs.  The α–β portion is bit-identical
    /// between transports by the equivalence contract; the compute
    /// portion is measured wall time, so the field drifts with the
    /// machine and is soft-gated.
    modeled_epoch_s: f64,
    /// Measured wall seconds per epoch (`wall_s / epochs`).  On the socket
    /// row this includes real process spawn + wire time; the gap to
    /// `modeled_epoch_s / epochs` is what the calibration quantifies.
    measured_epoch_s: f64,
    /// Per-rank communication seconds per epoch the *fitted* α–β constants
    /// predict for this run's wire bill:
    /// `(fit_alpha·messages + fit_beta·words) / (p · epochs)`.
    fit_comm_epoch_s: f64,
    /// Fitted per-message latency of the socket transport (seconds).
    fit_alpha_s: f64,
    /// Fitted per-word cost of the socket transport (seconds/word).
    fit_beta_s_per_word: f64,
    /// Wire bill over the whole run, summed across ranks — byte-identical
    /// between transports by contract.
    words_total: usize,
    messages: usize,
    cache_hits: usize,
    cache_misses: usize,
    words_saved: usize,
    /// Losses bit-identical and all counters equal to the simulator run.
    identical_to_simulator: bool,
}

fn write_transport_json(path: &std::path::Path, workload: &Workload, records: &[TransportRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"p\": {}, \"c\": {}, \"transport\": \"{}\", \"epochs\": {}, \
             \"wall_s\": {}, \"modeled_epoch_s\": {}, \"measured_epoch_s\": {}, \
             \"fit_comm_epoch_s\": {}, \"fit_alpha_s\": {}, \"fit_beta_s_per_word\": {}, \
             \"words_total\": {}, \"messages\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"words_saved\": {}, \"identical_to_simulator\": {}}}{}\n",
            r.p,
            r.c,
            r.transport,
            r.epochs,
            json_f64(r.wall_s),
            json_f64(r.modeled_epoch_s),
            json_f64(r.measured_epoch_s),
            json_f64(r.fit_comm_epoch_s),
            json_f64(r.fit_alpha_s),
            json_f64(r.fit_beta_s_per_word),
            r.words_total,
            r.messages,
            r.cache_hits,
            r.cache_misses,
            r.words_saved,
            r.identical_to_simulator,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_transport_records(records: &[TransportRecord]) {
    println!("\n== Transport calibration: simulator vs Unix-socket processes ==");
    println!(
        "{:>3} {:>3} {:>10}  {:>11}  {:>13}  {:>13}  {:>12}  {:>11}  {:>9}  identical",
        "p",
        "c",
        "transport",
        "wall_s",
        "modeled_ep_s",
        "measured_ep_s",
        "fit_comm_s",
        "words",
        "messages"
    );
    for r in records {
        println!(
            "{:>3} {:>3} {:>10}  {:>11.6}  {:>13.6}  {:>13.6}  {:>12.6}  {:>11}  {:>9}  {}",
            r.p,
            r.c,
            r.transport,
            r.wall_s,
            r.modeled_epoch_s / r.epochs as f64,
            r.measured_epoch_s,
            r.fit_comm_epoch_s,
            r.words_total,
            r.messages,
            r.identical_to_simulator
        );
    }
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
/// Writes `BENCH_transport.json`.  The counters and `identical_to_simulator`
/// hard-fail under `--check`; every measured or fitted seconds field only
/// soft-warns (it is a property of the host, not of the schedule).
fn run_calibrate_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_bench::transport::{
        decode_ping_result, encode_ping_job, fit_alpha_beta, registry, ProbeSample, PING_WORKER,
    };
    use dmbs_comm::{SocketLaunch, TransportSelect};
    use dmbs_gnn::{FeatureCacheConfig as CacheMode, TrainingReport, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_sampling::{DistConfig, ReplicatedBackend};
    use std::sync::Arc;

    let launch = SocketLaunch::default().timeout_ms(180_000);

    // ---- Phase 1: ping-pong probe over real processes.
    let (sizes, rounds): (&[usize], usize) =
        if smoke { (&[64, 1_024, 16_384], 16) } else { (&[64, 1_024, 16_384, 131_072], 32) };
    if smoke {
        println!("calibrate smoke mode: tiny workload, full probe + shape sweep");
    }
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
    let cost = dmbs_comm::CostModel::new(2.0e-4, 5.0e-8);

    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = 4;
    cfg.train_fraction = 0.5;
    cfg.homophily = 0.6;
    let dataset = Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(5)).expect("dataset"));
    let batch_size = (dataset.train_set.len() / 8).max(8);

    let train = |p: usize, c: usize, transport: TransportSelect| -> (TrainingReport, f64) {
        let dist = DistConfig::new(p, c, BulkSamplerConfig::new(batch_size, 2));
        let runtime = Runtime::with_cost_model(p, cost).expect("runtime");
        let backend = ReplicatedBackend::with_runtime(runtime, dist).expect("backend");
        let session = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
            .backend(backend)
            .hidden_dim(32)
            .learning_rate(0.05)
            .epochs(epochs)
            .seed(42)
            .feature_cache(CacheMode::EpochPinned)
            .transport(transport)
            .without_evaluation()
            .build()
            .expect("session");
        let start = Instant::now();
        let report = session.train().expect("training");
        (report, start.elapsed().as_secs_f64())
    };

    let mut records = Vec::new();
    for &(p, c) in shapes {
        let (sim, sim_wall) = train(p, c, TransportSelect::Simulator);
        let (sock, sock_wall) = train(p, c, TransportSelect::UnixSocket(launch.clone()));

        // The cross-transport contract: the socket backend replays the exact
        // schedule the simulator models — losses and every deterministic
        // counter bit-identical, per epoch.
        let identical = sim.epochs.len() == sock.epochs.len()
            && sim.epochs.iter().zip(&sock.epochs).all(|(a, b)| {
                a.mean_loss.to_bits() == b.mean_loss.to_bits()
                    && a.comm.words_sent == b.comm.words_sent
                    && a.comm.messages == b.comm.messages
                    && a.comm.cache_hits == b.comm.cache_hits
                    && a.comm.cache_misses == b.comm.cache_misses
                    && a.comm.words_saved == b.comm.words_saved
            });
        assert!(identical, "p={p} c={c}: socket transport diverged from the simulator");

        let summarize = |r: &TrainingReport| {
            let modeled: f64 = r.epochs.iter().map(|e| e.modeled_epoch_seconds()).sum();
            let words: usize = r.epochs.iter().map(|e| e.comm.words_sent).sum();
            let messages: usize = r.epochs.iter().map(|e| e.comm.messages).sum();
            let hits: usize = r.epochs.iter().map(|e| e.comm.cache_hits).sum();
            let misses: usize = r.epochs.iter().map(|e| e.comm.cache_misses).sum();
            let saved: usize = r.epochs.iter().map(|e| e.comm.words_saved).sum();
            (modeled, words, messages, hits, misses, saved)
        };
        let fit_comm = |words: usize, messages: usize| {
            (fit_alpha * messages as f64 + fit_beta * words as f64) / (p * epochs) as f64
        };
        for (transport, report, wall) in
            [("simulator", &sim, sim_wall), ("socket", &sock, sock_wall)]
        {
            let (modeled, words, messages, hits, misses, saved) = summarize(report);
            records.push(TransportRecord {
                p,
                c,
                transport,
                epochs,
                wall_s: wall,
                modeled_epoch_s: modeled,
                measured_epoch_s: wall / epochs as f64,
                fit_comm_epoch_s: fit_comm(words, messages),
                fit_alpha_s: fit_alpha,
                fit_beta_s_per_word: fit_beta,
                words_total: words,
                messages,
                cache_hits: hits,
                cache_misses: misses,
                words_saved: saved,
                identical_to_simulator: identical,
            });
        }
    }

    let workload = Workload {
        name: "transport_epoch",
        detail: format!(
            "distributed GraphSAGE [10, 5] training, replicated backend + EpochPinned cache, \
             in-process simulator vs Unix-socket rank processes; products-like scale {scale} \
             (f = {feature_dim}, batch {batch_size}, bulk k = 2, {epochs} epochs), stress cost \
             model alpha = {:.1e}s beta = {:.1e}s/word; probe sizes {sizes:?} x {rounds} rounds",
            cost.alpha, cost.beta
        ),
        items: epochs,
        throughput_unit: "epochs/run",
    };
    print_transport_records(&records);
    write_transport_json(&out_dir.join("BENCH_transport.json"), &workload, &records);
    println!("\nSocket transport byte-identical to the simulator on every shape.");
}

/// One measured (offered QPS × coalescing window) cell of the serving sweep.
struct ServeRecord {
    /// Offered load of the open-loop generator (requests per virtual second).
    qps: usize,
    /// Coalescing window in microseconds; `0` disables micro-bulking.
    window_us: usize,
    requests_offered: usize,
    requests_served: usize,
    batches: usize,
    /// `round(served / batches * 1000)` — the coalescing factor as an
    /// integer so the CI gate can compare it exactly.
    coalescing_x1000: u64,
    hot_hits: usize,
    hot_misses: usize,
    hot_hit_rate: f64,
    shed_admission: usize,
    shed_timeout: usize,
    /// All-to-allv words actually charged over the run (hot-tier and cache
    /// hits avoid their share).
    words_total: usize,
    messages: usize,
    /// Served requests per virtual second of makespan.
    sustained_qps: f64,
    /// Virtual-time latency digest over the served requests.
    latency: LatencySummary,
    /// Measured wall seconds of the replay (machine-dependent, soft).
    wall_s: f64,
    /// Two fresh same-seed replays produced bit-identical counters, books
    /// and latencies.
    identical_across_replays: bool,
}

fn write_serve_json(path: &std::path::Path, workload: &Workload, records: &[ServeRecord]) {
    let mut out = json_header(workload);
    out.push_str("  \"records\": [\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"qps\": {}, \"window_us\": {}, \"requests_offered\": {}, \
             \"requests_served\": {}, \"batches\": {}, \"coalescing_x1000\": {}, \
             \"hot_hits\": {}, \"hot_misses\": {}, \"hot_hit_rate\": {}, \
             \"shed_admission\": {}, \"shed_timeout\": {}, \"words_total\": {}, \
             \"messages\": {}, \"sustained_qps\": {}, \"mean_s\": {}, \"p50_s\": {}, \
             \"p99_s\": {}, \"p999_s\": {}, \"max_s\": {}, \"wall_s\": {}, \
             \"identical_across_replays\": {}}}{}\n",
            r.qps,
            r.window_us,
            r.requests_offered,
            r.requests_served,
            r.batches,
            r.coalescing_x1000,
            r.hot_hits,
            r.hot_misses,
            json_f64(r.hot_hit_rate),
            r.shed_admission,
            r.shed_timeout,
            r.words_total,
            r.messages,
            json_f64(r.sustained_qps),
            json_f64(r.latency.mean),
            json_f64(r.latency.p50),
            json_f64(r.latency.p99),
            json_f64(r.latency.p999),
            json_f64(r.latency.max),
            json_f64(r.wall_s),
            r.identical_across_replays,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

fn print_serve_records(records: &[ServeRecord]) {
    println!("\n== Serving tier: Zipf open-loop, virtual-time latency ==");
    println!(
        "{:>6} {:>9} {:>7} {:>7} {:>7} {:>7}  {:>9}  {:>9}  {:>9}  {:>6}  {:>5}  {:>9}",
        "qps",
        "window_us",
        "offered",
        "served",
        "shed",
        "coal_x",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "hot_%",
        "ident",
        "sust_qps"
    );
    for r in records {
        println!(
            "{:>6} {:>9} {:>7} {:>7} {:>7} {:>6.2}x  {:>9.3}  {:>9.3}  {:>9.3}  {:>5.1}%  {:>5}  \
             {:>9.0}",
            r.qps,
            r.window_us,
            r.requests_offered,
            r.requests_served,
            r.shed_admission + r.shed_timeout,
            r.coalescing_x1000 as f64 / 1000.0,
            r.latency.p50 * 1e3,
            r.latency.p99 * 1e3,
            r.latency.p999 * 1e3,
            r.hot_hit_rate * 100.0,
            r.identical_across_replays,
            r.sustained_qps,
        );
    }
}

/// The `--serve` sweep: trains one snapshot, then drives a fresh
/// `ServingSession` per (offered QPS × coalescing window) cell with the
/// same Zipf open-loop trace generator, replaying every cell twice and
/// asserting the deterministic virtual-time counters are bit-identical.
/// Asserts the tentpole latency claim — at the overloaded QPS level,
/// coalescing lowers p99 versus the window-0 (no-bulking) configuration —
/// and writes `BENCH_serve.json`.
fn run_serve_sweep(smoke: bool, out_dir: &std::path::Path) {
    use dmbs_gnn::{RequestTrace, ServeReport, ServingConfig, ServingSession, TrainingSession};
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use std::sync::Arc;

    // The two offered loads straddle the window-0 saturation point of the
    // modeled service time (~1 / seconds_per_batch ≈ 4.5k QPS): the low
    // level is stable everywhere, the high level overloads the un-coalesced
    // server (queueing + admission shed) while the micro-bulked one absorbs
    // it — the p99 gap the acceptance gate asserts.
    let qps_levels: [usize; 2] = [2000, 8000];
    let windows_us: [usize; 2] = [0, 1000];
    let (scale, feature_dim, num_requests, hot_capacity) =
        if smoke { (7, 16, 300, 32) } else { (10, 32, 4000, 128) };
    if smoke {
        println!("serve smoke mode: tiny snapshot, full QPS x window sweep + replay identity");
    }

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
            records.push(ServeRecord {
                qps,
                window_us,
                requests_offered: stats.requests_offered,
                requests_served: stats.requests_served,
                batches: stats.batches,
                coalescing_x1000: (stats.coalescing_factor() * 1000.0).round() as u64,
                hot_hits: stats.hot_hits,
                hot_misses: stats.hot_misses,
                hot_hit_rate: stats.hot_hit_rate().unwrap_or(0.0),
                shed_admission: stats.shed_admission,
                shed_timeout: stats.shed_timeout,
                words_total: first.comm.words_sent,
                messages: first.comm.messages,
                sustained_qps: first.sustained_qps(),
                latency: LatencySummary::from_samples(&first.latencies),
                wall_s: first.wall_s,
                identical_across_replays: identical,
            });
        }
    }

    // The tentpole claim, asserted before anything is written: at the
    // overloaded QPS level, micro-bulk coalescing must lower tail latency
    // versus serving each request alone.
    let high = *qps_levels.iter().max().expect("non-empty sweep");
    let p99_of = |window_us: usize| {
        records
            .iter()
            .find(|r| r.qps == high && r.window_us == window_us)
            .expect("cell measured")
            .latency
            .p99
    };
    let (p99_solo, p99_coalesced) = (p99_of(0), p99_of(windows_us[1]));
    assert!(
        p99_coalesced < p99_solo,
        "coalescing must cut p99 at {high} QPS: window=0 p99 {p99_solo:.6}s vs \
         window={}us p99 {p99_coalesced:.6}s",
        windows_us[1]
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
    print_serve_records(&records);
    write_serve_json(&out_dir.join("BENCH_serve.json"), &workload, &records);
    println!(
        "\nAll cells replay-identical; coalescing cut p99 at {high} QPS from {:.3}ms to {:.3}ms.",
        p99_solo * 1e3,
        p99_coalesced * 1e3
    );
}

/// Object-safe epoch runner so the GraphSAGE and LADIES sweeps share one
/// measurement loop.
trait SamplerEpoch {
    fn epoch(
        &self,
        backend: &LocalBackend,
        a: &CsrMatrix,
        batches: &[Vec<usize>],
    ) -> (Vec<dmbs_sampling::MinibatchSample>, dmbs_comm::PhaseProfile);
    fn describe(&self) -> String;
}

impl SamplerEpoch for GraphSageSampler {
    fn epoch(
        &self,
        backend: &LocalBackend,
        a: &CsrMatrix,
        batches: &[Vec<usize>],
    ) -> (Vec<dmbs_sampling::MinibatchSample>, dmbs_comm::PhaseProfile) {
        let epoch = backend.sample_epoch(self, a, batches, 7).expect("epoch");
        (epoch.output.minibatches, epoch.output.profile)
    }
    fn describe(&self) -> String {
        format!("GraphSAGE {:?}", self.fanouts())
    }
}

impl SamplerEpoch for LadiesSampler {
    fn epoch(
        &self,
        backend: &LocalBackend,
        a: &CsrMatrix,
        batches: &[Vec<usize>],
    ) -> (Vec<dmbs_sampling::MinibatchSample>, dmbs_comm::PhaseProfile) {
        let epoch = backend.sample_epoch(self, a, batches, 7).expect("epoch");
        (epoch.output.minibatches, epoch.output.profile)
    }
    fn describe(&self) -> String {
        format!("LADIES {} layers x s = {}", self.num_layers(), self.samples_per_layer())
    }
}
