//! `serve_openloop`: a single-threaded real-time open loop written here, in
//! the benchmark, around `ServingSession::serve`.
//!
//! Requests come from independent users, so arrivals follow a schedule
//! (Poisson, from `RequestTrace::open_loop`) whatever the server does, and
//! every latency is timed **from the request's due time** — a stall delays
//! the requests behind it and that wait counts.  Batching is natural: each
//! call serves whatever is queued, up to `max_micro_bulk`.  The library's
//! own `run_trace` reports *modeled* virtual time; this loop measures what a
//! request really waits.

use crate::checks::Checks;
use crate::common::{dataset, err, sage_sampler, timed_setups, Args, Outcome};
use crate::host::peak_rss_mib;
use crate::layers::Layers;
use crate::replay::replay_first_group;
use crate::spec::{
    Sizes, LEARNING_RATE, SERVE_GRAPH_SEED, SERVE_HOT_CAPACITY, SERVE_MICRO_BULK,
    SERVE_P99_LIMIT_S, SERVE_PASS_REQUESTS, SERVE_QUEUE_DEPTH, SERVE_RATES, SERVE_RATE_SHARE,
    SERVE_WINDOW_REQUESTS, SERVE_ZIPF,
};
use crate::stats::{describe, mean, median, percentile};
use crate::trace::{write_trace, Recorder};
use dmbs::gnn::{
    EpochStats, ModelSnapshot, RequestTrace, ServeRequest, ServeStats, ServingConfig,
    ServingSession, TrainingSession,
};
use dmbs::graph::datasets::Dataset;
use dmbs::matrix::DenseMatrix;
use dmbs::sampling::{
    request_stream_seed, sample_micro_bulk, BulkSamplerConfig, GraphSageSampler, LocalBackend,
    MicroRequest,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

type Serving = ServingSession<GraphSageSampler>;
type Trainer = TrainingSession<GraphSageSampler, LocalBackend>;

fn serving_config(seed: u64) -> ServingConfig {
    ServingConfig {
        max_micro_bulk: SERVE_MICRO_BULK,
        queue_depth: SERVE_QUEUE_DEPTH,
        hot_capacity: SERVE_HOT_CAPACITY,
        seed,
        ..ServingConfig::default()
    }
}

/// Everything set-up produces, with the seconds of its two big parts.
struct Setup {
    data: Arc<Dataset>,
    trainer: Trainer,
    snapshot_stats: EpochStats,
    snapshot: ModelSnapshot,
    serving: Serving,
    build_dataset_s: f64,
    snapshot_train_s: f64,
}

/// Dataset, a one-epoch `train_and_export` for the snapshot, and the
/// serving session.
fn setup(sizes: &Sizes, seed: u64) -> Result<Setup, String> {
    let build_start = Instant::now();
    let data = Arc::new(dataset(sizes, SERVE_GRAPH_SEED)?);
    let build_dataset_s = build_start.elapsed().as_secs_f64();
    let backend =
        LocalBackend::new(BulkSamplerConfig::new(sizes.batch, sizes.bulk)).map_err(err)?;
    let trainer: Trainer = TrainingSession::builder()
        .dataset(Arc::clone(&data))
        .sampler(sage_sampler(sizes))
        .backend(backend)
        .hidden_dim(sizes.hidden)
        .learning_rate(LEARNING_RATE)
        .epochs(1)
        .seed(seed)
        .without_evaluation()
        .build()
        .map_err(err)?;
    let train_start = Instant::now();
    let (report, snapshot): (_, ModelSnapshot) = trainer.train_and_export().map_err(err)?;
    let snapshot_train_s = train_start.elapsed().as_secs_f64();
    let snapshot_stats = report.epochs.into_iter().next().ok_or("snapshot trained no epoch")?;
    let serving = ServingSession::new(
        Arc::clone(&data),
        sage_sampler(sizes),
        snapshot.clone(),
        serving_config(seed),
    )
    .map_err(err)?;
    Ok(Setup {
        data,
        trainer,
        snapshot_stats,
        snapshot,
        serving,
        build_dataset_s,
        snapshot_train_s,
    })
}

/// One served micro-bulk kept for the traced run's replay.
struct ServedBatch {
    requests: Vec<ServeRequest>,
    logits: Vec<Vec<f64>>,
}

/// What one open-loop phase measured.
#[derive(Default)]
struct Phase {
    rate: f64,
    /// Seconds from due time per *offered* request; a shed or failed request
    /// is `INFINITY` and so misses any limit.
    latencies: Vec<f64>,
    /// Seconds from due time to the start of the serving call, per served
    /// request.
    queue_waits: Vec<f64>,
    /// How late the single-threaded generator admitted each arrival.
    admit_lags: Vec<f64>,
    batch_sizes: Vec<f64>,
    call_secs: Vec<f64>,
    shed: usize,
    errors: usize,
    /// Requests still queued when the last arrival was admitted.
    backlog_at_end: usize,
    served: Vec<ServedBatch>,
}

impl Phase {
    fn offered(&self) -> usize {
        self.latencies.len()
    }

    fn failed(&self) -> usize {
        self.shed + self.errors
    }

    /// The `p`-th percentile of each window of `SERVE_WINDOW_REQUESTS`
    /// consecutive offered requests, and of those the median window's.  One
    /// host stall lands in one window, so it moves that window's p99 and not
    /// the reported one; a server that is slow in most windows moves both.
    fn windowed(&self, p: f64) -> f64 {
        let full = self.latencies.len() / SERVE_WINDOW_REQUESTS * SERVE_WINDOW_REQUESTS;
        let covered = if full == 0 { &self.latencies[..] } else { &self.latencies[..full] };
        let windows: Vec<f64> =
            covered.chunks(SERVE_WINDOW_REQUESTS).map(|w| percentile(w, p)).collect();
        percentile(&windows, 50.0)
    }

    fn p50(&self) -> f64 {
        self.windowed(50.0)
    }

    fn p99(&self) -> f64 {
        self.windowed(99.0)
    }

    /// p99 over offered requests within the limit, and no backlog left
    /// growing when the arrivals stop (a Poisson burst leaves up to a
    /// micro-bulk queued; overload leaves hundreds).
    fn keeps_up(&self) -> bool {
        self.p99() <= SERVE_P99_LIMIT_S && self.backlog_at_end <= 2 * SERVE_MICRO_BULK
    }

    fn describe(&self) -> String {
        format!(
            "{:.0} req/s: offered={} shed={} errors={} p50={:.6}s p99={:.6}s (whole phase \
             {:.6}s) backlog_at_end={} mean_batch={:.2} admit_lag_p99={:.6}s keeps_up={}",
            self.rate,
            self.offered(),
            self.shed,
            self.errors,
            self.p50(),
            self.p99(),
            percentile(&self.latencies, 99.0),
            self.backlog_at_end,
            mean(&self.batch_sizes),
            percentile(&self.admit_lags, 99.0),
            self.keeps_up()
        )
    }
}

/// Drives `trace` through `serving` in real time.  `rec`, when given,
/// records a `serve.phase` root with a `serve.call` span per micro-bulk and a
/// `serve.idle` span per wait for the next arrival; `keep` bounds how many
/// served batches are kept for the replay.
fn open_loop(
    serving: &mut Serving,
    trace: &RequestTrace,
    rate: f64,
    id_base: u64,
    mut rec: Option<&mut Recorder>,
    keep: usize,
) -> Phase {
    let arrivals = &trace.arrivals;
    let n = arrivals.len();
    let mut phase = Phase { rate, latencies: vec![f64::INFINITY; n], ..Phase::default() };
    let mut queue: VecDeque<usize> = VecDeque::with_capacity(256);
    let mut next = 0usize;
    let root = rec.as_mut().map(|r| r.enter("serve.phase", rate as u64));
    let clock = Instant::now();
    loop {
        let now = clock.elapsed().as_secs_f64();
        while next < n && arrivals[next].at <= now {
            phase.admit_lags.push(now - arrivals[next].at);
            if serving.check_admission(queue.len()).is_ok() {
                queue.push_back(next);
            } else {
                phase.shed += 1;
            }
            next += 1;
            if next == n {
                phase.backlog_at_end = queue.len();
            }
        }
        if queue.is_empty() {
            if next >= n {
                break;
            }
            let due = arrivals[next].at;
            let idle = rec.as_mut().map(|r| r.enter("serve.idle", next as u64));
            while clock.elapsed().as_secs_f64() < due {
                std::hint::spin_loop();
            }
            if let (Some(r), Some(h)) = (rec.as_mut(), idle) {
                r.exit(h);
            }
            continue;
        }
        let start = clock.elapsed().as_secs_f64();
        let mut batch: Vec<usize> = Vec::with_capacity(SERVE_MICRO_BULK);
        while batch.len() < SERVE_MICRO_BULK {
            let Some(i) = queue.pop_front() else { break };
            if serving.check_timeout(start - arrivals[i].at).is_ok() {
                batch.push(i);
            } else {
                phase.shed += 1;
            }
        }
        if batch.is_empty() {
            continue;
        }
        let requests: Vec<ServeRequest> = batch
            .iter()
            .map(|&i| ServeRequest { id: id_base + i as u64, vertex: arrivals[i].vertex })
            .collect();
        let call = rec.as_mut().map(|r| r.enter("serve.call", phase.call_secs.len() as u64));
        let result = serving.serve(&requests);
        if let (Some(r), Some(h)) = (rec.as_mut(), call) {
            r.exit(h);
        }
        let finish = clock.elapsed().as_secs_f64();
        phase.call_secs.push(finish - start);
        phase.batch_sizes.push(batch.len() as f64);
        match result {
            Ok(responses) => {
                for &i in &batch {
                    phase.latencies[i] = finish - arrivals[i].at;
                    phase.queue_waits.push(start - arrivals[i].at);
                }
                if phase.served.len() < keep {
                    let logits = responses.into_iter().map(|r| r.logits).collect();
                    phase.served.push(ServedBatch { requests, logits });
                }
            }
            Err(_) => phase.errors += batch.len(),
        }
    }
    if let (Some(r), Some(h)) = (rec.as_mut(), root) {
        r.exit(h);
    }
    phase
}

/// One closed-loop pass: `vertices` in full micro-bulks, back to back.
/// Returns the wall seconds, or the error of the first failed call.
fn closed_loop_pass(
    serving: &mut Serving,
    vertices: &[usize],
    id_base: u64,
) -> Result<f64, String> {
    let start = Instant::now();
    for (chunk_index, chunk) in vertices.chunks(SERVE_MICRO_BULK).enumerate() {
        let requests: Vec<ServeRequest> = chunk
            .iter()
            .enumerate()
            .map(|(i, &vertex)| ServeRequest {
                id: id_base + (chunk_index * SERVE_MICRO_BULK + i) as u64,
                vertex,
            })
            .collect();
        serving.serve(&requests).map_err(err)?;
    }
    Ok(start.elapsed().as_secs_f64())
}

/// Request ids are unique across phases so no two requests share a sampling
/// stream.
struct Ids(u64);

impl Ids {
    fn take(&mut self, count: usize) -> u64 {
        let base = self.0;
        self.0 += count as u64;
        base
    }
}

/// The Poisson/Zipf trace of one open-loop phase: `seconds` at `rate`.
fn trace_for(rate: f64, seconds: f64, num_vertices: usize, seed: u64, smoke: bool) -> RequestTrace {
    let requests = if smoke { 200 } else { ((rate * seconds) as usize).max(200) };
    RequestTrace::open_loop(requests, rate, SERVE_ZIPF, num_vertices, seed)
}

fn zipf_vertices(count: usize, num_vertices: usize, seed: u64) -> Vec<usize> {
    RequestTrace::open_loop(count, 1.0, SERVE_ZIPF, num_vertices, seed)
        .arrivals
        .iter()
        .map(|a| a.vertex)
        .collect()
}

/// Coalescing transparency: 64 requests served in micro-bulks, then again
/// one by one, must return bit-identical logits.
fn check_coalescing(
    checks: &mut Checks,
    serving: &mut Serving,
    vertices: &[usize],
    ids: &mut Ids,
) -> Result<(), String> {
    let base = ids.take(64);
    let requests: Vec<ServeRequest> = vertices
        .iter()
        .take(64)
        .enumerate()
        .map(|(i, &vertex)| ServeRequest { id: base + i as u64, vertex })
        .collect();
    let mut bulk = Vec::with_capacity(requests.len());
    for chunk in requests.chunks(SERVE_MICRO_BULK) {
        bulk.extend(serving.serve(chunk).map_err(err)?);
    }
    for (request, coalesced) in requests.iter().zip(&bulk) {
        let single = serving.serve(std::slice::from_ref(request)).map_err(err)?;
        let same = single[0].logits.len() == coalesced.logits.len()
            && single[0]
                .logits
                .iter()
                .zip(&coalesced.logits)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        checks.require(same, || {
            format!("request {} answered differently alone than coalesced", request.id)
        });
    }
    Ok(())
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args, sizes)
    } else {
        run_untraced(args, sizes)
    }
}

fn run_untraced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let (setup_s, mut s) = timed_setups(args.smoke, || setup(sizes, args.seed))?;
    let n = s.data.num_vertices();
    let mut ids = Ids(0);
    let mut checks = Checks::default();
    let pass_requests = if args.smoke { 200 } else { SERVE_PASS_REQUESTS };

    // Warm-up: fills the hot tier and grows the kernel workspace.
    let warm = zipf_vertices(pass_requests, n, args.seed ^ 0x5eed);
    closed_loop_pass(&mut s.serving, &warm, ids.take(warm.len()))?;

    // --- Open loop at the three fixed rates.
    let mut phases = Vec::with_capacity(SERVE_RATES.len());
    for (i, (&rate, &share)) in SERVE_RATES.iter().zip(&SERVE_RATE_SHARE).enumerate() {
        let trace =
            trace_for(rate, share * args.seconds, n, args.seed.wrapping_add(i as u64), args.smoke);
        let base = ids.take(trace.len());
        let phase = open_loop(&mut s.serving, &trace, rate, base, None, 0);
        println!("open loop {}", phase.describe());
        phases.push(phase);
    }
    let base_phase = &phases[0];
    let max_rate = phases.iter().filter(|p| p.keeps_up()).map(|p| p.rate).fold(0.0, f64::max);

    // --- Closed loop: capacity, in passes of fixed work.
    let open_share: f64 = SERVE_RATE_SHARE.iter().sum();
    let closed_budget = (1.0 - open_share) * args.seconds;
    let mut pass_secs = Vec::new();
    let closed_start = Instant::now();
    loop {
        let vertices =
            zipf_vertices(pass_requests, n, args.seed.wrapping_add(100 + pass_secs.len() as u64));
        pass_secs.push(closed_loop_pass(&mut s.serving, &vertices, ids.take(vertices.len()))?);
        if closed_start.elapsed().as_secs_f64() >= closed_budget {
            break;
        }
    }
    println!("closed loop: {} ({} requests per pass)", describe(&pass_secs), pass_requests);

    let peak_rss_mb = peak_rss_mib();

    // --- Correctness.
    check_coalescing(&mut checks, &mut s.serving, &warm, &mut ids)?;
    checks.require(base_phase.errors == 0, || {
        format!("{} requests returned an error at the base rate", base_phase.errors)
    });
    let loss = s.snapshot_stats.mean_loss;
    checks.require(loss.is_finite(), || format!("snapshot loss {loss} is not finite"));
    checks.report();

    let epoch_s = median(&pass_secs);
    Ok(Outcome {
        correct: checks.ok(),
        attempted: base_phase.offered() as u64,
        failed: base_phase.failed() as u64,
        metrics: vec![
            ("setup_s", setup_s, "s"),
            ("epoch_s", epoch_s, "s"),
            ("final_loss", loss, "nats"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("serve_p50_s", base_phase.p50(), "s"),
            ("serve_p99_s", base_phase.p99(), "s"),
            ("serve_capacity_rps", pass_requests as f64 / epoch_s, "req/s"),
            ("serve_max_rate_rps", max_rate, "req/s"),
        ],
    })
}

/// Replays the sampling and the forward pass of the kept micro-bulks from
/// public functions, one span each, and checks the logits against what the
/// session answered.  Returns whether every replayed request matched.
fn replay_batches(
    rec: &mut Recorder,
    data: &Dataset,
    sampler: &GraphSageSampler,
    snapshot_model: &dmbs::gnn::SageModel,
    served: &[ServedBatch],
    seed: u64,
) -> Result<bool, String> {
    let features = data.graph.features().ok_or("dataset has no features")?;
    let config = BulkSamplerConfig::new(1, 1);
    let mut all_match = true;
    for (b, batch) in served.iter().enumerate() {
        let micro_requests: Vec<MicroRequest> = batch
            .requests
            .iter()
            .map(|r| MicroRequest { vertex: r.vertex, seed: request_stream_seed(seed, r.id) })
            .collect();
        let micro = rec
            .span("sampling.micro_bulk", b as u64, || {
                sample_micro_bulk(sampler, data.graph.adjacency(), &micro_requests, &config)
            })
            .map_err(err)?;
        let inputs: Vec<DenseMatrix> = micro
            .samples
            .iter()
            .map(|s| features.gather_rows(s.input_vertices()).map_err(err))
            .collect::<Result<_, _>>()?;
        let logits = rec.span("gnn.serve_forward", b as u64, || {
            micro
                .samples
                .iter()
                .zip(&inputs)
                .map(|(sample, input)| {
                    snapshot_model.forward(sample, input).map(|(l, _)| l.row(0).to_vec())
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(err)
        })?;
        all_match &= logits.iter().zip(&batch.logits).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    }
    Ok(all_match)
}

fn hit_share(after: &ServeStats, before: &ServeStats) -> f64 {
    let hits = (after.hot_hits - before.hot_hits) as f64;
    let misses = (after.hot_misses - before.hot_misses) as f64;
    if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    }
}

fn run_traced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut layers = Layers::new();
    let mut s = setup(sizes, args.seed)?;
    layers.set("graph.build_dataset_s", s.build_dataset_s);
    layers.set("gnn.snapshot_train_s", s.snapshot_train_s);
    layers.set_phases(&s.snapshot_stats);
    let n = s.data.num_vertices();
    let mut ids = Ids(0);
    let pass_requests = if args.smoke { 200 } else { SERVE_PASS_REQUESTS };
    let warm = zipf_vertices(pass_requests, n, args.seed ^ 0x5eed);
    closed_loop_pass(&mut s.serving, &warm, ids.take(warm.len()))?;

    // --- The same base-rate trace, untraced then traced.
    let (base_rate, top_rate) = (SERVE_RATES[0], SERVE_RATES[SERVE_RATES.len() - 1]);
    let trace = trace_for(base_rate, 0.3 * args.seconds, n, args.seed, args.smoke);
    let reference = open_loop(&mut s.serving, &trace, base_rate, ids.take(trace.len()), None, 0);
    println!("untraced  {}", reference.describe());
    let mut rec = Recorder::with_capacity(1 << 17);
    let stats_before = s.serving.stats();
    let traced =
        open_loop(&mut s.serving, &trace, base_rate, ids.take(trace.len()), Some(&mut rec), 256);
    let stats_after = s.serving.stats();
    println!("traced    {}", traced.describe());
    layers.set("gnn.serve_call_s", mean(&traced.call_secs));
    layers.set("gnn.serve_queue_wait_p50_s", percentile(&traced.queue_waits, 50.0));
    layers.set("gnn.serve_queue_wait_p99_s", percentile(&traced.queue_waits, 99.0));
    layers.set("gnn.serve_admit_lag_p99_s", percentile(&traced.admit_lags, 99.0));
    layers.set("gnn.serve_batch_size", mean(&traced.batch_sizes));
    layers.set("gnn.serve_hot_hit_share", hit_share(&stats_after, &stats_before));
    layers.set("trace.closure_err", rec.closure_err("serve.phase"));
    layers.set("trace.serial_over_e2e", mean(&traced.call_secs) / mean(&reference.call_secs));

    // --- What overload sheds, at the top rate.
    let top_trace =
        trace_for(top_rate, 0.15 * args.seconds, n, args.seed.wrapping_add(2), args.smoke);
    let top = open_loop(&mut s.serving, &top_trace, top_rate, ids.take(top_trace.len()), None, 0);
    println!("untraced  {}", top.describe());
    layers.set("gnn.serve_shed_share", top.shed as f64 / top.offered().max(1) as f64);

    // --- The training-side kernels on the snapshot epoch's first bulk group.
    let sampled = s.trainer.sample_epoch_eager(0).map_err(err)?;
    let sampler = sage_sampler(sizes);
    replay_first_group(&mut layers, &s.data, &sampler, sampled, sizes, args.seed)?;

    // --- Inside a serving call: sampling and forward of the kept batches,
    // replayed; the logits must be the ones the session answered.
    let mut checks = Checks::default();
    let replay_root = rec.enter("serve.replay", 0);
    let matches =
        replay_batches(&mut rec, &s.data, &sampler, s.snapshot.model(), &traced.served, args.seed)?;
    rec.exit(replay_root);
    let batches = traced.served.len().max(1) as f64;
    layers.set("sampling.micro_bulk_s", rec.total("sampling.micro_bulk").0 / batches);
    layers.set("gnn.serve_forward_s", rec.total("gnn.serve_forward").0 / batches);
    layers.set("trace.loss_matches", f64::from(u8::from(matches)));
    checks.require(matches, || "replayed logits differ from the served ones".to_string());
    checks.require(traced.errors == 0, || {
        format!("{} traced requests returned an error", traced.errors)
    });

    write_trace(&args.workload, &[rec.lane(1)])?;
    checks.report();
    Ok(Outcome {
        correct: checks.ok(),
        attempted: traced.offered() as u64,
        failed: traced.failed() as u64,
        metrics: layers.metrics(),
    })
}
