//! `dist_train`: the full training loop on p = 2, c = 1 rank *processes*
//! over Unix sockets, and the two workers the traced run adds to the
//! library's registry — a no-op (what a launch costs) and a span-recording
//! replay of the per-rank training loop.

use crate::batch::{batch_metrics, check_losses};
use crate::checks::{check_epoch, Checks};
use crate::common::{close, dataset, err, sage_sampler, timed_setups, Args, Outcome, StepLoop};
use crate::host::peak_rss_mib;
use crate::layers::Layers;
use crate::replay::replay_first_group;
use crate::spec::{self, Sizes, LEARNING_RATE};
use crate::stats::{describe, max, mean, median};
use crate::trace::{self, write_trace, Lane, Recorder, Span};
use dmbs::comm::wire::{
    get_f64s, get_u64, get_u64s, get_usize, put_f64s, put_u64, put_u64s, put_usize,
};
use dmbs::comm::{
    CommStats, Communicator, Group, Phase, ProcessGrid, Runtime, SocketLaunch, TransportSelect,
    WorkerRegistry,
};
use dmbs::gnn::metrics::RunningMean;
use dmbs::gnn::{EpochStats, FeatureStore, SageModel, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::graph::MinibatchPlan;
use dmbs::sampling::backend::group_seed;
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, Partitioned1p5dBackend, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

const RANKS: usize = 2;
const REPLICATION: usize = 1;
const NOOP_WORKER: &str = "bench.noop";
const REPLAY_WORKER: &str = "bench.replay";

/// Span names a rank may record, in wire order.
const SPAN_NAMES: [&str; 7] = [
    "epoch",
    "sampling.partitioned",
    "gnn.feature_fetch",
    "gnn.forward",
    "gnn.backward",
    "comm.allreduce",
    "gnn.optim_step",
];

/// The library's training worker plus the benchmark's two.  `main` hands
/// this to `run_if_worker` first thing, so a rank process re-executing this
/// binary finds all three.
pub fn registry() -> WorkerRegistry {
    dmbs::gnn::worker::registry().with(NOOP_WORKER, noop_worker).with(REPLAY_WORKER, replay_worker)
}

fn launch() -> TransportSelect {
    TransportSelect::UnixSocket(SocketLaunch::default().timeout_ms(120_000))
}

fn backend(sizes: &Sizes) -> Result<Partitioned1p5dBackend, String> {
    let bulk = BulkSamplerConfig::new(sizes.batch, sizes.bulk);
    Partitioned1p5dBackend::new(DistConfig::new(RANKS, REPLICATION, bulk)).map_err(err)
}

type Session = TrainingSession<GraphSageSampler, Partitioned1p5dBackend>;

fn session(data: Arc<Dataset>, sizes: &Sizes, seed: u64) -> Result<Session, String> {
    TrainingSession::builder()
        .dataset(data)
        .sampler(sage_sampler(sizes))
        .backend(backend(sizes)?)
        .hidden_dim(sizes.hidden)
        .learning_rate(LEARNING_RATE)
        .epochs(sizes.epochs_per_rep)
        .seed(seed)
        .transport(launch())
        .without_evaluation()
        .build()
        .map_err(err)
}

pub fn run(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    if args.trace {
        run_traced(args, sizes)
    } else {
        run_untraced(args, sizes)
    }
}

fn run_untraced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let (setup_s, (data, session)) = timed_setups(args.smoke, || {
        let data = Arc::new(dataset(sizes, args.seed)?);
        let session = session(Arc::clone(&data), sizes, args.seed)?;
        Ok((data, session))
    })?;
    let batches = data.num_batches(sizes.batch);
    let epochs = sizes.epochs_per_rep;

    if !args.smoke {
        session.train().map_err(err)?;
    }
    let mut epoch_secs = Vec::new();
    let mut reps: Vec<Vec<EpochStats>> = Vec::new();
    let started = Instant::now();
    // Two repetitions at least: the determinism check compares them.
    while reps.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let rep_start = Instant::now();
        let report = session.train().map_err(err)?;
        epoch_secs.push(rep_start.elapsed().as_secs_f64() / epochs as f64);
        reps.push(report.epochs);
    }

    let peak_rss_mb = peak_rss_mib();

    let mut checks = Checks::default();
    let losses: Vec<Vec<f64>> =
        reps.iter().map(|r| r.iter().map(|e| e.mean_loss).collect()).collect();
    check_losses(&mut checks, &losses);
    let books = |rep: &[EpochStats]| -> Vec<(usize, usize)> {
        rep.iter().map(|e| (e.comm.words_sent, e.comm.messages)).collect()
    };
    checks.require(reps.iter().all(|r| books(r) == books(&reps[0])), || {
        "same-seed repetitions disagree on comm.words_sent / comm.messages".to_string()
    });
    checks.require(reps[0].iter().all(|e| e.comm.words_sent > 0), || {
        "a distributed epoch sent no words".to_string()
    });
    let sampled = session.sample_epoch_eager(0).map_err(err)?;
    check_epoch(&mut checks, data.graph.adjacency(), &sampled.minibatches, sizes);

    println!(
        "epoch_s: {} (per epoch, {epochs} epochs per repetition incl. launch)",
        describe(&epoch_secs)
    );
    checks.report();
    let final_loss = *losses[0].last().expect("at least one epoch");
    Ok(Outcome {
        correct: checks.ok(),
        attempted: (reps.len() * epochs * batches) as u64,
        failed: 0,
        metrics: batch_metrics(
            setup_s,
            &epoch_secs,
            final_loss,
            peak_rss_mb,
            batches,
            data.train_set.len(),
        ),
    })
}

// ---------------------------------------------------------------------------
// Workers
// ---------------------------------------------------------------------------

fn noop_worker(_comm: &mut Communicator, _job: &[u8]) -> Result<Vec<u8>, String> {
    Ok(Vec::new())
}

/// What one rank's traced replay sends home.
struct RankTrace {
    origin_unix_ns: u64,
    spans: Vec<Span>,
    /// This rank's mean loss per epoch.
    losses: Vec<f64>,
    /// Seconds in the probability / ITS / extraction phases, from the
    /// `PhaseProfile` of every sampled shard.
    sampling_phases: [f64; 3],
    /// Words / messages this rank sent inside each kind of span.
    sampling: CommStats,
    fetch: CommStats,
    allreduce: CommStats,
}

fn delta(after: &CommStats, before: &CommStats) -> (usize, usize) {
    (after.words_sent - before.words_sent, after.messages - before.messages)
}

fn book(into: &mut CommStats, (words, messages): (usize, usize)) {
    into.words_sent += words;
    into.messages += messages;
}

/// The per-rank body of `TrainingSession::train()`'s distributed loop (no
/// cache, no overlap, dense gradients — the `dist_train` configuration),
/// replayed from public functions with a span around each layer boundary.
/// The plan and seed derivations mirror the session's; `trace.loss_matches`
/// turns 0 the day they stop doing so.
fn replay_worker(comm: &mut Communicator, job: &[u8]) -> Result<Vec<u8>, String> {
    let mut input = job;
    let seed = get_u64(&mut input).ok_or("replay job: seed")?;
    let smoke = get_u64(&mut input).ok_or("replay job: smoke")? != 0;
    let sizes = spec::sizes("dist_train", smoke).expect("known workload");
    let data = dataset(&sizes, seed)?;
    let adjacency = data.graph.adjacency();
    let features = data.graph.features().ok_or("dataset has no features")?;
    let sampler = sage_sampler(&sizes);
    let backend = backend(&sizes)?;

    let grid = ProcessGrid::new(comm.size(), REPLICATION).map_err(err)?;
    let (my_row, _) = grid.coords(comm.rank());
    let store = FeatureStore::from_full(features, grid.rows(), my_row).map_err(err)?;
    let fetch_group = Group::new(&grid.col_ranks(comm.rank())).map_err(err)?;
    let mut steps = StepLoop::new(&data, &sizes, seed)?;

    let mut rec = Recorder::with_capacity(1 << 14);
    let mut trace = RankTrace {
        origin_unix_ns: rec.origin_unix_ns,
        spans: Vec::new(),
        losses: Vec::new(),
        sampling_phases: [0.0; 3],
        sampling: CommStats::default(),
        fetch: CommStats::default(),
        allreduce: CommStats::default(),
    };
    let mut step_id = 0u64;
    for epoch in 0..sizes.epochs_per_rep {
        let mut plan_rng = StdRng::seed_from_u64(seed.wrapping_add(1 + epoch as u64));
        let plan = MinibatchPlan::new(&data.train_set, sizes.batch, &mut plan_rng).map_err(err)?;
        let epoch_seed = seed.wrapping_add((epoch as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut loss = RunningMean::new();
        let root = rec.enter("epoch", epoch as u64);
        for (gi, group) in plan.batches().chunks(sizes.bulk).enumerate() {
            let before = comm.stats();
            let shard = rec
                .span("sampling.partitioned", epoch as u64, || {
                    backend.sample_group_on_rank(
                        comm,
                        &sampler,
                        adjacency,
                        group,
                        group_seed(epoch_seed, gi),
                    )
                })
                .map_err(err)?;
            book(&mut trace.sampling, delta(&comm.stats(), &before));
            for (total, phase) in trace.sampling_phases.iter_mut().zip(Phase::sampling_phases()) {
                *total += shard.profile.compute(phase);
            }
            let my_steps = comm.allreduce(shard.samples.len(), |a, b| *a.max(b)).map_err(err)?;
            for step in 0..my_steps {
                let sample = shard.samples.get(step).map(|(_, mb)| mb);
                let wanted: Vec<usize> =
                    sample.map(|s| s.input_vertices().to_vec()).unwrap_or_default();
                let before = comm.stats();
                let input = rec
                    .span("gnn.feature_fetch", step_id, || store.fetch(comm, &fetch_group, &wanted))
                    .map_err(err)?;
                book(&mut trace.fetch, delta(&comm.stats(), &before));
                let (local_loss, grads) = match sample {
                    Some(sample) => {
                        let (l, grads) =
                            steps.loss_and_gradients(&mut rec, &data, sample, &input, step_id)?;
                        (Some(l), SageModel::flatten_grads(&grads))
                    }
                    None => (None, vec![0.0; steps.model.num_parameters()]),
                };
                let before = comm.stats();
                let (contributing, summed) = rec.span("comm.allreduce", step_id, || {
                    let contributing = comm
                        .allreduce(usize::from(local_loss.is_some()), |a, b| a + b)
                        .map_err(err)?
                        .max(1);
                    let summed = comm
                        .allreduce(grads, |a, b| a.iter().zip(b).map(|(x, y)| x + y).collect())
                        .map_err(err)?;
                    Ok::<_, String>((contributing, summed))
                })?;
                book(&mut trace.allreduce, delta(&comm.stats(), &before));
                let averaged: Vec<f64> =
                    summed.into_iter().map(|g| g / contributing as f64).collect();
                let grads = steps.model.unflatten_grads(&averaged).map_err(err)?;
                steps.apply(&mut rec, &grads, step_id)?;
                if let Some(l) = local_loss {
                    loss.push(l);
                }
                step_id += 1;
            }
        }
        rec.exit(root);
        trace.losses.push(loss.mean());
    }
    trace.spans = rec.spans;
    Ok(encode_rank_trace(&trace))
}

fn encode_rank_trace(trace: &RankTrace) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, trace.origin_unix_ns);
    put_f64s(&mut out, &trace.losses);
    put_f64s(&mut out, &trace.sampling_phases);
    for stats in [&trace.sampling, &trace.fetch, &trace.allreduce] {
        put_usize(&mut out, stats.words_sent);
        put_usize(&mut out, stats.messages);
    }
    let mut flat = Vec::with_capacity(trace.spans.len() * 5);
    for s in &trace.spans {
        let name = SPAN_NAMES.iter().position(|n| *n == s.name).expect("known span name");
        flat.extend_from_slice(&[name as u64, s.start_ns, s.end_ns, u64::from(s.parent), s.id]);
    }
    put_u64s(&mut out, &flat);
    out
}

fn decode_rank_trace(bytes: &[u8]) -> Option<RankTrace> {
    let mut input = bytes;
    let origin_unix_ns = get_u64(&mut input)?;
    let losses = get_f64s(&mut input)?;
    let sampling_phases = get_f64s(&mut input)?.try_into().ok()?;
    let mut books = [CommStats::default(); 3];
    for stats in &mut books {
        stats.words_sent = get_usize(&mut input)?;
        stats.messages = get_usize(&mut input)?;
    }
    let flat = get_u64s(&mut input)?;
    let spans = flat
        .chunks_exact(5)
        .map(|c| {
            Some(Span {
                name: SPAN_NAMES.get(c[0] as usize)?,
                start_ns: c[1],
                end_ns: c[2],
                parent: c[3] as u32,
                id: c[4],
            })
        })
        .collect::<Option<Vec<Span>>>()?;
    let [sampling, fetch, allreduce] = books;
    Some(RankTrace { origin_unix_ns, spans, losses, sampling_phases, sampling, fetch, allreduce })
}

fn run_traced(args: &Args, sizes: &Sizes) -> Result<Outcome, String> {
    let mut layers = Layers::new();
    let build_start = Instant::now();
    let data = Arc::new(dataset(sizes, args.seed)?);
    layers.set("graph.build_dataset_s", build_start.elapsed().as_secs_f64());
    let session = session(Arc::clone(&data), sizes, args.seed)?;
    let epochs = sizes.epochs_per_rep;
    let per_epoch = 1.0 / epochs as f64;

    // --- The untraced reference run and its exact per-epoch books.
    if !args.smoke {
        session.train().map_err(err)?;
    }
    let reference_start = Instant::now();
    let reference = session.train().map_err(err)?.epochs;
    let reference_epoch_s = reference_start.elapsed().as_secs_f64() * per_epoch;
    let last = reference.last().expect("at least one epoch");
    layers.set("comm.words_sent", last.comm.words_sent as f64);
    layers.set("comm.messages", last.comm.messages as f64);
    layers.set("comm.bytes_on_wire", last.comm.bytes_on_wire as f64);
    layers.set("comm.modeled_s", last.comm.modeled_time);
    layers.set_phases(last);

    // --- What a launch costs: spawn + rendezvous + job ship, nothing else.
    let mut rec = Recorder::with_capacity(16);
    let runtime = Runtime::new(RANKS).map_err(err)?.with_transport(launch());
    let registry = registry();
    for i in 0..3 {
        rec.span("comm.launch", i, || runtime.run_worker(&registry, NOOP_WORKER, &[]))
            .map_err(err)?;
    }
    let launches: Vec<f64> =
        rec.spans.iter().filter(|s| s.name == "comm.launch").map(Span::seconds).collect();
    layers.set("comm.launch_s", median(&launches));

    // --- The traced replay on the same two socket ranks.
    let mut job = Vec::new();
    put_u64(&mut job, args.seed);
    put_u64(&mut job, u64::from(args.smoke));
    let outputs = rec
        .span("replay", 0, || runtime.run_worker(&registry, REPLAY_WORKER, &job))
        .map_err(err)?;
    let ranks: Vec<RankTrace> = outputs
        .iter()
        .map(|o| decode_rank_trace(&o.value).ok_or("malformed rank trace".to_string()))
        .collect::<Result<_, _>>()?;

    let over_ranks = |name: &str| -> Vec<f64> {
        ranks.iter().map(|r| trace::total(&r.spans, name).0 * per_epoch).collect()
    };
    layers.set("sampling.partitioned_epoch_s", max(&over_ranks("sampling.partitioned")));
    for (i, name) in
        ["sampling.probability_s", "sampling.its_s", "sampling.extraction_s"].iter().enumerate()
    {
        let slowest = ranks.iter().map(|r| r.sampling_phases[i]).fold(0.0, f64::max);
        layers.set(name, slowest * per_epoch);
    }
    layers.set("gnn.feature_fetch_s", max(&over_ranks("gnn.feature_fetch")));
    layers.set("gnn.forward_s", max(&over_ranks("gnn.forward")));
    layers.set("gnn.backward_s", max(&over_ranks("gnn.backward")));
    layers.set("gnn.optim_step_s", max(&over_ranks("gnn.optim_step")));
    layers.set("comm.allreduce_s", max(&over_ranks("comm.allreduce")));
    let sum = |pick: fn(&RankTrace) -> usize| -> f64 {
        ranks.iter().map(pick).sum::<usize>() as f64 * per_epoch
    };
    layers.set("sampling.partitioned_words", sum(|r| r.sampling.words_sent));
    layers.set("gnn.feature_fetch_words", sum(|r| r.fetch.words_sent));
    layers.set("gnn.feature_fetch_messages", sum(|r| r.fetch.messages));
    layers.set("comm.allreduce_words", sum(|r| r.allreduce.words_sent));
    let steps = ranks[0].spans.iter().filter(|s| s.name == "comm.allreduce").count();
    layers.set("gnn.steps", steps as f64 * per_epoch);
    // With two parallel ranks the slower sets every step: max ÷ mean of the
    // per-rank seconds spent in spans that hold no collective.
    let busy: Vec<f64> = ranks
        .iter()
        .map(|r| {
            ["gnn.forward", "gnn.backward", "gnn.optim_step"]
                .iter()
                .map(|n| trace::total(&r.spans, n).0)
                .sum()
        })
        .collect();
    layers.set("comm.rank_skew", max(&busy) / mean(&busy));

    let traced_epoch_s = max(&over_ranks("epoch"));
    layers.set("trace.serial_over_e2e", traced_epoch_s / reference_epoch_s);
    layers.set("gnn.overlap_hidden_share", 1.0 - reference_epoch_s / traced_epoch_s);
    let closure = ranks.iter().map(|r| trace::closure_err(&r.spans, "epoch")).fold(0.0, f64::max);
    layers.set("trace.closure_err", closure);

    // --- train() reports the mean over ranks of the per-rank mean losses.
    let mut checks = Checks::default();
    let matches = (0..epochs).all(|e| {
        let mut loss = RunningMean::new();
        for r in &ranks {
            if r.losses[e] > 0.0 {
                loss.push(r.losses[e]);
            }
        }
        close(loss.mean(), reference[e].mean_loss)
    });
    layers.set("trace.loss_matches", f64::from(u8::from(matches)));
    checks.require(matches, || "the traced replay did not reproduce train()'s losses".to_string());

    // --- The sampled output itself, and the kernel replays on its first
    // bulk group.
    let partitioned_epoch_s = layers.get("sampling.partitioned_epoch_s");
    layers.set("sampling.sample_epoch_s", partitioned_epoch_s);
    let sampled = session.sample_epoch_eager(0).map_err(err)?;
    replay_first_group(&mut layers, &data, &sage_sampler(sizes), sampled, sizes, args.seed)?;

    let mut lanes = vec![rec.lane(1)];
    for (rank, r) in ranks.iter().enumerate() {
        lanes.push(Lane { pid: rank + 2, origin_unix_ns: r.origin_unix_ns, spans: &r.spans });
    }
    write_trace(&args.workload, &lanes)?;
    checks.report();
    Ok(Outcome {
        correct: checks.ok(),
        attempted: (epochs * data.num_batches(sizes.batch)) as u64,
        failed: 0,
        metrics: layers.metrics(),
    })
}
