//! The three single-device batch workloads: `sage_sample`, `ladies_train`,
//! `sage_train`.  One generic body drives any sampler through a
//! `TrainingSession` on a `LocalBackend`; `train == false` times the sampling
//! epochs alone.

use crate::checks::{check_epoch, Checks};
use crate::common::{close, dataset, err, timed_setups, Args, Outcome, StepLoop};
use crate::host::peak_rss_mib;
use crate::layers::Layers;
use crate::replay::replay_first_group;
use crate::spec::{Sizes, LEARNING_RATE};
use crate::stats::{describe, median};
use crate::trace::{write_trace, Recorder};
use dmbs::comm::Phase;
use dmbs::gnn::{EpochStats, TrainingSession};
use dmbs::graph::datasets::Dataset;
use dmbs::sampling::{BulkSampleOutput, BulkSamplerConfig, LocalBackend, Sampler};
use std::sync::Arc;
use std::time::Instant;

type Session<S> = TrainingSession<S, LocalBackend>;

fn session<S: Sampler>(
    dataset: Arc<Dataset>,
    sampler: S,
    sizes: &Sizes,
    seed: u64,
) -> Result<Session<S>, String> {
    let backend =
        LocalBackend::new(BulkSamplerConfig::new(sizes.batch, sizes.bulk)).map_err(err)?;
    TrainingSession::builder()
        .dataset(dataset)
        .sampler(sampler)
        .backend(backend)
        .hidden_dim(sizes.hidden)
        .learning_rate(LEARNING_RATE)
        .epochs(sizes.epochs_per_rep)
        .seed(seed)
        .without_evaluation()
        .build()
        .map_err(err)
}

/// What one repetition produced: the sampled epoch (`sage_sample`) or the
/// per-epoch statistics of `train()`.
enum Rep {
    Sampled(BulkSampleOutput),
    Trained(Vec<EpochStats>),
}

fn one_rep<S>(session: &Session<S>, train: bool, rep: usize) -> Result<Rep, String>
where
    S: Sampler + Send + Sync + 'static,
{
    if train {
        Ok(Rep::Trained(session.train().map_err(err)?.epochs))
    } else {
        Ok(Rep::Sampled(session.sample_epoch_eager(rep).map_err(err)?))
    }
}

/// The end-to-end metrics of a batch workload from its per-epoch samples.
/// A batch workload has one timing, so outside their home workload the four
/// `serve_*` names restate it: seconds per minibatch (the unit of service)
/// and seed vertices per second (see README.md, "End-to-end metrics").
pub fn batch_metrics(
    setup_s: f64,
    epoch_secs: &[f64],
    final_loss: f64,
    peak_rss_mb: f64,
    batches_per_epoch: usize,
    seeds_per_epoch: usize,
) -> Vec<(&'static str, f64, &'static str)> {
    let epoch_s = median(epoch_secs);
    let per_batch_s = epoch_s / batches_per_epoch as f64;
    let seeds_per_s = seeds_per_epoch as f64 / epoch_s;
    vec![
        ("setup_s", setup_s, "s"),
        ("epoch_s", epoch_s, "s"),
        ("final_loss", final_loss, "nats"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("serve_p50_s", per_batch_s, "s"),
        ("serve_p99_s", per_batch_s, "s"),
        ("serve_capacity_rps", seeds_per_s, "req/s"),
        ("serve_max_rate_rps", seeds_per_s, "req/s"),
    ]
}

/// Loss checks shared with `dist_train`: finite, below the first epoch's
/// (where a repetition has more than one epoch), and bit-identical across
/// same-seed repetitions.
pub fn check_losses(checks: &mut Checks, reps: &[Vec<f64>]) {
    let first = &reps[0];
    checks.require(first.iter().all(|l| l.is_finite()), || format!("non-finite loss in {first:?}"));
    let final_loss = *first.last().expect("at least one epoch");
    checks.require(first.len() == 1 || final_loss < first[0], || {
        format!("final loss {final_loss} is not below the first epoch's {}", first[0])
    });
    let same = reps.iter().all(|r| {
        r.len() == first.len() && r.iter().zip(first).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    checks.require(same, || "same-seed repetitions disagree on the loss".to_string());
}

pub fn run<S>(args: &Args, sizes: &Sizes, sampler: S, train: bool) -> Result<Outcome, String>
where
    S: Sampler + Clone + Send + Sync + 'static,
{
    if args.trace {
        run_traced(args, sizes, sampler, train)
    } else {
        run_untraced(args, sizes, sampler, train)
    }
}

fn run_untraced<S>(args: &Args, sizes: &Sizes, sampler: S, train: bool) -> Result<Outcome, String>
where
    S: Sampler + Clone + Send + Sync + 'static,
{
    let (setup_s, (data, session)) = timed_setups(args.smoke, || {
        let data = Arc::new(dataset(sizes, args.seed)?);
        let session = session(Arc::clone(&data), sampler.clone(), sizes, args.seed)?;
        Ok((data, session))
    })?;
    let batches = data.num_batches(sizes.batch);

    // The first repetition faults the pages in and grows the kernel
    // workspace; it is not a sample.
    if !args.smoke {
        one_rep(&session, train, 0)?;
    }
    let mut epoch_secs = Vec::new();
    let mut losses: Vec<Vec<f64>> = Vec::new();
    let mut last_sampled = None;
    let started = Instant::now();
    loop {
        // Only one sampled epoch is ever live, so peak memory is one epoch's.
        drop(last_sampled.take());
        let rep_start = Instant::now();
        let rep = one_rep(&session, train, epoch_secs.len())?;
        epoch_secs.push(rep_start.elapsed().as_secs_f64() / sizes.epochs_per_rep as f64);
        match rep {
            Rep::Sampled(output) => last_sampled = Some(output),
            Rep::Trained(epochs) => losses.push(epochs.iter().map(|e| e.mean_loss).collect()),
        }
        if started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Read before the checks below allocate: they hold a whole sampled epoch,
    // which the workload itself never does.
    let peak_rss_mb = peak_rss_mib();

    // --- Correctness, outside the timed region.
    let mut checks = Checks::default();
    let adjacency = data.graph.adjacency();
    let final_loss = if train {
        check_losses(&mut checks, &losses);
        let sampled = session.sample_epoch_eager(0).map_err(err)?;
        check_epoch(&mut checks, adjacency, &sampled.minibatches, sizes);
        *losses[0].last().expect("at least one epoch")
    } else {
        let sampled = last_sampled.expect("at least one repetition");
        check_epoch(&mut checks, adjacency, &sampled.minibatches, sizes);
        // Nothing trains here, so the loss is that of the sampler's output
        // put to use: one bulk group of real training steps on the last
        // sampled epoch, which also proves the samples are consumable.
        let mut steps = StepLoop::new(&data, sizes, args.seed)?;
        let mut rec = Recorder::with_capacity(64);
        let mut loss = 0.0;
        for (i, sample) in sampled.minibatches.iter().take(sizes.bulk).enumerate() {
            loss = steps.step(&mut rec, &data, sample, i as u64)?;
        }
        checks.require(loss.is_finite(), || format!("non-finite loss {loss}"));
        loss
    };

    println!(
        "epoch_s: {} (per epoch, {} epochs per repetition)",
        describe(&epoch_secs),
        sizes.epochs_per_rep
    );
    checks.report();
    let reps = epoch_secs.len() as u64;
    Ok(Outcome {
        correct: checks.ok(),
        attempted: reps * (sizes.epochs_per_rep * batches) as u64,
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

fn run_traced<S>(args: &Args, sizes: &Sizes, sampler: S, train: bool) -> Result<Outcome, String>
where
    S: Sampler + Clone + Send + Sync + 'static,
{
    let mut layers = Layers::new();
    let build_start = Instant::now();
    let data = Arc::new(dataset(sizes, args.seed)?);
    layers.set("graph.build_dataset_s", build_start.elapsed().as_secs_f64());
    let session = session(Arc::clone(&data), sampler.clone(), sizes, args.seed)?;
    let epochs = sizes.epochs_per_rep;

    // --- The untraced reference: what the traced replay is compared with.
    if !args.smoke {
        one_rep(&session, train, 0)?;
    }
    let reference_start = Instant::now();
    let reference = one_rep(&session, train, 0)?;
    let reference_epoch_s = reference_start.elapsed().as_secs_f64() / epochs as f64;

    // --- The traced serial replay of the same epochs.
    let mut rec = Recorder::with_capacity(1 << 16);
    let mut steps = if train { Some(StepLoop::new(&data, sizes, args.seed)?) } else { None };
    let mut replay_losses = Vec::with_capacity(epochs);
    let mut first_epoch = None;
    let mut step_id = 0u64;
    for epoch in 0..epochs {
        let root = rec.enter("epoch", epoch as u64);
        let sampled = rec
            .span("sampling.sample_epoch", epoch as u64, || session.sample_epoch_eager(epoch))
            .map_err(err)?;
        if let Some(steps) = steps.as_mut() {
            let mut loss = dmbs::gnn::metrics::RunningMean::new();
            for sample in &sampled.minibatches {
                loss.push(steps.step(&mut rec, &data, sample, step_id)?);
                step_id += 1;
            }
            replay_losses.push(loss.mean());
        }
        rec.exit(root);
        layers.add("sampling.probability_s", sampled.profile.compute(Phase::Probability));
        layers.add("sampling.its_s", sampled.profile.compute(Phase::Sampling));
        layers.add("sampling.extraction_s", sampled.profile.compute(Phase::Extraction));
        if epoch == 0 {
            first_epoch = Some(sampled);
        }
    }
    let per_epoch = 1.0 / epochs as f64;
    for name in ["sampling.probability_s", "sampling.its_s", "sampling.extraction_s"] {
        let total = layers.get(name);
        layers.set(name, total * per_epoch);
    }
    let traced_epoch_s = rec.total("epoch").0 * per_epoch;
    layers.set("sampling.sample_epoch_s", rec.total("sampling.sample_epoch").0 * per_epoch);
    for (metric, span) in [
        ("gnn.gather_s", "gnn.gather"),
        ("gnn.forward_s", "gnn.forward"),
        ("gnn.backward_s", "gnn.backward"),
        ("gnn.optim_step_s", "gnn.optim_step"),
    ] {
        layers.set(metric, rec.total(span).0 * per_epoch);
    }
    layers.set("gnn.steps", rec.total("gnn.forward").1 as f64 * per_epoch);
    let first_epoch = first_epoch.expect("at least one epoch");
    layers.set("trace.closure_err", rec.closure_err("epoch"));
    layers.set("trace.serial_over_e2e", traced_epoch_s / reference_epoch_s);
    layers.set("gnn.overlap_hidden_share", 1.0 - reference_epoch_s / traced_epoch_s);

    // --- Did the trace measure the same computation?
    let mut checks = Checks::default();
    let matches = match &reference {
        Rep::Trained(stats) => {
            layers.set_phases(stats.last().expect("at least one epoch"));
            stats.len() == replay_losses.len()
                && stats.iter().zip(&replay_losses).all(|(s, &l)| close(l, s.mean_loss))
        }
        Rep::Sampled(output) => output.minibatches == first_epoch.minibatches,
    };
    layers.set("trace.loss_matches", f64::from(u8::from(matches)));
    checks.require(matches, || "the traced replay did not reproduce the untraced run".to_string());

    replay_first_group(&mut layers, &data, &sampler, first_epoch, sizes, args.seed)?;
    write_trace(&args.workload, &[rec.lane(1)])?;
    checks.report();
    Ok(Outcome {
        correct: checks.ok(),
        attempted: (epochs * data.num_batches(sizes.batch)) as u64,
        failed: 0,
        metrics: layers.metrics(),
    })
}
