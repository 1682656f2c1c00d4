//! Kernel replays for the traced run: each public kernel of the `matrix`,
//! `sampling` and `comm` layers is timed alone on the operands the
//! workload's first bulk group really produced, and reports seconds *and* a
//! work count so ns/item follows.  Every replay is a pure function of the
//! captured samples, so it runs on every workload; which replay matters to
//! which workload is the README's interaction table.

use crate::layers::Layers;
use crate::spec::{SamplerKind, Sizes};
use crate::stats::median;
use dmbs::comm::{Codec, WireRows};
use dmbs::graph::datasets::Dataset;
use dmbs::graph::MinibatchPlan;
use dmbs::matrix::extract::{extract_columns_masked, extract_rows};
use dmbs::matrix::spgemm::spgemm_parallel;
use dmbs::matrix::spmm::{spmm, spmm_transpose};
use dmbs::matrix::{CooMatrix, CsrMatrix, DenseMatrix, Parallelism};
use dmbs::sampling::its::sample_rows_par;
use dmbs::sampling::{
    request_stream_seed, sample_micro_bulk, BulkSampleOutput, BulkSamplerConfig, FetchPlan,
    MicroRequest, MinibatchSample, Sampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per replay; the median is reported.
const REPS: usize = 3;

/// Median seconds of `REPS` calls of `f`, and the last result.
fn timed<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut seconds = Vec::with_capacity(REPS);
    let mut last = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let value = black_box(f()?);
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((median(&seconds), last.expect("REPS > 0")))
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The `k × n` indicator matrix of LADIES: row `i` marks batch `i`'s
/// frontier.
fn indicator(frontiers: &[&[usize]], n: usize) -> Result<CsrMatrix, String> {
    let mut coo = CooMatrix::new(frontiers.len(), n);
    for (i, frontier) in frontiers.iter().enumerate() {
        let mut unique = frontier.to_vec();
        unique.sort_unstable();
        unique.dedup();
        for v in unique {
            coo.push(i, v, 1.0).map_err(err)?;
        }
    }
    Ok(CsrMatrix::from_coo(&coo))
}

/// Books the exact counts of `epoch` (a sampled epoch 0) and replays every
/// kernel on its first bulk group.
pub fn replay_first_group<S: Sampler>(
    layers: &mut Layers,
    dataset: &Dataset,
    sampler: &S,
    epoch: BulkSampleOutput,
    sizes: &Sizes,
    seed: u64,
) -> Result<(), String> {
    layers.set("sampling.sampled_edges", epoch.total_edges() as f64);
    let inputs: usize = epoch.minibatches.iter().map(|s| s.input_vertices().len()).sum();
    layers.set("sampling.input_vertices", inputs as f64);
    let mut group = epoch.minibatches;
    group.truncate(sizes.bulk);
    replay_kernels(layers, dataset, sampler, &group, sizes, seed)
}

/// Replays every kernel on the operands of `group` (the workload's first
/// bulk group, sampled with the workload's own sampler) and books the
/// results into `layers`.
fn replay_kernels<S: Sampler>(
    layers: &mut Layers,
    dataset: &Dataset,
    sampler: &S,
    group: &[MinibatchSample],
    sizes: &Sizes,
    seed: u64,
) -> Result<(), String> {
    let adjacency = dataset.graph.adjacency();
    let features = dataset.graph.features().ok_or("dataset has no features")?;
    let serial = Parallelism::serial();
    let num_layers = sizes.fanouts.len();

    // --- The sampling steps, outermost first, exactly as the samplers walk
    // them: step t's frontier is the rows of layer L-1-t.
    for step in 0..num_layers {
        let layer = num_layers - 1 - step;
        let frontiers: Vec<&[usize]> =
            group.iter().map(|mb| mb.layers[layer].rows.as_slice()).collect();
        let mut stacked: Vec<usize> = Vec::new();
        let mut offsets = vec![0usize];
        for frontier in &frontiers {
            stacked.extend_from_slice(frontier);
            offsets.push(stacked.len());
        }

        // matrix/extract.rs: the stacked-frontier row gather.
        let (secs, a_r) = timed(|| extract_rows(adjacency, &stacked, serial).map_err(err))?;
        layers.add("matrix.extract_rows_s", secs);
        layers.add("matrix.extract_rows_nnz", a_r.nnz() as f64);

        // matrix/spgemm.rs: the LADIES indicator product Q·A.
        let q = indicator(&frontiers, adjacency.rows())?;
        let (secs, qa) = timed(|| spgemm_parallel(&q, adjacency, serial).map_err(err))?;
        let flops: usize = q.indices().iter().map(|&v| 2 * adjacency.row_nnz(v)).sum();
        layers.add("matrix.spgemm_s", secs);
        layers.add("matrix.spgemm_flops", flops as f64);

        // sampling/its.rs: per-row ITS on the P this workload's sampler
        // builds (node-wise: normalised gathered rows; layer-wise: squared
        // and normalised aggregated rows).
        let mut p = match sizes.kind {
            SamplerKind::Sage => a_r.clone(),
            SamplerKind::Ladies => qa.map_values(|v| v * v),
        };
        p.normalize_rows();
        let its_seed = seed.wrapping_add(step as u64);
        let (secs, _) =
            timed(|| sample_rows_par(&p, sizes.fanouts[step], its_seed, serial).map_err(err))?;
        layers.add("sampling.its_rows_s", secs);
        layers.add("sampling.its_rows", p.rows() as f64);
        layers.add("sampling.its_nnz", p.nnz() as f64);
        drop(p);

        // matrix/extract.rs: the masked column filter, one block per batch.
        let blocks: Vec<CsrMatrix> =
            (0..group.len()).map(|i| a_r.row_block(offsets[i], offsets[i + 1])).collect();
        let (secs, _) = timed(|| {
            for (block, mb) in blocks.iter().zip(group) {
                black_box(extract_columns_masked(block, &mb.layers[layer].cols).map_err(err)?);
            }
            Ok(())
        })?;
        layers.add("matrix.extract_columns_s", secs);
        layers.add(
            "matrix.extract_columns_nnz",
            blocks.iter().map(CsrMatrix::nnz).sum::<usize>() as f64,
        );
    }

    // --- Propagation kernels on the first minibatch's innermost layer.
    let first = &group[0];
    let inner = &first.layers[0];
    let (secs, input) = timed(|| features.gather_rows(first.input_vertices()).map_err(err))?;
    layers.set("matrix.gather_rows_s", secs);
    layers.set("matrix.gather_rows_bytes", input.nbytes() as f64);
    let (secs, aggregated) = timed(|| spmm(&inner.adjacency, &input).map_err(err))?;
    layers.set("matrix.spmm_s", secs);
    layers.set("matrix.spmm_flops", (2 * inner.adjacency.nnz() * input.cols()) as f64);
    let (secs, _) = timed(|| spmm_transpose(&inner.adjacency, &aggregated).map_err(err))?;
    layers.set("matrix.spmm_transpose_s", secs);
    let weights = DenseMatrix::random_uniform(
        input.cols(),
        sizes.hidden,
        0.1,
        &mut StdRng::seed_from_u64(seed),
    );
    let (secs, _) = timed(|| aggregated.matmul(&weights).map_err(err))?;
    layers.set("matrix.dense_matmul_s", secs);
    layers.set(
        "matrix.dense_matmul_flops",
        (2 * aggregated.rows() * input.cols() * sizes.hidden) as f64,
    );

    // --- sampling/plan.rs and sampling/micro.rs.
    let (secs, plan) = timed(|| Ok(FetchPlan::from_minibatches(group)))?;
    layers.set("sampling.fetch_plan_s", secs);
    layers.set(
        "sampling.fetch_duplicate_share",
        plan.duplicate_requests() as f64 / plan.total_requests().max(1) as f64,
    );
    let requests: Vec<MicroRequest> = first
        .batch
        .iter()
        .take(crate::spec::SERVE_MICRO_BULK)
        .enumerate()
        .map(|(i, &vertex)| MicroRequest { vertex, seed: request_stream_seed(seed, i as u64) })
        .collect();
    let micro_config = BulkSamplerConfig::new(1, 1);
    let (secs, _) =
        timed(|| sample_micro_bulk(sampler, adjacency, &requests, &micro_config).map_err(err))?;
    layers.set("sampling.micro_bulk_s", secs);

    // --- comm/codec.rs on a reply block: the first minibatch's feature rows.
    let (secs, wire) =
        timed(|| Ok(WireRows::from_rows(Codec::Exact, input.cols(), input.as_slice())))?;
    layers.set("comm.wire_encode_s", secs);
    layers.set("comm.wire_bytes", input.nbytes() as f64);
    let (secs, _) = timed(|| Ok(wire.rows()))?;
    layers.set("comm.wire_decode_s", secs);

    // --- graph/minibatch.rs.
    let (secs, _) = timed(|| {
        MinibatchPlan::new(&dataset.train_set, sizes.batch, &mut StdRng::seed_from_u64(seed))
            .map_err(err)
    })?;
    layers.set("graph.minibatch_plan_s", secs);
    Ok(())
}
