//! Allocations per steady-state unit of work, counted by a
//! `#[global_allocator]` that wraps [`System`] with **thread-local**
//! counters — so neither a sampling worker nor the other tests running in
//! parallel threads can touch the numbers — at `Parallelism` 1, after a
//! warm-up.  Unlike wall time or RSS, these counts repeat exactly at a fixed
//! seed, so they are pinned as constants and CI re-derives them.
//!
//! Units: one forward step and one backward step of a 3-layer GraphSAGE
//! model, one GraphSAGE bulk sampling step, one LADIES bulk sampling step,
//! one served request and one 1.5D probability step (the sparsity-aware
//! SpGEMM on rank 0 of a 2 × 1 grid, counted inside its simulator rank
//! thread).  The allocator also books frees, so for the two sampling units
//! the **high-water mark of live bytes** is pinned too: measured on a fresh
//! thread (whose kernel workspace starts empty) over the warm-up steps and
//! the measured one, it is the deterministic counterpart of the resident
//! set size a sampling epoch needs.  Besides the pins, three properties hold
//! without constants:
//! propagation and the 1.5D probability step allocate the same number of
//! times on a frontier four times as large (a fixed number of buffers per
//! layer or stage, none per row), and a sampling step allocates as much
//! after five steps as after one.
//!
//! **Re-pin rule.**  A change that moves a count fails
//! `allocation_counts_are_pinned` (or `sampling_live_bytes_are_pinned`),
//! which prints the measured table.  Copy the new value into [`PINNED`]
//! (or [`PINNED_LIVE_PEAK`]) only for a unit the change meant to move,
//! and state the old and new numbers, with the reason, in `CHANGES.md`; a
//! count that rises needs a reason, not just a re-pin.  A toolchain upgrade
//! that moves a count is re-pinned the same way, saying so.

use dmbs::comm::{Phase, PhaseProfile, ProcessGrid, Runtime};
use dmbs::gnn::loss::cross_entropy;
use dmbs::gnn::{ModelSnapshot, SageModel, ServingConfig, ServingSession};
use dmbs::graph::datasets::{build_dataset, Dataset, DatasetConfig};
use dmbs::graph::partition::OneDPartition;
use dmbs::matrix::ops::row_selection_matrix;
use dmbs::matrix::DenseMatrix;
use dmbs::sampling::partitioned::spgemm_1p5d_sparsity_aware;
use dmbs::sampling::{
    BulkSamplerConfig, GraphSageSampler, LadiesSampler, MinibatchSample, Sampler,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Allocations and bytes requested (a `realloc` counts as one allocation of
/// its new size).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Allocs {
    count: u64,
    bytes: u64,
}

/// Bytes allocated and not yet freed on this thread, and their high-water
/// mark.  Signed: a thread may free what another allocated.
#[derive(Debug, Clone, Copy)]
struct Live {
    now: i64,
    peak: i64,
}

thread_local! {
    static COUNTED: Cell<Allocs> = const { Cell::new(Allocs { count: 0, bytes: 0 }) };
    static LIVE: Cell<Live> = const { Cell::new(Live { now: 0, peak: 0 }) };
}

struct Counting;

fn note(bytes: usize) {
    // `try_with`: a thread may still allocate while its locals are torn down.
    let _ = COUNTED.try_with(|c| {
        let a = c.get();
        c.set(Allocs { count: a.count + 1, bytes: a.bytes + bytes as u64 });
    });
}

/// Books `delta` bytes more (or fewer) live on this thread.
fn note_live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get().now + delta;
        l.set(Live { now, peak: l.get().peak.max(now) });
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; the counter is a
// const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        note_live(layout.size() as i64);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        note_live(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged; `ptr` came from this allocator, that
        // is from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_live(-(layout.size() as i64));
        // SAFETY: as in `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns what it allocated on this thread.
fn measure<R>(f: impl FnOnce() -> R) -> (R, Allocs) {
    let before = COUNTED.with(Cell::get);
    let out = f();
    let after = COUNTED.with(Cell::get);
    (out, Allocs { count: after.count - before.count, bytes: after.bytes - before.bytes })
}

/// The pinned counts, one row per unit.
const PINNED: [(&str, Allocs); 6] = [
    ("forward step", Allocs { count: 20, bytes: 956_408 }),
    ("backward step", Allocs { count: 27, bytes: 460_440 }),
    ("graphsage bulk sampling step", Allocs { count: 86, bytes: 1_200_888 }),
    ("ladies bulk sampling step", Allocs { count: 133, bytes: 1_104_496 }),
    ("served request", Allocs { count: 70, bytes: 206_192 }),
    ("1.5d probability step", Allocs { count: 25, bytes: 157_112 }),
];

/// The pinned high-water marks of live bytes of the two sampling units.
const PINNED_LIVE_PEAK: [(&str, i64); 2] =
    [("graphsage bulk sampling step", 1_066_256), ("ladies bulk sampling step", 1_144_252)];

const FANOUTS: [usize; 3] = [15, 10, 5];

fn dataset() -> Dataset {
    let mut cfg = DatasetConfig::products_like(10); // 1,024 vertices
    cfg.feature_dim = 16;
    cfg.num_classes = 4;
    cfg.train_fraction = 0.5;
    build_dataset(&cfg, &mut StdRng::seed_from_u64(28)).expect("dataset")
}

/// A model at `Parallelism` 1, the default.
fn model() -> SageModel {
    SageModel::new(16, 16, 4, FANOUTS.len(), &mut StdRng::seed_from_u64(3)).expect("model")
}

/// A GraphSAGE sample of `batch_size` training vertices, its input rows and
/// its labels.
fn sage_sample(data: &Dataset, batch_size: usize) -> (MinibatchSample, DenseMatrix, Vec<usize>) {
    let batch = data.train_set[..batch_size].to_vec();
    let sampler = GraphSageSampler::new(FANOUTS.to_vec()).with_self_loops();
    let adjacency = data.graph.adjacency();
    let sample =
        sampler.sample_minibatch(adjacency, &batch, &mut StdRng::seed_from_u64(5)).expect("sample");
    let features = data.graph.features().expect("features");
    let input = features.gather_rows(sample.input_vertices()).expect("gather");
    let labels = data.graph.labels().expect("labels");
    let batch_labels = batch.iter().map(|&v| labels[v]).collect();
    (sample, input, batch_labels)
}

/// Forward and backward allocations of one steady-state step: two warm-up
/// steps, then the measured one.
fn propagation_step(data: &Dataset, batch_size: usize) -> (Allocs, Allocs) {
    let model = model();
    let (sample, input, labels) = sage_sample(data, batch_size);
    let mut last = None;
    for _ in 0..3 {
        let ((logits, cache), forward) = measure(|| model.forward(&sample, &input).unwrap());
        let (_, d_logits) = cross_entropy(&logits, &labels).unwrap();
        let (_, backward) = measure(|| model.backward(&cache, &d_logits).unwrap());
        last = Some((forward, backward));
    }
    last.expect("three steps ran")
}

/// One bulk sampling step (4 batches of 64) after `warm` steps on the same
/// thread.
fn sampling_step(data: &Dataset, sampler: &dyn Sampler, warm: usize) -> Allocs {
    let batches: Vec<Vec<usize>> =
        data.train_set.chunks(64).take(4).map(<[usize]>::to_vec).collect();
    let config = BulkSamplerConfig::new(64, 4);
    let adjacency = data.graph.adjacency();
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..warm {
        sampler.sample_bulk(adjacency, &batches, &config, &mut rng).unwrap();
    }
    let mut rng = StdRng::seed_from_u64(8);
    measure(|| sampler.sample_bulk(adjacency, &batches, &config, &mut rng).unwrap()).1
}

/// The high-water mark of live bytes on a fresh thread over two warm-up
/// sampling steps and the measured one.
fn sampling_live_peak(data: &Dataset, sampler: &(dyn Sampler + Sync)) -> i64 {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                sampling_step(data, sampler, 2);
                LIVE.with(|l| l.get().peak)
            })
            .join()
            .expect("the sampling thread finished")
    })
}

/// One request served after eight warm-up requests.  The hot tier is off,
/// so no periodic rewarm lands on the measured request.
fn served_request(data: Dataset) -> Allocs {
    let snapshot = ModelSnapshot::new(model(), data.graph.num_vertices()).unwrap();
    let config = ServingConfig { hot_capacity: 0, ..ServingConfig::default() };
    let sampler = GraphSageSampler::new(FANOUTS.to_vec()).with_self_loops();
    let mut session = ServingSession::new(Arc::new(data), sampler, snapshot, config).unwrap();
    for v in 0..8 {
        session.serve_one(v * 17).unwrap();
    }
    measure(|| session.serve_one(400).unwrap()).1
}

/// One 1.5D probability step `P = Q · A` on a 2 × 1 grid, `Q` selecting
/// `batch_size` training vertices per process row, after two warm-up steps
/// on the same rank threads; what each rank allocated, by rank.
fn one_five_d_step(data: &Dataset, batch_size: usize) -> Vec<Allocs> {
    let grid = ProcessGrid::new(2, 1).unwrap();
    let adjacency = data.graph.adjacency();
    let n = adjacency.rows();
    let partition = OneDPartition::new(n, grid.rows()).unwrap();
    let blocks = partition.split_csr(adjacency).unwrap();
    let outs = Runtime::new(2)
        .unwrap()
        .run(|comm| {
            let (row, _) = grid.coords(comm.rank());
            let batch = &data.train_set[row * batch_size..(row + 1) * batch_size];
            let q = row_selection_matrix(batch, n).unwrap();
            let mut profile = PhaseProfile::new();
            let mut step = || {
                spgemm_1p5d_sparsity_aware(
                    comm,
                    &grid,
                    &q,
                    &blocks[row],
                    &partition,
                    &mut profile,
                    Phase::Probability,
                )
                .unwrap()
            };
            for _ in 0..2 {
                step();
            }
            measure(step).1
        })
        .unwrap();
    outs.into_iter().map(|out| out.value).collect()
}

fn ladies() -> LadiesSampler {
    LadiesSampler::new(FANOUTS.len(), 128).with_previous_included()
}

fn graphsage() -> GraphSageSampler {
    GraphSageSampler::new(FANOUTS.to_vec()).with_self_loops()
}

#[test]
fn allocation_counts_are_pinned() {
    let data = dataset();
    let (forward, backward) = propagation_step(&data, 64);
    let one_five_d = one_five_d_step(&data, 64)[0];
    let measured = [
        ("forward step", forward),
        ("backward step", backward),
        ("graphsage bulk sampling step", sampling_step(&data, &graphsage(), 2)),
        ("ladies bulk sampling step", sampling_step(&data, &ladies(), 2)),
        ("served request", served_request(data)),
        ("1.5d probability step", one_five_d),
    ];
    let table: String = measured
        .iter()
        .map(|(unit, a)| {
            format!("    (\"{unit}\", Allocs {{ count: {}, bytes: {} }}),\n", a.count, a.bytes)
        })
        .collect();
    assert_eq!(measured, PINNED, "allocation counts moved; measured:\n{table}");
}

#[test]
fn sampling_live_bytes_are_pinned() {
    let data = dataset();
    let measured = [
        ("graphsage bulk sampling step", sampling_live_peak(&data, &graphsage())),
        ("ladies bulk sampling step", sampling_live_peak(&data, &ladies())),
    ];
    let table: String =
        measured.iter().map(|(unit, peak)| format!("    (\"{unit}\", {peak}),\n")).collect();
    assert_eq!(measured, PINNED_LIVE_PEAK, "live-byte high-water marks moved; measured:\n{table}");
}

/// Propagation's allocations do not grow with the frontier: a fixed number
/// of matrices per layer, none per row.
#[test]
fn propagation_allocations_do_not_grow_with_the_frontier() {
    let data = dataset();
    let (small_fwd, small_bwd) = propagation_step(&data, 16);
    let (large_fwd, large_bwd) = propagation_step(&data, 64);
    assert_eq!(small_fwd.count, large_fwd.count, "forward");
    assert_eq!(small_bwd.count, large_bwd.count, "backward");
}

/// The 1.5D probability step's allocations do not grow with the frontier:
/// a fixed number of buffers per stage (request, slab, product), none per
/// fetched or output row.
#[test]
fn one_five_d_allocations_do_not_grow_with_the_frontier() {
    let data = dataset();
    let small = one_five_d_step(&data, 16);
    let large = one_five_d_step(&data, 64);
    for (rank, (small, large)) in small.iter().zip(&large).enumerate() {
        assert_eq!(small.count, large.count, "rank {rank}");
    }
}

/// A sampling step allocates as much after five steps as after one: its
/// scratch is reused, not regrown.
#[test]
fn sampling_allocations_do_not_grow_with_the_step_count() {
    let data = dataset();
    for sampler in [&graphsage() as &dyn Sampler, &ladies()] {
        assert_eq!(sampling_step(&data, sampler, 1), sampling_step(&data, sampler, 5));
    }
}
