//! Criterion micro-benchmark: the SpGEMM kernels behind probability
//! generation (`P ← Q·A`) for GraphSAGE- and LADIES-shaped left operands.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmbs_graph::generators::{rmat, RmatConfig};
use dmbs_matrix::ops::row_selection_matrix;
use dmbs_matrix::spgemm::spgemm;
use dmbs_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_spgemm(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("spgemm");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    let graph = rmat(&RmatConfig::new(11, 16), &mut rng).expect("generator");
    let a = graph.adjacency();
    let n = a.rows();

    for &batch in &[64usize, 256] {
        // GraphSAGE-shaped Q: one nonzero per row (a stacked frontier).
        let frontier: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
        let q_sage = row_selection_matrix(&frontier, n).expect("selection");
        group.bench_with_input(BenchmarkId::new("graphsage_QA", batch), &batch, |bench, _| {
            bench.iter(|| spgemm(&q_sage, a).expect("spgemm"));
        });

        // LADIES-shaped Q: k indicator rows with `batch` nonzeros each,
        // stacked in place.
        let (mut indptr, mut indices) = (vec![0usize], Vec::new());
        for _ in 0..8 {
            let mut verts: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..n)).collect();
            verts.sort_unstable();
            verts.dedup();
            indices.extend(verts);
            indptr.push(indices.len());
        }
        let values = vec![1.0; indices.len()];
        let q_ladies = CsrMatrix::from_raw(8, n, indptr, indices, values).expect("indicator rows");
        group.bench_with_input(BenchmarkId::new("ladies_QA", batch), &batch, |bench, _| {
            bench.iter(|| spgemm(&q_ladies, a).expect("spgemm"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_spgemm);
criterion_main!(benches);
