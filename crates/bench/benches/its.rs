//! Criterion micro-benchmark: inverse transform sampling vs rejection
//! sampling (the §2.3 design choice and the ITS-vs-rejection ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::prefix::{inclusive_scan, upper_bound};
use dmbs_matrix::{CooMatrix, CsrMatrix};
use dmbs_sampling::its::{its_without_replacement, sample_rows_par};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The alternative §2.3 argues against: draw up to `s` distinct positions by
/// **rejection sampling** from the full distribution — no rescan, duplicates
/// discarded.  Loops many times when `s` approaches the support size, which
/// is exactly the disadvantage the paper cites; past 64 draws per pick it
/// gives up and falls back to ITS.
fn rejection_without_replacement(weights: &[f64], s: usize, rng: &mut StdRng) -> Vec<usize> {
    let support: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0.0).collect();
    if support.len() <= s {
        return support;
    }
    let scan = inclusive_scan(weights);
    let total = *scan.last().expect("non-empty");
    let mut chosen = std::collections::BTreeSet::new();
    let mut draws = 0;
    while chosen.len() < s && draws < 64 * s {
        chosen.insert(upper_bound(&scan, rng.gen::<f64>() * total));
        draws += 1;
    }
    if chosen.len() < s {
        return its_without_replacement(weights, s, rng).expect("its");
    }
    chosen.into_iter().collect()
}

fn bench_its(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("distribution_sampling");
    group.sample_size(30);
    let mut rng = StdRng::seed_from_u64(2);

    for &support in &[64usize, 1024] {
        // Skewed (power-law-ish) weights, like real neighborhood degrees.
        let weights: Vec<f64> = (0..support).map(|i| 1.0 / (i + 1) as f64).collect();
        group.bench_with_input(BenchmarkId::new("its_s15", support), &support, |bench, _| {
            let mut local = StdRng::seed_from_u64(3);
            bench.iter(|| its_without_replacement(&weights, 15, &mut local).expect("its"));
        });
        group.bench_with_input(BenchmarkId::new("rejection_s15", support), &support, |bench, _| {
            let mut local = StdRng::seed_from_u64(3);
            bench.iter(|| rejection_without_replacement(&weights, 15, &mut local));
        });
    }

    // Row-wise sampling of a whole probability matrix (the SAMPLE step).
    let rows = 512usize;
    let cols = 4096usize;
    let mut coo = CooMatrix::new(rows, cols);
    for r in 0..rows {
        for _ in 0..32 {
            coo.push(r, rng.gen_range(0..cols), rng.gen::<f64>()).expect("in range");
        }
    }
    let p = CsrMatrix::from_coo(&coo);
    group.bench_function("sample_rows_512x4096_s10", |bench| {
        bench.iter(|| sample_rows_par(&p, 10, 4, Parallelism::serial()).expect("sample"));
    });

    // One long layer-wise row (LADIES, 512 draws from an aggregated
    // neighborhood of 12 000): squared neighbor counts, one position in 64 a
    // hub carrying most of the mass.  A kernel that rescans per draw costs
    // s · nnz = 6 M weight reads here; lazy-rescan ITS does a handful of scans.
    let long_row: Vec<f64> = (0..12_000u32)
        .map(|i| {
            let count = if i % 64 == 0 { 40.0 } else { f64::from(1 + i % 3) };
            count * count
        })
        .collect();
    group.bench_function("its_s512_nnz12000_squared_counts", |bench| {
        let mut local = StdRng::seed_from_u64(5);
        bench.iter(|| its_without_replacement(&long_row, 512, &mut local).expect("its"));
    });
    group.finish();
}

criterion_group!(benches, bench_its);
criterion_main!(benches);
