//! Criterion benchmark: one epoch of the end-to-end pipeline (sampling +
//! feature fetch + propagation) on a small synthetic dataset, single device
//! and distributed over 4 simulated ranks.

use criterion::{criterion_group, criterion_main, Criterion};
use dmbs_bench::{train_local, train_replicated, SamplerChoice, TrainingConfig};
use dmbs_graph::datasets::{build_dataset, DatasetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_pipeline(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("pipeline");
    group.sample_size(10);

    let mut cfg = DatasetConfig::products_like(9); // 512 vertices
    cfg.feature_dim = 32;
    cfg.num_classes = 8;
    cfg.train_fraction = 0.5;
    let dataset =
        std::sync::Arc::new(build_dataset(&cfg, &mut StdRng::seed_from_u64(7)).expect("dataset"));
    let config = TrainingConfig {
        fanouts: vec![10, 5],
        hidden_dim: 32,
        batch_size: 32,
        bulk_size: 4,
        learning_rate: 0.05,
        epochs: 1,
        seed: 1,
    };

    group.bench_function("single_device_epoch", |bench| {
        bench.iter(|| train_local(&dataset, &config, SamplerChoice::MatrixSage));
    });

    group.bench_function("distributed_epoch_4ranks_c2", |bench| {
        bench.iter(|| train_replicated(&dataset, &config, 4, 2, SamplerChoice::MatrixSage));
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
