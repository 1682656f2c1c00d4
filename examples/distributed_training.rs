//! Distributed end-to-end training (Figure 3 pipeline) on simulated ranks:
//! graph-replicated bulk sampling through `ReplicatedBackend`, a
//! 1.5D-partitioned feature store fetched with all-to-allv across process
//! columns, and data-parallel propagation — all driven by `TrainingSession`.
//!
//! Run with `cargo run --release --example distributed_training`.

use dmbs::gnn::TrainingSession;
use dmbs::graph::datasets::{build_dataset, DatasetConfig};
use dmbs::sampling::{BulkSamplerConfig, DistConfig, GraphSageSampler, ReplicatedBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut config = DatasetConfig::papers_like(10); // 1024 vertices, sparse like Papers
    config.feature_dim = 32;
    config.num_classes = 8;
    config.train_fraction = 0.25;
    let dataset = Arc::new(build_dataset(&config, &mut StdRng::seed_from_u64(11))?);

    // Sweep simulated "GPU" counts like Figure 4, comparing the replicated
    // feature store against the NoRep configuration of Figure 6.
    for p in [4usize, 8] {
        let c = 2;
        let bulk = BulkSamplerConfig::new(32, 8);
        let base = TrainingSession::builder()
            .dataset(Arc::clone(&dataset))
            .sampler(GraphSageSampler::new(vec![10, 5]).with_self_loops())
            .hidden_dim(32)
            .learning_rate(0.05)
            .epochs(2)
            .seed(5)
            .without_evaluation();

        let replicated = base
            .clone()
            .backend(ReplicatedBackend::new(DistConfig::new(p, c, bulk))?)
            .build()?
            .train()?;
        // NoRep is the `c = 1` grid: features split over all p ranks.
        let norep =
            base.backend(ReplicatedBackend::new(DistConfig::new(p, 1, bulk))?).build()?.train()?;

        let r = replicated.epochs.last().expect("at least one epoch");
        let n = norep.epochs.last().expect("at least one epoch");
        println!(
            "p={p:>2} c={c}: replicated epoch {:.4}s (sampling {:.4}s, fetch {:.4}s, prop {:.4}s, {} words moved) | NoRep epoch {:.4}s ({} words moved)",
            r.total_time(),
            r.sampling_time(),
            r.feature_fetch_time(),
            r.propagation_time(),
            r.comm.words_sent,
            n.total_time(),
            n.comm.words_sent,
        );
    }
    Ok(())
}
