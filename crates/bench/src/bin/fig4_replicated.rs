//! Figure 4: end-to-end per-epoch time of the Graph-Replicated pipeline vs a
//! Quiver-like baseline, broken into sampling / feature fetching /
//! propagation, across simulated GPU (rank) counts.
//!
//! The Quiver stand-in uses per-vertex sampling (no bulk amortization) on a
//! `c = 1` backend, whose feature store is not replication-aware (every rank
//! fetches from the whole world): the two properties the paper attributes to
//! Quiver's scaling behaviour.

use dmbs_bench::{
    dataset, print_table, replication_for, sage_training_config, secs, train_replicated,
    SamplerChoice, Scale,
};
use dmbs_graph::datasets::DatasetKind;

fn main() {
    let scale = Scale::from_env();
    for kind in [DatasetKind::Products, DatasetKind::Papers, DatasetKind::Protein] {
        let ds = std::sync::Arc::new(dataset(kind, scale));
        let mut config = sage_training_config(&ds);
        config.epochs = 1;
        let mut rows = Vec::new();
        for &p in &scale.rank_counts() {
            let c = replication_for(p).min(p);

            let ours = train_replicated(&ds, &config, p, c, SamplerChoice::MatrixSage);
            let quiver = train_replicated(&ds, &config, p, 1, SamplerChoice::PerVertexSage);
            let o = &ours[0];
            let q = &quiver[0];
            rows.push(vec![
                format!("{p}"),
                format!("c={c}"),
                secs(o.sampling_time()),
                secs(o.feature_fetch_time()),
                secs(o.propagation_time()),
                secs(o.total_time()),
                secs(q.total_time()),
                format!("{:.2}x", q.total_time() / o.total_time().max(1e-12)),
            ]);
        }
        print_table(
            &format!(
                "Figure 4 — {} (Graph Replicated pipeline vs Quiver-like baseline)",
                kind.name()
            ),
            &[
                "ranks",
                "repl",
                "sampling",
                "feat fetch",
                "propagation",
                "ours total",
                "quiver total",
                "speedup",
            ],
            &rows,
        );
    }
    println!("\nPaper reference points: 2.5x over Quiver on Products (16 GPUs), 3.4x on Papers (64 GPUs), 8.5x on Protein (128 GPUs).");
}
