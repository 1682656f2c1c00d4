//! §8.1.3 — model accuracy: bulk matrix sampling does not change accuracy.
//!
//! Trains the same GraphSAGE model with (a) the matrix-based bulk sampler and
//! (b) the conventional per-vertex sampler on the Products stand-in, and
//! reports test accuracy for both, plus the chance level.

use dmbs_bench::{dataset, print_table, sage_training_config, train_local, SamplerChoice, Scale};
use dmbs_graph::datasets::DatasetKind;

fn main() {
    let scale = Scale::from_env();
    let ds = std::sync::Arc::new(dataset(DatasetKind::Products, scale));
    let mut config = sage_training_config(&ds);
    config.epochs = 5;

    let matrix = train_local(&ds, &config, SamplerChoice::MatrixSage);
    let pervertex = train_local(&ds, &config, SamplerChoice::PerVertexSage);

    let rows = vec![
        vec![
            "matrix bulk sampling (this work)".to_string(),
            format!("{:.3}", matrix.test_accuracy.unwrap_or(0.0)),
            format!("{:.3}", matrix.epochs.last().map(|e| e.mean_loss).unwrap_or(f64::NAN)),
        ],
        vec![
            "per-vertex sampling (baseline)".to_string(),
            format!("{:.3}", pervertex.test_accuracy.unwrap_or(0.0)),
            format!("{:.3}", pervertex.epochs.last().map(|e| e.mean_loss).unwrap_or(f64::NAN)),
        ],
        vec![
            "chance level".to_string(),
            format!("{:.3}", 1.0 / ds.graph.num_classes() as f64),
            "-".to_string(),
        ],
    ];
    print_table(
        "Accuracy (§8.1.3) — Products stand-in, 3-layer SAGE",
        &["sampler", "test accuracy", "final train loss"],
        &rows,
    );
    println!("\nPaper reference: 77.8% on OGB Products (within 1% of the OGB leaderboard SAGE result); the claim reproduced here is that bulk matrix sampling matches conventional sampling, not the absolute number (the stand-in dataset is synthetic).");
}
