//! Figure 6: the Graph-Replicated pipeline with and without feature
//! replication ("NoRep") on the Papers and Protein stand-ins.
//!
//! NoRep is the same backend at replication factor `c = 1`: the feature
//! matrix is split across every rank, so feature fetching spans the whole
//! world instead of one process column — the degradation the paper reports
//! (over 2x slower on Papers).

use dmbs_bench::{
    dataset, print_table, replication_for, sage_training_config, secs, train_replicated,
    SamplerChoice, Scale,
};
use dmbs_graph::datasets::DatasetKind;

fn main() {
    let scale = Scale::from_env();
    for kind in [DatasetKind::Papers, DatasetKind::Protein] {
        let ds = std::sync::Arc::new(dataset(kind, scale));
        let mut config = sage_training_config(&ds);
        config.epochs = 1;
        let mut rows = Vec::new();
        for &p in &scale.rank_counts() {
            let c = replication_for(p).min(p);
            let rep = train_replicated(&ds, &config, p, c, SamplerChoice::MatrixSage);
            let norep = train_replicated(&ds, &config, p, 1, SamplerChoice::MatrixSage);
            let r = &rep[0];
            let n = &norep[0];
            rows.push(vec![
                format!("{p}"),
                format!("c={c}"),
                secs(r.total_time()),
                secs(n.total_time()),
                format!("{}", r.comm.words_sent),
                format!("{}", n.comm.words_sent),
                format!("{:.2}x", n.total_time() / r.total_time().max(1e-12)),
            ]);
        }
        print_table(
            &format!("Figure 6 — {} (replicated features vs NoRep)", kind.name()),
            &["ranks", "repl", "rep total", "norep total", "rep words", "norep words", "norep/rep"],
            &rows,
        );
    }
    println!("\nPaper reference: NoRep degrades Papers by more than 2x; Protein sees smaller benefits because its replication factor was capped at c=2.");
}
