//! The paper's evaluation as machine-checkable claims.
//!
//! Each figure or table of §8, and the §5.2.1 cost model, is a function that
//! returns [`Claim`] rows built from deterministic counters: words, messages,
//! modeled α–β nanoseconds, counts of correct predictions and per-mille
//! ratios of those.  A row evaluates one inequality that the paper states.
//! The `repro` binary writes the rows to `REPRO.json`, and
//! `repro --check ci/baseline` gates `lhs`, `rhs` and `holds` as exact
//! fields: a claim that flips between holding and failing fails CI until
//! its baseline is re-pinned.
//!
//! No row is dropped.  A claim that does not hold at this scale keeps its
//! row with `holds: false` and the reason.  A claim a CPU simulator cannot
//! judge (a GPU wall-clock speedup, a compute-time share) is recorded with
//! `holds: false` and the reason it is not judged.

use crate::record::Record;
use crate::{
    dataset, sage_training_config, train_local, train_replicated, SamplerChoice, TrainingConfig,
};
use dmbs_comm::CostModel;
use dmbs_graph::datasets::{Dataset, DatasetKind};
use dmbs_graph::minibatch::MinibatchPlan;
use dmbs_sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, LadiesSampler, Partitioned1p5dBackend,
    Sampler, SamplingBackend,
};
use std::sync::Arc;

/// The inequality a [`Claim`] evaluates between its `lhs` and `rhs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Relation {
    /// `lhs < rhs`.
    Lt,
    /// `lhs <= rhs`.
    Le,
    /// `lhs > rhs`.
    Gt,
    /// `lhs == rhs`.
    Eq,
    /// `|lhs - rhs| <= tolerance`.
    Within(u64),
}

impl Relation {
    fn holds(self, lhs: u64, rhs: u64) -> bool {
        match self {
            Relation::Lt => lhs < rhs,
            Relation::Le => lhs <= rhs,
            Relation::Gt => lhs > rhs,
            Relation::Eq => lhs == rhs,
            Relation::Within(tolerance) => lhs.abs_diff(rhs) <= tolerance,
        }
    }

    fn show(self) -> String {
        match self {
            Relation::Lt => "lhs < rhs".into(),
            Relation::Le => "lhs <= rhs".into(),
            Relation::Gt => "lhs > rhs".into(),
            Relation::Eq => "lhs == rhs".into(),
            Relation::Within(tolerance) => format!("|lhs - rhs| <= {tolerance}"),
        }
    }
}

/// One paper claim evaluated at one point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Stable id, e.g. `fig7.sage_words_do_not_rise_with_c`; its prefix
    /// names the paper locus.
    pub(crate) id: &'static str,
    /// The point, e.g. `Papers p=16 c=1->2`.
    at: String,
    /// Left-hand side of the relation.
    pub(crate) lhs: u64,
    /// The inequality.
    relation: Relation,
    /// Right-hand side of the relation.
    pub(crate) rhs: u64,
    /// Why the row may not hold, or why it is not judged here.
    reason: &'static str,
    /// False for a claim this simulator cannot judge: it never holds.
    judged: bool,
}

impl Claim {
    fn new(id: &'static str, at: String, lhs: u64, relation: Relation, rhs: u64) -> Self {
        Claim { id, at, lhs, relation, rhs, reason: "", judged: true }
    }

    /// The explanation the row carries when it does not hold.
    fn unless(self, reason: &'static str) -> Self {
        Claim { reason, ..self }
    }

    /// Marks the claim as one this simulator cannot judge.
    fn unjudged(self, reason: &'static str) -> Self {
        Claim { reason, judged: false, ..self }
    }

    /// Whether the claim holds at this point.
    pub fn holds(&self) -> bool {
        self.judged && self.relation.holds(self.lhs, self.rhs)
    }

    /// The section and figure or table of the paper the claim comes from.
    fn paper(&self) -> &'static str {
        match self.id.split_once('.').map_or(self.id, |(figure, _)| figure) {
            "model" => "§5.2.1",
            "acc" => "§8.1.3",
            "fig4" => "Fig. 4",
            "fig6" => "Fig. 6",
            "fig7" => "§5.2.1, Fig. 7",
            "bulk" => "§4.1.4, §4.2.4",
            "table3" => "Table 3",
            "table4" => "Table 4",
            other => panic!("claim family {other} has no paper locus"),
        }
    }

    /// The `REPRO.json` row.
    pub fn record(&self) -> Record {
        let holds = self.holds();
        Record::new()
            .key("claim", self.id)
            .key("at", self.at.as_str())
            .info("paper", self.paper())
            .exact("lhs", self.lhs)
            .info("relation", self.relation.show().as_str())
            .exact("rhs", self.rhs)
            .exact("holds", holds)
            .info("reason", if holds { "" } else { self.reason })
    }
}

/// Modeled seconds as whole nanoseconds.
fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// `num / den` in thousandths.
fn per_mille(num: f64, den: f64) -> u64 {
    (1000.0 * num / den).round() as u64
}

/// The `(p, c)` points of the replicated-pipeline figures: the largest `c`
/// that memory allowed in the paper's Fig. 4 annotations.
const REPLICATED_POINTS: [(usize, usize); 3] = [(4, 2), (8, 2), (16, 4)];

/// The `(p, [c])` grid of the graph-partitioned sweeps.
const PARTITIONED_GRID: [(usize, &[usize]); 3] =
    [(4, &[1, 2, 4]), (8, &[1, 2, 4]), (16, &[1, 2, 4, 8])];

/// Every claim, on the stand-in datasets at their one size.
pub fn all() -> Vec<Claim> {
    let stand_ins = [DatasetKind::Products, DatasetKind::Protein, DatasetKind::Papers]
        .map(|kind| Arc::new(dataset(kind)));
    let [products, protein, papers] = &stand_ins;
    let sage = |d: &Dataset, epochs| TrainingConfig { epochs, ..sage_training_config(d) };
    let runs = stand_ins.each_ref().map(|d| (Arc::clone(d), sage(d, 1)));
    let mut claims = cost_model();
    claims.extend(accuracy(products, &sage(products, 5)));
    claims.extend(replicated(&runs, &REPLICATED_POINTS));
    claims.extend(partitioned_sweep(&[protein, papers]));
    claims.extend(bulk_size(products));
    claims.extend(table3(stand_ins.iter().map(|d| &**d)));
    claims.extend(table4(&sage_training_config(products), ladies_samples(products)));
    claims
}

/// §5.2.1 at the paper's Papers operating point (Table 4 GraphSAGE:
/// `b = 1024`, all 1172 batches in bulk, `d = 29`), for `c <= √p`: the
/// modeled `T_prob` of the 1.5D probability SpGEMM falls with `c` at every
/// fixed `p`, and at fixed `c` a larger `p` lowers its bandwidth terms (the
/// all-reduce's `c·k·b·d/p`; the latency term `p/c²` rises).
pub(crate) fn cost_model() -> Vec<Claim> {
    let slingshot = CostModel::slingshot();
    let bandwidth_only = CostModel::new(0.0, slingshot.beta);
    let t_prob = |model: CostModel, p, c| ns(model.predict_prob_cost(p, c, 1172, 1024, 29.0));
    let (ps, cs) = ([16, 32, 64, 128], [1, 2, 4, 8]);
    let mut claims = Vec::new();
    for p in ps {
        let cs: Vec<usize> = cs.into_iter().filter(|c| c * c <= p).collect();
        for w in cs.windows(2) {
            let at = format!("p={p} c={}->{}", w[0], w[1]);
            let (lo, hi) = (t_prob(slingshot, p, w[0]), t_prob(slingshot, p, w[1]));
            claims.push(Claim::new("model.t_prob_falls_with_c", at, hi, Relation::Lt, lo));
        }
    }
    for c in cs {
        let ps: Vec<usize> = ps.into_iter().filter(|p| c * c <= *p).collect();
        for w in ps.windows(2) {
            let at = format!("c={c} p={}->{}", w[0], w[1]);
            let (lo, hi) = (t_prob(bandwidth_only, w[0], c), t_prob(bandwidth_only, w[1], c));
            claims.push(Claim::new("model.bandwidth_term_falls_with_p", at, hi, Relation::Lt, lo));
        }
    }
    claims
}

/// §8.1.3: bulk matrix sampling and per-vertex sampling train to test
/// accuracies within one point of each other, both above chance.  The
/// accuracies are counts of correct test predictions.
pub(crate) fn accuracy(data: &Arc<Dataset>, config: &TrainingConfig) -> Vec<Claim> {
    let tests = data.test_set.len() as u64;
    let correct = |choice| {
        let accuracy = train_local(data, config, choice).test_accuracy.expect("evaluation ran");
        (accuracy * tests as f64).round() as u64
    };
    let (matrix, pervertex) =
        (correct(SamplerChoice::MatrixSage), correct(SamplerChoice::PerVertexSage));
    let chance = tests.div_ceil(data.graph.num_classes() as u64);
    let at = |what: &str| format!("{} {what}, {tests} test vertices", data.kind.name());
    let paper = (0.778 * tests as f64).round() as u64;
    vec![
        Claim::new(
            "acc.matrix_matches_pervertex",
            at("matrix vs per-vertex"),
            matrix,
            Relation::Within(tests / 100),
            pervertex,
        ),
        Claim::new("acc.above_chance", at("matrix vs chance"), matrix, Relation::Gt, chance),
        Claim::new("acc.above_chance", at("per-vertex vs chance"), pervertex, Relation::Gt, chance),
        Claim::new("acc.reaches_77_8_percent", at("matrix vs 77.8%"), matrix, Relation::Gt, paper)
            .unjudged("the stand-in is a synthetic R-MAT graph, not OGB Products"),
    ]
}

/// Figs. 4 and 6, the Graph-Replicated pipeline, over one epoch at each
/// `(p, c)` point:
/// * Fig. 4: the Quiver-like stand-in (per-vertex sampler at `c = 1`, a
///   feature store that is not replication-aware) moves more words than the
///   matrix sampler at `c`;
/// * Fig. 6: NoRep (the matrix sampler at `c = 1`) moves more words than
///   replicated features at `c`, and gains less on Protein than on Papers.
///
/// The paper's speedups (2.5x on Products at 16 GPUs, 3.4x on Papers at
/// 64, 8.5x on Protein at 128) and its ">2x slower" are GPU wall clock;
/// their rows carry the modeled α–β communication ratio against the
/// paper's factor.
pub(crate) fn replicated(
    runs: &[(Arc<Dataset>, TrainingConfig)],
    points: &[(usize, usize)],
) -> Vec<Claim> {
    let mut claims = Vec::new();
    let mut norep_ratios = Vec::new();
    for (data, config) in runs {
        for &(p, c) in points {
            let comm = |c, choice| {
                let comm = train_replicated(data, config, p, c, choice).swap_remove(0).comm;
                (comm.words_sent as u64, comm.modeled_time)
            };
            let ours = comm(c, SamplerChoice::MatrixSage);
            let norep = comm(1, SamplerChoice::MatrixSage);
            let quiver = comm(1, SamplerChoice::PerVertexSage);
            let at = format!("{} p={p} c={c}", data.kind.name());
            let modeled = format!("{at}, modeled α–β x1000");
            claims.push(Claim::new(
                "fig4.quiver_moves_more_words",
                at.clone(),
                quiver.0,
                Relation::Gt,
                ours.0,
            ));
            claims.push(Claim::new(
                "fig6.norep_moves_more_words",
                at,
                norep.0,
                Relation::Gt,
                ours.0,
            ));
            let norep_ratio = per_mille(norep.1, ours.1);
            norep_ratios.push((data.kind, p, c, norep_ratio));
            if data.kind == DatasetKind::Papers {
                claims.push(
                    Claim::new(
                        "fig6.norep_2x_slower_on_papers",
                        modeled.clone(),
                        norep_ratio,
                        Relation::Gt,
                        2000,
                    )
                    .unless(
                        "the modeled ratio stays under 2 at p <= 16; the paper's is GPU wall clock",
                    ),
                );
            }
            if (p, c) == points[points.len() - 1] {
                let paper = match data.kind {
                    DatasetKind::Products => 2500,
                    DatasetKind::Papers => 3400,
                    DatasetKind::Protein => 8500,
                };
                claims.push(
                    Claim::new(
                        "fig4.speedup_over_quiver",
                        modeled,
                        per_mille(quiver.1, ours.1),
                        Relation::Gt,
                        paper,
                    )
                    .unjudged("wall clock on 16–128 GPUs"),
                );
            }
        }
    }
    let ratio = |kind, p, c| norep_ratios.iter().find(|r| (r.0, r.1, r.2) == (kind, p, c));
    for &(p, c) in points {
        let (protein, papers) =
            (ratio(DatasetKind::Protein, p, c), ratio(DatasetKind::Papers, p, c));
        if let (Some(&(.., protein)), Some(&(.., papers))) = (protein, papers) {
            let at = format!("p={p} c={c}, NoRep/rep modeled α–β x1000");
            claims.push(Claim::new(
                "fig6.protein_gains_less_than_papers",
                at,
                protein,
                Relation::Lt,
                papers,
            ));
        }
    }
    claims
}

/// Sequential minibatches of `data`'s training set, `train / divisor`
/// vertices each (at least 8, at most `max`).
fn batches(data: &Dataset, divisor: usize, max: usize) -> Vec<Vec<usize>> {
    let size = (data.train_set.len() / divisor).clamp(8, max);
    MinibatchPlan::sequential(&data.train_set, size)
        .expect("non-empty training set")
        .batches()
        .to_vec()
}

/// The `s` of the one-layer LADIES sweeps (Table 4's 512, scaled down).
fn ladies_samples(data: &Dataset) -> usize {
    64.min(data.num_vertices() / 4)
}

/// Words and messages (summed over the process rows) of one partitioned
/// sampling epoch over `batches` in bulk groups of `k` minibatches.
fn partitioned_epoch(
    sampler: &(impl Sampler + Sync),
    data: &Dataset,
    batches: &[Vec<usize>],
    (p, c, k): (usize, usize, usize),
) -> [u64; 2] {
    let bulk = BulkSamplerConfig::new(batches[0].len(), k);
    let backend = Partitioned1p5dBackend::new(DistConfig::new(p, c, bulk)).expect("valid grid");
    let epoch =
        backend.sample_epoch(sampler, data.graph.adjacency(), batches, 13).expect("sampled");
    let messages: usize = epoch.per_unit.iter().map(|u| u.comm_stats.messages).sum();
    [epoch.total_words_sent() as u64, messages as u64]
}

/// Fig. 7 and the §5.2.1 analysis realized: on the graph-partitioned
/// backend, GraphSAGE (15, 10, 5) and one-layer LADIES sampling words do
/// not rise, and messages fall, as `c` grows at fixed `p`.  The paper's
/// phase shares ("probability generation dominates GraphSAGE, column
/// extraction dominates LADIES") are compute time, which no deterministic
/// counter decides yet.
pub(crate) fn partitioned_sweep(data: &[&Arc<Dataset>]) -> Vec<Claim> {
    const SHARE: &str = "compute-time share; needs per-phase work counters (ROADMAP item 20)";
    let mut claims = Vec::new();
    for data in data {
        let sage = GraphSageSampler::new(vec![15, 10, 5]);
        let ladies = LadiesSampler::new(1, ladies_samples(data));
        let sage_ids = ["fig7.sage_words_do_not_rise_with_c", "fig7.sage_messages_fall_with_c"];
        claims.extend(c_sweep(&sage, data, sage_ids));
        let ladies_ids =
            ["fig7.ladies_words_do_not_rise_with_c", "fig7.ladies_messages_fall_with_c"];
        claims.extend(c_sweep(&ladies, data, ladies_ids));
        for (id, phase) in [
            ("fig7.probability_dominates_sage", "probability"),
            ("fig7.extraction_dominates_ladies", "extraction"),
        ] {
            let at = format!("{}: {phase} vs other phases", data.kind.name());
            claims.push(Claim::new(id, at, 0, Relation::Gt, 0).unjudged(SHARE));
        }
    }
    claims
}

/// The words and messages rows of one sampler over [`PARTITIONED_GRID`],
/// with every batch in one bulk group.
fn c_sweep(
    sampler: &(impl Sampler + Sync),
    data: &Dataset,
    [words, messages]: [&'static str; 2],
) -> Vec<Claim> {
    const COO: &str = "the c > 1 row all-reduce gathers COO triples (3 words per nonzero) to a \
                       root and broadcasts their concatenation (ROADMAP item 2)";
    let batches = batches(data, 16, 128);
    let k = batches.len();
    let mut claims = Vec::new();
    for (p, cs) in PARTITIONED_GRID {
        let runs: Vec<[u64; 2]> =
            cs.iter().map(|&c| partitioned_epoch(sampler, data, &batches, (p, c, k))).collect();
        for (i, w) in cs.windows(2).enumerate() {
            let at = format!("{} p={p} c={}->{}, {k} batches", data.kind.name(), w[0], w[1]);
            let ([lo_words, lo_msgs], [hi_words, hi_msgs]) = (runs[i], runs[i + 1]);
            claims
                .push(Claim::new(words, at.clone(), hi_words, Relation::Le, lo_words).unless(COO));
            claims.push(Claim::new(messages, at, hi_msgs, Relation::Lt, lo_msgs));
        }
    }
    claims
}

/// Bulk size: the messages of a partitioned GraphSAGE epoch (`p = 4`,
/// `c = 1`) fall as more minibatches `k` share one sampling call — the α
/// amortization the paper claims; wall time cannot show it on a CPU, which
/// has no per-call launch cost.
pub(crate) fn bulk_size(data: &Dataset) -> Vec<Claim> {
    let batches = batches(data, 32, 64);
    let mut ks: Vec<usize> = [1, 2, 4, 8, 16, 32].map(|k| k.min(batches.len())).to_vec();
    ks.dedup();
    let sage = GraphSageSampler::new(vec![15, 10, 5]);
    let messages: Vec<u64> =
        ks.iter().map(|&k| partitioned_epoch(&sage, data, &batches, (4, 1, k))[1]).collect();
    let name = data.kind.name();
    (1..ks.len())
        .map(|i| {
            let at =
                format!("{name} p=4 c=1 k={}->{}, {} batches", ks[i - 1], ks[i], batches.len());
            Claim::new("bulk.messages_fall_with_k", at, messages[i], Relation::Lt, messages[i - 1])
        })
        .collect()
}

/// Table 3: each stand-in's average degree (x1000) is within 10% of the
/// paper's.
pub(crate) fn table3<'a>(data: impl IntoIterator<Item = &'a Dataset>) -> Vec<Claim> {
    let merged = "at 1024 vertices most of R-MAT's 241 draws per vertex repeat an edge, which the \
                  graph merges";
    data.into_iter()
        .map(|d| {
            let paper = 1000 * d.kind.paper_average_degree() as u64;
            let ours = (1000 * d.num_edges() / d.num_vertices()) as u64;
            let at = format!("{} x1000", d.kind.name());
            Claim::new(
                "table3.average_degree_within_10pct",
                at,
                ours,
                Relation::Within(paper / 10),
                paper,
            )
            .unless(merged)
        })
        .collect()
}

/// Table 4: the configuration the figure functions train and sample with,
/// against the paper's.
pub(crate) fn table4(sage: &TrainingConfig, ladies_s: usize) -> Vec<Claim> {
    let row = |at: String, ours: usize, paper: u64| {
        Claim::new("table4.config_matches_paper", at, ours as u64, Relation::Eq, paper)
            .unless("scaled down with the stand-in graphs")
    };
    let fanouts = sage.fanouts.iter().zip([15, 10, 5]).enumerate();
    let mut claims: Vec<Claim> =
        fanouts.map(|(l, (&f, paper))| row(format!("SAGE fanout {}", l + 1), f, paper)).collect();
    claims.extend([
        row("SAGE layers".into(), sage.fanouts.len(), 3),
        row("SAGE hidden".into(), sage.hidden_dim, 256),
        row("SAGE batch size".into(), sage.batch_size, 1024),
        row("LADIES layers".into(), 1, 1),
        row("LADIES samples per layer".into(), ladies_s, 512),
    ]);
    claims
}
