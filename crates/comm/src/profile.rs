//! Phase profiling.
//!
//! The paper's figures break epoch time into pipeline phases (sampling,
//! feature fetching, propagation — Figure 4/6) and break sampling time into
//! probability generation, sampling and extraction, each split into
//! computation and communication (Figure 7).  [`PhaseProfile`] accumulates
//! wall-clock (computation) and modeled (communication) seconds per
//! [`Phase`] and merges across ranks.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// The pipeline / sampling phases reported by the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Probability-distribution generation (`P ← Q·A` and normalization).
    Probability,
    /// Inverse-transform sampling from the probability rows.
    Sampling,
    /// Row/column extraction building the sampled adjacency matrices.
    Extraction,
    /// Fetching feature-vector rows (all-to-allv across process columns).
    FeatureFetch,
    /// Forward and backward propagation.
    Propagation,
    /// Anything else (setup, bookkeeping).
    Other,
}

impl Phase {
    /// All phases in display order.
    pub const ALL: [Phase; 6] = [
        Phase::Probability,
        Phase::Sampling,
        Phase::Extraction,
        Phase::FeatureFetch,
        Phase::Propagation,
        Phase::Other,
    ];

    /// Human-readable name used by the benchmark harness output.
    pub fn name(&self) -> &'static str {
        match self {
            Phase::Probability => "probability",
            Phase::Sampling => "sampling",
            Phase::Extraction => "extraction",
            Phase::FeatureFetch => "feature_fetch",
            Phase::Propagation => "propagation",
            Phase::Other => "other",
        }
    }

    /// The three phases that make up the sampling step (Figure 7).
    pub fn sampling_phases() -> [Phase; 3] {
        [Phase::Probability, Phase::Sampling, Phase::Extraction]
    }
}

/// Per-phase accumulation of computation (measured) and communication
/// (modeled) time, in seconds — plus, for pipelined schedules, the modeled
/// communication seconds each phase hid behind another phase's computation
/// (see [`PhaseProfile::add_overlap`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    compute: BTreeMap<Phase, f64>,
    comm: BTreeMap<Phase, f64>,
    overlap: BTreeMap<Phase, f64>,
}

impl PhaseProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        PhaseProfile::default()
    }

    /// Adds `seconds` of computation time to `phase`.
    pub fn add_compute(&mut self, phase: Phase, seconds: f64) {
        *self.compute.entry(phase).or_insert(0.0) += seconds;
    }

    /// Adds `seconds` of (modeled) communication time to `phase`.
    pub fn add_comm(&mut self, phase: Phase, seconds: f64) {
        *self.comm.entry(phase).or_insert(0.0) += seconds;
    }

    /// Records `seconds` of `phase`'s modeled communication as overlapped
    /// with (hidden behind) another phase's computation by a pipelined
    /// schedule.  The communication itself stays in the `comm` books — the
    /// α–β bill is schedule-independent — so
    /// the effective total `compute + comm - overlap` balances exactly.
    /// Callers must never credit more than the phase's recorded
    /// communication (see [`crate::CostModel::overlap_credit`]).
    pub fn add_overlap(&mut self, phase: Phase, seconds: f64) {
        *self.overlap.entry(phase).or_insert(0.0) += seconds;
    }

    /// Runs `f`, measuring its wall-clock duration as computation time for
    /// `phase`, and returns its result.
    pub fn time_compute<T>(&mut self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let result = f();
        self.add_compute(phase, start.elapsed().as_secs_f64());
        result
    }

    /// Computation seconds recorded for `phase`.
    pub fn compute(&self, phase: Phase) -> f64 {
        self.compute.get(&phase).copied().unwrap_or(0.0)
    }

    /// Communication seconds recorded for `phase`.
    pub fn comm(&self, phase: Phase) -> f64 {
        self.comm.get(&phase).copied().unwrap_or(0.0)
    }

    /// Overlapped (hidden) communication seconds recorded for `phase`.
    pub fn overlap(&self, phase: Phase) -> f64 {
        self.overlap.get(&phase).copied().unwrap_or(0.0)
    }

    /// Total (computation + communication) seconds for `phase` under a
    /// serial schedule — overlap does not change what was spent, only what
    /// the pipelined schedule pays (see
    /// [`PhaseProfile::effective_grand_total`]).
    pub fn total(&self, phase: Phase) -> f64 {
        self.compute(phase) + self.comm(phase)
    }

    /// Sum of computation time across all phases.
    pub fn total_compute(&self) -> f64 {
        self.compute.values().sum()
    }

    /// Sum of communication time across all phases.
    pub fn total_comm(&self) -> f64 {
        self.comm.values().sum()
    }

    /// Sum of overlapped (hidden) communication time across all phases.
    pub fn total_overlap(&self) -> f64 {
        // fold, not sum: an empty iterator's f64 sum is -0.0, which leaks an
        // ugly "-0.000000" into every synchronous-schedule report.
        self.overlap.values().fold(0.0, |acc, s| acc + s)
    }

    /// Grand total across all phases under a serial schedule.
    pub fn grand_total(&self) -> f64 {
        self.total_compute() + self.total_comm()
    }

    /// Grand total the pipelined schedule pays:
    /// `grand_total - total_overlap`.  Equal to [`PhaseProfile::grand_total`]
    /// whenever nothing was overlapped, so the two trajectories are directly
    /// comparable.
    pub fn effective_grand_total(&self) -> f64 {
        self.grand_total() - self.total_overlap()
    }

    /// Element-wise sum with another profile (aggregating epochs or bulk
    /// groups on one rank).
    pub fn merge_sum(&mut self, other: &PhaseProfile) {
        for (phase, secs) in &other.compute {
            *self.compute.entry(*phase).or_insert(0.0) += secs;
        }
        for (phase, secs) in &other.comm {
            *self.comm.entry(*phase).or_insert(0.0) += secs;
        }
        for (phase, secs) in &other.overlap {
            *self.overlap.entry(*phase).or_insert(0.0) += secs;
        }
    }

    /// Element-wise maximum with another profile.  Used to combine per-rank
    /// profiles into the bulk-synchronous epoch time (the slowest rank
    /// determines each phase's duration).
    pub fn merge_max(&mut self, other: &PhaseProfile) {
        for (phase, secs) in &other.compute {
            let entry = self.compute.entry(*phase).or_insert(0.0);
            *entry = entry.max(*secs);
        }
        for (phase, secs) in &other.comm {
            let entry = self.comm.entry(*phase).or_insert(0.0);
            *entry = entry.max(*secs);
        }
        for (phase, secs) in &other.overlap {
            let entry = self.overlap.entry(*phase).or_insert(0.0);
            *entry = entry.max(*secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique() {
        let names: std::collections::HashSet<_> = Phase::ALL.iter().map(|p| p.name()).collect();
        assert_eq!(names.len(), Phase::ALL.len());
        assert_eq!(Phase::sampling_phases().len(), 3);
    }

    #[test]
    fn add_and_query() {
        let mut p = PhaseProfile::new();
        p.add_compute(Phase::Sampling, 1.0);
        p.add_compute(Phase::Sampling, 0.5);
        p.add_comm(Phase::Probability, 0.25);
        assert_eq!(p.compute(Phase::Sampling), 1.5);
        assert_eq!(p.comm(Phase::Probability), 0.25);
        assert_eq!(p.total(Phase::Probability), 0.25);
        assert_eq!(p.compute(Phase::Extraction), 0.0);
        assert_eq!(p.total_compute(), 1.5);
        assert_eq!(p.total_comm(), 0.25);
        assert_eq!(p.grand_total(), 1.75);
    }

    #[test]
    fn time_compute_measures_something() {
        let mut p = PhaseProfile::new();
        let out = p.time_compute(Phase::Propagation, || {
            let mut acc = 0u64;
            for i in 0..10_000 {
                acc = acc.wrapping_add(i);
            }
            acc
        });
        assert!(out > 0);
        assert!(p.compute(Phase::Propagation) >= 0.0);
    }

    #[test]
    fn overlap_books_balance() {
        let mut p = PhaseProfile::new();
        p.add_compute(Phase::Propagation, 4.0);
        p.add_comm(Phase::FeatureFetch, 1.5);
        p.add_overlap(Phase::FeatureFetch, 1.0);
        assert_eq!(p.overlap(Phase::FeatureFetch), 1.0);
        assert_eq!(p.overlap(Phase::Propagation), 0.0);
        assert_eq!(p.total(Phase::FeatureFetch), 1.5);
        assert_eq!(p.total(Phase::FeatureFetch) - p.overlap(Phase::FeatureFetch), 0.5);
        assert_eq!(p.total_overlap(), 1.0);
        assert_eq!(p.grand_total(), 5.5);
        assert_eq!(p.effective_grand_total(), 4.5);
        // grand_total == compute + comm regardless of overlap: the bill is
        // schedule-independent, only the effective totals move.
        assert_eq!(p.grand_total(), p.total_compute() + p.total_comm());

        let mut q = PhaseProfile::new();
        q.add_overlap(Phase::FeatureFetch, 0.25);
        let mut sum = p.clone();
        sum.merge_sum(&q);
        assert_eq!(sum.total_overlap(), 1.25);
        let mut max = p.clone();
        max.merge_max(&q);
        assert_eq!(max.overlap(Phase::FeatureFetch), 1.0);
    }

    #[test]
    fn merge_sum_and_max() {
        let mut a = PhaseProfile::new();
        a.add_compute(Phase::Sampling, 1.0);
        a.add_comm(Phase::Probability, 2.0);
        let mut b = PhaseProfile::new();
        b.add_compute(Phase::Sampling, 3.0);
        b.add_comm(Phase::Probability, 1.0);

        let mut sum = a.clone();
        sum.merge_sum(&b);
        assert_eq!(sum.compute(Phase::Sampling), 4.0);
        assert_eq!(sum.comm(Phase::Probability), 3.0);

        let mut max = a.clone();
        max.merge_max(&b);
        assert_eq!(max.compute(Phase::Sampling), 3.0);
        assert_eq!(max.comm(Phase::Probability), 2.0);
    }
}
