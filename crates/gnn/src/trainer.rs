//! The per-epoch statistics a [`TrainingSession`](crate::TrainingSession)
//! reports, implementing the phase breakdown of §6 / Figure 3.
//!
//! Each epoch consists of three phases, timed separately so the benchmark
//! harnesses can reproduce the stacked bars of Figures 4 and 6:
//!
//! 1. **Sampling** — bulk-sample `k` minibatches with the matrix sampler (or
//!    a per-vertex baseline standing in for Quiver);
//! 2. **Feature fetching** — gather the input-feature rows of each
//!    minibatch's innermost frontier (all-to-allv across process columns in
//!    distributed sessions);
//! 3. **Propagation** — forward/backward passes of the GraphSAGE model and an
//!    optimizer step (with a data-parallel gradient all-reduce in distributed
//!    sessions).

use dmbs_comm::{CommStats, Phase, PhaseProfile};

/// Per-epoch timing breakdown and loss, the unit reported by Figures 4 and 6.
#[derive(Debug, Clone, Default)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Phase timing breakdown (max across ranks for distributed runs).
    pub profile: PhaseProfile,
    /// Communication volume and modeled time (summed across ranks).
    pub comm: CommStats,
    /// Mean training loss across the epoch's minibatches.
    pub mean_loss: f64,
}

impl EpochStats {
    /// Seconds spent in the sampling phase (probability + sampling +
    /// extraction).
    pub fn sampling_time(&self) -> f64 {
        Phase::sampling_phases().iter().map(|&p| self.profile.total(p)).sum()
    }

    /// Seconds spent fetching features.
    pub fn feature_fetch_time(&self) -> f64 {
        self.profile.total(Phase::FeatureFetch)
    }

    /// Seconds spent in forward/backward propagation and optimizer steps.
    pub fn propagation_time(&self) -> f64 {
        self.profile.total(Phase::Propagation)
    }

    /// Total epoch time across all phases under a serial schedule
    /// (compute + modeled communication; overlap does not change it).
    pub fn total_time(&self) -> f64 {
        self.profile.grand_total()
    }

    /// Modeled communication seconds the epoch's schedule hid behind compute
    /// (zero unless the session was built with
    /// [`SessionBuilder::overlap`](crate::session::SessionBuilder::overlap)).
    pub fn overlapped_time(&self) -> f64 {
        self.profile.total_overlap()
    }

    /// The epoch seconds the (possibly pipelined) schedule actually pays:
    /// `total_time - overlapped_time`.  Equal to
    /// [`EpochStats::total_time`] for synchronous schedules, so the two
    /// trajectories are directly comparable.
    pub fn modeled_epoch_seconds(&self) -> f64 {
        self.profile.effective_grand_total()
    }

    /// Feature-cache hit rate of the epoch, or `None` when no cache was
    /// active (see
    /// [`SessionBuilder::feature_cache`](crate::session::SessionBuilder::feature_cache)).
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.comm.cache_hit_rate()
    }
}

/// The result of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainingReport {
    /// Per-epoch statistics.
    pub epochs: Vec<EpochStats>,
    /// Test accuracy measured after the final epoch, if evaluation ran.
    pub test_accuracy: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_stats_accessors_reconcile_with_the_profile() {
        let mut profile = PhaseProfile::new();
        profile.add_compute(Phase::Probability, 0.5);
        profile.add_compute(Phase::Sampling, 0.25);
        profile.add_comm(Phase::Extraction, 0.125);
        profile.add_compute(Phase::FeatureFetch, 1.0);
        profile.add_comm(Phase::FeatureFetch, 2.0);
        profile.add_compute(Phase::Propagation, 4.0);
        profile.add_overlap(Phase::FeatureFetch, 1.5);
        let stats = EpochStats { profile, ..EpochStats::default() };
        assert_eq!(stats.sampling_time(), 0.875);
        assert_eq!(stats.feature_fetch_time(), 3.0);
        assert_eq!(stats.propagation_time(), 4.0);
        assert_eq!(stats.total_time(), 7.875);
        assert_eq!(stats.overlapped_time(), 1.5);
        assert_eq!(stats.modeled_epoch_seconds(), stats.total_time() - stats.overlapped_time());
        assert_eq!(stats.cache_hit_rate(), None);
    }
}
