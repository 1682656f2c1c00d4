//! The per-layer metric table of one traced run.

use crate::spec::PER_LAYER;

/// One value per [`PER_LAYER`] name.  A layer the workload never enters
/// keeps its 0: no span of that name was recorded.
#[derive(Debug, Clone)]
pub struct Layers {
    values: Vec<f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers { values: vec![0.0; PER_LAYER.len()] }
    }

    fn index(name: &str) -> usize {
        PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.values[Self::index(name)] = value;
    }

    pub fn add(&mut self, name: &str, value: f64) {
        self.values[Self::index(name)] += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[Self::index(name)]
    }

    /// The phase seconds `train()` itself reported for an epoch.
    pub fn set_phases(&mut self, stats: &dmbs::gnn::EpochStats) {
        self.set("gnn.phase_sampling_s", stats.sampling_time());
        self.set("gnn.phase_fetch_s", stats.feature_fetch_time());
        self.set("gnn.phase_propagation_s", stats.propagation_time());
    }

    /// `(name, value, unit)` in table order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER.iter().zip(&self.values).map(|((name, unit, _), v)| (*name, *v, *unit)).collect()
    }
}
