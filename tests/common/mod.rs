//! Builders shared by the integration suites.
//!
//! Every `tests/*.rs` binary is its own crate, so before this module each
//! suite grew a private copy of the same synthetic-dataset builder, grid
//! sweep and batch generator.  The copies are hoisted here **byte for
//! byte**: each helper reproduces exactly what the suites built inline, so
//! migrating a suite onto `common` is a pure refactor — every seeded
//! assertion (loss bits, comm counters) pins the same values as before.
//!
//! Not every suite uses every helper; each binary compiles its own copy of
//! this module, hence the blanket `dead_code` allowance.

#![allow(dead_code)]

use dmbs::comm::SocketLaunch;
use dmbs::gnn::FeatureCacheConfig;
use dmbs::graph::datasets::{build_dataset, Dataset, DatasetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Every (ranks, replication) grid shape the distributed sweeps cover:
/// p ∈ {1, 2, 4}, all c dividing p.
pub const GRID_SHAPES: [(usize, usize); 6] = [(1, 1), (2, 1), (2, 2), (4, 1), (4, 2), (4, 4)];

/// A products-like synthetic dataset of `2^scale` vertices, fully seeded.
/// `homophily` of `None` keeps [`DatasetConfig::products_like`]'s default.
pub fn products_dataset(
    scale: u32,
    feature_dim: usize,
    num_classes: usize,
    train_fraction: f64,
    homophily: Option<f64>,
    seed: u64,
) -> Dataset {
    let mut cfg = DatasetConfig::products_like(scale);
    cfg.feature_dim = feature_dim;
    cfg.num_classes = num_classes;
    cfg.train_fraction = train_fraction;
    if let Some(h) = homophily {
        cfg.homophily = h;
    }
    build_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).expect("dataset")
}

/// [`products_dataset`] shared across sessions.
pub fn arc_products_dataset(
    scale: u32,
    feature_dim: usize,
    num_classes: usize,
    train_fraction: f64,
    homophily: Option<f64>,
    seed: u64,
) -> Arc<Dataset> {
    Arc::new(products_dataset(scale, feature_dim, num_classes, train_fraction, homophily, seed))
}

/// The two feature-cache modes the equivalence sweeps cross: off and the
/// run-long pinned prefetch.
pub fn cache_modes() -> [FeatureCacheConfig; 2] {
    [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned]
}

/// Deterministic pseudo-random batches: batch `i`'s `j`-th vertex is
/// `(i·mul_i + j·mul_j) mod n`.  The multiplier pair selects the suite's
/// historical stream.
pub fn strided_batches(
    n: usize,
    k: usize,
    b: usize,
    mul_i: usize,
    mul_j: usize,
) -> Vec<Vec<usize>> {
    (0..k).map(|i| (0..b).map(|j| (i * mul_i + j * mul_j) % n).collect()).collect()
}

/// The (131, 17) batch stream most suites draw from.
pub fn random_batches(n: usize, k: usize, b: usize) -> Vec<Vec<usize>> {
    strided_batches(n, k, b, 131, 17)
}

/// Launch descriptor for the Unix-socket transport when the rank worker is a
/// test named `socket_worker_shim` in the calling test binary (the
/// `run_if_worker` re-exec pattern; see `tests/transport_equivalence.rs`).
pub fn socket_launch() -> SocketLaunch {
    SocketLaunch::for_test_binary("socket_worker_shim").timeout_ms(120_000)
}
