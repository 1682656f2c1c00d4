//! Synthetic stand-ins for the paper's evaluation datasets.
//!
//! Table 3 of the paper lists three datasets:
//!
//! | Name     | Vertices | Edges | Avg. degree | Features |
//! |----------|----------|-------|-------------|----------|
//! | Products | 2.4M     | 126M  | ~53         | 100      |
//! | Protein  | 8.7M     | 1.3B  | ~241        | 128      |
//! | Papers   | 111M     | 1.6B  | ~29         | 128      |
//!
//! None of these are redistributable here, and the full sizes exceed a
//! single-machine CPU budget, so [`DatasetConfig`] builds scaled-down R-MAT
//! graphs that preserve the *average degree*, the *relative size ordering*
//! and the *feature dimension* of each dataset.  Class labels follow a
//! planted-partition model with homophilous edges added, so that a GraphSAGE
//! model can actually learn (needed for the §8.1.3 accuracy experiment);
//! the Protein stand-in keeps random features like the original.

use crate::generators::{rmat, RmatConfig};
use crate::graph::{Graph, GraphError};
use dmbs_matrix::{CsrMatrix, DenseMatrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Which of the paper's datasets a configuration imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// OGB `ogbn-products` stand-in: average degree ≈ 53, 100 features.
    Products,
    /// HipMCL `protein` stand-in: average degree ≈ 241, 128 random features.
    Protein,
    /// OGB `ogbn-papers100M` stand-in: average degree ≈ 29, 128 features.
    Papers,
}

impl DatasetKind {
    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Products => "Products",
            DatasetKind::Protein => "Protein",
            DatasetKind::Papers => "Papers",
        }
    }

    /// Average degree of the full-scale dataset in the paper.
    pub fn paper_average_degree(&self) -> usize {
        match self {
            DatasetKind::Products => 53,
            DatasetKind::Protein => 241,
            DatasetKind::Papers => 29,
        }
    }

    /// Vertex count of the full-scale dataset in the paper.
    pub fn paper_num_vertices(&self) -> usize {
        match self {
            DatasetKind::Products => 2_400_000,
            DatasetKind::Protein => 8_700_000,
            DatasetKind::Papers => 111_000_000,
        }
    }

    /// Feature dimension used by the paper.
    pub fn feature_dim(&self) -> usize {
        match self {
            DatasetKind::Products => 100,
            DatasetKind::Protein => 128,
            DatasetKind::Papers => 128,
        }
    }

    /// Whether the dataset's features are informative (Protein's are random
    /// in the paper, used only for performance measurement).
    pub fn has_informative_features(&self) -> bool {
        !matches!(self, DatasetKind::Protein)
    }
}

/// Configuration for building a scaled-down synthetic dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Which dataset to imitate.
    pub kind: DatasetKind,
    /// log2 of the number of vertices in the stand-in graph.
    pub scale: u32,
    /// Average degree; defaults to (a scaled-down cap of) the paper's value.
    pub average_degree: usize,
    /// Feature vector length.
    pub feature_dim: usize,
    /// Number of label classes.
    pub num_classes: usize,
    /// Fraction of vertices placed in the training set.
    pub train_fraction: f64,
    /// Strength of the homophily signal (0 = pure R-MAT, larger = more
    /// intra-class edges and more separable features).
    pub homophily: f64,
}

impl DatasetConfig {
    /// Default stand-in for OGB Products at the given scale
    /// (`2^scale` vertices).
    pub fn products_like(scale: u32) -> Self {
        DatasetConfig {
            kind: DatasetKind::Products,
            scale,
            average_degree: 53.min(1 << scale.saturating_sub(2)),
            feature_dim: 100,
            num_classes: 16,
            train_fraction: 0.1,
            homophily: 0.3,
        }
    }

    /// Default stand-in for the Protein graph at the given scale.  Features
    /// are random (as in the paper) and the degree is the highest of the
    /// three datasets.
    pub fn protein_like(scale: u32) -> Self {
        DatasetConfig {
            kind: DatasetKind::Protein,
            scale,
            average_degree: 241.min(1 << scale.saturating_sub(1)),
            feature_dim: 128,
            num_classes: 8,
            train_fraction: 0.5,
            homophily: 0.0,
        }
    }

    /// Default stand-in for OGB Papers100M at the given scale.
    pub fn papers_like(scale: u32) -> Self {
        DatasetConfig {
            kind: DatasetKind::Papers,
            scale,
            average_degree: 29.min(1 << scale.saturating_sub(2)),
            feature_dim: 128,
            num_classes: 32,
            train_fraction: 0.01,
            homophily: 0.3,
        }
    }

    /// Number of vertices the configuration generates.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }
}

/// A generated dataset: graph + features + labels + train/val/test split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Which dataset this imitates.
    pub kind: DatasetKind,
    /// The graph, with features and labels attached.
    pub graph: Graph,
    /// Vertex ids in the training set.
    pub train_set: Vec<usize>,
    /// Vertex ids in the validation set.
    pub val_set: Vec<usize>,
    /// Vertex ids in the test set.
    pub test_set: Vec<usize>,
}

impl Dataset {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Number of minibatches of size `batch_size` in the training set
    /// (rounded up), matching the "Batches" column of Table 3.
    pub fn num_batches(&self, batch_size: usize) -> usize {
        self.train_set.len().div_ceil(batch_size)
    }
}

/// Builds a synthetic dataset according to `config`.
///
/// The graph is an R-MAT graph with the configured average degree, augmented
/// with homophilous intra-class edges when `homophily > 0`.  Features are the
/// class centroid (a sparse ±1 pattern) plus Gaussian-ish noise for
/// informative datasets, or pure noise for Protein.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] for degenerate configurations
/// (scale 0, zero classes, train fraction outside `(0, 1]`).
pub fn build_dataset<R: Rng + ?Sized>(
    config: &DatasetConfig,
    rng: &mut R,
) -> Result<Dataset, GraphError> {
    if config.num_classes == 0 {
        return Err(GraphError::InvalidConfig("num_classes must be positive".into()));
    }
    if config.train_fraction <= 0.0 || config.train_fraction > 1.0 {
        return Err(GraphError::InvalidConfig("train_fraction must be in (0, 1]".into()));
    }
    if config.feature_dim == 0 {
        return Err(GraphError::InvalidConfig("feature_dim must be positive".into()));
    }
    let n = config.num_vertices();
    let base = rmat(&RmatConfig::new(config.scale, config.average_degree.max(1)), rng)?;

    // Assign labels uniformly at random.
    let labels: Vec<usize> = (0..n).map(|_| rng.gen_range(0..config.num_classes)).collect();

    // Homophily: add intra-class edges so that neighborhood aggregation is
    // informative about the label.
    let adjacency = if config.homophily > 0.0 {
        let extra_per_vertex = (config.average_degree as f64 * config.homophily).ceil() as usize;
        let mut by_class: Vec<Vec<usize>> = vec![Vec::new(); config.num_classes];
        for (v, &c) in labels.iter().enumerate() {
            by_class[c].push(v);
        }
        // The merged pattern, row by row: each vertex's base row and its
        // draws, sorted and deduplicated in place.  Rows are built in vertex
        // order, so the draws come in the order they always have.
        let a = base.adjacency();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(a.nnz() + n * extra_per_vertex);
        for (v, &class) in labels.iter().enumerate() {
            let start = indices.len();
            indices.extend_from_slice(a.row_indices(v));
            let peers = &by_class[class];
            if peers.len() >= 2 {
                for _ in 0..extra_per_vertex {
                    let peer = peers[rng.gen_range(0..peers.len())];
                    if peer != v {
                        indices.push(peer);
                    }
                }
            }
            indices[start..].sort_unstable();
            let mut kept = start;
            for j in start..indices.len() {
                if kept == start || indices[j] != indices[kept - 1] {
                    indices[kept] = indices[j];
                    kept += 1;
                }
            }
            indices.truncate(kept);
            indptr.push(kept);
        }
        indices.shrink_to_fit();
        drop(base);
        CsrMatrix::from_pattern(n, n, indptr, indices)?
    } else {
        base.adjacency().clone()
    };

    // Features: class centroid pattern + noise, or pure noise.
    let mut features = DenseMatrix::zeros(n, config.feature_dim);
    let signal = if config.kind.has_informative_features() { 1.0 } else { 0.0 };
    for (v, &class) in labels.iter().enumerate() {
        let row = features.row_mut(v);
        for (j, value) in row.iter_mut().enumerate() {
            let centroid = if (j + class).is_multiple_of(config.num_classes) { 1.0 } else { -0.1 };
            let noise: f64 = rng.gen_range(-0.5..0.5);
            *value = signal * centroid * (1.0 + config.homophily) + noise;
        }
    }

    let graph = Graph::from_adjacency(adjacency)?
        .with_features(features)?
        .with_labels(labels, config.num_classes)?;

    // Split: shuffle vertex ids, take train_fraction for training and split
    // the remainder evenly between validation and test.
    let mut ids: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        ids.swap(i, j);
    }
    let train_len = ((n as f64) * config.train_fraction).round().max(1.0) as usize;
    let train_len = train_len.min(n);
    let rest = n - train_len;
    let val_len = rest / 2;
    let train_set = ids[..train_len].to_vec();
    let val_set = ids[train_len..train_len + val_len].to_vec();
    let test_set = ids[train_len + val_len..].to_vec();

    Ok(Dataset { kind: config.kind, graph, train_set, val_set, test_set })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kind_metadata_matches_paper_table3() {
        assert_eq!(DatasetKind::Products.paper_average_degree(), 53);
        assert_eq!(DatasetKind::Protein.paper_average_degree(), 241);
        assert_eq!(DatasetKind::Papers.paper_average_degree(), 29);
        assert_eq!(DatasetKind::Products.feature_dim(), 100);
        assert_eq!(DatasetKind::Papers.paper_num_vertices(), 111_000_000);
        assert!(!DatasetKind::Protein.has_informative_features());
        assert_eq!(DatasetKind::Papers.name(), "Papers");
    }

    #[test]
    fn build_products_like_small() {
        let cfg = DatasetConfig::products_like(8);
        let mut rng = StdRng::seed_from_u64(42);
        let ds = build_dataset(&cfg, &mut rng).unwrap();
        assert_eq!(ds.num_vertices(), 256);
        assert!(ds.num_edges() > 0);
        assert_eq!(ds.graph.features().unwrap().cols(), 100);
        assert_eq!(ds.graph.num_classes(), 16);
        // Split partitions the vertex set.
        assert_eq!(ds.train_set.len() + ds.val_set.len() + ds.test_set.len(), 256);
        assert!(!ds.train_set.is_empty());
    }

    #[test]
    fn relative_degrees_are_ordered_like_the_paper() {
        let mut rng = StdRng::seed_from_u64(1);
        let products = build_dataset(&DatasetConfig::products_like(9), &mut rng).unwrap();
        let protein = build_dataset(&DatasetConfig::protein_like(9), &mut rng).unwrap();
        let papers = build_dataset(&DatasetConfig::papers_like(9), &mut rng).unwrap();
        // Protein is densest, Papers sparsest — same ordering as Table 3.
        assert!(protein.graph.average_degree() > products.graph.average_degree());
        assert!(products.graph.average_degree() > papers.graph.average_degree());
    }

    #[test]
    fn determinism_with_seed() {
        let cfg = DatasetConfig::papers_like(7);
        let a = build_dataset(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = build_dataset(&cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a.graph.adjacency(), b.graph.adjacency());
        assert_eq!(a.train_set, b.train_set);
    }

    #[test]
    fn num_batches_rounds_up() {
        let cfg = DatasetConfig::products_like(8);
        let ds = build_dataset(&cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        let b = ds.num_batches(10);
        assert_eq!(b, ds.train_set.len().div_ceil(10));
        assert!(b >= 1);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut cfg = DatasetConfig::products_like(6);
        cfg.num_classes = 0;
        assert!(build_dataset(&cfg, &mut rng).is_err());
        let mut cfg = DatasetConfig::products_like(6);
        cfg.train_fraction = 0.0;
        assert!(build_dataset(&cfg, &mut rng).is_err());
        let mut cfg = DatasetConfig::products_like(6);
        cfg.feature_dim = 0;
        assert!(build_dataset(&cfg, &mut rng).is_err());
    }

    #[test]
    fn protein_features_are_uninformative_noise() {
        let cfg = DatasetConfig::protein_like(7);
        let ds = build_dataset(&cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        // Pure noise features have near-zero column means.
        let means = ds.graph.features().unwrap().col_means();
        assert!(means.iter().all(|m| m.abs() < 0.2));
    }
}
