//! The [`Graph`] type: a CSR adjacency matrix plus optional features/labels.

use dmbs_matrix::{CsrMatrix, DenseMatrix, MatrixError};
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Errors produced by graph construction and dataset generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// An edge referenced a vertex outside `0..num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: usize,
        /// Number of vertices in the graph.
        num_vertices: usize,
    },
    /// The requested configuration is invalid (e.g. zero vertices, a feature
    /// matrix whose row count does not match the vertex count).
    InvalidConfig(String),
    /// An underlying matrix operation failed.
    Matrix(MatrixError),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => {
                write!(f, "vertex {vertex} out of range for graph with {num_vertices} vertices")
            }
            GraphError::InvalidConfig(msg) => write!(f, "invalid graph configuration: {msg}"),
            GraphError::Matrix(e) => write!(f, "matrix error: {e}"),
        }
    }
}

impl Error for GraphError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GraphError::Matrix(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MatrixError> for GraphError {
    fn from(e: MatrixError) -> Self {
        GraphError::Matrix(e)
    }
}

/// A directed graph stored as a CSR adjacency matrix, with optional per-vertex
/// feature vectors and class labels.
///
/// Row `v` of the adjacency matrix lists the out-neighbors of vertex `v`,
/// matching the paper's convention where `Q^l · A` expands a frontier along
/// out-edges.
///
/// # Example
///
/// ```
/// use dmbs_graph::Graph;
///
/// # fn main() -> Result<(), dmbs_graph::GraphError> {
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.out_degree(0), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Graph {
    adjacency: CsrMatrix,
    features: Option<DenseMatrix>,
    labels: Option<Vec<usize>>,
    num_classes: usize,
}

impl Graph {
    /// Builds a graph from a directed edge list.  Duplicate edges are merged.
    /// The adjacency is a pattern ([`CsrMatrix::from_edges`]): one counting
    /// pass places the edges by row, and no value is stored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an edge endpoint is
    /// `>= num_vertices`, or [`GraphError::InvalidConfig`] if
    /// `num_vertices == 0`.
    pub fn from_edges(num_vertices: usize, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        if num_vertices == 0 {
            return Err(GraphError::InvalidConfig("graph must have at least one vertex".into()));
        }
        if let Some(&(u, v)) = edges.iter().find(|&&(u, v)| u >= num_vertices || v >= num_vertices)
        {
            return Err(GraphError::VertexOutOfRange { vertex: u.max(v), num_vertices });
        }
        let adjacency = CsrMatrix::from_edges(num_vertices, num_vertices, edges)?;
        Ok(Graph { adjacency, features: None, labels: None, num_classes: 0 })
    }

    /// Wraps an existing adjacency matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the matrix is not square.
    pub fn from_adjacency(adjacency: CsrMatrix) -> Result<Self, GraphError> {
        if adjacency.rows() != adjacency.cols() {
            return Err(GraphError::InvalidConfig(format!(
                "adjacency matrix must be square, got {}x{}",
                adjacency.rows(),
                adjacency.cols()
            )));
        }
        Ok(Graph { adjacency, features: None, labels: None, num_classes: 0 })
    }

    /// Attaches a per-vertex feature matrix (`num_vertices x f`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the row count does not match
    /// the number of vertices.
    pub fn with_features(mut self, features: DenseMatrix) -> Result<Self, GraphError> {
        if features.rows() != self.num_vertices() {
            return Err(GraphError::InvalidConfig(format!(
                "feature matrix has {} rows but the graph has {} vertices",
                features.rows(),
                self.num_vertices()
            )));
        }
        self.features = Some(features);
        Ok(self)
    }

    /// Attaches per-vertex class labels.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if the label count does not match
    /// the number of vertices or `num_classes == 0`.
    pub fn with_labels(
        mut self,
        labels: Vec<usize>,
        num_classes: usize,
    ) -> Result<Self, GraphError> {
        if labels.len() != self.num_vertices() {
            return Err(GraphError::InvalidConfig(format!(
                "label vector has {} entries but the graph has {} vertices",
                labels.len(),
                self.num_vertices()
            )));
        }
        if num_classes == 0 {
            return Err(GraphError::InvalidConfig("num_classes must be positive".into()));
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= num_classes) {
            return Err(GraphError::InvalidConfig(format!(
                "label {bad} out of range for {num_classes} classes"
            )));
        }
        self.labels = Some(labels);
        self.num_classes = num_classes;
        Ok(self)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adjacency.rows()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.adjacency.nnz()
    }

    /// Average out-degree.
    pub fn average_degree(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_vertices() as f64
        }
    }

    /// Out-degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn out_degree(&self, v: usize) -> usize {
        self.adjacency.row_nnz(v)
    }

    /// Out-neighbors of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= num_vertices`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        self.adjacency.row_indices(v)
    }

    /// Borrow of the adjacency matrix.
    pub fn adjacency(&self) -> &CsrMatrix {
        &self.adjacency
    }

    /// Borrow of the feature matrix, if attached.
    pub fn features(&self) -> Option<&DenseMatrix> {
        self.features.as_ref()
    }

    /// Borrow of the label vector, if attached.
    pub fn labels(&self) -> Option<&[usize]> {
        self.labels.as_deref()
    }

    /// Number of label classes (0 if no labels attached).
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Out-degree of every vertex.
    pub fn degrees(&self) -> Vec<usize> {
        (0..self.num_vertices()).map(|v| self.out_degree(v)).collect()
    }

    /// Maximum out-degree.
    pub fn max_degree(&self) -> usize {
        self.degrees().into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_basic() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)]).unwrap();
        assert_eq!(g.num_vertices(), 4);
        // Duplicate edge merged.
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.average_degree(), 1.0);
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(Graph::from_edges(0, &[]).is_err());
        assert!(matches!(
            Graph::from_edges(2, &[(0, 5)]),
            Err(GraphError::VertexOutOfRange { vertex: 5, .. })
        ));
    }

    #[test]
    fn from_adjacency_requires_square() {
        let rect = CsrMatrix::zeros(2, 3);
        assert!(Graph::from_adjacency(rect).is_err());
        let square = CsrMatrix::identity(3);
        assert!(Graph::from_adjacency(square).is_ok());
    }

    #[test]
    fn features_and_labels_validation() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let feats = DenseMatrix::zeros(3, 4);
        let g = g.with_features(feats).unwrap();
        assert_eq!(g.features().unwrap().cols(), 4);

        let bad_feats = DenseMatrix::zeros(2, 4);
        assert!(Graph::from_edges(3, &[]).unwrap().with_features(bad_feats).is_err());

        let g = g.with_labels(vec![0, 1, 1], 2).unwrap();
        assert_eq!(g.num_classes(), 2);
        assert_eq!(g.labels().unwrap()[2], 1);

        let g2 = Graph::from_edges(3, &[]).unwrap();
        assert!(g2.clone().with_labels(vec![0, 1], 2).is_err());
        assert!(g2.clone().with_labels(vec![0, 1, 5], 2).is_err());
        assert!(g2.with_labels(vec![0, 0, 0], 0).is_err());
    }

    #[test]
    fn degree_statistics() {
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 0)]).unwrap();
        assert_eq!(g.degrees(), vec![3, 1, 0, 0, 0]);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.degrees().iter().filter(|&&d| d == 0).count(), 3);
    }

    #[test]
    fn error_display_and_source() {
        let e = GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 };
        assert!(e.to_string().contains("vertex 9"));
        let m = GraphError::Matrix(MatrixError::Empty("row"));
        assert!(m.source().is_some());
    }
}
