//! Synthetic graph generators.
//!
//! The paper's datasets (OGB `products`, OGB `papers100M`, HipMCL `protein`)
//! cannot be shipped with this reproduction, so benchmarks are run on
//! synthetic graphs with matched average degree and power-law skew.  R-MAT is
//! the primary generator (it reproduces the heavy-tailed degree distributions
//! that drive feature-fetch volume and sampling-cost skew); Erdős–Rényi and
//! Chung–Lu are provided for controlled experiments, and a few deterministic
//! graphs support unit tests.

use crate::graph::{Graph, GraphError};
use rand::Rng;

/// Configuration for the R-MAT recursive matrix generator.
///
/// Produces a graph with `2^scale` vertices and approximately
/// `edge_factor * 2^scale` directed edges using the standard Graph500
/// partition probabilities (a, b, c, d).
#[derive(Debug, Clone, PartialEq)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average number of directed edges per vertex.
    pub edge_factor: usize,
    /// Probability of recursing into the top-left quadrant.
    pub a: f64,
    /// Probability of recursing into the top-right quadrant.
    pub b: f64,
    /// Probability of recursing into the bottom-left quadrant.
    pub c: f64,
    /// If true, add the reverse of every generated edge (symmetric graph).
    pub symmetric: bool,
}

impl RmatConfig {
    /// Creates a config with the Graph500 defaults
    /// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) and a directed output.
    pub fn new(scale: u32, edge_factor: usize) -> Self {
        RmatConfig { scale, edge_factor, a: 0.57, b: 0.19, c: 0.19, symmetric: false }
    }

    /// Enables symmetrization (each edge is added in both directions).
    pub fn symmetric(mut self) -> Self {
        self.symmetric = true;
        self
    }

    /// Number of vertices this configuration generates.
    pub fn num_vertices(&self) -> usize {
        1usize << self.scale
    }
}

/// Generates an R-MAT graph.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `scale == 0`, `edge_factor == 0`
/// or the quadrant probabilities are invalid (negative or summing above 1).
pub fn rmat<R: Rng + ?Sized>(config: &RmatConfig, rng: &mut R) -> Result<Graph, GraphError> {
    if config.scale == 0 {
        return Err(GraphError::InvalidConfig("rmat scale must be at least 1".into()));
    }
    if config.edge_factor == 0 {
        return Err(GraphError::InvalidConfig("rmat edge_factor must be at least 1".into()));
    }
    let d = 1.0 - config.a - config.b - config.c;
    if config.a < 0.0 || config.b < 0.0 || config.c < 0.0 || d < 0.0 {
        return Err(GraphError::InvalidConfig(
            "rmat quadrant probabilities must be non-negative and sum to at most 1".into(),
        ));
    }
    Graph::from_edges(config.num_vertices(), &rmat_edges(config, rng))
}

/// The edge list of [`rmat`]: `n · edge_factor` recursive descents, each
/// one draw per level, self-loops dropped, each edge followed by its reverse
/// when symmetric.
///
/// A descent builds the row and column bit by bit, top level first: the
/// draw `x` falls in the bottom half of the rows when `x >= a + b`, and in
/// the right half of the columns unless `x < a` or `a + b <= x < a + b + c`
/// — the quadrant the branchy cascade `a | b | c | d` picks, as two
/// comparisons each.
fn rmat_edges<R: Rng + ?Sized>(config: &RmatConfig, rng: &mut R) -> Vec<(usize, usize)> {
    let m = config.num_vertices() * config.edge_factor;
    let (a, ab) = (config.a, config.a + config.b);
    let abc = ab + config.c;
    let mut edges = Vec::with_capacity(if config.symmetric { 2 * m } else { m });
    for _ in 0..m {
        let (mut u, mut v) = (0usize, 0usize);
        for _ in 0..config.scale {
            let x: f64 = rng.gen();
            let left = (x < a) | ((x >= ab) & (x < abc));
            u = (u << 1) | usize::from(x >= ab);
            v = (v << 1) | usize::from(!left);
        }
        if u != v {
            edges.push((u, v));
            if config.symmetric {
                edges.push((v, u));
            }
        }
    }
    edges
}

/// The branchy quadrant cascade [`rmat_edges`] replaced, kept as its oracle.
#[cfg(test)]
fn rmat_edges_branchy<R: Rng + ?Sized>(config: &RmatConfig, rng: &mut R) -> Vec<(usize, usize)> {
    let n = config.num_vertices();
    let m = n * config.edge_factor;
    let mut edges = Vec::with_capacity(if config.symmetric { 2 * m } else { m });
    for _ in 0..m {
        let (mut lo_r, mut hi_r) = (0usize, n);
        let (mut lo_c, mut hi_c) = (0usize, n);
        while hi_r - lo_r > 1 {
            let x: f64 = rng.gen();
            let (top, left) = if x < config.a {
                (true, true)
            } else if x < config.a + config.b {
                (true, false)
            } else if x < config.a + config.b + config.c {
                (false, true)
            } else {
                (false, false)
            };
            let mid_r = (lo_r + hi_r) / 2;
            let mid_c = (lo_c + hi_c) / 2;
            if top {
                hi_r = mid_r;
            } else {
                lo_r = mid_r;
            }
            if left {
                hi_c = mid_c;
            } else {
                lo_c = mid_c;
            }
        }
        let (u, v) = (lo_r, lo_c);
        if u != v {
            edges.push((u, v));
            if config.symmetric {
                edges.push((v, u));
            }
        }
    }
    edges
}

/// Configuration for the Erdős–Rényi `G(n, p)` generator, expressed through a
/// target average degree instead of a raw probability.
#[derive(Debug, Clone, PartialEq)]
pub struct ErdosRenyiConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Expected out-degree of each vertex.
    pub average_degree: f64,
}

/// Generates an Erdős–Rényi random digraph by sampling, for each vertex, a
/// Binomial(n, d/n)-distributed number of uniform out-neighbors.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `num_vertices == 0` or the average
/// degree is negative or at least `num_vertices`.
pub fn erdos_renyi<R: Rng + ?Sized>(
    config: &ErdosRenyiConfig,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    let n = config.num_vertices;
    if n == 0 {
        return Err(GraphError::InvalidConfig("erdos_renyi requires at least one vertex".into()));
    }
    if config.average_degree < 0.0 || config.average_degree >= n as f64 {
        return Err(GraphError::InvalidConfig(format!(
            "average degree {} must be in [0, {n})",
            config.average_degree
        )));
    }
    let p = config.average_degree / n as f64;
    let mut edges = Vec::new();
    for u in 0..n {
        // Geometric skipping over the implicit Bernoulli trials keeps this
        // O(m) instead of O(n^2).
        if p <= 0.0 {
            continue;
        }
        let mut v = 0usize;
        loop {
            let r: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
            let skip = (r.ln() / (1.0 - p).ln()).floor() as usize;
            v = v.saturating_add(skip);
            if v >= n {
                break;
            }
            if v != u {
                edges.push((u, v));
            }
            v += 1;
            if v >= n {
                break;
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Configuration for the Chung–Lu generator, which produces a graph whose
/// expected degree sequence follows a power law with the given exponent.
#[derive(Debug, Clone, PartialEq)]
pub struct ChungLuConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target average degree.
    pub average_degree: f64,
    /// Power-law exponent of the expected degree sequence (typically 2–3).
    pub exponent: f64,
}

/// Generates a Chung–Lu random graph with a power-law expected degree
/// sequence.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `num_vertices == 0`, the average
/// degree is not positive, or the exponent is not greater than 1.
pub fn chung_lu<R: Rng + ?Sized>(config: &ChungLuConfig, rng: &mut R) -> Result<Graph, GraphError> {
    let n = config.num_vertices;
    if n == 0 {
        return Err(GraphError::InvalidConfig("chung_lu requires at least one vertex".into()));
    }
    if config.average_degree <= 0.0 {
        return Err(GraphError::InvalidConfig("average degree must be positive".into()));
    }
    if config.exponent <= 1.0 {
        return Err(GraphError::InvalidConfig("power-law exponent must exceed 1".into()));
    }
    // Expected weights w_i ~ i^(-1/(exponent-1)), rescaled to hit the target
    // average degree.
    let gamma = 1.0 / (config.exponent - 1.0);
    let mut weights: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-gamma)).collect();
    let sum: f64 = weights.iter().sum();
    let scale = config.average_degree * n as f64 / sum;
    for w in &mut weights {
        *w *= scale;
    }
    let total: f64 = weights.iter().sum();
    // Sample m edges by picking endpoints proportional to weight.
    let m = (config.average_degree * n as f64).round() as usize;
    let cumulative = dmbs_matrix::prefix::inclusive_scan(&weights);
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let u = dmbs_matrix::prefix::upper_bound(&cumulative, rng.gen::<f64>() * total);
        let v = dmbs_matrix::prefix::upper_bound(&cumulative, rng.gen::<f64>() * total);
        if u != v {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Builds the 6-vertex example graph of Figure 1 in the paper
/// (N(1) = {0, 2, 4}, N(5) = {3, 4}), symmetric.
pub fn figure1_example() -> Graph {
    Graph::from_edges(
        6,
        &[
            (0, 1),
            (1, 0),
            (1, 2),
            (1, 4),
            (2, 1),
            (2, 3),
            (3, 2),
            (3, 4),
            (3, 5),
            (4, 1),
            (4, 3),
            (4, 5),
            (5, 3),
            (5, 4),
        ],
    )
    .expect("static edge list is valid")
}

/// Builds a directed cycle on `n` vertices.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `n == 0`.
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidConfig("cycle requires at least one vertex".into()));
    }
    let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
    Graph::from_edges(n, &edges)
}

/// Builds the complete directed graph (no self loops) on `n` vertices.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `n == 0`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidConfig(
            "complete graph requires at least one vertex".into(),
        ));
    }
    let mut edges = Vec::with_capacity(n * (n - 1));
    for u in 0..n {
        for v in 0..n {
            if u != v {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// Builds a star graph: vertex 0 connects to and from every other vertex.
///
/// # Errors
///
/// Returns [`GraphError::InvalidConfig`] if `n < 2`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n < 2 {
        return Err(GraphError::InvalidConfig("star graph requires at least two vertices".into()));
    }
    let mut edges = Vec::with_capacity(2 * (n - 1));
    for v in 1..n {
        edges.push((0, v));
        edges.push((v, 0));
    }
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The bitwise descent draws what the branchy cascade draws: the same
    /// edge list, in order, and the same RNG state after it, over skewed,
    /// uniform and degenerate quadrant laws, directed and symmetric.
    #[test]
    fn branchless_descent_equals_the_branchy_cascade() {
        let laws = [
            (0.57, 0.19, 0.19),
            (0.25, 0.25, 0.25),
            (1.0, 0.0, 0.0),
            (0.0, 0.0, 0.0),
            (0.1, 0.6, 0.3),
        ];
        for (scale, factor) in [(1, 3), (5, 4), (9, 2)] {
            for &(a, b, c) in &laws {
                for symmetric in [false, true] {
                    let cfg = RmatConfig { scale, edge_factor: factor, a, b, c, symmetric };
                    let (mut r1, mut r2) = (StdRng::seed_from_u64(11), StdRng::seed_from_u64(11));
                    let got = rmat_edges(&cfg, &mut r1);
                    assert_eq!(got, rmat_edges_branchy(&cfg, &mut r2), "{cfg:?}");
                    assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "{cfg:?}");
                    // Draws exactly on, and one step either side of, every
                    // quadrant boundary of the uniform law.
                    let (mut r1, mut r2) = (Boundaries(0), Boundaries(0));
                    assert_eq!(rmat_edges(&cfg, &mut r1), rmat_edges_branchy(&cfg, &mut r2));
                }
            }
        }
    }

    /// An RNG whose `f64` draws cycle through `0.25`, `0.5` and `0.75`, each
    /// exactly and one step of `2^-53` below and above.
    struct Boundaries(u64);

    impl rand::RngCore for Boundaries {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }

        fn next_u64(&mut self) -> u64 {
            let quarter = 1u64 << 51; // `0.25` in units of 2^-53
            let at = (self.0 / 3 % 3 + 1) * quarter + self.0 % 3 - 1;
            self.0 += 1;
            at << 11
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            dest.fill(0);
        }
    }

    #[test]
    fn rmat_shape_and_determinism() {
        let cfg = RmatConfig::new(8, 8);
        let g1 = rmat(&cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        let g2 = rmat(&cfg, &mut StdRng::seed_from_u64(3)).unwrap();
        assert_eq!(g1.num_vertices(), 256);
        assert!(g1.num_edges() > 0);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(g1.adjacency(), g2.adjacency());
    }

    #[test]
    fn rmat_symmetric_has_symmetric_adjacency() {
        let cfg = RmatConfig::new(6, 4).symmetric();
        let g = rmat(&cfg, &mut StdRng::seed_from_u64(5)).unwrap();
        let a = g.adjacency();
        let t = a.transpose();
        assert_eq!(a, &t);
    }

    #[test]
    fn rmat_is_skewed() {
        // R-MAT should produce a heavier tail than the average degree.
        let cfg = RmatConfig::new(10, 8);
        let g = rmat(&cfg, &mut StdRng::seed_from_u64(11)).unwrap();
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
    }

    #[test]
    fn rmat_invalid_configs() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(rmat(&RmatConfig { scale: 0, ..RmatConfig::new(1, 1) }, &mut rng).is_err());
        assert!(rmat(&RmatConfig { edge_factor: 0, ..RmatConfig::new(4, 1) }, &mut rng).is_err());
        let bad = RmatConfig { a: 0.9, b: 0.2, c: 0.2, ..RmatConfig::new(4, 2) };
        assert!(rmat(&bad, &mut rng).is_err());
    }

    #[test]
    fn erdos_renyi_degree_close_to_target() {
        let cfg = ErdosRenyiConfig { num_vertices: 2000, average_degree: 10.0 };
        let g = erdos_renyi(&cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        let avg = g.average_degree();
        assert!((avg - 10.0).abs() < 1.5, "average degree {avg} too far from 10");
    }

    #[test]
    fn erdos_renyi_zero_degree() {
        let cfg = ErdosRenyiConfig { num_vertices: 10, average_degree: 0.0 };
        let g = erdos_renyi(&cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn erdos_renyi_invalid() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(erdos_renyi(&ErdosRenyiConfig { num_vertices: 0, average_degree: 1.0 }, &mut rng)
            .is_err());
        assert!(erdos_renyi(&ErdosRenyiConfig { num_vertices: 4, average_degree: 4.0 }, &mut rng)
            .is_err());
        assert!(erdos_renyi(&ErdosRenyiConfig { num_vertices: 4, average_degree: -1.0 }, &mut rng)
            .is_err());
    }

    #[test]
    fn chung_lu_power_law_skew() {
        let cfg = ChungLuConfig { num_vertices: 1000, average_degree: 8.0, exponent: 2.2 };
        let g = chung_lu(&cfg, &mut StdRng::seed_from_u64(13)).unwrap();
        assert!(g.num_edges() > 0);
        // Power-law graphs concentrate edges on low-index (heavy) vertices.
        assert!(g.out_degree(0) > g.average_degree() as usize);
    }

    #[test]
    fn chung_lu_invalid() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(chung_lu(
            &ChungLuConfig { num_vertices: 0, average_degree: 1.0, exponent: 2.0 },
            &mut rng
        )
        .is_err());
        assert!(chung_lu(
            &ChungLuConfig { num_vertices: 4, average_degree: 0.0, exponent: 2.0 },
            &mut rng
        )
        .is_err());
        assert!(chung_lu(
            &ChungLuConfig { num_vertices: 4, average_degree: 1.0, exponent: 1.0 },
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn figure1_matches_paper_neighborhoods() {
        let g = figure1_example();
        assert_eq!(g.neighbors(1), &[0, 2, 4]);
        assert_eq!(g.neighbors(5), &[3, 4]);
        assert_eq!(g.num_edges(), 14);
    }

    #[test]
    fn deterministic_families() {
        let c = cycle(5).unwrap();
        assert_eq!(c.num_edges(), 5);
        assert_eq!(c.neighbors(4), &[0]);
        assert!(cycle(0).is_err());

        let k = complete(4).unwrap();
        assert_eq!(k.num_edges(), 12);
        assert!(complete(0).is_err());

        let s = star(5).unwrap();
        assert_eq!(s.out_degree(0), 4);
        assert_eq!(s.out_degree(3), 1);
        assert!(star(1).is_err());
    }
}
