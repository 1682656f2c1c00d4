//! The mean-aggregator GraphSAGE layer with explicit forward/backward passes.
//!
//! One layer computes
//!
//! ```text
//! Z = relu( H_self · W_self  +  Â · H · W_neigh )
//! ```
//!
//! where `Â` is the sampled adjacency with each row divided by its sum (the
//! neighbourhood mean), `H` holds embeddings for the layer's column vertices
//! and `H_self` the rows of `H` at the layer's row vertices.  Nothing is
//! copied that the arithmetic does not need: `Â` is never materialised (the
//! SpMMs divide by the row sum as they go, [`RowWeights::RowNormalized`]),
//! the input is borrowed, and the ReLU output is kept once — it is the next
//! layer's input and, through `Z > 0 ⇔ pre-activation > 0`, the gradient
//! mask.  The arithmetic is that of the textbook formulation (kept in this
//! module's tests as the oracle), operation for operation, so losses and
//! gradients are bit-identical to it.

use crate::Result;
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::spmm::{spmm_parallel, spmm_transpose_parallel, RowWeights};
use dmbs_matrix::{CsrMatrix, DenseMatrix, MatrixError};

/// What the backward pass reads of one SAGE layer's forward pass.
#[derive(Debug, Clone)]
pub(crate) struct SageActivations {
    /// Position of each row vertex among the layer's column vertices.
    pub(crate) positions: Vec<usize>,
    /// The layer input's rows at `positions` (`rows × in_dim`).
    pub(crate) h_self: DenseMatrix,
    /// `Â · H` (`rows × in_dim`).
    pub(crate) aggregated: DenseMatrix,
    /// The ReLU output (`rows × out_dim`).
    pub(crate) output: DenseMatrix,
}

/// Gradients of one SAGE layer.
#[derive(Debug)]
pub(crate) struct SageGradients {
    /// Gradient of the self weight matrix.
    pub(crate) d_w_self: DenseMatrix,
    /// Gradient of the neighbor weight matrix.
    pub(crate) d_w_neigh: DenseMatrix,
    /// Gradient of the layer input (`cols × in_dim`), when asked for.
    pub(crate) d_input: Option<DenseMatrix>,
}

/// Forward pass of one SAGE layer over input `h` (one row per column vertex
/// of `adjacency`), with the row vertices at `positions` of `h`.
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches or a position
/// outside `h`.
pub(crate) fn sage_layer_forward(
    adjacency: &CsrMatrix,
    positions: Vec<usize>,
    h: &DenseMatrix,
    w_self: &DenseMatrix,
    w_neigh: &DenseMatrix,
    parallelism: Parallelism,
) -> Result<SageActivations> {
    let aggregated = spmm_parallel(adjacency, h, RowWeights::RowNormalized, parallelism)?;
    let h_self = h.gather_rows(&positions)?;
    let mut output = h_self.matmul_parallel(w_self, parallelism)?;
    let neigh = aggregated.matmul_parallel(w_neigh, parallelism)?;
    if output.shape() != neigh.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "sage self + neighbor",
            lhs: output.shape(),
            rhs: neigh.shape(),
        }
        .into());
    }
    for (o, &n) in output.as_mut_slice().iter_mut().zip(neigh.as_slice()) {
        let pre = *o + n;
        *o = if pre > 0.0 { pre } else { 0.0 };
    }
    Ok(SageActivations { positions, h_self, aggregated, output })
}

/// Backward pass of one SAGE layer: `d_output` is the gradient of the
/// layer's output, which this consumes.  The input gradient — the
/// transposed aggregation plus the self gradient scattered to the row
/// vertices' positions — is computed only when `input_gradient` asks for it
/// (the innermost layer's input is the feature matrix, which trains
/// nothing).
///
/// # Errors
///
/// Returns [`crate::GnnError::Matrix`] on dimension mismatches.
pub(crate) fn sage_layer_backward(
    adjacency: &CsrMatrix,
    act: &SageActivations,
    w_self: &DenseMatrix,
    w_neigh: &DenseMatrix,
    mut d_output: DenseMatrix,
    input_gradient: bool,
    parallelism: Parallelism,
) -> Result<SageGradients> {
    if d_output.shape() != act.output.shape() {
        return Err(MatrixError::DimensionMismatch {
            op: "sage relu backward",
            lhs: act.output.shape(),
            rhs: d_output.shape(),
        }
        .into());
    }
    // `upstream * mask`, the mask from the output (IEEE products commute
    // exactly): a negative upstream entry under a zero mask becomes `-0.0`,
    // as in the textbook form.
    for (d, &z) in d_output.as_mut_slice().iter_mut().zip(act.output.as_slice()) {
        *d *= if z > 0.0 { 1.0 } else { 0.0 };
    }
    let d_pre = d_output;
    let d_w_self = act.h_self.transpose_matmul_parallel(&d_pre, parallelism)?;
    let d_w_neigh = act.aggregated.transpose_matmul_parallel(&d_pre, parallelism)?;
    let d_input = if input_gradient {
        let d_self = d_pre.matmul_transpose_parallel(w_self, parallelism)?;
        let d_aggregated = d_pre.matmul_transpose_parallel(w_neigh, parallelism)?;
        let mut d_input = spmm_transpose_parallel(
            adjacency,
            &d_aggregated,
            RowWeights::RowNormalized,
            parallelism,
        )?;
        for (row, &pos) in act.positions.iter().enumerate() {
            for (d, &s) in d_input.row_mut(pos).iter_mut().zip(d_self.row(row)) {
                *d += s;
            }
        }
        Some(d_input)
    } else {
        None
    };
    Ok(SageGradients { d_w_self, d_w_neigh, d_input })
}

#[cfg(test)]
pub(crate) use oracle::{linear_backward, linear_forward, sage_backward, sage_forward};

/// The textbook layer formulation — normalised adjacency copy, cloned
/// operands, separate add / ReLU / mask passes — that the copy-free layer
/// must match bit for bit.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::activations::{relu, relu_backward};
    use crate::Result;
    use dmbs_matrix::pool::Parallelism;
    use dmbs_matrix::spmm::{spmm_parallel, spmm_transpose_parallel, RowWeights};
    use dmbs_matrix::{CsrMatrix, DenseMatrix};

    /// Cache of intermediate values produced by [`sage_forward`].
    #[derive(Debug, Clone)]
    pub(crate) struct SageCache {
        pub(crate) a_norm: CsrMatrix,
        pub(crate) h_self: DenseMatrix,
        pub(crate) aggregated: DenseMatrix,
        pub(crate) pre_activation: DenseMatrix,
        pub(crate) applied_relu: bool,
    }

    /// Gradients produced by [`sage_backward`].
    #[derive(Debug, Clone)]
    pub(crate) struct SageGrads {
        pub(crate) d_w_self: DenseMatrix,
        pub(crate) d_w_neigh: DenseMatrix,
        pub(crate) d_h_neigh: DenseMatrix,
        pub(crate) d_h_self: DenseMatrix,
    }

    pub(crate) fn sage_forward(
        adjacency: &CsrMatrix,
        h_neigh: &DenseMatrix,
        h_self: &DenseMatrix,
        w_self: &DenseMatrix,
        w_neigh: &DenseMatrix,
        apply_relu: bool,
        parallelism: Parallelism,
    ) -> Result<(DenseMatrix, SageCache)> {
        let mut a_norm = adjacency.clone();
        a_norm.normalize_rows();
        let aggregated = spmm_parallel(&a_norm, h_neigh, RowWeights::Stored, parallelism)?;
        let pre = h_self.matmul(w_self)?.add(&aggregated.matmul(w_neigh)?)?;
        let out = if apply_relu { relu(&pre) } else { pre.clone() };
        Ok((
            out,
            SageCache {
                a_norm,
                h_self: h_self.clone(),
                aggregated,
                pre_activation: pre,
                applied_relu: apply_relu,
            },
        ))
    }

    pub(crate) fn sage_backward(
        cache: &SageCache,
        w_self: &DenseMatrix,
        w_neigh: &DenseMatrix,
        upstream: &DenseMatrix,
        parallelism: Parallelism,
    ) -> Result<SageGrads> {
        let d_pre = if cache.applied_relu {
            relu_backward(&cache.pre_activation, upstream)
        } else {
            upstream.clone()
        };
        let d_w_self = cache.h_self.transpose_matmul(&d_pre)?;
        let d_w_neigh = cache.aggregated.transpose_matmul(&d_pre)?;
        let d_h_self = d_pre.matmul_transpose(w_self)?;
        let d_aggregated = d_pre.matmul_transpose(w_neigh)?;
        let d_h_neigh =
            spmm_transpose_parallel(&cache.a_norm, &d_aggregated, RowWeights::Stored, parallelism)?;
        Ok(SageGrads { d_w_self, d_w_neigh, d_h_neigh, d_h_self })
    }

    /// Cache for the final linear classifier.
    #[derive(Debug, Clone)]
    pub(crate) struct LinearCache {
        pub(crate) input: DenseMatrix,
    }

    pub(crate) fn linear_forward(
        input: &DenseMatrix,
        weight: &DenseMatrix,
    ) -> Result<(DenseMatrix, LinearCache)> {
        let logits = input.matmul(weight)?;
        Ok((logits, LinearCache { input: input.clone() }))
    }

    pub(crate) fn linear_backward(
        cache: &LinearCache,
        weight: &DenseMatrix,
        upstream: &DenseMatrix,
    ) -> Result<(DenseMatrix, DenseMatrix)> {
        let d_weight = cache.input.transpose_matmul(upstream)?;
        let d_input = upstream.matmul_transpose(weight)?;
        Ok((d_weight, d_input))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_matrix::CooMatrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_adjacency() -> CsrMatrix {
        // 2 rows (frontier), 3 cols (sampled vertices).
        CsrMatrix::from_coo(
            &CooMatrix::from_triples(2, 3, vec![(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)]).unwrap(),
        )
    }

    #[test]
    fn sage_forward_is_mean_aggregation_plus_self() {
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::from_rows(&[vec![1.0], vec![3.0], vec![5.0]]).unwrap();
        let h_self = DenseMatrix::from_rows(&[vec![10.0], vec![20.0]]).unwrap();
        let w_self = DenseMatrix::identity(1);
        let w_neigh = DenseMatrix::identity(1);
        let (out, cache) =
            sage_forward(&a, &h_neigh, &h_self, &w_self, &w_neigh, false, Parallelism::serial())
                .unwrap();
        // Row 0 aggregates mean(1, 3) = 2 plus self 10 = 12; row 1: 5 + 20 = 25.
        assert_eq!(out.get(0, 0), 12.0);
        assert_eq!(out.get(1, 0), 25.0);
        assert_eq!(cache.aggregated.get(0, 0), 2.0);
    }

    #[test]
    fn sage_relu_clamps_negative_outputs() {
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::from_rows(&[vec![1.0], vec![1.0], vec![1.0]]).unwrap();
        let h_self = DenseMatrix::from_rows(&[vec![-10.0], vec![10.0]]).unwrap();
        let (out, _) = sage_forward(
            &a,
            &h_neigh,
            &h_self,
            &DenseMatrix::identity(1),
            &DenseMatrix::identity(1),
            true,
            Parallelism::serial(),
        )
        .unwrap();
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(1, 0), 11.0);
    }

    /// Finite-difference check of every gradient the SAGE layer produces.
    #[test]
    fn sage_backward_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = tiny_adjacency();
        let h_neigh = DenseMatrix::random_uniform(3, 2, 1.0, &mut rng);
        let h_self = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);
        let w_self = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);
        let w_neigh = DenseMatrix::random_uniform(2, 2, 1.0, &mut rng);

        // Scalar objective: sum of outputs (upstream gradient of ones).
        let objective = |hn: &DenseMatrix, hs: &DenseMatrix, ws: &DenseMatrix, wn: &DenseMatrix| {
            sage_forward(&a, hn, hs, ws, wn, true, Parallelism::serial()).unwrap().0.sum()
        };
        let (out, cache) =
            sage_forward(&a, &h_neigh, &h_self, &w_self, &w_neigh, true, Parallelism::serial())
                .unwrap();
        let upstream = DenseMatrix::filled(out.rows(), out.cols(), 1.0);
        let grads =
            sage_backward(&cache, &w_self, &w_neigh, &upstream, Parallelism::serial()).unwrap();

        let eps = 1e-6;
        let check = |analytic: &DenseMatrix,
                     mut perturb: Box<dyn FnMut(usize, usize, f64) -> f64>| {
            for r in 0..analytic.rows() {
                for c in 0..analytic.cols() {
                    let num = (perturb(r, c, eps) - perturb(r, c, -eps)) / (2.0 * eps);
                    assert!(
                        (num - analytic.get(r, c)).abs() < 1e-5,
                        "finite difference mismatch at ({r}, {c}): {num} vs {}",
                        analytic.get(r, c)
                    );
                }
            }
        };

        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &grads.d_w_self,
            Box::new(move |r, c, d| {
                let mut w = ws.clone();
                w.set(r, c, w.get(r, c) + d);
                objective(&hn, &hs, &w, &wn)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &grads.d_w_neigh,
            Box::new(move |r, c, d| {
                let mut w = wn.clone();
                w.set(r, c, w.get(r, c) + d);
                objective(&hn, &hs, &ws, &w)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh.clone(), h_self.clone(), w_self.clone(), w_neigh.clone());
        check(
            &grads.d_h_neigh,
            Box::new(move |r, c, d| {
                let mut h = hn.clone();
                h.set(r, c, h.get(r, c) + d);
                objective(&h, &hs, &ws, &wn)
            }),
        );
        let (hn, hs, ws, wn) = (h_neigh, h_self, w_self, w_neigh);
        check(
            &grads.d_h_self,
            Box::new(move |r, c, d| {
                let mut h = hs.clone();
                h.set(r, c, h.get(r, c) + d);
                objective(&hn, &h, &ws, &wn)
            }),
        );
    }

    #[test]
    fn linear_forward_backward_consistency() {
        let mut rng = StdRng::seed_from_u64(9);
        let input = DenseMatrix::random_uniform(3, 4, 1.0, &mut rng);
        let weight = DenseMatrix::random_uniform(4, 2, 1.0, &mut rng);
        let (logits, cache) = linear_forward(&input, &weight).unwrap();
        assert_eq!(logits.shape(), (3, 2));
        let upstream = DenseMatrix::filled(3, 2, 1.0);
        let (d_w, d_h) = linear_backward(&cache, &weight, &upstream).unwrap();
        assert_eq!(d_w.shape(), weight.shape());
        assert_eq!(d_h.shape(), input.shape());
        // d/dW of sum(H W) = H^T 1.
        let expected_dw = input.transpose_matmul(&upstream).unwrap();
        assert!(d_w.approx_eq(&expected_dw, 1e-12));
    }

    #[test]
    fn dimension_mismatches_are_errors() {
        let a = tiny_adjacency();
        let bad_h_neigh = DenseMatrix::zeros(2, 2); // needs 3 rows
        let h_self = DenseMatrix::zeros(2, 2);
        let w = DenseMatrix::identity(2);
        assert!(
            sage_forward(&a, &bad_h_neigh, &h_self, &w, &w, true, Parallelism::serial()).is_err()
        );
        let input = DenseMatrix::zeros(2, 3);
        let weight = DenseMatrix::zeros(4, 2);
        assert!(linear_forward(&input, &weight).is_err());
    }
}
