//! Activation functions: the row softmax of the loss, and the ReLU oracles
//! the GraphSAGE layer's fused forward and backward passes are tested
//! against.

use dmbs_matrix::DenseMatrix;

/// Rectified linear unit applied element-wise (the oracle of the ReLU the
/// GraphSAGE layer fuses into its forward pass).
#[cfg(test)]
pub(crate) fn relu(x: &DenseMatrix) -> DenseMatrix {
    x.map(|v| if v > 0.0 { v } else { 0.0 })
}

/// Gradient of ReLU: passes `upstream` through where the pre-activation was
/// positive (the oracle of the mask the GraphSAGE layer applies in place).
///
/// # Panics
///
/// Panics if the shapes differ.
#[cfg(test)]
pub(crate) fn relu_backward(pre_activation: &DenseMatrix, upstream: &DenseMatrix) -> DenseMatrix {
    assert_eq!(pre_activation.shape(), upstream.shape(), "relu_backward shape mismatch");
    let mask = pre_activation.map(|v| if v > 0.0 { 1.0 } else { 0.0 });
    mask.hadamard(upstream).expect("shapes checked above")
}

/// Row-wise softmax with the usual max-subtraction for numerical stability.
pub fn softmax_rows(logits: &DenseMatrix) -> DenseMatrix {
    let mut out = logits.clone();
    for r in 0..out.rows() {
        let row = out.row_mut(r);
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        if sum > 0.0 {
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = DenseMatrix::from_rows(&[vec![-1.0, 0.0, 2.0]]).unwrap();
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let pre = DenseMatrix::from_rows(&[vec![-1.0, 3.0]]).unwrap();
        let up = DenseMatrix::from_rows(&[vec![5.0, 7.0]]).unwrap();
        assert_eq!(relu_backward(&pre, &up).as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x =
            DenseMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![1000.0, 1000.0, 1000.0]]).unwrap();
        let s = softmax_rows(&x);
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-12);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-12);
    }
}
