//! Minibatch construction.
//!
//! Each epoch shuffles the training vertex set and splits it into minibatches
//! of `b` vertices.  The bulk sampler then samples `k` of these minibatches at
//! once (§4.1.4); in the distributed pipeline the `k` bulk-sampled minibatches
//! are divided between the `p` processes so each trains `k/p` of them (§6.1).

use crate::graph::GraphError;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A plan dividing a training set into minibatches, and minibatches into bulk
/// groups of `k`.
///
/// # Example
///
/// ```
/// use dmbs_graph::minibatch::MinibatchPlan;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), dmbs_graph::GraphError> {
/// let train: Vec<usize> = (0..100).collect();
/// let mut rng = StdRng::seed_from_u64(0);
/// let plan = MinibatchPlan::new(&train, 32, &mut rng)?;
/// assert_eq!(plan.num_batches(), 4); // 32 + 32 + 32 + 4
/// assert_eq!(plan.batch(3).len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MinibatchPlan {
    batch_size: usize,
    batches: Vec<Vec<usize>>,
}

impl MinibatchPlan {
    /// Shuffles `train_set` and splits it into minibatches of `batch_size`
    /// (the final batch may be smaller).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if `batch_size == 0` or the
    /// training set is empty.
    pub fn new<R: Rng + ?Sized>(
        train_set: &[usize],
        batch_size: usize,
        rng: &mut R,
    ) -> Result<Self, GraphError> {
        if batch_size == 0 {
            return Err(GraphError::InvalidConfig("batch_size must be positive".into()));
        }
        if train_set.is_empty() {
            return Err(GraphError::InvalidConfig("training set must not be empty".into()));
        }
        let mut shuffled = train_set.to_vec();
        for i in (1..shuffled.len()).rev() {
            let j = rng.gen_range(0..=i);
            shuffled.swap(i, j);
        }
        let batches = shuffled.chunks(batch_size).map(|c| c.to_vec()).collect();
        Ok(MinibatchPlan { batch_size, batches })
    }

    /// Builds a plan without shuffling (deterministic order), useful for
    /// tests and for comparing samplers on identical batches.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidConfig`] if `batch_size == 0` or the
    /// training set is empty.
    pub fn sequential(train_set: &[usize], batch_size: usize) -> Result<Self, GraphError> {
        if batch_size == 0 {
            return Err(GraphError::InvalidConfig("batch_size must be positive".into()));
        }
        if train_set.is_empty() {
            return Err(GraphError::InvalidConfig("training set must not be empty".into()));
        }
        let batches = train_set.chunks(batch_size).map(|c| c.to_vec()).collect();
        Ok(MinibatchPlan { batch_size, batches })
    }

    /// The configured batch size.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Number of minibatches.
    pub fn num_batches(&self) -> usize {
        self.batches.len()
    }

    /// The vertices of minibatch `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_batches`.
    pub fn batch(&self, i: usize) -> &[usize] {
        &self.batches[i]
    }

    /// All minibatches.
    pub fn batches(&self) -> &[Vec<usize>] {
        &self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covers_training_set_exactly_once() {
        let train: Vec<usize> = (0..103).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let plan = MinibatchPlan::new(&train, 20, &mut rng).unwrap();
        assert_eq!(plan.num_batches(), 6);
        let mut all: Vec<usize> = plan.batches().iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, train);
    }

    #[test]
    fn shuffling_changes_order_but_not_content() {
        let train: Vec<usize> = (0..64).collect();
        let plan = MinibatchPlan::new(&train, 64, &mut StdRng::seed_from_u64(1)).unwrap();
        assert_ne!(plan.batch(0).to_vec(), train);
        let mut sorted = plan.batch(0).to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, train);
    }

    #[test]
    fn sequential_preserves_order() {
        let train: Vec<usize> = vec![5, 9, 2, 7];
        let plan = MinibatchPlan::sequential(&train, 3).unwrap();
        assert_eq!(plan.batch(0), &[5, 9, 2]);
        assert_eq!(plan.batch(1), &[7]);
    }

    #[test]
    fn validation() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(MinibatchPlan::new(&[], 4, &mut rng).is_err());
        assert!(MinibatchPlan::new(&[1, 2], 0, &mut rng).is_err());
        assert!(MinibatchPlan::sequential(&[], 4).is_err());
        assert!(MinibatchPlan::sequential(&[1], 0).is_err());
    }
}
