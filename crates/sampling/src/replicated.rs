//! The Graph Replicated distributed sampling algorithm (§5.1).
//!
//! The sampler matrix `Q^l` (i.e. the set of minibatches) is partitioned 1D
//! across the `p` ranks while the adjacency matrix `A` is replicated on every
//! rank.  Each rank therefore computes `Q^l_i · A` — and the subsequent
//! normalization, sampling and extraction — entirely locally: **the sampling
//! step involves no communication**, which is why the paper's Figure 4 shows
//! near-linear scaling of sampling time.  The strategy itself is
//! [`crate::backend::ReplicatedBackend`], which deals each bulk group's
//! batches to the ranks round-robin
//! ([`crate::partitioned::assign_batches_to_rows`]).

#[cfg(test)]
mod tests {
    use crate::backend::{DistConfig, ReplicatedBackend, SamplingBackend};
    use crate::partitioned::assign_batches_to_rows;
    use crate::sampler::BulkSamplerConfig;
    use crate::{GraphSageSampler, LadiesSampler};
    use dmbs_graph::generators::figure1_example;
    use dmbs_matrix::CsrMatrix;

    #[test]
    fn round_robin_assignment_balances() {
        let a = assign_batches_to_rows(10, 4);
        assert_eq!(a[0], vec![0, 4, 8]);
        assert_eq!(a[1], vec![1, 5, 9]);
        assert_eq!(a[3], vec![3, 7]);
        let total: usize = a.iter().map(Vec::len).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn replicated_with_more_ranks_than_batches() {
        let backend =
            ReplicatedBackend::new(DistConfig::new(6, 1, BulkSamplerConfig::new(2, 2))).unwrap();
        let batches: Vec<Vec<usize>> = vec![vec![1, 5], vec![0, 2]];
        let epoch = backend
            .sample_epoch(&LadiesSampler::new(1, 2), figure1_example().adjacency(), &batches, 11)
            .unwrap();
        assert_eq!(epoch.num_batches(), 2);
        let per_rank: Vec<usize> = epoch.per_unit.iter().map(|u| u.num_batches).collect();
        assert_eq!(per_rank, vec![1, 1, 0, 0, 0, 0]);
    }

    #[test]
    fn replicated_rejects_rectangular_adjacency() {
        let backend =
            ReplicatedBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::default())).unwrap();
        let rect = CsrMatrix::zeros(3, 4);
        assert!(backend
            .sample_epoch(&GraphSageSampler::new(vec![2]), &rect, &[vec![0]], 0)
            .is_err());
    }
}
