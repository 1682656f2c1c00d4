//! Micro-bulk sampling for the low-latency serving tier.
//!
//! Inference requests ask for the `L`-hop neighborhood of a *single* seed
//! vertex.  The serving tier batches requests that arrive close together into
//! one **micro-bulk** so the downstream feature gather and α–β fetch round
//! are shared; the sampling step itself runs through the same bulk machinery
//! as training ([`Sampler::sample_bulk`] with a one-vertex batch), so the
//! fused in-place draw and the reusable SpGEMM workspace serve the request
//! path too.
//!
//! The crucial twist mirrors [`crate::its::row_stream_seed`]: every request
//! draws from its **own** seeded RNG stream, derived from `(base seed,
//! request id)` by [`request_stream_seed`].  Just as per-row streams make
//! parallel ITS byte-identical at any thread count, per-request streams make
//! coalescing **byte-transparent**: the sample drawn for a request does not
//! depend on which other requests happen to share its micro-bulk, so a bulk
//! of `k` coalesced requests is bit-for-bit the sample of `k` singletons.
//! (Stacking the requests into one RNG stream — as training's bulk groups do
//! — would tie each request's draws to its position in the batch and break
//! that identity.)

use crate::plan::FetchPlan;
use crate::sampler::{BulkSamplerConfig, Sampler};
use crate::{MinibatchSample, Result};
use dmbs_comm::PhaseProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One serving request in a micro-bulk: a seed vertex plus the private RNG
/// stream seed its neighborhood is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroRequest {
    /// The seed vertex whose `L`-hop neighborhood is requested.
    pub vertex: usize,
    /// Seed of this request's private sampling stream — derive it with
    /// [`request_stream_seed`] so batching stays byte-transparent.
    pub seed: u64,
}

/// The RNG stream seed of request `request_id` under `base_seed` — the same
/// splitmix64 finalizer as [`crate::its::row_stream_seed`], so adjacent
/// request ids get decorrelated streams and the draw for a request depends
/// only on `(base_seed, request_id)`, never on its micro-bulk.
pub fn request_stream_seed(base_seed: u64, request_id: u64) -> u64 {
    crate::seed::stream_seed(base_seed, request_id)
}

/// A sampled micro-bulk: one [`MinibatchSample`] per request (in request
/// order), the coalesced [`FetchPlan`] over their input frontiers, and the
/// accumulated sampling-phase timings.
#[derive(Debug, Clone)]
pub struct MicroBulkSample {
    /// Per-request samples, in the order the requests were supplied.
    pub samples: Vec<MinibatchSample>,
    /// Deduplicated union of the requests' input vertices — the single
    /// feature gather that serves the whole micro-bulk.
    pub plan: FetchPlan,
    /// Sampling-phase timing summed over the requests.
    pub profile: PhaseProfile,
}

impl MicroBulkSample {
    /// Number of requests in the micro-bulk.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the micro-bulk holds no requests.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total sampled edges across every request (the deterministic compute
    /// volume of the micro-bulk, which the serving cost model bills).
    pub fn total_edges(&self) -> usize {
        self.samples.iter().map(MinibatchSample::total_edges).sum()
    }
}

/// Samples a micro-bulk of single-seed requests through the bulk sampler.
///
/// Each request runs as a one-batch [`Sampler::sample_bulk`] call seeded by
/// its own [`MicroRequest::seed`], with `config`'s parallelism and workspace
/// reuse (the thread-local SpGEMM/extraction scratch is shared across the
/// whole micro-bulk — and across micro-bulks on a long-lived serving
/// thread).  `config.batch_size` / `config.bulk_size` are ignored; the
/// request path is always `b = k = 1` per request.
///
/// The output for each request is byte-identical to sampling it alone — see
/// the module docs and the `coalescing_is_byte_transparent` test.
///
/// # Errors
///
/// Returns [`crate::SamplingError::InvalidConfig`] if `requests` is empty or
/// any seed vertex lies outside the graph.
pub fn sample_micro_bulk<S: Sampler + ?Sized>(
    sampler: &S,
    adjacency: &dmbs_matrix::CsrMatrix,
    requests: &[MicroRequest],
    config: &BulkSamplerConfig,
) -> Result<MicroBulkSample> {
    if requests.is_empty() {
        return Err(crate::SamplingError::InvalidConfig(
            "a micro-bulk needs at least one request".into(),
        ));
    }
    let one = BulkSamplerConfig { batch_size: 1, bulk_size: 1, parallelism: config.parallelism };
    let mut samples = Vec::with_capacity(requests.len());
    let mut profile = PhaseProfile::new();
    for request in requests {
        let mut rng = StdRng::seed_from_u64(request.seed);
        let mut out = sampler.sample_bulk(adjacency, &[vec![request.vertex]], &one, &mut rng)?;
        profile.merge_sum(&out.profile);
        samples.push(out.minibatches.remove(0));
    }
    let plan = FetchPlan::from_minibatches(&samples);
    Ok(MicroBulkSample { samples, plan, profile })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphSageSampler;
    use dmbs_graph::generators::figure1_example;

    fn requests(base: u64, vertices: &[usize]) -> Vec<MicroRequest> {
        vertices
            .iter()
            .enumerate()
            .map(|(id, &vertex)| MicroRequest {
                vertex,
                seed: request_stream_seed(base, id as u64),
            })
            .collect()
    }

    #[test]
    fn coalescing_is_byte_transparent() {
        // A micro-bulk of k requests equals the k singletons, bit for bit,
        // regardless of how the requests are grouped.
        let g = figure1_example();
        let sampler = GraphSageSampler::new(vec![2, 2]).with_self_loops();
        let config = BulkSamplerConfig::new(1, 1);
        let reqs = requests(7, &[1, 5, 0, 3, 4]);
        let bulk = sample_micro_bulk(&sampler, g.adjacency(), &reqs, &config).unwrap();
        assert_eq!(bulk.len(), 5);
        assert!(!bulk.is_empty());
        for (i, req) in reqs.iter().enumerate() {
            let single = sample_micro_bulk(&sampler, g.adjacency(), &[*req], &config).unwrap();
            assert_eq!(single.samples[0], bulk.samples[i], "request {i} diverged");
        }
        // Grouping differently changes nothing either.
        let halves = [
            sample_micro_bulk(&sampler, g.adjacency(), &reqs[..2], &config).unwrap(),
            sample_micro_bulk(&sampler, g.adjacency(), &reqs[2..], &config).unwrap(),
        ];
        let regrouped: Vec<_> = halves.iter().flat_map(|h| h.samples.iter().cloned()).collect();
        assert_eq!(regrouped, bulk.samples);
    }

    #[test]
    fn plan_covers_the_union_and_edges_are_counted() {
        let g = figure1_example();
        let sampler = GraphSageSampler::new(vec![2]).with_self_loops();
        let config = BulkSamplerConfig::new(1, 1);
        let reqs = requests(3, &[1, 1, 5]);
        let bulk = sample_micro_bulk(&sampler, g.adjacency(), &reqs, &config).unwrap();
        assert!(bulk.total_edges() > 0);
        // Every sample's input vertices appear in the plan union.
        for sample in &bulk.samples {
            for v in sample.input_vertices() {
                assert!(bulk.plan.unique_vertices().contains(v));
            }
        }
        // The duplicate request deduplicates in the plan.
        assert!(bulk.plan.unique_len() <= bulk.plan.total_requests());
    }

    #[test]
    fn request_seeds_are_decorrelated_and_inputs_validated() {
        assert_ne!(request_stream_seed(1, 0), request_stream_seed(1, 1));
        assert_ne!(request_stream_seed(1, 0), request_stream_seed(2, 0));
        let g = figure1_example();
        let sampler = GraphSageSampler::new(vec![2]);
        let config = BulkSamplerConfig::new(1, 1);
        assert!(sample_micro_bulk(&sampler, g.adjacency(), &[], &config).is_err());
        let bad = [MicroRequest { vertex: 99, seed: 0 }];
        assert!(sample_micro_bulk(&sampler, g.adjacency(), &bad, &config).is_err());
    }

    #[test]
    fn knobs_do_not_change_what_is_sampled() {
        use dmbs_matrix::pool::Parallelism;
        let g = figure1_example();
        let sampler = GraphSageSampler::new(vec![2, 2]).with_self_loops();
        let reqs = requests(11, &[0, 2, 4]);
        let base = sample_micro_bulk(&sampler, g.adjacency(), &reqs, &BulkSamplerConfig::new(1, 1))
            .unwrap();
        let tuned = sample_micro_bulk(
            &sampler,
            g.adjacency(),
            &reqs,
            &BulkSamplerConfig::new(1, 1).with_parallelism(Parallelism::new(4)),
        )
        .unwrap();
        assert_eq!(base.samples, tuned.samples);
        assert_eq!(base.plan, tuned.plan);
    }
}
