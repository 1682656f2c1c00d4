//! The unified [`SamplingBackend`] abstraction.
//!
//! The paper's central claim is that one matrix formulation (Algorithm 1)
//! expresses *every* sampling algorithm and *every* distribution strategy.
//! This module makes the distribution axis a first-class type: a backend
//! decides **where** `Q`, `P` and `A` live and how the matrix pipeline is
//! scheduled across ranks, while staying generic over **which**
//! [`Sampler`] (GraphSAGE §4.1, LADIES §4.2, FastGCN §2.2.2) supplies the
//! `NORM`/`SAMPLE`/`EXTRACT` steps:
//!
//! * [`LocalBackend`] — single device, no communication (the baseline matrix
//!   pipeline of §4);
//! * [`ReplicatedBackend`] — Graph Replicated (§5.1): `Q` partitioned 1D,
//!   `A` replicated, zero communication during sampling;
//! * [`Partitioned1p5dBackend`] — Graph Partitioned (§5.2): both matrices on
//!   a `p/c × c` grid, probabilities via the sparsity-aware 1.5D SpGEMM of
//!   Algorithm 2, running the same matrix pipeline as the other two on the
//!   sampler's [`Sampler::spec`].
//!
//! All three share one configuration type, [`DistConfig`], and one output
//! type, [`EpochSamples`], and are driven by one entry point,
//! [`SamplingBackend::sample_epoch`].
//!
//! # Example: the same sampler through two strategies
//!
//! ```
//! use dmbs_sampling::backend::{DistConfig, LocalBackend, ReplicatedBackend, SamplingBackend};
//! use dmbs_sampling::{BulkSamplerConfig, GraphSageSampler};
//! use dmbs_graph::generators::figure1_example;
//!
//! # fn main() -> Result<(), dmbs_sampling::SamplingError> {
//! let graph = figure1_example();
//! let sampler = GraphSageSampler::new(vec![2]);
//! let batches = vec![vec![1, 5], vec![0, 3], vec![2, 4]];
//! let bulk = BulkSamplerConfig::new(2, 3);
//!
//! let local = LocalBackend::new(bulk)?;
//! let on_one_device = local.sample_epoch(&sampler, graph.adjacency(), &batches, 7)?;
//!
//! let replicated = ReplicatedBackend::new(DistConfig::new(4, 1, bulk))?;
//! let on_four_ranks = replicated.sample_epoch(&sampler, graph.adjacency(), &batches, 7)?;
//!
//! assert_eq!(on_one_device.output.num_batches(), 3);
//! assert_eq!(on_four_ranks.output.num_batches(), 3);
//! // Graph-replicated sampling never communicates (§5.1).
//! assert_eq!(on_four_ranks.output.comm_stats.messages, 0);
//! # Ok(())
//! # }
//! ```

use crate::partitioned::{assign_batches_to_rows, RankRows};
use crate::pipeline::{self, RowSource};
use crate::plan::{BulkSampleOutput, MinibatchSample};
use crate::sampler::{check_square, validate_batches, BulkSamplerConfig, Sampler};
use crate::spec::SamplerSpec;
use crate::{Result, SamplingError};
use dmbs_comm::{CommStats, Communicator, PhaseProfile, ProcessGrid, Runtime};
use dmbs_graph::partition::OneDPartition;
use dmbs_matrix::CsrMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Shared configuration of the distributed sampling backends: the process
/// count `p`, the replication factor `c` of the `p/c × c` grid (§5.2), and
/// the bulk sampling shape (`b`, `k`) of §4.1.4/§6.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistConfig {
    /// Number of simulated ranks `p`.
    pub ranks: usize,
    /// Replication factor `c`; must divide `ranks`.  The replicated backend
    /// only uses it for grid bookkeeping (its `A` is fully replicated), the
    /// partitioned backend for the block-row layout of Algorithm 2.
    pub replication_c: usize,
    /// Bulk sampling shape: batch size `b` and bulk minibatch count `k`.
    pub bulk: BulkSamplerConfig,
}

impl DistConfig {
    /// Creates a distribution configuration; validate with
    /// [`DistConfig::validate`] (backends validate on construction).
    pub fn new(ranks: usize, replication_c: usize, bulk: BulkSamplerConfig) -> Self {
        DistConfig { ranks, replication_c, bulk }
    }

    /// Rejects zero ranks, zero/non-dividing replication and zero bulk
    /// fields with typed errors.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::InvalidDistConfig`] or
    /// [`SamplingError::InvalidBulkConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.ranks == 0 {
            return Err(SamplingError::InvalidDistConfig { field: "ranks", value: 0 });
        }
        if self.replication_c == 0 || !self.ranks.is_multiple_of(self.replication_c) {
            return Err(SamplingError::InvalidDistConfig {
                field: "replication_c",
                value: self.replication_c,
            });
        }
        self.bulk.validate()
    }
}

/// Per-sampling-unit statistics of one epoch: a *unit* is a rank for the
/// replicated backend, a process row for the partitioned backend, and the
/// single device for the local backend.
#[derive(Debug, Clone, Default)]
pub struct UnitStats {
    /// Unit index (rank or process-row id).
    pub unit: usize,
    /// Number of minibatches this unit sampled.
    pub num_batches: usize,
    /// Phase timing breakdown of this unit.
    pub profile: PhaseProfile,
    /// Communication volume and modeled time of this unit.
    pub comm_stats: CommStats,
}

/// The common output of [`SamplingBackend::sample_epoch`]: all minibatches in
/// the original batch order plus per-unit breakdowns for scaling analyses.
#[derive(Debug, Clone, Default)]
pub struct EpochSamples {
    /// Flattened output: minibatches in the order the batches were supplied;
    /// the profile is the per-phase maximum across units (bulk-synchronous
    /// pipeline), the communication stats the sum.
    pub output: BulkSampleOutput,
    /// Per-unit statistics, in unit order.
    pub per_unit: Vec<UnitStats>,
}

impl EpochSamples {
    /// Number of minibatches sampled.
    pub fn num_batches(&self) -> usize {
        self.output.num_batches()
    }

    /// The sampled minibatches in original batch order.
    pub fn minibatches(&self) -> &[MinibatchSample] {
        &self.output.minibatches
    }

    /// Maximum across units of the total (compute + modeled communication)
    /// time spent in `phase` — the bulk-synchronous critical path.
    pub fn max_phase_total(&self, phase: dmbs_comm::Phase) -> f64 {
        self.per_unit.iter().map(|u| u.profile.total(phase)).fold(0.0, f64::max)
    }

    /// Maximum across units of total compute time.
    pub fn max_total_compute(&self) -> f64 {
        self.per_unit.iter().map(|u| u.profile.total_compute()).fold(0.0, f64::max)
    }

    /// Maximum across units of total modeled communication time.
    pub fn max_total_comm(&self) -> f64 {
        self.per_unit.iter().map(|u| u.profile.total_comm()).fold(0.0, f64::max)
    }

    /// Total words sent across all units.
    pub fn total_words_sent(&self) -> usize {
        self.per_unit.iter().map(|u| u.comm_stats.words_sent).sum()
    }

    /// Maximum across units of the number of messages sent.
    pub fn max_messages(&self) -> usize {
        self.per_unit.iter().map(|u| u.comm_stats.messages).max().unwrap_or(0)
    }

    /// Appends another epoch's samples (e.g. the next bulk group), summing
    /// unit statistics elementwise.
    pub fn merge(&mut self, other: EpochSamples) {
        self.output.merge(other.output);
        if self.per_unit.len() < other.per_unit.len() {
            self.per_unit.resize_with(other.per_unit.len(), UnitStats::default);
        }
        for (mine, theirs) in self.per_unit.iter_mut().zip(other.per_unit) {
            mine.unit = theirs.unit;
            mine.num_batches += theirs.num_batches;
            mine.profile.merge_sum(&theirs.profile);
            mine.comm_stats.merge(&theirs.comm_stats);
        }
    }
}

/// The seed of bulk group `group` within an epoch seeded with `epoch_seed`.
/// Group 0 uses `epoch_seed` itself, so a single-group epoch is seeded
/// exactly like a direct bulk-sampling call.
pub fn group_seed(epoch_seed: u64, group: usize) -> u64 {
    epoch_seed.wrapping_add((group as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One rank's share of a bulk group sampled inside an SPMD pipeline region.
#[derive(Debug, Clone, Default)]
pub struct GroupShard {
    /// `(index within the group, sample)` for every minibatch this rank
    /// trains.
    pub samples: Vec<(usize, MinibatchSample)>,
    /// Sampling-phase profile of this rank for the group.
    pub profile: PhaseProfile,
}

/// A distribution strategy for the matrix sampling pipeline, generic over
/// the sampling algorithm.
///
/// Implementations provide two entry points: [`sample_epoch`] drives a whole
/// epoch from outside any SPMD region, and [`sample_group_on_rank`] samples
/// one bulk group from *inside* a training pipeline's SPMD region, so that
/// sampling composes with distributed feature fetching and gradient
/// all-reduces (§6, Figure 3).  On the distributed backends the first is
/// the second run on every rank of the backend's runtime, group by group:
/// one code path samples both, with the same minibatches and the same
/// communication.
///
/// [`sample_epoch`]: SamplingBackend::sample_epoch
/// [`sample_group_on_rank`]: SamplingBackend::sample_group_on_rank
pub trait SamplingBackend {
    /// Short human-readable name (used in reports and error messages).
    fn name(&self) -> &'static str;

    /// Number of parallel sampling units (1 for local, `p` for replicated,
    /// `p/c` process rows for partitioned).
    fn units(&self) -> usize;

    /// The bulk sampling shape this backend was configured with: batch size
    /// `b`, bulk count `k` and the kernels' thread count.  A session reads
    /// all three from here; nothing overrides them.
    fn bulk(&self) -> &BulkSamplerConfig;

    /// The simulated runtime, when the backend is distributed.
    fn runtime(&self) -> Option<&Runtime> {
        None
    }

    /// The distribution configuration, when the backend is distributed.
    fn dist(&self) -> Option<&DistConfig> {
        None
    }

    /// A serializable description from which an identical backend can be
    /// rebuilt in another process (see [`crate::spec`]).  `None` — the
    /// default — marks a backend that cannot cross process boundaries.
    fn spec(&self) -> Option<crate::spec::BackendSpec> {
        None
    }

    /// Samples every minibatch of an epoch: `batches` are split into bulk
    /// groups of `bulk().bulk_size`, each group is sampled with the backend's
    /// distribution strategy under [`group_seed`]`(seed, group)`, and the
    /// results are flattened back into the original batch order.  A
    /// distributed backend spawns its ranks and runs
    /// [`SamplingBackend::sample_group_on_rank`] on every one of them.
    ///
    /// # Errors
    ///
    /// Returns configuration errors ([`SamplingError::InvalidBulkConfig`],
    /// [`SamplingError::InvalidDistConfig`], invalid batches), sampler errors
    /// and collective failures.
    fn sample_epoch<S: Sampler + Sync>(
        &self,
        sampler: &S,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        seed: u64,
    ) -> Result<EpochSamples>;

    /// Samples one bulk group from inside an SPMD region and returns the
    /// shard of minibatches this rank trains.  Every rank of the runtime must
    /// call this collectively with identical `group` and `seed`.
    ///
    /// This is [`SamplingBackend::sample_group_on_rank_with`] holding no
    /// rows across calls: every product holds the rows it fetches for
    /// itself alone.
    ///
    /// # Errors
    ///
    /// Propagates sampler and collective errors.
    fn sample_group_on_rank<S: Sampler + Sync>(
        &self,
        comm: &mut Communicator,
        sampler: &S,
        adjacency: &CsrMatrix,
        group: &[Vec<usize>],
        seed: u64,
    ) -> Result<GroupShard> {
        self.sample_group_on_rank_with(comm, sampler, adjacency, group, seed, None)
    }

    /// [`SamplingBackend::sample_group_on_rank`], reading `A` through the
    /// rows this rank holds across calls when `rows` is given: the
    /// partitioned backend then slices its block row once and fetches each
    /// remote row once for as long as `rows` lives, with bit-identical
    /// samples (see [`RankRows`]).  The other backends hold all of `A` and
    /// ignore it.
    ///
    /// The default implementation is the Graph Replicated strategy (§5.1):
    /// round-robin batch ownership, fully local sampling, no communication —
    /// correct for the local backend too, where `comm.size() == 1`.
    ///
    /// # Errors
    ///
    /// Propagates sampler and collective errors.
    fn sample_group_on_rank_with<S: Sampler + Sync>(
        &self,
        comm: &mut Communicator,
        sampler: &S,
        adjacency: &CsrMatrix,
        group: &[Vec<usize>],
        seed: u64,
        _rows: Option<&mut RankRows>,
    ) -> Result<GroupShard> {
        let rank = comm.rank();
        let indices = assign_batches_to_rows(group.len(), comm.size()).swap_remove(rank);
        if indices.is_empty() {
            return Ok(GroupShard::default());
        }
        let my_batches: Vec<Vec<usize>> = indices.iter().map(|&i| group[i].clone()).collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(rank as u64));
        let config = BulkSamplerConfig { bulk_size: my_batches.len(), ..*self.bulk() };
        let out = sampler.sample_bulk(adjacency, &my_batches, &config, &mut rng)?;
        Ok(GroupShard {
            samples: indices.into_iter().zip(out.minibatches).collect(),
            profile: out.profile,
        })
    }
}

/// `sample_epoch` of a distributed backend: every bulk group is
/// [`SamplingBackend::sample_group_on_rank`] run on every rank of `runtime`
/// under [`group_seed`]`(seed, group)`, and the shards' slots restore the
/// group's batch order.
///
/// A unit is `runtime.size() / backend.units()` consecutive ranks — one
/// rank when every rank samples for itself, a process row on the grid — and
/// its first rank reports the unit's profile and communication (its comm
/// delta around the call), since every rank of a process row runs the same
/// products.  A unit's `num_batches` counts the shards of all its ranks.
fn sample_epoch_on_every_rank<B, S>(
    backend: &B,
    runtime: &Runtime,
    sampler: &S,
    adjacency: &CsrMatrix,
    batches: &[Vec<usize>],
    seed: u64,
) -> Result<EpochSamples>
where
    B: SamplingBackend + Sync,
    S: Sampler + Sync,
{
    let units = backend.units();
    let ranks_per_unit = runtime.size() / units;
    let mut epoch = EpochSamples {
        output: BulkSampleOutput::default(),
        per_unit: (0..units).map(|unit| UnitStats { unit, ..Default::default() }).collect(),
    };
    for (gi, group) in batches.chunks(backend.bulk().bulk_size).enumerate() {
        let gseed = group_seed(seed, gi);
        let shards = runtime.run(|comm| {
            let before = comm.stats();
            let shard = backend.sample_group_on_rank(comm, sampler, adjacency, group, gseed)?;
            Ok::<_, SamplingError>((shard, comm.stats().since(&before)))
        })?;
        let mut out = BulkSampleOutput::default();
        let mut ordered: Vec<Option<MinibatchSample>> = vec![None; group.len()];
        for shard in shards {
            let (GroupShard { samples, profile }, comm_stats) = shard.value?;
            let stats = &mut epoch.per_unit[shard.rank / ranks_per_unit];
            stats.num_batches += samples.len();
            if shard.rank % ranks_per_unit == 0 {
                stats.profile.merge_sum(&profile);
                stats.comm_stats.merge(&comm_stats);
                out.profile.merge_max(&profile);
                out.comm_stats.merge(&comm_stats);
            }
            for (slot, mb) in samples {
                ordered[slot] = Some(mb);
            }
        }
        out.minibatches = ordered
            .into_iter()
            .map(|mb| {
                mb.ok_or_else(|| {
                    SamplingError::InvalidConfig("a minibatch was sampled by no rank".into())
                })
            })
            .collect::<Result<_>>()?;
        epoch.output.merge(out);
    }
    Ok(epoch)
}

/// Single-device backend: the plain bulk matrix pipeline of §4, one unit, no
/// communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalBackend {
    bulk: BulkSamplerConfig,
}

impl LocalBackend {
    /// Creates a local backend with the given bulk shape.
    ///
    /// # Errors
    ///
    /// Returns [`SamplingError::InvalidBulkConfig`] for zero fields.
    ///
    /// # Example
    ///
    /// ```
    /// use dmbs_sampling::{BulkSamplerConfig, LocalBackend, SamplingBackend};
    ///
    /// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
    /// let backend = LocalBackend::new(BulkSamplerConfig::new(1024, 4))?;
    /// assert_eq!(backend.units(), 1);
    /// assert!(LocalBackend::new(BulkSamplerConfig::new(0, 4)).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(bulk: BulkSamplerConfig) -> Result<Self> {
        bulk.validate()?;
        Ok(LocalBackend { bulk })
    }
}

impl SamplingBackend for LocalBackend {
    fn name(&self) -> &'static str {
        "local"
    }

    fn units(&self) -> usize {
        1
    }

    fn bulk(&self) -> &BulkSamplerConfig {
        &self.bulk
    }

    fn sample_epoch<S: Sampler + Sync>(
        &self,
        sampler: &S,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        seed: u64,
    ) -> Result<EpochSamples> {
        self.bulk.validate()?;
        check_square(adjacency)?;
        let mut output = BulkSampleOutput::default();
        for (gi, group) in batches.chunks(self.bulk.bulk_size).enumerate() {
            let config = BulkSamplerConfig { bulk_size: group.len(), ..self.bulk };
            let mut rng = StdRng::seed_from_u64(group_seed(seed, gi));
            output.merge(sampler.sample_bulk(adjacency, group, &config, &mut rng)?);
        }
        let per_unit = vec![UnitStats {
            unit: 0,
            num_batches: output.num_batches(),
            profile: output.profile.clone(),
            comm_stats: output.comm_stats,
        }];
        Ok(EpochSamples { output, per_unit })
    }
}

/// The Graph Replicated backend (§5.1): the sampler matrix `Q` is 1D
/// partitioned across `p` ranks, the adjacency matrix is replicated, and
/// sampling involves **no communication**.
#[derive(Debug, Clone)]
pub struct ReplicatedBackend {
    runtime: Runtime,
    dist: DistConfig,
}

impl ReplicatedBackend {
    /// Creates a replicated backend, spawning a simulated runtime with
    /// `dist.ranks` ranks.
    ///
    /// # Errors
    ///
    /// Returns typed configuration errors for invalid `dist` fields.
    ///
    /// # Example
    ///
    /// ```
    /// use dmbs_sampling::{BulkSamplerConfig, DistConfig, ReplicatedBackend, SamplingBackend};
    ///
    /// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
    /// let bulk = BulkSamplerConfig::new(512, 4);
    /// let backend = ReplicatedBackend::new(DistConfig::new(4, 2, bulk))?;
    /// assert_eq!(backend.units(), 4); // every rank samples independently
    /// assert!(ReplicatedBackend::new(DistConfig::new(0, 1, bulk)).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(dist: DistConfig) -> Result<Self> {
        dist.validate()?;
        let runtime = Runtime::new(dist.ranks)?;
        Ok(ReplicatedBackend { runtime, dist })
    }

    /// Creates a replicated backend over an existing runtime (e.g. one with a
    /// custom cost model).  `dist.ranks` must equal `runtime.size()`.
    ///
    /// # Errors
    ///
    /// Returns typed configuration errors for invalid or mismatched fields.
    pub fn with_runtime(runtime: Runtime, dist: DistConfig) -> Result<Self> {
        dist.validate()?;
        if runtime.size() != dist.ranks {
            return Err(SamplingError::InvalidDistConfig { field: "ranks", value: dist.ranks });
        }
        Ok(ReplicatedBackend { runtime, dist })
    }
}

impl SamplingBackend for ReplicatedBackend {
    fn name(&self) -> &'static str {
        "graph-replicated"
    }

    fn units(&self) -> usize {
        self.dist.ranks
    }

    fn bulk(&self) -> &BulkSamplerConfig {
        &self.dist.bulk
    }

    fn runtime(&self) -> Option<&Runtime> {
        Some(&self.runtime)
    }

    fn dist(&self) -> Option<&DistConfig> {
        Some(&self.dist)
    }

    fn spec(&self) -> Option<crate::spec::BackendSpec> {
        Some(crate::spec::BackendSpec::Replicated { dist: self.dist })
    }

    fn sample_epoch<S: Sampler + Sync>(
        &self,
        sampler: &S,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        seed: u64,
    ) -> Result<EpochSamples> {
        self.dist.validate()?;
        check_square(adjacency)?;
        sample_epoch_on_every_rank(self, &self.runtime, sampler, adjacency, batches, seed)
    }
}

/// The Graph Partitioned backend (§5.2): both `Q` and `A` are partitioned
/// into `p/c` block rows of a `p/c × c` grid, probabilities are generated
/// with the sparsity-aware 1.5D SpGEMM of Algorithm 2, and the sampler's
/// [`Sampler::spec`] runs through the same matrix pipeline as on one device.
/// A sampler without a spec is rejected with
/// [`SamplingError::UnsupportedBackend`].
#[derive(Debug, Clone)]
pub struct Partitioned1p5dBackend {
    runtime: Runtime,
    dist: DistConfig,
}

impl Partitioned1p5dBackend {
    /// Creates a partitioned backend, spawning a simulated runtime with
    /// `dist.ranks` ranks arranged as a `ranks/c × c` grid.
    ///
    /// # Errors
    ///
    /// Returns typed configuration errors for invalid `dist` fields.
    ///
    /// # Example
    ///
    /// ```
    /// use dmbs_sampling::{
    ///     BulkSamplerConfig, DistConfig, Partitioned1p5dBackend, SamplingBackend,
    /// };
    ///
    /// # fn main() -> Result<(), dmbs_sampling::SamplingError> {
    /// let bulk = BulkSamplerConfig::new(512, 4);
    /// // 8 ranks with replication factor c = 2 form a 4 × 2 grid.
    /// let backend = Partitioned1p5dBackend::new(DistConfig::new(8, 2, bulk))?;
    /// assert_eq!(backend.units(), 4); // one sampling unit per process row
    /// // c must divide p.
    /// assert!(Partitioned1p5dBackend::new(DistConfig::new(8, 3, bulk)).is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn new(dist: DistConfig) -> Result<Self> {
        dist.validate()?;
        let runtime = Runtime::new(dist.ranks)?;
        Ok(Partitioned1p5dBackend { runtime, dist })
    }

    /// Creates a partitioned backend over an existing runtime.  `dist.ranks`
    /// must equal `runtime.size()`.
    ///
    /// # Errors
    ///
    /// Returns typed configuration errors for invalid or mismatched fields.
    pub fn with_runtime(runtime: Runtime, dist: DistConfig) -> Result<Self> {
        dist.validate()?;
        if runtime.size() != dist.ranks {
            return Err(SamplingError::InvalidDistConfig { field: "ranks", value: dist.ranks });
        }
        Ok(Partitioned1p5dBackend { runtime, dist })
    }

    fn grid(&self) -> Result<ProcessGrid> {
        Ok(ProcessGrid::new(self.dist.ranks, self.dist.replication_c)?)
    }

    fn sampler_spec<S: Sampler>(&self, sampler: &S) -> Result<SamplerSpec> {
        sampler.spec().ok_or(SamplingError::UnsupportedBackend {
            sampler: sampler.name(),
            backend: self.name(),
        })
    }
}

impl SamplingBackend for Partitioned1p5dBackend {
    fn name(&self) -> &'static str {
        "graph-partitioned-1.5d"
    }

    fn units(&self) -> usize {
        self.dist.ranks / self.dist.replication_c
    }

    fn bulk(&self) -> &BulkSamplerConfig {
        &self.dist.bulk
    }

    fn runtime(&self) -> Option<&Runtime> {
        Some(&self.runtime)
    }

    fn dist(&self) -> Option<&DistConfig> {
        Some(&self.dist)
    }

    fn spec(&self) -> Option<crate::spec::BackendSpec> {
        Some(crate::spec::BackendSpec::Partitioned1p5d { dist: self.dist })
    }

    fn sample_epoch<S: Sampler + Sync>(
        &self,
        sampler: &S,
        adjacency: &CsrMatrix,
        batches: &[Vec<usize>],
        seed: u64,
    ) -> Result<EpochSamples> {
        self.dist.validate()?;
        check_square(adjacency)?;
        self.sampler_spec(sampler)?;
        sample_epoch_on_every_rank(self, &self.runtime, sampler, adjacency, batches, seed)
    }

    fn sample_group_on_rank_with<S: Sampler + Sync>(
        &self,
        comm: &mut Communicator,
        sampler: &S,
        adjacency: &CsrMatrix,
        group: &[Vec<usize>],
        seed: u64,
        rows: Option<&mut RankRows>,
    ) -> Result<GroupShard> {
        let spec = self.sampler_spec(sampler)?;
        let grid = self.grid()?;
        let n = adjacency.rows();
        validate_batches(group, n)?;
        let vertex_partition = OneDPartition::new(n, grid.rows())?;
        let (my_row, my_col) = grid.coords(comm.rank());
        let row_assignment = assign_batches_to_rows(group.len(), grid.rows());
        let my_indices = &row_assignment[my_row];
        let my_batches: Vec<Vec<usize>> = my_indices.iter().map(|&i| group[i].clone()).collect();

        // Without held rows the block is sliced for this group alone.
        let sliced;
        let (block, pins) = match rows {
            Some(rows) => {
                let (block, pins) = rows.split(adjacency, &vertex_partition, my_row)?;
                (block, Some(pins))
            }
            None => {
                sliced = vertex_partition.block_csr(adjacency, my_row)?;
                (&sliced, None)
            }
        };
        let source = RowSource::OneFiveD {
            comm,
            grid: &grid,
            block,
            pins,
            partition: &vertex_partition,
            seed,
        };
        let out = pipeline::sample(&spec, source, &my_batches, self.dist.bulk.parallelism)?;

        // Every rank of the row holds identical samples; each trains the
        // subset at its own process-column offset.
        let samples = my_indices
            .iter()
            .zip(out.minibatches)
            .enumerate()
            .filter(|(pos, _)| pos % grid.cols() == my_col)
            .map(|(_, (&slot, mb))| (slot, mb))
            .collect();
        Ok(GroupShard { samples, profile: out.profile })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FastGcnSampler, GraphSageSampler, LadiesSampler};
    use dmbs_graph::generators::{figure1_example, rmat, RmatConfig};
    use dmbs_matrix::pool::Parallelism;

    fn adjacency() -> CsrMatrix {
        figure1_example().adjacency().clone()
    }

    fn random_graph(scale: u32, degree: usize, seed: u64) -> CsrMatrix {
        rmat(&RmatConfig::new(scale, degree), &mut StdRng::seed_from_u64(seed))
            .unwrap()
            .adjacency()
            .clone()
    }

    #[test]
    fn dist_config_validation() {
        let bulk = BulkSamplerConfig::new(4, 2);
        assert!(DistConfig::new(4, 2, bulk).validate().is_ok());
        assert_eq!(
            DistConfig::new(0, 1, bulk).validate(),
            Err(SamplingError::InvalidDistConfig { field: "ranks", value: 0 })
        );
        assert_eq!(
            DistConfig::new(4, 0, bulk).validate(),
            Err(SamplingError::InvalidDistConfig { field: "replication_c", value: 0 })
        );
        assert_eq!(
            DistConfig::new(4, 3, bulk).validate(),
            Err(SamplingError::InvalidDistConfig { field: "replication_c", value: 3 })
        );
        assert_eq!(
            DistConfig::new(4, 2, BulkSamplerConfig::new(0, 2)).validate(),
            Err(SamplingError::InvalidBulkConfig { field: "batch_size" })
        );
        assert_eq!(
            DistConfig::new(4, 2, BulkSamplerConfig::new(4, 0)).validate(),
            Err(SamplingError::InvalidBulkConfig { field: "bulk_size" })
        );
    }

    #[test]
    fn backend_constructors_reject_bad_configs() {
        assert!(LocalBackend::new(BulkSamplerConfig::new(0, 1)).is_err());
        assert!(
            ReplicatedBackend::new(DistConfig::new(0, 1, BulkSamplerConfig::new(2, 1))).is_err()
        );
        assert!(Partitioned1p5dBackend::new(DistConfig::new(6, 4, BulkSamplerConfig::new(2, 1)))
            .is_err());
        let rt = Runtime::new(4).unwrap();
        assert!(ReplicatedBackend::with_runtime(
            rt,
            DistConfig::new(8, 2, BulkSamplerConfig::new(2, 1))
        )
        .is_err());
    }

    #[test]
    fn local_backend_splits_bulk_groups_in_order() {
        let a = adjacency();
        let sampler = GraphSageSampler::new(vec![2]);
        let batches: Vec<Vec<usize>> =
            vec![vec![1, 5], vec![0, 3], vec![2, 4], vec![5, 0], vec![3]];
        let backend = LocalBackend::new(BulkSamplerConfig::new(2, 2)).unwrap();
        let epoch = backend.sample_epoch(&sampler, &a, &batches, 11).unwrap();
        assert_eq!(epoch.num_batches(), 5);
        for (mb, batch) in epoch.minibatches().iter().zip(&batches) {
            assert_eq!(&mb.batch, batch);
        }
        assert_eq!(epoch.per_unit.len(), 1);
        assert_eq!(epoch.per_unit[0].num_batches, 5);
        assert_eq!(epoch.output.comm_stats.messages, 0);
    }

    #[test]
    fn replicated_backend_never_communicates_and_keeps_order() {
        let a = adjacency();
        let sampler = GraphSageSampler::new(vec![2, 2]);
        let batches: Vec<Vec<usize>> =
            vec![vec![1, 5], vec![0, 3], vec![2, 4], vec![1, 2], vec![3, 5]];
        let backend =
            ReplicatedBackend::new(DistConfig::new(4, 1, BulkSamplerConfig::new(2, 5))).unwrap();
        let epoch = backend.sample_epoch(&sampler, &a, &batches, 7).unwrap();
        assert_eq!(epoch.num_batches(), 5);
        for (mb, batch) in epoch.minibatches().iter().zip(&batches) {
            assert_eq!(&mb.batch, batch);
        }
        assert_eq!(epoch.per_unit.len(), 4);
        // Round-robin: rank 0 gets batches 0 and 4.
        assert_eq!(epoch.per_unit[0].num_batches, 2);
        assert_eq!(epoch.per_unit[3].num_batches, 1);
        assert_eq!(epoch.max_messages(), 0, "replicated sampling must not communicate");
    }

    #[test]
    fn replicated_backend_is_deterministic() {
        let a = adjacency();
        let sampler = GraphSageSampler::new(vec![2]);
        let batches: Vec<Vec<usize>> = vec![vec![1, 5], vec![0, 3]];
        let backend =
            ReplicatedBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::new(2, 2))).unwrap();
        let e1 = backend.sample_epoch(&sampler, &a, &batches, 99).unwrap();
        let e2 = backend.sample_epoch(&sampler, &a, &batches, 99).unwrap();
        assert_eq!(e1.output.minibatches, e2.output.minibatches);
    }

    #[test]
    fn partitioned_backend_matches_local_with_full_fanout() {
        // With fanout >= any degree GraphSAGE keeps whole neighborhoods, so
        // the partitioned strategy must agree exactly with the local one.
        let a = random_graph(6, 4, 1);
        let n = a.rows();
        let batches: Vec<Vec<usize>> = (0..6).map(|i| vec![i * 5 % n, (i * 11 + 3) % n]).collect();
        let sampler = GraphSageSampler::new(vec![n]);
        let local = LocalBackend::new(BulkSamplerConfig::new(2, 6)).unwrap();
        let expected = local.sample_epoch(&sampler, &a, &batches, 3).unwrap();
        for &(p, c) in &[(4usize, 2usize), (6, 2), (8, 4)] {
            let backend =
                Partitioned1p5dBackend::new(DistConfig::new(p, c, BulkSamplerConfig::new(2, 6)))
                    .unwrap();
            let epoch = backend.sample_epoch(&sampler, &a, &batches, 3).unwrap();
            assert_eq!(epoch.num_batches(), batches.len());
            for (got, want) in epoch.minibatches().iter().zip(expected.minibatches()) {
                assert_eq!(got.batch, want.batch, "p={p} c={c}");
                assert_eq!(got.layers[0].rows, want.layers[0].rows, "p={p} c={c}");
                assert_eq!(got.layers[0].cols, want.layers[0].cols, "p={p} c={c}");
                assert_eq!(got.layers[0].adjacency, want.layers[0].adjacency, "p={p} c={c}");
            }
        }
    }

    #[test]
    fn partitioned_backend_supports_all_three_samplers() {
        let a = random_graph(6, 5, 2);
        let n = a.rows();
        let batches: Vec<Vec<usize>> = (0..4).map(|i| vec![i * 7 % n, (i * 13 + 1) % n]).collect();
        let backend =
            Partitioned1p5dBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(2, 4)))
                .unwrap();

        let sage = GraphSageSampler::new(vec![3, 2]);
        let ladies = LadiesSampler::new(2, 8);
        let fastgcn = FastGcnSampler::new(2, 8);
        for epoch in [
            backend.sample_epoch(&sage, &a, &batches, 5).unwrap(),
            backend.sample_epoch(&ladies, &a, &batches, 5).unwrap(),
            backend.sample_epoch(&fastgcn, &a, &batches, 5).unwrap(),
        ] {
            assert_eq!(epoch.num_batches(), batches.len());
            for mb in epoch.minibatches() {
                assert!(mb.frontiers_are_chained());
                for layer in &mb.layers {
                    for (r, c, _) in layer.adjacency.iter() {
                        assert!(
                            a.get(layer.rows[r], layer.cols[c]) > 0.0,
                            "sampled edge not in the graph"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partitioned_fastgcn_matches_local_fastgcn_weights() {
        // FastGCN's distribution is global, so with s >= n the sampled
        // support is the full positive-degree vertex set in both backends.
        let a = adjacency();
        let n = a.rows();
        let sampler = FastGcnSampler::new(1, n);
        let batches = vec![vec![1, 5], vec![0, 2]];
        let local = LocalBackend::new(BulkSamplerConfig::new(2, 2)).unwrap();
        let partitioned =
            Partitioned1p5dBackend::new(DistConfig::new(4, 2, BulkSamplerConfig::new(2, 2)))
                .unwrap();
        let e_local = local.sample_epoch(&sampler, &a, &batches, 9).unwrap();
        let e_part = partitioned.sample_epoch(&sampler, &a, &batches, 9).unwrap();
        for (l, p) in e_local.minibatches().iter().zip(e_part.minibatches()) {
            assert_eq!(l.layers[0].cols, p.layers[0].cols);
            assert_eq!(l.layers[0].rows, p.layers[0].rows);
            assert!(l.layers[0].adjacency.approx_eq(&p.layers[0].adjacency, 1e-12));
        }
    }

    #[test]
    fn unsupported_sampler_on_partitioned_backend_is_typed() {
        use crate::baseline::PerVertexSageSampler;
        let a = adjacency();
        let sampler = PerVertexSageSampler::new(vec![2]);
        let backend =
            Partitioned1p5dBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::new(2, 1)))
                .unwrap();
        let err = backend.sample_epoch(&sampler, &a, &[vec![1]], 0).unwrap_err();
        assert_eq!(
            err,
            SamplingError::UnsupportedBackend {
                sampler: "per-vertex-sage",
                backend: "graph-partitioned-1.5d",
            }
        );
    }

    #[test]
    fn stale_scratch_never_leaks_into_a_result() {
        // The thread-local workspace is a pure allocation strategy: an epoch
        // sampled on a thread whose workspace a differently-shaped epoch has
        // already grown must equal the same epoch sampled on a freshly
        // spawned thread (whose workspace starts empty), for every sampler,
        // at serial and parallel thread counts.
        fn check<S: Sampler + Sync>(sampler: &S, threads: usize) {
            let a = random_graph(6, 5, 11);
            let n = a.rows();
            let batches: Vec<Vec<usize>> =
                (0..4).map(|i| vec![i * 9 % n, (i * 17 + 2) % n]).collect();
            let bulk = BulkSamplerConfig::new(2, 4).with_parallelism(Parallelism::new(threads));
            let backend = LocalBackend::new(bulk).unwrap();
            let epoch = || backend.sample_epoch(sampler, &a, &batches, 5).unwrap().output;
            let fresh = std::thread::scope(|scope| scope.spawn(epoch).join().unwrap());
            let wider = random_graph(8, 7, 3);
            let wide_batches: Vec<Vec<usize>> = (0..3).map(|i| vec![i * 31, i * 57 + 1]).collect();
            backend.sample_epoch(sampler, &wider, &wide_batches, 9).unwrap();
            assert_eq!(epoch().minibatches, fresh.minibatches, "threads = {threads}");
        }
        for threads in [1usize, 4] {
            check(&GraphSageSampler::new(vec![3, 2]), threads);
            check(&LadiesSampler::new(2, 6), threads);
            check(&FastGcnSampler::new(2, 6), threads);
        }
    }

    #[test]
    fn group_seed_is_identity_for_group_zero() {
        assert_eq!(group_seed(12345, 0), 12345);
        assert_ne!(group_seed(12345, 1), 12345);
    }

    #[test]
    fn epoch_fetch_plan_covers_every_input_vertex() {
        let a = adjacency();
        let sampler = GraphSageSampler::new(vec![2, 2]);
        let backend = LocalBackend::new(BulkSamplerConfig::new(2, 2)).unwrap();
        let epoch =
            backend.sample_epoch(&sampler, &a, &[vec![1, 5], vec![0, 3], vec![2, 4]], 13).unwrap();
        let plan = crate::FetchPlan::from_minibatches(epoch.minibatches());
        let mut expected: Vec<usize> =
            epoch.minibatches().iter().flat_map(|mb| mb.input_vertices().to_vec()).collect();
        assert_eq!(plan.total_requests(), expected.len());
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(plan.unique_vertices(), expected.as_slice());
        assert_eq!(plan.num_minibatches(), 3);
    }

    #[test]
    fn epoch_samples_merge_accumulates_units() {
        let a = adjacency();
        let sampler = GraphSageSampler::new(vec![2]);
        let backend = LocalBackend::new(BulkSamplerConfig::new(2, 1)).unwrap();
        let mut total = backend.sample_epoch(&sampler, &a, &[vec![1, 5]], 1).unwrap();
        let more = backend.sample_epoch(&sampler, &a, &[vec![0, 3]], 2).unwrap();
        total.merge(more);
        assert_eq!(total.num_batches(), 2);
        assert_eq!(total.per_unit[0].num_batches, 2);
    }

    #[test]
    fn partitioned_epoch_books_are_pinned_per_unit() {
        // Every process row's `(num_batches, words_sent, messages)` over a
        // three-group epoch, for a node-wise and a layer-wise sampler.  The
        // epoch totals are checked elsewhere; a change to how the epoch
        // driver runs its groups, or to which rank's books a unit reports,
        // fails here.
        let a = random_graph(7, 6, 21);
        let n = a.rows();
        let batches: Vec<Vec<usize>> =
            (0..10).map(|i| (0..4).map(|j| (i * 13 + j * 37) % n).collect()).collect();
        fn books<S: Sampler + Sync>(
            p: usize,
            sampler: &S,
            a: &CsrMatrix,
            batches: &[Vec<usize>],
        ) -> Vec<(usize, usize, usize)> {
            let bulk = BulkSamplerConfig::new(4, 4);
            let backend = Partitioned1p5dBackend::new(DistConfig::new(p, 2, bulk)).unwrap();
            let epoch = backend.sample_epoch(sampler, a, batches, 3).unwrap();
            assert_eq!(epoch.num_batches(), batches.len());
            let units = epoch.per_unit.iter();
            units.map(|u| (u.num_batches, u.comm_stats.words_sent, u.comm_stats.messages)).collect()
        }
        let sage = GraphSageSampler::new(vec![4, 3]);
        let ladies = LadiesSampler::new(2, 16);
        assert_eq!(books(4, &sage, &a, &batches), [(5, 3499, 12), (5, 2345, 12)]);
        assert_eq!(books(4, &ladies, &a, &batches), [(5, 6713, 24), (5, 4418, 24)]);
        assert_eq!(
            books(8, &sage, &a, &batches),
            [(3, 3237, 30), (3, 1595, 30), (2, 729, 18), (2, 1053, 18)]
        );
        assert_eq!(
            books(8, &ladies, &a, &batches),
            [(3, 5888, 60), (3, 3346, 60), (2, 1635, 36), (2, 1982, 36)]
        );
    }
}
