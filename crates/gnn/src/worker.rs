//! The multi-process training worker: ships a whole [`TrainingSession`]
//! across a process boundary.
//!
//! The Unix-socket transport runs each rank in its own OS process, and
//! closures cannot cross processes — so the session layer registers a *named
//! worker* here.  The parent encodes everything a rank needs — the dataset
//! (adjacency, features, labels, train set), the sampler and backend **specs**
//! ([`dmbs_sampling::SamplerSpec`] / [`dmbs_sampling::BackendSpec`]) and the
//! resolved session hyper-parameters — into a job with the
//! [`dmbs_comm::wire`] codec; each rank process decodes it, rebuilds the
//! identical session with `TrainingSession::from_parts`, runs the same
//! per-rank loop (`distributed_rank_main`) the simulator runs on threads, and
//! wire-encodes its per-epoch results back.
//!
//! Everything in the round-trip is bit-exact (`f64` travels as raw bits), so
//! losses and the deterministic communication counters are identical across
//! transports — the invariant `tests/transport_equivalence.rs` pins.
//!
//! Binaries that may be re-executed as rank processes must call
//! [`dmbs_comm::run_if_worker`] with [`registry`] before doing anything else;
//! see that function's docs for the env-var protocol.

use crate::session::{IngestEvent, RankEpochs, SessionConfig, TrainingSession};
use crate::{GnnError, Result};
use dmbs_comm::wire::{
    get_f64, get_f64s, get_u64, get_usize, get_usizes, put_f64, put_f64s, put_u64, put_usize,
    put_usizes,
};
use dmbs_comm::{Communicator, Payload, Phase, PhaseProfile, TransportSelect, WorkerRegistry};
use dmbs_graph::datasets::{Dataset, DatasetKind};
use dmbs_graph::{Graph, IngestMode};
use dmbs_matrix::pool::Parallelism;
use dmbs_matrix::{CsrMatrix, DenseMatrix};
use dmbs_sampling::{
    BackendSpec, BulkSamplerConfig, DistConfig, FastGcnSampler, GraphSageSampler, LadiesSampler,
    Partitioned1p5dBackend, ReplicatedBackend, Sampler, SamplerSpec, SamplingBackend,
};
use std::sync::Arc;

/// Name of the distributed-training worker in [`registry`].
pub const TRAIN_WORKER: &str = "dmbs.gnn.train";

/// Job format version, rejected on mismatch so a stale binary fails fast
/// instead of misdecoding.  v2 added the wire codec and the top-k gradient
/// compression knob to the session config; v3 added the dynamic-graph ingest
/// schedule (per-epoch edge batches, ingest mode, invalidation policy); v4
/// dropped the workspace-reuse byte of the bulk config (the knob is gone);
/// v5 dropped the session's shape overrides (`b`, `k`, `c` and the thread
/// count travel only in the backend spec); v6 dropped the invalidation-policy
/// word.
/// Bump it whenever `job_layout_is_pinned` has to be re-pinned.
const JOB_VERSION: u64 = 6;

/// The worker registry of this crate: currently the single
/// [`TRAIN_WORKER`].  Pass it to [`dmbs_comm::run_if_worker`] at the top of
/// any binary (or test shim) that dispatches socket-transport training, and
/// to [`dmbs_comm::Runtime::run_worker`] when launching.
pub fn registry() -> WorkerRegistry {
    WorkerRegistry::new().with(TRAIN_WORKER, train_worker)
}

/// Everything a rank process needs to rebuild the parent's session.
#[derive(Debug)]
struct TrainJob {
    dataset: Dataset,
    sampler: SamplerSpec,
    backend: BackendSpec,
    config: SessionConfig,
}

fn codec_err(what: &str) -> GnnError {
    GnnError::InvalidConfig(format!("train job codec: truncated or malformed {what}"))
}

/// Wire form of a dense matrix: rows, cols, then the row-major values.
fn put_dense(out: &mut Vec<u8>, m: &DenseMatrix) {
    (m.rows(), m.cols()).encode(out);
    put_f64s(out, m.as_slice());
}

fn get_dense(input: &mut &[u8], what: &str) -> Result<DenseMatrix> {
    let (rows, cols, data) =
        <(usize, usize, Vec<f64>)>::decode(input).ok_or_else(|| codec_err(what))?;
    Ok(DenseMatrix::from_vec(rows, cols, data)?)
}

/// Encodes the session's dataset, sampler/backend specs and resolved
/// configuration into a [`TRAIN_WORKER`] job.
///
/// # Errors
///
/// Returns [`GnnError::InvalidConfig`] if the sampler or backend has no spec
/// (`spec()` returned `None`) — such objects cannot cross process boundaries
/// — or if the dataset lacks features or labels.
pub(crate) fn encode_train_job<S, B>(session: &TrainingSession<S, B>) -> Result<Vec<u8>>
where
    S: Sampler,
    B: SamplingBackend,
{
    let sampler_spec = session.sampler().spec().ok_or_else(|| {
        GnnError::InvalidConfig(format!(
            "sampler '{}' has no spec; it cannot run on the Unix-socket transport",
            session.sampler().name()
        ))
    })?;
    let backend_spec = session.backend().spec().ok_or_else(|| {
        GnnError::InvalidConfig(format!(
            "backend '{}' has no spec; it cannot run on the Unix-socket transport",
            session.backend().name()
        ))
    })?;
    let dataset = session.dataset();
    let features = dataset
        .graph
        .features()
        .ok_or_else(|| GnnError::InvalidConfig("dataset has no feature matrix".into()))?;
    let labels = dataset
        .graph
        .labels()
        .ok_or_else(|| GnnError::InvalidConfig("dataset has no labels".into()))?;

    let mut out = Vec::new();
    put_u64(&mut out, JOB_VERSION);

    // Dataset: adjacency CSR raw parts, dense features, labels, train set.
    // The validation/test sets stay with the parent (evaluation never runs
    // in a rank process).
    put_u64(
        &mut out,
        match dataset.kind {
            DatasetKind::Products => 0,
            DatasetKind::Protein => 1,
            DatasetKind::Papers => 2,
        },
    );
    let adj = dataset.graph.adjacency();
    put_usize(&mut out, adj.rows());
    put_usize(&mut out, adj.cols());
    put_usizes(&mut out, adj.indptr());
    put_usizes(&mut out, adj.indices());
    put_f64s(&mut out, adj.values());
    put_dense(&mut out, features);
    put_usizes(&mut out, labels);
    put_usize(&mut out, dataset.graph.num_classes());
    put_usizes(&mut out, &dataset.train_set);

    encode_sampler_spec(&mut out, &sampler_spec);
    encode_backend_spec(&mut out, &backend_spec);
    encode_session_config(&mut out, session.config());
    Ok(out)
}

fn encode_sampler_spec(out: &mut Vec<u8>, spec: &SamplerSpec) {
    match spec {
        SamplerSpec::GraphSage { fanouts, self_loops } => {
            put_u64(out, 0);
            put_usizes(out, fanouts);
            self_loops.encode(out);
        }
        SamplerSpec::Ladies { num_layers, samples_per_layer, include_previous } => {
            put_u64(out, 1);
            put_usize(out, *num_layers);
            put_usize(out, *samples_per_layer);
            include_previous.encode(out);
        }
        SamplerSpec::FastGcn { num_layers, samples_per_layer } => {
            put_u64(out, 2);
            put_usize(out, *num_layers);
            put_usize(out, *samples_per_layer);
        }
    }
}

fn decode_sampler_spec(input: &mut &[u8]) -> Option<SamplerSpec> {
    Some(match get_u64(input)? {
        0 => {
            SamplerSpec::GraphSage { fanouts: get_usizes(input)?, self_loops: bool::decode(input)? }
        }
        1 => SamplerSpec::Ladies {
            num_layers: get_usize(input)?,
            samples_per_layer: get_usize(input)?,
            include_previous: bool::decode(input)?,
        },
        2 => SamplerSpec::FastGcn {
            num_layers: get_usize(input)?,
            samples_per_layer: get_usize(input)?,
        },
        _ => return None,
    })
}

fn encode_backend_spec(out: &mut Vec<u8>, spec: &BackendSpec) {
    let (tag, dist) = match spec {
        BackendSpec::Replicated { dist } => (0u64, dist),
        BackendSpec::Partitioned1p5d { dist } => (1u64, dist),
    };
    put_u64(out, tag);
    put_usize(out, dist.ranks);
    put_usize(out, dist.replication_c);
    put_usize(out, dist.bulk.batch_size);
    put_usize(out, dist.bulk.bulk_size);
    put_usize(out, dist.bulk.parallelism.threads());
}

fn decode_backend_spec(input: &mut &[u8]) -> Option<BackendSpec> {
    let tag = get_u64(input)?;
    let ranks = get_usize(input)?;
    let replication_c = get_usize(input)?;
    let bulk = BulkSamplerConfig {
        batch_size: get_usize(input)?,
        bulk_size: get_usize(input)?,
        parallelism: Parallelism::new(get_usize(input)?),
    };
    let dist = DistConfig::new(ranks, replication_c, bulk);
    Some(match tag {
        0 => BackendSpec::Replicated { dist },
        1 => BackendSpec::Partitioned1p5d { dist },
        _ => return None,
    })
}

/// Wire form of one ingest event: `(after_epoch, [(row, col, op), …])`.
type WireIngestEvent = (usize, Vec<(usize, usize, Option<f64>)>);

/// Field by field through the fields' own [`Payload`] impls, in declaration
/// order (`transport` excepted — see [`decode_session_config`]).
fn encode_session_config(out: &mut Vec<u8>, config: &SessionConfig) {
    config.hidden_dim.encode(out);
    config.learning_rate.encode(out);
    config.epochs.encode(out);
    config.seed.encode(out);
    config.evaluate.encode(out);
    config.schedule.encode(out);
    config.grad_top_k.encode(out);
    // Rank processes replay the identical edge batches at the identical
    // epoch boundaries, so both transports walk the same sequence of graph
    // versions.
    let ingest: Vec<WireIngestEvent> =
        config.ingest.iter().map(|e| (e.after_epoch, e.batch.ops().collect())).collect();
    ingest.encode(out);
    put_u64(
        out,
        match config.ingest_mode {
            IngestMode::Delta => 0,
            IngestMode::Rebuild => 1,
        },
    );
}

fn decode_session_config(input: &mut &[u8]) -> Option<SessionConfig> {
    Some(SessionConfig {
        hidden_dim: Payload::decode(input)?,
        learning_rate: Payload::decode(input)?,
        epochs: Payload::decode(input)?,
        seed: Payload::decode(input)?,
        evaluate: Payload::decode(input)?,
        schedule: Payload::decode(input)?,
        // A rank process never re-dispatches: its communicator is already on
        // the socket transport, and `distributed_rank_main` runs in place.
        transport: TransportSelect::Simulator,
        grad_top_k: Payload::decode(input)?,
        ingest: Vec::<WireIngestEvent>::decode(input)?
            .into_iter()
            .map(|(after_epoch, ops)| IngestEvent { after_epoch, batch: ops.into_iter().collect() })
            .collect(),
        ingest_mode: match get_u64(input)? {
            0 => IngestMode::Delta,
            1 => IngestMode::Rebuild,
            _ => return None,
        },
    })
}

fn decode_train_job(job: &[u8]) -> Result<TrainJob> {
    let input = &mut &job[..];
    match get_u64(input) {
        Some(JOB_VERSION) => {}
        Some(v) => {
            return Err(GnnError::InvalidConfig(format!(
                "train job version {v} does not match this binary's {JOB_VERSION}"
            )))
        }
        None => return Err(codec_err("version")),
    }
    let kind = match get_u64(input) {
        Some(0) => DatasetKind::Products,
        Some(1) => DatasetKind::Protein,
        Some(2) => DatasetKind::Papers,
        _ => return Err(codec_err("dataset kind")),
    };
    let rows = get_usize(input).ok_or_else(|| codec_err("adjacency"))?;
    let cols = get_usize(input).ok_or_else(|| codec_err("adjacency"))?;
    let indptr = get_usizes(input).ok_or_else(|| codec_err("adjacency"))?;
    let indices = get_usizes(input).ok_or_else(|| codec_err("adjacency"))?;
    let values = get_f64s(input).ok_or_else(|| codec_err("adjacency"))?;
    let adjacency = CsrMatrix::from_raw(rows, cols, indptr, indices, values)?;
    let features = get_dense(input, "features")?;
    let labels = get_usizes(input).ok_or_else(|| codec_err("labels"))?;
    let num_classes = get_usize(input).ok_or_else(|| codec_err("num_classes"))?;
    let train_set = get_usizes(input).ok_or_else(|| codec_err("train_set"))?;
    let graph = Graph::from_adjacency(adjacency)?
        .with_features(features)?
        .with_labels(labels, num_classes)?;
    let dataset = Dataset { kind, graph, train_set, val_set: Vec::new(), test_set: Vec::new() };
    let sampler = decode_sampler_spec(input).ok_or_else(|| codec_err("sampler spec"))?;
    let backend = decode_backend_spec(input).ok_or_else(|| codec_err("backend spec"))?;
    let config = decode_session_config(input).ok_or_else(|| codec_err("session config"))?;
    if !input.is_empty() {
        return Err(codec_err("trailing bytes"));
    }
    Ok(TrainJob { dataset, sampler, backend, config })
}

/// Encodes one rank's [`RankEpochs`] for the trip back to the parent.
pub(crate) fn encode_rank_epochs(out: &mut Vec<u8>, epochs: &RankEpochs) {
    let (per_epoch, params) = epochs;
    put_usize(out, per_epoch.len());
    for (profile, stats, loss) in per_epoch {
        for phase in Phase::ALL {
            put_f64(out, profile.compute(phase));
            put_f64(out, profile.comm(phase));
            put_f64(out, profile.overlap(phase));
        }
        stats.encode(out);
        put_f64(out, *loss);
    }
    put_usize(out, params.len());
    for m in params {
        put_dense(out, m);
    }
}

/// Decodes one rank's wire-encoded [`RankEpochs`].
///
/// # Errors
///
/// Returns [`GnnError::InvalidConfig`] on truncation or trailing bytes.
pub(crate) fn decode_rank_epochs(bytes: &[u8]) -> Result<RankEpochs> {
    let input = &mut &bytes[..];
    let n = get_usize(input).ok_or_else(|| codec_err("epoch count"))?;
    let mut per_epoch = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let mut profile = PhaseProfile::new();
        for phase in Phase::ALL {
            let compute = get_f64(input).ok_or_else(|| codec_err("profile"))?;
            let comm = get_f64(input).ok_or_else(|| codec_err("profile"))?;
            let overlap = get_f64(input).ok_or_else(|| codec_err("profile"))?;
            profile.add_compute(phase, compute);
            profile.add_comm(phase, comm);
            profile.add_overlap(phase, overlap);
        }
        let stats = dmbs_comm::CommStats::decode(input).ok_or_else(|| codec_err("comm stats"))?;
        let loss = get_f64(input).ok_or_else(|| codec_err("loss"))?;
        per_epoch.push((profile, stats, loss));
    }
    let m = get_usize(input).ok_or_else(|| codec_err("param count"))?;
    let mut params = Vec::with_capacity(m.min(1 << 16));
    for _ in 0..m {
        params.push(get_dense(input, "param matrix")?);
    }
    if !input.is_empty() {
        return Err(codec_err("trailing bytes"));
    }
    Ok((per_epoch, params))
}

/// The [`TRAIN_WORKER`] body: rebuild the session, run this rank's loop,
/// encode the results.  Dispatches over the (sampler × backend) spec product
/// to recover concrete types for the generic session.
fn train_worker(comm: &mut Communicator, job: &[u8]) -> std::result::Result<Vec<u8>, String> {
    let job = decode_train_job(job).map_err(|e| e.to_string())?;
    let dataset = Arc::new(job.dataset);
    let config = job.config;

    fn run<S, B>(
        comm: &mut Communicator,
        dataset: Arc<Dataset>,
        sampler: S,
        backend: B,
        config: SessionConfig,
    ) -> std::result::Result<Vec<u8>, String>
    where
        S: Sampler + Send + Sync + 'static,
        B: SamplingBackend + Send + Sync + 'static,
    {
        let session = TrainingSession::from_parts(dataset, sampler, backend, config)
            .map_err(|e| e.to_string())?;
        let epochs = session.distributed_rank_main(comm).map_err(|e| e.to_string())?;
        let mut out = Vec::new();
        encode_rank_epochs(&mut out, &epochs);
        Ok(out)
    }

    macro_rules! with_backend {
        ($sampler:expr) => {
            match &job.backend {
                BackendSpec::Replicated { dist } => {
                    let backend = ReplicatedBackend::new(*dist).map_err(|e| e.to_string())?;
                    run(comm, dataset, $sampler, backend, config)
                }
                BackendSpec::Partitioned1p5d { dist } => {
                    let backend = Partitioned1p5dBackend::new(*dist).map_err(|e| e.to_string())?;
                    run(comm, dataset, $sampler, backend, config)
                }
            }
        };
    }

    match &job.sampler {
        SamplerSpec::GraphSage { fanouts, self_loops } => {
            let mut sampler = GraphSageSampler::new(fanouts.clone());
            if *self_loops {
                sampler = sampler.with_self_loops();
            }
            with_backend!(sampler)
        }
        SamplerSpec::Ladies { num_layers, samples_per_layer, include_previous } => {
            let mut sampler = LadiesSampler::new(*num_layers, *samples_per_layer);
            if *include_previous {
                sampler = sampler.with_previous_included();
            }
            with_backend!(sampler)
        }
        SamplerSpec::FastGcn { num_layers, samples_per_layer } => {
            with_backend!(FastGcnSampler::new(*num_layers, *samples_per_layer))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureCacheConfig;
    use dmbs_comm::Codec;
    use dmbs_graph::datasets::{build_dataset, DatasetConfig};
    use dmbs_matrix::DeltaBatch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_dataset(seed: u64) -> Dataset {
        let mut cfg = DatasetConfig::products_like(7);
        cfg.feature_dim = 8;
        cfg.num_classes = 4;
        cfg.train_fraction = 0.5;
        build_dataset(&cfg, &mut StdRng::seed_from_u64(seed)).unwrap()
    }

    fn session(seed: u64) -> TrainingSession<GraphSageSampler, ReplicatedBackend> {
        let mut batch = DeltaBatch::new();
        batch.insert(0, 1, 0.5);
        batch.delete(2, 3);
        TrainingSession::builder()
            .dataset(tiny_dataset(seed))
            .sampler(GraphSageSampler::new(vec![3, 3]).with_self_loops())
            .backend(
                ReplicatedBackend::new(DistConfig::new(2, 1, BulkSamplerConfig::new(8, 2)))
                    .unwrap(),
            )
            .hidden_dim(8)
            .epochs(2)
            .seed(seed)
            .feature_cache(FeatureCacheConfig::Off)
            .wire_codec(Codec::Int8)
            .grad_top_k(5)
            .ingest(0, batch)
            .build()
            .unwrap()
    }

    #[test]
    fn train_job_round_trips_exactly() {
        let session = session(5);
        let job = encode_train_job(&session).unwrap();
        let decoded = decode_train_job(&job).unwrap();
        let adj = session.dataset().graph.adjacency();
        let dadj = decoded.dataset.graph.adjacency();
        assert_eq!(adj.indptr(), dadj.indptr());
        assert_eq!(adj.indices(), dadj.indices());
        assert_eq!(adj.values(), dadj.values());
        assert_eq!(
            session.dataset().graph.features().unwrap().as_slice(),
            decoded.dataset.graph.features().unwrap().as_slice()
        );
        assert_eq!(decoded.dataset.train_set, session.dataset().train_set);
        assert_eq!(decoded.sampler, session.sampler().spec().unwrap());
        assert_eq!(decoded.backend, session.backend().spec().unwrap());
        // Every config field survives the trip (the fixture sets the cache,
        // codec, top-k and ingest schedule off their defaults), the ingest
        // batch op for op.
        assert_eq!(&decoded.config, session.config());
        assert_eq!(decoded.config.schedule.codec, Codec::Int8);
        assert_eq!(
            decoded.config.ingest[0].batch.ops().collect::<Vec<_>>(),
            vec![(0, 1, Some(0.5)), (2, 3, None)]
        );
    }

    #[test]
    fn job_layout_is_pinned() {
        // Length and FNV-1a fold of the `session(5)` job at JOB_VERSION 6.
        // A change here is a layout change: bump JOB_VERSION, then re-pin.
        let job = encode_train_job(&session(5)).unwrap();
        let fnv = job.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!((job.len(), fnv), (55_664, 0xf3cf_0a7d_7307_cfe6));
    }

    /// Byte length of the session-config tail of a `session(..)` job: five
    /// scalar words, the three-word schedule, `grad_top_k = Some(5)` (two),
    /// the one-event ingest schedule (event count, epoch, op count, insert =
    /// 4 words, delete = 3) and the ingest-mode tag.
    const CONFIG_TAIL: usize = 8 * (5 + 3 + 2 + 10 + 1);

    /// Byte length of the backend spec that precedes the config tail: tag,
    /// ranks, `replication_c`, `batch_size`, `bulk_size`, threads.
    const BACKEND_SPEC: usize = 8 * 6;

    #[test]
    fn corrupt_jobs_are_typed_errors_not_panics() {
        let session = session(6);
        let job = encode_train_job(&session).unwrap();
        // Wrong version.
        let mut bad = job.clone();
        bad[0] ^= 0xFF;
        assert!(decode_train_job(&bad).is_err());
        // Truncations at every prefix length must error, never panic — in
        // the dataset header and all through the session-config tail.
        let mut tail = Vec::new();
        encode_session_config(&mut tail, session.config());
        assert_eq!(tail.len(), CONFIG_TAIL);
        for len in (0..job.len().min(64)).chain(job.len() - CONFIG_TAIL - 8..job.len()) {
            assert!(decode_train_job(&job[..len]).is_err(), "prefix {len}");
        }
        // Trailing garbage.
        let mut bad = job.clone();
        bad.extend_from_slice(&[0; 3]);
        assert!(decode_train_job(&bad).is_err());
    }

    #[test]
    fn forged_config_fields_fail_on_every_rank_without_panicking() {
        // A job whose bytes decode cleanly but whose backend spec or config
        // the builder would have refused: the rank process must return the
        // same typed error naming the field, not reach the training loop
        // (`chunks(0)` panics).
        let session = session(7);
        let job = encode_train_job(&session).unwrap();
        let runtime = session.backend().runtime().unwrap();
        let tail = job.len() - CONFIG_TAIL;
        let spec = tail - BACKEND_SPEC;
        // Byte offsets and forged values of the words: the backend spec's
        // `replication_c`, `batch_size` and `bulk_size` (words 2–4), then
        // the config tail's `hidden_dim` and `learning_rate` (words 0–1),
        // the schedule's cache tag (word 5) set to the retired tag 2, and
        // `grad_top_k`'s value, which follows its `Some` tag at word 8 + 1.
        for (field, offset, value) in [
            ("replication_c", spec + 8 * 2, 0u64),
            ("batch_size", spec + 8 * 3, 0),
            ("bulk_size", spec + 8 * 4, 0),
            ("hidden_dim", tail, 0),
            ("learning_rate", tail + 8, 0),
            ("session config", tail + 8 * 5, 2),
            ("grad_top_k", tail + 8 * 9, 0),
        ] {
            let mut forged = job.clone();
            forged[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            match decode_train_job(&forged) {
                Ok(decoded) => assert!(
                    decoded.backend != session.backend().spec().unwrap()
                        || &decoded.config != session.config(),
                    "{field} was not forged"
                ),
                // The retired cache tag: the schedule itself refuses to
                // decode, so the codec error names the session config.
                Err(e) => assert!(
                    field == "session config" && e.to_string().contains(field),
                    "{field}: {e}"
                ),
            }
            match runtime.run_worker(&registry(), TRAIN_WORKER, &forged) {
                Err(dmbs_comm::CommError::WorkerFailed { message, .. }) => {
                    assert!(message.contains(field), "{field}: {message}")
                }
                other => panic!("{field}: expected a typed worker failure, got {other:?}"),
            }
            // `run_worker` reports the first failing rank; every rank sees
            // the same job, so check each one fails on its own.
            let per_rank = runtime.run(|comm| train_worker(comm, &forged)).unwrap();
            assert!(
                per_rank.iter().all(|o| matches!(&o.value, Err(m) if m.contains(field))),
                "{field}: a rank accepted the job or failed on another field"
            );
        }
    }

    #[test]
    fn rank_epochs_round_trip_bit_exactly() {
        let mut profile = PhaseProfile::new();
        profile.add_compute(Phase::Sampling, 0.125);
        profile.add_comm(Phase::FeatureFetch, 1.0 / 3.0);
        profile.add_overlap(Phase::Propagation, 1e-9);
        let stats = dmbs_comm::CommStats {
            messages: 7,
            words_sent: 41,
            modeled_time: 0.1 + 0.2, // deliberately non-representable
            ..Default::default()
        };
        let params = vec![DenseMatrix::from_vec(2, 2, vec![1.0, -0.0, f64::MIN, 0.3]).unwrap()];
        let epochs: RankEpochs = (vec![(profile, stats, 2.5f64)], params);
        let mut bytes = Vec::new();
        encode_rank_epochs(&mut bytes, &epochs);
        let back = decode_rank_epochs(&bytes).unwrap();
        let (per_epoch, params) = &back;
        assert_eq!(per_epoch.len(), 1);
        let (p, s, l) = &per_epoch[0];
        assert_eq!(p.compute(Phase::Sampling).to_bits(), 0.125f64.to_bits());
        assert_eq!(p.comm(Phase::FeatureFetch).to_bits(), (1.0f64 / 3.0).to_bits());
        assert_eq!(p.overlap(Phase::Propagation).to_bits(), 1e-9f64.to_bits());
        assert_eq!(s.modeled_time.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!((s.messages, s.words_sent), (7, 41));
        assert_eq!(l.to_bits(), 2.5f64.to_bits());
        assert_eq!(params[0].as_slice()[1].to_bits(), (-0.0f64).to_bits());
        // Truncations error.
        for len in 0..bytes.len() {
            assert!(decode_rank_epochs(&bytes[..len]).is_err(), "prefix {len}");
        }
    }

    #[test]
    fn registry_contains_the_train_worker() {
        let registry = registry();
        assert!(registry.find(TRAIN_WORKER).is_some());
    }

    #[test]
    fn simulator_run_worker_matches_in_process_training() {
        // Dispatching the encoded job through the worker on the simulator
        // must reproduce in-process training bit for bit — the first half of
        // the cross-transport equivalence argument.
        let session = session(9);
        let direct = session.train().unwrap();
        let job = encode_train_job(&session).unwrap();
        let runtime = session.backend().runtime().unwrap();
        let outs = runtime.run_worker(&registry(), TRAIN_WORKER, &job).unwrap();
        assert_eq!(outs.len(), 2);
        let (epochs, _) = decode_rank_epochs(&outs[0].value).unwrap();
        assert_eq!(epochs.len(), direct.epochs.len());
        // Per-rank loss on rank 0 matches what the direct run averaged in
        // (2 ranks, both training): the aggregate is the mean of per-rank
        // means, so compare the deterministic counters instead.
        let mut words = 0;
        let mut messages = 0;
        for o in &outs {
            let (epochs, _) = decode_rank_epochs(&o.value).unwrap();
            for (_, stats, _) in &epochs {
                words += stats.words_sent;
                messages += stats.messages;
            }
        }
        let direct_words: usize = direct.epochs.iter().map(|e| e.comm.words_sent).sum();
        let direct_messages: usize = direct.epochs.iter().map(|e| e.comm.messages).sum();
        assert_eq!(words, direct_words);
        assert_eq!(messages, direct_messages);
    }
}
