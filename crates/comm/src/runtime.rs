//! The rank runtime: an SPMD execution environment over a pluggable
//! transport.
//!
//! Two backends exist.  The default (what [`Runtime::new`] selects) is the
//! **in-process rank simulator**: [`Runtime::run`] spawns one OS thread per
//! rank and wires communicators over crossbeam channels
//! ([`SimTransport`]), with payloads crossing as their
//! [`Payload`](crate::Payload) wire bytes and communication *time* modeled
//! by the α–β [`CostModel`].  The alternative, selected with
//! [`Runtime::with_transport`], is the **Unix-socket multi-process backend**
//! ([`UnixSocketTransport`](crate::UnixSocketTransport)): one OS process per
//! rank, rendezvous via `DMBS_RANK`/`DMBS_SIZE`/`DMBS_SOCKET_DIR`, payloads
//! length-prefix framed over real sockets.  Closures cannot cross process
//! boundaries, so the socket backend runs *named workers* (serializable job
//! in, bytes out) through [`Runtime::run_worker`]; the simulator runs the
//! same workers on threads, which is what the cross-transport equivalence
//! sweep relies on.

use crate::collectives::Communicator;
use crate::cost::{CommStats, CostModel};
use crate::error::CommError;
use crate::process::{self, SocketLaunch, WorkerRegistry};
use crate::transport::{Frame, SimTransport};
use crate::Result;
use crossbeam::channel::unbounded;

/// Which transport a [`Runtime`] executes over.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportSelect {
    /// The in-process rank simulator: threads + channels carrying the same
    /// wire bytes as the socket backend.  This is the default.
    #[default]
    Simulator,
    /// One OS process per rank over Unix domain sockets.  Only
    /// [`Runtime::run_worker`] can execute on this transport (closures do
    /// not cross process boundaries).
    UnixSocket(SocketLaunch),
}

/// The result produced by one rank of a [`Runtime::run`] execution.
#[derive(Debug, Clone)]
pub struct RankOutput<T> {
    /// The rank that produced this output.
    pub rank: usize,
    /// The closure's return value for this rank.
    pub value: T,
    /// Communication statistics accumulated by this rank.
    pub stats: CommStats,
}

/// A distributed execution environment with a fixed number of ranks over a
/// selectable transport (see [`TransportSelect`]; the module docs describe
/// both backends).
///
/// Each call to [`Runtime::run`] spawns one OS thread per rank, hands each a
/// [`Communicator`] wired to all its peers, runs the provided SPMD closure
/// and collects the per-rank results in rank order.  [`Runtime::run_worker`]
/// runs a *named* worker function the same way — or, when the Unix-socket
/// transport is selected, as one OS process per rank.
///
/// # Example
///
/// ```
/// use dmbs_comm::Runtime;
///
/// # fn main() -> Result<(), dmbs_comm::CommError> {
/// let rt = Runtime::new(3)?;
/// let outs = rt.run(|comm| comm.rank() * 10)?;
/// let values: Vec<usize> = outs.into_iter().map(|o| o.value).collect();
/// assert_eq!(values, vec![0, 10, 20]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Runtime {
    size: usize,
    cost: CostModel,
    transport: TransportSelect,
}

impl Runtime {
    /// Creates a runtime with `size` ranks, the default (Slingshot-like)
    /// cost model, and the default in-process simulator transport.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if `size == 0`.
    pub fn new(size: usize) -> Result<Self> {
        Self::with_cost_model(size, CostModel::default())
    }

    /// Creates a runtime with `size` ranks and an explicit α–β cost model
    /// (simulator transport).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if `size == 0`.
    pub fn with_cost_model(size: usize, cost: CostModel) -> Result<Self> {
        if size == 0 {
            return Err(CommError::InvalidConfig("runtime requires at least one rank".into()));
        }
        Ok(Runtime { size, cost, transport: TransportSelect::Simulator })
    }

    /// Selects the transport backend for [`Runtime::run_worker`] dispatch.
    pub fn with_transport(mut self, transport: TransportSelect) -> Self {
        self.transport = transport;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The cost model used by every communicator.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The transport backend this runtime dispatches workers on.
    pub fn transport(&self) -> &TransportSelect {
        &self.transport
    }

    /// Runs `f` on every rank concurrently **on the in-process simulator**
    /// and returns the per-rank outputs in rank order.  The selected
    /// transport is irrelevant here: closures cannot cross process
    /// boundaries, so `run` always simulates (use [`Runtime::run_worker`]
    /// for transport-dispatched execution).
    ///
    /// The closure receives a mutable [`Communicator`]; its return value is
    /// collected into [`RankOutput::value`].  Closures typically return a
    /// `Result` themselves so that communication errors can be propagated
    /// with `?`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankPanicked`] if any rank's thread panicked.
    /// Errors *returned* by the closure are not treated as runtime errors;
    /// they are delivered in the corresponding [`RankOutput`].
    pub fn run<T, F>(&self, f: F) -> Result<Vec<RankOutput<T>>>
    where
        T: Send + 'static,
        F: Fn(&mut Communicator) -> T + Send + Sync,
    {
        let p = self.size;
        // channels[i][j]: sender transmits from rank i to rank j.
        let mut senders: Vec<Vec<Option<crossbeam::channel::Sender<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<crossbeam::channel::Receiver<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for (i, sender_row) in senders.iter_mut().enumerate() {
            for (j, slot) in sender_row.iter_mut().enumerate() {
                let (tx, rx) = unbounded();
                *slot = Some(tx);
                receivers[j][i] = Some(rx);
            }
        }

        let mut communicators: Vec<Communicator> = Vec::with_capacity(p);
        for (rank, (sender_row, receiver_row)) in senders.into_iter().zip(receivers).enumerate() {
            let sends: Vec<_> = sender_row.into_iter().map(|s| s.expect("filled above")).collect();
            let recvs: Vec<_> =
                receiver_row.into_iter().map(|r| r.expect("filled above")).collect();
            let transport = SimTransport::new(rank, p, sends, recvs);
            communicators.push(Communicator::from_transport(Box::new(transport), self.cost));
        }

        let f = &f;
        let results: Vec<std::thread::Result<(usize, T, CommStats)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = communicators
                    .into_iter()
                    .enumerate()
                    .map(|(rank, mut comm)| {
                        scope.spawn(move || {
                            let value = f(&mut comm);
                            (rank, value, comm.stats())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });

        let mut outputs = Vec::with_capacity(p);
        for (rank, result) in results.into_iter().enumerate() {
            match result {
                Ok((r, value, stats)) => outputs.push(RankOutput { rank: r, value, stats }),
                Err(payload) => {
                    // Carry the panic payload into the error so a CI failure
                    // in the rank simulator is diagnosable from the log alone
                    // (`panic!` payloads are `&str` or `String` in practice).
                    let message = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                        .unwrap_or_else(|| "<non-string panic payload>".to_string());
                    return Err(CommError::RankPanicked { rank, message });
                }
            }
        }
        outputs.sort_by_key(|o| o.rank);
        Ok(outputs)
    }

    /// Runs the named worker from `registry` on every rank, dispatched over
    /// the selected transport: threads on the simulator, one OS process per
    /// rank on the Unix-socket backend.  `job` is the serialized work
    /// description every rank receives; each rank's returned bytes arrive in
    /// [`RankOutput::value`] along with its [`CommStats`].
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] for an unregistered worker name,
    /// [`CommError::WorkerFailed`] if any rank's worker returns an error,
    /// [`CommError::RankPanicked`] if a rank thread panics or a rank process
    /// dies, and the socket setup/timeout errors of the process backend.
    pub fn run_worker(
        &self,
        registry: &WorkerRegistry,
        name: &str,
        job: &[u8],
    ) -> Result<Vec<RankOutput<Vec<u8>>>> {
        let worker = registry.find(name).ok_or_else(|| {
            CommError::InvalidConfig(format!("worker '{name}' is not registered"))
        })?;
        match &self.transport {
            TransportSelect::Simulator => {
                let outputs = self.run(|comm| worker(comm, job))?;
                let mut out = Vec::with_capacity(outputs.len());
                for o in outputs {
                    match o.value {
                        Ok(bytes) => {
                            out.push(RankOutput { rank: o.rank, value: bytes, stats: o.stats })
                        }
                        Err(message) => {
                            return Err(CommError::WorkerFailed { rank: o.rank, message })
                        }
                    }
                }
                Ok(out)
            }
            TransportSelect::UnixSocket(launch) => {
                process::run_socket_workers(self.size, self.cost, launch, name, job)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::Group;
    use crate::grid::ProcessGrid;

    #[test]
    fn runtime_requires_ranks() {
        assert!(Runtime::new(0).is_err());
        assert_eq!(Runtime::new(4).unwrap().size(), 4);
    }

    #[test]
    fn default_transport_is_the_simulator() {
        let rt = Runtime::new(2).unwrap();
        assert_eq!(rt.transport(), &TransportSelect::Simulator);
        let rt = rt.with_transport(TransportSelect::UnixSocket(SocketLaunch::default()));
        assert!(matches!(rt.transport(), TransportSelect::UnixSocket(_)));
    }

    #[test]
    fn single_rank_runs_locally() {
        let rt = Runtime::new(1).unwrap();
        let out = rt
            .run(|comm| {
                let g = comm.allgather(comm.rank()).unwrap();
                let r = comm.allreduce(5.0f64, |a, b| a + b).unwrap();
                comm.barrier().unwrap();
                (g, r)
            })
            .unwrap();
        assert_eq!(out[0].value.0, vec![0]);
        assert_eq!(out[0].value.1, 5.0);
        assert_eq!(out[0].stats.messages, 0);
    }

    #[test]
    fn point_to_point_ring() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let next = (comm.rank() + 1) % comm.size();
                let prev = (comm.rank() + comm.size() - 1) % comm.size();
                comm.send(next, comm.rank()).unwrap();
                comm.recv::<usize>(prev).unwrap()
            })
            .unwrap();
        let values: Vec<usize> = outs.iter().map(|o| o.value).collect();
        assert_eq!(values, vec![3, 0, 1, 2]);
        // Each rank sent exactly one single-word message.
        assert!(outs.iter().all(|o| o.stats.messages == 1 && o.stats.words_sent == 1));
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let value = if comm.rank() == 2 { Some(vec![1.0f64, 2.0, 3.0]) } else { None };
                comm.broadcast(2, value).unwrap()
            })
            .unwrap();
        for o in outs {
            assert_eq!(o.value, vec![1.0, 2.0, 3.0]);
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        let rt = Runtime::new(5).unwrap();
        let outs = rt.run(|comm| comm.gather(0, comm.rank() * 2).unwrap()).unwrap();
        assert_eq!(outs[0].value, Some(vec![0, 2, 4, 6, 8]));
        for o in &outs[1..] {
            assert_eq!(o.value, None);
        }
    }

    #[test]
    fn allgather_and_allreduce() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let all = comm.allgather(comm.rank()).unwrap();
                let sum = comm
                    .allreduce(vec![comm.rank() as f64, 1.0], |a, b| {
                        a.iter().zip(b).map(|(x, y)| x + y).collect()
                    })
                    .unwrap();
                (all, sum)
            })
            .unwrap();
        for o in outs {
            assert_eq!(o.value.0, vec![0, 1, 2, 3]);
            assert_eq!(o.value.1, vec![6.0, 4.0]);
        }
    }

    #[test]
    fn all_to_allv_exchanges_personalized_data() {
        let rt = Runtime::new(3).unwrap();
        let outs = rt
            .run(|comm| {
                // Rank r sends the value r*10 + destination to each destination.
                let sends: Vec<usize> = (0..comm.size()).map(|d| comm.rank() * 10 + d).collect();
                comm.all_to_allv(sends).unwrap()
            })
            .unwrap();
        assert_eq!(outs[0].value, vec![0, 10, 20]);
        assert_eq!(outs[1].value, vec![1, 11, 21]);
        assert_eq!(outs[2].value, vec![2, 12, 22]);
    }

    #[test]
    fn group_collectives_follow_grid_rows_and_cols() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let grid = ProcessGrid::new(comm.size(), 2).unwrap();
                let row = Group::new(&grid.row_ranks(comm.rank())).unwrap();
                let col = Group::new(&grid.col_ranks(comm.rank())).unwrap();
                let row_sum = comm.group_allreduce(&row, comm.rank(), |a, b| a + b).unwrap();
                let col_members = comm.group_allgather(&col, comm.rank()).unwrap();
                (row_sum, col_members)
            })
            .unwrap();
        // Grid 2x2: rows {0,1}, {2,3}; cols {0,2}, {1,3}.
        assert_eq!(outs[0].value.0, 1);
        assert_eq!(outs[3].value.0, 5);
        assert_eq!(outs[0].value.1, vec![0, 2]);
        assert_eq!(outs[3].value.1, vec![1, 3]);
    }

    #[test]
    fn group_all_to_allv_within_column() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let grid = ProcessGrid::new(comm.size(), 2).unwrap();
                let col = Group::new(&grid.col_ranks(comm.rank())).unwrap();
                let sends: Vec<Vec<usize>> = (0..col.len()).map(|i| vec![comm.rank(), i]).collect();
                comm.group_all_to_allv(&col, sends).unwrap()
            })
            .unwrap();
        // Column {0, 2}: rank 0 receives from itself and rank 2.
        assert_eq!(outs[0].value, vec![vec![0, 0], vec![2, 0]]);
        assert_eq!(outs[2].value, vec![vec![0, 1], vec![2, 1]]);
    }

    #[test]
    fn stats_accumulate_modeled_time() {
        let rt = Runtime::with_cost_model(2, CostModel::new(1.0, 0.5)).unwrap();
        let outs = rt
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, vec![0.0f64; 10]).unwrap();
                    0.0
                } else {
                    comm.recv::<Vec<f64>>(0).unwrap();
                    comm.stats().modeled_time
                }
            })
            .unwrap();
        // Rank 0 sent 10 words: modeled time = 1 + 0.5 * 10 = 6.
        assert!((outs[0].stats.modeled_time - 6.0).abs() < 1e-12);
        assert_eq!(outs[0].stats.words_sent, 10);
        // Rank 1 sent nothing.
        assert_eq!(outs[1].stats.messages, 0);
    }

    #[test]
    fn type_mismatch_is_detected() {
        let rt = Runtime::new(2).unwrap();
        let outs = rt
            .run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 42usize).unwrap();
                    Ok(())
                } else {
                    match comm.recv::<f64>(0) {
                        Err(CommError::TypeMismatch { from: 0 }) => Err("mismatch detected"),
                        other => panic!("expected type mismatch, got {other:?}"),
                    }
                }
            })
            .unwrap();
        assert_eq!(outs[1].value, Err("mismatch detected"));
    }

    #[test]
    fn invalid_destination_is_rejected() {
        let rt = Runtime::new(2).unwrap();
        let outs = rt
            .run(|comm| {
                if comm.rank() == 0 {
                    matches!(
                        comm.send(5, 1usize),
                        Err(CommError::RankOutOfRange { rank: 5, size: 2 })
                    )
                } else {
                    true
                }
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value));
    }

    #[test]
    fn rank_panic_carries_its_payload_message() {
        let rt = Runtime::new(2).unwrap();
        let err = rt
            .run(|comm| {
                if comm.rank() == 1 {
                    panic!("rank 1 exploded at step {}", 7);
                }
                comm.rank()
            })
            .unwrap_err();
        match err {
            CommError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert_eq!(message, "rank 1 exploded at step 7");
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
    }

    #[test]
    fn barrier_synchronizes_without_error() {
        let rt = Runtime::new(6).unwrap();
        let outs = rt
            .run(|comm| {
                for _ in 0..3 {
                    comm.barrier().unwrap();
                }
                true
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value));
    }

    #[test]
    fn reset_stats_clears_counters() {
        let rt = Runtime::new(2).unwrap();
        let outs = rt
            .run(|comm| {
                comm.allgather(comm.rank()).unwrap();
                let before = comm.reset_stats();
                let after = comm.stats();
                (before.messages, after.messages)
            })
            .unwrap();
        for o in outs {
            assert_eq!(o.value.1, 0);
        }
    }

    #[test]
    fn run_worker_on_simulator_dispatches_registered_fn() {
        fn sum_ranks(comm: &mut Communicator, job: &[u8]) -> std::result::Result<Vec<u8>, String> {
            let offset = job.first().copied().unwrap_or(0) as usize;
            let total =
                comm.allreduce(comm.rank() + offset, |a, b| a + b).map_err(|e| e.to_string())?;
            Ok(vec![total as u8])
        }
        let mut registry = WorkerRegistry::new();
        registry.register("test.sum", sum_ranks);
        let rt = Runtime::new(3).unwrap();
        let outs = rt.run_worker(&registry, "test.sum", &[10]).unwrap();
        // Sum of (rank + 10) over 3 ranks = 0+1+2 + 30 = 33.
        assert!(outs.iter().all(|o| o.value == vec![33]));
        assert!(matches!(
            rt.run_worker(&registry, "missing", &[]),
            Err(CommError::InvalidConfig(_))
        ));
    }

    #[test]
    fn run_worker_surfaces_worker_errors_with_rank() {
        fn fail_on_one(
            comm: &mut Communicator,
            _job: &[u8],
        ) -> std::result::Result<Vec<u8>, String> {
            if comm.rank() == 1 {
                Err("spec rejected".to_string())
            } else {
                Ok(Vec::new())
            }
        }
        let mut registry = WorkerRegistry::new();
        registry.register("test.fail", fail_on_one);
        let rt = Runtime::new(2).unwrap();
        match rt.run_worker(&registry, "test.fail", &[]) {
            Err(CommError::WorkerFailed { rank: 1, message }) => {
                assert!(message.contains("spec rejected"));
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }
}
