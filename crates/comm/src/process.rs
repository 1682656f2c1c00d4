//! Process-per-rank worker dispatch for the Unix-socket transport.
//!
//! Closures cannot cross process boundaries, so the socket backend runs
//! **named workers**: plain functions registered in a [`WorkerRegistry`]
//! that take a [`Communicator`] plus a serialized job and return bytes.
//! The parent (`run_socket_workers`, reached through
//! [`Runtime::run_worker`](crate::Runtime::run_worker)) re-executes the
//! current binary once per rank with the rendezvous environment set:
//!
//! | variable              | meaning                                   |
//! |-----------------------|-------------------------------------------|
//! | `DMBS_WORKER`         | registered worker name to run             |
//! | `DMBS_RANK`           | this process's rank                       |
//! | `DMBS_SIZE`           | world size                                |
//! | `DMBS_SOCKET_DIR`     | rendezvous directory                      |
//! | `DMBS_COST_ALPHA_BITS`| α of the cost model, `f64::to_bits`       |
//! | `DMBS_COST_BETA_BITS` | β of the cost model, `f64::to_bits`       |
//! | `DMBS_TIMEOUT_MS`     | blocking-wait bound in milliseconds       |
//!
//! The α/β bits travel as exact bit patterns so the child's modeled-time
//! books agree with the simulator to the last ulp.  Each child reads the
//! job from `job.bin` in the socket directory, joins the socket mesh, runs
//! the worker, ships `(rank, status, CommStats, bytes)` back over
//! `parent.sock`, and exits.  A child that dies instead of reporting —
//! nonzero exit, signal, or a wedge past the timeout — is mapped to
//! [`CommError::RankPanicked`] (with its stderr attached) after the
//! remaining children are killed, so a rank panic tears the job down
//! gracefully rather than hanging the parent.
//!
//! Binaries that may act as workers call [`run_if_worker`] first thing in
//! `main` (test binaries expose a `socket_worker_shim` test and name it in
//! [`SocketLaunch::worker_args`]); the call is a no-op unless `DMBS_WORKER`
//! is set.

use std::io::Read;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::collectives::{Communicator, Payload};
use crate::cost::{CommStats, CostModel};
use crate::error::CommError;
use crate::socket::{SocketConfig, UnixSocketTransport, DEFAULT_SOCKET_TIMEOUT};
use crate::wire;
use crate::{RankOutput, Result};

/// A worker function dispatchable across process boundaries: job bytes in,
/// result bytes out, errors as strings (which the parent surfaces as
/// [`CommError::WorkerFailed`]).
pub type WorkerFn = fn(&mut Communicator, &[u8]) -> std::result::Result<Vec<u8>, String>;

/// A registry of named workers a binary can run.  Both transports dispatch
/// from the same registry, which is what keeps simulator and socket
/// execution running literally the same code.
#[derive(Default)]
pub struct WorkerRegistry {
    entries: Vec<(&'static str, WorkerFn)>,
}

impl std::fmt::Debug for WorkerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<_> = self.entries.iter().map(|(n, _)| *n).collect();
        f.debug_struct("WorkerRegistry").field("workers", &names).finish()
    }
}

impl WorkerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `worker` under `name` (later registrations win).
    pub fn register(&mut self, name: &'static str, worker: WorkerFn) {
        self.entries.retain(|(n, _)| *n != name);
        self.entries.push((name, worker));
    }

    /// Builder-style [`WorkerRegistry::register`].
    pub fn with(mut self, name: &'static str, worker: WorkerFn) -> Self {
        self.register(name, worker);
        self
    }

    /// Looks up a worker by name.
    pub fn find(&self, name: &str) -> Option<WorkerFn> {
        self.entries.iter().find(|(n, _)| *n == name).map(|(_, w)| *w)
    }

    /// Registered names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|(n, _)| *n).collect()
    }
}

/// How rank processes are launched: the extra argv passed to the re-executed
/// current binary (empty for ordinary binaries whose `main` calls
/// [`run_if_worker`]; libtest binaries pass
/// `["socket_worker_shim", "--exact", "--nocapture"]` to reach their shim
/// test), plus the per-wait timeout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SocketLaunch {
    /// Arguments appended to the re-executed binary.
    pub worker_args: Vec<String>,
    /// Bound on every blocking wait (rendezvous, receive, result
    /// collection), in milliseconds.
    pub timeout_ms: u64,
}

impl Default for SocketLaunch {
    fn default() -> Self {
        SocketLaunch {
            worker_args: Vec::new(),
            timeout_ms: DEFAULT_SOCKET_TIMEOUT.as_millis() as u64,
        }
    }
}

impl SocketLaunch {
    /// The launch configuration for a libtest binary: reach the
    /// `socket_worker_shim` test by exact name.  `shim_name` is the test's
    /// full path within the binary (e.g. `"socket_worker_shim"` for an
    /// integration test, `"process::tests::socket_worker_shim"` inside a
    /// library).
    pub fn for_test_binary(shim_name: &str) -> Self {
        SocketLaunch {
            worker_args: vec![
                shim_name.to_string(),
                "--exact".to_string(),
                "--nocapture".to_string(),
            ],
            ..SocketLaunch::default()
        }
    }

    /// Overrides the blocking-wait bound.
    pub fn timeout_ms(mut self, timeout_ms: u64) -> Self {
        self.timeout_ms = timeout_ms;
        self
    }
}

const ENV_WORKER: &str = "DMBS_WORKER";
const ENV_RANK: &str = "DMBS_RANK";
const ENV_SIZE: &str = "DMBS_SIZE";
const ENV_DIR: &str = "DMBS_SOCKET_DIR";
const ENV_ALPHA: &str = "DMBS_COST_ALPHA_BITS";
const ENV_BETA: &str = "DMBS_COST_BETA_BITS";
const ENV_TIMEOUT: &str = "DMBS_TIMEOUT_MS";

const JOB_FILE: &str = "job.bin";
const PARENT_SOCK: &str = "parent.sock";

/// If the rendezvous environment is set, runs the named worker from
/// `registry` and **exits the process** with its status; otherwise returns
/// immediately.  Call this first thing in any binary (or from a test shim)
/// that may be launched as a rank process.
pub fn run_if_worker(registry: &WorkerRegistry) {
    if std::env::var_os(ENV_WORKER).is_none() {
        return;
    }
    let code = match worker_main(registry) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("dmbs worker failed: {message}");
            1
        }
    };
    std::process::exit(code);
}

/// The body of a rank process: join the mesh, run the worker, report back.
/// Every failure is reported over `parent.sock` when possible so the parent
/// gets a typed error instead of inferring one from the exit code.
fn worker_main(registry: &WorkerRegistry) -> std::result::Result<(), String> {
    let name = std::env::var(ENV_WORKER).map_err(|e| format!("{ENV_WORKER}: {e}"))?;
    let rank: usize = std::env::var(ENV_RANK)
        .map_err(|e| format!("{ENV_RANK}: {e}"))?
        .parse()
        .map_err(|e| format!("{ENV_RANK}: {e}"))?;
    let size: usize = std::env::var(ENV_SIZE)
        .map_err(|e| format!("{ENV_SIZE}: {e}"))?
        .parse()
        .map_err(|e| format!("{ENV_SIZE}: {e}"))?;
    let dir = PathBuf::from(std::env::var(ENV_DIR).map_err(|e| format!("{ENV_DIR}: {e}"))?);
    let alpha_bits: u64 = std::env::var(ENV_ALPHA)
        .map_err(|e| format!("{ENV_ALPHA}: {e}"))?
        .parse()
        .map_err(|e| format!("{ENV_ALPHA}: {e}"))?;
    let beta_bits: u64 = std::env::var(ENV_BETA)
        .map_err(|e| format!("{ENV_BETA}: {e}"))?
        .parse()
        .map_err(|e| format!("{ENV_BETA}: {e}"))?;
    let timeout_ms: u64 = std::env::var(ENV_TIMEOUT)
        .unwrap_or_else(|_| DEFAULT_SOCKET_TIMEOUT.as_millis().to_string())
        .parse()
        .map_err(|e| format!("{ENV_TIMEOUT}: {e}"))?;
    let cost = CostModel::new(f64::from_bits(alpha_bits), f64::from_bits(beta_bits));

    let job = std::fs::read(dir.join(JOB_FILE)).map_err(|e| format!("read {JOB_FILE}: {e}"))?;
    let worker = registry
        .find(&name)
        .ok_or_else(|| format!("worker '{name}' is not registered in this binary"))?;

    let config = SocketConfig::new(rank, size, &dir).timeout(Duration::from_millis(timeout_ms));
    let transport = UnixSocketTransport::connect(&config).map_err(|e| e.to_string())?;
    let mut comm = Communicator::from_transport(Box::new(transport), cost);

    let outcome = worker(&mut comm, &job);
    let stats = comm.stats();
    drop(comm); // close the mesh before reporting, so peers see clean EOFs

    let mut report = Vec::new();
    wire::put_usize(&mut report, rank);
    match &outcome {
        Ok(bytes) => {
            wire::put_u64(&mut report, 1);
            stats.encode(&mut report);
            wire::put_bytes(&mut report, bytes);
        }
        Err(message) => {
            wire::put_u64(&mut report, 0);
            stats.encode(&mut report);
            wire::put_str(&mut report, message);
        }
    }
    let mut parent = UnixStream::connect(dir.join(PARENT_SOCK))
        .map_err(|e| format!("connect {PARENT_SOCK}: {e}"))?;
    crate::socket::write_frame(&mut parent, 0, 0, &report)
        .map_err(|e| format!("report to parent: {e}"))?;
    // Outcome::Err is reported as a *successful* delivery of a failure
    // report; the process still exits 0 so the parent distinguishes
    // "worker returned Err" from "worker process died".
    Ok(())
}

/// One rank's parsed report.
struct WorkerReport {
    rank: usize,
    stats: CommStats,
    outcome: std::result::Result<Vec<u8>, String>,
}

fn parse_report(payload: &[u8]) -> Option<WorkerReport> {
    let mut input = payload;
    let rank = wire::get_usize(&mut input)?;
    let ok = wire::get_u64(&mut input)?;
    let stats = CommStats::decode(&mut input)?;
    let outcome = match ok {
        1 => Ok(wire::get_bytes(&mut input)?),
        0 => Err(wire::get_str(&mut input)?),
        _ => return None,
    };
    input.is_empty().then_some(WorkerReport { rank, stats, outcome })
}

/// Creates a unique rendezvous directory under the system temp dir.
fn fresh_socket_dir() -> std::io::Result<PathBuf> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dmbs-mesh-{}-{n}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn setup_err(step: &str, err: impl std::fmt::Display) -> CommError {
    CommError::SocketSetup { message: format!("{step}: {err}") }
}

/// Reads a child's stderr tail for diagnostics (best effort).
fn drain_stderr(child: &mut std::process::Child) -> String {
    let Some(mut stderr) = child.stderr.take() else { return String::new() };
    let mut buf = String::new();
    let _ = stderr.read_to_string(&mut buf);
    let trimmed = buf.trim();
    if trimmed.is_empty() {
        String::new()
    } else {
        // Keep the tail: panics print last.
        let tail: String =
            trimmed.chars().rev().take(500).collect::<Vec<_>>().into_iter().rev().collect();
        format!(": {tail}")
    }
}

fn kill_all(children: &mut [(usize, std::process::Child)]) {
    for (_, child) in children.iter_mut() {
        let _ = child.kill();
    }
    for (_, child) in children.iter_mut() {
        let _ = child.wait();
    }
}

/// Spawns one process per rank, collects their reports, and maps failures
/// to typed errors.  See the module docs for the protocol.
pub(crate) fn run_socket_workers(
    size: usize,
    cost: CostModel,
    launch: &SocketLaunch,
    name: &str,
    job: &[u8],
) -> Result<Vec<RankOutput<Vec<u8>>>> {
    let dir = fresh_socket_dir().map_err(|e| setup_err("create socket dir", e))?;
    let result = run_socket_workers_in(&dir, size, cost, launch, name, job);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_socket_workers_in(
    dir: &Path,
    size: usize,
    cost: CostModel,
    launch: &SocketLaunch,
    name: &str,
    job: &[u8],
) -> Result<Vec<RankOutput<Vec<u8>>>> {
    std::fs::write(dir.join(JOB_FILE), job).map_err(|e| setup_err("write job", e))?;
    let listener =
        UnixListener::bind(dir.join(PARENT_SOCK)).map_err(|e| setup_err("bind parent.sock", e))?;
    listener.set_nonblocking(true).map_err(|e| setup_err("parent nonblocking", e))?;

    let exe = std::env::current_exe().map_err(|e| setup_err("current_exe", e))?;
    let timeout = Duration::from_millis(launch.timeout_ms);
    let mut children: Vec<(usize, std::process::Child)> = Vec::with_capacity(size);
    for rank in 0..size {
        let spawned = std::process::Command::new(&exe)
            .args(&launch.worker_args)
            .env(ENV_WORKER, name)
            .env(ENV_RANK, rank.to_string())
            .env(ENV_SIZE, size.to_string())
            .env(ENV_DIR, dir.as_os_str())
            .env(ENV_ALPHA, cost.alpha.to_bits().to_string())
            .env(ENV_BETA, cost.beta.to_bits().to_string())
            .env(ENV_TIMEOUT, launch.timeout_ms.to_string())
            .stdin(std::process::Stdio::null())
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::piped())
            .spawn();
        match spawned {
            Ok(child) => children.push((rank, child)),
            Err(e) => {
                kill_all(&mut children);
                return Err(setup_err(&format!("spawn rank {rank}"), e));
            }
        }
    }

    // Collect one report per rank, watching for child deaths the whole time.
    let deadline = Instant::now() + timeout;
    let mut reports: Vec<Option<WorkerReport>> = (0..size).map(|_| None).collect();
    // A rank's last acts are "connect, write its report" and then "exit", so
    // a report can land in the accept queue between a `WouldBlock` and the
    // `try_wait` below.  An exit is therefore believed only on the second
    // sighting: the `accept` calls in between drain any such report first.
    let mut seen_exited = vec![false; size];
    let mut collected = 0;
    while collected < size {
        match listener.accept() {
            Ok((mut stream, _)) => {
                stream
                    .set_read_timeout(Some(timeout))
                    .map_err(|e| setup_err("report timeout", e))?;
                let frame = crate::socket::read_frame(&mut stream);
                match frame {
                    Ok(Some((_, _, payload))) => match parse_report(&payload) {
                        Some(report) if report.rank < size && reports[report.rank].is_none() => {
                            let rank = report.rank;
                            reports[rank] = Some(report);
                            collected += 1;
                        }
                        _ => {
                            kill_all(&mut children);
                            return Err(setup_err("parse worker report", "malformed report"));
                        }
                    },
                    Ok(None) | Err(_) => {
                        kill_all(&mut children);
                        return Err(setup_err("read worker report", "stream died mid-report"));
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // No report pending: check for dead children, then deadline.
                let mut dead: Option<(usize, String)> = None;
                let mut recheck = false;
                for (rank, child) in children.iter_mut() {
                    if reports[*rank].is_some() {
                        continue;
                    }
                    if let Ok(Some(status)) = child.try_wait() {
                        if !std::mem::replace(&mut seen_exited[*rank], true) {
                            recheck = true;
                            continue;
                        }
                        let detail = drain_stderr(child);
                        dead = Some((
                            *rank,
                            format!("rank process exited with {status} before reporting{detail}"),
                        ));
                        break;
                    }
                }
                if let Some((rank, message)) = dead {
                    kill_all(&mut children);
                    return Err(CommError::RankPanicked { rank, message });
                }
                if recheck {
                    continue;
                }
                if Instant::now() >= deadline {
                    kill_all(&mut children);
                    return Err(CommError::Timeout {
                        rank: usize::MAX,
                        waiting_for: usize::MAX,
                        millis: launch.timeout_ms,
                    });
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                kill_all(&mut children);
                return Err(setup_err("accept report", e));
            }
        }
    }

    // All ranks reported; reap the children.
    for (rank, child) in children.iter_mut() {
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                let detail = drain_stderr(child);
                return Err(CommError::RankPanicked {
                    rank: *rank,
                    message: format!("rank process exited with {status} after reporting{detail}"),
                });
            }
            Err(e) => return Err(setup_err(&format!("wait rank {rank}"), e)),
        }
    }

    let mut outputs = Vec::with_capacity(size);
    for report in reports.into_iter().flatten() {
        match report.outcome {
            Ok(bytes) => {
                outputs.push(RankOutput { rank: report.rank, value: bytes, stats: report.stats })
            }
            Err(message) => return Err(CommError::WorkerFailed { rank: report.rank, message }),
        }
    }
    outputs.sort_by_key(|o| o.rank);
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{Runtime, TransportSelect};

    /// Workers available when this library's *test binary* is re-executed
    /// as a rank process.
    fn test_registry() -> WorkerRegistry {
        WorkerRegistry::new()
            .with("dmbs.test.allreduce", |comm, job| {
                let offset = job.first().copied().unwrap_or(0) as usize;
                let total = comm
                    .allreduce(comm.rank() + offset, |a, b| a + b)
                    .map_err(|e| e.to_string())?;
                let mut out = Vec::new();
                wire::put_usize(&mut out, total);
                Ok(out)
            })
            .with("dmbs.test.traffic", |comm, job| {
                // Deterministic all-to-allv traffic whose counters the
                // parent cross-checks against the simulator.
                let words = job.first().copied().unwrap_or(1) as usize;
                let sends: Vec<Vec<f64>> =
                    (0..comm.size()).map(|d| vec![d as f64; words]).collect();
                let received = comm.all_to_allv(sends).map_err(|e| e.to_string())?;
                let mut out = Vec::new();
                wire::put_usize(&mut out, received.len());
                Ok(out)
            })
            .with("dmbs.test.exit", |comm, _job| {
                // Rank 1 dies mid-collective; everyone else is left waiting
                // inside the allreduce.
                if comm.rank() == 1 {
                    std::process::exit(7);
                }
                comm.allreduce(1usize, |a, b| a + b).map_err(|e| e.to_string())?;
                Ok(Vec::new())
            })
            .with("dmbs.test.apperr", |comm, _job| {
                if comm.rank() == 0 {
                    Err("rank 0 rejects the job".to_string())
                } else {
                    let _ = comm.barrier();
                    Ok(Vec::new())
                }
            })
    }

    /// The re-exec entry point: when the parent spawns this test binary as
    /// a rank process, argv targets exactly this test, which dispatches to
    /// the worker and exits.  Without the rendezvous env (a normal test
    /// run) it is a no-op.
    #[test]
    fn socket_worker_shim() {
        run_if_worker(&test_registry());
    }

    fn launch() -> SocketLaunch {
        SocketLaunch::for_test_binary("process::tests::socket_worker_shim").timeout_ms(20_000)
    }

    #[test]
    fn registry_register_find_and_override() {
        let mut r = WorkerRegistry::new();
        assert!(r.find("a").is_none());
        r.register("a", |_, _| Ok(vec![1]));
        r.register("b", |_, _| Ok(vec![2]));
        r.register("a", |_, _| Ok(vec![3])); // override wins
        let f = r.find("a").unwrap();
        let rt = Runtime::new(1).unwrap();
        let out = rt.run(|comm| f(comm, &[])).unwrap();
        assert_eq!(out[0].value, Ok(vec![3]));
        assert_eq!(r.names(), vec!["b", "a"]);
        assert!(format!("{r:?}").contains('b'));
    }

    #[test]
    fn socket_workers_run_a_real_multi_process_allreduce() {
        let rt = Runtime::new(3).unwrap().with_transport(TransportSelect::UnixSocket(launch()));
        let outs = rt.run_worker(&test_registry(), "dmbs.test.allreduce", &[10]).unwrap();
        assert_eq!(outs.len(), 3);
        for (rank, out) in outs.iter().enumerate() {
            assert_eq!(out.rank, rank);
            let mut input = out.value.as_slice();
            // Sum of (rank + 10) over 3 ranks = 3 + 30.
            assert_eq!(wire::get_usize(&mut input), Some(33));
        }
    }

    #[test]
    fn comm_stats_cross_the_process_boundary_and_match_the_simulator() {
        let registry = test_registry();
        let job = [4u8]; // 4 words to each destination
        let sim = Runtime::new(3).unwrap();
        let sim_outs = sim.run_worker(&registry, "dmbs.test.traffic", &job).unwrap();
        let real = Runtime::new(3).unwrap().with_transport(TransportSelect::UnixSocket(launch()));
        let real_outs = real.run_worker(&registry, "dmbs.test.traffic", &job).unwrap();
        for (s, r) in sim_outs.iter().zip(&real_outs) {
            assert_eq!(s.rank, r.rank);
            assert_eq!(s.value, r.value);
            // The serialized-back CommStats must match the simulator's
            // counters field for field.
            assert_eq!(s.stats.messages, r.stats.messages, "messages at rank {}", s.rank);
            assert_eq!(s.stats.words_sent, r.stats.words_sent, "words at rank {}", s.rank);
            assert_eq!(s.stats.modeled_time.to_bits(), r.stats.modeled_time.to_bits());
        }
    }

    #[test]
    fn rank_process_exit_mid_collective_is_rank_panicked_not_a_hang() {
        let rt = Runtime::new(3)
            .unwrap()
            .with_transport(TransportSelect::UnixSocket(launch().timeout_ms(10_000)));
        let start = Instant::now();
        match rt.run_worker(&test_registry(), "dmbs.test.exit", &[]) {
            Err(CommError::RankPanicked { rank: 1, message }) => {
                assert!(message.contains("exited"), "message: {message}");
            }
            other => panic!("expected RankPanicked for rank 1, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(60), "teardown must not hang");
    }

    #[test]
    fn worker_app_error_is_worker_failed_with_rank() {
        let rt = Runtime::new(2).unwrap().with_transport(TransportSelect::UnixSocket(launch()));
        match rt.run_worker(&test_registry(), "dmbs.test.apperr", &[]) {
            Err(CommError::WorkerFailed { rank: 0, message }) => {
                assert!(message.contains("rejects"));
            }
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
    }

    #[test]
    fn unregistered_worker_in_child_fails_fast() {
        // The parent-side registry lookup happens first, so dispatching an
        // unknown name is rejected before any process spawns.
        let rt = Runtime::new(2).unwrap().with_transport(TransportSelect::UnixSocket(launch()));
        assert!(matches!(
            rt.run_worker(&test_registry(), "dmbs.test.nope", &[]),
            Err(CommError::InvalidConfig(_))
        ));
    }

    #[test]
    fn simulator_and_socket_agree_on_worker_results() {
        let registry = test_registry();
        let sim = Runtime::new(2).unwrap();
        let sim_outs = sim.run_worker(&registry, "dmbs.test.allreduce", &[5]).unwrap();
        let real = Runtime::new(2).unwrap().with_transport(TransportSelect::UnixSocket(launch()));
        let real_outs = real.run_worker(&registry, "dmbs.test.allreduce", &[5]).unwrap();
        for (s, r) in sim_outs.iter().zip(&real_outs) {
            assert_eq!(s.value, r.value);
            assert_eq!(s.stats.words_sent, r.stats.words_sent);
        }
    }

    #[test]
    fn report_codec_round_trips() {
        let mut stats = CommStats::new();
        stats.record(12, &CostModel::new(1.0, 0.25));
        let mut report = Vec::new();
        wire::put_usize(&mut report, 2);
        wire::put_u64(&mut report, 1);
        stats.encode(&mut report);
        wire::put_bytes(&mut report, &[9, 9]);
        let parsed = parse_report(&report).unwrap();
        assert_eq!(parsed.rank, 2);
        assert_eq!(parsed.stats.words_sent, 12);
        assert_eq!(parsed.outcome, Ok(vec![9, 9]));
        // Truncated reports are rejected, not mis-parsed.
        assert!(parse_report(&report[..report.len() - 1]).is_none());
        assert!(parse_report(&[]).is_none());
    }
}
