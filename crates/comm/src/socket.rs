//! The Unix-socket multi-process transport.
//!
//! One OS process per rank.  Rendezvous happens through a shared directory
//! (conveyed in `DMBS_SOCKET_DIR`): rank `r` binds `rank-<r>.sock`, then
//! *connects* to every lower rank (retrying until the peer's listener is
//! bound, up to the timeout) and *accepts* one connection from every higher
//! rank.  Each connection starts with an 8-byte hello carrying the
//! connecting rank, which pins streams to peers regardless of accept order.
//!
//! On the wire, every message is one length-prefixed frame:
//!
//! ```text
//! [u32 len] [u64 tag] [u64 type_code] [len - 16 payload bytes]
//! ```
//!
//! Failure surfaces as **typed errors, never hangs**: a socket file left
//! behind by a previous run fails the bind with
//! [`CommError::StaleSocket`]; a peer closing its stream mid-frame is
//! [`CommError::TruncatedFrame`]; a clean close (peer process exited) is
//! [`CommError::Disconnected`]; and every blocking wait is bounded by the
//! transport timeout, yielding [`CommError::Timeout`].
//!
//! Deadlock freedom: the collectives post *all* their sends before their
//! receives (all-to-allv does), which over real sockets with bounded kernel
//! buffers could wedge two mutual writers.  The transport therefore spawns
//! one reader thread per peer that always drains the stream into an
//! unbounded in-process queue — writers can never block on a full buffer
//! for more than the instant it takes the peer's reader to drain it.

use std::collections::VecDeque;
use std::fmt;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::error::CommError;
use crate::transport::{Frame, Transport};
use crate::Result;

/// Default bound on every blocking wait (rendezvous, receive) of the socket
/// transport.  Override per-transport via [`SocketConfig::timeout`].
pub const DEFAULT_SOCKET_TIMEOUT: Duration = Duration::from_secs(30);

/// How long a reader-side failure is distinguished: a clean end-of-stream at
/// a frame boundary (peer exited) versus bytes missing mid-frame (peer died
/// while sending).
enum ReadFailure {
    Closed,
    Truncated,
}

/// Configuration of one socket-transport endpoint.
#[derive(Debug, Clone)]
pub struct SocketConfig {
    /// This endpoint's rank.
    pub rank: usize,
    /// World size.
    pub size: usize,
    /// Rendezvous directory holding `rank-<r>.sock` files.
    pub dir: PathBuf,
    /// Bound on every blocking wait.
    pub timeout: Duration,
}

impl SocketConfig {
    /// Builds a config with the default timeout.
    pub fn new(rank: usize, size: usize, dir: impl Into<PathBuf>) -> Self {
        SocketConfig { rank, size, dir: dir.into(), timeout: DEFAULT_SOCKET_TIMEOUT }
    }

    /// Overrides the blocking-wait bound.
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = timeout;
        self
    }
}

/// Writes one frame: `[u32 len][u64 tag][u64 type_code][payload]`.
pub(crate) fn write_frame(
    w: &mut impl Write,
    tag: u64,
    type_code: u64,
    payload: &[u8],
) -> std::io::Result<()> {
    let len = u32::try_from(16 + payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame exceeds u32 length")
    })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(&tag.to_le_bytes())?;
    w.write_all(&type_code.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads exactly `buf.len()` bytes; `Ok(false)` on a clean EOF *before the
/// first byte*, an `UnexpectedEof` error on EOF mid-buffer.
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> std::io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "stream closed mid-read",
                ));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads one frame.  `Ok(None)` means the peer closed cleanly at a frame
/// boundary; `Err` means the stream died mid-frame (truncation).
pub(crate) fn read_frame(r: &mut impl Read) -> std::io::Result<Option<(u64, u64, Vec<u8>)>> {
    let mut len_buf = [0u8; 4];
    if !read_exact_or_eof(r, &mut len_buf)? {
        return Ok(None);
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len < 16 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("frame length {len} below the 16-byte header"),
        ));
    }
    let mut header = [0u8; 16];
    if !read_exact_or_eof(r, &mut header)? {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream closed after length prefix",
        ));
    }
    let tag = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
    let type_code = u64::from_le_bytes(header[8..].try_into().expect("8 bytes"));
    let mut payload = vec![0u8; len - 16];
    if !payload.is_empty() && !read_exact_or_eof(r, &mut payload)? {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "stream closed inside the payload",
        ));
    }
    Ok(Some((tag, type_code, payload)))
}

/// The per-peer receive side: a queue fed by the peer's reader thread.
struct PeerInbox {
    frames: mpsc::Receiver<std::result::Result<Frame, ReadFailure>>,
    /// Set once the reader thread delivered its terminal failure, so later
    /// receives keep reporting the same typed error instead of a queue
    /// disconnect.
    failed: Option<CommError>,
}

/// One endpoint of the Unix-socket mesh.  See the module docs for the
/// rendezvous protocol and failure semantics.
pub struct UnixSocketTransport {
    rank: usize,
    size: usize,
    timeout: Duration,
    /// Write side per peer (`None` at our own rank).
    writers: Vec<Option<UnixStream>>,
    /// Read side per peer, drained by reader threads.
    inboxes: Vec<Option<PeerInbox>>,
    /// Loopback queue: sends to self never touch a socket.
    self_queue: VecDeque<Frame>,
    /// Our own socket path, unlinked on drop.
    own_path: PathBuf,
}

impl fmt::Debug for UnixSocketTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UnixSocketTransport")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .field("timeout", &self.timeout)
            .finish()
    }
}

fn socket_path(dir: &Path, rank: usize) -> PathBuf {
    dir.join(format!("rank-{rank}.sock"))
}

fn setup_err(step: &str, err: impl fmt::Display) -> CommError {
    CommError::SocketSetup { message: format!("{step}: {err}") }
}

impl UnixSocketTransport {
    /// Performs the full-mesh rendezvous described in the module docs and
    /// returns a connected endpoint.
    ///
    /// # Errors
    ///
    /// [`CommError::StaleSocket`] if `rank-<rank>.sock` already exists in
    /// the rendezvous directory, [`CommError::Timeout`] if a peer does not
    /// show up within the timeout, [`CommError::SocketSetup`] for other OS
    /// errors, [`CommError::InvalidConfig`] for a malformed config.
    pub fn connect(config: &SocketConfig) -> Result<Self> {
        let SocketConfig { rank, size, ref dir, timeout } = *config;
        if size == 0 || rank >= size {
            return Err(CommError::InvalidConfig(format!(
                "socket transport rank {rank} out of range for size {size}"
            )));
        }
        let own_path = socket_path(dir, rank);
        if own_path.exists() {
            return Err(CommError::StaleSocket { path: own_path.display().to_string() });
        }
        let listener = UnixListener::bind(&own_path).map_err(|e| {
            if e.kind() == std::io::ErrorKind::AddrInUse {
                CommError::StaleSocket { path: own_path.display().to_string() }
            } else {
                setup_err(&format!("bind {}", own_path.display()), e)
            }
        })?;

        let deadline = Instant::now() + timeout;
        let mut streams: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();

        // Connect to every lower rank, retrying until its listener is bound.
        for (peer, slot) in streams.iter_mut().enumerate().take(rank) {
            let peer_path = socket_path(dir, peer);
            let stream = loop {
                match UnixStream::connect(&peer_path) {
                    Ok(s) => break s,
                    Err(_) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => {
                        return Err(if Instant::now() >= deadline {
                            CommError::Timeout {
                                rank,
                                waiting_for: peer,
                                millis: timeout.as_millis() as u64,
                            }
                        } else {
                            setup_err(&format!("connect {}", peer_path.display()), e)
                        });
                    }
                }
            };
            let mut stream = stream;
            stream
                .write_all(&(rank as u64).to_le_bytes())
                .map_err(|e| setup_err("send hello", e))?;
            *slot = Some(stream);
        }

        // Accept one connection from every higher rank; the hello byte order
        // tells us who is who regardless of accept order.
        listener.set_nonblocking(true).map_err(|e| setup_err("listener nonblocking", e))?;
        let mut expected = size - rank - 1;
        while expected > 0 {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).map_err(|e| setup_err("stream blocking", e))?;
                    let mut hello = [0u8; 8];
                    stream
                        .set_read_timeout(Some(timeout))
                        .map_err(|e| setup_err("hello timeout", e))?;
                    stream.read_exact(&mut hello).map_err(|e| setup_err("read hello", e))?;
                    stream.set_read_timeout(None).map_err(|e| setup_err("clear timeout", e))?;
                    let peer = u64::from_le_bytes(hello) as usize;
                    if peer <= rank || peer >= size || streams[peer].is_some() {
                        return Err(CommError::InvalidConfig(format!(
                            "unexpected hello from rank {peer} at rank {rank}"
                        )));
                    }
                    streams[peer] = Some(stream);
                    expected -= 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(CommError::Timeout {
                            rank,
                            waiting_for: usize::MAX,
                            millis: timeout.as_millis() as u64,
                        });
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(setup_err("accept", e)),
            }
        }

        // Split each stream: keep the write half, hand a clone to a reader
        // thread that drains frames into an unbounded queue.
        let mut writers: Vec<Option<UnixStream>> = (0..size).map(|_| None).collect();
        let mut inboxes: Vec<Option<PeerInbox>> = (0..size).map(|_| None).collect();
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else { continue };
            let mut read_half =
                stream.try_clone().map_err(|e| setup_err("clone stream for reader", e))?;
            let (tx, rx) = mpsc::channel();
            std::thread::Builder::new()
                .name(format!("dmbs-sock-r{rank}-p{peer}"))
                .spawn(move || loop {
                    match read_frame(&mut read_half) {
                        Ok(Some((tag, type_code, bytes))) => {
                            if tx.send(Ok(Frame { tag, type_code, bytes })).is_err() {
                                return; // transport dropped
                            }
                        }
                        Ok(None) => {
                            let _ = tx.send(Err(ReadFailure::Closed));
                            return;
                        }
                        Err(e) => {
                            let failure = if e.kind() == std::io::ErrorKind::UnexpectedEof {
                                ReadFailure::Truncated
                            } else {
                                ReadFailure::Closed
                            };
                            let _ = tx.send(Err(failure));
                            return;
                        }
                    }
                })
                .map_err(|e| setup_err("spawn reader thread", e))?;
            writers[peer] = Some(stream);
            inboxes[peer] = Some(PeerInbox { frames: rx, failed: None });
        }

        Ok(UnixSocketTransport {
            rank,
            size,
            timeout,
            writers,
            inboxes,
            self_queue: VecDeque::new(),
            own_path,
        })
    }
}

impl Drop for UnixSocketTransport {
    fn drop(&mut self) {
        // Shut down write halves so peer readers see clean EOFs, then remove
        // our rendezvous socket so the directory can be reused.
        for w in self.writers.iter().flatten() {
            let _ = w.shutdown(std::net::Shutdown::Both);
        }
        let _ = std::fs::remove_file(&self.own_path);
    }
}

impl Transport for UnixSocketTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, frame: Frame) -> Result<()> {
        if to == self.rank {
            self.self_queue.push_back(frame);
            return Ok(());
        }
        let writer = self.writers[to].as_mut().expect("mesh is fully connected");
        write_frame(writer, frame.tag, frame.type_code, &frame.bytes)
            .map_err(|_| CommError::Disconnected { from: to })
    }

    fn recv(&mut self, from: usize) -> Result<Frame> {
        if from == self.rank {
            return self.self_queue.pop_front().ok_or_else(|| {
                CommError::InvalidConfig("receive from self with an empty loopback queue".into())
            });
        }
        let rank = self.rank;
        let timeout = self.timeout;
        let inbox = self.inboxes[from].as_mut().expect("mesh is fully connected");
        if let Some(err) = &inbox.failed {
            return Err(err.clone());
        }
        match inbox.frames.recv_timeout(timeout) {
            Ok(Ok(frame)) => Ok(frame),
            Ok(Err(ReadFailure::Closed)) => {
                let err = CommError::Disconnected { from };
                inbox.failed = Some(err.clone());
                Err(err)
            }
            Ok(Err(ReadFailure::Truncated)) => {
                let err = CommError::TruncatedFrame { from };
                inbox.failed = Some(err.clone());
                Err(err)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                rank,
                waiting_for: from,
                millis: timeout.as_millis() as u64,
            }),
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let err = CommError::Disconnected { from };
                inbox.failed = Some(err.clone());
                Err(err)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collectives::{Communicator, Payload};
    use crate::cost::CostModel;

    fn temp_dir(label: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dmbs-sock-test-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Connects a full in-process mesh (threads, not processes) — the
    /// transport itself does not care whether peers live in other processes.
    fn connect_mesh(dir: &Path, size: usize, timeout: Duration) -> Vec<UnixSocketTransport> {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let config = SocketConfig::new(rank, size, dir).timeout(timeout);
                std::thread::spawn(move || UnixSocketTransport::connect(&config).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn frames_cross_processes_boundary_free() {
        let dir = temp_dir("frames");
        let mut mesh = connect_mesh(&dir, 2, Duration::from_secs(5));
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        let h = std::thread::spawn(move || {
            let mut t1 = t1;
            let f = t1.recv(0).unwrap();
            assert_eq!(f.tag, 7);
            assert_eq!(f.type_code, 99);
            assert_eq!(f.bytes, vec![1, 2, 3]);
            // Reply with an empty payload.
            t1.send(0, Frame { tag: 8, type_code: 5, bytes: vec![] }).unwrap();
        });
        let mut t0 = t0;
        t0.send(1, Frame { tag: 7, type_code: 99, bytes: vec![1, 2, 3] }).unwrap();
        let reply = t0.recv(1).unwrap();
        assert_eq!(reply.tag, 8);
        h.join().unwrap();
        drop(t0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_socket_file_is_a_typed_error() {
        let dir = temp_dir("stale");
        // Simulate a previous run's leftovers.
        std::fs::write(socket_path(&dir, 0), b"").unwrap();
        let config = SocketConfig::new(0, 2, &dir).timeout(Duration::from_millis(200));
        match UnixSocketTransport::connect(&config) {
            Err(CommError::StaleSocket { path }) => assert!(path.contains("rank-0.sock")),
            other => panic!("expected StaleSocket, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_peer_times_out_instead_of_hanging() {
        let dir = temp_dir("lonely");
        // Rank 1 of 2 connects; rank 0 never shows up.
        let config = SocketConfig::new(1, 2, &dir).timeout(Duration::from_millis(150));
        let start = Instant::now();
        match UnixSocketTransport::connect(&config) {
            Err(CommError::Timeout { rank: 1, waiting_for: 0, .. }) => {}
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn peer_exit_mid_collective_is_disconnected_not_a_hang() {
        let dir = temp_dir("exit");
        let mut mesh = connect_mesh(&dir, 2, Duration::from_secs(5));
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        // Rank 1 "exits" (drops its transport, closing the streams) while
        // rank 0 is waiting inside a receive — exactly the rank-died-
        // mid-collective scenario, at the transport level.
        drop(t1);
        let mut t0 = t0;
        match t0.recv(1) {
            Err(CommError::Disconnected { from: 1 }) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
        // The failure is sticky: later receives keep reporting it.
        match t0.recv(1) {
            Err(CommError::Disconnected { from: 1 }) => {}
            other => panic!("expected sticky Disconnected, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_frame_is_a_typed_error() {
        let dir = temp_dir("trunc");
        let mut mesh = connect_mesh(&dir, 2, Duration::from_secs(5));
        let t1 = mesh.pop().unwrap();
        let t0 = mesh.pop().unwrap();
        // Rank 1 writes a frame header promising 100 payload bytes, then
        // dies after delivering only 3.
        let mut writer = t1.writers[0].as_ref().unwrap().try_clone().unwrap();
        let len = (16u32 + 100).to_le_bytes();
        writer.write_all(&len).unwrap();
        writer.write_all(&7u64.to_le_bytes()).unwrap();
        writer.write_all(&1u64.to_le_bytes()).unwrap();
        writer.write_all(&[1, 2, 3]).unwrap();
        writer.flush().unwrap();
        drop(writer);
        drop(t1);
        let mut t0 = t0;
        match t0.recv(1) {
            Err(CommError::TruncatedFrame { from: 1 }) => {}
            other => panic!("expected TruncatedFrame, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wedged_peer_receive_times_out() {
        let dir = temp_dir("wedge");
        let mut mesh = connect_mesh(&dir, 2, Duration::from_millis(150));
        let _t1 = mesh.pop().unwrap(); // alive but silent
        let mut t0 = mesh.remove(0);
        let start = Instant::now();
        match t0.recv(1) {
            Err(CommError::Timeout { rank: 0, waiting_for: 1, millis }) => {
                assert_eq!(millis, 150);
            }
            other => panic!("expected Timeout, got {other:?}"),
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn frame_codec_round_trips_and_rejects_short_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 42, 7, &[9, 8, 7]).unwrap();
        let mut cursor = buf.as_slice();
        let (tag, code, payload) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((tag, code, payload), (42, 7, vec![9, 8, 7]));
        // Clean EOF at the boundary.
        assert!(read_frame(&mut cursor).unwrap().is_none());
        // A length below the header size is corrupt.
        let bad = 3u32.to_le_bytes();
        assert!(read_frame(&mut bad.as_slice()).is_err());
        // EOF inside the header is truncation.
        let partial = &buf[..6];
        assert!(read_frame(&mut &partial[..]).is_err());
    }

    #[test]
    fn collectives_run_bit_identically_over_sockets() {
        // Full Communicator stack over a 3-rank socket mesh on threads:
        // allreduce must produce the simulator's exact result and counters.
        let dir = temp_dir("collective");
        let size = 3;
        let cost = CostModel::default();
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let config =
                        SocketConfig::new(rank, size, &dir).timeout(Duration::from_secs(5));
                    let transport = UnixSocketTransport::connect(&config).unwrap();
                    let mut comm = Communicator::from_transport(Box::new(transport), cost);
                    let sum = comm
                        .allreduce(vec![comm.rank() as f64, 1.0], |a, b| {
                            a.iter().zip(b).map(|(x, y)| x + y).collect()
                        })
                        .unwrap();
                    comm.barrier().unwrap();
                    (sum, comm.stats())
                })
            })
            .collect();
        let socket_outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

        let rt = crate::Runtime::with_cost_model(size, cost).unwrap();
        let sim_outs = rt
            .run(|comm| {
                let sum = comm
                    .allreduce(vec![comm.rank() as f64, 1.0], |a, b| {
                        a.iter().zip(b).map(|(x, y)| x + y).collect()
                    })
                    .unwrap();
                comm.barrier().unwrap();
                sum
            })
            .unwrap();
        for (rank, (sum, stats)) in socket_outs.iter().enumerate() {
            assert_eq!(sum, &sim_outs[rank].value, "allreduce value at rank {rank}");
            assert_eq!(stats.words_sent, sim_outs[rank].stats.words_sent, "words at rank {rank}");
            assert_eq!(stats.messages, sim_outs[rank].stats.messages, "messages at rank {rank}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn type_mismatch_crosses_the_wire_as_a_typed_error() {
        let dir = temp_dir("mismatch");
        let cost = CostModel::default();
        let handles: Vec<_> = (0..2)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || {
                    let config = SocketConfig::new(rank, 2, &dir).timeout(Duration::from_secs(5));
                    let transport = UnixSocketTransport::connect(&config).unwrap();
                    let mut comm = Communicator::from_transport(Box::new(transport), cost);
                    if rank == 0 {
                        comm.send(1, 42usize).unwrap();
                        Ok(())
                    } else {
                        match comm.recv::<f64>(0) {
                            Err(CommError::TypeMismatch { from: 0 }) => Err("mismatch"),
                            other => panic!("expected TypeMismatch, got {other:?}"),
                        }
                    }
                })
            })
            .collect();
        let outs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(outs[1], Err("mismatch"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_word_count_matches_wire_volume_proportionally() {
        // Sanity: the α–β word count of a Vec<f64> equals its element count,
        // and the wire encoding is 8 bytes per word plus one length word —
        // the counters stay proportional to real bytes on the wire.
        let v = vec![1.0f64; 32];
        assert_eq!(v.word_count(), 32);
        let mut bytes = Vec::new();
        v.encode(&mut bytes);
        assert_eq!(bytes.len(), 8 + 32 * 8);
    }
}
