//! The pluggable transport layer under the collectives.
//!
//! [`Communicator`](crate::Communicator) and every collective — blocking and
//! nonblocking alike — are written against the [`Transport`] trait: a
//! point-to-point carrier of tagged [`Frame`]s.  Two implementations ship:
//!
//! * [`SimTransport`] — the in-process rank simulator.  Ranks are threads and
//!   frames cross over channels.
//! * [`UnixSocketTransport`](crate::UnixSocketTransport) — one OS process
//!   per rank, frames length-prefixed over Unix domain sockets.
//!
//! A frame is always the payload's wire bytes: the communicator encodes
//! every value with the [`Payload`](crate::Payload) codec before it reaches
//! any transport and decodes it on receive, so both transports run the same
//! decoders on the same bytes.  Communication *accounting*
//! ([`CommStats`](crate::CommStats) words/messages and the α–β bill) is
//! recorded by the communicator before the frame reaches the transport too,
//! so the deterministic counters are identical across backends by
//! construction — the invariant the cross-transport equivalence sweep pins.

use std::fmt;

use crossbeam::channel::{Receiver, Sender};

use crate::error::CommError;
use crate::Result;

/// One tagged point-to-point message as seen by a transport.
pub struct Frame {
    /// MPI-style tag: `0` for blocking traffic, a fresh per-round tag for
    /// each nonblocking collective.
    pub tag: u64,
    /// Structural code of the encoded payload type, checked before decoding.
    pub type_code: u64,
    /// The encoded payload.
    pub bytes: Vec<u8>,
}

impl fmt::Debug for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Frame")
            .field("tag", &self.tag)
            .field("type_code", &self.type_code)
            .field("len", &self.bytes.len())
            .finish()
    }
}

/// A point-to-point carrier of tagged frames between `size` ranks.
///
/// Implementations must deliver frames from a given peer **in order**; tag
/// matching (and the out-of-order stash it requires) lives above the
/// transport, in the communicator.
pub trait Transport: Send + fmt::Debug {
    /// This endpoint's rank.
    fn rank(&self) -> usize;

    /// World size.
    fn size(&self) -> usize;

    /// Sends one frame to `to`.  `to` is already validated by the
    /// communicator to be in `0..size` and different from `self.rank()`.
    fn send(&mut self, to: usize, frame: Frame) -> Result<()>;

    /// Receives the next in-order frame from `from`, blocking (with the
    /// transport's own timeout policy) until one arrives.
    fn recv(&mut self, from: usize) -> Result<Frame>;
}

/// The in-process simulator transport: one crossbeam channel pair per peer,
/// ranks running as threads of one process.
///
/// This is a direct re-packaging of the channel matrix the pre-trait
/// `Communicator` owned; semantics (unbounded buffering, in-order delivery,
/// disconnect on peer exit) are unchanged.
pub struct SimTransport {
    rank: usize,
    size: usize,
    senders: Vec<Sender<Frame>>,
    receivers: Vec<Receiver<Frame>>,
}

impl fmt::Debug for SimTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimTransport").field("rank", &self.rank).field("size", &self.size).finish()
    }
}

impl SimTransport {
    /// Builds the simulator endpoint for `rank` out of one sender and one
    /// receiver per peer (the rank's own slots are never used).
    pub fn new(
        rank: usize,
        size: usize,
        senders: Vec<Sender<Frame>>,
        receivers: Vec<Receiver<Frame>>,
    ) -> Self {
        debug_assert_eq!(senders.len(), size);
        debug_assert_eq!(receivers.len(), size);
        SimTransport { rank, size, senders, receivers }
    }
}

impl Transport for SimTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&mut self, to: usize, frame: Frame) -> Result<()> {
        self.senders[to].send(frame).map_err(|_| CommError::Disconnected { from: to })
    }

    fn recv(&mut self, from: usize) -> Result<Frame> {
        self.receivers[from].recv().map_err(|_| CommError::Disconnected { from })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    fn pair() -> (SimTransport, SimTransport) {
        let (s01, r01) = unbounded::<Frame>();
        let (s10, r10) = unbounded::<Frame>();
        let (self0_s, self0_r) = unbounded::<Frame>();
        let (self1_s, self1_r) = unbounded::<Frame>();
        let t0 = SimTransport::new(0, 2, vec![self0_s, s01], vec![self0_r, r10]);
        let t1 = SimTransport::new(1, 2, vec![s10, self1_s], vec![r01, self1_r]);
        (t0, t1)
    }

    #[test]
    fn frames_cross_in_order() {
        let (mut t0, mut t1) = pair();
        for tag in [7u64, 8, 9] {
            t0.send(1, Frame { tag, type_code: 2, bytes: vec![tag as u8] }).unwrap();
        }
        for tag in [7u64, 8, 9] {
            let f = t1.recv(0).unwrap();
            assert_eq!((f.tag, f.bytes), (tag, vec![tag as u8]));
        }
        assert_eq!((t0.rank(), t1.rank()), (0, 1));
        assert_eq!(t0.size(), 2);
    }

    #[test]
    fn dropped_peer_is_disconnected() {
        let (t0, mut t1) = pair();
        drop(t0);
        match t1.recv(0) {
            Err(CommError::Disconnected { from: 0 }) => {}
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn frame_body_debug_is_compact() {
        let f = Frame { tag: 7, type_code: 5, bytes: vec![1, 2, 3] };
        let s = format!("{f:?}");
        assert!(s.contains("tag: 7") && s.contains("type_code: 5") && s.contains("len: 3"), "{s}");
        assert!(!s.contains("[1, 2, 3]"), "the body bytes stay out of the debug string: {s}");
    }
}
