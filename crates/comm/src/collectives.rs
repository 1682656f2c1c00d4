//! Point-to-point messaging and collectives over ranks of either transport.
//!
//! A [`Communicator`] belongs to one rank of a [`Runtime`](crate::Runtime)
//! execution.  It offers the NCCL-style operations the paper's algorithms
//! use: point-to-point send/receive, broadcast, gather, all-gather,
//! all-reduce, all-to-allv and barrier — over the whole world or over a
//! [`Group`] (e.g. a process row or column of the 1.5D grid).
//!
//! The communicator is written against the [`Transport`] trait, so the same
//! collective code runs over the in-process rank simulator (threads +
//! channels) and over the Unix-socket multi-process backend; on both, a
//! payload crosses as its [`Payload`] wire bytes.  Every send records the
//! message's word count and α–β modeled time into the rank's [`CommStats`]
//! *before* the frame reaches the transport, which keeps the deterministic
//! counters identical across backends and is how the benchmark harnesses
//! obtain the communication component of the paper's breakdowns without real
//! network hardware.

use crate::cost::{CommStats, CostModel};
use crate::error::CommError;
use crate::transport::{Frame, Transport};
use crate::wire;
use crate::Result;
use std::collections::VecDeque;

/// The tag of all blocking point-to-point and collective traffic.  Blocking
/// operations execute in identical program order on every rank, so one shared
/// FIFO lane suffices; posted (nonblocking) collectives each get a fresh tag
/// from [`Communicator::fresh_round_tag`] so their messages can sit in a
/// channel behind — or in front of — blocking traffic without being
/// mis-matched.
pub(crate) const TAG_BLOCKING: u64 = 0;

/// Bytes reserved beyond a payload's [`Payload::wire_bytes`] for the length
/// prefixes of its containers when it is encoded: eight of them.
const ENCODE_SLACK_BYTES: usize = 64;

/// Values that can be communicated between ranks.
///
/// The `word_count` is the payload size in 8-byte words used by the α–β cost
/// model; it does not need to be exact to the byte, only proportional to the
/// real transfer volume.
///
/// The remaining methods are the wire codec every message crosses (see
/// [`wire`]): a structural [`type_code`](Payload::type_code) checked on
/// receive, and a bit-exact [`encode`](Payload::encode) /
/// [`decode`](Payload::decode) pair (`f64` travels as its IEEE-754 bit
/// pattern, so values round-trip identically on both transports).
pub trait Payload: Send + 'static {
    /// Size of the payload in 8-byte words.
    fn word_count(&self) -> usize;

    /// Bytes this payload occupies on the wire.  Defaults to `8 ×`
    /// [`word_count`](Payload::word_count); compressed payloads (see
    /// [`crate::codec::WireRows`]) override it with their encoded size, and
    /// the communicator books the difference into
    /// [`CommStats::bytes_saved`](crate::CommStats::bytes_saved) while
    /// charging β on the real bytes.
    fn wire_bytes(&self) -> usize {
        self.word_count() * 8
    }

    /// Structural code identifying this payload type on the wire.
    fn type_code() -> u64
    where
        Self: Sized;

    /// Appends the wire encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one value from the front of `input`, advancing it.  `None`
    /// means the bytes do not form a valid value of this type.
    fn decode(input: &mut &[u8]) -> Option<Self>
    where
        Self: Sized;
}

impl Payload for f64 {
    fn word_count(&self) -> usize {
        1
    }
    fn type_code() -> u64 {
        wire::compose_type_code(1, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_f64(out, *self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        wire::get_f64(input)
    }
}

impl Payload for usize {
    fn word_count(&self) -> usize {
        1
    }
    fn type_code() -> u64 {
        wire::compose_type_code(2, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, *self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        wire::get_usize(input)
    }
}

impl Payload for u64 {
    fn word_count(&self) -> usize {
        1
    }
    fn type_code() -> u64 {
        wire::compose_type_code(3, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, *self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        wire::get_u64(input)
    }
}

impl Payload for i64 {
    fn word_count(&self) -> usize {
        1
    }
    fn type_code() -> u64 {
        wire::compose_type_code(4, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_i64(out, *self);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        wire::get_i64(input)
    }
}

impl Payload for bool {
    fn word_count(&self) -> usize {
        1
    }
    fn type_code() -> u64 {
        wire::compose_type_code(5, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, *self as u64);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match wire::get_u64(input)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Payload for () {
    fn word_count(&self) -> usize {
        0
    }
    fn type_code() -> u64 {
        wire::compose_type_code(6, &[])
    }
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Option<Self> {
        Some(())
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn word_count(&self) -> usize {
        self.0.word_count() + self.1.word_count()
    }
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes()
    }
    fn type_code() -> u64 {
        wire::compose_type_code(20, &[A::type_code(), B::type_code()])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: Payload, B: Payload, C: Payload> Payload for (A, B, C) {
    fn word_count(&self) -> usize {
        self.0.word_count() + self.1.word_count() + self.2.word_count()
    }
    fn wire_bytes(&self) -> usize {
        self.0.wire_bytes() + self.1.wire_bytes() + self.2.wire_bytes()
    }
    fn type_code() -> u64 {
        wire::compose_type_code(21, &[A::type_code(), B::type_code(), C::type_code()])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

impl<T: Payload> Payload for Option<T> {
    fn word_count(&self) -> usize {
        self.as_ref().map_or(0, Payload::word_count)
    }
    fn wire_bytes(&self) -> usize {
        self.as_ref().map_or(0, Payload::wire_bytes)
    }
    fn type_code() -> u64 {
        wire::compose_type_code(22, &[T::type_code()])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => wire::put_u64(out, 0),
            Some(v) => {
                wire::put_u64(out, 1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        match wire::get_u64(input)? {
            0 => Some(None),
            1 => Some(Some(T::decode(input)?)),
            _ => None,
        }
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn word_count(&self) -> usize {
        self.iter().map(Payload::word_count).sum()
    }
    fn wire_bytes(&self) -> usize {
        self.iter().map(Payload::wire_bytes).sum()
    }
    fn type_code() -> u64 {
        wire::compose_type_code(10, &[T::type_code()])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.len());
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let len = wire::get_usize(input)?;
        // Guard against corrupt length prefixes: every non-zero-sized
        // element occupies at least one wire byte, and zero-sized elements
        // (`()`) get a hard cap so a corrupt prefix cannot spin the decoder.
        if std::mem::size_of::<T>() == 0 {
            if len > (1 << 24) {
                return None;
            }
        } else if len > input.len() {
            return None;
        }
        // Sized up front: collecting through `Option` would grow the vector
        // from empty, one doubling at a time.
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Some(out)
    }
}

impl Payload for CommStats {
    fn word_count(&self) -> usize {
        10
    }
    fn type_code() -> u64 {
        // Constructor 34, used by no other payload: the layout lost the four
        // invalidation books, so old and new frames must never decode as
        // each other (30, 31 and 32 were its earlier layouts; 33 is the
        // `Schedule`).
        wire::compose_type_code(34, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_usize(out, self.messages);
        wire::put_usize(out, self.words_sent);
        wire::put_f64(out, self.modeled_time);
        wire::put_usize(out, self.cache_hits);
        wire::put_usize(out, self.cache_misses);
        wire::put_usize(out, self.words_saved);
        wire::put_f64(out, self.overlapped_time);
        wire::put_usize(out, self.amortized_requests);
        wire::put_usize(out, self.bytes_on_wire);
        wire::put_usize(out, self.bytes_saved);
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        Some(CommStats {
            messages: wire::get_usize(input)?,
            words_sent: wire::get_usize(input)?,
            modeled_time: wire::get_f64(input)?,
            cache_hits: wire::get_usize(input)?,
            cache_misses: wire::get_usize(input)?,
            words_saved: wire::get_usize(input)?,
            overlapped_time: wire::get_f64(input)?,
            amortized_requests: wire::get_usize(input)?,
            bytes_on_wire: wire::get_usize(input)?,
            bytes_saved: wire::get_usize(input)?,
        })
    }
}

/// A subset of ranks participating in a collective (for example one process
/// row or one process column of the 1.5D grid).  Membership is sorted and
/// deduplicated; the group "root" used internally by collectives is the
/// smallest member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Vec<usize>,
}

impl Group {
    /// Creates a group from the given ranks (sorted, deduplicated).
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if the group is empty.
    pub fn new(ranks: &[usize]) -> Result<Self> {
        if ranks.is_empty() {
            return Err(CommError::InvalidConfig("a group must contain at least one rank".into()));
        }
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        Ok(Group { ranks: sorted })
    }

    /// The member ranks in ascending order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Returns `true` if the group has exactly one member (all collectives
    /// become local no-ops).
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Position of `rank` within the group, if it is a member.
    pub fn position_of(&self, rank: usize) -> Option<usize> {
        self.ranks.binary_search(&rank).ok()
    }

    /// Whether `rank` belongs to the group.
    pub fn contains(&self, rank: usize) -> bool {
        self.position_of(rank).is_some()
    }
}

/// The per-rank handle for communication within a [`Runtime`](crate::Runtime)
/// execution.
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    size: usize,
    /// The point-to-point carrier underneath: the in-process simulator or
    /// the Unix-socket multi-process backend.
    transport: Box<dyn Transport>,
    /// `stashed[i]` holds frames from rank `i` that arrived while a receive
    /// was waiting for a different tag (MPI-style unexpected-message queue).
    stashed: Vec<VecDeque<Frame>>,
    /// Next tag handed out to a posted (nonblocking) collective round.  All
    /// ranks execute the same SPMD program, so the counters advance in
    /// lockstep and a round's tag agrees across the world.
    next_tag: u64,
    cost: CostModel,
    stats: CommStats,
}

impl Communicator {
    /// Builds a communicator over an arbitrary [`Transport`], charging the
    /// given α–β cost model.  This is how worker processes of the socket
    /// backend (and any future transport) obtain their per-rank handle; the
    /// simulator constructs one per rank thread via
    /// [`Runtime::run`](crate::Runtime::run).
    pub fn from_transport(transport: Box<dyn Transport>, cost: CostModel) -> Self {
        let rank = transport.rank();
        let size = transport.size();
        let stashed = (0..size).map(|_| VecDeque::new()).collect();
        Communicator {
            rank,
            size,
            transport,
            stashed,
            next_tag: TAG_BLOCKING + 1,
            cost,
            stats: CommStats::new(),
        }
    }

    /// Unpacks one matched frame into a typed value: type-code check, then a
    /// bit-exact decode that must consume the whole body.
    fn extract<T: Payload>(frame: Frame, from: usize) -> Result<T> {
        if frame.type_code != T::type_code() {
            return Err(CommError::TypeMismatch { from });
        }
        let mut input = frame.bytes.as_slice();
        let value = T::decode(&mut input).ok_or(CommError::TypeMismatch { from })?;
        if !input.is_empty() {
            return Err(CommError::TypeMismatch { from });
        }
        Ok(value)
    }

    /// Reserves a fresh tag for one nonblocking collective round.  Every rank
    /// must reserve tags in the same program order (SPMD), which is what makes
    /// a posted round's messages match up across ranks.
    pub(crate) fn fresh_round_tag(&mut self) -> u64 {
        let tag = self.next_tag;
        self.next_tag += 1;
        tag
    }

    /// This rank's id in `0..size`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The α–β cost model in effect.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Communication statistics accumulated so far by this rank.
    pub fn stats(&self) -> CommStats {
        self.stats
    }

    /// Resets the accumulated statistics (e.g. between pipeline phases).
    pub fn reset_stats(&mut self) -> CommStats {
        std::mem::take(&mut self.stats)
    }

    /// The group containing every rank.
    pub fn world(&self) -> Group {
        Group::new(&(0..self.size).collect::<Vec<_>>()).expect("world is non-empty")
    }

    /// Sends `value` to rank `to`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] for an invalid destination, or
    /// [`CommError::Disconnected`] if the destination rank has already
    /// terminated.
    pub fn send<T: Payload>(&mut self, to: usize, value: T) -> Result<()> {
        self.send_tagged(to, TAG_BLOCKING, value)
    }

    /// Sends `value` to rank `to` under `tag` (the nonblocking lane when
    /// `tag != TAG_BLOCKING`).  Channel sends never block, so posting a
    /// collective's outgoing messages completes immediately.
    pub(crate) fn send_tagged<T: Payload>(&mut self, to: usize, tag: u64, value: T) -> Result<()> {
        if to >= self.size {
            return Err(CommError::RankOutOfRange { rank: to, size: self.size });
        }
        // Record stats *before* handing the frame to the transport: the
        // deterministic counters must not depend on which backend carries
        // the bytes.  Logical words and encoded wire bytes are booked
        // separately so compressed payloads keep comparable word counts
        // while β is charged on what actually moves.
        self.stats.record_wire(value.word_count(), value.wire_bytes(), &self.cost);
        // The encoding is the payload's bytes plus a word per container
        // length; reserving for a few containers keeps a large message from
        // regrowing its buffer at every doubling.
        let mut bytes = Vec::with_capacity(value.wire_bytes() + ENCODE_SLACK_BYTES);
        value.encode(&mut bytes);
        self.transport.send(to, Frame { tag, type_code: T::type_code(), bytes })
    }

    /// Receives a value of type `T` from rank `from`, blocking until it
    /// arrives.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::RankOutOfRange`] for an invalid source,
    /// [`CommError::Disconnected`] if the source terminated without sending,
    /// or [`CommError::TypeMismatch`] if the arriving message has a different
    /// type (which indicates mismatched collective calls across ranks).
    pub fn recv<T: Payload>(&mut self, from: usize) -> Result<T> {
        self.recv_tagged(from, TAG_BLOCKING)
    }

    /// Receives the next message from `from` carrying `tag`, stashing any
    /// messages with other tags (they belong to posted collectives that will
    /// be waited later, or to blocking traffic behind an in-flight round).
    pub(crate) fn recv_tagged<T: Payload>(&mut self, from: usize, tag: u64) -> Result<T> {
        if from >= self.size {
            return Err(CommError::RankOutOfRange { rank: from, size: self.size });
        }
        // Messages for one (peer, tag) pair are produced and consumed in the
        // same program order, so the first stashed match is the right one.
        if let Some(pos) = self.stashed[from].iter().position(|m| m.tag == tag) {
            let frame = self.stashed[from].remove(pos).expect("position just found");
            return Self::extract(frame, from);
        }
        loop {
            let frame = self.transport.recv(from)?;
            if frame.tag == tag {
                return Self::extract(frame, from);
            }
            self.stashed[from].push_back(frame);
        }
    }

    /// Synchronizes all ranks in the world.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors (disconnected peers).
    pub fn barrier(&mut self) -> Result<()> {
        let world = self.world();
        self.group_allreduce(&world, 0usize, |a, b| a + b)?;
        Ok(())
    }

    /// Broadcast over the whole world: the `root`'s value (which it must
    /// supply as `Some`) is returned on every rank.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if the root does not supply a
    /// value, plus any point-to-point error.
    pub fn broadcast<T: Payload + Clone>(&mut self, root: usize, value: Option<T>) -> Result<T> {
        let world = self.world();
        self.group_broadcast(&world, root, value)
    }

    /// Gather over the whole world: every rank's value arrives at `root` in
    /// rank order; non-roots receive `None`.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors.
    pub fn gather<T: Payload>(&mut self, root: usize, value: T) -> Result<Option<Vec<T>>> {
        let world = self.world();
        self.group_gather(&world, root, value)
    }

    /// All-gather over the whole world.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors.
    pub fn allgather<T: Payload + Clone>(&mut self, value: T) -> Result<Vec<T>> {
        let world = self.world();
        self.group_allgather(&world, value)
    }

    /// All-reduce over the whole world with a custom associative combiner.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors.
    pub fn allreduce<T, F>(&mut self, value: T, combine: F) -> Result<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        let world = self.world();
        self.group_allreduce(&world, value, combine)
    }

    /// All-to-allv over the whole world: `sends[j]` is delivered to rank `j`;
    /// the returned vector holds one received value per source rank.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if `sends.len() != size`, plus any
    /// point-to-point error.
    pub fn all_to_allv<T: Payload>(&mut self, sends: Vec<T>) -> Result<Vec<T>> {
        let world = self.world();
        self.group_all_to_allv(&world, sends)
    }

    /// Broadcast within a group.  The root (any member) supplies `Some(value)`.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller or root is not a
    /// member, [`CommError::InvalidConfig`] if the root supplies no value.
    pub fn group_broadcast<T: Payload + Clone>(
        &mut self,
        group: &Group,
        root: usize,
        value: Option<T>,
    ) -> Result<T> {
        self.require_member(group)?;
        if !group.contains(root) {
            return Err(CommError::NotInGroup { rank: root });
        }
        if self.rank == root {
            let value = value.ok_or_else(|| {
                CommError::InvalidConfig("broadcast root must supply a value".into())
            })?;
            for &peer in group.ranks() {
                if peer != self.rank {
                    self.send(peer, value.clone())?;
                }
            }
            Ok(value)
        } else {
            self.recv(root)
        }
    }

    /// Gather within a group: member values arrive at `root` in ascending
    /// rank order.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller or root is not a
    /// member, plus any point-to-point error.
    pub fn group_gather<T: Payload>(
        &mut self,
        group: &Group,
        root: usize,
        value: T,
    ) -> Result<Option<Vec<T>>> {
        self.require_member(group)?;
        if !group.contains(root) {
            return Err(CommError::NotInGroup { rank: root });
        }
        if self.rank == root {
            let mut out: Vec<Option<T>> = Vec::with_capacity(group.len());
            for _ in 0..group.len() {
                out.push(None);
            }
            let own_pos = group.position_of(self.rank).expect("checked membership");
            out[own_pos] = Some(value);
            for (pos, &peer) in group.ranks().iter().enumerate() {
                if peer != self.rank {
                    out[pos] = Some(self.recv(peer)?);
                }
            }
            Ok(Some(out.into_iter().map(|v| v.expect("all positions filled")).collect()))
        } else {
            self.send(root, value)?;
            Ok(None)
        }
    }

    /// All-gather within a group.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller is not a member, plus
    /// any point-to-point error.
    pub fn group_allgather<T: Payload + Clone>(
        &mut self,
        group: &Group,
        value: T,
    ) -> Result<Vec<T>> {
        self.require_member(group)?;
        let root = group.ranks()[0];
        let gathered = self.group_gather(group, root, value)?;
        self.group_broadcast(group, root, gathered)
    }

    /// All-reduce within a group with a custom associative combiner.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller is not a member, plus
    /// any point-to-point error.
    pub fn group_allreduce<T, F>(&mut self, group: &Group, value: T, combine: F) -> Result<T>
    where
        T: Payload + Clone,
        F: Fn(&T, &T) -> T,
    {
        self.require_member(group)?;
        let root = group.ranks()[0];
        let gathered = self.group_gather(group, root, value)?;
        let reduced = gathered.map(|values| {
            let mut iter = values.into_iter();
            let first = iter.next().expect("group is non-empty");
            iter.fold(first, |acc, v| combine(&acc, &v))
        });
        self.group_broadcast(group, root, reduced)
    }

    /// All-to-allv within a group: `sends[i]` goes to the `i`-th member (in
    /// ascending rank order); the result holds one value per member, indexed
    /// the same way.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller is not a member,
    /// [`CommError::InvalidConfig`] if `sends.len() != group.len()`, plus any
    /// point-to-point error.
    pub fn group_all_to_allv<T: Payload>(
        &mut self,
        group: &Group,
        sends: Vec<T>,
    ) -> Result<Vec<T>> {
        self.require_member(group)?;
        if sends.len() != group.len() {
            return Err(CommError::InvalidConfig(format!(
                "all_to_allv requires one send per group member ({} != {})",
                sends.len(),
                group.len()
            )));
        }
        let my_pos = group.position_of(self.rank).expect("checked membership");
        let mut own: Option<T> = None;
        for (pos, value) in sends.into_iter().enumerate() {
            let peer = group.ranks()[pos];
            if peer == self.rank {
                own = Some(value);
            } else {
                self.send(peer, value)?;
            }
        }
        let mut received: Vec<Option<T>> = Vec::with_capacity(group.len());
        for _ in 0..group.len() {
            received.push(None);
        }
        received[my_pos] = own;
        for (pos, &peer) in group.ranks().iter().enumerate() {
            if peer != self.rank {
                received[pos] = Some(self.recv(peer)?);
            }
        }
        Ok(received.into_iter().map(|v| v.expect("every member sends exactly one value")).collect())
    }

    fn require_member(&self, group: &Group) -> Result<()> {
        if group.contains(self.rank) {
            Ok(())
        } else {
            Err(CommError::NotInGroup { rank: self.rank })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_word_counts() {
        assert_eq!(3.5f64.word_count(), 1);
        assert_eq!(7usize.word_count(), 1);
        assert_eq!(().word_count(), 0);
        assert_eq!((1usize, 2.0f64).word_count(), 2);
        assert_eq!((1usize, 2.0f64, 3usize).word_count(), 3);
        assert_eq!(vec![1.0f64; 10].word_count(), 10);
        assert_eq!(vec![(1usize, 1.0f64); 4].word_count(), 8);
        assert_eq!(Some(5.0f64).word_count(), 1);
        assert_eq!(Option::<f64>::None.word_count(), 0);
        assert_eq!(vec![vec![1.0f64; 3]; 2].word_count(), 6);
        assert_eq!(true.word_count(), 1);
        assert_eq!(4u64.word_count(), 1);
        assert_eq!((-2i64).word_count(), 1);
    }

    fn round_trip<T: Payload + PartialEq + std::fmt::Debug + Clone>(value: T) {
        let mut bytes = Vec::new();
        value.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let back = T::decode(&mut input).expect("decodes");
        assert!(input.is_empty(), "no trailing bytes for {value:?}");
        assert_eq!(back, value);
    }

    #[test]
    fn payload_wire_round_trips() {
        round_trip(3.5f64);
        round_trip(-0.0f64);
        round_trip(7usize);
        round_trip(42u64);
        round_trip(-9i64);
        round_trip(true);
        round_trip(false);
        round_trip(());
        round_trip((1usize, 2.0f64));
        round_trip((1usize, 2.0f64, 3usize));
        round_trip(Some(5.0f64));
        round_trip(Option::<f64>::None);
        round_trip(vec![1.0f64, -2.5, 3.25]);
        round_trip(vec![vec![1usize, 2], vec![], vec![3]]);
        round_trip(vec![(1usize, 2usize, 0.5f64); 4]);
        round_trip(Vec::<f64>::new());
        let mut stats = CommStats::new();
        stats.record(10, &CostModel::new(1.0, 0.5));
        stats.record_cache_hit(17);
        stats.record_overlap(0.25);
        round_trip(stats);
    }

    #[test]
    fn payload_type_codes_are_distinct() {
        let codes = [
            <f64 as Payload>::type_code(),
            <usize as Payload>::type_code(),
            <u64 as Payload>::type_code(),
            <i64 as Payload>::type_code(),
            <bool as Payload>::type_code(),
            <() as Payload>::type_code(),
            <(usize, f64) as Payload>::type_code(),
            <(usize, f64, usize) as Payload>::type_code(),
            <Option<f64> as Payload>::type_code(),
            <Vec<f64> as Payload>::type_code(),
            <Vec<Vec<f64>> as Payload>::type_code(),
            <Vec<usize> as Payload>::type_code(),
            <CommStats as Payload>::type_code(),
        ];
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                assert_eq!(i == j, a == b, "type codes must be pairwise distinct");
            }
        }
    }

    #[test]
    fn corrupt_bodies_decode_to_none() {
        // bool only admits 0/1.
        let mut buf = Vec::new();
        crate::wire::put_u64(&mut buf, 2);
        assert_eq!(bool::decode(&mut buf.as_slice()), None);
        // Vec length prefix larger than the remaining body.
        let mut buf = Vec::new();
        crate::wire::put_usize(&mut buf, 1_000);
        assert_eq!(Vec::<f64>::decode(&mut buf.as_slice()), None);
        // Zero-sized elements are capped instead of spinning.
        let mut buf = Vec::new();
        crate::wire::put_usize(&mut buf, usize::MAX);
        assert_eq!(Vec::<()>::decode(&mut buf.as_slice()), None);
    }

    #[test]
    fn group_membership() {
        let g = Group::new(&[3, 1, 3, 5]).unwrap();
        assert_eq!(g.ranks(), &[1, 3, 5]);
        assert_eq!(g.len(), 3);
        assert!(g.contains(3));
        assert!(!g.contains(2));
        assert_eq!(g.position_of(5), Some(2));
        assert_eq!(g.position_of(0), None);
        assert!(Group::new(&[]).is_err());
    }

    // Collective behaviour over real ranks is tested in `runtime.rs` and the
    // crate-level integration tests, where a full Runtime is available.
}
