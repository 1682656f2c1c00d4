//! The nonblocking (posted) all-to-allv: `post → PendingCollective → wait`.
//!
//! The paper's pipeline breakdowns (Figures 4/6/7) show epoch time split
//! between sampling, feature fetching and propagation; the communication of
//! one pipeline stage can be hidden behind the computation of another, but
//! only if the collectives have an `MPI_Ialltoallv`-style handle API.  This
//! module provides that API on either transport for the one collective the
//! pipeline overlaps, the feature fetch's all-to-allv: `post_*` sends the
//! outgoing messages immediately (sends never wait for the receiver) and
//! returns a [`PendingCollective`] handle; `wait` completes the receives and
//! returns the result.
//!
//! Each posted round reserves a fresh message tag, so in-flight rounds can
//! interleave arbitrarily with blocking traffic (and with each other): a
//! receive for one tag stashes messages of other tags instead of
//! mis-matching them — the simulator's equivalent of MPI tag matching.
//! Because every rank runs the same SPMD program, tag reservation happens in
//! lockstep and a round's tag agrees across the world.  Misuse (posting on
//! some ranks but not others) surfaces as
//! [`TypeMismatch`](crate::CommError::TypeMismatch) or a hang, exactly like
//! mismatched blocking collectives.
//!
//! Word counts, message counts and α–β modeled time of a posted collective
//! are **identical** to its blocking form — the same messages travel, only
//! the schedule differs.  What changes under overlap is how the modeled
//! communication time is *charged*: see
//! [`CostModel::overlapped_cost`](crate::CostModel::overlapped_cost) and the
//! overlapped-seconds counters on [`CommStats`](crate::CommStats) /
//! [`PhaseProfile`](crate::PhaseProfile).
//!
//! # Example
//!
//! ```
//! use dmbs_comm::Runtime;
//!
//! # fn main() -> Result<(), dmbs_comm::CommError> {
//! let rt = Runtime::new(3)?;
//! let outs = rt.run(|comm| -> Result<Vec<usize>, dmbs_comm::CommError> {
//!     let sends: Vec<usize> = (0..comm.size()).map(|d| comm.rank() * 10 + d).collect();
//!     let pending = comm.post_all_to_allv(sends)?;
//!     // ... compute overlaps the in-flight exchange here ...
//!     pending.wait(comm)
//! })?;
//! assert_eq!(outs[1].value.as_ref().unwrap(), &vec![1, 11, 21]);
//! # Ok(())
//! # }
//! ```

use crate::collectives::{Communicator, Group, Payload};
use crate::error::CommError;
use crate::Result;

/// An in-flight posted all-to-allv; call [`PendingCollective::wait`] to
/// complete it and obtain the result.
///
/// Because every round owns a fresh tag, a rank may wait its outstanding
/// handles in **any** order — receives for one tag stash other-tag messages
/// instead of consuming them (the software-pipelined trainer exploits this:
/// a prefetch posted before a group's training steps is waited after the
/// steps' blocking reduces).  What must agree is the *post* order across ranks: tags
/// are reserved in SPMD program order, so all ranks must post the same
/// rounds in the same sequence.  Dropping a handle without waiting leaves
/// its peers' messages stashed until the rank terminates — legal, but the
/// collective never completes on the other ranks, so treat handles as
/// must-use.
#[must_use = "a posted collective does nothing until waited"]
#[derive(Debug)]
pub struct PendingCollective<T> {
    group: Group,
    tag: u64,
    /// The caller's own contribution (never travels).
    own: Option<T>,
}

impl<T: Payload> PendingCollective<T> {
    /// Completes the all-to-allv: receives the peers' in-flight messages and
    /// returns one value per group member, in ascending rank order.
    ///
    /// # Errors
    ///
    /// Propagates point-to-point errors ([`CommError::Disconnected`],
    /// [`CommError::TypeMismatch`] on mismatched post/wait schedules).
    pub fn wait(self, comm: &mut Communicator) -> Result<Vec<T>> {
        let PendingCollective { group, tag, mut own } = self;
        let mut received = Vec::with_capacity(group.len());
        for &peer in group.ranks() {
            if peer == comm.rank() {
                received.push(own.take().expect("the poster keeps its own value"));
            } else {
                received.push(comm.recv_tagged(peer, tag)?);
            }
        }
        Ok(received)
    }
}

impl Communicator {
    /// Posts an all-to-allv over the whole world: `sends[j]` goes out to
    /// rank `j` immediately; receive with [`PendingCollective::wait`].
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] if `sends.len() != size`, plus
    /// any point-to-point send error.
    pub fn post_all_to_allv<T: Payload>(&mut self, sends: Vec<T>) -> Result<PendingCollective<T>> {
        let world = self.world();
        self.post_group_all_to_allv(&world, sends)
    }

    /// Posts an all-to-allv within `group` (`sends[i]` to the `i`-th member
    /// in ascending rank order).  The outgoing messages — identical in count,
    /// words and modeled time to [`Communicator::group_all_to_allv`] — leave
    /// at post time; [`PendingCollective::wait`] completes the receives.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::NotInGroup`] if the caller is not a member,
    /// [`CommError::InvalidConfig`] on a send-count mismatch, plus any
    /// point-to-point send error.
    pub fn post_group_all_to_allv<T: Payload>(
        &mut self,
        group: &Group,
        sends: Vec<T>,
    ) -> Result<PendingCollective<T>> {
        if !group.contains(self.rank()) {
            return Err(CommError::NotInGroup { rank: self.rank() });
        }
        if sends.len() != group.len() {
            return Err(CommError::InvalidConfig(format!(
                "all_to_allv requires one send per group member ({} != {})",
                sends.len(),
                group.len()
            )));
        }
        let tag = self.fresh_round_tag();
        let mut own = None;
        for (pos, value) in sends.into_iter().enumerate() {
            let peer = group.ranks()[pos];
            if peer == self.rank() {
                own = Some(value);
            } else {
                self.send_tagged(peer, tag, value)?;
            }
        }
        Ok(PendingCollective { group: group.clone(), tag, own })
    }
}

#[cfg(test)]
mod tests {
    use crate::{CostModel, Runtime};

    #[test]
    fn posted_all_to_allv_matches_blocking() {
        let rt = Runtime::new(4).unwrap();
        let outs = rt
            .run(|comm| {
                let sends: Vec<usize> = (0..comm.size()).map(|d| comm.rank() * 10 + d).collect();
                let blocking = comm.all_to_allv(sends.clone()).unwrap();
                let words_blocking = comm.stats().words_sent;
                let pending = comm.post_all_to_allv(sends).unwrap();
                let posted = pending.wait(comm).unwrap();
                let words_posted = comm.stats().words_sent - words_blocking;
                (blocking == posted, words_blocking == words_posted)
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value.0), "posted result diverged from blocking");
        assert!(outs.iter().all(|o| o.value.1), "posted traffic diverged from blocking");
    }

    #[test]
    fn posted_collective_survives_interleaved_blocking_traffic() {
        // The regression the tag lanes exist for: blocking collectives run
        // while an all-to-allv is in flight, and FIFO channels must not
        // mis-match the two streams.
        let rt = Runtime::new(3).unwrap();
        let outs = rt
            .run(|comm| {
                let sends: Vec<usize> = (0..comm.size()).map(|d| comm.rank() * 100 + d).collect();
                let pending = comm.post_all_to_allv(sends).unwrap();
                // Blocking traffic while the round is in flight.
                let sum = comm.allreduce(comm.rank(), |a, b| a + b).unwrap();
                let all = comm.allgather(comm.rank() * 2).unwrap();
                comm.barrier().unwrap();
                let exchanged = pending.wait(comm).unwrap();
                (sum, all, exchanged)
            })
            .unwrap();
        for (r, o) in outs.iter().enumerate() {
            assert_eq!(o.value.0, 3);
            assert_eq!(o.value.1, vec![0, 2, 4]);
            assert_eq!(o.value.2, vec![r, 100 + r, 200 + r]);
        }
    }

    #[test]
    fn two_rounds_in_flight_complete_in_post_order() {
        let rt = Runtime::new(2).unwrap();
        let outs = rt
            .run(|comm| {
                let a = comm.post_all_to_allv(vec![comm.rank(), comm.rank()]).unwrap();
                let b = comm.post_all_to_allv(vec![10 + comm.rank(), 10 + comm.rank()]).unwrap();
                let first = a.wait(comm).unwrap();
                let second = b.wait(comm).unwrap();
                (first, second)
            })
            .unwrap();
        assert_eq!(outs[0].value.0, vec![0, 1]);
        assert_eq!(outs[0].value.1, vec![10, 11]);
    }

    #[test]
    fn posted_traffic_costs_the_same_as_blocking() {
        // Same messages, same words, same α–β time — only the schedule moves.
        let model = CostModel::new(1.0, 0.5);
        let rt = Runtime::with_cost_model(3, model).unwrap();
        let blocking = rt
            .run(|comm| {
                let sends: Vec<Vec<f64>> =
                    (0..comm.size()).map(|d| vec![d as f64; comm.rank() + 1]).collect();
                comm.all_to_allv(sends).unwrap();
                comm.stats()
            })
            .unwrap();
        let posted = rt
            .run(|comm| {
                let sends: Vec<Vec<f64>> =
                    (0..comm.size()).map(|d| vec![d as f64; comm.rank() + 1]).collect();
                let pending = comm.post_all_to_allv(sends).unwrap();
                pending.wait(comm).unwrap();
                comm.stats()
            })
            .unwrap();
        for (b, p) in blocking.iter().zip(&posted) {
            assert_eq!(b.stats.messages, p.stats.messages);
            assert_eq!(b.stats.words_sent, p.stats.words_sent);
            assert!((b.stats.modeled_time - p.stats.modeled_time).abs() < 1e-12);
        }
    }

    #[test]
    fn post_validates_group_and_send_count() {
        let rt = Runtime::new(2).unwrap();
        let outs = rt
            .run(|comm| {
                let wrong_len = comm.post_all_to_allv(vec![1usize]).is_err();
                let other = crate::Group::new(&[(comm.rank() + 1) % comm.size()]).unwrap();
                let not_member = comm.post_group_all_to_allv(&other, vec![1usize]).is_err();
                wrong_len && not_member
            })
            .unwrap();
        assert!(outs.iter().all(|o| o.value));
    }
}
