//! # dmbs-comm
//!
//! The distributed runtime for the `dmbs` reproduction of *Distributed
//! Matrix-Based Sampling for Graph Neural Network Training* (MLSys 2024).
//!
//! The paper runs on 4–128 GPUs with NCCL collectives.  This crate provides
//! the same collective surface (broadcast, gather, all-gather, all-reduce,
//! all-to-allv, barrier, plus a posted all-to-allv — over the full world and
//! over arbitrary sub-groups such as process rows / columns of the 1.5D
//! grid) on top of a pluggable [`Transport`]:
//!
//! * the default **in-process rank simulator** — [`Runtime::run`] spawns one
//!   OS thread per rank, each executing the same closure over a
//!   [`Communicator`]; frames cross over in-process channels;
//! * the **Unix-socket multi-process backend** — one OS process per rank
//!   ([`UnixSocketTransport`]), rendezvous via
//!   `DMBS_RANK`/`DMBS_SIZE`/`DMBS_SOCKET_DIR`, length-prefixed framed
//!   messages, dispatched through [`Runtime::run_worker`] with named
//!   [`WorkerRegistry`] workers because closures cannot cross process
//!   boundaries.
//!
//! Correctness of the distributed algorithms is independent of the
//! interconnect, so both transports exercise exactly the same collective
//! code paths and the same [`Payload`] wire codec: every message is encoded
//! to bytes and decoded on receive, whichever transport carries it.  The
//! deterministic counters agree by construction, because every message
//! records its word count and α–β modeled cost ([`CostModel`], per-rank
//! [`CommStats`]) *before* the frame reaches any transport.  The benchmark
//! harnesses use those books to reproduce the paper's
//! communication/computation breakdowns (Figure 7) and its analytical cost
//! model (§5.2.1), and `perf_baseline --calibrate` closes the loop by fitting
//! α/β from measured socket-transport probes.
//!
//! # Example
//!
//! ```
//! use dmbs_comm::{Runtime, Payload};
//!
//! # fn main() -> Result<(), dmbs_comm::CommError> {
//! let runtime = Runtime::new(4)?;
//! let outputs = runtime.run(|comm| {
//!     // Every rank contributes its rank id; the all-reduce sums them.
//!     let local = vec![comm.rank() as f64];
//!     let total = comm.allreduce(local, |a, b| {
//!         a.iter().zip(b).map(|(x, y)| x + y).collect()
//!     })?;
//!     Ok::<f64, dmbs_comm::CommError>(total[0])
//! })?;
//! for out in &outputs {
//!     assert_eq!(out.value.as_ref().unwrap(), &6.0);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod codec;
pub mod collectives;
pub mod cost;
pub mod error;
pub mod grid;
pub mod nonblocking;
pub mod process;
pub mod profile;
pub mod runtime;
pub mod socket;
pub mod transport;
pub mod tune;
pub mod wire;

pub use codec::{Codec, WireRows};
pub use collectives::{Communicator, Group, Payload};
pub use cost::{CommStats, CostModel};
pub use error::CommError;
pub use grid::ProcessGrid;
pub use nonblocking::PendingCollective;
pub use process::{run_if_worker, SocketLaunch, WorkerFn, WorkerRegistry};
pub use profile::{Phase, PhaseProfile};
pub use runtime::{RankOutput, Runtime, TransportSelect};
pub use socket::{SocketConfig, UnixSocketTransport};
pub use transport::{Frame, SimTransport, Transport};
pub use tune::{
    CostBreakdown, FeatureCacheConfig, ProbeEpoch, ProbeSet, Schedule, ScoredChoice, TuningGrid,
    TuningModel, TuningOutcome,
};

/// Crate-wide result type.
pub type Result<T> = std::result::Result<T, CommError>;
