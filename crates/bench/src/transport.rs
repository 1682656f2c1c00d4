//! Transport calibration: the α–β probe behind `repro`'s transport claims.
//!
//! The simulator charges communication through a *configured*
//! [`CostModel`](dmbs_comm::CostModel); the Unix-socket transport pays real
//! wall-clock time.  This module measures what the real transport's α and β
//! actually are, so they can be set on a real interconnect:
//!
//! 1. [`PING_WORKER`] is a 2-rank ping-pong worker: rank 0 sends a `words`-
//!    long `Vec<f64>` to rank 1, rank 1 echoes it back, `rounds` times.
//!    Rank 0 times the whole loop; both ranks report their own
//!    [`CommStats`](dmbs_comm::CommStats) bill (messages and words, counted
//!    by the same accounting the cost model charges).
//! 2. The harness runs the probe at several message sizes and hands the
//!    `(messages, words, seconds)` triples to [`fit_alpha_beta`], a
//!    two-parameter least-squares fit of `seconds ≈ α·messages + β·words` —
//!    the α–β model in its own units, no unit conversion step.
//!
//! [`registry`] bundles the probe with the training worker from
//! [`dmbs_gnn::worker`] so one `run_if_worker` call at the top of `repro`'s
//! `main` serves both the probe and the socket training runs.

use dmbs_comm::{wire, Communicator, WorkerRegistry};

/// Registry name of the ping-pong probe worker.
pub const PING_WORKER: &str = "dmbs.bench.pingpong";

/// Every worker the `repro` binary can be re-executed as: the GNN
/// training worker plus the ping-pong probe.  Pass this to
/// [`dmbs_comm::run_if_worker`] first thing in `main`.
pub fn registry() -> WorkerRegistry {
    dmbs_gnn::worker::registry().with(PING_WORKER, ping_worker)
}

/// One probe measurement: the α–β bill both ranks paid and the wall-clock
/// seconds rank 0's loop took to pay it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// Point-to-point messages sent, summed over both ranks.
    pub messages: f64,
    /// Words sent, summed over both ranks.
    pub words: f64,
    /// Measured wall seconds of rank 0's ping-pong loop.
    pub seconds: f64,
}

/// Encodes a ping-pong job: payload length in `f64` words, and the number
/// of round trips.
pub fn encode_ping_job(words: usize, rounds: usize) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_usize(&mut out, words);
    wire::put_usize(&mut out, rounds);
    out
}

/// Decodes one rank's probe result: `(seconds, words_sent, messages)`.
/// Returns `None` on a truncated or trailing-garbage payload.
pub fn decode_ping_result(bytes: &[u8]) -> Option<(f64, usize, usize)> {
    let mut input = bytes;
    let seconds = wire::get_f64(&mut input)?;
    let words = wire::get_usize(&mut input)?;
    let messages = wire::get_usize(&mut input)?;
    if input.is_empty() {
        Some((seconds, words, messages))
    } else {
        None
    }
}

/// The ping-pong probe body (see the module doc).  Fails with a typed
/// message on a malformed job or a grid that is not exactly 2 ranks.
fn ping_worker(comm: &mut Communicator, job: &[u8]) -> Result<Vec<u8>, String> {
    let mut input = job;
    let (Some(words), Some(rounds)) = (wire::get_usize(&mut input), wire::get_usize(&mut input))
    else {
        return Err("truncated ping-pong job".to_string());
    };
    if !input.is_empty() {
        return Err(format!("{} trailing bytes after ping-pong job", input.len()));
    }
    if comm.size() != 2 {
        return Err(format!("ping-pong probe needs exactly 2 ranks, got {}", comm.size()));
    }
    let me = comm.rank();
    let peer = 1 - me;
    let payload: Vec<f64> = (0..words).map(|i| i as f64).collect();
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        if me == 0 {
            comm.send(peer, payload.clone()).map_err(|e| e.to_string())?;
            let _echo: Vec<f64> = comm.recv(peer).map_err(|e| e.to_string())?;
        } else {
            let echo: Vec<f64> = comm.recv(peer).map_err(|e| e.to_string())?;
            comm.send(peer, echo).map_err(|e| e.to_string())?;
        }
    }
    let seconds = start.elapsed().as_secs_f64();
    let stats = comm.stats();
    let mut out = Vec::new();
    wire::put_f64(&mut out, seconds);
    wire::put_usize(&mut out, stats.words_sent);
    wire::put_usize(&mut out, stats.messages);
    Ok(out)
}

/// Least-squares fit of `seconds ≈ α·messages + β·words` over the probe
/// samples (normal equations of the two-column design matrix).  Samples are
/// weighted by `1 / seconds²` — relative rather than absolute error — so the
/// small-message samples that pin α are not drowned out by the
/// bandwidth-bound large ones (unweighted, the largest size dominates and
/// the tiny absolute residuals at small sizes routinely drive α negative).
/// Negative solutions are still clamped to zero — a measured latency cannot
/// charge a negative per-word cost.  Returns `None` when the system is
/// degenerate: fewer than two samples, or all samples proportional (a
/// single message size cannot separate α from β).
pub fn fit_alpha_beta(samples: &[ProbeSample]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let (mut mm, mut mw, mut ww, mut my, mut wy) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for s in samples {
        let weight = if s.seconds > 0.0 { 1.0 / (s.seconds * s.seconds) } else { 1.0 };
        mm += weight * s.messages * s.messages;
        mw += weight * s.messages * s.words;
        ww += weight * s.words * s.words;
        my += weight * s.messages * s.seconds;
        wy += weight * s.words * s.seconds;
    }
    let det = mm * ww - mw * mw;
    // Relative threshold: the determinant scales with mm·ww, so compare
    // against that product rather than an absolute epsilon.
    if !det.is_finite() || det.abs() <= 1e-12 * mm * ww {
        return None;
    }
    let alpha = (my * ww - wy * mw) / det;
    let beta = (wy * mm - my * mw) / det;
    Some((alpha.max(0.0), beta.max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmbs_comm::Runtime;

    #[test]
    fn registry_bundles_training_and_probe_workers() {
        let reg = registry();
        assert!(reg.find(PING_WORKER).is_some());
        assert!(reg.find(dmbs_gnn::worker::TRAIN_WORKER).is_some());
    }

    #[test]
    fn ping_job_round_trips_and_rejects_garbage() {
        let job = encode_ping_job(128, 5);
        let mut input = job.as_slice();
        assert_eq!(wire::get_usize(&mut input), Some(128));
        assert_eq!(wire::get_usize(&mut input), Some(5));
        assert!(decode_ping_result(&job[..4]).is_none());
        let mut result = Vec::new();
        wire::put_f64(&mut result, 0.25);
        wire::put_usize(&mut result, 10);
        wire::put_usize(&mut result, 2);
        assert_eq!(decode_ping_result(&result), Some((0.25, 10, 2)));
        result.push(0);
        assert_eq!(decode_ping_result(&result), None, "trailing bytes must be rejected");
    }

    #[test]
    fn fit_recovers_a_known_alpha_beta_exactly() {
        let (alpha, beta) = (2.5e-4, 4.0e-8);
        let samples: Vec<ProbeSample> = [(10.0, 100.0), (10.0, 10_000.0), (10.0, 1_000_000.0)]
            .iter()
            .map(|&(m, w)| ProbeSample { messages: m, words: w, seconds: alpha * m + beta * w })
            .collect();
        let (a, b) = fit_alpha_beta(&samples).unwrap();
        assert!((a - alpha).abs() < 1e-12, "alpha {a} != {alpha}");
        assert!((b - beta).abs() < 1e-18, "beta {b} != {beta}");
    }

    #[test]
    fn fit_rejects_degenerate_systems_and_clamps_negatives() {
        assert_eq!(fit_alpha_beta(&[]), None);
        let one = ProbeSample { messages: 4.0, words: 100.0, seconds: 1.0 };
        assert_eq!(fit_alpha_beta(&[one]), None);
        // Proportional samples: words/messages constant, α and β inseparable.
        let two = ProbeSample { messages: 8.0, words: 200.0, seconds: 2.0 };
        assert_eq!(fit_alpha_beta(&[one, two]), None);
        // A decreasing time-vs-size series drives β negative; it must clamp.
        let falling = [
            ProbeSample { messages: 2.0, words: 10.0, seconds: 1.0 },
            ProbeSample { messages: 2.0, words: 1_000.0, seconds: 0.5 },
        ];
        let (_, b) = fit_alpha_beta(&falling).unwrap();
        assert_eq!(b, 0.0);
    }

    #[test]
    fn probe_worker_runs_on_the_simulator_and_counts_both_ranks() {
        let runtime = Runtime::new(2).unwrap();
        let rounds = 3;
        let outs =
            runtime.run_worker(&registry(), PING_WORKER, &encode_ping_job(64, rounds)).unwrap();
        assert_eq!(outs.len(), 2);
        for o in &outs {
            let (seconds, words, messages) = decode_ping_result(&o.value).expect("probe result");
            assert!(seconds >= 0.0);
            assert_eq!(messages, rounds, "each rank sends one message per round");
            assert!(words >= 64 * rounds, "payload words must be billed");
        }
    }

    #[test]
    fn probe_worker_rejects_bad_grids_and_bad_jobs() {
        let runtime = Runtime::new(3).unwrap();
        let err = runtime.run_worker(&registry(), PING_WORKER, &encode_ping_job(8, 1)).unwrap_err();
        assert!(err.to_string().contains("exactly 2 ranks"), "got: {err}");
        let runtime = Runtime::new(2).unwrap();
        let err = runtime.run_worker(&registry(), PING_WORKER, &[1, 2, 3]).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
    }
}
