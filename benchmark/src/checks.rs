//! Correctness checks on sampled minibatches, run outside every timed region.

use crate::spec::{SamplerKind, Sizes};
use dmbs::matrix::CsrMatrix;
use dmbs::sampling::MinibatchSample;

/// Collects failed checks; a run is `correct` when none failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what());
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn report(&self) {
        println!("checks: {} passed, {} failed", self.passed, self.failures.len());
        for failure in &self.failures {
            println!("  FAILED: {failure}");
        }
    }
}

/// Every invariant a sampled minibatch must satisfy: chained frontiers, the
/// batch as the outermost rows, fan-out bounds, and sampled edges ⊂ edges of
/// `A` (self-loops, which both workload samplers add on purpose, excepted).
pub fn check_minibatch(
    adjacency: &CsrMatrix,
    sample: &MinibatchSample,
    sizes: &Sizes,
) -> Result<(), String> {
    if sample.batch.is_empty() || sample.batch.len() > sizes.batch {
        return Err(format!("batch of {} rows, expected 1..={}", sample.batch.len(), sizes.batch));
    }
    if sample.num_layers() != sizes.fanouts.len() {
        return Err(format!("{} layers, expected {}", sample.num_layers(), sizes.fanouts.len()));
    }
    if !sample.frontiers_are_chained() {
        return Err("frontiers are not chained".into());
    }
    for (depth, layer) in sample.layers.iter().rev().enumerate() {
        let fanout = sizes.fanouts[depth];
        match sizes.kind {
            // Each row keeps at most `fanout` neighbours plus its self-loop.
            SamplerKind::Sage => {
                for r in 0..layer.adjacency.rows() {
                    if layer.adjacency.row_nnz(r) > fanout + 1 {
                        return Err(format!(
                            "step {depth} row {r} has {} entries, fan-out is {fanout}",
                            layer.adjacency.row_nnz(r)
                        ));
                    }
                }
            }
            // The layer keeps at most `s` sampled vertices plus the previous
            // frontier.
            SamplerKind::Ladies => {
                if layer.cols.len() > fanout + layer.rows.len() {
                    return Err(format!(
                        "step {depth} has {} columns, s = {fanout} and {} rows",
                        layer.cols.len(),
                        layer.rows.len()
                    ));
                }
            }
        }
        for (r, c, _) in layer.adjacency.iter() {
            let (u, v) = (layer.rows[r], layer.cols[c]);
            if u != v && adjacency.get(u, v) == 0.0 {
                return Err(format!("step {depth} sampled edge ({u}, {v}) is not in A"));
            }
        }
    }
    Ok(())
}

/// [`check_minibatch`] over an epoch, plus: all batches but the last are
/// full-size.
pub fn check_epoch(
    checks: &mut Checks,
    adjacency: &CsrMatrix,
    samples: &[MinibatchSample],
    sizes: &Sizes,
) {
    for (i, sample) in samples.iter().enumerate() {
        let result = check_minibatch(adjacency, sample, sizes);
        checks.require(result.is_ok(), || format!("minibatch {i}: {}", result.unwrap_err()));
    }
    let full = samples.iter().rev().skip(1).all(|s| s.batch.len() == sizes.batch);
    checks.require(full, || "a minibatch before the last is not batch-size rows".into());
}
