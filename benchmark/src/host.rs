//! The host descriptor stamped into every report, the process's peak RSS,
//! and the guard that refuses workloads the host cannot run in parallel.

use crate::json::{number, quote};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    pub memcpy_gib_s: f64,
    pub rustc: &'static str,
}

impl Host {
    pub fn measure() -> Host {
        let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu_model,
            memcpy_gib_s: memcpy_bandwidth(),
            rustc: env!("BENCH_RUSTC_VERSION"),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"memcpy_gib_s\": {}, \"rustc\": {}}}",
            self.nproc,
            quote(&self.cpu_model),
            number(self.memcpy_gib_s),
            quote(self.rustc)
        )
    }

    pub fn describe(&self) -> String {
        format!(
            "host: nproc={} cpu=\"{}\" memcpy={:.2} GiB/s {}",
            self.nproc, self.cpu_model, self.memcpy_gib_s, self.rustc
        )
    }
}

/// Best of five 32 MiB copies (larger than any cache here), in GiB/s.  The
/// buffers are freed before any workload allocates, and every workload's
/// own peak is above their 64 MiB, so `peak_rss_mb` does not see them.
fn memcpy_bandwidth() -> f64 {
    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let start = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / (1u64 << 30) as f64
}

/// `VmHWM` of this process in MiB.  Rank processes of `dist_train` are not
/// included: their memory is out of reach from outside.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Refuses a workload whose threads + processes exceed the host's cores: the
/// numbers would measure the scheduler, not the program.
pub fn require_units(workload: &str, needed: usize) -> Result<(), String> {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    if needed > nproc {
        return Err(format!(
            "workload {workload} keeps {needed} threads/processes runnable but this host has \
             nproc = {nproc}; refusing to publish scheduler noise"
        ));
    }
    Ok(())
}
