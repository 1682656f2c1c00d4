//! The paper's evaluation and the extensions' contracts as claims:
//! evaluates every claim of `dmbs_bench::repro`, prints the rows and writes
//! `REPRO.json`.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --bin repro -- [--check <baseline-dir>] [output_dir]
//! ```
//!
//! `output_dir` defaults to the current directory.  An extension's row that
//! does not hold fails the run whatever the baseline says.  `--check <dir>`
//! gates the fresh file against the committed `<dir>/REPRO.json`
//! (`ci/baseline/` in CI): each row's `lhs`, `rhs` and `holds` must equal
//! the baseline's, so a claim that flips fails until it is re-pinned, and a
//! row or field the baseline lacks fails until the baseline is re-pinned.

use dmbs_bench::record::{self, Workload};
use dmbs_bench::{check, repro};
use std::path::PathBuf;

const USAGE: &str = "usage: repro [--check <baseline-dir>] [output_dir]";

fn main() {
    // The transport claims re-execute this binary as their socket rank
    // processes and ping-pong probe: a rank process runs its job and exits
    // here, before any argument parsing.
    dmbs_comm::run_if_worker(&dmbs_bench::transport::registry());
    let mut check_dir: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => match args.next() {
                Some(dir) => check_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--check needs a baseline directory; {USAGE}");
                    std::process::exit(2);
                }
            },
            flag if flag.starts_with("--") => {
                eprintln!("unknown flag {flag:?}; {USAGE}");
                std::process::exit(2);
            }
            _ => out_dir = PathBuf::from(arg),
        }
    }
    if check_dir.as_deref().is_some_and(|dir| check::same_dir(dir, &out_dir)) {
        eprintln!("the output directory is the --check baseline directory; pass another one");
        std::process::exit(2);
    }
    let claims = repro::all();
    let records: Vec<_> = claims.iter().map(repro::Claim::record).collect();
    let workload = Workload {
        name: "repro",
        detail: "the paper's claims and the extensions' contracts on the stand-in datasets".into(),
        items: records.len(),
        throughput_unit: "claims",
    };
    record::print("REPRO.json: one row per claim and point", &records);
    let path = out_dir.join("REPRO.json");
    record::write(&path, &workload, &records).unwrap_or_else(|e| panic!("{e}"));
    let held = claims.iter().filter(|c| c.holds()).count();
    println!("wrote {}: {held} of {} rows hold", path.display(), claims.len());
    let broken = repro::broken_contracts(&claims);
    for line in &broken {
        eprintln!("FAIL {line}: an extension's contract is broken");
    }
    let checked = check_dir.is_none_or(|dir| check::run(&dir, "REPRO.json", &records));
    if !broken.is_empty() || !checked {
        std::process::exit(1);
    }
}
