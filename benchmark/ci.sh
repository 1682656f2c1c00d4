#!/usr/bin/env bash
# Build the benchmark package and run its smoke mode: every workload, traced
# and untraced, at scale 9 — all correctness checks, the trace writer and the
# result-line schema — in well under a minute.  Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke
