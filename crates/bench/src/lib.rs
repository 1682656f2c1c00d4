//! The harness library: the paper's evaluation as claims, and the record
//! schema, writer and `--check` gate of every committed bench file.
//!
//! Two binaries sit on it.  `repro` evaluates the claims of [`repro`] (one
//! function per figure or table of the paper's evaluation) and writes
//! `REPRO.json`; `perf_baseline` runs the kernel and pipeline sweeps and
//! writes the `BENCH_*.json` files.  Both write through [`record`] and gate
//! against `ci/baseline/` through [`check`].  The full-paper sizes (128
//! GPUs, 111M-vertex graphs) do not fit a CPU-only reproduction, so the
//! stand-in datasets and rank counts are scaled down, to one size.

#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

use dmbs_gnn::{EpochStats, SessionBuilder, TrainingReport, TrainingSession};
use dmbs_graph::datasets::{build_dataset, Dataset, DatasetConfig, DatasetKind};
use dmbs_sampling::baseline::PerVertexSageSampler;
use dmbs_sampling::{
    BulkSamplerConfig, DistConfig, GraphSageSampler, LocalBackend, ReplicatedBackend, Sampler,
    SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Builds the scaled-down stand-in for one of the paper's datasets
/// (Table 3) with a deterministic seed: 2048 vertices (Protein, the densest,
/// 1024).
pub fn dataset(kind: DatasetKind) -> Dataset {
    let (config, seed) = match kind {
        DatasetKind::Products => (DatasetConfig::products_like(11), 101),
        DatasetKind::Protein => (DatasetConfig::protein_like(10), 202),
        DatasetKind::Papers => (DatasetConfig::papers_like(11), 303),
    };
    build_dataset(&config, &mut StdRng::seed_from_u64(seed)).expect("valid preset")
}

/// Which sampler a harness training run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplerChoice {
    /// The paper's matrix-based bulk GraphSAGE sampler.
    MatrixSage,
    /// The Quiver-style per-vertex baseline.
    PerVertexSage,
}

/// Hyper-parameters of a harness training run (Table 4 of the paper: 3-layer
/// SAGE, fanout (15, 10, 5), hidden dimension 256, batch size 1024 — see
/// [`sage_training_config`] for the scaled-down values the harnesses use).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// Per-layer fanouts of the GraphSAGE sampler (outermost first).
    pub fanouts: Vec<usize>,
    /// Hidden dimension of every SAGE layer.
    pub hidden_dim: usize,
    /// Minibatch size `b`.
    pub batch_size: usize,
    /// Number of minibatches `k` sampled per bulk sampling call.
    pub bulk_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Number of training epochs.
    pub epochs: usize,
    /// Base RNG seed (model init, shuffling, sampling).
    pub seed: u64,
}

/// Scaled-down training hyper-parameters derived from Table 4: the fanout
/// structure and layer count are the paper's, the batch size is shrunk with
/// the graphs.
pub fn sage_training_config(dataset: &Dataset) -> TrainingConfig {
    let batch_size = (dataset.train_set.len() / 8).clamp(8, 256);
    TrainingConfig {
        fanouts: vec![15, 10, 5],
        hidden_dim: 64,
        batch_size,
        bulk_size: 8,
        learning_rate: 0.02,
        epochs: 2,
        seed: 7,
    }
}

/// The session both harness entry points train: `config`'s hyper-parameters
/// over the given sampler and backend.
fn session_builder<S: Sampler, B: SamplingBackend>(
    dataset: &Arc<Dataset>,
    config: &TrainingConfig,
    sampler: S,
    backend: B,
) -> SessionBuilder<S, B> {
    TrainingSession::builder()
        .dataset(Arc::clone(dataset))
        .sampler(sampler)
        .backend(backend)
        .hidden_dim(config.hidden_dim)
        .learning_rate(config.learning_rate)
        .epochs(config.epochs)
        .seed(config.seed)
}

/// Trains on a single device through a [`TrainingSession`] with a
/// [`LocalBackend`] (streaming bulk prefetch).
///
/// # Panics
///
/// Panics when the session cannot be built or training fails — harnesses
/// treat that as a fatal setup error.
pub fn train_local(
    dataset: &Arc<Dataset>,
    config: &TrainingConfig,
    choice: SamplerChoice,
) -> TrainingReport {
    fn run<S: Sampler + Send + Sync + 'static>(
        builder: SessionBuilder<S, LocalBackend>,
    ) -> TrainingReport {
        builder.build().and_then(|s| s.train()).expect("single-device training failed")
    }
    let backend = LocalBackend::new(BulkSamplerConfig::new(config.batch_size, config.bulk_size))
        .expect("valid bulk configuration");
    let fanouts = config.fanouts.clone();
    match choice {
        SamplerChoice::MatrixSage => {
            let sampler = GraphSageSampler::new(fanouts).with_self_loops();
            run(session_builder(dataset, config, sampler, backend))
        }
        SamplerChoice::PerVertexSage => {
            let sampler = PerVertexSageSampler::new(fanouts).with_self_loops();
            run(session_builder(dataset, config, sampler, backend))
        }
    }
}

/// Trains data-parallel over `p` simulated ranks through a
/// [`TrainingSession`] with a [`ReplicatedBackend`] on the `p/c × c` grid.
/// Features are split into the grid's `p/c` block rows and fetched within a
/// process column, so `c = 1` is the "NoRep" configuration of Figure 6.
///
/// # Panics
///
/// Panics when the session cannot be built or training fails.
pub fn train_replicated(
    dataset: &Arc<Dataset>,
    config: &TrainingConfig,
    p: usize,
    c: usize,
    choice: SamplerChoice,
) -> Vec<EpochStats> {
    fn run<S: Sampler + Send + Sync + 'static>(
        builder: SessionBuilder<S, ReplicatedBackend>,
    ) -> Vec<EpochStats> {
        let report = builder.without_evaluation().build().and_then(|s| s.train());
        report.expect("distributed training failed").epochs
    }
    let dist = DistConfig::new(p, c, BulkSamplerConfig::new(config.batch_size, config.bulk_size));
    let backend = ReplicatedBackend::new(dist).expect("valid distribution configuration");
    let fanouts = config.fanouts.clone();
    match choice {
        SamplerChoice::MatrixSage => {
            let sampler = GraphSageSampler::new(fanouts).with_self_loops();
            run(session_builder(dataset, config, sampler, backend))
        }
        SamplerChoice::PerVertexSage => {
            let sampler = PerVertexSageSampler::new(fanouts).with_self_loops();
            run(session_builder(dataset, config, sampler, backend))
        }
    }
}

pub mod json {
    //! A minimal JSON reader for the committed `BENCH_*.json` baselines.
    //!
    //! The workspace vendors only a marker-trait `serde` stand-in (no
    //! `serde_json`), and the CI perf-regression gate needs to *read back*
    //! the benchmark records it wrote; this module is the small
    //! recursive-descent parser that closes the loop.  It supports the full
    //! JSON grammar the harness emits (objects, arrays, strings with basic
    //! escapes, numbers incl. scientific notation, booleans, null).

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// Any JSON number (parsed as `f64`, which is lossless for the
        /// integer counters the benches emit — they stay far below 2^53).
        Num(f64),
        /// A string.
        Str(String),
        /// An array.
        Array(Vec<Value>),
        /// An object, in source order (duplicate keys keep the last).
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Parses a JSON document.
        ///
        /// # Errors
        ///
        /// Returns a human-readable message (with byte offset) on malformed
        /// input or trailing garbage.
        pub fn parse(text: &str) -> Result<Value, String> {
            let bytes = text.as_bytes();
            let mut pos = 0;
            let value = parse_value(bytes, &mut pos)?;
            skip_ws(bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing garbage at byte {pos}"));
            }
            Ok(value)
        }

        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(fields) => {
                    fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
                }
                _ => None,
            }
        }

        /// The value as a number, if it is one.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(x) => Some(*x),
                _ => None,
            }
        }

        /// The value as a bool, if it is one.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }

        /// The value as a string slice, if it is one.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The value as an array slice, if it is one.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), String> {
        if *pos < bytes.len() && bytes[*pos] == byte {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", byte as char, *pos))
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => parse_object(bytes, pos),
            Some(b'[') => parse_array(bytes, pos),
            Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
            Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
            Some(_) => parse_number(bytes, pos),
            None => Err("unexpected end of input".into()),
        }
    }

    fn parse_keyword(
        bytes: &[u8],
        pos: &mut usize,
        word: &str,
        value: Value,
    ) -> Result<Value, String> {
        if bytes[*pos..].starts_with(word.as_bytes()) {
            *pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        {
            *pos += 1;
        }
        std::str::from_utf8(&bytes[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    let escape = bytes.get(*pos).ok_or("unterminated escape")?;
                    out.push(match escape {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b't' => '\t',
                        b'r' => '\r',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("invalid \\u escape at byte {}", *pos))?;
                            *pos += 4;
                            char::from_u32(hex).unwrap_or('\u{fffd}')
                        }
                        other => return Err(format!("unknown escape \\{}", *other as char)),
                    });
                    *pos += 1;
                }
                Some(&byte) => {
                    // Plain UTF-8 passes through byte-wise; collect the full
                    // code point so multi-byte characters survive.
                    let ch_len = utf8_len(byte);
                    let chunk = bytes
                        .get(*pos..*pos + ch_len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| format!("invalid UTF-8 at byte {}", *pos))?;
                    out.push_str(chunk);
                    *pos += ch_len;
                }
            }
        }
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7F => 1,
            0xC0..=0xDF => 2,
            0xE0..=0xEF => 3,
            _ => 4,
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            skip_ws(bytes, pos);
            expect(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

pub mod transport;

pub mod record;

pub mod repro;

pub mod check {
    //! The CI regression gate: compare a freshly-run sweep against its
    //! committed `BENCH_*.json` or `REPRO.json` baseline.
    //!
    //! What happens to a field is its [`Class`] in the fresh [`Record`] — the
    //! schema is declared once, where the sweep measures: `identity` flags
    //! must hold, `exact` counters must equal the baseline, `soft` seconds
    //! only warn beyond the tolerance, `info` is never compared, and the
    //! `key` fields match a baseline record to its fresh one.  A baseline
    //! record, or a baseline field, that the fresh run no longer produces is
    //! a hard failure.

    use crate::json::Value;
    use crate::record::{join_key, Class, Datum, Record};

    /// How bad one comparison finding is.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Severity {
        /// Fails the gate (exit non-zero).
        Hard,
        /// Printed as a warning only.
        Soft,
    }

    /// One divergence between baseline and fresh run.
    #[derive(Debug, Clone)]
    pub struct Finding {
        /// Hard failures fail the build; soft ones warn.
        pub severity: Severity,
        /// Human-readable description naming the record and field.
        pub message: String,
    }

    impl Finding {
        fn hard(message: String) -> Self {
            Finding { severity: Severity::Hard, message }
        }
        fn soft(message: String) -> Self {
            Finding { severity: Severity::Soft, message }
        }
    }

    /// True when every finding is soft (the gate passes).
    pub fn passes(findings: &[Finding]) -> bool {
        findings.iter().all(|f| f.severity == Severity::Soft)
    }

    /// A baseline value as messages and keys show it.
    fn show(value: &Value) -> String {
        match value {
            Value::Str(s) => s.clone(),
            Value::Num(x) => format!("{x}"),
            Value::Bool(b) => b.to_string(),
            other => format!("{other:?}"),
        }
    }

    /// Compares one fresh sweep against the parsed baseline document.
    /// `label` names the file in messages; `wall_tolerance` is the allowed
    /// relative wall-clock regression (e.g. `0.5` = 50% slower) before a
    /// soft warning fires.
    pub fn compare_bench(
        label: &str,
        baseline: &Value,
        fresh: &[Record],
        wall_tolerance: f64,
    ) -> Vec<Finding> {
        let mut findings = Vec::new();
        let base_records = baseline.get("records").and_then(Value::as_array).unwrap_or(&[]);
        if base_records.is_empty() {
            findings.push(Finding::hard(format!("{label}: baseline has no records to compare")));
            return findings;
        }
        // Every record of a file carries the first record's schema
        // (`record::write` refuses anything else), so its key fields are the
        // file's.
        let key_names: Vec<&str> = fresh.first().map_or(Vec::new(), |r| {
            r.fields().iter().filter(|f| f.class == Class::Key).map(|f| &*f.name).collect()
        });
        for base in base_records {
            let key = join_key(
                key_names.iter().filter_map(|&name| base.get(name).map(|v| (name, show(v)))),
            );
            let Some(new) = fresh.iter().find(|r| r.key_string() == key) else {
                findings.push(Finding::hard(format!(
                    "{label} [{key}]: record missing from the fresh run"
                )));
                continue;
            };
            compare_record(label, &key, base, new, wall_tolerance, &mut findings);
        }
        // Identity flags of *new* fresh records are still binding even when
        // the baseline predates them.
        for new in fresh {
            for field in new.broken_identities() {
                findings.push(Finding::hard(format!(
                    "{label} [{}] {} is false — a kernel diverged from its reference formulation",
                    new.key_string(),
                    field.name
                )));
            }
        }
        findings
    }

    fn compare_record(
        label: &str,
        key: &str,
        base: &Value,
        new: &Record,
        wall_tolerance: f64,
        findings: &mut Vec<Finding>,
    ) {
        for field in new.fields() {
            let Some(want) = base.get(&field.name) else { continue };
            match (field.class, &field.value) {
                (Class::Exact, got) if !got.equals(want) => {
                    findings.push(Finding::hard(format!(
                        "{label} [{key}] {}: expected {}, measured {} — an exact field moved",
                        field.name,
                        show(want),
                        got.cell()
                    )));
                }
                (Class::Soft, Datum::Real(got)) => {
                    let want = want.as_f64().unwrap_or(0.0);
                    if want > 0.0 && *got > want * (1.0 + wall_tolerance) {
                        findings.push(Finding::soft(format!(
                            "{label} [{key}] {}: {got:.4}s vs baseline {want:.4}s \
                             (> {:.0}% slower; machine-dependent, not failing the gate)",
                            field.name,
                            wall_tolerance * 100.0
                        )));
                    }
                }
                _ => {}
            }
        }
        if let Value::Object(fields) = base {
            for (name, _) in fields {
                if new.get(name).is_none() {
                    findings.push(Finding::hard(format!(
                        "{label} [{key}] {name}: present in baseline, missing from the fresh run"
                    )));
                }
            }
        }
    }

    /// Compares the fresh records of `file` against the committed copy in
    /// `baseline_dir`; a missing or unparsable baseline is a hard finding
    /// (the gate must not silently pass when its reference disappears).
    pub fn compare_file(
        baseline_dir: &std::path::Path,
        file: &str,
        fresh: &[Record],
        wall_tolerance: f64,
    ) -> Vec<Finding> {
        let path = baseline_dir.join(file);
        let baseline = std::fs::read_to_string(&path)
            .map_err(|e| format!("{file}: cannot read baseline {}: {e}", path.display()))
            .and_then(|text| {
                Value::parse(&text).map_err(|e| format!("{file}: baseline is not valid JSON: {e}"))
            });
        match baseline {
            Ok(baseline) => compare_bench(file, &baseline, fresh, wall_tolerance),
            Err(message) => vec![Finding::hard(message)],
        }
    }

    /// Whether `baseline_dir` and `out_dir` name one directory: a run that
    /// wrote there would overwrite the baseline and then compare the files
    /// against themselves.
    pub fn same_dir(baseline_dir: &std::path::Path, out_dir: &std::path::Path) -> bool {
        match (baseline_dir.canonicalize(), out_dir.canonicalize()) {
            (Ok(a), Ok(b)) => a == b,
            _ => baseline_dir == out_dir,
        }
    }

    /// The `--check` gate of a harness binary: compares the records each
    /// produced file holds against its committed baseline and prints every
    /// finding.  Hard findings (identity or exact-field drift, a record or
    /// field the fresh run lost) fail it; wall-clock findings only warn.
    pub fn run(
        baseline_dir: &std::path::Path,
        produced: &[(&str, Vec<Record>)],
        wall_tolerance: f64,
    ) -> bool {
        println!(
            "\n== regression check vs {} (wall tolerance {:.0}%) ==",
            baseline_dir.display(),
            wall_tolerance * 100.0
        );
        let mut all = Vec::new();
        for (file, records) in produced {
            all.extend(compare_file(baseline_dir, file, records, wall_tolerance));
        }
        for finding in &all {
            match finding.severity {
                Severity::Hard => eprintln!("FAIL {}", finding.message),
                Severity::Soft => eprintln!("warn {}", finding.message),
            }
        }
        if passes(&all) {
            println!(
                "check passed: {} file(s), {} soft warning(s), no hard regressions",
                produced.len(),
                all.len()
            );
        } else {
            eprintln!("check FAILED: a committed contract regressed (see FAIL lines above)");
        }
        passes(&all)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn doc(words: u64, wall: f64, identical: bool) -> Value {
            Value::parse(&format!(
                r#"{{"bench": "fetch_epoch", "records": [
                    {{"p": 4, "c": 2, "mode": "pinned", "words_per_epoch": {words},
                      "messages": 96, "wall_s": {wall}, "cache_hit_rate": 0.5,
                      "identical_to_uncached": {identical}}}
                ]}}"#
            ))
            .unwrap()
        }

        fn fresh(words: u64, wall: f64, identical: bool) -> Vec<Record> {
            vec![Record::new()
                .key("p", 4usize)
                .key("c", 2usize)
                .key("mode", "pinned")
                .exact("words_per_epoch", words)
                .exact("messages", 96usize)
                .soft("wall_s", wall)
                .info("cache_hit_rate", 0.5)
                .identity("identical_to_uncached", identical)]
        }

        #[test]
        fn identical_runs_pass() {
            let findings = compare_bench(
                "BENCH_fetch.json",
                &doc(100, 0.5, true),
                &fresh(100, 0.5, true),
                0.5,
            );
            assert!(findings.is_empty(), "{findings:?}");
            assert!(passes(&findings));
        }

        #[test]
        fn injected_word_regression_hard_fails() {
            // The acceptance demonstration: a schedule regression (more words
            // on the wire than the committed baseline) fails the gate.
            let findings = compare_bench(
                "BENCH_fetch.json",
                &doc(100, 0.5, true),
                &fresh(140, 0.5, true),
                0.5,
            );
            assert!(!passes(&findings));
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Hard && f.message.contains("words_per_epoch")));
        }

        #[test]
        fn broken_kernel_identity_hard_fails() {
            let findings = compare_bench(
                "BENCH_fetch.json",
                &doc(100, 0.5, true),
                &fresh(100, 0.5, false),
                0.5,
            );
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Hard && f.message.contains("identical")));
        }

        #[test]
        fn wall_clock_regression_only_soft_warns() {
            let findings = compare_bench(
                "BENCH_fetch.json",
                &doc(100, 0.5, true),
                &fresh(100, 2.0, true),
                0.5,
            );
            assert_eq!(findings.len(), 1);
            assert_eq!(findings[0].severity, Severity::Soft);
            assert!(passes(&findings), "wall regressions must not fail the gate");
            // Within tolerance: silent.
            assert!(
                compare_bench("f", &doc(100, 0.5, true), &fresh(100, 0.7, true), 0.5).is_empty()
            );
        }

        #[test]
        fn serve_counter_drift_hard_fails_and_latency_soft_warns() {
            let serve_doc = Value::parse(
                r#"{"bench": "serve_openloop", "records": [
                    {"qps": 8000, "window_us": 1000, "requests_offered": 512,
                      "requests_served": 500, "batches": 156,
                      "coalescing_x1000": 3200, "hot_hits": 40,
                      "hot_misses": 460, "shed_admission": 12, "shed_timeout": 0,
                      "p99_s": 0.002, "identical_across_replays": true}
                ]}"#,
            )
            .unwrap();
            let serve_fresh = |coalescing: u64, p99: f64| {
                vec![Record::new()
                    .key("qps", 8000usize)
                    .key("window_us", 1000usize)
                    .exact("requests_offered", 512usize)
                    .exact("requests_served", 500usize)
                    .exact("batches", 156usize)
                    .exact("coalescing_x1000", coalescing)
                    .exact("hot_hits", 40usize)
                    .exact("hot_misses", 460usize)
                    .exact("shed_admission", 12usize)
                    .exact("shed_timeout", 0usize)
                    .soft("p99_s", p99)
                    .identity("identical_across_replays", true)]
            };
            // Queue-dynamics drift (coalescing factor moved): hard failure.
            let findings =
                compare_bench("BENCH_serve.json", &serve_doc, &serve_fresh(2100, 0.002), 0.5);
            assert!(!passes(&findings));
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Hard && f.message.contains("coalescing_x1000")));
            // Latency drift alone: soft warning, gate still passes.
            let findings =
                compare_bench("BENCH_serve.json", &serve_doc, &serve_fresh(3200, 0.009), 0.5);
            assert!(passes(&findings));
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Soft && f.message.contains("p99_s")));
        }

        #[test]
        fn byte_book_drift_hard_fails_and_codec_keys_records() {
            let compress_doc = Value::parse(
                r#"{"bench": "compress_fetch", "records": [
                    {"p": 4, "c": 2, "codec": "int8", "words_per_epoch": 4096,
                      "bytes_on_wire": 8552, "bytes_saved": 24216,
                      "bytes_reduction_x1000": 3831, "wall_s": 0.01,
                      "identical_to_exact_schedule": true}
                ]}"#,
            )
            .unwrap();
            let compress_fresh = |codec: &str, bytes: u64, saved: u64| {
                vec![Record::new()
                    .key("p", 4usize)
                    .key("c", 2usize)
                    .key("codec", codec)
                    .exact("words_per_epoch", 4096usize)
                    .exact("bytes_on_wire", bytes)
                    .exact("bytes_saved", saved)
                    .exact("bytes_reduction_x1000", 3831usize)
                    .soft("wall_s", 0.01)
                    .identity("identical_to_exact_schedule", true)]
            };
            // A moved byte book is a schedule regression: hard failure.
            let findings = compare_bench(
                "BENCH_compress.json",
                &compress_doc,
                &compress_fresh("int8", 9552, 23216),
                0.5,
            );
            assert!(!passes(&findings));
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Hard && f.message.contains("bytes_on_wire")));
            assert!(findings
                .iter()
                .any(|f| f.severity == Severity::Hard && f.message.contains("bytes_saved")));
            // A different codec is a different record, not a drifted one.
            let findings = compare_bench(
                "BENCH_compress.json",
                &compress_doc,
                &compress_fresh("fp16", 8552, 24216),
                0.5,
            );
            assert!(findings.iter().any(|f| f.message.contains("missing from the fresh run")));
        }

        #[test]
        fn missing_record_and_empty_baseline_hard_fail() {
            let empty = Value::parse(r#"{"records": []}"#).unwrap();
            let findings = compare_bench("f", &empty, &fresh(100, 0.5, true), 0.5);
            assert!(!passes(&findings));
            let other_key = Value::parse(
                r#"{"records": [{"p": 8, "c": 4, "mode": "pinned", "words_per_epoch": 1}]}"#,
            )
            .unwrap();
            let findings = compare_bench("f", &other_key, &fresh(100, 0.5, true), 0.5);
            assert!(findings.iter().any(|f| f.message.contains("missing from the fresh run")));
        }

        #[test]
        fn info_drift_is_silent_and_a_dropped_baseline_field_hard_fails() {
            let build = |with_messages: bool, hit_rate: f64| {
                let r = Record::new()
                    .key("p", 4usize)
                    .key("c", 2usize)
                    .key("mode", "pinned")
                    .exact("words_per_epoch", 100usize);
                let r = if with_messages { r.exact("messages", 96usize) } else { r };
                vec![r
                    .soft("wall_s", 0.5)
                    .info("cache_hit_rate", hit_rate)
                    .identity("identical_to_uncached", true)]
            };
            // `cache_hit_rate` is `info`: 0.5 in the baseline, 0.9 fresh.
            assert!(compare_bench("f", &doc(100, 0.5, true), &build(true, 0.9), 0.5).is_empty());
            // The fresh schema lost `messages`: the baseline's number is no
            // longer re-derived, whatever its class was.
            let findings = compare_bench("f", &doc(100, 0.5, true), &build(false, 0.5), 0.5);
            assert!(!passes(&findings));
            assert!(findings.iter().any(|f| f.message.contains("messages")
                && f.message.contains("missing from the fresh run")));
        }
    }
}

pub mod stats {
    //! Shared summary statistics for the benchmark binaries: best-of-reps
    //! timing, means, nearest-rank percentiles, and the latency summary the
    //! serving bench reports.  Hoisted here so `perf_baseline`'s kernel
    //! sweeps and the `--serve` open-loop generator agree on one definition
    //! instead of growing private copies.

    use std::time::Instant;

    /// Best-of-`reps` wall time of `f`, together with the last result (the
    /// sweeps are deterministic, so every rep returns the same value).
    pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
        let mut best = f64::INFINITY;
        let mut result = None;
        for _ in 0..reps {
            let start = Instant::now();
            let value = f();
            best = best.min(start.elapsed().as_secs_f64());
            result = Some(value);
        }
        (best, result.expect("reps >= 1"))
    }

    /// Arithmetic mean; `0.0` for an empty slice.
    pub fn mean(xs: &[f64]) -> f64 {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    }

    /// Nearest-rank percentile of **sorted** data: the smallest value with at
    /// least `q` of the mass at or below it (`q` in `[0, 1]`).  `q = 0` is
    /// the minimum, `q = 1` the maximum; `0.0` for an empty slice.
    pub fn percentile(sorted: &[f64], q: f64) -> f64 {
        if sorted.is_empty() {
            return 0.0;
        }
        debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input must be sorted");
        let rank = (q * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// The tail-latency digest of one serving run: count, mean, and the
    /// p50/p99/p999/max ladder, all in the same unit as the input samples.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct LatencySummary {
        /// Number of samples summarized.
        pub count: usize,
        /// Arithmetic mean.
        pub mean: f64,
        /// Median (nearest-rank).
        pub p50: f64,
        /// 99th percentile (nearest-rank).
        pub p99: f64,
        /// 99.9th percentile (nearest-rank).
        pub p999: f64,
        /// Worst sample.
        pub max: f64,
    }

    impl LatencySummary {
        /// Summarizes `samples` (any order); all-zero for an empty slice.
        pub fn from_samples(samples: &[f64]) -> Self {
            let mut sorted = samples.to_vec();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
            LatencySummary {
                count: sorted.len(),
                mean: mean(&sorted),
                p50: percentile(&sorted, 0.50),
                p99: percentile(&sorted, 0.99),
                p999: percentile(&sorted, 0.999),
                max: sorted.last().copied().unwrap_or(0.0),
            }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn time_best_returns_the_value_and_a_finite_wall() {
            let (wall, v) = time_best(3, || 41 + 1);
            assert_eq!(v, 42);
            assert!(wall.is_finite() && wall >= 0.0);
        }

        #[test]
        fn nearest_rank_percentiles_match_the_definition() {
            let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
            assert_eq!(percentile(&sorted, 0.0), 1.0);
            assert_eq!(percentile(&sorted, 0.50), 50.0);
            assert_eq!(percentile(&sorted, 0.99), 99.0);
            assert_eq!(percentile(&sorted, 0.999), 100.0);
            assert_eq!(percentile(&sorted, 1.0), 100.0);
            // Single sample: every percentile is that sample.
            assert_eq!(percentile(&[7.0], 0.5), 7.0);
            assert_eq!(percentile(&[], 0.99), 0.0);
        }

        #[test]
        fn summary_digests_unsorted_samples() {
            let s = LatencySummary::from_samples(&[3.0, 1.0, 2.0, 4.0]);
            assert_eq!(s.count, 4);
            assert_eq!(s.mean, 2.5);
            assert_eq!(s.p50, 2.0);
            assert_eq!(s.p99, 4.0);
            assert_eq!(s.max, 4.0);
            let empty = LatencySummary::from_samples(&[]);
            assert_eq!(empty.count, 0);
            assert_eq!(empty.max, 0.0);
        }

        #[test]
        fn mean_handles_edges() {
            assert_eq!(mean(&[]), 0.0);
            assert_eq!(mean(&[2.0, 4.0]), 3.0);
        }
    }
}

#[cfg(test)]
mod json_tests {
    use super::json::Value;

    #[test]
    fn parses_a_bench_file_shape() {
        let text = r#"{
  "bench": "spgemm",
  "workload": "P = Q*A, rmat scale 8 & more",
  "items_per_run": 123456,
  "host_threads": 1,
  "records": [
    {"threads": 1, "wall_s": 1.234560e-2, "identical_to_serial": true},
    {"threads": 2, "wall_s": 6.5e-3, "identical_to_serial": false}
  ],
  "empty_array": [],
  "empty_obj": {},
  "nothing": null
}"#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("bench").unwrap().as_str(), Some("spgemm"));
        assert_eq!(v.get("items_per_run").unwrap().as_f64(), Some(123456.0));
        assert_eq!(v.get("workload").unwrap().as_str(), Some("P = Q*A, rmat scale 8 & more"));
        let records = v.get("records").unwrap().as_array().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].get("wall_s").unwrap().as_f64(), Some(1.23456e-2));
        assert_eq!(records[1].get("identical_to_serial").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("empty_array").unwrap().as_array().unwrap().len(), 0);
        assert_eq!(v.get("nothing"), Some(&Value::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1, 2,]").is_err());
        assert!(Value::parse("{\"a\" 1}").is_err());
        assert!(Value::parse("123 456").is_err());
        assert!(Value::parse("\"unterminated").is_err());
        assert!(Value::parse("nope").is_err());
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Value::parse(r#""a\nb\t\"q\"\\ é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\nb\t\"q\"\\ é"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_presets_build() {
        let d = dataset(DatasetKind::Products);
        assert!(d.num_vertices() >= 1024);
        let cfg = sage_training_config(&d);
        assert_eq!(cfg.fanouts.len(), 3);
        assert!(cfg.batch_size >= 8);
    }

    fn tiny_run() -> (Arc<Dataset>, TrainingConfig) {
        let mut cfg = DatasetConfig::products_like(7); // 128 vertices
        cfg.feature_dim = 16;
        cfg.num_classes = 4;
        cfg.train_fraction = 0.5;
        cfg.homophily = 0.6;
        let dataset = build_dataset(&cfg, &mut StdRng::seed_from_u64(2)).unwrap();
        let config = TrainingConfig {
            fanouts: vec![5, 5],
            hidden_dim: 16,
            batch_size: 16,
            bulk_size: 4,
            learning_rate: 0.05,
            epochs: 3,
            seed: 42,
        };
        (Arc::new(dataset), config)
    }

    #[test]
    fn matrix_and_pervertex_samplers_reach_similar_accuracy() {
        // The §8.1.3 claim: the bulk matrix sampling optimization does not
        // change model accuracy relative to conventional per-vertex sampling.
        // The tiny test set gets 20 points of slack instead of the claim's 1.
        let (dataset, config) = tiny_run();
        let claims = repro::accuracy(&dataset, &config);
        let parity = claims.iter().find(|c| c.id == "acc.matrix_matches_pervertex").unwrap();
        assert!(
            parity.lhs.abs_diff(parity.rhs) * 5 < dataset.test_set.len() as u64,
            "accuracy diverged: {parity:?}"
        );
        assert!(claims.iter().filter(|c| c.id == "acc.above_chance").all(repro::Claim::holds));
    }

    #[test]
    fn norep_fetches_more_data_than_replicated() {
        // With c = p the whole feature matrix sits in every rank's process
        // row, so feature fetching ships nothing; NoRep and the Quiver-like
        // baseline (both c = 1) must ship feature rows.
        let (dataset, mut config) = tiny_run();
        config.epochs = 1;
        let claims = repro::replicated(&[(dataset, config)], &[(4, 4)]);
        for id in ["fig6.norep_moves_more_words", "fig4.quiver_moves_more_words"] {
            let claim = claims.iter().find(|c| c.id == id).unwrap();
            assert!(claim.holds(), "{claim:?}");
        }
    }
}
