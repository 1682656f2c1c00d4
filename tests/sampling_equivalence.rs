//! Cross-crate integration tests: the distributed sampling backends must
//! produce the same samples as the single-device matrix formulation, and all
//! sampler outputs must satisfy the structural invariants the GNN layer
//! relies on.

mod common;

use dmbs::graph::generators::{figure1_example, rmat, RmatConfig};
use dmbs::sampling::{
    BulkSamplerConfig, DistConfig, EpochSamples, FastGcnSampler, GraphSageSampler, LadiesSampler,
    LocalBackend, Partitioned1p5dBackend, ReplicatedBackend, Sampler, SamplingBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// This suite's historical batch stream uses the (257, 31) multipliers.
fn random_batches(n: usize, k: usize, b: usize) -> Vec<Vec<usize>> {
    common::strided_batches(n, k, b, 257, 31)
}

#[test]
fn replicated_backend_equals_single_device_with_full_fanout() {
    // With fanout >= max degree nothing is random: the replicated strategy
    // must agree exactly with a single-device run on the same batches.
    let graph = figure1_example();
    let batches = vec![vec![1, 5], vec![0, 3], vec![2, 4], vec![5, 0]];
    let bulk = BulkSamplerConfig::new(2, batches.len());

    let sampler = GraphSageSampler::new(vec![10, 10]);
    let single = LocalBackend::new(bulk)
        .unwrap()
        .sample_epoch(&sampler, graph.adjacency(), &batches, 1)
        .unwrap();

    for p in [1usize, 2, 3, 4] {
        let backend = ReplicatedBackend::new(DistConfig::new(p, 1, bulk)).unwrap();
        let distributed = backend.sample_epoch(&sampler, graph.adjacency(), &batches, 99).unwrap();
        assert_eq!(distributed.num_batches(), single.num_batches());
        for (d, s) in distributed.minibatches().iter().zip(single.minibatches()) {
            assert_eq!(d.batch, s.batch);
            for (dl, sl) in d.layers.iter().zip(&s.layers) {
                assert_eq!(dl.rows, sl.rows);
                assert_eq!(dl.cols, sl.cols);
                assert_eq!(dl.adjacency, sl.adjacency);
            }
        }
    }
}

#[test]
fn partitioned_backend_equals_single_device_with_full_fanout() {
    let graph = rmat(&RmatConfig::new(7, 4), &mut StdRng::seed_from_u64(3)).unwrap();
    let n = graph.num_vertices();
    let batches = random_batches(n, 6, 8);
    let bulk = BulkSamplerConfig::new(8, batches.len());
    let sampler = GraphSageSampler::new(vec![n]); // keep whole neighborhoods: deterministic
    let single = LocalBackend::new(bulk)
        .unwrap()
        .sample_epoch(&sampler, graph.adjacency(), &batches, 5)
        .unwrap();

    for (p, c) in [(4usize, 2usize), (6, 2), (8, 4)] {
        let backend = Partitioned1p5dBackend::new(DistConfig::new(p, c, bulk)).unwrap();
        let flat = backend.sample_epoch(&sampler, graph.adjacency(), &batches, 7).unwrap();
        for (d, s) in flat.minibatches().iter().zip(single.minibatches()) {
            assert_eq!(d.layers[0].rows, s.layers[0].rows, "p={p} c={c}");
            assert_eq!(d.layers[0].cols, s.layers[0].cols, "p={p} c={c}");
            assert_eq!(d.layers[0].adjacency, s.layers[0].adjacency, "p={p} c={c}");
        }
    }
}

#[test]
fn partitioned_ladies_equals_single_device_when_sample_covers_support() {
    // s = 10 covers every support of the 6-vertex graph, so nothing is random
    // and the grid must agree with one device exactly, previous layer
    // included or not.
    let graph = figure1_example();
    let batches = vec![vec![1, 5], vec![0, 2], vec![3, 4]];
    let bulk = BulkSamplerConfig::new(2, batches.len());
    for sampler in [LadiesSampler::new(2, 10), LadiesSampler::new(2, 10).with_previous_included()] {
        let single = LocalBackend::new(bulk)
            .unwrap()
            .sample_epoch(&sampler, graph.adjacency(), &batches, 2)
            .unwrap();
        for (p, c) in [(2usize, 1usize), (4, 2), (6, 2)] {
            let backend = Partitioned1p5dBackend::new(DistConfig::new(p, c, bulk)).unwrap();
            let flat = backend.sample_epoch(&sampler, graph.adjacency(), &batches, 17).unwrap();
            assert_eq!(flat.minibatches(), single.minibatches(), "p={p} c={c} {sampler:?}");
        }
    }
}

/// FNV-1a over the little-endian bytes of `words`, prefixed by their count.
fn fold(hash: &mut u64, words: impl ExactSizeIterator<Item = u64>) {
    let len = words.len() as u64;
    for word in std::iter::once(len).chain(words) {
        for byte in word.to_le_bytes() {
            *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

/// One FNV-1a digest over every minibatch's batch, and every layer's rows,
/// cols, `indptr`, `indices` and value bits.
fn digest(epoch: &EpochSamples) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325;
    let ids = |v: &[usize]| v.iter().map(|&x| x as u64).collect::<Vec<_>>().into_iter();
    for mb in epoch.minibatches() {
        fold(&mut hash, ids(&mb.batch));
        for layer in &mb.layers {
            fold(&mut hash, ids(&layer.rows));
            fold(&mut hash, ids(&layer.cols));
            fold(&mut hash, ids(layer.adjacency.indptr()));
            fold(&mut hash, ids(layer.adjacency.indices()));
            fold(&mut hash, layer.adjacency.value_iter().map(f64::to_bits));
        }
    }
    hash
}

/// `(backend, sample digest, words_sent, messages)` of one sampler's epoch on
/// every backend of the pin.
fn digests<S: Sampler + Sync>(sampler: &S) -> Vec<(String, u64, usize, usize)> {
    let graph = rmat(&RmatConfig::new(8, 6), &mut StdRng::seed_from_u64(9)).unwrap();
    let a = graph.adjacency();
    let batches = random_batches(graph.num_vertices(), 4, 16);
    let bulk = BulkSamplerConfig::new(16, 4);
    let row = |name: String, epoch: Result<EpochSamples, _>| {
        let epoch = epoch.unwrap();
        let stats = epoch.output.comm_stats;
        (name, digest(&epoch), stats.words_sent, stats.messages)
    };
    let local = LocalBackend::new(bulk).unwrap();
    let replicated = ReplicatedBackend::new(DistConfig::new(4, 1, bulk)).unwrap();
    let mut out = vec![
        row("local".into(), local.sample_epoch(sampler, a, &batches, 41)),
        row("replicated(4,1)".into(), replicated.sample_epoch(sampler, a, &batches, 41)),
    ];
    for (p, c) in [(2usize, 1usize), (4, 2)] {
        let backend = Partitioned1p5dBackend::new(DistConfig::new(p, c, bulk)).unwrap();
        let epoch = backend.sample_epoch(sampler, a, &batches, 41);
        out.push(row(format!("partitioned({p},{c})"), epoch));
    }
    out
}

/// Byte-identity pin of the one sampling pipeline: every sampler on every
/// backend, digested and counted.  The constants were computed at the commit
/// before the six hand-copied drivers became one; the entries re-pinned since
/// say why.
#[test]
fn sampled_epochs_match_pinned_digests() {
    #[rustfmt::skip]
    const PINNED: [(&str, &str, u64, usize, usize); 16] = [
        ("sage", "local", 0x8450D5D804B3D21D, 0, 0),
        ("sage", "replicated(4,1)", 0xE11F1915DD549019, 0, 0),
        ("sage", "partitioned(2,1)", 0x5983414E4BF71B5A, 1814, 8),
        ("sage", "partitioned(4,2)", 0x5983414E4BF71B5A, 7401, 8),
        ("ladies", "local", 0x02C0C826FC1A2B9F, 0, 0),
        ("ladies", "replicated(4,1)", 0x275E9415DF9EF5E6, 0, 0),
        ("ladies", "partitioned(2,1)", 0xF22B61E3C9905FD3, 2572, 16),
        // Re-pinned, was 9421 words / 20 messages: extraction no longer all-gathers COO.
        ("ladies", "partitioned(4,2)", 0xF22B61E3C9905FD3, 8278, 16),
        ("ladies+previous", "local", 0x7F1D351B110A3249, 0, 0),
        ("ladies+previous", "replicated(4,1)", 0x4F4AEDE8ED2182C4, 0, 0),
        // Re-pinned, was plain LADIES's entries: the grid dropped `with_previous_included()`.
        ("ladies+previous", "partitioned(2,1)", 0xF9EEDE9679A399CF, 3024, 16),
        ("ladies+previous", "partitioned(4,2)", 0xF9EEDE9679A399CF, 9765, 16),
        // Re-pinned, was 0xDECC…25A2 / 0x4CB0…2776: one StdRng per step, as on the grid.
        ("fastgcn", "local", 0x01EBDEC035928BF2, 0, 0),
        ("fastgcn", "replicated(4,1)", 0x39D50CCF3069C0CF, 0, 0),
        ("fastgcn", "partitioned(2,1)", 0x51B6A7CF1B2A411C, 1824, 10),
        ("fastgcn", "partitioned(4,2)", 0x51B6A7CF1B2A411C, 6444, 10),
    ];
    let mut got = Vec::new();
    for (name, rows) in [
        ("sage", digests(&GraphSageSampler::new(vec![5, 3]).with_self_loops())),
        ("ladies", digests(&LadiesSampler::new(2, 12))),
        ("ladies+previous", digests(&LadiesSampler::new(2, 12).with_previous_included())),
        ("fastgcn", digests(&FastGcnSampler::new(2, 12))),
    ] {
        got.extend(rows.into_iter().map(|(backend, d, w, m)| (name, backend, d, w, m)));
    }
    let table: String = got
        .iter()
        .map(|(s, b, d, w, m)| format!("        ({s:?}, {b:?}, {d:#018X}, {w}, {m}),\n"))
        .collect();
    assert_eq!(got.len(), PINNED.len(), "computed table:\n{table}");
    for (want, (s, b, d, w, m)) in PINNED.iter().zip(&got) {
        assert_eq!(*want, (*s, b.as_str(), *d, *w, *m), "computed table:\n{table}");
    }
}

#[test]
fn all_samplers_produce_valid_edges_and_chained_frontiers() {
    let graph = rmat(&RmatConfig::new(8, 6), &mut StdRng::seed_from_u64(9)).unwrap();
    let a = graph.adjacency();
    let batches = random_batches(graph.num_vertices(), 4, 16);
    let config = BulkSamplerConfig::new(16, 4);
    let mut rng = StdRng::seed_from_u64(10);

    let samplers: Vec<Box<dyn Sampler>> = vec![
        Box::new(GraphSageSampler::new(vec![5, 3])),
        Box::new(GraphSageSampler::new(vec![5, 3]).with_self_loops()),
        Box::new(LadiesSampler::new(2, 12)),
        Box::new(FastGcnSampler::new(2, 12)),
    ];
    for sampler in samplers {
        let out = sampler.sample_bulk(a, &batches, &config, &mut rng).unwrap();
        assert_eq!(out.num_batches(), 4, "{}", sampler.name());
        for mb in &out.minibatches {
            assert!(mb.frontiers_are_chained(), "{}", sampler.name());
            for layer in &mb.layers {
                for (r, c, _) in layer.adjacency.iter() {
                    let from = layer.rows[r];
                    let to = layer.cols[c];
                    assert!(
                        a.get(from, to) > 0.0 || from == to,
                        "{}: sampled edge ({from}, {to}) not in the graph",
                        sampler.name()
                    );
                }
            }
        }
    }
}
