//! The α–β communication cost model and per-rank communication statistics.
//!
//! The paper analyses its algorithms in the α–β model (§2.4): sending a
//! message of `k` words costs `α + β·k` time units.  Because this
//! reproduction runs ranks as threads on one machine, *measured* network time
//! does not exist; instead every message records its size and the modeled
//! cost, which the harnesses use for the communication component of the
//! Figure 7 breakdowns and for checking the analytical bound of §5.2.1:
//!
//! ```text
//! T_prob = α (p/c² + log c) + β (k·b·d / c + c·k·b·d / p)
//! ```

use serde::{Deserialize, Serialize};

/// α–β cost model: `cost(words) = alpha + beta * words` seconds.
///
/// The defaults approximate the paper's Perlmutter testbed: a few
/// microseconds of latency and 25 GB/s of per-NIC injection bandwidth
/// (3.125 G words/s for 8-byte words).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    /// Per-message latency in seconds.
    pub alpha: f64,
    /// Per-word (8 bytes) transfer time in seconds.
    pub beta: f64,
}

impl CostModel {
    /// Creates a cost model with explicit latency (seconds) and inverse
    /// bandwidth (seconds per 8-byte word).
    pub fn new(alpha: f64, beta: f64) -> Self {
        CostModel { alpha, beta }
    }

    /// A model of the paper's Slingshot-11 network: ~2 µs latency,
    /// 25 GB/s injection bandwidth.
    pub fn slingshot() -> Self {
        CostModel { alpha: 2.0e-6, beta: 8.0 / 25.0e9 }
    }

    /// A model of NVLink 3.0 (intra-node GPU pairs): ~1 µs latency,
    /// 100 GB/s unidirectional bandwidth.
    pub fn nvlink() -> Self {
        CostModel { alpha: 1.0e-6, beta: 8.0 / 100.0e9 }
    }

    /// A model of a PCIe 4.0 x16 link (~25 GB/s but with host-involved
    /// latency), used for the Quiver-UVA comparison of Figure 5.
    pub fn pcie() -> Self {
        CostModel { alpha: 10.0e-6, beta: 8.0 / 25.0e9 }
    }

    /// Modeled time in seconds to send one message of `words` 8-byte words.
    pub fn message_cost(&self, words: usize) -> f64 {
        self.alpha + self.beta * words as f64
    }

    /// Modeled time in seconds to send one message of `bytes` wire bytes:
    /// the β charge is `beta · bytes / 8` since β is per 8-byte word.  For a
    /// payload of exactly `8 × words` bytes this is bit-identical to
    /// [`CostModel::message_cost`] (division by the power of two is exact),
    /// which is what keeps `Codec::Exact` runs byte-identical to the
    /// pre-compression pipeline; compressed payloads are charged the bytes
    /// they actually move.
    pub fn message_cost_bytes(&self, bytes: usize) -> f64 {
        self.alpha + self.beta * (bytes as f64 / 8.0)
    }

    /// Modeled wall time of `comm_s` seconds of communication fully
    /// overlapped with `compute_s` seconds of computation: a pipelined
    /// schedule pays `max(comm, compute)` where the serial schedule pays
    /// `comm + compute`.
    pub fn overlapped_cost(&self, comm_s: f64, compute_s: f64) -> f64 {
        comm_s.max(compute_s)
    }

    /// The communication seconds *hidden* when `comm_s` of modeled traffic
    /// overlaps `compute_s` of computation: `min(comm, compute)`.  By
    /// construction `comm + compute - overlap_credit == overlapped_cost`, so
    /// the books balance exactly — the credit is recorded in
    /// [`CommStats::overlapped_time`] / [`PhaseProfile::add_overlap`] while
    /// `modeled_time` keeps the full (schedule-independent) α–β bill.
    ///
    /// [`PhaseProfile::add_overlap`]: crate::PhaseProfile::add_overlap
    pub fn overlap_credit(&self, comm_s: f64, compute_s: f64) -> f64 {
        comm_s.min(compute_s)
    }

    /// Modeled per-request share of one coalesced message serving `requests`
    /// requests: the α latency is paid once for the whole micro-bulk and
    /// amortizes over its members, while each request's share of the β term
    /// is its share of the words.  `per_request_cost(words, 1)` equals
    /// [`CostModel::message_cost`]; `requests = 0` is treated as one request
    /// so the bill never divides by zero.
    pub fn per_request_cost(&self, words: usize, requests: usize) -> f64 {
        self.message_cost(words) / requests.max(1) as f64
    }

    /// Modeled time of the probability-generation SpGEMM of the 1.5D
    /// algorithm, `T_prob` from §5.2.1 of the paper.
    ///
    /// * `p` — number of processes,
    /// * `c` — replication factor,
    /// * `k` — minibatches sampled in bulk,
    /// * `b` — batch size,
    /// * `d` — average degree of the graph.
    pub fn predict_prob_cost(&self, p: usize, c: usize, k: usize, b: usize, d: f64) -> f64 {
        let p_f = p as f64;
        let c_f = c as f64;
        let kbd = k as f64 * b as f64 * d;
        let latency_terms = p_f / (c_f * c_f) + c_f.ln().max(0.0) / 2f64.ln().max(1e-12);
        let bandwidth_terms = kbd / c_f + c_f * kbd / p_f;
        self.alpha * latency_terms + self.beta * bandwidth_terms
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::slingshot()
    }
}

/// Per-rank communication statistics accumulated by a
/// [`Communicator`](crate::Communicator).
///
/// Besides the words that actually crossed the (simulated) wire, the struct
/// carries the *work-avoidance* counters of the communication-avoiding
/// feature pipeline (§6.2): per-rank feature-cache hits and misses, and the
/// α–β words those hits kept off the wire.  The communicator itself never
/// touches the cache fields — they are folded in by the cache layer via
/// [`CommStats::record_cache_hit`] / [`CommStats::record_cache_miss`] and
/// travel through the same [`CommStats::merge`] aggregation as the wire
/// counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CommStats {
    /// Number of point-to-point messages sent (collectives decompose into
    /// point-to-point messages).
    pub messages: usize,
    /// Total words (8-byte units) sent.
    pub words_sent: usize,
    /// Modeled communication time in seconds under the α–β model.
    pub modeled_time: f64,
    /// Feature-cache hits: rows served locally instead of being re-fetched.
    pub cache_hits: usize,
    /// Feature-cache misses: rows that had to be fetched (or read) fresh.
    pub cache_misses: usize,
    /// Words that would have crossed the wire without the pinned schedule —
    /// the β term of the saving: request ids plus feature rows of
    /// remote-owned feature-cache hits, and, on the 1.5D backend, the
    /// request id, length word and `2·nnz` entries of every pinned remote
    /// row of `A` a sampling product read instead of fetching.
    pub words_saved: usize,
    /// Modeled communication seconds that a pipelined schedule hid behind
    /// computation (nonblocking collectives posted before a compute region
    /// and waited after it).  Always `<= modeled_time`, which keeps the full
    /// schedule-independent α–β bill; the *effective* communication cost of
    /// the schedule is [`CommStats::exposed_time`].
    pub overlapped_time: f64,
    /// Requests whose traffic was billed through coalesced messages via
    /// [`CommStats::record_amortized`] — the denominator of
    /// [`CommStats::modeled_time_per_request`].  Zero outside the serving
    /// tier.
    pub amortized_requests: usize,
    /// Exact bytes that crossed the wire.  Plain word-counted messages book
    /// `8 × words`; compressed payloads book their encoded size via
    /// [`CommStats::record_wire`].  Under the bit-exact codec this is always
    /// `8 × words_sent`.
    pub bytes_on_wire: usize,
    /// Bytes a wire codec kept off the wire: `8 × words − wire bytes`,
    /// summed per compressed message, so the balance identity
    /// `bytes_on_wire + bytes_saved == 8 × words_sent` holds by construction
    /// (per message, hence per epoch).  Distinct from [`words_saved`], the
    /// *cache* work-avoidance book: saved words never entered a message at
    /// all, saved bytes crossed as a smaller encoding.
    ///
    /// [`words_saved`]: CommStats::words_saved
    pub bytes_saved: usize,
}

impl CommStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        CommStats::default()
    }

    /// Records one message of `words` words under `model`, shipped
    /// uncompressed (`8 × words` bytes on the wire).
    pub fn record(&mut self, words: usize, model: &CostModel) {
        self.record_wire(words, words * 8, model);
    }

    /// Records one message of `words` *logical* words that crossed the wire
    /// as `bytes` encoded bytes (a compressed payload — or `8 × words` for
    /// an uncompressed one, in which case this is exactly
    /// [`CommStats::record`]).  The β term of the modeled time is charged on
    /// the real bytes; the word book keeps the codec-independent logical
    /// volume, and the difference lands in [`CommStats::bytes_saved`] so the
    /// books balance per message.
    pub fn record_wire(&mut self, words: usize, bytes: usize, model: &CostModel) {
        self.messages += 1;
        self.words_sent += words;
        self.bytes_on_wire += bytes;
        self.bytes_saved += (words * 8).saturating_sub(bytes);
        self.modeled_time += model.message_cost_bytes(bytes);
    }

    /// Records one cache hit that kept `words_saved` words off the wire
    /// (zero for hits on locally-owned rows, which never travel anyway).
    pub fn record_cache_hit(&mut self, words_saved: usize) {
        self.cache_hits += 1;
        self.words_saved += words_saved;
    }

    /// Records one cache miss (the row was fetched or read fresh).
    pub fn record_cache_miss(&mut self) {
        self.cache_misses += 1;
    }

    /// Records one *coalesced* message of `words` words that serves
    /// `requests` requests at once (the serving tier's micro-bulk fetch):
    /// the wire counters take one message and the full α–β bill exactly as
    /// [`CommStats::record`] would, and `requests` is added to
    /// [`CommStats::amortized_requests`] so the per-request amortized cost
    /// can be read back with [`CommStats::modeled_time_per_request`].
    pub fn record_amortized(&mut self, words: usize, model: &CostModel, requests: usize) {
        self.record(words, model);
        self.amortized_requests += requests.max(1);
    }

    /// Average modeled α–β seconds billed per amortized request, or `None`
    /// when no request traffic was recorded.  With perfect coalescing the
    /// α term divides by the micro-bulk size, which is exactly what this
    /// reports (see [`CostModel::per_request_cost`]).
    pub fn modeled_time_per_request(&self) -> Option<f64> {
        (self.amortized_requests > 0).then(|| self.modeled_time / self.amortized_requests as f64)
    }

    /// Records `seconds` of modeled communication as overlapped with compute
    /// (hidden by a pipelined schedule).  Callers must never credit more than
    /// the modeled time actually spent — see
    /// [`CostModel::overlap_credit`].
    pub fn record_overlap(&mut self, seconds: f64) {
        self.overlapped_time += seconds;
    }

    /// The communication seconds a pipelined schedule actually pays:
    /// `modeled_time - overlapped_time` (clamped at zero against float
    /// round-off).  Equal to `modeled_time` for any non-overlapped schedule.
    pub fn exposed_time(&self) -> f64 {
        (self.modeled_time - self.overlapped_time).max(0.0)
    }

    /// Fraction of cache lookups that hit, or `None` when nothing was looked
    /// up (so callers can distinguish "no cache" from "cold cache").
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let lookups = self.cache_hits + self.cache_misses;
        (lookups > 0).then(|| self.cache_hits as f64 / lookups as f64)
    }

    /// Combines statistics from another rank or phase (summing).
    pub fn merge(&mut self, other: &CommStats) {
        self.messages += other.messages;
        self.words_sent += other.words_sent;
        self.modeled_time += other.modeled_time;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.words_saved += other.words_saved;
        self.overlapped_time += other.overlapped_time;
        self.amortized_requests += other.amortized_requests;
        self.bytes_on_wire += other.bytes_on_wire;
        self.bytes_saved += other.bytes_saved;
    }

    /// The statistics accumulated since the snapshot `before` was taken:
    /// every counter minus `before`'s, the inverse of [`CommStats::merge`].
    pub fn since(&self, before: &CommStats) -> CommStats {
        CommStats {
            messages: self.messages - before.messages,
            words_sent: self.words_sent - before.words_sent,
            modeled_time: self.modeled_time - before.modeled_time,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            words_saved: self.words_saved - before.words_saved,
            overlapped_time: self.overlapped_time - before.overlapped_time,
            amortized_requests: self.amortized_requests - before.amortized_requests,
            bytes_on_wire: self.bytes_on_wire - before.bytes_on_wire,
            bytes_saved: self.bytes_saved - before.bytes_saved,
        }
    }

    /// Bytes sent — read from the bytes-on-wire book, so the answer stays
    /// truthful for payloads that do not ship as 8 bytes per word
    /// (compressed feature rows).  Equal to `8 × words_sent` whenever every
    /// message traveled uncompressed.
    pub fn bytes_sent(&self) -> usize {
        self.bytes_on_wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_cost_is_affine() {
        let m = CostModel::new(1.0, 0.5);
        assert_eq!(m.message_cost(0), 1.0);
        assert_eq!(m.message_cost(4), 3.0);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        // NVLink is faster than Slingshot which is faster than PCIe for a
        // large message.
        let words = 1_000_000;
        assert!(
            CostModel::nvlink().message_cost(words) < CostModel::slingshot().message_cost(words)
        );
        assert!(
            CostModel::slingshot().message_cost(words) <= CostModel::pcie().message_cost(words)
        );
    }

    #[test]
    fn default_is_slingshot() {
        assert_eq!(CostModel::default(), CostModel::slingshot());
    }

    #[test]
    fn predict_prob_cost_decreases_with_replication() {
        // For fixed p, increasing c reduces the dominant kbd/c bandwidth term
        // (the paper's observation that communication scales with c).
        let m = CostModel::slingshot();
        let t_c1 = m.predict_prob_cost(64, 1, 512, 1024, 50.0);
        let t_c4 = m.predict_prob_cost(64, 4, 512, 1024, 50.0);
        let t_c8 = m.predict_prob_cost(64, 8, 512, 1024, 50.0);
        assert!(t_c4 < t_c1);
        assert!(t_c8 < t_c4);
    }

    #[test]
    fn predict_prob_cost_harmonic_behaviour() {
        // With c fixed, increasing p only shrinks the (smaller) all-reduce
        // term, so the total should not increase.
        let m = CostModel::slingshot();
        let t_p16 = m.predict_prob_cost(16, 2, 128, 1024, 50.0);
        let t_p64 = m.predict_prob_cost(64, 2, 128, 1024, 50.0);
        assert!(t_p64 <= t_p16);
    }

    #[test]
    fn stats_record_and_merge() {
        let model = CostModel::new(1.0, 1.0);
        let mut a = CommStats::new();
        a.record(10, &model);
        a.record(5, &model);
        assert_eq!(a.messages, 2);
        assert_eq!(a.words_sent, 15);
        assert_eq!(a.bytes_sent(), 120);
        assert!((a.modeled_time - 17.0).abs() < 1e-12);

        let mut b = CommStats::new();
        b.record(1, &model);
        b.merge(&a);
        assert_eq!(b.messages, 3);
        assert_eq!(b.words_sent, 16);
    }

    #[test]
    fn since_is_the_inverse_of_merge() {
        let model = CostModel::new(1.0, 0.5);
        let mut before = CommStats::new();
        before.record_wire(10, 48, &model);
        before.record_cache_hit(3);
        let mut delta = CommStats::new();
        delta.record(7, &model);
        delta.record_wire(4, 20, &model);
        delta.record_amortized(2, &model, 3);
        delta.record_cache_miss();
        delta.record_cache_hit(5);
        delta.record_overlap(0.5);
        let mut after = before;
        after.merge(&delta);
        assert_eq!(after.since(&before), delta);
        assert_eq!(after.since(&after), CommStats::new());
        assert_eq!(after.since(&CommStats::new()), after);
    }

    #[test]
    fn bytes_sent_reads_the_wire_book_not_eight_times_words() {
        // A compressed message: 16 logical words crossing as 40 bytes.
        let model = CostModel::new(0.0, 8.0);
        let mut s = CommStats::new();
        s.record_wire(16, 40, &model);
        assert_eq!(s.words_sent, 16);
        assert_eq!(s.bytes_on_wire, 40);
        assert_eq!(s.bytes_sent(), 40); // NOT 16 * 8
        assert_eq!(s.bytes_saved, 16 * 8 - 40);
        // β is charged on the real bytes: 8.0 s/word × 40/8 words.
        assert!((s.modeled_time - 40.0).abs() < 1e-12);
        // Balance identity, per message and after merging.
        assert_eq!(s.bytes_on_wire + s.bytes_saved, s.words_sent * 8);
        let mut t = CommStats::new();
        t.record(3, &model); // uncompressed: books 24 bytes, saves nothing
        t.merge(&s);
        assert_eq!(t.bytes_on_wire, 24 + 40);
        assert_eq!(t.bytes_saved, 88);
        assert_eq!(t.bytes_sent(), 64);
        assert_eq!(t.bytes_on_wire + t.bytes_saved, t.words_sent * 8);
    }

    #[test]
    fn byte_charging_is_bit_identical_to_word_charging_when_uncompressed() {
        // The β move from words to bytes must not perturb a single bit of
        // the modeled time for uncompressed traffic.
        let model = CostModel::slingshot();
        for words in [0usize, 1, 7, 120, 1 << 20] {
            assert_eq!(
                model.message_cost(words).to_bits(),
                model.message_cost_bytes(words * 8).to_bits()
            );
        }
    }

    #[test]
    fn overlap_accounting_balances_exactly() {
        let m = CostModel::new(1.0, 0.0);
        // comm-bound region: 5s comm over 3s compute → 3s hidden, 2s exposed.
        assert_eq!(m.overlapped_cost(5.0, 3.0), 5.0);
        assert_eq!(m.overlap_credit(5.0, 3.0), 3.0);
        // compute-bound region: the whole bill hides.
        assert_eq!(m.overlapped_cost(1.0, 4.0), 4.0);
        assert_eq!(m.overlap_credit(1.0, 4.0), 1.0);
        // comm + compute - credit == overlapped cost, both regimes.
        for (comm, compute) in [(5.0, 3.0), (1.0, 4.0), (0.0, 2.0), (2.0, 0.0)] {
            assert_eq!(
                comm + compute - m.overlap_credit(comm, compute),
                m.overlapped_cost(comm, compute)
            );
        }

        let mut s = CommStats::new();
        s.record(10, &m); // modeled_time = 1.0
        s.record_overlap(0.25);
        assert!((s.exposed_time() - 0.75).abs() < 1e-12);
        let mut t = CommStats::new();
        t.record_overlap(0.5);
        t.merge(&s);
        assert!((t.overlapped_time - 0.75).abs() < 1e-12);
    }

    #[test]
    fn amortized_accounting_divides_alpha_across_the_micro_bulk() {
        let m = CostModel::new(1.0, 0.5);
        // One coalesced message of 8 words serving 4 requests: one α, full β.
        let mut s = CommStats::new();
        s.record_amortized(8, &m, 4);
        assert_eq!(s.messages, 1);
        assert_eq!(s.words_sent, 8);
        assert_eq!(s.amortized_requests, 4);
        let per_req = s.modeled_time_per_request().unwrap();
        assert!((per_req - 5.0 / 4.0).abs() < 1e-12);
        assert_eq!(per_req, m.per_request_cost(8, 4));
        // Four singleton messages of 2 words each: four αs for the same β
        // volume — strictly more expensive per request.
        let mut singles = CommStats::new();
        for _ in 0..4 {
            singles.record_amortized(2, &m, 1);
        }
        assert_eq!(singles.amortized_requests, 4);
        assert!(singles.modeled_time_per_request().unwrap() > per_req);
        // Degenerate inputs never divide by zero.
        assert_eq!(m.per_request_cost(8, 1), m.message_cost(8));
        assert_eq!(m.per_request_cost(8, 0), m.message_cost(8));
        assert_eq!(CommStats::new().modeled_time_per_request(), None);
        // The request denominator merges like every other counter.
        let mut t = CommStats::new();
        t.record_amortized(2, &m, 3);
        t.merge(&s);
        assert_eq!(t.amortized_requests, 7);
    }

    #[test]
    fn cache_counters_record_and_merge() {
        let mut a = CommStats::new();
        assert_eq!(a.cache_hit_rate(), None);
        a.record_cache_hit(17); // remote-owned row: 16 feature words + 1 id
        a.record_cache_hit(0); // locally-owned row: nothing saved
        a.record_cache_miss();
        assert_eq!(a.cache_hits, 2);
        assert_eq!(a.cache_misses, 1);
        assert_eq!(a.words_saved, 17);
        assert!((a.cache_hit_rate().unwrap() - 2.0 / 3.0).abs() < 1e-12);

        let mut b = CommStats::new();
        b.record_cache_miss();
        b.merge(&a);
        assert_eq!(b.cache_hits, 2);
        assert_eq!(b.cache_misses, 2);
        assert_eq!(b.words_saved, 17);
        // The wire counters are untouched by cache bookkeeping.
        assert_eq!(b.messages, 0);
        assert_eq!(b.words_sent, 0);
    }
}
