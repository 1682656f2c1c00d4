//! Cost-model-driven auto-tuner: the §5.2.1 analytical model promoted from
//! documentation to a decision procedure.
//!
//! Nine PRs of knobs interact — cache mode, wire codec, overlapped schedule —
//! and this module picks among them *offline*, from first principles plus a
//! handful of cheap probe epochs, in the MLSYSIM spirit of model-guided
//! systems decisions:
//!
//! ```text
//!   probe ──▶ fit ──▶ search ──▶ apply
//!   (1-epoch runs     (TuningModel:      (valid grid,        (TrainingSession
//!    book words,       α·messages +       arg-min of the      builder().auto(),
//!    bytes, compute    β·bytes/8, per-    predicted epoch     perf_baseline
//!    per phase)        knob terms)        time)               --autotune)
//! ```
//!
//! The model combines **measured** per-phase compute from
//! [`PhaseProfile`] with **predicted** α–β communication from
//! [`CostModel`], extended with one term per knob:
//!
//! * **cache words-saved** — the [`FeatureCacheConfig::Pinned`]
//!   candidate is charged the pinned probe's word count; the uncached
//!   candidate the baseline probe's.  The two are tied by the double-entry
//!   identity `words(pinned) + words_saved(pinned) == words(uncached)`,
//!   which [`TuningModel::fit`] verifies.  The saved words cover both
//!   static operands the pinned schedule holds: feature rows and, on the
//!   1.5D backend, the remote rows of `A` the sampling SpGEMM reads.
//! * **codec bytes-on-wire** — lossy candidates are credited the
//!   `bytes_saved` a one-epoch probe of that codec actually booked, so the β
//!   charge follows real encoded bytes (including the Int8 per-row scale
//!   overhead) rather than an idealised ratio.
//! * **overlap credit** — the overlapped candidate is credited the hidden
//!   seconds a probe of the overlapped schedule measured, capped at the
//!   candidate's own communication bill ([`CostModel::overlap_credit`]
//!   semantics: you cannot hide more than you send).
//!
//! Missing probes degrade gracefully: a knob whose probe was not run scores
//! **no benefit**, so it ties with the cheaper-to-probe candidate and the
//! deterministic lexicographic tie-break keeps the earlier choice — the
//! default schedule first, then the plainer knob.
//!
//! The searched grid is deliberately the *schedule* knobs at a fixed
//! `(p, c)` shape — the knobs a built session can change without resampling
//! or repartitioning.  The remaining knobs ((p, c) itself, bulk group size,
//! gradient top-k, parallelism) are covered knob-by-knob in
//! the repository's `TUNING.md` guide.

use crate::codec::Codec;
use crate::collectives::Payload;
use crate::cost::{CommStats, CostModel};
use crate::error::CommError;
use crate::grid::ProcessGrid;
use crate::profile::{Phase, PhaseProfile};
use crate::{wire, Result};
use std::fmt;

/// The per-rank feature-cache mode of a [`Schedule`] (the cache itself is
/// `FeatureCache` in the `gnn` crate, which re-exports this enum).
///
/// The default is [`FeatureCacheConfig::Pinned`], the §6.2 pipeline: it
/// never moves more words or messages than `Off` and trains bit-identically.
/// Declaration order is the wire tag (`Off = 0, Pinned = 1`; tag 2 is
/// retired and rejected), not the tuner's tie-break order, which puts the
/// default first: `Pinned < Off`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FeatureCacheConfig {
    /// No caching: every minibatch re-fetches its full frontier, and every
    /// 1.5D sampling product the rows of `A` it reads (the uncached pipeline
    /// every cached run is balanced against).
    Off,
    /// Run-long pinning (the default): the union of the planned frontiers is
    /// prefetched once per bulk group and stays resident for the whole
    /// training run, so each remote row crosses the wire at most once per
    /// run and the per-step collectives vanish.  An ingest edits only the
    /// adjacency, never a feature row, so pinned rows outlive it.  The rows
    /// it pins are at most the graph's `n` vertices, so a rank never holds
    /// more than one more copy of the `n × f` feature matrix it already
    /// decoded.  On the 1.5D backend the same schedule pins the remote rows
    /// of `A` the sampling SpGEMM fetches, each once per run; the ones an
    /// ingest dirties are dropped.
    #[default]
    Pinned,
}

impl FeatureCacheConfig {
    /// True unless the mode is [`FeatureCacheConfig::Off`].
    pub fn is_enabled(&self) -> bool {
        !matches!(self, FeatureCacheConfig::Off)
    }

    /// Lower-case name used by harness JSON records ("off", "pinned").
    pub fn name(self) -> &'static str {
        match self {
            FeatureCacheConfig::Off => "off",
            FeatureCacheConfig::Pinned => "pinned",
        }
    }

    /// The wire tag of the mode (its declaration order).
    fn tag(self) -> u64 {
        match self {
            FeatureCacheConfig::Off => 0,
            FeatureCacheConfig::Pinned => 1,
        }
    }

    /// Position in the tuner's enumeration and tie-break order: the default
    /// first, then the uncached pipeline.
    fn tie_break(self) -> u64 {
        match self {
            FeatureCacheConfig::Pinned => 0,
            FeatureCacheConfig::Off => 1,
        }
    }
}

/// A session's communication schedule: feature-cache mode, wire codec of the
/// feature-fetch lanes, overlapped pipeline.  This is the one value the
/// session builder fills, the tuner enumerates and returns, and the rank
/// processes decode — the schedule the model scores *is* the schedule the
/// ranks run.
///
/// A schedule describes the distributed wire.  Local sessions and the
/// serving tier have no wire — they read every feature row from the one
/// in-memory matrix — so they ignore it, as local sessions ignore the
/// transport.
///
/// The default is the schedule a session runs without tuning — the §6.2
/// pinned cache, bit-exact codec, synchronous pipeline — and always the
/// first candidate of every grid, so an all-ties search (e.g. a shape with no
/// communication at all) deterministically keeps it.
///
/// ```
/// use dmbs_comm::tune::{FeatureCacheConfig, Schedule};
/// use dmbs_comm::Codec;
///
/// let default = Schedule::default();
/// assert_eq!(default.cache, FeatureCacheConfig::Pinned);
/// assert_eq!(default.codec, Codec::Exact);
/// assert!(!default.overlap);
/// assert_eq!(default.to_string(), "cache=pinned codec=exact overlap=off");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Schedule {
    /// Feature-cache mode.
    pub cache: FeatureCacheConfig,
    /// Wire codec of the feature-fetch lanes.
    pub codec: Codec,
    /// Whether the distributed training loop runs the software-pipelined
    /// (overlapped) schedule.
    pub overlap: bool,
}

impl Schedule {
    /// Lexicographic key `(cache, codec, overlap)` implementing the
    /// deterministic tie-break order (`Pinned < Off`, then
    /// `Exact < Fp16 < Int8`, then `off < on`).
    fn lex_key(&self) -> (u64, u64, bool) {
        (self.cache.tie_break(), self.codec.tag(), self.overlap)
    }

    /// The one validity rule of the schedule knobs: an overlapped schedule
    /// is *creditable* on a `p/c × c` grid only with `c > 1` **and** the
    /// [`FeatureCacheConfig::Pinned`] cache — only the pinned prefetch
    /// all-to-allv is hoisted by the pipelined schedule, and a
    /// single-column shape leaves it nothing to hide behind.  Synchronous
    /// schedules always pass.
    ///
    /// The tuner's [`TuningGrid`] never enumerates a schedule that fails
    /// this.  A session asked to run one does not refuse: it trains
    /// bit-identically to the synchronous schedule, hoisting only what it
    /// can (the next group's sampling).
    pub fn overlap_creditable(&self, c: usize) -> bool {
        !self.overlap || (c > 1 && self.cache == FeatureCacheConfig::Pinned)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache={} codec={} overlap={}",
            self.cache.name(),
            self.codec.name(),
            if self.overlap { "on" } else { "off" }
        )
    }
}

/// Wire order is cache, overlap, codec — the layout the train job has carried
/// since its v3, so moving the codec here left every encoded job
/// byte-identical.  Three words, always: the cache tag 2 that once carried a
/// byte budget is retired, so a stale or forged schedule is rejected.
impl Payload for Schedule {
    fn word_count(&self) -> usize {
        3
    }
    fn type_code() -> u64 {
        wire::compose_type_code(33, &[])
    }
    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.cache.tag());
        self.overlap.encode(out);
        wire::put_u64(out, self.codec.tag());
    }
    fn decode(input: &mut &[u8]) -> Option<Self> {
        let cache = match wire::get_u64(input)? {
            0 => FeatureCacheConfig::Off,
            1 => FeatureCacheConfig::Pinned,
            _ => return None,
        };
        let overlap = bool::decode(input)?;
        let codec = Codec::from_tag(wire::get_u64(input)?)?;
        Some(Schedule { cache, codec, overlap })
    }
}

/// The books of one probe epoch: world-summed wire counters plus
/// max-across-ranks measured seconds, extracted from a training run's
/// [`PhaseProfile`] and [`CommStats`] via [`ProbeEpoch::from_books`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeEpoch {
    /// Words sent, summed across ranks.
    pub words_sent: usize,
    /// Point-to-point messages, summed across ranks.
    pub messages: usize,
    /// Exact bytes on the wire, summed across ranks.
    pub bytes_on_wire: usize,
    /// Bytes a wire codec kept off the wire (zero under `Codec::Exact`).
    pub bytes_saved: usize,
    /// Words the feature cache kept off the wire (zero with the cache off).
    pub words_saved: usize,
    /// Measured compute seconds (max across ranks, all phases).
    pub compute_s: f64,
    /// Measured propagation-phase compute seconds (max across ranks) — the
    /// budget an overlapped schedule hides communication behind.
    pub propagation_compute_s: f64,
    /// Modeled communication seconds a pipelined probe actually hid (zero
    /// for synchronous probes).
    pub overlapped_s: f64,
}

impl ProbeEpoch {
    /// Extracts a probe's books from an epoch's phase profile
    /// (max-across-ranks seconds) and communication statistics (world-summed
    /// counters).
    pub fn from_books(profile: &PhaseProfile, stats: &CommStats) -> Self {
        ProbeEpoch {
            words_sent: stats.words_sent,
            messages: stats.messages,
            bytes_on_wire: stats.bytes_on_wire,
            bytes_saved: stats.bytes_saved,
            words_saved: stats.words_saved,
            compute_s: profile.total_compute(),
            propagation_compute_s: profile.compute(Phase::Propagation),
            overlapped_s: profile.total_overlap(),
        }
    }
}

/// The probe epochs a [`TuningModel`] is fitted from.  Only `baseline` and
/// `pinned` are required; each optional probe unlocks the per-knob term it
/// calibrates, and a knob without its probe scores no benefit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProbeSet {
    /// The uncached reference every cached probe is balanced against: cache
    /// [`FeatureCacheConfig::Off`], `Codec::Exact`, synchronous.
    pub baseline: ProbeEpoch,
    /// Cache [`FeatureCacheConfig::Pinned`], `Codec::Exact`, synchronous
    /// — the default schedule.
    pub pinned: ProbeEpoch,
    /// Cache pinned, `Codec::Fp16`, synchronous — calibrates the fp16
    /// bytes-on-wire term.
    pub fp16: Option<ProbeEpoch>,
    /// Cache pinned, `Codec::Int8`, synchronous — calibrates the int8
    /// bytes-on-wire term (per-row scale overhead included).
    pub int8: Option<ProbeEpoch>,
    /// Cache pinned, `Codec::Exact`, **overlapped** schedule — calibrates
    /// the overlap credit from the hidden seconds it books.
    pub overlapped: Option<ProbeEpoch>,
}

/// The predicted cost breakdown of one candidate, per epoch.
///
/// Counters (`words`, `messages`, `bytes_on_wire`) are pure functions of the
/// probe books, hence deterministic and CI-gateable exactly; the seconds mix
/// in measured compute and are gated softly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostBreakdown {
    /// Predicted words on the wire per epoch (world-summed).
    pub words: usize,
    /// Predicted messages per epoch (world-summed).
    pub messages: usize,
    /// Predicted bytes on the wire per epoch (world-summed).
    pub bytes_on_wire: usize,
    /// Predicted α–β communication seconds per epoch (per-rank share of the
    /// world-summed bill: `(α·messages + β·bytes/8) / p`).
    pub comm_s: f64,
    /// Predicted communication seconds hidden behind compute (zero for
    /// synchronous candidates).
    pub overlap_credit_s: f64,
    /// Measured compute seconds per epoch (the baseline probe's, common to
    /// every candidate so the ranking isolates the schedule effect).
    pub compute_s: f64,
}

impl CostBreakdown {
    /// Predicted effective epoch seconds:
    /// `compute + comm − overlap_credit`.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s - self.overlap_credit_s
    }

    /// The predicted communication seconds as integer nanoseconds — a
    /// deterministic counter suitable for exact CI gating.
    pub fn comm_ns(&self) -> u64 {
        (self.comm_s * 1e9).round() as u64
    }
}

/// One candidate together with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredChoice {
    /// The candidate schedule.
    pub choice: Schedule,
    /// Its predicted per-epoch cost breakdown.
    pub cost: CostBreakdown,
}

/// The valid knob grid at a fixed `(p, c)` process-grid shape.
///
/// Validity rules (each also unit-tested):
///
/// * `c` must divide `p` (the 1.5D grid constraint, validated via
///   [`ProcessGrid`] at construction);
/// * `overlap` must be creditable at this `c`
///   ([`Schedule::overlap_creditable`]);
/// * lossy codecs appear only after [`TuningGrid::with_lossy`] — bit-exact
///   training is the default and quantization is strictly opt-in.
///
/// ```
/// use dmbs_comm::tune::TuningGrid;
///
/// let grid = TuningGrid::new(4, 2).unwrap().with_lossy(true);
/// let candidates = grid.candidates();
/// // Every enumerated candidate is valid, and the default schedule is
/// // always the first (the all-ties winner).
/// assert!(candidates.iter().all(|choice| grid.is_valid(choice)));
/// assert_eq!(candidates[0], dmbs_comm::tune::Schedule::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TuningGrid {
    c: usize,
    allow_lossy: bool,
}

impl TuningGrid {
    /// Creates the grid for a `(p, c)` shape.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] when the shape is not a valid
    /// 1.5D process grid (`c` must divide `p`, both positive).
    pub fn new(p: usize, c: usize) -> Result<Self> {
        ProcessGrid::new(p, c)?;
        Ok(TuningGrid { c, allow_lossy: false })
    }

    /// Admits the lossy codecs (`Fp16`, `Int8`) to the grid.
    pub fn with_lossy(mut self, allow: bool) -> Self {
        self.allow_lossy = allow;
        self
    }

    /// Whether a candidate is a member of this grid.
    pub fn is_valid(&self, choice: &Schedule) -> bool {
        let codec_ok = choice.codec == Codec::Exact || self.allow_lossy;
        codec_ok && choice.overlap_creditable(self.c)
    }

    /// Enumerates every valid candidate in canonical lexicographic order:
    /// cache (`Pinned < Off`), then codec (`Exact < Fp16 < Int8`), then
    /// overlap (`off < on`).  The first candidate is always
    /// [`Schedule::default`].
    pub fn candidates(&self) -> Vec<Schedule> {
        let caches = [FeatureCacheConfig::Pinned, FeatureCacheConfig::Off];
        let codecs: &[Codec] = if self.allow_lossy {
            &[Codec::Exact, Codec::Fp16, Codec::Int8]
        } else {
            &[Codec::Exact]
        };
        let mut out = Vec::new();
        for &cache in &caches {
            for &codec in codecs {
                for overlap in [false, true] {
                    let choice = Schedule { cache, codec, overlap };
                    if self.is_valid(&choice) {
                        out.push(choice);
                    }
                }
            }
        }
        debug_assert!(out.windows(2).all(|w| w[0].lex_key() < w[1].lex_key()));
        out
    }
}

/// The fitted predictor: a [`CostModel`] plus calibrated per-knob terms from
/// a [`ProbeSet`].
///
/// ```
/// use dmbs_comm::tune::{FeatureCacheConfig, ProbeEpoch, ProbeSet, TuningGrid, TuningModel, search};
/// use dmbs_comm::CostModel;
///
/// // Synthetic probe books of a shape where the pinned cache halves the
/// // wire bill: 2000 words uncached, 1000 pinned + 1000 saved.
/// let baseline = ProbeEpoch {
///     words_sent: 2000,
///     messages: 80,
///     bytes_on_wire: 16000,
///     compute_s: 0.004,
///     propagation_compute_s: 0.003,
///     ..ProbeEpoch::default()
/// };
/// let pinned = ProbeEpoch {
///     words_sent: 1000,
///     messages: 40,
///     bytes_on_wire: 8000,
///     words_saved: 1000,
///     compute_s: 0.004,
///     propagation_compute_s: 0.003,
///     ..ProbeEpoch::default()
/// };
/// let probes = ProbeSet { baseline, pinned, ..ProbeSet::default() };
/// let model = TuningModel::fit(CostModel::new(2.0e-4, 5.0e-8), 4, probes).unwrap();
///
/// let grid = TuningGrid::new(4, 2).unwrap();
/// let outcome = search(&model, &grid);
/// // Fewer words and fewer messages: the pinned cache wins.
/// assert_eq!(outcome.chosen().choice.cache, FeatureCacheConfig::Pinned);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuningModel {
    cost: CostModel,
    ranks: usize,
    probes: ProbeSet,
}

impl TuningModel {
    /// Fits the model from probe books, verifying the double-entry
    /// identities that tie the probes together.
    ///
    /// # Errors
    ///
    /// Returns [`CommError::InvalidConfig`] when `ranks == 0`, when a probe
    /// that must be bit-exact booked saved bytes, or when the probes violate
    /// the cache identity
    /// `words(pinned) + words_saved(pinned) == words(baseline)` or the codec
    /// identity `bytes_on_wire + bytes_saved == 8 × words_sent`.
    pub fn fit(cost: CostModel, ranks: usize, probes: ProbeSet) -> Result<Self> {
        if ranks == 0 {
            return Err(CommError::InvalidConfig("tuning model requires at least one rank".into()));
        }
        for (name, probe) in [("baseline", &probes.baseline), ("pinned", &probes.pinned)] {
            if probe.bytes_on_wire != 8 * probe.words_sent || probe.bytes_saved != 0 {
                return Err(CommError::InvalidConfig(format!(
                    "{name} probe must run the exact codec: booked {} wire bytes + {} saved \
                     for {} words",
                    probe.bytes_on_wire, probe.bytes_saved, probe.words_sent
                )));
            }
        }
        if probes.pinned.words_sent + probes.pinned.words_saved != probes.baseline.words_sent {
            return Err(CommError::InvalidConfig(format!(
                "cache books don't balance: pinned sent {} + saved {} != baseline sent {}",
                probes.pinned.words_sent, probes.pinned.words_saved, probes.baseline.words_sent
            )));
        }
        for (name, probe) in [("fp16", probes.fp16.as_ref()), ("int8", probes.int8.as_ref())] {
            let Some(probe) = probe else { continue };
            if probe.words_sent != probes.pinned.words_sent {
                return Err(CommError::InvalidConfig(format!(
                    "{name} probe sent {} words but the pinned probe sent {}; codecs change \
                     bytes, never words",
                    probe.words_sent, probes.pinned.words_sent
                )));
            }
            if probe.bytes_on_wire + probe.bytes_saved != 8 * probe.words_sent {
                return Err(CommError::InvalidConfig(format!(
                    "{name} probe's byte books don't balance: {} on wire + {} saved != 8 × {}",
                    probe.bytes_on_wire, probe.bytes_saved, probe.words_sent
                )));
            }
        }
        if let Some(overlapped) = &probes.overlapped {
            if overlapped.words_sent != probes.pinned.words_sent {
                return Err(CommError::InvalidConfig(format!(
                    "overlapped probe sent {} words but the pinned probe sent {}; the \
                     overlapped schedule never changes the wire books",
                    overlapped.words_sent, probes.pinned.words_sent
                )));
            }
        }
        Ok(TuningModel { cost, ranks, probes })
    }

    /// Predicts the per-epoch cost breakdown of one candidate.
    ///
    /// Counters come from the probe books (cache knob selects between the
    /// baseline and pinned word bills; the codec knob subtracts the bytes
    /// its probe saved, scaled conservatively by the candidate's word bill);
    /// seconds charge `(α·messages + β·bytes/8) / p` plus the common
    /// measured compute, minus the calibrated overlap credit.
    pub fn predict(&self, choice: &Schedule) -> CostBreakdown {
        let probes = &self.probes;
        let (words, messages) = match choice.cache {
            FeatureCacheConfig::Off => (probes.baseline.words_sent, probes.baseline.messages),
            FeatureCacheConfig::Pinned => (probes.pinned.words_sent, probes.pinned.messages),
        };
        let saved_at_pinned = match choice.codec {
            Codec::Exact => 0,
            Codec::Fp16 => probes.fp16.map_or(0, |p| p.bytes_saved),
            Codec::Int8 => probes.int8.map_or(0, |p| p.bytes_saved),
        };
        // Codec savings were calibrated at the pinned word bill; scale them
        // by the candidate's word bill.  The scaling is conservative for the
        // uncached candidates: their extra words are all compressible
        // feature payload, so the true savings are at least this.
        let bytes_saved = if saved_at_pinned == 0 || probes.pinned.words_sent == 0 {
            0
        } else {
            let scale = words as f64 / probes.pinned.words_sent as f64;
            ((saved_at_pinned as f64 * scale).round() as usize).min(8 * words)
        };
        let bytes_on_wire = 8 * words - bytes_saved;
        let comm_s = (self.cost.alpha * messages as f64
            + self.cost.beta * (bytes_on_wire as f64 / 8.0))
            / self.ranks as f64;
        // Overlap credit: the hidden seconds the overlapped probe actually
        // measured (already capped by the propagation-compute budget),
        // further capped at this candidate's own bill — a schedule cannot
        // hide more communication than it performs.
        let overlap_credit_s = if choice.overlap {
            probes.overlapped.map_or(0.0, |o| self.cost.overlap_credit(comm_s, o.overlapped_s))
        } else {
            0.0
        };
        CostBreakdown {
            words,
            messages,
            bytes_on_wire,
            comm_s,
            overlap_credit_s,
            compute_s: probes.baseline.compute_s,
        }
    }
}

/// The result of a grid search: every candidate scored in canonical order,
/// plus the index of the arg-min.
#[derive(Debug, Clone, PartialEq)]
pub struct TuningOutcome {
    /// Every valid candidate with its predicted cost, in the grid's
    /// canonical lexicographic order.
    pub scored: Vec<ScoredChoice>,
    /// Index of the chosen (arg-min predicted epoch time) candidate in
    /// [`TuningOutcome::scored`].
    pub chosen_index: usize,
}

impl TuningOutcome {
    /// The chosen candidate.
    pub fn chosen(&self) -> &ScoredChoice {
        &self.scored[self.chosen_index]
    }
}

/// Scores every candidate of `grid` under `model` and picks the arg-min of
/// predicted effective epoch seconds.
///
/// Deterministic under ties: candidates are scored in the grid's canonical
/// lexicographic order and a later candidate replaces the incumbent only
/// when **strictly** cheaper, so an all-ties search (e.g. a shape with no
/// communication) keeps [`Schedule::default`].
pub fn search(model: &TuningModel, grid: &TuningGrid) -> TuningOutcome {
    let scored: Vec<ScoredChoice> = grid
        .candidates()
        .into_iter()
        .map(|choice| ScoredChoice { choice, cost: model.predict(&choice) })
        .collect();
    debug_assert!(!scored.is_empty(), "every grid contains at least the baseline candidate");
    let mut chosen_index = 0;
    for (i, candidate) in scored.iter().enumerate().skip(1) {
        if candidate.cost.total_s() < scored[chosen_index].cost.total_s() {
            chosen_index = i;
        }
    }
    TuningOutcome { scored, chosen_index }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(words: usize, messages: usize, saved: usize) -> ProbeEpoch {
        ProbeEpoch {
            words_sent: words,
            messages,
            bytes_on_wire: 8 * words,
            bytes_saved: 0,
            words_saved: saved,
            compute_s: 0.004,
            propagation_compute_s: 0.003,
            overlapped_s: 0.0,
        }
    }

    fn fitted(probes: ProbeSet) -> TuningModel {
        TuningModel::fit(CostModel::new(2.0e-4, 5.0e-8), 4, probes).expect("books balance")
    }

    fn basic_probes() -> ProbeSet {
        ProbeSet {
            baseline: probe(2000, 80, 0),
            pinned: probe(1000, 40, 1000),
            ..ProbeSet::default()
        }
    }

    #[test]
    fn grid_enumerates_only_valid_candidates() {
        let grid = TuningGrid::new(8, 4).unwrap().with_lossy(true);
        let candidates = grid.candidates();
        assert!(!candidates.is_empty());
        for choice in &candidates {
            assert!(grid.is_valid(choice), "enumerated invalid candidate {choice}");
            if choice.overlap {
                assert_eq!(choice.cache, FeatureCacheConfig::Pinned);
            }
        }
        // Full grid: 2 caches × 3 codecs × sync, plus overlap only for the
        // pinned cache.
        assert_eq!(candidates.len(), 2 * 3 + 3);
        assert_eq!(candidates[0], Schedule::default());
        // Canonical order is strictly lexicographic, so the strict-< arg-min
        // of `search` breaks every tie toward the plainer schedule.
        assert!(candidates.windows(2).all(|w| w[0].lex_key() < w[1].lex_key()));
    }

    #[test]
    fn cache_names_are_the_bench_record_keys() {
        // `policy: off|pinned` keys the committed ci/baseline records.
        let modes = [FeatureCacheConfig::Off, FeatureCacheConfig::Pinned];
        assert_eq!(modes.map(FeatureCacheConfig::name), ["off", "pinned"]);
        assert_eq!(modes.map(|m| m.is_enabled()), [false, true]);
    }

    #[test]
    fn schedule_payload_round_trips_and_rejects_malformed_tags() {
        let grid = TuningGrid::new(4, 2).unwrap().with_lossy(true);
        for schedule in grid.candidates() {
            let mut bytes = Vec::new();
            schedule.encode(&mut bytes);
            assert_eq!(bytes.len(), 8 * schedule.word_count(), "{schedule}");
            let input = &mut &bytes[..];
            assert_eq!(Schedule::decode(input), Some(schedule), "{schedule}");
            assert!(input.is_empty(), "{schedule}: decode must consume the encoding");
            for len in 0..bytes.len() {
                assert_eq!(Schedule::decode(&mut &bytes[..len]), None, "{schedule} prefix {len}");
            }
        }
        // Words of a synchronous exact schedule: cache tag, overlap flag,
        // codec tag.  The tags are the declaration order, not the tie-break
        // order: tag 0 is the uncached schedule, tag 1 the (pinned) default.
        let words = |cache: u64, overlap: u64, codec: u64| -> Vec<u8> {
            [cache, overlap, codec].iter().flat_map(|w| w.to_le_bytes()).collect()
        };
        let off = Schedule { cache: FeatureCacheConfig::Off, ..Schedule::default() };
        assert_eq!(Schedule::decode(&mut &words(0, 0, 0)[..]), Some(off));
        assert_eq!(Schedule::decode(&mut &words(1, 0, 0)[..]), Some(Schedule::default()));
        assert_eq!(Schedule::decode(&mut &words(2, 0, 0)[..]), None, "retired cache tag");
        assert_eq!(Schedule::decode(&mut &words(3, 0, 0)[..]), None, "unknown cache tag");
        assert_eq!(Schedule::decode(&mut &words(0, 2, 0)[..]), None, "non-0/1 overlap flag");
        assert_eq!(Schedule::decode(&mut &words(0, 0, 3)[..]), None, "unknown codec tag");
    }

    #[test]
    fn overlap_requires_wide_shape_and_pinned_cache() {
        let narrow = TuningGrid::new(4, 1).unwrap();
        assert!(narrow.candidates().iter().all(|choice| !choice.overlap));
        let cache = FeatureCacheConfig::Pinned;
        let pinned_overlap = Schedule { cache, codec: Codec::Exact, overlap: true };
        assert!(!narrow.is_valid(&pinned_overlap));

        let wide = TuningGrid::new(4, 2).unwrap();
        assert!(wide.is_valid(&pinned_overlap));
        assert!(wide.candidates().contains(&pinned_overlap));
        let off_overlap = Schedule { cache: FeatureCacheConfig::Off, ..pinned_overlap };
        assert!(!wide.is_valid(&off_overlap), "{off_overlap} must be rejected");
        assert!(!wide.candidates().contains(&off_overlap));
    }

    #[test]
    fn lossy_codecs_are_opt_in() {
        let plain = TuningGrid::new(4, 2).unwrap();
        assert_eq!(plain.candidates().len(), 3); // pinned, pinned+overlap, off
        assert!(plain.candidates().iter().all(|ch| ch.codec == Codec::Exact));
        let int8 = Schedule { codec: Codec::Int8, ..Schedule::default() };
        assert!(!plain.is_valid(&int8));
        assert!(plain.with_lossy(true).is_valid(&int8));
    }

    #[test]
    fn grid_rejects_invalid_shapes() {
        assert!(TuningGrid::new(4, 3).is_err());
        assert!(TuningGrid::new(0, 1).is_err());
        assert!(TuningGrid::new(4, 2).is_ok());
    }

    #[test]
    fn all_ties_keeps_the_baseline() {
        // No communication at all: every candidate predicts the same epoch
        // time, so the lexicographically-first (default) schedule wins.
        let probes =
            ProbeSet { baseline: probe(0, 0, 0), pinned: probe(0, 0, 0), ..ProbeSet::default() };
        let model = fitted(probes);
        let grid = TuningGrid::new(4, 2).unwrap().with_lossy(true);
        let outcome = search(&model, &grid);
        assert_eq!(outcome.chosen_index, 0);
        assert_eq!(outcome.chosen().choice, Schedule::default());
        // And the search is deterministic call-over-call.
        assert_eq!(search(&model, &grid), outcome);
    }

    #[test]
    fn pinned_cache_wins_when_it_saves_words() {
        let model = fitted(basic_probes());
        let outcome = search(&model, &TuningGrid::new(4, 2).unwrap());
        assert_eq!(outcome.chosen().choice.cache, FeatureCacheConfig::Pinned);
        // Without an overlapped probe the overlap knob scores no benefit, so
        // the synchronous schedule is kept by the tie-break.
        assert!(!outcome.chosen().choice.overlap);
        let chosen = outcome.chosen().cost;
        let off = outcome.scored.iter().find(|s| s.choice.cache == FeatureCacheConfig::Off);
        let off = off.expect("every grid enumerates the uncached schedule").cost;
        assert!(chosen.total_s() < off.total_s());
        assert_eq!(chosen.words, 1000);
        assert_eq!(off.words, 2000);
    }

    #[test]
    fn overlap_probe_unlocks_the_overlap_credit() {
        let mut probes = basic_probes();
        let mut overlapped = probes.pinned;
        overlapped.overlapped_s = 1.0e-4;
        probes.overlapped = Some(overlapped);
        let model = fitted(probes);
        let outcome = search(&model, &TuningGrid::new(4, 2).unwrap());
        let chosen = outcome.chosen();
        assert!(chosen.choice.overlap);
        assert_eq!(chosen.choice.cache, FeatureCacheConfig::Pinned);
        assert!(chosen.cost.overlap_credit_s > 0.0);
        // The credit never exceeds the candidate's own communication bill.
        assert!(chosen.cost.overlap_credit_s <= chosen.cost.comm_s);
    }

    #[test]
    fn codec_probe_unlocks_lossy_savings() {
        let mut probes = basic_probes();
        let mut int8 = probes.pinned;
        int8.words_saved = 0;
        int8.bytes_saved = 6000; // 8000 exact bytes -> 2000 on the wire
        int8.bytes_on_wire = 8 * int8.words_sent - int8.bytes_saved;
        probes.int8 = Some(int8);
        let model = fitted(probes);

        // Lossy not admitted: the codec stays exact.
        let lossless = search(&model, &TuningGrid::new(4, 2).unwrap());
        assert_eq!(lossless.chosen().choice.codec, Codec::Exact);

        // Lossy admitted: int8's measured byte savings win, and fp16 (no
        // probe, no credited savings) does not.
        let lossy = search(&model, &TuningGrid::new(4, 2).unwrap().with_lossy(true));
        assert_eq!(lossy.chosen().choice.codec, Codec::Int8);
        let chosen = lossy.chosen().cost;
        assert_eq!(chosen.bytes_on_wire, 2000);
        assert!(chosen.comm_s < lossless.chosen().cost.comm_s);
    }

    #[test]
    fn fit_rejects_unbalanced_books() {
        // Cache identity violated.
        let bad = ProbeSet {
            baseline: probe(2000, 80, 0),
            pinned: probe(1500, 40, 1000),
            ..ProbeSet::default()
        };
        assert!(TuningModel::fit(CostModel::default(), 4, bad).is_err());
        // Baseline probe must be bit-exact.
        let mut probes = basic_probes();
        probes.baseline.bytes_saved = 8;
        probes.baseline.bytes_on_wire -= 8;
        assert!(TuningModel::fit(CostModel::default(), 4, probes).is_err());
        // Codec probes never change word counts.
        let mut probes = basic_probes();
        let mut fp16 = probes.pinned;
        fp16.words_sent += 1;
        fp16.bytes_on_wire = 8 * fp16.words_sent;
        probes.fp16 = Some(fp16);
        assert!(TuningModel::fit(CostModel::default(), 4, probes).is_err());
        // Zero ranks rejected.
        assert!(TuningModel::fit(CostModel::default(), 0, basic_probes()).is_err());
    }

    #[test]
    fn probe_books_extraction() {
        let mut profile = PhaseProfile::new();
        profile.add_compute(Phase::Sampling, 0.002);
        profile.add_compute(Phase::Propagation, 0.003);
        profile.add_comm(Phase::FeatureFetch, 0.001);
        profile.add_overlap(Phase::FeatureFetch, 0.0005);
        let model = CostModel::default();
        let mut stats = CommStats::new();
        stats.record(50, &model);
        stats.record(30, &model);
        stats.record(20, &model);
        let probe = ProbeEpoch::from_books(&profile, &stats);
        assert_eq!(probe.words_sent, 100);
        assert_eq!(probe.messages, 3);
        assert_eq!(probe.bytes_on_wire, 800);
        assert!((probe.compute_s - 0.005).abs() < 1e-12);
        assert!((probe.propagation_compute_s - 0.003).abs() < 1e-12);
        assert!((probe.overlapped_s - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn breakdown_arithmetic() {
        let model = fitted(basic_probes());
        let cost =
            model.predict(&Schedule { cache: FeatureCacheConfig::Off, ..Schedule::default() });
        assert_eq!(cost.bytes_on_wire, 8 * cost.words);
        let expected = (2.0e-4 * 80.0 + 5.0e-8 * 2000.0) / 4.0;
        assert!((cost.comm_s - expected).abs() < 1e-15);
        assert_eq!(cost.comm_ns(), (expected * 1e9).round() as u64);
        assert!((cost.total_s() - (cost.compute_s + cost.comm_s)).abs() < 1e-15);
    }
}
