//! Wire codecs for feature rows: the β-bill compression layer.
//!
//! The feature-fetch replies of the training pipeline move dense `f64` rows
//! across the all-to-allv lanes — the dominant β (per-word) term of the
//! modeled communication bill.  A [`Codec`] picks how those rows travel:
//!
//! | codec           | bytes/value | loss                                     |
//! |-----------------|-------------|------------------------------------------|
//! | [`Codec::Exact`]| 8           | none (bit-exact, the default)            |
//! | [`Codec::Fp16`] | 2           | round-to-nearest-even to IEEE-754 half   |
//! | [`Codec::Int8`] | ~1 (+9/row) | per-row linear quantization, `max/127` scale |
//!
//! A [`WireRows`] value is the unit that crosses the wire: its **canonical
//! form is the encoded bytes**, produced once at the sender.  Both transports
//! carry that same byte string framed by [`Payload::encode`], and the
//! receiver checks it with [`Payload::decode`] and decodes it with the same
//! deterministic little-endian routines — so sim and socket stay
//! bit-identical to each other under every codec, and the lossy quantization
//! is applied exactly once.
//!
//! Non-finite policy (stated, and pinned by tests): under [`Codec::Fp16`],
//! values whose magnitude exceeds the half-precision range overflow to ±∞
//! and NaN is canonicalized to a quiet half NaN; under [`Codec::Int8`], any
//! row containing a non-finite value is escaped and shipped bit-exactly, so
//! quantization never manufactures finite values from infinities.
//!
//! Accounting: [`WireRows::word_count`] stays the *logical* row volume
//! (`rows × dim` words) so word-level books are comparable across codecs,
//! while [`WireRows::wire_bytes`] reports the encoded size — the
//! communicator books the difference into
//! [`CommStats::bytes_saved`](crate::CommStats::bytes_saved) and charges β
//! on the real bytes.

use crate::collectives::Payload;
use crate::wire;
use serde::{Deserialize, Serialize};

/// How feature rows are encoded on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Codec {
    /// Bit-exact `f64` (8 bytes/value) — the default; byte-identical to the
    /// uncompressed pipeline.
    #[default]
    Exact,
    /// IEEE-754 half precision (2 bytes/value), round-to-nearest-even.
    Fp16,
    /// Per-row linear quantization to `i8` with an `f64` scale (`max_abs /
    /// 127`) per row; rows containing non-finite values escape to exact.
    Int8,
}

impl Codec {
    /// All codecs, in sweep order.
    pub const ALL: [Codec; 3] = [Codec::Exact, Codec::Fp16, Codec::Int8];

    /// Stable wire tag of this codec.
    pub fn tag(self) -> u64 {
        match self {
            Codec::Exact => 0,
            Codec::Fp16 => 1,
            Codec::Int8 => 2,
        }
    }

    /// Inverse of [`Codec::tag`].
    pub fn from_tag(tag: u64) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Exact),
            1 => Some(Codec::Fp16),
            2 => Some(Codec::Int8),
            _ => None,
        }
    }

    /// Lower-case name used by harness CLI flags and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Codec::Exact => "exact",
            Codec::Fp16 => "fp16",
            Codec::Int8 => "int8",
        }
    }

    /// Inverse of [`Codec::name`].
    pub fn from_name(name: &str) -> Option<Codec> {
        match name {
            "exact" => Some(Codec::Exact),
            "fp16" => Some(Codec::Fp16),
            "int8" => Some(Codec::Int8),
            _ => None,
        }
    }

    /// Whether decoding returns the encoded values bit-exactly.
    pub fn is_exact(self) -> bool {
        self == Codec::Exact
    }
}

impl std::fmt::Display for Codec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Converts `v` to IEEE-754 half-precision bits (round-to-nearest-even via
/// `f32`; overflow saturates to ±∞, NaN canonicalizes to a quiet half NaN,
/// subnormal halves are produced for small magnitudes).
pub fn f64_to_f16_bits(v: f64) -> u16 {
    let bits = (v as f32).to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let man = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // ±∞ keeps a zero mantissa; NaN keeps a quiet-bit payload.
        return sign | 0x7C00 | if man != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased >= 16 {
        return sign | 0x7C00; // overflow → ±∞
    }
    if unbiased >= -14 {
        // Normal half: keep 10 mantissa bits, round to nearest even.  The
        // round-up may carry into the exponent (and up to ∞), which is the
        // correct RNE result.
        let mant = man >> 13;
        let rest = man & 0x1FFF;
        let mut h = sign as u32 | (((unbiased + 15) as u32) << 10) | mant;
        if rest > 0x1000 || (rest == 0x1000 && (mant & 1) == 1) {
            h += 1;
        }
        return h as u16;
    }
    if unbiased >= -25 {
        // Subnormal half.
        let full = man | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let mant = full >> shift;
        let rest = full & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = sign as u32 | mant;
        if rest > halfway || (rest == halfway && (mant & 1) == 1) {
            h += 1;
        }
        return h as u16;
    }
    sign // underflow → ±0
}

/// Converts IEEE-754 half-precision bits back to `f64` (exact: every half
/// value is representable in `f64`).
pub fn f16_bits_to_f64(h: u16) -> f64 {
    let sign = ((h as u32) & 0x8000) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let man = ((h & 0x3FF) as u32) << 13;
    let bits = if exp == 0x1F {
        sign | 0x7F80_0000 | man // ±∞ / NaN
    } else if exp == 0 {
        if man == 0 {
            sign // ±0
        } else {
            // Subnormal half → normal f32: shift the mantissa up to the
            // implicit bit, decrementing the exponent per shift.
            let mut exp32: u32 = 113; // 127 - 15 + 1
            let mut m = (h & 0x3FF) as u32;
            while m & 0x0400 == 0 {
                m <<= 1;
                exp32 -= 1;
            }
            sign | (exp32 << 23) | ((m & 0x3FF) << 13)
        }
    } else {
        sign | ((exp + 112) << 23) | man
    };
    f32::from_bits(bits) as f64
}

/// Per-row escape tag of the int8 codec: 0 = quantized, 1 = exact row.
const INT8_ROW_QUANTIZED: u8 = 0;
const INT8_ROW_EXACT: u8 = 1;

/// A batch of dense feature rows in wire form — the payload of the
/// feature-fetch reply lanes.
///
/// The canonical form is the encoded byte string (built once by
/// [`WireRows::from_rows`]); [`WireRows::rows`] decodes it.  Equality is
/// byte equality, so two `WireRows` that compare equal decode identically on
/// every transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRows {
    codec: Codec,
    dim: usize,
    num_rows: usize,
    bytes: Vec<u8>,
}

impl WireRows {
    /// Encodes `flat` (row-major, `flat.len() == num_rows × dim`) under
    /// `codec`.
    ///
    /// # Panics
    ///
    /// Panics if `flat.len()` is not a multiple of `dim` (or non-empty while
    /// `dim == 0`) — an internal-invariant violation, not a wire condition.
    pub fn from_rows(codec: Codec, dim: usize, flat: &[f64]) -> Self {
        let num_rows = if dim == 0 {
            assert!(flat.is_empty(), "rows with dim 0 must be empty");
            0
        } else {
            assert_eq!(flat.len() % dim, 0, "flat length must be a multiple of dim");
            flat.len() / dim
        };
        let bytes = match codec {
            Codec::Exact => {
                let mut out = Vec::with_capacity(8 * flat.len());
                for &v in flat {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                out
            }
            Codec::Fp16 => {
                let mut out = Vec::with_capacity(2 * flat.len());
                for &v in flat {
                    out.extend_from_slice(&f64_to_f16_bits(v).to_le_bytes());
                }
                out
            }
            Codec::Int8 => {
                let mut out = Vec::with_capacity(num_rows * (10 + dim));
                for row in flat.chunks_exact(dim.max(1)) {
                    if row.iter().any(|v| !v.is_finite()) {
                        out.push(INT8_ROW_EXACT);
                        for &v in row {
                            out.extend_from_slice(&v.to_bits().to_le_bytes());
                        }
                    } else {
                        let max_abs = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
                        let scale = max_abs / 127.0;
                        out.push(INT8_ROW_QUANTIZED);
                        out.extend_from_slice(&scale.to_bits().to_le_bytes());
                        for &v in row {
                            let q = if scale == 0.0 {
                                0.0
                            } else {
                                (v / scale).round().clamp(-127.0, 127.0)
                            };
                            out.push((q as i8) as u8);
                        }
                    }
                }
                out
            }
        };
        WireRows { codec, dim, num_rows, bytes }
    }

    /// The codec the rows were encoded under.
    pub fn codec(&self) -> Codec {
        self.codec
    }

    /// Values per row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Decodes the rows back to a flat row-major `f64` vector of length
    /// `num_rows × dim` — deterministic, and bit-exact under
    /// [`Codec::Exact`].
    pub fn rows(&self) -> Vec<f64> {
        self.decode_checked().expect("canonical bytes always decode")
    }

    /// Decodes the canonical bytes, or `None` if they are malformed (only
    /// reachable via a corrupt wire frame; values built by
    /// [`WireRows::from_rows`] always decode).
    fn decode_checked(&self) -> Option<Vec<f64>> {
        let n = self.num_rows.checked_mul(self.dim)?;
        // Every codec spends at least one body byte per value, so a header
        // promising more values than the body holds is forged: reject it
        // before sizing an allocation by it.
        if n > self.bytes.len() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        let mut input = self.bytes.as_slice();
        let mut take = |len: usize| -> Option<&[u8]> {
            if input.len() < len {
                return None;
            }
            let (head, tail) = input.split_at(len);
            input = tail;
            Some(head)
        };
        match self.codec {
            Codec::Exact => {
                for _ in 0..n {
                    let b = take(8)?;
                    out.push(f64::from_bits(u64::from_le_bytes(b.try_into().ok()?)));
                }
            }
            Codec::Fp16 => {
                for _ in 0..n {
                    let b = take(2)?;
                    out.push(f16_bits_to_f64(u16::from_le_bytes(b.try_into().ok()?)));
                }
            }
            Codec::Int8 => {
                for _ in 0..self.num_rows {
                    match *take(1)?.first()? {
                        INT8_ROW_EXACT => {
                            for _ in 0..self.dim {
                                let b = take(8)?;
                                out.push(f64::from_bits(u64::from_le_bytes(b.try_into().ok()?)));
                            }
                        }
                        INT8_ROW_QUANTIZED => {
                            let b = take(8)?;
                            let scale = f64::from_bits(u64::from_le_bytes(b.try_into().ok()?));
                            if !scale.is_finite() || scale < 0.0 {
                                return None;
                            }
                            for &q in take(self.dim)? {
                                out.push((q as i8) as f64 * scale);
                            }
                        }
                        _ => return None,
                    }
                }
            }
        }
        if !input.is_empty() {
            return None;
        }
        Some(out)
    }
}

impl Payload for WireRows {
    /// The *logical* volume — `rows × dim` f64 words — so word-level books
    /// stay comparable across codecs (compression shrinks
    /// [`WireRows::wire_bytes`], never the word count).
    fn word_count(&self) -> usize {
        self.num_rows * self.dim
    }

    /// The encoded size: exactly `8 × word_count` under [`Codec::Exact`],
    /// smaller under the compressed codecs.
    fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn type_code() -> u64 {
        wire::compose_type_code(40, &[])
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.codec.tag());
        wire::put_usize(out, self.dim);
        wire::put_usize(out, self.num_rows);
        wire::put_bytes(out, &self.bytes);
    }

    fn decode(input: &mut &[u8]) -> Option<Self> {
        let codec = Codec::from_tag(wire::get_u64(input)?)?;
        let dim = wire::get_usize(input)?;
        let num_rows = wire::get_usize(input)?;
        let bytes = wire::get_bytes(input)?;
        let value = WireRows { codec, dim, num_rows, bytes };
        // Reject malformed bodies on receive, like every other payload.
        value.decode_checked()?;
        Some(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(codec: Codec, dim: usize, flat: &[f64]) -> Vec<f64> {
        let w = WireRows::from_rows(codec, dim, flat);
        // Wire round-trip (socket path) must reproduce the same value.
        let mut bytes = Vec::new();
        w.encode(&mut bytes);
        let mut input = bytes.as_slice();
        let back = WireRows::decode(&mut input).expect("decodes");
        assert!(input.is_empty());
        assert_eq!(back, w);
        w.rows()
    }

    #[test]
    fn exact_is_bit_exact() {
        let flat = [1.5, -0.0, f64::MIN_POSITIVE, 1e300, -7.25, f64::INFINITY];
        let out = round_trip(Codec::Exact, 3, &flat);
        for (a, b) in flat.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let w = WireRows::from_rows(Codec::Exact, 3, &flat);
        assert_eq!(w.word_count(), 6);
        assert_eq!(w.wire_bytes(), 48);
    }

    #[test]
    fn fp16_bounds_relative_error_for_normals() {
        let mut vals = vec![0.0, -0.0, 1.0, -1.0, 0.5, 65504.0, 6.1e-5];
        for i in 0..100 {
            vals.push((i as f64 * 0.731 - 36.0) * 1.37);
        }
        let out = round_trip(Codec::Fp16, 1, &vals);
        for (&v, &d) in vals.iter().zip(&out) {
            if v != 0.0 {
                assert!((d - v).abs() <= v.abs() / 1024.0, "v={v} decoded={d}");
            } else {
                assert_eq!(d, 0.0);
            }
        }
        let w = WireRows::from_rows(Codec::Fp16, 1, &vals);
        assert_eq!(w.wire_bytes(), 2 * vals.len());
    }

    #[test]
    fn fp16_nonfinite_policy() {
        // Overflow saturates to ±∞; ∞ and NaN survive as themselves.
        let out =
            round_trip(Codec::Fp16, 1, &[1e10, -1e10, f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
        assert_eq!(out[0], f64::INFINITY);
        assert_eq!(out[1], f64::NEG_INFINITY);
        assert_eq!(out[2], f64::INFINITY);
        assert_eq!(out[3], f64::NEG_INFINITY);
        assert!(out[4].is_nan());
    }

    #[test]
    fn fp16_round_trips_every_finite_half_exactly() {
        for h in 0u16..=0xFFFF {
            let v = f16_bits_to_f64(h);
            if v.is_finite() {
                let back = f64_to_f16_bits(v);
                // ±0 canonicalize to themselves; every half is a fixpoint.
                assert_eq!(back, h, "h={h:#06x} v={v}");
            }
        }
    }

    #[test]
    fn int8_bounds_absolute_error_by_row_max() {
        let rows = [vec![1.0, -0.5, 0.25, 100.0], vec![-3.0, 3.0, 0.0, 1.5]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let out = round_trip(Codec::Int8, 4, &flat);
        for (r, row) in rows.iter().enumerate() {
            let max_abs = row.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            for (j, &v) in row.iter().enumerate() {
                let d = out[r * 4 + j];
                assert!(
                    (d - v).abs() <= max_abs / 254.0 + 1e-12,
                    "row {r} col {j}: v={v} decoded={d}"
                );
            }
        }
    }

    #[test]
    fn int8_all_zero_row_is_exact_and_nonfinite_rows_escape() {
        let out = round_trip(Codec::Int8, 2, &[0.0, 0.0]);
        assert_eq!(out, vec![0.0, 0.0]);
        // A row with a NaN or ∞ ships bit-exactly (escape tag).
        let flat = [f64::NAN, 42.125, 1.0, 2.0];
        let out = round_trip(Codec::Int8, 2, &flat);
        assert!(out[0].is_nan());
        assert_eq!(out[1].to_bits(), 42.125f64.to_bits());
        // The finite row still quantizes.
        assert!((out[2] - 1.0).abs() <= 2.0 / 254.0 + 1e-12);
        let w = WireRows::from_rows(Codec::Int8, 2, &flat);
        assert_eq!(w.wire_bytes(), (1 + 16) + (1 + 8 + 2));
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        for codec in Codec::ALL {
            let w = WireRows::from_rows(codec, 5, &[]);
            assert_eq!(w.num_rows(), 0);
            assert_eq!(w.word_count(), 0);
            assert_eq!(w.wire_bytes(), 0);
            assert!(round_trip(codec, 5, &[]).is_empty());
            // Single-value row.
            let out = round_trip(codec, 1, &[2.0]);
            assert_eq!(out, vec![2.0]);
            // dim == 0 is the empty batch.
            assert!(round_trip(codec, 0, &[]).is_empty());
        }
    }

    #[test]
    fn corrupt_frames_decode_to_none() {
        let w = WireRows::from_rows(Codec::Int8, 2, &[1.0, 2.0]);
        let mut bytes = Vec::new();
        w.encode(&mut bytes);
        // Unknown codec tag.
        let mut bad = bytes.clone();
        bad[0] = 9;
        assert!(WireRows::decode(&mut bad.as_slice()).is_none());
        // Truncated body.
        let mut input = &bytes[..bytes.len() - 1];
        assert!(WireRows::decode(&mut input).is_none());
        // Bad row tag inside the body: the first body byte sits after the
        // codec/dim/rows header words and the 8-byte length prefix.
        let body_start = 8 * 4;
        let mut bad = bytes.clone();
        bad[body_start] = 9;
        assert!(WireRows::decode(&mut bad.as_slice()).is_none());
    }

    #[test]
    fn forged_row_count_is_rejected_without_allocating_it() {
        // A 16-byte Exact body holds two values; the headers claim 2^40 and
        // 2^60 of them.  Decoding must answer `None`, not size a buffer by
        // the claim (an allocation abort or a capacity-overflow panic).
        for (num_rows, dim) in [(1usize << 36, 16usize), (1 << 60, 1)] {
            let mut frame = Vec::new();
            wire::put_u64(&mut frame, Codec::Exact.tag());
            wire::put_usize(&mut frame, dim);
            wire::put_usize(&mut frame, num_rows);
            wire::put_bytes(&mut frame, &[0u8; 16]);
            assert!(
                WireRows::decode(&mut frame.as_slice()).is_none(),
                "{num_rows} rows x {dim} columns over a 16-byte body must be rejected"
            );
        }
    }

    #[test]
    fn codec_names_and_tags_round_trip() {
        for codec in Codec::ALL {
            assert_eq!(Codec::from_tag(codec.tag()), Some(codec));
            assert_eq!(Codec::from_name(codec.name()), Some(codec));
            assert_eq!(format!("{codec}"), codec.name());
        }
        assert_eq!(Codec::from_tag(3), None);
        assert_eq!(Codec::from_name("lz4"), None);
        assert_eq!(Codec::default(), Codec::Exact);
        assert!(Codec::Exact.is_exact() && !Codec::Fp16.is_exact());
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_codecs_round_trip_within_stated_bounds(
            values in proptest::collection::vec(-60000.0f64..60000.0, 0..64),
            dim in 1usize..8,
        ) {
            // Truncate to a whole number of rows (covers the empty frame).
            let mut flat = values;
            flat.truncate(flat.len() - flat.len() % dim);
            let num_rows = flat.len() / dim;

            // Exact: bit-for-bit, 8 bytes per value on the wire.
            let exact = WireRows::from_rows(Codec::Exact, dim, &flat);
            prop_assert_eq!(exact.wire_bytes(), flat.len() * 8);
            let back = exact.rows();
            prop_assert_eq!(back.len(), flat.len());
            for (a, b) in flat.iter().zip(&back) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }

            // Fp16: 2 bytes per value; relative error ≤ 2⁻¹⁰ for normals,
            // absolute ≤ 2⁻²⁵ in the subnormal range — and quantizing an
            // already-quantized row is a fixed point (bit-exact).
            let wire = WireRows::from_rows(Codec::Fp16, dim, &flat);
            prop_assert_eq!(wire.wire_bytes(), flat.len() * 2);
            let half = wire.rows();
            for (v, d) in flat.iter().zip(&half) {
                prop_assert!((v - d).abs() <= (v.abs() / 1024.0).max(6e-8));
            }
            let again = WireRows::from_rows(Codec::Fp16, dim, &half).rows();
            for (a, b) in half.iter().zip(&again) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }

            // Int8: 1 tag + 8-byte scale + dim quants per (finite) row;
            // absolute error ≤ row_max/254 per value.
            let wire = WireRows::from_rows(Codec::Int8, dim, &flat);
            prop_assert_eq!(wire.wire_bytes(), num_rows * (1 + 8 + dim));
            let int8 = wire.rows();
            for (row, drow) in flat.chunks(dim).zip(int8.chunks(dim)) {
                let max = row.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                for (v, d) in row.iter().zip(drow) {
                    prop_assert!((v - d).abs() <= max / 254.0 + 1e-12);
                }
            }
        }

        #[test]
        fn prop_wire_frames_survive_the_payload_codec(
            values in proptest::collection::vec(-1e6f64..1e6, 0..36),
            dim in 1usize..6,
            which in 0usize..3,
        ) {
            // encode → decode over the tagged-frame codec (what actually
            // crosses the socket transport) preserves the encoded bytes
            // exactly, for every wire codec.
            let mut flat = values;
            flat.truncate(flat.len() - flat.len() % dim);
            let wire = WireRows::from_rows(Codec::ALL[which], dim, &flat);
            let mut bytes = Vec::new();
            wire.encode(&mut bytes);
            let back = WireRows::decode(&mut bytes.as_slice()).expect("frame decodes");
            prop_assert_eq!(back.codec(), wire.codec());
            prop_assert_eq!(back.wire_bytes(), wire.wire_bytes());
            let (a, b) = (wire.rows(), back.rows());
            for (x, y) in a.iter().zip(&b) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
