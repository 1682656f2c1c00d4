//! Byte-level wire codec shared by both transports.
//!
//! Every message the [`Communicator`](crate::Communicator) sends is encoded
//! to bytes, whether the in-process simulator or the socket backend carries
//! it between ranks, so both run the same decoders on the same bytes.  This
//! module keeps that encoding deliberately boring and bit-exact:
//!
//! * all integers are little-endian `u64` (usize values are widened, which
//!   is lossless on every supported target);
//! * `f64` travels as its IEEE-754 bit pattern via [`f64::to_bits`], so a
//!   value round-trips to the *identical* bits — the property the
//!   cross-transport equivalence sweep pins (loss bits must match the
//!   simulator exactly);
//! * containers are length-prefixed, elements in order.
//!
//! Every [`Payload`](crate::Payload) type carries a structural
//! [`type_code`](crate::Payload::type_code) that the receiving side checks
//! before decoding, so mismatched collectives across ranks surface as
//! [`CommError::TypeMismatch`](crate::CommError::TypeMismatch) on either
//! transport.

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a `usize` widened to `u64`.
pub fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

/// Appends an `i64` via its two's-complement bit pattern.
pub fn put_i64(out: &mut Vec<u8>, v: i64) {
    put_u64(out, v as u64);
}

/// Appends an `f64` as its exact IEEE-754 bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed byte slice.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_usize(out, bytes.len());
    out.extend_from_slice(bytes);
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Reads a little-endian `u64`, advancing the slice.  `None` on underrun.
pub fn get_u64(input: &mut &[u8]) -> Option<u64> {
    let (head, rest) = input.split_first_chunk::<8>()?;
    *input = rest;
    Some(u64::from_le_bytes(*head))
}

/// Reads a `u64` and narrows it to `usize`.  `None` on underrun or if the
/// value does not fit (a corrupt frame, not a platform we support).
pub fn get_usize(input: &mut &[u8]) -> Option<usize> {
    usize::try_from(get_u64(input)?).ok()
}

/// Reads an `i64`.
pub fn get_i64(input: &mut &[u8]) -> Option<i64> {
    get_u64(input).map(|v| v as i64)
}

/// Reads an `f64` from its bit pattern — the exact inverse of [`put_f64`].
pub fn get_f64(input: &mut &[u8]) -> Option<f64> {
    get_u64(input).map(f64::from_bits)
}

/// Reads a length-prefixed byte slice as an owned vector.
pub fn get_bytes(input: &mut &[u8]) -> Option<Vec<u8>> {
    let len = get_usize(input)?;
    if input.len() < len {
        return None;
    }
    let (head, rest) = input.split_at(len);
    let out = head.to_vec();
    *input = rest;
    Some(out)
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str(input: &mut &[u8]) -> Option<String> {
    String::from_utf8(get_bytes(input)?).ok()
}

/// Appends a length-prefixed `Vec<u64>`.
pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_u64(out, v);
    }
}

/// Reads a length-prefixed `Vec<u64>`.
pub fn get_u64s(input: &mut &[u8]) -> Option<Vec<u64>> {
    let len = get_usize(input)?;
    if input.len() < len.checked_mul(8)? {
        return None;
    }
    (0..len).map(|_| get_u64(input)).collect()
}

/// Appends a length-prefixed `Vec<usize>`.
pub fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_usize(out, v);
    }
}

/// Reads a length-prefixed `Vec<usize>`.
pub fn get_usizes(input: &mut &[u8]) -> Option<Vec<usize>> {
    let len = get_usize(input)?;
    if input.len() < len.checked_mul(8)? {
        return None;
    }
    (0..len).map(|_| get_usize(input)).collect()
}

/// Appends a length-prefixed `Vec<f64>` (bit patterns, see [`put_f64`]).
pub fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

/// Reads a length-prefixed `Vec<f64>`.
pub fn get_f64s(input: &mut &[u8]) -> Option<Vec<f64>> {
    let len = get_usize(input)?;
    if input.len() < len.checked_mul(8)? {
        return None;
    }
    (0..len).map(|_| get_f64(input)).collect()
}

/// Combines a container/constructor code with element codes into one `u64`.
///
/// The mixing is a Fowler–Noll–Vo style fold: cheap, deterministic, and with
/// enough spread that distinct payload compositions (e.g. `Vec<f64>` vs
/// `Vec<Vec<f64>>` vs `(usize, Vec<f64>)`) get distinct codes.  Codes are a
/// *consistency check* between two builds of the same binary, not a
/// cross-version schema, so structural hashing is exactly enough.
pub fn compose_type_code(constructor: u64, parts: &[u64]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64 ^ constructor;
    for &p in parts {
        h ^= p;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_bit_exactly() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        put_usize(&mut buf, 42);
        put_i64(&mut buf, -7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_f64(&mut buf, 1.0e-300);
        let mut s = buf.as_slice();
        assert_eq!(get_u64(&mut s), Some(u64::MAX));
        assert_eq!(get_usize(&mut s), Some(42));
        assert_eq!(get_i64(&mut s), Some(-7));
        // -0.0 and NaN keep their exact bit patterns.
        assert_eq!(get_f64(&mut s).unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(get_f64(&mut s).unwrap().is_nan());
        assert_eq!(get_f64(&mut s), Some(1.0e-300));
        assert!(s.is_empty());
    }

    #[test]
    fn containers_round_trip() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"abc");
        put_str(&mut buf, "hello");
        put_usizes(&mut buf, &[1, 2, 3]);
        put_f64s(&mut buf, &[0.5, -0.25]);
        put_u64s(&mut buf, &[9, 8]);
        let mut s = buf.as_slice();
        assert_eq!(get_bytes(&mut s).unwrap(), b"abc");
        assert_eq!(get_str(&mut s).unwrap(), "hello");
        assert_eq!(get_usizes(&mut s).unwrap(), vec![1, 2, 3]);
        assert_eq!(get_f64s(&mut s).unwrap(), vec![0.5, -0.25]);
        assert_eq!(get_u64s(&mut s).unwrap(), vec![9, 8]);
        assert!(s.is_empty());
    }

    #[test]
    fn underruns_are_none_not_panics() {
        let mut s: &[u8] = &[1, 2, 3];
        assert_eq!(get_u64(&mut s), None);
        // Length prefix claims more bytes than remain.
        let mut buf = Vec::new();
        put_usize(&mut buf, 100);
        let mut s = buf.as_slice();
        assert_eq!(get_bytes(&mut s), None);
        let mut buf = Vec::new();
        put_usize(&mut buf, usize::MAX); // overflow-bait length
        let mut s = buf.as_slice();
        assert_eq!(get_f64s(&mut s), None);
    }

    #[test]
    fn type_codes_distinguish_compositions() {
        let f = compose_type_code(1, &[]);
        let vf = compose_type_code(10, &[f]);
        let vvf = compose_type_code(10, &[vf]);
        let pair = compose_type_code(20, &[f, vf]);
        let codes = [f, vf, vvf, pair];
        for (i, a) in codes.iter().enumerate() {
            for (j, b) in codes.iter().enumerate() {
                assert_eq!(i == j, a == b, "codes must be pairwise distinct");
            }
        }
    }
}
