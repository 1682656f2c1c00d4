//! Prefix sums.
//!
//! Inverse transform sampling (ITS) — the distribution-sampling primitive used
//! by the paper (§2.3) — runs a prefix sum over each probability row and then
//! binary-searches uniform random numbers into it.  These helpers implement
//! the inclusive/exclusive scans and the search.

/// Inclusive prefix sum of `values`: `out[i] = values[0] + ... + values[i]`.
///
/// # Example
///
/// ```
/// let scan = dmbs_matrix::prefix::inclusive_scan(&[1.0, 2.0, 3.0]);
/// assert_eq!(scan, vec![1.0, 3.0, 6.0]);
/// ```
pub fn inclusive_scan(values: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len());
    let mut acc = 0.0;
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

/// Exclusive prefix sum over `usize` counts, returning a vector one longer
/// than the input whose last element is the total.  This is the standard
/// "counts to offsets" transform used when building CSR structures.
///
/// # Example
///
/// ```
/// let offsets = dmbs_matrix::prefix::counts_to_offsets(&[2, 0, 3]);
/// assert_eq!(offsets, vec![0, 2, 2, 5]);
/// ```
pub fn counts_to_offsets(counts: &[usize]) -> Vec<usize> {
    let mut out = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    out.push(0);
    for &c in counts {
        acc += c;
        out.push(acc);
    }
    out
}

/// Binary search for the first index `i` such that `scan[i] >= target`, where
/// `scan` is a non-decreasing inclusive prefix sum.  Returns `scan.len() - 1`
/// when `target` exceeds the total mass (guards against floating point
/// round-off at the top of the range).
///
/// # Panics
///
/// Panics if `scan` is empty.
pub fn upper_bound(scan: &[f64], target: f64) -> usize {
    assert!(!scan.is_empty(), "upper_bound requires a non-empty scan");
    let mut lo = 0usize;
    let mut hi = scan.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if scan[mid] >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo.min(scan.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn inclusive_basic() {
        assert_eq!(inclusive_scan(&[]), Vec::<f64>::new());
        assert_eq!(inclusive_scan(&[5.0]), vec![5.0]);
        assert_eq!(inclusive_scan(&[1.0, 1.0, 1.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn counts_to_offsets_basic() {
        assert_eq!(counts_to_offsets(&[]), vec![0]);
        assert_eq!(counts_to_offsets(&[3]), vec![0, 3]);
        assert_eq!(counts_to_offsets(&[1, 2, 3]), vec![0, 1, 3, 6]);
    }

    #[test]
    fn upper_bound_selects_bucket() {
        let scan = inclusive_scan(&[0.2, 0.3, 0.5]);
        assert_eq!(upper_bound(&scan, 0.1), 0);
        assert_eq!(upper_bound(&scan, 0.2), 0);
        assert_eq!(upper_bound(&scan, 0.21), 1);
        assert_eq!(upper_bound(&scan, 0.5), 1);
        assert_eq!(upper_bound(&scan, 0.99), 2);
        // Above total mass clamps to last bucket.
        assert_eq!(upper_bound(&scan, 1.5), 2);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn upper_bound_empty_panics() {
        upper_bound(&[], 0.5);
    }

    proptest! {
        #[test]
        fn inclusive_last_is_total(values in proptest::collection::vec(0.0f64..10.0, 1..100)) {
            let scan = inclusive_scan(&values);
            let total: f64 = values.iter().sum();
            prop_assert!((scan[scan.len() - 1] - total).abs() < 1e-9);
        }

        #[test]
        fn scans_are_consistent(values in proptest::collection::vec(0.0f64..10.0, 1..100)) {
            let inc = inclusive_scan(&values);
            for i in 0..values.len() {
                let before = if i == 0 { 0.0 } else { inc[i - 1] };
                prop_assert!((inc[i] - (before + values[i])).abs() < 1e-9);
            }
        }

        #[test]
        fn upper_bound_is_monotone(values in proptest::collection::vec(0.01f64..10.0, 1..50),
                                   t1 in 0.0f64..1.0, t2 in 0.0f64..1.0) {
            let scan = inclusive_scan(&values);
            let total = scan[scan.len() - 1];
            let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
            prop_assert!(upper_bound(&scan, lo * total) <= upper_bound(&scan, hi * total));
        }

        #[test]
        fn counts_offsets_monotone(counts in proptest::collection::vec(0usize..20, 0..50)) {
            let offsets = counts_to_offsets(&counts);
            prop_assert_eq!(offsets.len(), counts.len() + 1);
            for w in offsets.windows(2) {
                prop_assert!(w[0] <= w[1]);
            }
            prop_assert_eq!(*offsets.last().unwrap(), counts.iter().sum::<usize>());
        }
    }
}
