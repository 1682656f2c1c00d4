//! Order statistics over timing samples.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `values` (not sorted).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        1 => v[0],
        n => {
            let pos = q * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile `p ∈ (0, 100]`: the smallest sample with at least
/// `p` percent of the samples at or below it.  `f64::INFINITY` entries (a
/// shed or failed request) sort last, so they count as missing any limit.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `"n=… q1=… median=… q3=…"` for the human-readable report.
pub fn describe(values: &[f64]) -> String {
    format!(
        "n={} q1={:.6} median={:.6} q3={:.6}",
        values.len(),
        quantile(values, 0.25),
        median(values),
        quantile(values, 0.75)
    )
}
