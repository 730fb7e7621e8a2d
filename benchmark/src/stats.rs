//! Order statistics for sample series and run sets.

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Distance between the first and the third quartile of `values` as a share
/// of their median; 0 below four samples. Quartiles are the medians of the
/// lower and the upper half.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 4 {
        return 0.0;
    }
    let v = sorted(values);
    let half = v.len() / 2;
    let (q1, q3) = (median(&v[..half]), median(&v[v.len() - half..]));
    let m = median(&v);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The highest percentile that still has at least ten samples at or beyond
/// it, as `(percentile in 0..100, value)`; `None` below eleven samples. A
/// tail read off fewer than ten samples is one slow window, not a tail.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let v = sorted(values);
    let idx = n - 10;
    Some((100.0 * idx as f64 / n as f64, v[idx]))
}
