//! The two estimators the ledger reports.
//!
//! Noise on a shared machine only ever adds time, so a time is the mean
//! of the fastest of its samples: a cold or disturbed sample drops out by
//! construction, and the mean of several survivors does not hang on one
//! lucky sample the way the single minimum does.

/// Mean of the fastest ⌈n / `one_in`⌉ values: the fastest half for 2, the
/// fastest tenth for 10. `None` for an empty slice.
pub fn fastest_mean(values: &[f64], one_in: usize) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let keep = sorted.len().div_ceil(one_in);
    Some(sorted[..keep].iter().sum::<f64>() / keep as f64)
}

/// Median; the mean of the two middle values for an even count. `None`
/// for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}
