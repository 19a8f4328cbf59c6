//! Known-bad fixture for the no-panic pass: `crates/linalg/src/` is a
//! designated hot-path module, so the bare `unwrap()` below must be flagged.
//! It also seeds the determinism pass's host-dispatch rule: a
//! `#[target_feature]` twin and an `is_x86_feature_detected!` check with no
//! `lint: allow(determinism)` justification.

pub fn head(values: &[f64]) -> f64 {
    *values.first().unwrap()
}

#[target_feature(enable = "avx2")]
fn sum_avx2(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn sum(values: &[f64]) -> f64 {
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU just above.
        return unsafe { sum_avx2(values) };
    }
    values.iter().sum()
}
