//! Known-good mirror of the no-panic fixture: the same `unwrap()` carries a
//! justified allow annotation, so the pass must stay silent. The same
//! host-dispatch shape as the bad fixture carries its determinism
//! justifications.

pub fn head(values: &[f64]) -> f64 {
    // lint: allow(no-panic) -- fixture: slice verified non-empty by the caller
    *values.first().unwrap()
}

// lint: allow(determinism) -- fixture: the twin computes the baseline's bits
#[target_feature(enable = "avx2")]
fn sum_avx2(values: &[f64]) -> f64 {
    values.iter().sum()
}

pub fn sum(values: &[f64]) -> f64 {
    // lint: allow(determinism) -- fixture: the one dispatch seam
    if is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was detected on this CPU just above.
        return unsafe { sum_avx2(values) };
    }
    values.iter().sum()
}
