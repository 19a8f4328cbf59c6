//! Free functions over `&[f64]` slices.
//!
//! The bandit hot path works on small feature vectors; plain slices keep the
//! API friction-free (callers pass `&[f64]` straight from their own storage).
//!
//! ## 4-lane block kernels
//!
//! The hot kernels (`dot`, `axpy`, `scale`, `norm2`) process explicit
//! `[f64; 4]` blocks with scalar tails. `chunks_exact(4)` + an array
//! conversion gives the optimizer fixed-size, bounds-check-free loop bodies
//! with four independent lanes — without `portable_simd` or any
//! dependency. What the lanes compile to depends on the target: the
//! baseline x86-64 build packs them into 2-lane SSE2 operations; where
//! `dot` and `axpy` are inlined into an AVX2 twin of a dispatched
//! record-path kernel (`crate::simd`), up to 4-lane AVX2. No path uses
//! FMA: Rust never contracts `a*b + c`. Every kernel preserves the
//! accumulation order of the pre-block scalar implementation **bit for
//! bit**: `dot` keeps the same four independent accumulators combined as
//! `(s0+s1)+(s2+s3)+tail`, the
//! element-wise kernels touch each element with the identical operation,
//! and `norm2` only takes its block fast path when it provably replays the
//! scalar rescaling sequence. Golden determinism tests across the workspace
//! rely on this contract.

/// Dot product of two equal-length slices.
///
/// Accumulation order (part of the workspace determinism contract): four
/// independent lane accumulators over blocks of 4, combined as
/// `(s0 + s1) + (s2 + s3) + tail` with a sequential scalar tail.
///
/// # Panics
/// Panics if the slices have different lengths (programmer error on the hot
/// path; the public bandit API validates dimensions once at the boundary).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch {} vs {}", a.len(), b.len());
    // Explicit 4-lane blocks: the `[f64; 4]` bodies are bounds-check-free
    // and lane-independent, so the backend keeps four FP adds in flight
    // instead of serializing on one register — a block is packed
    // multiplies and adds (2-lane SSE2 on the baseline target, wider
    // inside an AVX2 twin), never a fused multiply-add.
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for (ca, cb) in a.chunks_exact(4).zip(b.chunks_exact(4)) {
        let ca: &[f64; 4] = ca.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        let cb: &[f64; 4] = cb.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        s0 += ca[0] * cb[0];
        s1 += ca[1] * cb[1];
        s2 += ca[2] * cb[2];
        s3 += ca[3] * cb[3];
    }
    let rem = a.len() - a.len() % 4;
    let mut tail = 0.0;
    for (x, y) in a[rem..].iter().zip(&b[rem..]) {
        tail += x * y;
    }
    (s0 + s1) + (s2 + s3) + tail
}

/// `y ← y + alpha * x` (the BLAS `axpy`).
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // Element-wise: blocking changes nothing about the value each lane
    // computes, so the result is bitwise identical to the scalar loop.
    let mut yc = y.chunks_exact_mut(4);
    let mut xc = x.chunks_exact(4);
    for (cy, cx) in (&mut yc).zip(&mut xc) {
        let cy: &mut [f64; 4] = cy.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        let cx: &[f64; 4] = cx.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        cy[0] += alpha * cx[0];
        cy[1] += alpha * cx[1];
        cy[2] += alpha * cx[2];
        cy[3] += alpha * cx[3];
    }
    for (yi, xi) in yc.into_remainder().iter_mut().zip(xc.remainder()) {
        *yi += alpha * xi;
    }
}

/// Affine sweep over a column-major block: `out[r] = dot(w, row_r) + b`,
/// **bit for bit**, where `cols` holds `w.len()` columns of `out.len()`
/// values each (feature `f` of row `r` at `cols[f * out.len() + r]`).
///
/// Rows go in blocks of [`DOT_COLS_ROWS`] (then 4, then 1), each block
/// holding its four lane sums and its tail in registers while it streams
/// the block's slice of every column. Per row the adds are `dot`'s: lane
/// `k` sums `w[4j+k]·x[4j+k]` in ascending `j`, the tail sums the last
/// `len % 4` products in order, and the row ends as
/// `((s0 + s1) + (s2 + s3) + tail) + b`. Wide systems run an AVX2 twin of
/// the same body (`crate::simd`).
///
/// # Panics
/// Panics if `cols.len() != w.len() * out.len()`.
pub fn dot_cols_into(w: &[f64], cols: &[f64], b: f64, out: &mut [f64]) {
    assert_eq!(cols.len(), w.len() * out.len(), "dot_cols_into: shape mismatch");
    crate::simd::dot_cols(crate::simd::Isa::for_dim(w.len()), w, cols, b, out);
}

/// Rows per register block of [`dot_cols_into`]. One source serves both
/// builds: at m=64 over 64 rows, R=16 measured 0.45× the lane-`axpy`
/// sweep on the AVX2 twin (R=8: 0.62×) and 0.85× on the baseline body
/// (R=8 the same within noise), on a 2-vCPU x86-64 host.
pub const DOT_COLS_ROWS: usize = 16;

/// The body of [`dot_cols_into`] (shape checked by the caller).
#[inline(always)]
pub(crate) fn dot_cols_kernel(w: &[f64], cols: &[f64], b: f64, out: &mut [f64]) {
    let n = out.len();
    let mut r0 = 0;
    while r0 + DOT_COLS_ROWS <= n {
        dot_cols_block::<DOT_COLS_ROWS>(w, cols, n, r0, b, out);
        r0 += DOT_COLS_ROWS;
    }
    while r0 + 4 <= n {
        dot_cols_block::<4>(w, cols, n, r0, b, out);
        r0 += 4;
    }
    while r0 < n {
        dot_cols_block::<1>(w, cols, n, r0, b, out);
        r0 += 1;
    }
}

/// Rows `r0..r0 + R` of [`dot_cols_kernel`].
#[inline(always)]
fn dot_cols_block<const R: usize>(
    w: &[f64],
    cols: &[f64],
    n: usize,
    r0: usize,
    b: f64,
    out: &mut [f64],
) {
    // The R values of column `f` this block reads.
    let col = |f: usize| -> &[f64; R] {
        cols[f * n + r0..][..R].try_into().expect("R rows") // lint: allow(no-panic) -- a slice of exactly R values
    };
    let full = w.len() - w.len() % 4;
    let mut lanes = [[0.0f64; R]; 4];
    for (f0, wb) in w[..full].chunks_exact(4).enumerate() {
        for (k, (lane, &wk)) in lanes.iter_mut().zip(wb).enumerate() {
            for (s, &x) in lane.iter_mut().zip(col(4 * f0 + k)) {
                *s += wk * x;
            }
        }
    }
    let mut tail = [0.0f64; R];
    for (f, &wk) in w.iter().enumerate().skip(full) {
        for (s, &x) in tail.iter_mut().zip(col(f)) {
            *s += wk * x;
        }
    }
    let [s0, s1, s2, s3] = &lanes;
    for (i, o) in out[r0..r0 + R].iter_mut().enumerate() {
        *o = ((s0[i] + s1[i]) + (s2[i] + s3[i]) + tail[i]) + b;
    }
}

/// Scale a slice in place: `x ← alpha * x`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    let mut xc = x.chunks_exact_mut(4);
    for cx in &mut xc {
        let cx: &mut [f64; 4] = cx.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        cx[0] *= alpha;
        cx[1] *= alpha;
        cx[2] *= alpha;
        cx[3] *= alpha;
    }
    for xi in xc.into_remainder() {
        *xi *= alpha;
    }
}

/// Euclidean (L2) norm, computed with scaling to avoid overflow/underflow.
///
/// The rescaling recurrence is inherently sequential, but once a running
/// maximum is established most blocks contain no new maximum; those blocks
/// take a straight-line 4-lane path that performs the *same* operations in
/// the same element order (adding an exact `0.0` for zero elements, which
/// the scalar path skips — bitwise identical either way), so the result
/// never differs from the scalar implementation.
pub fn norm2(x: &[f64]) -> f64 {
    let mut scale_acc = 0.0f64;
    let mut ssq = 1.0f64;
    let blocks = x.chunks_exact(4);
    let tail = blocks.remainder();
    for c in blocks {
        let c: &[f64; 4] = c.try_into().expect("block of 4"); // lint: allow(no-panic) -- chunks_exact(4) yields exact blocks
        let (a0, a1, a2, a3) = (c[0].abs(), c[1].abs(), c[2].abs(), c[3].abs());
        if scale_acc > 0.0
            && a0 <= scale_acc
            && a1 <= scale_acc
            && a2 <= scale_acc
            && a3 <= scale_acc
        {
            // No new maximum in the block: replay the scalar updates
            // straight-line. `(0/scale)² = 0` and `ssq + 0.0 == ssq`
            // (ssq ≥ 1), so not skipping zeros is exact.
            ssq += (a0 / scale_acc).powi(2);
            ssq += (a1 / scale_acc).powi(2);
            ssq += (a2 / scale_acc).powi(2);
            ssq += (a3 / scale_acc).powi(2);
        } else {
            for &v in c {
                if v != 0.0 {
                    let a = v.abs();
                    if scale_acc < a {
                        ssq = 1.0 + ssq * (scale_acc / a).powi(2);
                        scale_acc = a;
                    } else {
                        ssq += (a / scale_acc).powi(2);
                    }
                }
            }
        }
    }
    for &v in tail {
        if v != 0.0 {
            let a = v.abs();
            if scale_acc < a {
                ssq = 1.0 + ssq * (scale_acc / a).powi(2);
                scale_acc = a;
            } else {
                ssq += (a / scale_acc).powi(2);
            }
        }
    }
    scale_acc * ssq.sqrt()
}

/// L1 norm (sum of absolute values).
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Infinity norm (maximum absolute value); 0 for an empty slice.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, v| m.max(v.abs()))
}

/// Element-wise subtraction `a - b` into a new vector.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Element-wise addition `a + b` into a new vector.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise subtraction `out ← a - b` into a caller-provided buffer
/// (the allocation-free flavour of [`sub`]; hot paths should prefer this).
#[inline]
pub fn sub_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "sub_into: length mismatch");
    assert_eq!(a.len(), out.len(), "sub_into: output length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x - y;
    }
}

/// Element-wise addition `out ← a + b` into a caller-provided buffer
/// (the allocation-free flavour of [`add`]; hot paths should prefer this).
#[inline]
pub fn add_into(a: &[f64], b: &[f64], out: &mut [f64]) {
    assert_eq!(a.len(), b.len(), "add_into: length mismatch");
    assert_eq!(a.len(), out.len(), "add_into: output length mismatch");
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = x + y;
    }
}

/// Index of the minimum value. Returns `None` on an empty slice or if every
/// element is NaN; NaNs otherwise lose all comparisons.
pub fn argmin(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv <= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the maximum value, with the same NaN policy as [`argmin`].
pub fn argmax(x: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        if v.is_nan() {
            continue;
        }
        match best {
            Some((_, bv)) if bv >= v => {}
            _ => best = Some((i, v)),
        }
    }
    best.map(|(i, _)| i)
}

/// True when `|a - b| <= atol + rtol * |b|` element-wise on scalars.
#[inline]
pub fn approx_eq(a: f64, b: f64, rtol: f64, atol: f64) -> bool {
    (a - b).abs() <= atol + rtol * b.abs()
}

/// True when two slices are element-wise [`approx_eq`].
pub fn allclose(a: &[f64], b: &[f64], rtol: f64, atol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| approx_eq(x, y, rtol, atol))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // length > 4 exercises the unrolled loop + tail
        let a: Vec<f64> = (0..11).map(|i| i as f64).collect();
        let b = vec![2.0; 11];
        assert_eq!(dot(&a, &b), 2.0 * 55.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        scale(0.5, &mut y);
        assert_eq!(y, vec![3.5, 4.5]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm1(&[-1.0, 2.0, -3.0]), 6.0);
        assert_eq!(norm_inf(&[-1.0, 2.0, -3.0]), 3.0);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn norm2_avoids_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n - big * 2.0f64.sqrt()).abs() / n < 1e-12);
    }

    #[test]
    fn argmin_argmax() {
        assert_eq!(argmin(&[3.0, 1.0, 2.0]), Some(1));
        assert_eq!(argmax(&[3.0, 1.0, 2.0]), Some(0));
        assert_eq!(argmin(&[]), None);
        assert_eq!(argmin(&[f64::NAN, 2.0, 1.0]), Some(2));
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), None);
        // first of equal values wins
        assert_eq!(argmin(&[1.0, 1.0]), Some(0));
        assert_eq!(argmax(&[1.0, 1.0]), Some(0));
    }

    #[test]
    fn add_sub_into_match_allocating() {
        let a: Vec<f64> = (0..13).map(|i| i as f64 * 0.75 - 3.0).collect();
        let b: Vec<f64> = (0..13).map(|i| (i * i) as f64 * 0.1).collect();
        let mut out = vec![0.0; 13];
        sub_into(&a, &b, &mut out);
        assert_eq!(out, sub(&a, &b));
        add_into(&a, &b, &mut out);
        assert_eq!(out, add(&a, &b));
    }

    #[test]
    #[should_panic(expected = "output length mismatch")]
    fn sub_into_bad_out_panics() {
        sub_into(&[1.0], &[2.0], &mut [0.0, 0.0]);
    }

    #[test]
    fn norm2_block_fast_path_matches_scalar_order() {
        // Descending then mixed magnitudes: the first block establishes the
        // max, later full blocks take the straight-line path (with zeros).
        let x: [f64; 16] =
            [8.0, -3.0, 2.0, 1.0, 0.5, 0.0, -0.25, 4.0, 1.0, 1.0, 0.0, 0.0, 7.5, -2.0, 9.0, 0.1];
        let mut scale_acc = 0.0f64;
        let mut ssq = 1.0f64;
        for &v in &x {
            if v != 0.0 {
                let a = v.abs();
                if scale_acc < a {
                    ssq = 1.0 + ssq * (scale_acc / a).powi(2);
                    scale_acc = a;
                } else {
                    ssq += (a / scale_acc).powi(2);
                }
            }
        }
        let reference = scale_acc * ssq.sqrt();
        assert_eq!(norm2(&x).to_bits(), reference.to_bits());
    }

    #[test]
    fn add_sub_allclose() {
        assert_eq!(add(&[1.0, 2.0], &[3.0, 4.0]), vec![4.0, 6.0]);
        assert_eq!(sub(&[3.0, 4.0], &[1.0, 2.0]), vec![2.0, 2.0]);
        assert!(allclose(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9, 1e-9));
        assert!(!allclose(&[1.0], &[1.1], 1e-9, 1e-9));
        assert!(!allclose(&[1.0], &[1.0, 2.0], 1e-9, 1e-9));
    }
}
