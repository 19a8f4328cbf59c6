//! Runtime kernel dispatch: the record path and the prediction sweep on the
//! widest vector unit the host has, bit for bit the baseline build's
//! arithmetic.
//!
//! The workspace sets no target feature (no `target-cpu`, no `RUSTFLAGS`),
//! so on x86-64 every kernel compiles for the baseline ISA: the 4-wide
//! blocks of the hot kernels become 2-lane SSE2 code. This module is the
//! one place the crate uses more. Each dispatched entry point names an
//! `#[inline(always)]` kernel body; `dispatch!` compiles that body twice —
//! once for the baseline target and once inside an
//! `#[target_feature(enable = "avx2")]` twin — and a safe wrapper runs the
//! twin when the caller's [`Isa`] says the CPU executes AVX2. The only way
//! to obtain such an `Isa` is [`Isa::host`], i.e. `is_x86_feature_detected!`.
//!
//! Dispatch sits at three coarse entry points — a block absorption
//! (`NormalEquations::push_rows`, the batch record path), a refit from
//! the live factor (behind `solve`/`solve_into`), and the affine sweep of
//! one arm over a column-major burst (`vector::dot_cols_into`, the batch
//! select path) — so one cached feature check covers O(k·m)..O(k·m²)
//! work. Their hot callees (`factor_rows`, `update_panel`,
//! `rank_one_inline`, `gram_fold_tiled`, `solve_in_place_inline`,
//! `dot_cols_block`) are `#[inline(always)]`, so they compile inside the
//! twin; the small `#[inline]` ones (`gram_rank_one` for a
//! one-row block, `vector::dot`, `vector::axpy`) are inlined there too.
//! These kernels walk each arm's packed buffers: the upper triangle of
//! `ZᵀZ` and the strict upper triangle of `Lᵀ`, stored row by row, so
//! every row they sweep is one contiguous slice, as in a full matrix.
//! The public `UpdatableCholesky::update` and `solve_in_place` call the
//! forced bodies but are not forced themselves: forcing them changed the
//! code every other caller got, and that code measured slower. One-row
//! `push` and `forget` are not dispatched: no measured workload runs them
//! on a wide system. Systems narrower than [`AVX2_MIN_DIM`] stay on the
//! baseline body, where it measured faster.
//!
//! **Bitwise equality.** Both copies perform the same IEEE operations on
//! every element in the same order: Rust never contracts `a*b + c` into a
//! fused multiply-add, `avx2` does not enable `fma` in any case, and
//! without fast-math LLVM does not reassociate floating-point arithmetic.
//! A wider register only changes how many independent lanes one
//! instruction carries. The tests below compare the two copies with
//! `to_bits`. They are the cross-check between the paths: the workspace's
//! other equivalence suites run both sides of each comparison on the same
//! host, so on an AVX2 host they only ever see the twin.
//!
//! There is no knob and no AVX-512 twin: the path is chosen by CPU
//! detection alone, and AVX-512 was left out to keep one twin per kernel
//! (whether it would be faster on the m=64 record round is unresolved:
//! the one comparison made had overlapping run ranges). Other
//! architectures compile the baseline body only.
#![allow(unsafe_code)]

use crate::cholesky::UpdatableCholesky;
use crate::lstsq::LinearFit;
use crate::online::{NormalEquations, SolveScratch};
use crate::Result;

/// The instruction set a dispatched kernel runs on.
///
/// The field is private: outside this module an AVX2 value can only come
/// from [`Isa::host`], which sets it after `is_x86_feature_detected!`
/// confirms the CPU. That invariant is what the dispatch's `unsafe` call
/// rests on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Isa {
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    avx2: bool,
}

impl Isa {
    /// The baseline target's code, on every host.
    pub(crate) const BASELINE: Isa = Isa { avx2: false };

    /// The widest twin this CPU runs (a cached feature check).
    #[inline]
    pub(crate) fn host() -> Isa {
        #[cfg(target_arch = "x86_64")]
        // lint: allow(determinism) -- the one audited dispatch seam; both paths are bitwise equal (tests below)
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa { avx2: true };
        }
        Isa::BASELINE
    }

    /// The ISA for a kernel on a `dim`-wide system: [`Isa::host`] from
    /// [`AVX2_MIN_DIM`] up, the baseline below it.
    #[inline]
    pub(crate) fn for_dim(dim: usize) -> Isa {
        if dim < AVX2_MIN_DIM {
            Isa::BASELINE
        } else {
            Isa::host()
        }
    }
}

/// The smallest system the AVX2 twins serve. Below it the twin's wider
/// vector loops seldom fill, and the twin cannot inline into its caller:
/// a one-row `push_rows` plus refit at m=7 took 397 ns on the twin against
/// 351 ns on the baseline body. The two crossed between m=15 and m=31
/// (within the ±4% run-to-run spread there); at m=63 the twin wins.
const AVX2_MIN_DIM: usize = 32;

/// Declare dispatched kernels: `fn name(args) -> ret = body;` makes
/// `name(isa, args)`, which runs `body` compiled for AVX2 when `isa` allows
/// it and the baseline `body` otherwise. `body` must be `#[inline(always)]`
/// (and so must its hot callees) for the twin to hold AVX2 code.
macro_rules! dispatch {
    ($(
        $(#[$doc:meta])*
        fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;
    )*) => {
        /// The AVX2 twins: each is its kernel body, compiled with AVX2.
        #[cfg(target_arch = "x86_64")]
        mod avx2 {
            use super::*;
            $(
                // lint: allow(determinism) -- the twin of a dispatched kernel; bitwise equal to the baseline body
                #[target_feature(enable = "avx2")]
                pub(super) fn $name($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
            )*
        }
        $(
            $(#[$doc])*
            #[inline]
            pub(crate) fn $name(isa: Isa, $($arg: $ty),*) $(-> $ret)? {
                #[cfg(target_arch = "x86_64")]
                if isa.avx2 {
                    // SAFETY: `isa.avx2` means `is_x86_feature_detected!("avx2")` held
                    // (only `Isa::host` sets it), so this CPU executes the
                    // twin's AVX2 instructions; the twin has no other
                    // precondition.
                    return unsafe { avx2::$name($($arg),*) };
                }
                $body($($arg),*)
            }
        )*
    };
}

dispatch! {
    /// [`NormalEquations::push_rows`] after validation.
    fn push_rows(
        neq: &mut NormalEquations,
        zrows: &[f64],
        ys: &[f64],
        panel: &mut Vec<f64>,
    ) -> Result<usize> = NormalEquations::push_rows_kernel;
    /// A refit from a live factor: substitution plus the O(m) RSS recovery.
    fn solve_from_factor(
        neq: &NormalEquations,
        chol: &UpdatableCholesky,
        reg: &[f64],
        scratch: &mut SolveScratch,
        out: &mut LinearFit,
    ) -> Result<()> = NormalEquations::solve_from_factor_kernel;
    /// [`crate::vector::dot_cols_into`] after its shape check.
    fn dot_cols(w: &[f64], cols: &[f64], b: f64, out: &mut [f64]) = crate::vector::dot_cols_kernel;
}

#[cfg(test)]
mod tests {
    //! Every dispatched kernel, twin against baseline body, compared bit
    //! for bit. On a host without AVX2 only the baseline half runs, and the
    //! test says so on stderr.

    use super::*;
    use crate::online::NormalEqState;

    /// The AVX2 `Isa`, or `None` (with a note) on a host without it.
    fn twin() -> Option<Isa> {
        let isa = Isa::host();
        if isa == Isa::BASELINE {
            eprintln!("simd: this host has no AVX2; only the baseline kernels were run");
            None
        } else {
            Some(isa)
        }
    }

    /// A deterministic, mildly ill-conditioned stream of feature values.
    fn value(seed: u64, i: usize) -> f64 {
        let mut s = seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        s ^= s >> 33;
        s = s.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        s ^= s >> 29;
        let unit = (s >> 11) as f64 / (1u64 << 53) as f64;
        (unit - 0.5) * [1.0, 40.0, 0.003, 7.5][i % 4]
    }

    fn rows(seed: u64, k: usize, nf: usize) -> Vec<Vec<f64>> {
        (0..k).map(|r| (0..nf).map(|f| value(seed, r * nf + f)).collect()).collect()
    }

    fn augmented(rows: &[Vec<f64>]) -> Vec<f64> {
        rows.iter().flat_map(|x| std::iter::once(1.0).chain(x.iter().copied())).collect()
    }

    fn bits(state: &NormalEqState) -> Vec<u64> {
        let mut out = vec![state.n as u64, state.yty.to_bits()];
        out.extend(state.zty.iter().chain(&state.ztz).map(|v| v.to_bits()));
        if let Some(f) = &state.factor {
            out.push(f.lambda.to_bits());
            let p = &f.parts;
            out.extend(p.lt.iter().chain(&p.d).chain(&p.dinv).chain(&f.reg).map(|v| v.to_bits()));
        } else {
            out.push(u64::MAX);
        }
        out
    }

    fn fit_bits(fit: &LinearFit) -> Vec<u64> {
        let mut out = vec![fit.intercept.to_bits(), fit.residual_ss.to_bits(), fit.n_obs as u64];
        out.extend(fit.weights.iter().map(|w| w.to_bits()));
        out
    }

    /// An accumulator over `nf` features with a live factor (λ = 0.5) and
    /// `warm` observations, built on the baseline path.
    fn warm(nf: usize, warm: usize, seed: u64) -> NormalEquations {
        let mut neq = NormalEquations::new(nf);
        for (r, x) in rows(seed, warm, nf).iter().enumerate() {
            neq.push(x, 1.0 + value(seed + 1, r)).expect("warm push");
        }
        let (mut scratch, mut fit) = (SolveScratch::new(), LinearFit::zeros(nf));
        neq.solve_into(0.5, &mut scratch, &mut fit).expect("warm solve");
        neq
    }

    /// Run `op` on two clones of `neq`, once per path; both must end in
    /// the same bits (the return values are compared by the caller's `op`).
    fn both<R: PartialEq + std::fmt::Debug>(
        neq: &NormalEquations,
        avx2: Isa,
        what: &str,
        op: impl Fn(Isa, &mut NormalEquations) -> R,
    ) {
        let (mut a, mut b) = (neq.clone(), neq.clone());
        let (ra, rb) = (op(Isa::BASELINE, &mut a), op(avx2, &mut b));
        assert_eq!(ra, rb, "{what}: return values differ");
        assert_eq!(bits(&a.to_state()), bits(&b.to_state()), "{what}: state bits differ");
    }

    fn refit(isa: Isa, neq: &NormalEquations) -> Vec<u64> {
        let state = neq.to_state();
        let f = state.factor.as_ref().expect("live factor");
        let chol = UpdatableCholesky::from_parts(&f.parts).expect("valid parts");
        let mut scratch = SolveScratch::new();
        let mut fit = LinearFit::zeros(neq.n_features());
        solve_from_factor(isa, neq, &chol, &f.reg, &mut scratch, &mut fit).expect("solve");
        fit_bits(&fit)
    }

    #[test]
    fn baseline_kernels_run_on_every_host() {
        // The dispatched wrappers on the baseline `Isa` are the plain
        // kernel bodies: pin them against the public (host-dispatched)
        // entry points, which is a self-check on a host without AVX2.
        let neq = warm(63, 66, 3);
        let zrows = augmented(&rows(9, 5, 63));
        let ys = [2.5, -1.0, 0.25, 3.0, 7.5];
        let (mut a, mut b) = (neq.clone(), neq.clone());
        push_rows(Isa::BASELINE, &mut a, &zrows, &ys, &mut Vec::new()).expect("push_rows");
        b.push_rows(&zrows, &ys, &mut Vec::new()).expect("push_rows");
        assert_eq!(bits(&a.to_state()), bits(&b.to_state()));
        assert_eq!(refit(Isa::BASELINE, &a), refit(Isa::for_dim(64), &b));
        let _ = twin();
    }

    #[test]
    fn push_rows_twin_is_bitwise_the_baseline() {
        let Some(avx2) = twin() else { return };
        // Every `dim mod 4` residue up to m=70 (m=7 and m=64 included), and
        // every panel remainder k = 1..=9: onto a live factor, onto one that
        // `forget` just downdated, and cold.
        for dim in 1..=70usize {
            let nf = dim - 1;
            let seed = dim as u64;
            let live = warm(nf, dim + 2, seed);
            let mut downdated = live.clone();
            let last = rows(seed, dim + 2, nf).pop().expect("warm rows");
            downdated
                .forget(&last, 1.0 + value(seed + 1, dim + 1), &mut Vec::new())
                .expect("forget");
            let cold = NormalEquations::new(nf);
            for k in 1..=9usize {
                let block = rows(seed * 31 + k as u64, k, nf);
                let zrows = augmented(&block);
                let ys: Vec<f64> = (0..k).map(|r| 3.0 + value(seed + 7, r)).collect();
                for (neq, tag) in [(&live, "live"), (&downdated, "downdated"), (&cold, "cold")] {
                    let what = format!("push_rows dim {dim} k {k} {tag}");
                    both(neq, avx2, &what, |isa, n| {
                        let mut panel = vec![f64::NAN; 3]; // dirty, undersized scratch
                        push_rows(isa, n, &zrows, &ys, &mut panel).expect("push_rows")
                    });
                }
            }
        }
    }

    #[test]
    fn push_rows_twin_matches_when_a_pivot_trips_mid_panel() {
        let Some(avx2) = twin() else { return };
        // A 1e200 feature makes its row's pivot +inf; the next row hits the
        // pivot floor at that column. Put it at every position of a 9-row
        // block (two panels and a one-row remainder).
        for dim in [2usize, 5, 8, 65] {
            let nf = dim - 1;
            let live = warm(nf, dim + 2, 11);
            for at in 0..9usize {
                let mut block = rows(17 + at as u64, 9, nf);
                block[at][nf - 1] = 1e200;
                let zrows = augmented(&block);
                let ys = vec![4.0; 9];
                let what = format!("push_rows dim {dim} 1e200 at row {at}");
                both(&live, avx2, &what, |isa, n| {
                    push_rows(isa, n, &zrows, &ys, &mut Vec::new()).expect("push_rows")
                });
            }
        }
    }

    #[test]
    fn dot_cols_twin_is_bitwise_the_baseline() {
        // Every width residue up to m=70 (m=7 and m=64 included), against
        // row counts that end on each block size: empty, 1-row and 4-row
        // remainders, one block short, exact, one over, and the m=64 burst.
        // The baseline body is pinned to `dot` plus the intercept as well,
        // so a host without AVX2 still checks the sweep.
        const R: usize = crate::vector::DOT_COLS_ROWS;
        let avx2 = twin();
        for nf in 0..=70usize {
            for n in [0, 1, 2, 3, R - 1, R, R + 1, 2 * R + 3, 64] {
                let seed = (nf * 1000 + n) as u64;
                let cols: Vec<f64> = (0..nf * n).map(|i| value(seed, i)).collect();
                let w: Vec<f64> = (0..nf).map(|f| value(seed + 1, f + 1)).collect();
                let b = value(seed + 2, 3);
                let mut base = vec![f64::NAN; n];
                dot_cols(Isa::BASELINE, &w, &cols, b, &mut base);
                for (r, p) in base.iter().enumerate() {
                    let row: Vec<f64> = (0..nf).map(|f| cols[f * n + r]).collect();
                    let want = crate::vector::dot(&w, &row) + b;
                    assert_eq!(p.to_bits(), want.to_bits(), "dot_cols width {nf} rows {n} row {r}");
                }
                if let Some(avx2) = avx2 {
                    let mut wide = vec![f64::NAN; n];
                    dot_cols(avx2, &w, &cols, b, &mut wide);
                    let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&base), bits(&wide), "dot_cols twin width {nf} rows {n}");
                }
            }
        }
    }

    #[test]
    fn solve_twin_is_bitwise_the_baseline() {
        let Some(avx2) = twin() else { return };
        for dim in 1..=70usize {
            let neq = warm(dim - 1, dim + 3, 200 + dim as u64);
            assert_eq!(refit(Isa::BASELINE, &neq), refit(avx2, &neq), "solve dim {dim}");
        }
    }
}
