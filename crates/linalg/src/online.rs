//! Incremental least squares: sufficient-statistics accumulators and rank-1
//! inverse updates.
//!
//! Algorithm 1 refits each arm from its stored data `D_k` after every
//! observation — `O(|D_k| · m²)` per round. [`NormalEquations`] maintains
//! `XᵀX` and `Xᵀy` incrementally, and additionally keeps the Cholesky
//! factor of the (ridged) Gram matrix **incrementally** behind a dirty
//! flag: once a factor exists for the requested ridge, every further
//! [`NormalEquations::push`] folds the new observation in with an O(m²)
//! `cholupdate` and [`NormalEquations::solve_with`] refits by pure
//! forward/back substitution — no O(m³) factorization and, with a reused
//! [`SolveScratch`], no heap allocation on the steady-state record path.
//! The result is *the same regression* (property-tested in `crates/core`).
//! [`RankOneInverse`] maintains `(XᵀX + λI)⁻¹` directly via
//! Sherman–Morrison, which is what LinUCB needs for its confidence
//! ellipsoids.

use crate::cholesky::{Cholesky, FactorParts, UpdatableCholesky};
use crate::error::LinalgError;
use crate::lstsq::LinearFit;
use crate::matrix::Matrix;
use crate::simd::{self, Isa};
use crate::vector;
use crate::Result;

/// Offset of row `i ≤ n` of a packed upper triangle (diagonal included) of
/// order `n`: row `i` holds columns `i..n`.
#[inline(always)]
fn upper_row_start(n: usize, i: usize) -> usize {
    i * (2 * n + 1 - i) / 2
}

/// Rank-1 Gram update `ZᵀZ ← ZᵀZ + sign·z·zᵀ` on the packed upper triangle
/// (diagonal included; see the `stats` field), in rank-4 row panels.
///
/// The full-matrix formulation is store-bandwidth-bound — measured, a
/// rank-4 full-row kernel is no faster than row-at-a-time `axpy` — so the
/// real win is halving the traffic: the lower triangle is never stored.
/// Each upper element receives exactly its one product `sign·zᵢ·zⱼ`,
/// bitwise identical to what the full update produced (IEEE
/// multiplication commutes bit-for-bit, so the mirrored element's history
/// is the same).
#[inline]
fn gram_rank_one(ztz: &mut [f64], z: &[f64], sign: f64) {
    let n = z.len();
    let mut rows = ztz;
    let mut i = 0;
    while i + 4 <= n {
        // Packed rows i..i+4 start at columns i, i+1, i+2, i+3.
        let (r0, rest) = rows.split_at_mut(n - i);
        let (r1, rest) = rest.split_at_mut(n - i - 1);
        let (r2, rest) = rest.split_at_mut(n - i - 2);
        let (r3, rest) = rest.split_at_mut(n - i - 3);
        rows = rest;
        let (a0, a1, a2, a3) = (sign * z[i], sign * z[i + 1], sign * z[i + 2], sign * z[i + 3]);
        // Triangular head columns i..i+4, then one fused pass over the
        // shared suffix i+4.. for all four rows.
        r0[0] += a0 * z[i];
        r0[1] += a0 * z[i + 1];
        r0[2] += a0 * z[i + 2];
        r0[3] += a0 * z[i + 3];
        r1[0] += a1 * z[i + 1];
        r1[1] += a1 * z[i + 2];
        r1[2] += a1 * z[i + 3];
        r2[0] += a2 * z[i + 2];
        r2[1] += a2 * z[i + 3];
        r3[0] += a3 * z[i + 3];
        for ((((&zj, e0), e1), e2), e3) in z[i + 4..]
            .iter()
            .zip(&mut r0[4..])
            .zip(&mut r1[3..])
            .zip(&mut r2[2..])
            .zip(&mut r3[1..])
        {
            *e0 += a0 * zj;
            *e1 += a1 * zj;
            *e2 += a2 * zj;
            *e3 += a3 * zj;
        }
        i += 4;
    }
    while i < n {
        let (row, rest) = rows.split_at_mut(n - i);
        rows = rest;
        vector::axpy(sign * z[i], &z[i..], row);
        i += 1;
    }
}

/// Blocks of fewer rows than this fold their Gram contribution row by row
/// with [`gram_rank_one`]; longer blocks use [`gram_fold_tiled`]. Both are
/// bitwise equal, so this is only a size rule. Measured per row (min of
/// 150 interleaved trials, README "Block record path"): a tile pass loads
/// and stores the whole upper triangle once per block, which one row cannot
/// amortize — at k=1 the tiles lose at m=64 (≈790 vs ≈550 ns) and tie at
/// m=7 — while from k=2 on they win at both widths (m=7: 12.7 vs 20.3 ns;
/// m=64: ≈530 vs ≈550 ns, widening to 373 vs 546 ns at k=64).
const TILE_MIN_ROWS: usize = 2;

/// `ZᵀZ += BᵀB` over augmented rows `zrows` (row `r` is
/// `zrows[r·n .. (r+1)·n]`) on the packed upper triangle, in 4×4
/// register tiles: a tile's entries stay in registers while every row
/// streams past, so the Gram matrix is loaded and stored once per block
/// instead of once per row. Every entry accumulates its products `zᵢ·zⱼ` in
/// row order — the sequence that one [`gram_rank_one`] per row applies (its
/// `1.0·zᵢ` factor is bitwise `zᵢ`) — so the result is bit for bit the
/// same.
#[inline(always)]
fn gram_fold_tiled(ztz: &mut [f64], n: usize, zrows: &[f64]) {
    let full = n - n % 4;
    for i in (0..full).step_by(4) {
        gram_tile::<true>(ztz, zrows, n, i, i);
        for j in (i + 4..full).step_by(4) {
            gram_tile::<false>(ztz, zrows, n, i, j);
        }
    }
    // The last `n mod 4` columns, row by row (each entry still sums in row
    // order). Column `j` steps down the packed rows: entry `(i, j)` is
    // `n − 1 − i` values after `(i − 1, j)`.
    if full < n {
        for z in zrows.chunks_exact(n) {
            for j in full..n {
                let zj = z[j];
                let mut at = j;
                for (i, &zi) in z[..=j].iter().enumerate() {
                    ztz[at] += zi * zj;
                    at += n - 1 - i;
                }
            }
        }
    }
}

/// One 4×4 tile of [`gram_fold_tiled`] at Gram rows `i..i+4`, columns
/// `j..j+4`; a diagonal tile (`DIAG`, `i == j`) holds only its upper
/// triangle.
#[inline(always)]
fn gram_tile<const DIAG: bool>(ztz: &mut [f64], zrows: &[f64], n: usize, i: usize, j: usize) {
    // Packed offset of entry `(i + a, j + lo)`, the first one tile row `a`
    // holds.
    let at = |a: usize, lo: usize| upper_row_start(n, i + a) + j + lo - (i + a);
    let mut acc = [[0.0f64; 4]; 4];
    for (a, row) in acc.iter_mut().enumerate() {
        let lo = if DIAG { a } else { 0 };
        row[lo..].copy_from_slice(&ztz[at(a, lo)..at(a, 4)]);
    }
    for z in zrows.chunks_exact(n) {
        let (zi, zj) = (&z[i..i + 4], &z[j..j + 4]);
        for (a, row) in acc.iter_mut().enumerate() {
            for b in if DIAG { a } else { 0 }..4 {
                row[b] += zi[a] * zj[b];
            }
        }
    }
    for (a, row) in acc.iter().enumerate() {
        let lo = if DIAG { a } else { 0 };
        ztz[at(a, lo)..at(a, 4)].copy_from_slice(&row[lo..]);
    }
}

/// Apply `zrows` (augmented rows of width `dim`) to a live factor in row
/// order: four at a time through [`UpdatableCholesky::update_panel`], the
/// remainder through `update`'s sweep on a copy in `panel`. Returns the first row whose update
/// failed (the factor is invalid from there), or `None`.
#[inline(always)]
fn factor_rows(
    chol: &mut UpdatableCholesky,
    zrows: &[f64],
    dim: usize,
    panel: &mut Vec<f64>,
) -> Result<Option<usize>> {
    let mut panels = zrows.chunks_exact(4 * dim);
    if panels.len() > 0 && panel.len() < 4 * dim {
        panel.resize(4 * dim, 0.0);
    }
    for (p, rows) in (&mut panels).enumerate() {
        let done = chol.update_panel(rows, panel)?;
        if done < 4 {
            return Ok(Some(4 * p + done));
        }
    }
    let base = (zrows.len() - panels.remainder().len()) / dim;
    if panel.len() < dim {
        panel.resize(dim, 0.0);
    }
    for (r, z) in panels.remainder().chunks_exact(dim).enumerate() {
        panel[..dim].copy_from_slice(z);
        if chol.rank_one_inline(&mut panel[..dim], 1.0).is_err() {
            return Ok(Some(base + r));
        }
    }
    Ok(None)
}

/// The three segments of a `dim`-wide accumulator's `stats` buffer: the
/// packed upper triangle of `ZᵀZ`, `Zᵀy` and the baked regularizer.
#[inline(always)]
fn split_stats(stats: &mut [f64], dim: usize) -> (&mut [f64], &mut [f64], &mut [f64]) {
    let (ztz, rest) = stats.split_at_mut(upper_row_start(dim, dim));
    let (zty, reg) = rest.split_at_mut(dim);
    (ztz, zty, reg)
}

/// Stage the augmented vector `z = [1, x]` in `aug`.
fn stage_aug(x: &[f64], aug: &mut Vec<f64>) {
    aug.clear();
    aug.push(1.0);
    aug.extend_from_slice(x);
}

/// Transpose a feature-major block — feature `f` of `k` rows at
/// `xcols[f·k .. (f+1)·k]` — into the augmented rows `[1, x_r]` that
/// [`NormalEquations::push_rows`] takes. `zrows` is cleared and refilled.
pub fn augmented_rows(xcols: &[f64], k: usize, zrows: &mut Vec<f64>) {
    zrows.clear();
    if k == 0 {
        return;
    }
    let dim = xcols.len() / k + 1;
    zrows.resize(dim * k, 0.0);
    for z in zrows.chunks_exact_mut(dim) {
        z[0] = 1.0;
    }
    for (f, col) in xcols.chunks_exact(k).enumerate() {
        for (z, &v) in zrows[f + 1..].iter_mut().step_by(dim).zip(col) {
            *z = v;
        }
    }
}

/// The serialized form of a live incremental factor: the ridge it was
/// built for, its exact `LDLᵀ` buffers, and the baked diagonal regularizer
/// (see [`NormalEqState::factor`]).
#[derive(Debug, Clone, PartialEq)]
pub struct NeqFactorState {
    /// The ridge the factor was built for.
    pub lambda: f64,
    /// The exact `LDLᵀ` buffers.
    pub parts: FactorParts,
    /// The diagonal regularizer `R` baked into the factor, in the original
    /// (unscaled) space: `reg[i] = (i == 0 ? 0 : λ) + jitter·sᵢ²` with the
    /// Jacobi scales `sᵢ` frozen at factor-build time. The O(m) residual
    /// recovery (`RSS = yᵀy − cᵀ(Zᵀy) − cᵀRc`) reads it on every solve, so
    /// it is state, not cache.
    pub reg: Vec<f64>,
}

/// The exact serialized form of a [`NormalEquations`] accumulator: the
/// sufficient statistics plus (when live) the incrementally maintained
/// Cholesky factor. Restoring via [`NormalEquations::from_state`] is
/// bitwise-faithful: every future push/forget/discount/solve produces the
/// same bits the live accumulator would have produced.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalEqState {
    /// Raw feature count (augmented dimension is `n_features + 1`).
    pub n_features: usize,
    /// Observation count.
    pub n: usize,
    /// `Σ y²`.
    pub yty: f64,
    /// `Zᵀy`, length `n_features + 1`.
    pub zty: Vec<f64>,
    /// `ZᵀZ`, row-major, `(n_features + 1)²`.
    pub ztz: Vec<f64>,
    /// The live incremental factor, if any. `None` is the dirty state (the
    /// next solve re-factorizes — valid, just O(m³) once).
    pub factor: Option<NeqFactorState>,
}

/// The exact serialized form of a [`RankOneInverse`]: `A⁻¹` and `Xᵀy`
/// verbatim (the inverse is state, not cache — it is maintained by
/// Sherman–Morrison, not recomputed).
#[derive(Debug, Clone, PartialEq)]
pub struct RankOneState {
    /// Vector dimension.
    pub dim: usize,
    /// Observation count.
    pub n: usize,
    /// `A⁻¹`, row-major, `dim²`.
    pub a_inv: Vec<f64>,
    /// `Xᵀy`, length `dim`.
    pub xty: Vec<f64>,
}

/// Reusable workspace for [`NormalEquations::solve_with`] /
/// [`NormalEquations::solve_into`]: every intermediate the solve needs
/// (Jacobi scales and the scaled Gram matrix for re-factorizations, the
/// coefficient buffer for every refit) lives here, so a caller that keeps
/// one scratch per arm-set pays zero allocations per refit in steady
/// state.
///
/// The scratch is dimension-agnostic: buffers are (re)sized on use, which
/// allocates only when an accumulator of a larger dimension than any seen
/// before borrows it. Every buffer is fully overwritten before being read,
/// so **results never depend on the scratch's history** — solving with a
/// reused scratch is bitwise identical to solving with a fresh one (pinned
/// by a test below).
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    scales: Vec<f64>,
    gram: Matrix,
    coeffs: Vec<f64>,
}

impl SolveScratch {
    /// New empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        SolveScratch::default()
    }

    /// Scratch pre-sized for accumulators over `n_features` raw features,
    /// so even the first solve allocates nothing extra.
    pub fn for_features(n_features: usize) -> Self {
        let dim = n_features + 1;
        SolveScratch {
            scales: vec![0.0; dim],
            gram: Matrix::zeros(dim, dim),
            coeffs: vec![0.0; dim],
        }
    }

    fn resize(&mut self, dim: usize) {
        self.scales.resize(dim, 0.0);
        self.coeffs.resize(dim, 0.0);
    }
}

/// The incrementally maintained factor: `L` with `LLᵀ = ZᵀZ + R`, where
/// `R = λ·diag(0, 1, …, 1)` plus the jitter baked in by a fallback
/// re-factorization (if one was ever needed). `R` itself lives in the
/// accumulator's `stats` buffer.
#[derive(Debug, Clone)]
struct IncrementalFactor {
    chol: UpdatableCholesky,
    /// The ridge the factor was built for; a solve with a different λ
    /// re-factorizes.
    lambda: f64,
}

/// Write the baked diagonal regularizer of a fresh factor:
/// `reg[i] = (i == 0 ? 0 : λ) + jitter·sᵢ²` for the Jacobi scales `sᵢ` the
/// factor was built under (any jitter applied in the scaled space maps back
/// through those frozen scales).
fn bake_reg(reg: &mut [f64], lambda: f64, jitter: f64, scales: &[f64]) {
    for (i, (r, &si)) in reg.iter_mut().zip(scales).enumerate() {
        *r = if i == 0 { 0.0 } else { lambda } + jitter * si * si;
    }
}

/// Running normal-equations accumulator for a linear model with intercept.
///
/// Internally works in the augmented space `z = [1, x]` so the intercept is
/// just another coefficient.
#[derive(Debug, Clone)]
pub struct NormalEquations {
    /// Augmented dimension (`n_features + 1`).
    dim: usize,
    /// The statistics in one buffer, three segments:
    /// * `ZᵀZ`, symmetric `dim × dim`, of which **only the upper triangle**
    ///   (`j ≥ i`, diagonal included) is stored, packed by rows: row `i`
    ///   holds `(ZᵀZ)[i][i..]` from offset `upper_row_start(dim, i)`,
    ///   `dim(dim+1)/2` values in all. Storing half the matrix halves the
    ///   store traffic of the hottest record-path loop; readers of a lower
    ///   element go through [`NormalEquations::ztz_at`] (or mirror on
    ///   export).
    /// * `Zᵀy` (`dim`).
    /// * The live factor's baked diagonal regularizer `R` in the original
    ///   space (`dim`; meaningful only while `factor` is `Some`). Rank-1
    ///   updates leave it untouched; `discount` scales it by γ alongside
    ///   the factor. It enables the O(m) residual recovery
    ///   `RSS = yᵀy − cᵀ(Zᵀy) − cᵀRc` (since `(ZᵀZ + R)c = Zᵀy` implies
    ///   `cᵀZᵀZc = cᵀZᵀy − cᵀRc`).
    stats: Vec<f64>,
    /// `Σ y²`, used to recover the residual sum of squares.
    yty: f64,
    /// Observation count.
    n: usize,
    /// Incrementally maintained Cholesky factor of the ridged Gram matrix;
    /// `None` is the dirty state (re-factorized lazily by the next
    /// factor-based solve).
    factor: Option<IncrementalFactor>,
}

impl NormalEquations {
    /// New empty accumulator over `n_features` raw features.
    pub fn new(n_features: usize) -> Self {
        let dim = n_features + 1;
        NormalEquations {
            dim,
            stats: vec![0.0; upper_row_start(dim, dim) + 2 * dim],
            yty: 0.0,
            n: 0,
            factor: None,
        }
    }

    /// Length of the packed `ZᵀZ` segment of `stats`.
    #[inline(always)]
    fn tri(&self) -> usize {
        upper_row_start(self.dim, self.dim)
    }

    /// `Zᵀy`.
    #[inline(always)]
    fn zty(&self) -> &[f64] {
        &self.stats[self.tri()..self.tri() + self.dim]
    }

    /// The live factor's baked regularizer `R`.
    #[inline(always)]
    fn reg(&self) -> &[f64] {
        &self.stats[self.tri() + self.dim..]
    }

    /// Number of raw features.
    pub fn n_features(&self) -> usize {
        self.dim - 1
    }

    /// Observations absorbed so far.
    pub fn n_obs(&self) -> usize {
        self.n
    }

    /// Absorb one `(x, y)` observation ([`NormalEquations::push_with`] on
    /// a fresh buffer: one allocation per call).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `x.len() != n_features`.
    pub fn push(&mut self, x: &[f64], y: f64) -> Result<()> {
        self.push_with(x, y, &mut Vec::new())
    }

    /// Absorb one `(x, y)` observation, staging the augmented vector
    /// `[1, x]` in the caller-owned `aug` (overwritten; a warm buffer keeps
    /// the call allocation-free).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `x.len() != n_features`.
    pub fn push_with(&mut self, x: &[f64], y: f64, aug: &mut Vec<f64>) -> Result<()> {
        if x.len() + 1 != self.dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "push: {} features into accumulator of {}",
                x.len(),
                self.dim - 1
            )));
        }
        // z = [1, x]; the Gram update runs contiguous rank-4 row panels
        // (each entry still receives the single product z_i·z_j, so the
        // statistics are bit-identical to the triangular formulation).
        stage_aug(x, aug);
        let (ztz, zty, _) = split_stats(&mut self.stats, self.dim);
        gram_rank_one(ztz, aug, 1.0);
        vector::axpy(y, aug, zty);
        self.yty += y * y;
        self.n += 1;
        // Keep the live factor live: adding zzᵀ is a rank-1 cholupdate,
        // independent of the ridge folded into the factor. The sweep
        // consumes `aug` as its working vector.
        if let Some(f) = &mut self.factor {
            if f.chol.rank_one_inline(aug, 1.0).is_err() {
                self.factor = None;
            }
        }
        Ok(())
    }

    /// Absorb `k = ys.len()` observations staged as **augmented rows**:
    /// `zrows[r·dim .. (r+1)·dim]` is `[1, x_r]` with `dim = n_features + 1`
    /// (the leading intercept entry must be exactly `1.0`; see
    /// [`augmented_rows`]). This is the one block entry point of the record
    /// path.
    ///
    /// **Bitwise contract:** the statistics and the live LDLᵀ factor end
    /// bit for bit where `k` sequential [`NormalEquations::push`] calls
    /// leave them. The factor takes the rows four at a time through
    /// `UpdatableCholesky::update_panel` (the `k mod 4` remainder through
    /// `update`); the Gram matrix folds in 4×4 register tiles whose entries
    /// each accumulate in row order, and a one-row block folds with
    /// `push`'s own kernel (the tiles cannot amortize a single row).
    /// Refactorizing once per block instead was measured at m=64 (README,
    /// "Perf trajectory", PR 8) and rejected: a fresh decomposition is not the
    /// same arithmetic as `k` rank-1 updates, so its low bits differ.
    ///
    /// `panel` is caller-owned scratch for the panel kernel, grown to
    /// `4·dim` values on use; a warm buffer (one can serve every
    /// accumulator of a dimension) keeps the call allocation-free.
    ///
    /// Returns the number of rows fully absorbed. This is `k` unless a
    /// factor update fails on some row `r` — reachable: a feature near
    /// 1e200 makes a pivot `+inf`, and the next row then hits the pivot
    /// floor at that column. As on the sequential path, where row `r`'s
    /// statistics land before its factor update fails, the factor is then
    /// invalidated, statistics for rows `0..=r` are folded, and `r + 1` is
    /// returned; the caller re-solves (re-factorizing exactly where the row
    /// path would) and pushes the remaining rows one at a time.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `zrows.len() != dim·k` (the
    /// accumulator is untouched in that case).
    pub fn push_rows(&mut self, zrows: &[f64], ys: &[f64], panel: &mut Vec<f64>) -> Result<usize> {
        let k = ys.len();
        let dim = self.dim;
        if zrows.len() != dim * k {
            return Err(LinalgError::ShapeMismatch(format!(
                "push_rows: {} values for {k} augmented rows of width {dim}",
                zrows.len()
            )));
        }
        debug_assert!(zrows.chunks_exact(dim).all(|z| z[0] == 1.0), "rows must be [1, x]");
        simd::push_rows(Isa::for_dim(self.dim), self, zrows, ys, panel)
    }

    /// [`NormalEquations::push_rows`] on validated rows; compiled once per
    /// instruction set by [`simd::push_rows`].
    #[inline(always)]
    pub(crate) fn push_rows_kernel(
        &mut self,
        zrows: &[f64],
        ys: &[f64],
        panel: &mut Vec<f64>,
    ) -> Result<usize> {
        let (k, dim) = (ys.len(), self.dim);
        // Factor first, then statistics: the factor depends only on the
        // rows and its own prior state, the statistics only on the rows and
        // theirs, so the two per-row phases commute bit for bit.
        let failed = match &mut self.factor {
            Some(f) => factor_rows(&mut f.chol, zrows, dim, panel)?,
            None => None,
        };
        let rows = match failed {
            Some(r) => {
                self.factor = None;
                r + 1
            }
            None => k,
        };
        let (zrows, ys) = (&zrows[..rows * dim], &ys[..rows]);
        let (ztz, zty, _) = split_stats(&mut self.stats, self.dim);
        if rows >= TILE_MIN_ROWS {
            gram_fold_tiled(ztz, dim, zrows);
        } else {
            for z in zrows.chunks_exact(dim) {
                gram_rank_one(ztz, z, 1.0);
            }
        }
        for (z, &y) in zrows.chunks_exact(dim).zip(ys) {
            vector::axpy(y, z, zty);
            self.yty += y * y;
        }
        self.n += rows;
        Ok(rows)
    }

    /// Feature-major adapter over [`NormalEquations::push_rows`]: feature
    /// `f` of the `k`-row block occupies `xcols[f·k .. (f+1)·k]`, one value
    /// per row in row order. The block is transposed into augmented rows
    /// (allocating — the serving path stages rows itself) and absorbed
    /// with the same bitwise contract and return value.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `xcols.len() != n_features·k`
    /// (the accumulator is untouched in that case).
    pub fn push_block(&mut self, xcols: &[f64], ys: &[f64]) -> Result<usize> {
        let k = ys.len();
        let nf = self.dim - 1;
        if xcols.len() != nf * k {
            return Err(LinalgError::ShapeMismatch(format!(
                "push_block: {} column values for {k} rows of {nf} features",
                xcols.len()
            )));
        }
        let mut zrows = Vec::new();
        augmented_rows(xcols, k, &mut zrows);
        self.push_rows(&zrows, ys, &mut Vec::new())
    }

    /// Remove one previously absorbed `(x, y)` observation — the
    /// sliding-window forgetting primitive. Statistics are subtracted and
    /// the live factor is rank-1 **downdated** in O(m²); if the downdate
    /// loses positive definiteness the factor is simply invalidated and the
    /// next solve re-factorizes from scratch (the documented fallback).
    ///
    /// The caller is responsible for only forgetting observations that were
    /// actually pushed; forgetting anything else produces statistics that
    /// no longer correspond to a real dataset. `[1, x]` is staged in the
    /// caller-owned `aug`, as [`NormalEquations::push_with`] does.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on a wrong-arity context,
    /// [`LinalgError::InsufficientData`] when the accumulator is empty.
    pub fn forget(&mut self, x: &[f64], y: f64, aug: &mut Vec<f64>) -> Result<()> {
        if x.len() + 1 != self.dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "forget: {} features into accumulator of {}",
                x.len(),
                self.dim - 1
            )));
        }
        if self.n == 0 {
            return Err(LinalgError::InsufficientData { have: 0, need: 1 });
        }
        stage_aug(x, aug);
        let (ztz, zty, _) = split_stats(&mut self.stats, self.dim);
        gram_rank_one(ztz, aug, -1.0);
        vector::axpy(-y, aug, zty);
        self.yty -= y * y;
        self.n -= 1;
        if let Some(f) = &mut self.factor {
            if f.chol.rank_one_inline(aug, -1.0).is_err() {
                self.factor = None;
            }
        }
        Ok(())
    }

    /// Merge another accumulator (e.g. built on a different thread) into this
    /// one. Sufficient statistics are additive, which is what makes the
    /// parallel simulation harness embarrassingly parallel.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on dimension mismatch.
    pub fn merge(&mut self, other: &NormalEquations) -> Result<()> {
        if self.dim != other.dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "merge: accumulators of {} and {} features",
                self.dim - 1,
                other.dim - 1
            )));
        }
        // In-place element-wise adds of the `ZᵀZ` and `Zᵀy` segments (same
        // dims checked above).
        let sums = self.tri() + self.dim;
        for (a, &b) in self.stats[..sums].iter_mut().zip(&other.stats[..sums]) {
            *a += b;
        }
        self.yty += other.yty;
        self.n += other.n;
        // A bulk statistics change is not a rank-1 event; re-factorize
        // lazily on the next solve.
        self.factor = None;
        Ok(())
    }

    /// Solve the current normal equations with ridge `lambda` on the
    /// non-intercept block (`lambda = 0` for plain OLS). Singular systems are
    /// automatically jittered, matching [`crate::lstsq::fit_ols`].
    ///
    /// When no live factor exists, the system is factorized under symmetric
    /// Jacobi (diagonal) scaling: features on wildly different scales —
    /// bytes next to moisture fractions in the BP3D vector — otherwise push
    /// the Gram matrix's condition number past `f64` and silently degrade
    /// the fit (and the jittered fallback's regularization is scale-aware
    /// only in the scaled space). When a live factor for this `lambda` is
    /// available (maintained by [`NormalEquations::push`] after a
    /// [`NormalEquations::solve_with`]-family refit), the solve is pure
    /// O(m²) substitution on it — same regression, no factorization.
    ///
    /// This is a thin wrapper over [`NormalEquations::solve_into`] with a
    /// fresh scratch; results are bitwise identical to a reused scratch.
    ///
    /// # Errors
    /// [`LinalgError::InsufficientData`] when no observations were pushed.
    pub fn solve(&self, lambda: f64) -> Result<LinearFit> {
        if self.n == 0 {
            return Err(LinalgError::InsufficientData { have: 0, need: 1 });
        }
        let mut scratch = SolveScratch::new();
        let mut out = LinearFit::zeros(self.dim - 1);
        match &self.factor {
            Some(f) if f.lambda == lambda => {
                simd::solve_from_factor(
                    Isa::for_dim(self.dim),
                    self,
                    &f.chol,
                    self.reg(),
                    &mut scratch,
                    &mut out,
                )?;
            }
            _ => {
                // `&self` receiver: compute the factor without caching it
                // (mutating entry points cache; see `solve_into`).
                let (chol, jitter) = self.fresh_factor(lambda, &mut scratch)?;
                let mut reg = vec![0.0; self.dim];
                bake_reg(&mut reg, lambda, jitter, &scratch.scales);
                simd::solve_from_factor(
                    Isa::for_dim(self.dim),
                    self,
                    &chol,
                    &reg,
                    &mut scratch,
                    &mut out,
                )?;
            }
        }
        Ok(out)
    }

    /// [`NormalEquations::solve`] against a caller-owned workspace: zero
    /// heap allocations apart from the returned fit's coefficient vector.
    /// On the first call (or after a ridge change / merge / clear) the
    /// factor is rebuilt in O(m³) and **cached**; from then on every
    /// push+solve cycle is O(m²) and factorization-free.
    ///
    /// # Errors
    /// See [`NormalEquations::solve`].
    pub fn solve_with(&mut self, lambda: f64, scratch: &mut SolveScratch) -> Result<LinearFit> {
        let mut out = LinearFit::zeros(self.dim - 1);
        self.solve_into(lambda, scratch, &mut out)?;
        Ok(out)
    }

    /// The fully allocation-free refit: like
    /// [`NormalEquations::solve_with`], but the result is written into an
    /// existing [`LinearFit`] (its coefficient vector is reused). This is
    /// what the steady-state record path calls.
    ///
    /// # Errors
    /// See [`NormalEquations::solve`].
    pub fn solve_into(
        &mut self,
        lambda: f64,
        scratch: &mut SolveScratch,
        out: &mut LinearFit,
    ) -> Result<()> {
        if self.n == 0 {
            return Err(LinalgError::InsufficientData { have: 0, need: 1 });
        }
        let needs_refactor = !matches!(&self.factor, Some(f) if f.lambda == lambda);
        if needs_refactor {
            let (chol, jitter) = self.fresh_factor(lambda, scratch)?;
            bake_reg(split_stats(&mut self.stats, self.dim).2, lambda, jitter, &scratch.scales);
            self.factor = Some(IncrementalFactor { chol, lambda });
        }
        // lint: allow(no-panic) -- factor refreshed on the branch above
        let f = self.factor.as_ref().expect("factor refreshed above");
        simd::solve_from_factor(Isa::for_dim(self.dim), self, &f.chol, self.reg(), scratch, out)
    }

    /// True when a live factor for `lambda` exists, i.e. the next
    /// [`NormalEquations::solve_with`] is pure O(m²) substitution.
    pub fn factor_is_live(&self, lambda: f64) -> bool {
        matches!(&self.factor, Some(f) if f.lambda == lambda)
    }

    /// Symmetry-aware element read of `ZᵀZ`: the mirror of an unmaintained
    /// lower-triangle element is its upper-triangle twin (bitwise equal to
    /// what full maintenance would have stored there).
    #[inline]
    fn ztz_at(&self, i: usize, j: usize) -> f64 {
        let (i, j) = if j >= i { (i, j) } else { (j, i) };
        self.stats[upper_row_start(self.dim, i) + j - i]
    }

    /// Build the factor `L` with `LLᵀ = ZᵀZ + λ·diag(0,1,…,1)` from
    /// scratch. The decomposition runs on the Jacobi-scaled Gram matrix
    /// (robustness + scale-aware jitter, exactly the legacy arithmetic);
    /// the returned factor is mapped back to the unscaled space by row
    /// scaling — `chol(D A D) = D·chol(A)` for diagonal `D` — so that later
    /// rank-1 updates need no knowledge of the (per-push changing) scales.
    ///
    /// Also returns the jitter applied in the scaled space, from which
    /// [`bake_reg`] derives the diagonal regularizer `R` (under the scales
    /// left in `scratch`) that the O(m) residual recovery in
    /// [`NormalEquations::solve_from_factor_kernel`] needs on every
    /// subsequent solve.
    fn fresh_factor(
        &self,
        lambda: f64,
        scratch: &mut SolveScratch,
    ) -> Result<(UpdatableCholesky, f64)> {
        scratch.resize(self.dim);
        // Jacobi scale factors s_i = sqrt((ZᵀZ)_ii); zero-variance columns
        // keep scale 1 so the scaled system stays well-defined.
        for (i, s) in scratch.scales.iter_mut().enumerate() {
            let d = self.ztz_at(i, i);
            *s = if d > 0.0 { d.sqrt() } else { 1.0 };
        }
        let scales = &scratch.scales;
        scratch.gram.reset_zeroed(self.dim, self.dim);
        for i in 0..self.dim {
            for j in 0..self.dim {
                scratch.gram[(i, j)] = self.ztz_at(i, j) / (scales[i] * scales[j]);
            }
        }
        for i in 1..self.dim {
            scratch.gram[(i, i)] += lambda / (scales[i] * scales[i]);
        }
        let (ch, jitter) = match Cholesky::decompose(&scratch.gram) {
            Ok(ch) => (ch, 0.0),
            Err(_) => {
                let scale = scratch.gram.max_abs().max(f64::MIN_POSITIVE);
                Cholesky::decompose_jittered(&scratch.gram, scale * 1e-10, 24)?
            }
        };
        let mut l = ch.into_l();
        for i in 0..self.dim {
            let si = scratch.scales[i];
            for j in 0..=i {
                l[(i, j)] *= si;
            }
        }
        Ok((UpdatableCholesky::from_factor(l), jitter))
    }

    /// Refit from an existing factor: O(m²) substitution + the O(m) RSS
    /// recovery, writing into `out` without allocating. Compiled once per
    /// instruction set by [`simd::solve_from_factor`].
    #[inline(always)]
    pub(crate) fn solve_from_factor_kernel(
        &self,
        chol: &UpdatableCholesky,
        reg: &[f64],
        scratch: &mut SolveScratch,
        out: &mut LinearFit,
    ) -> Result<()> {
        scratch.resize(self.dim);
        let zty = self.zty();
        scratch.coeffs.copy_from_slice(zty);
        chol.solve_in_place_inline(&mut scratch.coeffs)?;
        let coeffs = &scratch.coeffs;
        out.intercept = coeffs[0];
        out.weights.resize(self.dim - 1, 0.0);
        out.weights.copy_from_slice(&coeffs[1..]);
        // RSS = yᵀy − 2cᵀ(Zᵀy) + cᵀ(ZᵀZ)c, clamped at 0 against rounding.
        // The factor satisfies `(ZᵀZ + R)c = Zᵀy` for its baked diagonal
        // regularizer `R`, so `cᵀ(ZᵀZ)c = cᵀ(Zᵀy) − cᵀRc` — the residual
        // identity collapses the old O(m²) quadratic pass to O(m):
        // RSS = yᵀy − cᵀ(Zᵀy) − Σᵢ regᵢ·cᵢ².
        let mut reg_quad = 0.0;
        for (&ri, &ci) in reg.iter().zip(coeffs.iter()) {
            reg_quad += ri * ci * ci;
        }
        out.residual_ss = (self.yty - vector::dot(coeffs, zty) - reg_quad).max(0.0);
        out.n_obs = self.n;
        Ok(())
    }

    /// Export the exact accumulator state (statistics + live factor) for
    /// checkpointing. See [`NormalEqState`].
    pub fn to_state(&self) -> NormalEqState {
        NormalEqState {
            n_features: self.dim - 1,
            n: self.n,
            yty: self.yty,
            zty: self.zty().to_vec(),
            // Export mirrors the maintained upper triangle into a full
            // symmetric matrix — bitwise the matrix full maintenance kept.
            ztz: {
                let mut full = vec![0.0; self.dim * self.dim];
                for i in 0..self.dim {
                    for j in 0..self.dim {
                        full[i * self.dim + j] = self.ztz_at(i, j);
                    }
                }
                full
            },
            factor: self.factor.as_ref().map(|f| NeqFactorState {
                lambda: f.lambda,
                parts: f.chol.to_parts(),
                reg: self.reg().to_vec(),
            }),
        }
    }

    /// Rebuild an accumulator from [`NormalEquations::to_state`] output.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on inconsistent buffer lengths,
    /// [`LinalgError::NotPositiveDefinite`] on a corrupt stored factor.
    pub fn from_state(state: &NormalEqState) -> Result<Self> {
        // A corrupt feature count must be a shape error, not an overflow.
        let sizes = state.n_features.checked_add(1).and_then(|d| Some((d, d.checked_mul(d)?)));
        let Some((dim, square)) = sizes else {
            return Err(LinalgError::ShapeMismatch(format!(
                "normal-equations state for {} features overflows its dimension",
                state.n_features
            )));
        };
        if state.zty.len() != dim || state.ztz.len() != square {
            return Err(LinalgError::ShapeMismatch(format!(
                "normal-equations state for {} features: zty {} (want {dim}), ztz {} (want {square})",
                state.n_features,
                state.zty.len(),
                state.ztz.len(),
            )));
        }
        let factor = match &state.factor {
            Some(f) => {
                if f.parts.dim != dim {
                    return Err(LinalgError::ShapeMismatch(format!(
                        "factor dim {} against accumulator dim {dim}",
                        f.parts.dim
                    )));
                }
                if f.reg.len() != dim {
                    return Err(LinalgError::ShapeMismatch(format!(
                        "factor regularizer len {} against accumulator dim {dim}",
                        f.reg.len()
                    )));
                }
                Some(IncrementalFactor {
                    chol: UpdatableCholesky::from_parts(&f.parts)?,
                    lambda: f.lambda,
                })
            }
            None => None,
        };
        // Pack the upper triangle (the lower one is its mirror on export).
        let mut stats = Vec::with_capacity(upper_row_start(dim, dim) + 2 * dim);
        for (i, row) in state.ztz.chunks_exact(dim).enumerate() {
            stats.extend_from_slice(&row[i..]);
        }
        stats.extend_from_slice(&state.zty);
        match &state.factor {
            Some(f) => stats.extend_from_slice(&f.reg),
            None => stats.resize(stats.len() + dim, 0.0),
        }
        Ok(NormalEquations { dim, stats, yty: state.yty, n: state.n, factor })
    }

    /// Reset to the empty state. The incremental factor is dropped; the
    /// next solve falls back to a full re-factorization (of whatever is
    /// pushed afterwards).
    pub fn clear(&mut self) {
        self.stats.fill(0.0);
        self.yty = 0.0;
        self.n = 0;
        self.factor = None;
    }

    /// Exponentially discount the accumulated statistics by `gamma ∈ (0, 1]`:
    /// `ZᵀZ ← γ·ZᵀZ`, `Zᵀy ← γ·Zᵀy`, `Σy² ← γ·Σy²`. Calling this before
    /// every push turns the solve into *exponentially weighted* least
    /// squares with effective memory `1/(1−γ)` observations — the standard
    /// tool for tracking drifting targets (hardware whose performance
    /// changes over time in a shared cluster).
    ///
    /// The raw observation count is not discounted; it keeps reporting how
    /// many samples were ever absorbed.
    ///
    /// # Panics
    /// Panics when `gamma` is outside `(0, 1]`.
    pub fn discount(&mut self, gamma: f64) {
        assert!(gamma > 0.0 && gamma <= 1.0, "discount factor {gamma} outside (0, 1]");
        if gamma == 1.0 {
            return;
        }
        let (ztz, zty, reg) = split_stats(&mut self.stats, self.dim);
        for v in ztz.iter_mut().chain(zty) {
            *v *= gamma;
        }
        self.yty *= gamma;
        // γ·(ZᵀZ) keeps an un-ridged factor exact under `L ← √γ·L`; a
        // ridged factor would need `γλ → λ` repair, so it re-factorizes
        // lazily instead (the discount path — drift-aware arms — solves
        // with λ = 0, keeping it O(m²)).
        match &mut self.factor {
            Some(f) if f.lambda == 0.0 => {
                f.chol.scale(gamma);
                // The baked jitter diagonal scales with the factor too:
                // L ← √γ·L represents γ·(ZᵀZ + R), i.e. R ← γ·R.
                for r in reg {
                    *r *= gamma;
                }
            }
            Some(_) => self.factor = None,
            None => {}
        }
    }
}

/// Maintains `A⁻¹` for `A = λI + Σ z zᵀ` under rank-1 updates
/// (Sherman–Morrison), plus `Xᵀy`. This is LinUCB's bookkeeping: both the
/// point estimate `A⁻¹ Xᵀy` and the width `√(zᵀ A⁻¹ z)` come straight from it.
#[derive(Debug, Clone)]
pub struct RankOneInverse {
    dim: usize,
    a_inv: Matrix,
    xty: Vec<f64>,
    n: usize,
}

impl RankOneInverse {
    /// New accumulator over vectors of length `dim` with prior `A = lambda·I`.
    ///
    /// # Panics
    /// Panics if `lambda <= 0` (the prior must be invertible).
    pub fn new(dim: usize, lambda: f64) -> Self {
        assert!(lambda > 0.0, "RankOneInverse requires a positive ridge prior");
        let mut a_inv = Matrix::identity(dim);
        a_inv.scale_mut(1.0 / lambda);
        RankOneInverse { dim, a_inv, xty: vec![0.0; dim], n: 0 }
    }

    /// Vector dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Observations absorbed.
    pub fn n_obs(&self) -> usize {
        self.n
    }

    /// Current `A⁻¹`.
    pub fn a_inv(&self) -> &Matrix {
        &self.a_inv
    }

    /// Sherman–Morrison update for one observation `(z, y)`:
    /// `A⁻¹ ← A⁻¹ − (A⁻¹ z zᵀ A⁻¹) / (1 + zᵀ A⁻¹ z)`, with `A⁻¹z` in the
    /// caller-owned `az` (overwritten; a warm buffer allocates nothing).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `z.len() != dim`.
    pub fn push(&mut self, z: &[f64], y: f64, az: &mut Vec<f64>) -> Result<()> {
        if z.len() != self.dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "push: vector of {} into accumulator of {}",
                z.len(),
                self.dim
            )));
        }
        let RankOneInverse { dim, a_inv, xty, n } = self;
        az.resize(*dim, 0.0);
        a_inv.mul_vec_into(z, az)?;
        let denom = 1.0 + vector::dot(z, az);
        for i in 0..*dim {
            for j in 0..*dim {
                a_inv[(i, j)] -= az[i] * az[j] / denom;
            }
        }
        vector::axpy(y, z, xty);
        *n += 1;
        Ok(())
    }

    /// Point estimate `θ = A⁻¹ Xᵀy`.
    ///
    /// # Errors
    /// Mirrors matrix-vector shape checks (cannot fail internally).
    pub fn theta(&self) -> Result<Vec<f64>> {
        self.a_inv.mul_vec(&self.xty)
    }

    /// [`RankOneInverse::theta`] into a caller-owned buffer (resized in
    /// place, no allocation once at capacity).
    ///
    /// # Errors
    /// Mirrors matrix-vector shape checks (cannot fail internally).
    pub fn theta_into(&self, out: &mut Vec<f64>) -> Result<()> {
        out.resize(self.dim, 0.0);
        self.a_inv.mul_vec_into(&self.xty, out)
    }

    /// Export the exact state (`A⁻¹`, `Xᵀy`, count) for checkpointing.
    pub fn to_state(&self) -> RankOneState {
        RankOneState {
            dim: self.dim,
            n: self.n,
            a_inv: self.a_inv.as_slice().to_vec(),
            xty: self.xty.clone(),
        }
    }

    /// Rebuild an accumulator from [`RankOneInverse::to_state`] output.
    /// The ridge prior is already baked into the stored `A⁻¹`, so no
    /// `lambda` argument is needed (or checked).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on inconsistent buffer lengths.
    pub fn from_state(state: &RankOneState) -> Result<Self> {
        let dim = state.dim;
        let Some(square) = dim.checked_mul(dim) else {
            return Err(LinalgError::ShapeMismatch(format!(
                "rank-one state for dim {dim} overflows its size"
            )));
        };
        if state.a_inv.len() != square || state.xty.len() != dim {
            return Err(LinalgError::ShapeMismatch(format!(
                "rank-one state for dim {dim}: a_inv {} (want {square}), xty {} (want {dim})",
                state.a_inv.len(),
                state.xty.len()
            )));
        }
        Ok(RankOneInverse {
            dim,
            a_inv: Matrix::from_vec(dim, dim, state.a_inv.clone())?,
            xty: state.xty.clone(),
            n: state.n,
        })
    }

    /// Quadratic form `zᵀ A⁻¹ z` (squared confidence width in LinUCB).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on length mismatch.
    pub fn quad_form(&self, z: &[f64]) -> Result<f64> {
        let az = self.a_inv.mul_vec(z)?;
        Ok(vector::dot(z, &az))
    }

    /// [`RankOneInverse::quad_form`] against a caller-owned `A⁻¹z` buffer
    /// (the allocation-free hot-path variant).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on length mismatch.
    pub fn quad_form_with(&self, z: &[f64], az: &mut Vec<f64>) -> Result<f64> {
        az.resize(self.dim, 0.0);
        self.a_inv.mul_vec_into(z, az)?;
        Ok(vector::dot(z, az))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::fit_ols;

    fn rows(data: &[(Vec<f64>, f64)]) -> (Matrix, Vec<f64>) {
        let mut m = Matrix::zeros(0, 0);
        let mut y = Vec::new();
        for (x, t) in data {
            m.push_row(x).unwrap();
            y.push(*t);
        }
        (m, y)
    }

    fn sample_data() -> Vec<(Vec<f64>, f64)> {
        // y = 1.5 x0 - 0.5 x1 + 2 with tiny deterministic "noise"
        (0..12)
            .map(|i| {
                let x0 = (i % 5) as f64;
                let x1 = (i % 3) as f64 * 0.7;
                let noise = ((i * 37 % 11) as f64 - 5.0) * 0.01;
                (vec![x0, x1], 1.5 * x0 - 0.5 * x1 + 2.0 + noise)
            })
            .collect()
    }

    #[test]
    fn incremental_matches_batch_ols() {
        let data = sample_data();
        let mut acc = NormalEquations::new(2);
        for (x, y) in &data {
            acc.push(x, *y).unwrap();
        }
        let inc = acc.solve(0.0).unwrap();
        let (xs, y) = rows(&data);
        let batch = fit_ols(&xs, &y).unwrap();
        for (a, b) in inc.weights.iter().zip(&batch.weights) {
            assert!((a - b).abs() < 1e-8, "weights differ: {a} vs {b}");
        }
        assert!((inc.intercept - batch.intercept).abs() < 1e-8);
        assert!((inc.residual_ss - batch.residual_ss).abs() < 1e-6);
        assert_eq!(inc.n_obs, batch.n_obs);
    }

    #[test]
    fn merge_equals_sequential() {
        let data = sample_data();
        let (left, right) = data.split_at(5);
        let mut a = NormalEquations::new(2);
        let mut b = NormalEquations::new(2);
        for (x, y) in left {
            a.push(x, *y).unwrap();
        }
        for (x, y) in right {
            b.push(x, *y).unwrap();
        }
        a.merge(&b).unwrap();
        let merged = a.solve(0.0).unwrap();

        let mut seq = NormalEquations::new(2);
        for (x, y) in &data {
            seq.push(x, *y).unwrap();
        }
        let sequential = seq.solve(0.0).unwrap();
        assert!(vector::allclose(&merged.weights, &sequential.weights, 1e-12, 1e-12));
        assert!((merged.intercept - sequential.intercept).abs() < 1e-12);
    }

    #[test]
    fn merge_rejects_mismatched_dims() {
        let mut a = NormalEquations::new(2);
        let b = NormalEquations::new(3);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn empty_solve_and_clear() {
        let mut acc = NormalEquations::new(1);
        assert!(matches!(acc.solve(0.0), Err(LinalgError::InsufficientData { .. })));
        acc.push(&[1.0], 2.0).unwrap();
        assert_eq!(acc.n_obs(), 1);
        acc.clear();
        assert_eq!(acc.n_obs(), 0);
        assert!(acc.solve(0.0).is_err());
    }

    #[test]
    fn push_validates_width() {
        let mut acc = NormalEquations::new(2);
        assert!(acc.push(&[1.0], 1.0).is_err());
        assert_eq!(acc.n_features(), 2);
    }

    /// Transpose rows into the feature-major column block `push_block`
    /// expects.
    fn to_cols(data: &[(Vec<f64>, f64)], nf: usize) -> (Vec<f64>, Vec<f64>) {
        let k = data.len();
        let mut cols = vec![0.0; nf * k];
        let mut ys = Vec::with_capacity(k);
        for (r, (x, y)) in data.iter().enumerate() {
            for (f, &v) in x.iter().enumerate() {
                cols[f * k + r] = v;
            }
            ys.push(*y);
        }
        (cols, ys)
    }

    #[test]
    fn push_block_bitwise_matches_sequential_pushes() {
        let data = sample_data();
        let (cols, ys) = to_cols(&data, 2);

        // Cold accumulator (no live factor).
        let mut blk = NormalEquations::new(2);
        assert_eq!(blk.push_block(&cols, &ys).unwrap(), data.len());
        let mut seq = NormalEquations::new(2);
        for (x, y) in &data {
            seq.push(x, *y).unwrap();
        }
        assert_eq!(blk.to_state(), seq.to_state());

        // Warm accumulator with a live factor: the per-row cholupdate sweep
        // must leave the factor bitwise where k sequential pushes would.
        let mut scratch = SolveScratch::new();
        let mut out = LinearFit::zeros(2);
        blk.solve_into(0.25, &mut scratch, &mut out).unwrap();
        seq.solve_into(0.25, &mut scratch, &mut out).unwrap();
        assert!(blk.factor_is_live(0.25));
        assert_eq!(blk.push_block(&cols, &ys).unwrap(), data.len());
        for (x, y) in &data {
            seq.push(x, *y).unwrap();
        }
        assert_eq!(blk.to_state(), seq.to_state());

        // Empty block is a no-op; a wrong-size block is rejected untouched.
        let before = blk.to_state();
        assert_eq!(blk.push_block(&[], &[]).unwrap(), 0);
        assert!(blk.push_block(&cols[..3], &ys).is_err());
        assert_eq!(blk.to_state(), before);
    }

    #[test]
    fn push_rows_bitwise_matches_push_block() {
        let data = sample_data();
        let nf = 2;
        let (cols, ys) = to_cols(&data, nf);
        let mut zrows = vec![9.0; 3]; // stale contents are replaced
        augmented_rows(&cols, ys.len(), &mut zrows);
        for (z, (x, _)) in zrows.chunks_exact(nf + 1).zip(&data) {
            assert_eq!(z[0], 1.0);
            assert_eq!(&z[1..], x.as_slice());
        }

        // Cold, then warm with a live factor; the panel scratch is shared
        // and arrives oversized and dirty.
        let mut cols_path = NormalEquations::new(nf);
        let mut rows_path = NormalEquations::new(nf);
        let mut panel = vec![-5.0; 64];
        assert_eq!(cols_path.push_block(&cols, &ys).unwrap(), data.len());
        assert_eq!(rows_path.push_rows(&zrows, &ys, &mut panel).unwrap(), data.len());
        assert_eq!(cols_path.to_state(), rows_path.to_state());
        let mut scratch = SolveScratch::new();
        let mut out = LinearFit::zeros(nf);
        cols_path.solve_into(0.25, &mut scratch, &mut out).unwrap();
        rows_path.solve_into(0.25, &mut scratch, &mut out).unwrap();
        assert_eq!(cols_path.push_block(&cols, &ys).unwrap(), data.len());
        assert_eq!(rows_path.push_rows(&zrows, &ys, &mut panel).unwrap(), data.len());
        assert!(rows_path.factor_is_live(0.25));
        assert_eq!(cols_path.to_state(), rows_path.to_state());

        // A row staging of the wrong width is rejected untouched.
        let before = rows_path.to_state();
        assert!(rows_path.push_rows(&zrows[1..], &ys, &mut panel).is_err());
        assert_eq!(rows_path.to_state(), before);
    }

    #[test]
    fn ridge_path_on_degenerate_data() {
        // All identical contexts: ZᵀZ is rank 1; solve must still work.
        let mut acc = NormalEquations::new(2);
        for _ in 0..4 {
            acc.push(&[1.0, 1.0], 6.0).unwrap();
        }
        let fit = acc.solve(0.0).unwrap();
        assert!((fit.predict(&[1.0, 1.0]) - 6.0).abs() < 1e-4);
    }

    #[test]
    fn discount_tracks_a_shifted_target() {
        // Regime A: y = 2x. Regime B: y = 5x. A discounted accumulator must
        // forget A and converge to B; an undiscounted one stays in between.
        let mut discounted = NormalEquations::new(1);
        let mut plain = NormalEquations::new(1);
        let gamma = 0.85;
        let feed = |acc: &mut NormalEquations, slope: f64, n: usize, disc: Option<f64>| {
            for i in 0..n {
                let x = (i % 10 + 1) as f64;
                if let Some(g) = disc {
                    acc.discount(g);
                }
                acc.push(&[x], slope * x).unwrap();
            }
        };
        feed(&mut discounted, 2.0, 60, Some(gamma));
        feed(&mut plain, 2.0, 60, None);
        feed(&mut discounted, 5.0, 60, Some(gamma));
        feed(&mut plain, 5.0, 60, None);
        let d = discounted.solve(0.0).unwrap();
        let p = plain.solve(0.0).unwrap();
        assert!((d.weights[0] - 5.0).abs() < 0.2, "discounted slope {}", d.weights[0]);
        assert!(
            (p.weights[0] - 5.0).abs() > 0.8,
            "plain OLS still dragged by the old regime: {}",
            p.weights[0]
        );
        assert_eq!(d.n_obs, 120, "raw count not discounted");
    }

    #[test]
    fn discount_one_is_identity() {
        let mut acc = NormalEquations::new(1);
        acc.push(&[2.0], 4.0).unwrap();
        let before = acc.solve(0.0).unwrap();
        acc.discount(1.0);
        let after = acc.solve(0.0).unwrap();
        assert_eq!(before.weights, after.weights);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn discount_validates_gamma() {
        NormalEquations::new(1).discount(0.0);
    }

    fn assert_fit_bitwise(a: &LinearFit, b: &LinearFit) {
        assert_eq!(a.weights.len(), b.weights.len());
        for (wa, wb) in a.weights.iter().zip(&b.weights) {
            assert_eq!(wa.to_bits(), wb.to_bits(), "weights differ: {wa} vs {wb}");
        }
        assert_eq!(a.intercept.to_bits(), b.intercept.to_bits());
        assert_eq!(a.residual_ss.to_bits(), b.residual_ss.to_bits());
        assert_eq!(a.n_obs, b.n_obs);
    }

    /// `solve_with` against a **shared, reused** scratch must equal
    /// `solve()` (which uses a fresh scratch) bitwise, even when several
    /// accumulators ("arms") interleave on the same workspace.
    #[test]
    fn solve_with_reused_scratch_is_bitwise_solve() {
        let mut arms: Vec<NormalEquations> = (0..3).map(|_| NormalEquations::new(2)).collect();
        let mut scratch = SolveScratch::new();
        for round in 0..40 {
            let arm = round % 3;
            let x = [(round % 7) as f64 - 2.0, (round % 5) as f64 * 0.9 + 0.1];
            let y = 3.0 * x[0] - x[1] + 5.0 + (round % 11) as f64 * 0.01;
            arms[arm].push(&x, y).unwrap();
            let lambda = if arm == 1 { 0.5 } else { 0.0 };
            // solve() first (reads the cache, never writes it), then the
            // caching solve_with on the polluted shared scratch.
            let fresh = arms[arm].solve(lambda).unwrap();
            let reused = arms[arm].solve_with(lambda, &mut scratch).unwrap();
            assert_fit_bitwise(&fresh, &reused);
            // And again now that the factor is live.
            let fresh2 = arms[arm].solve(lambda).unwrap();
            assert_fit_bitwise(&fresh2, &reused);
        }
        assert!(arms[0].factor_is_live(0.0));
        assert!(arms[1].factor_is_live(0.5) && !arms[1].factor_is_live(0.0));
    }

    /// Once a factor is live, push+solve keeps it live (no re-factorization)
    /// and still agrees with the from-scratch solve to tight tolerance.
    /// The first solve happens on a well-conditioned system so the factor is
    /// jitter-free (the jittered early-round path is covered by the core
    /// crate's exact-vs-incremental arm proptests).
    #[test]
    fn incremental_factor_tracks_pushes() {
        let mut acc = NormalEquations::new(3);
        let mut scratch = SolveScratch::for_features(3);
        for i in 0..60 {
            let x = [(i % 5) as f64, (i % 7) as f64 * 0.3 - 1.0, ((i * 13) % 11) as f64];
            acc.push(&x, 1.0 + (i % 9) as f64).unwrap();
            if i < 12 {
                continue;
            }
            let inc = acc.solve_with(0.0, &mut scratch).unwrap();
            if i > 12 {
                assert!(acc.factor_is_live(0.0), "factor must stay live after round {i}");
            }
            // Reference: identical statistics, forced from-scratch path.
            let mut fresh = NormalEquations::new(3);
            fresh.merge(&acc).unwrap();
            let full = fresh.solve(0.0).unwrap();
            for (a, b) in inc.weights.iter().zip(&full.weights) {
                assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "{a} vs {b} at {i}");
            }
            assert!((inc.intercept - full.intercept).abs() < 1e-7);
        }
    }

    #[test]
    fn solve_into_reuses_fit_allocation() {
        let mut acc = NormalEquations::new(2);
        let mut scratch = SolveScratch::for_features(2);
        let mut fit = LinearFit::zeros(2);
        for (x, y) in sample_data() {
            acc.push(&x, y).unwrap();
            acc.solve_into(0.0, &mut scratch, &mut fit).unwrap();
        }
        let direct = acc.solve(0.0).unwrap();
        assert_fit_bitwise(&direct, &fit);
    }

    /// forget() is push()'s inverse: statistics and fits return to the
    /// pre-push state (modulo rounding), through the downdate fast path.
    #[test]
    fn forget_inverts_push() {
        let data = sample_data();
        let mut acc = NormalEquations::new(2);
        let mut scratch = SolveScratch::new();
        for (x, y) in &data {
            acc.push(x, *y).unwrap();
        }
        let before = acc.solve_with(0.0, &mut scratch).unwrap();
        assert!(acc.factor_is_live(0.0));
        acc.push(&[9.0, -3.0], 123.0).unwrap();
        acc.forget(&[9.0, -3.0], 123.0, &mut Vec::new()).unwrap();
        assert_eq!(acc.n_obs(), data.len());
        let after = acc.solve_with(0.0, &mut scratch).unwrap();
        for (a, b) in before.weights.iter().zip(&after.weights) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "{a} vs {b}");
        }
        assert!((before.intercept - after.intercept).abs() < 1e-7);

        // Validation mirrors push.
        assert!(acc.forget(&[1.0], 1.0, &mut Vec::new()).is_err());
        let mut empty = NormalEquations::new(2);
        assert!(matches!(
            empty.forget(&[1.0, 2.0], 1.0, &mut Vec::new()),
            Err(LinalgError::InsufficientData { .. })
        ));
    }

    /// A sliding window maintained by push+forget matches an exact refit
    /// over the window contents.
    #[test]
    fn forget_tracks_sliding_window() {
        let stream: Vec<(Vec<f64>, f64)> = (0..50)
            .map(|i| {
                let x = vec![(i % 9) as f64 + 0.5, ((i * 7) % 5) as f64];
                let y = 2.0 * x[0] - 0.4 * x[1] + 3.0 + (i % 4) as f64 * 0.05;
                (x, y)
            })
            .collect();
        let w = 12;
        let mut acc = NormalEquations::new(2);
        let mut scratch = SolveScratch::new();
        for i in 0..stream.len() {
            if i >= w {
                let (ox, oy) = &stream[i - w];
                acc.forget(ox, *oy, &mut Vec::new()).unwrap();
            }
            let (x, y) = &stream[i];
            acc.push(x, *y).unwrap();
            // Compare once the window is well-conditioned (fitted values at
            // the window's own contexts — unique even near rank deficiency).
            if i < w {
                continue;
            }
            let windowed = acc.solve_with(0.0, &mut scratch).unwrap();
            let window = &stream[i + 1 - w..=i];
            let mut exact = NormalEquations::new(2);
            for (xe, ye) in window {
                exact.push(xe, *ye).unwrap();
            }
            let full = exact.solve(0.0).unwrap();
            assert_eq!(windowed.n_obs, full.n_obs);
            for (xe, ye) in window {
                let pa = windowed.predict(xe);
                let pb = full.predict(xe);
                assert!((pa - pb).abs() < 1e-6 * (1.0 + ye.abs()), "round {i}: {pa} vs {pb}");
            }
        }
    }

    /// discount() keeps an un-ridged factor live via exact `√γ` scaling.
    #[test]
    fn discount_keeps_unridged_factor_live() {
        let mut acc = NormalEquations::new(1);
        let mut scratch = SolveScratch::new();
        for i in 0..10 {
            acc.push(&[(i % 4 + 1) as f64], 2.0 * (i % 4 + 1) as f64).unwrap();
        }
        acc.solve_with(0.0, &mut scratch).unwrap();
        assert!(acc.factor_is_live(0.0));
        acc.discount(0.9);
        assert!(acc.factor_is_live(0.0), "λ=0 factor survives discounting");
        let inc = acc.solve_with(0.0, &mut scratch).unwrap();
        let mut fresh = NormalEquations::new(1);
        fresh.merge(&acc).unwrap();
        let full = fresh.solve(0.0).unwrap();
        assert!((inc.weights[0] - full.weights[0]).abs() < 1e-9);

        // A ridged factor cannot be γ-scaled exactly; it goes dirty and the
        // next solve transparently re-factorizes.
        acc.solve_with(0.5, &mut scratch).unwrap();
        assert!(acc.factor_is_live(0.5));
        acc.discount(0.9);
        assert!(!acc.factor_is_live(0.5));
        let again = acc.solve_with(0.5, &mut scratch).unwrap();
        assert!(again.weights[0].is_finite());
        assert!(acc.factor_is_live(0.5));
    }

    /// State export/import is bitwise-faithful: a restored accumulator
    /// produces exactly the bits the live one produces, through further
    /// pushes, forgets, discounts, and solves — including the live factor
    /// (whose `dinv` cache is incremental state, not recomputable).
    #[test]
    fn state_roundtrip_is_bitwise_exact() {
        let mut live = NormalEquations::new(2);
        let mut scratch = SolveScratch::new();
        for (x, y) in sample_data() {
            live.push(&x, y).unwrap();
        }
        // Make the factor live (and γ-scale it so dinv drifts off 1/d).
        live.solve_with(0.0, &mut scratch).unwrap();
        live.discount(0.9375);
        assert!(live.factor_is_live(0.0));

        let state = live.to_state();
        let mut restored = NormalEquations::from_state(&state).unwrap();
        assert!(restored.factor_is_live(0.0));
        assert_eq!(restored.n_obs(), live.n_obs());

        let mut scratch2 = SolveScratch::new();
        for i in 0..30 {
            let x = [(i % 5) as f64 + 0.25, (i % 7) as f64 * 0.5];
            let y = 1.0 + i as f64 * 0.125;
            live.push(&x, y).unwrap();
            restored.push(&x, y).unwrap();
            if i == 10 {
                live.forget(&x, y, &mut Vec::new()).unwrap();
                restored.forget(&x, y, &mut Vec::new()).unwrap();
            }
            let a = live.solve_with(0.0, &mut scratch).unwrap();
            let b = restored.solve_with(0.0, &mut scratch2).unwrap();
            assert_fit_bitwise(&a, &b);
        }

        // A dirty accumulator round-trips too (factor = None).
        let mut dirty = NormalEquations::new(2);
        dirty.push(&[1.0, 2.0], 3.0).unwrap();
        let s = dirty.to_state();
        assert!(s.factor.is_none());
        let rd = NormalEquations::from_state(&s).unwrap();
        assert_fit_bitwise(&dirty.solve(0.0).unwrap(), &rd.solve(0.0).unwrap());

        // Corrupt states are rejected, not absorbed.
        let mut bad = state.clone();
        bad.zty.pop();
        assert!(NormalEquations::from_state(&bad).is_err());
        let mut bad = state.clone();
        if let Some(f) = &mut bad.factor {
            f.parts.d[0] = -1.0;
        }
        assert!(NormalEquations::from_state(&bad).is_err());
        let mut bad = state.clone();
        if let Some(f) = &mut bad.factor {
            f.parts.dim = 99;
        }
        assert!(NormalEquations::from_state(&bad).is_err());
        let mut bad = state.clone();
        if let Some(f) = &mut bad.factor {
            f.reg.pop();
        }
        assert!(NormalEquations::from_state(&bad).is_err());
        // Sizes past `usize` are shape errors, not overflow panics.
        for n_features in [usize::MAX, 1 << 32] {
            let bad = NormalEqState { n_features, ..state.clone() };
            let err = NormalEquations::from_state(&bad).unwrap_err().to_string();
            assert!(err.contains("overflows its dimension"), "{err}");
        }
        let mut bad = state;
        if let Some(f) = &mut bad.factor {
            f.parts.dim = 1 << 32;
            let err = UpdatableCholesky::from_parts(&f.parts).unwrap_err().to_string();
            assert!(err.contains("overflow their size"), "{err}");
        }
    }

    #[test]
    fn rank_one_state_roundtrip_is_bitwise_exact() {
        let mut live = RankOneInverse::new(3, 0.5);
        for i in 0..15 {
            let z = [1.0, (i % 4) as f64, (i % 6) as f64 * 0.5];
            live.push(&z, 2.0 + i as f64, &mut Vec::new()).unwrap();
        }
        let state = live.to_state();
        let mut restored = RankOneInverse::from_state(&state).unwrap();
        assert_eq!(restored.n_obs(), live.n_obs());
        for i in 0..20 {
            let z = [1.0, (i % 5) as f64 * 0.3, (i % 3) as f64];
            live.push(&z, 1.0 + i as f64 * 0.5, &mut Vec::new()).unwrap();
            restored.push(&z, 1.0 + i as f64 * 0.5, &mut Vec::new()).unwrap();
            let ta = live.theta().unwrap();
            let tb = restored.theta().unwrap();
            for (a, b) in ta.iter().zip(&tb) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(
                live.quad_form(&z).unwrap().to_bits(),
                restored.quad_form(&z).unwrap().to_bits()
            );
        }
        let mut bad = state.clone();
        bad.xty.pop();
        assert!(RankOneInverse::from_state(&bad).is_err());
        let bad = RankOneState { dim: 1 << 32, ..state };
        let err = RankOneInverse::from_state(&bad).unwrap_err().to_string();
        assert!(err.contains("overflows its size"), "{err}");
    }

    #[test]
    fn sherman_morrison_matches_direct_inverse() {
        let lambda = 0.5;
        let zs = [
            vec![1.0, 0.5, -0.2],
            vec![0.3, 1.0, 0.9],
            vec![-1.0, 0.2, 0.4],
            vec![0.8, -0.6, 1.0],
            vec![0.1, 0.1, 0.1],
        ];
        let mut r1 = RankOneInverse::new(3, lambda);
        let mut a = Matrix::identity(3);
        a.scale_mut(lambda);
        for z in &zs {
            r1.push(z, 1.0, &mut Vec::new()).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] += z[i] * z[j];
                }
            }
        }
        let direct = Cholesky::decompose(&a).unwrap().inverse().unwrap();
        assert!(r1.a_inv().allclose(&direct, 1e-9, 1e-9));
        assert_eq!(r1.n_obs(), 5);
    }

    #[test]
    fn theta_recovers_ridge_solution() {
        // theta = (λI + ZᵀZ)⁻¹ Zᵀy — verify against explicit computation.
        let lambda = 1e-6;
        let zs = [vec![1.0, 2.0], vec![2.0, 1.0], vec![3.0, 4.0], vec![0.5, -1.0]];
        let true_theta = [2.0, -1.0];
        let mut r1 = RankOneInverse::new(2, lambda);
        for z in &zs {
            let y = z[0] * true_theta[0] + z[1] * true_theta[1];
            r1.push(z, y, &mut Vec::new()).unwrap();
        }
        let theta = r1.theta().unwrap();
        assert!((theta[0] - 2.0).abs() < 1e-3);
        assert!((theta[1] + 1.0).abs() < 1e-3);
    }

    #[test]
    fn quad_form_positive_and_shrinking() {
        let mut r1 = RankOneInverse::new(2, 1.0);
        let z = [1.0, 1.0];
        let before = r1.quad_form(&z).unwrap();
        r1.push(&z, 0.0, &mut Vec::new()).unwrap();
        let after = r1.quad_form(&z).unwrap();
        assert!(before > 0.0 && after > 0.0);
        assert!(after < before, "confidence width must shrink with data");
        assert!(r1.quad_form(&[1.0]).is_err());
        assert!(r1.push(&[1.0], 0.0, &mut Vec::new()).is_err() && r1.dim() == 2);
    }

    #[test]
    #[should_panic(expected = "positive ridge prior")]
    fn rank_one_rejects_zero_lambda() {
        let _ = RankOneInverse::new(2, 0.0);
    }
}
