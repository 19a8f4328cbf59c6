//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! Solving the normal equations `(XᵀX) w = Xᵀy` is the cheapest way to run
//! the per-arm least squares of Algorithm 1; `XᵀX` is SPD whenever the design
//! matrix has full column rank, which makes Cholesky the natural solver.
//! [`Cholesky::decompose_jittered`] adds a tiny ridge to the diagonal when the
//! matrix is only semi-definite (e.g. an arm that has seen a single distinct
//! context), mirroring what the paper's prototype gets implicitly from
//! `numpy.linalg.lstsq`'s pseudo-inverse.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

impl Cholesky {
    /// Factorize an SPD matrix.
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a diagonal pivot is ≤ 0
    ///   (within a small relative tolerance).
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let mut l = Matrix::zeros(a.rows(), a.rows());
        Self::factor_into(a, &mut l)?;
        Ok(Cholesky { l })
    }

    /// Factorize an SPD matrix into a caller-owned lower-triangular buffer —
    /// the allocation-free core of [`Cholesky::decompose`]. `l` is resized
    /// (reusing its buffer when the shape already matches) and fully
    /// overwritten.
    ///
    /// # Errors
    /// See [`Cholesky::decompose`]; on error `l`'s contents are unspecified.
    pub fn factor_into(a: &Matrix, l: &mut Matrix) -> Result<()> {
        if a.rows() != a.cols() {
            return Err(LinalgError::ShapeMismatch(format!(
                "cholesky requires a square matrix, got {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        let n = a.rows();
        l.reset_zeroed(n, n);
        // Tolerance scaled to the largest diagonal entry: a pivot this small
        // relative to the matrix is numerically zero.
        let scale = (0..n).fold(f64::MIN_POSITIVE, |m, i| m.max(a[(i, i)].abs()));
        let tol = scale * 1e-13;
        for j in 0..n {
            let mut d = a[(j, j)];
            for k in 0..j {
                d -= l[(j, k)] * l[(j, k)];
            }
            if d <= tol {
                return Err(LinalgError::NotPositiveDefinite { index: j, value: d });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            for i in j + 1..n {
                let mut s = a[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = s / dj;
            }
        }
        Ok(())
    }

    /// Factorize `a + jitter·I`, retrying with geometrically growing jitter
    /// until the factorization succeeds (up to `max_tries`).
    ///
    /// Returns the factorization together with the jitter that was actually
    /// applied, so callers can report the effective regularization.
    ///
    /// # Errors
    /// Propagates the last [`LinalgError::NotPositiveDefinite`] if even the
    /// largest jitter fails, or [`LinalgError::ShapeMismatch`] for non-square
    /// input.
    pub fn decompose_jittered(
        a: &Matrix,
        initial_jitter: f64,
        max_tries: u32,
    ) -> Result<(Self, f64)> {
        match Self::decompose(a) {
            Ok(c) => return Ok((c, 0.0)),
            Err(e @ LinalgError::ShapeMismatch(_)) => return Err(e),
            Err(_) => {}
        }
        let n = a.rows();
        let mut jitter = initial_jitter.max(f64::MIN_POSITIVE);
        let mut last_err = LinalgError::NotPositiveDefinite { index: 0, value: 0.0 };
        for _ in 0..max_tries {
            let mut aj = a.clone();
            for i in 0..n {
                aj[(i, i)] += jitter;
            }
            match Self::decompose(&aj) {
                Ok(c) => return Ok((c, jitter)),
                Err(e) => last_err = e,
            }
            jitter *= 10.0;
        }
        Err(last_err)
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Consume the decomposition into its lower-triangular factor.
    pub fn into_l(self) -> Matrix {
        self.l
    }

    /// Solve `A x = b` via forward/back substitution on `L` and `Lᵀ`.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `b.len()` differs from the dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; b.len()];
        solve_spd_into(&self.l, b, &mut x)?;
        Ok(x)
    }

    /// Solve `A x = b` into a caller-owned buffer (no allocation).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `b.len()` or `x.len()` differ from
    /// the dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        solve_spd_into(&self.l, b, x)
    }

    /// Solve against several right-hand sides stacked as matrix columns.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if row counts differ.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_matrix: rhs has {} rows, system is {n}x{n}",
                b.rows()
            )));
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let x = self.solve(&b.col(j))?;
            for i in 0..n {
                out[(i, j)] = x[i];
            }
        }
        Ok(out)
    }

    /// Inverse of the factorized matrix (used by LinUCB's confidence widths).
    ///
    /// # Errors
    /// Never fails for a successfully decomposed system; the `Result` mirrors
    /// [`Cholesky::solve_matrix`].
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.l.rows()))
    }

    /// `log(det(A))`, computed stably as `2 Σ log(L[i][i])`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }
}

/// Forward/back substitution on a raw lower-triangular factor, writing the
/// solution into `x`. A single output buffer suffices: the forward pass
/// fills `x` with `y = L⁻¹b`, the backward pass overwrites it in place in
/// descending order (each step reads `y[i]` before writing `x[i]`, and only
/// already-final `x[k]`, `k > i`, above it).
fn solve_spd_into(l: &Matrix, b: &[f64], x: &mut [f64]) -> Result<()> {
    let n = l.rows();
    if b.len() != n || x.len() != n {
        return Err(LinalgError::ShapeMismatch(format!(
            "solve: rhs of length {} (buffer {}) against {n}x{n} system",
            b.len(),
            x.len()
        )));
    }
    // Forward: L y = b
    for i in 0..n {
        let mut s = b[i];
        for k in 0..i {
            s -= l[(i, k)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    // Backward: Lᵀ x = y
    for i in (0..n).rev() {
        let mut s = x[i];
        for k in i + 1..n {
            s -= l[(k, i)] * x[k];
        }
        x[i] = s / l[(i, i)];
    }
    Ok(())
}

/// The exact serialized form of an [`UpdatableCholesky`]: the root-free
/// `LDLᵀ` buffers, verbatim. See [`UpdatableCholesky::to_parts`].
#[derive(Debug, Clone, PartialEq)]
pub struct FactorParts {
    /// System dimension.
    pub dim: usize,
    /// `Lᵀ` of the unit-triangular `L`, row-major, `dim × dim`: 1.0 on the
    /// diagonal and 0 below it.
    pub lt: Vec<f64>,
    /// The positive diagonal `D`.
    pub d: Vec<f64>,
    /// The incrementally maintained reciprocals `1/dᵢ` (not recomputed on
    /// restore — they are state, not cache; see
    /// [`UpdatableCholesky::to_parts`]).
    pub dinv: Vec<f64>,
}

/// Offset of row `k ≤ n` of a packed strict upper triangle of order `n`
/// (row `k` holds columns `k+1..n`).
#[inline(always)]
fn strict_row_start(n: usize, k: usize) -> usize {
    k * (2 * n + 1 - k) / 2 - k
}

/// A Cholesky factor maintained under rank-1 modifications — the O(m²)
/// record-path engine.
///
/// Where [`Cholesky`] is a one-shot O(m³) factorization,
/// `UpdatableCholesky` keeps the factor of a *changing* SPD matrix:
///
/// * [`UpdatableCholesky::update`] folds `A ← A + wwᵀ` in O(m²) (one new
///   observation's Gram contribution — the classic `cholupdate`);
/// * [`UpdatableCholesky::downdate`] removes `A ← A − wwᵀ` via hyperbolic
///   rotations (sliding-window forgetting); it can legitimately fail when
///   the result would not be positive definite, in which case the factor is
///   **invalid** and the caller must re-factorize from scratch;
/// * [`UpdatableCholesky::scale`] applies `A ← γA` exactly as `L ← √γ·L`
///   (the exponential-discount path of drift-aware arms).
///
/// The factor holds no scratch: the crate's record path sweeps a
/// caller-owned copy of `w` (see `rank_one_inline`), so the steady-state
/// operations perform zero heap allocations. The public `update` and
/// `downdate` take `&[f64]` and copy it first.
///
/// **Representation.** Internally the factor is the root-free `A = LDLᵀ`
/// with unit-triangular `L` and positive diagonal `D` (the
/// Gill–Golub–Murray–Saunders form). One buffer holds it: the strict upper
/// triangle of `Lᵀ` packed row by row (row `k` is column `k` of `L` below
/// its diagonal, `m−1−k` contiguous values), then `D`, then `1/dᵢ`. The
/// unit diagonal and the zeros below it are implicit and exported on
/// demand. This is deliberate hot-path engineering: the rank-1 sweep needs
/// **no square roots and one division per column** (a Givens-based
/// `cholupdate` keeps a serialized sqrt+divide dependency chain that
/// dominates its runtime at bandit dimensions), the substitutions are
/// division-free against cached `1/dᵢ`, and `scale` touches only `D` —
/// O(m) instead of O(m²). The classic Cholesky factor is materialized on
/// demand as `L·√D`.
#[derive(Debug, Clone)]
pub struct UpdatableCholesky {
    /// System dimension `n`.
    dim: usize,
    /// The strict upper triangle of `Lᵀ` (`n(n−1)/2` values, packed rows),
    /// then `D` (`n`), then the cached reciprocals `1/dᵢ` (`n`; FP
    /// division doesn't pipeline, so the hot loops multiply by these).
    buf: Vec<f64>,
}

impl UpdatableCholesky {
    /// Factorize an SPD matrix (see [`Cholesky::decompose`]).
    ///
    /// # Errors
    /// See [`Cholesky::decompose`].
    pub fn decompose(a: &Matrix) -> Result<Self> {
        Ok(Self::from_factor(Cholesky::decompose(a)?.into_l()))
    }

    /// Wrap an existing lower-triangular Cholesky factor `L_c` (with
    /// `A = L_c L_cᵀ`), converting to the internal root-free form.
    ///
    /// # Panics
    /// Panics if `l` is not square (programmer error).
    pub fn from_factor(l: Matrix) -> Self {
        assert_eq!(l.rows(), l.cols(), "factor must be square");
        let n = l.rows();
        let mut this = UpdatableCholesky { dim: n, buf: vec![0.0; strict_row_start(n, n) + 2 * n] };
        this.absorb_cholesky(&l);
        this
    }

    /// The packed strict upper triangle of `Lᵀ`, `D` and `1/dᵢ`.
    #[inline(always)]
    fn split(&self) -> (&[f64], &[f64], &[f64]) {
        let (lt, diag) = self.buf.split_at(strict_row_start(self.dim, self.dim));
        let (d, dinv) = diag.split_at(self.dim);
        (lt, d, dinv)
    }

    /// [`UpdatableCholesky::split`], mutably.
    #[inline(always)]
    fn split_mut(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        let (lt, diag) = self.buf.split_at_mut(strict_row_start(self.dim, self.dim));
        let (d, dinv) = diag.split_at_mut(self.dim);
        (lt, d, dinv)
    }

    /// Load `L_c` (classic Cholesky factor) into the `LDLᵀ` buffers:
    /// `dⱼ = L_c[j][j]²`, `L[i][j] = L_c[i][j]/L_c[j][j]`.
    fn absorb_cholesky(&mut self, l: &Matrix) {
        let n = self.dim;
        let (lt, d, dinv) = self.split_mut();
        for j in 0..n {
            let pivot = l[(j, j)];
            let inv_pivot = 1.0 / pivot;
            d[j] = pivot * pivot;
            dinv[j] = inv_pivot * inv_pivot;
            let row = &mut lt[strict_row_start(n, j)..strict_row_start(n, j + 1)];
            for (i, v) in (j + 1..n).zip(row) {
                *v = l[(i, j)] * inv_pivot;
            }
        }
    }

    /// System dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The classic lower-triangular Cholesky factor `L·√D`, materialized
    /// from the internal root-free storage.
    pub fn l(&self) -> Matrix {
        let n = self.dim;
        let (lt, d, _) = self.split();
        let mut out = Matrix::zeros(n, n);
        for j in 0..n {
            let root = d[j].sqrt();
            out[(j, j)] = root;
            let row = &lt[strict_row_start(n, j)..strict_row_start(n, j + 1)];
            for (i, &v) in (j + 1..n).zip(row) {
                out[(i, j)] = v * root;
            }
        }
        out
    }

    /// Export the exact internal representation — `Lᵀ` (row-major, unit
    /// diagonal and zeros below it written out), `D`, and the cached
    /// reciprocals `1/dᵢ` — for checkpointing.
    ///
    /// All three buffers are part of the snapshot on purpose: `dinv` is
    /// maintained *incrementally* (each update/scale multiplies it in
    /// place), so recomputing `1/dᵢ` on restore would not be bitwise
    /// identical to the live factor. Restoring via
    /// [`UpdatableCholesky::from_parts`] therefore reproduces every future
    /// solve, update, and downdate bit for bit.
    pub fn to_parts(&self) -> FactorParts {
        let n = self.dim;
        let (packed, d, dinv) = self.split();
        let mut lt = vec![0.0; n * n];
        for k in 0..n {
            lt[k * n + k] = 1.0;
            lt[k * n + k + 1..(k + 1) * n]
                .copy_from_slice(&packed[strict_row_start(n, k)..strict_row_start(n, k + 1)]);
        }
        FactorParts { dim: n, lt, d: d.to_vec(), dinv: dinv.to_vec() }
    }

    /// Rebuild a factor from [`UpdatableCholesky::to_parts`] output.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when the buffer lengths are
    /// inconsistent with `dim`, or when `Lᵀ` is not unit upper triangular
    /// (a diagonal entry other than 1.0, or a nonzero entry below the
    /// diagonal: the packed form cannot hold either);
    /// [`LinalgError::NotPositiveDefinite`] when a stored pivot is not a
    /// positive finite number.
    pub fn from_parts(parts: &FactorParts) -> Result<Self> {
        let n = parts.dim;
        let Some(square) = n.checked_mul(n) else {
            return Err(LinalgError::ShapeMismatch(format!(
                "factor parts for dim {n} overflow their size"
            )));
        };
        if parts.lt.len() != square || parts.d.len() != n || parts.dinv.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "factor parts for dim {n}: lt {} (want {square}), d {} / dinv {} (want {n})",
                parts.lt.len(),
                parts.d.len(),
                parts.dinv.len()
            )));
        }
        for (i, row) in parts.lt.chunks_exact(n.max(1)).enumerate() {
            if row[i] != 1.0 {
                return Err(LinalgError::ShapeMismatch(format!(
                    "factor parts: Lᵀ[{i}][{i}] is {}, not 1",
                    row[i]
                )));
            }
            if let Some(j) = row[..i].iter().position(|&v| v != 0.0) {
                return Err(LinalgError::ShapeMismatch(format!(
                    "factor parts: Lᵀ[{i}][{j}] below the diagonal is {}, not 0",
                    row[j]
                )));
            }
        }
        for (i, &d) in parts.d.iter().enumerate() {
            if !(d.is_finite() && d > 0.0) {
                return Err(LinalgError::NotPositiveDefinite { index: i, value: d });
            }
        }
        let mut buf = Vec::with_capacity(strict_row_start(n, n) + 2 * n);
        for (k, row) in parts.lt.chunks_exact(n.max(1)).enumerate() {
            buf.extend_from_slice(&row[k + 1..]);
        }
        buf.extend_from_slice(&parts.d);
        buf.extend_from_slice(&parts.dinv);
        Ok(UpdatableCholesky { dim: n, buf })
    }

    /// Re-factorize from scratch (the fallback after a failed
    /// [`UpdatableCholesky::downdate`] or a state reset).
    ///
    /// # Errors
    /// See [`Cholesky::decompose`]; on error the factor is invalid.
    pub fn refactor(&mut self, a: &Matrix) -> Result<()> {
        // The fallback path may allocate: it only runs on downdate failure
        // or state resets, never in the steady-state loop.
        let l = Cholesky::decompose(a)?.into_l();
        self.absorb_cholesky(&l);
        Ok(())
    }

    /// Rank-1 update `A ← A + wwᵀ` in O(m²): the root-free GGMS sweep — no
    /// square roots, one division per column, contiguous row access. The
    /// sweep runs on a copy of `w` (one allocation per call).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `w.len() != dim` (the factor is
    /// untouched in that case).
    pub fn update(&mut self, w: &[f64]) -> Result<()> {
        self.rank_one_inline(&mut w.to_vec(), 1.0)
    }

    /// Rank-1 downdate `A ← A − wwᵀ` (root-free hyperbolic sweep, on a
    /// copy of `w`).
    ///
    /// # Errors
    /// * [`LinalgError::ShapeMismatch`] if `w.len() != dim` (factor
    ///   untouched).
    /// * [`LinalgError::NotPositiveDefinite`] when the downdated matrix
    ///   loses (numerical) positive definiteness. **The factor is invalid
    ///   after this error** — callers must [`UpdatableCholesky::refactor`]
    ///   from the true matrix (which is what
    ///   [`crate::online::NormalEquations`] does behind its dirty flag).
    pub fn downdate(&mut self, w: &[f64]) -> Result<()> {
        self.rank_one_inline(&mut w.to_vec(), -1.0)
    }

    /// The GGMS rank-1 sweep for `A ← A + α·wwᵀ`, `α = ±1`, using `w`
    /// itself as the working vector (it is overwritten). Always inlined:
    /// the dispatched record path (`crate::simd`) calls it so that it
    /// compiles at its instruction set.
    #[inline(always)]
    pub(crate) fn rank_one_inline(&mut self, work: &mut [f64], alpha: f64) -> Result<()> {
        let n = self.dim;
        if work.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "rank-1 factor update: vector of length {} against {n}x{n} factor",
                work.len()
            )));
        }
        let (lt, d, dinv) = self.split_mut();
        let mut a = alpha;
        let mut rows = lt;
        for j in 0..n {
            let p = work[j];
            let d_old = d[j];
            let d_new = d_old + a * p * p;
            // A pivot collapsing below this relative floor (only reachable
            // on the downdate side) means the result is numerically
            // semi-definite.
            if d_new <= d_old * 1e-13 {
                return Err(LinalgError::NotPositiveDefinite { index: j, value: d_new });
            }
            let inv_new = 1.0 / d_new;
            let b = p * a * inv_new;
            a *= d_old * inv_new;
            d[j] = d_new;
            dinv[j] = inv_new;
            // Deliberately left in pairwise scalar form: the loop
            // vectorizer turns this exact shape into packed multiply,
            // subtract, multiply, add — 2-lane SSE2 in the baseline x86-64
            // build, 4-lane AVX2 inside the dispatched twins
            // (`crate::simd`), never a fused multiply-add — and every
            // explicit `[f64; 4]` block variant measured 30–45% *slower*
            // (the unrolled body falls back to the weaker SLP vectorizer).
            // See `cholupdate_m64` in the README's "Perf trajectory" table.
            let (row, rest) = rows.split_at_mut(n - 1 - j);
            rows = rest;
            for (lji, wi) in row.iter_mut().zip(&mut work[j + 1..]) {
                *wi -= p * *lji;
                *lji += b * *wi;
            }
        }
        Ok(())
    }

    /// Four rank-1 updates `A ← A + Σ_q w_q w_qᵀ` in one column sweep — the
    /// block record path's factor kernel. `rows` holds the four vectors
    /// row-major (`w_q = rows[q·n .. (q+1)·n]`); `work` is caller-owned
    /// scratch of at least `4·n` values and is overwritten.
    ///
    /// For each column the four pivots are taken in update order, then one
    /// pass over the column's tail applies all four updates to each `Lᵀ`
    /// element in turn. Every element receives exactly the operations of
    /// four sequential [`UpdatableCholesky::update`] calls, in the same
    /// order, so the factor is bitwise identical; `Lᵀ` is just loaded and
    /// stored once per panel instead of four times.
    ///
    /// Returns how many leading updates were applied: 4, or the index of
    /// the first update that the pivot floor rejects *in sequential order*
    /// (after which the factor is invalid, as after a failed `update`).
    /// Update `q` never reads what a later update writes, so when update
    /// `q` fails the sweep carries on with updates `0..q` alone; a failure
    /// among those further down lowers the count again.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] if `rows.len() != 4·dim` or `work`
    /// is shorter (the factor is untouched in that case).
    #[inline(always)]
    pub(crate) fn update_panel(&mut self, rows: &[f64], work: &mut [f64]) -> Result<usize> {
        let n = self.dim;
        if rows.len() != 4 * n || work.len() < 4 * n {
            return Err(LinalgError::ShapeMismatch(format!(
                "panel factor update: {} values (work {}) against 4 rows of a {n}x{n} factor",
                rows.len(),
                work.len()
            )));
        }
        let work = &mut work[..4 * n];
        work.copy_from_slice(rows);
        let (w0, rest) = work.split_at_mut(n);
        let (w1, rest) = rest.split_at_mut(n);
        let (w2, w3) = rest.split_at_mut(n);
        let (lt, d, dinv) = self.split_mut();
        let mut tail = lt;
        let mut a = [1.0f64; 4];
        let mut live = 4;
        for j in 0..n {
            let p = [w0[j], w1[j], w2[j], w3[j]];
            let mut b = [0.0f64; 4];
            for q in 0..live {
                let d_old = d[j];
                let d_new = d_old + a[q] * p[q] * p[q];
                if d_new <= d_old * 1e-13 {
                    live = q;
                    break;
                }
                let inv_new = 1.0 / d_new;
                b[q] = p[q] * a[q] * inv_new;
                a[q] *= d_old * inv_new;
                d[j] = d_new;
                dinv[j] = inv_new;
            }
            if live == 0 {
                return Ok(0);
            }
            let (row, rest) = tail.split_at_mut(n - 1 - j);
            tail = rest;
            if live == 4 {
                for ((((l, x0), x1), x2), x3) in row
                    .iter_mut()
                    .zip(&mut w0[j + 1..])
                    .zip(&mut w1[j + 1..])
                    .zip(&mut w2[j + 1..])
                    .zip(&mut w3[j + 1..])
                {
                    let mut v = *l;
                    *x0 -= p[0] * v;
                    v += b[0] * *x0;
                    *x1 -= p[1] * v;
                    v += b[1] * *x1;
                    *x2 -= p[2] * v;
                    v += b[2] * *x2;
                    *x3 -= p[3] * v;
                    v += b[3] * *x3;
                    *l = v;
                }
            } else {
                // A failure left updates `0..live`: apply them one after
                // another (per element still in update order).
                for (q, w) in [&mut *w0, &mut *w1, &mut *w2].into_iter().enumerate().take(live) {
                    for (l, x) in row.iter_mut().zip(&mut w[j + 1..]) {
                        *x -= p[q] * *l;
                        *l += b[q] * *x;
                    }
                }
            }
        }
        Ok(live)
    }

    /// Scale the represented matrix: `A ← γA`. In the root-free form only
    /// the diagonal moves (`D ← γD`), so this is exact and O(m) — the
    /// exponential-discount path costs less than one axpy.
    ///
    /// # Panics
    /// Panics when `γ ≤ 0` or non-finite.
    pub fn scale(&mut self, gamma: f64) {
        assert!(gamma.is_finite() && gamma > 0.0, "scale factor {gamma} outside (0, ∞)");
        let inv = 1.0 / gamma;
        let (_, d, dinv) = self.split_mut();
        for (d, di) in d.iter_mut().zip(dinv) {
            *d *= gamma;
            *di *= inv;
        }
    }

    /// Solve `A x = b` into a caller-owned buffer (no allocation).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on length mismatches.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        if b.len() != x.len() {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_into: rhs of length {} into buffer of length {}",
                b.len(),
                x.len()
            )));
        }
        x.copy_from_slice(b);
        self.solve_in_place(x)
    }

    /// Solve `A x = x` in place: the buffer arrives holding `b` and leaves
    /// holding the solution.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve_in_place(&self, bx: &mut [f64]) -> Result<()> {
        self.solve_in_place_inline(bx)
    }

    /// [`UpdatableCholesky::solve_in_place`], always inlined: the
    /// dispatched refit (`crate::simd`) calls it so that it compiles at
    /// its instruction set.
    #[inline(always)]
    pub(crate) fn solve_in_place_inline(&self, bx: &mut [f64]) -> Result<()> {
        let n = self.dim;
        if bx.len() != n {
            return Err(LinalgError::ShapeMismatch(format!(
                "solve_in_place: buffer of length {} against {n}x{n} system",
                bx.len()
            )));
        }
        let (lt, _, dinv) = self.split();
        // `L z = b` with unit L, column-oriented (column k of L is packed
        // row k of Lᵀ, contiguous): division-free. Rows run in rank-4
        // panels: a 4×4 unit-triangular head solved in the exact scalar
        // order, then one fused pass applying all four column updates to
        // the remainder. Every element still receives its four
        // `+= (-y_k)·l` updates in ascending-k order, so the result is
        // bitwise identical to four sequential `axpy` sweeps — it just
        // loads `bx` once instead of four times. The fused pass vectorizes
        // across elements as separate packed multiplies and adds: 2 lanes
        // (SSE2) in the baseline build, 4 (AVX2) in the dispatched refit
        // twin; Rust never contracts them into FMAs.
        let mut k = 0;
        let mut tail = lt;
        while k + 4 <= n {
            // Packed rows k..k+4 hold columns k+1.., k+2.., k+3.., k+4...
            let (r0, rest) = tail.split_at(n - 1 - k);
            let (r1, rest) = rest.split_at(n - 2 - k);
            let (r2, rest) = rest.split_at(n - 3 - k);
            let (r3, rest) = rest.split_at(n - 4 - k);
            tail = rest;
            let n0 = -bx[k];
            bx[k + 1] += n0 * r0[0];
            bx[k + 2] += n0 * r0[1];
            bx[k + 3] += n0 * r0[2];
            let n1 = -bx[k + 1];
            bx[k + 2] += n1 * r1[0];
            bx[k + 3] += n1 * r1[1];
            let n2 = -bx[k + 2];
            bx[k + 3] += n2 * r2[0];
            let n3 = -bx[k + 3];
            for ((((b, &l0), &l1), &l2), &l3) in
                bx[k + 4..].iter_mut().zip(&r0[3..]).zip(&r1[2..]).zip(&r2[1..]).zip(r3)
            {
                let mut v = *b;
                v += n0 * l0;
                v += n1 * l1;
                v += n2 * l2;
                v += n3 * l3;
                *b = v;
            }
            k += 4;
        }
        while k < n {
            let (row, rest) = tail.split_at(n - 1 - k);
            tail = rest;
            let yk = bx[k];
            crate::vector::axpy(-yk, row, &mut bx[k + 1..]);
            k += 1;
        }
        // `D y = z`: one pipelined multiply per component.
        for (x, di) in bx.iter_mut().zip(dinv) {
            *x *= di;
        }
        // `Lᵀ x = y` with unit Lᵀ, row-oriented contiguous dots over the
        // packed rows, last row first.
        let mut end = lt.len();
        for i in (0..n).rev() {
            let start = end - (n - 1 - i);
            bx[i] -= crate::vector::dot(&lt[start..end], &bx[i + 1..]);
            end = start;
        }
        Ok(())
    }

    /// Solve `A x = b` (allocating convenience wrapper).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] on a length mismatch.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; b.len()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // A = Bᵀ B + I is always SPD.
        let b =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]).unwrap();
        let mut a = b.gram();
        for i in 0..3 {
            a[(i, i)] += 1.0;
        }
        a
    }

    #[test]
    fn reconstructs_input() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let rec = ch.l().mul(&ch.l().transpose()).unwrap();
        assert!(rec.allclose(&a, 1e-10, 1e-10));
    }

    #[test]
    fn solves_known_system() {
        let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]).unwrap();
        let ch = Cholesky::decompose(&a).unwrap();
        // x = [1, 2] → b = A x = [8, 8]
        let x = ch.solve(&[8.0, 8.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_square_and_indefinite() {
        let rect = Matrix::zeros(2, 3);
        assert!(matches!(Cholesky::decompose(&rect), Err(LinalgError::ShapeMismatch(_))));
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        assert!(matches!(
            Cholesky::decompose(&indef),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_semidefinite() {
        // rank-1: [1 1; 1 1]
        let semi = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(Cholesky::decompose(&semi).is_err());
    }

    #[test]
    fn jitter_recovers_semidefinite() {
        let semi = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let (ch, jitter) = Cholesky::decompose_jittered(&semi, 1e-10, 20).unwrap();
        assert!(jitter > 0.0);
        let x = ch.solve(&[2.0, 2.0]).unwrap();
        // Solution of the jittered system stays near a minimum-norm solution.
        assert!((x[0] + x[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn jitter_zero_for_spd() {
        let (_, jitter) = Cholesky::decompose_jittered(&spd3(), 1e-10, 5).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn inverse_matches_identity() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let inv = ch.inverse().unwrap();
        let prod = a.mul(&inv).unwrap();
        assert!(prod.allclose(&Matrix::identity(3), 1e-9, 1e-9));
    }

    #[test]
    fn log_det_of_diagonal() {
        let d = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]).unwrap();
        let ch = Cholesky::decompose(&d).unwrap();
        assert!((ch.log_det() - (16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_validates_rhs_len() {
        let ch = Cholesky::decompose(&spd3()).unwrap();
        assert!(ch.solve(&[1.0]).is_err());
        assert!(ch.solve_matrix(&Matrix::zeros(2, 2)).is_err());
        let mut out = [0.0; 2];
        assert!(ch.solve_into(&[1.0, 2.0, 3.0], &mut out).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = spd3();
        let ch = Cholesky::decompose(&a).unwrap();
        let b = [2.0, -1.0, 0.5];
        let alloc = ch.solve(&b).unwrap();
        let mut out = [7.0; 3]; // stale garbage must not leak through
        ch.solve_into(&b, &mut out).unwrap();
        assert_eq!(alloc.as_slice(), out.as_slice(), "bitwise identical");
    }

    #[test]
    fn factor_into_reuses_buffer() {
        let a = spd3();
        let mut l = Matrix::zeros(3, 3);
        Cholesky::factor_into(&a, &mut l).unwrap();
        assert_eq!(&l, Cholesky::decompose(&a).unwrap().l());
        // A second call into the same (now non-zero) buffer is identical.
        Cholesky::factor_into(&a, &mut l).unwrap();
        assert_eq!(&l, Cholesky::decompose(&a).unwrap().l());
    }

    #[test]
    fn cholupdate_matches_full_refactorization() {
        let mut a = spd3();
        let mut up = UpdatableCholesky::decompose(&a).unwrap();
        let ws = [[1.0, -2.0, 0.5], [0.3, 0.3, 0.3], [-4.0, 1.0, 2.0]];
        for w in &ws {
            up.update(w).unwrap();
            for i in 0..3 {
                for j in 0..3 {
                    a[(i, j)] += w[i] * w[j];
                }
            }
            let full = Cholesky::decompose(&a).unwrap();
            assert!(up.l().allclose(full.l(), 1e-10, 1e-10));
        }
        assert_eq!(up.dim(), 3);
    }

    #[test]
    fn downdate_inverts_update() {
        let a = spd3();
        let mut up = UpdatableCholesky::decompose(&a).unwrap();
        let w = [1.5, -0.7, 2.0];
        up.update(&w).unwrap();
        up.downdate(&w).unwrap();
        assert!(up.l().allclose(Cholesky::decompose(&a).unwrap().l(), 1e-10, 1e-10));
        let x = up.solve(&[1.0, 2.0, 3.0]).unwrap();
        let direct = Cholesky::decompose(&a).unwrap().solve(&[1.0, 2.0, 3.0]).unwrap();
        for (xa, xb) in x.iter().zip(&direct) {
            assert!((xa - xb).abs() < 1e-10);
        }
    }

    #[test]
    fn downdate_losing_definiteness_errors() {
        // A = I; removing wwᵀ with ‖w‖ > 1 along e₀ is indefinite.
        let mut up = UpdatableCholesky::decompose(&Matrix::identity(2)).unwrap();
        assert!(matches!(up.downdate(&[2.0, 0.0]), Err(LinalgError::NotPositiveDefinite { .. })));
        // The documented recovery: refactor from the true matrix.
        up.refactor(&Matrix::identity(2)).unwrap();
        assert!(up.l().allclose(&Matrix::identity(2), 1e-12, 1e-12));
    }

    #[test]
    fn scale_is_exact() {
        let a = spd3();
        let mut up = UpdatableCholesky::decompose(&a).unwrap();
        up.scale(0.25);
        let mut scaled = a.clone();
        scaled.scale_mut(0.25);
        assert!(up.l().allclose(Cholesky::decompose(&scaled).unwrap().l(), 1e-12, 1e-12));
    }

    #[test]
    fn updatable_solve_in_place_matches_solve_into() {
        let mut up = UpdatableCholesky::decompose(&spd3()).unwrap();
        up.update(&[0.5, 0.5, -0.5]).unwrap();
        let b = [3.0, -2.0, 1.0];
        let mut out = [0.0; 3];
        up.solve_into(&b, &mut out).unwrap();
        let mut inplace = b;
        up.solve_in_place(&mut inplace).unwrap();
        assert_eq!(out, inplace);
        assert!(up.update(&[1.0]).is_err());
        assert!(up.downdate(&[1.0]).is_err());
        assert!(up.solve_in_place(&mut [1.0]).is_err());
    }

    #[test]
    fn parts_export_a_unit_upper_triangle_and_round_trip() {
        let mut f = UpdatableCholesky::decompose(&spd3()).unwrap();
        f.update(&[0.5, -1.0, 2.0]).unwrap();
        let parts = f.to_parts();
        for i in 0..3 {
            assert_eq!(parts.lt[i * 3 + i], 1.0);
            assert!(parts.lt[i * 3..i * 3 + i].iter().all(|&v| v == 0.0));
        }
        assert_eq!(UpdatableCholesky::from_parts(&parts).unwrap().to_parts(), parts);
    }

    #[test]
    fn from_parts_refuses_a_diagonal_other_than_one() {
        let mut parts = UpdatableCholesky::decompose(&spd3()).unwrap().to_parts();
        parts.lt[4] = 1.0 + f64::EPSILON;
        let err = UpdatableCholesky::from_parts(&parts).unwrap_err();
        assert!(matches!(&err, LinalgError::ShapeMismatch(m) if m.contains("Lᵀ[1][1]")), "{err}");
    }

    #[test]
    fn from_parts_refuses_an_entry_below_the_diagonal() {
        let mut parts = UpdatableCholesky::decompose(&spd3()).unwrap().to_parts();
        parts.lt[7] = 1e-300;
        let err = UpdatableCholesky::from_parts(&parts).unwrap_err();
        assert!(matches!(&err, LinalgError::ShapeMismatch(m) if m.contains("Lᵀ[2][1]")), "{err}");
    }

    /// A well-conditioned SPD factor of dimension `n` and four update rows.
    fn panel_case(n: usize) -> (UpdatableCholesky, Vec<f64>) {
        let a = Matrix::from_fn(n, n, |i, j| {
            if i == j {
                n as f64 + 1.0
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let rows = (0..4 * n).map(|t| ((t * 37 % 23) as f64 - 11.0) * 0.31).collect();
        (UpdatableCholesky::decompose(&a).unwrap(), rows)
    }

    fn assert_factor_bits(a: &UpdatableCholesky, b: &UpdatableCholesky, what: &str) {
        let (pa, pb) = (a.to_parts(), b.to_parts());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pa.lt), bits(&pb.lt), "{what}: Lᵀ diverged");
        assert_eq!(bits(&pa.d), bits(&pb.d), "{what}: d diverged");
        assert_eq!(bits(&pa.dinv), bits(&pb.dinv), "{what}: dinv diverged");
    }

    #[test]
    fn update_panel_is_bitwise_four_sequential_updates() {
        for n in (1..=9).chain([65]) {
            let (mut panel, rows) = panel_case(n);
            let mut seq = panel.clone();
            let mut work = vec![7.0; 4 * n + 3]; // dirty, oversized scratch
            for round in 0..3 {
                assert_eq!(panel.update_panel(&rows, &mut work).unwrap(), 4);
                for w in rows.chunks_exact(n) {
                    seq.update(w).unwrap();
                }
                assert_factor_bits(&panel, &seq, &format!("n={n} round {round}"));
            }
        }
        // Shape errors leave the factor untouched.
        let (mut f, rows) = panel_case(3);
        let before = f.to_parts();
        assert!(f.update_panel(&rows[..8], &mut [0.0; 12]).is_err());
        assert!(f.update_panel(&rows, &mut [0.0; 11]).is_err());
        assert_eq!(f.to_parts(), before);
    }

    /// Index of the first of `rows` whose sequential `update` fails (4 if
    /// none does).
    fn first_sequential_failure(f: &mut UpdatableCholesky, rows: &[f64], n: usize) -> usize {
        rows.chunks_exact(n).position(|w| f.update(w).is_err()).unwrap_or(4)
    }

    #[test]
    fn update_panel_reports_the_first_failure_in_sequential_order() {
        // A 1e200 entry turns its column's pivot into +inf; the next update
        // then fails the pivot floor there.
        for n in [1, 2, 5] {
            for pos in 0..4 {
                let (mut panel, mut rows) = panel_case(n);
                rows[pos * n + n - 1] = 1e200;
                let mut seq = panel.clone();
                let want = first_sequential_failure(&mut seq, &rows, n);
                assert_eq!(want, (pos + 1).min(4), "n={n} pos={pos}");
                let got = panel.update_panel(&rows, &mut vec![0.0; 4 * n]).unwrap();
                assert_eq!(got, want, "n={n} pos={pos}");
                if want == 4 {
                    assert_factor_bits(&panel, &seq, &format!("n={n} pos={pos}"));
                }
            }
        }
        // Detected out of order: update 2 fails first in the sweep (at
        // column 1, after update 1 made that pivot +inf), but update 1
        // fails later in the sweep (at column 3, made +inf by update 0), and
        // that is the first failure in sequential order.
        let n = 5;
        let mut rows = vec![0.0; 4 * n];
        rows[3] = 1e200;
        rows[n + 1] = 1e200;
        rows[2 * n] = 0.5;
        rows[3 * n] = 0.25;
        let id = UpdatableCholesky::decompose(&Matrix::identity(n)).unwrap();
        let want = first_sequential_failure(&mut id.clone(), &rows, n);
        assert_eq!(want, 1);
        assert_eq!(id.clone().update_panel(&rows, &mut vec![0.0; 4 * n]).unwrap(), want);
    }
}
