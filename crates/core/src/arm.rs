//! Per-arm runtime estimators.
//!
//! Algorithm 1 keeps, for every hardware `Hᵢ`, a linear model
//! `R̂(Hᵢ, x) = wᵢᵀx + bᵢ` refit by least squares over the arm's stored data
//! `Dᵢ` after each observation. Two implementations are provided:
//!
//! * [`LinearArm`] — the paper-faithful version: stores `Dᵢ` and re-solves
//!   the full least-squares problem on every update (`O(|Dᵢ|·m²)`).
//! * [`RecursiveArm`] — maintains the normal-equation sufficient statistics
//!   incrementally (`O(m²)` per update, independent of history length).
//!
//! Both produce the same regression — `proptest` in
//! `tests/proptest_core.rs` checks they agree to numerical precision — so
//! `RecursiveArm` is the default and `LinearArm` serves as the executable
//! specification (and powers the ablation bench `ablation_arm_model`).

use crate::error::CoreError;
use crate::snapshot::ArmState;
use crate::Result;
use banditware_linalg::lstsq::{fit_ols, fit_ridge, LinearFit};
use banditware_linalg::online::{augmented_rows, NormalEquations, SolveScratch};
use banditware_linalg::Matrix;

/// A runtime estimator for one hardware arm.
pub trait ArmEstimator: Send + Sync + std::fmt::Debug {
    /// Number of context features.
    fn n_features(&self) -> usize;

    /// Observations absorbed so far.
    fn n_obs(&self) -> usize;

    /// Export the estimator's complete state for checkpointing (bitwise
    /// round-trip with [`ArmEstimator::restore_state`]). The default
    /// returns [`ArmState::Opaque`] — such arms checkpoint by history
    /// replay only.
    fn state(&self) -> ArmState {
        ArmState::Opaque
    }

    /// Restore a state captured with [`ArmEstimator::state`]. On error the
    /// estimator is unspecified; restore into a fresh estimator.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] on kind/dimension mismatches, or
    /// (the default) for estimators without snapshot support.
    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        let _ = state;
        Err(CoreError::InvalidParameter {
            name: "snapshot",
            detail: "arm estimator does not support snapshot restore".into(),
        })
    }

    /// Predicted runtime for context `x`. Unfitted arms predict 0 — the
    /// paper's zero initialization (`wᵢ ← 0, bᵢ ← 0`), which makes fresh
    /// arms look maximally attractive and seeds optimistic exploration.
    fn predict(&self, x: &[f64]) -> f64;

    /// Borrow the live affine coefficients `(w, b)` when — and only when —
    /// this estimator's [`ArmEstimator::predict`] is exactly
    /// `vector::dot(w, x) + b` on its current fit. Columnar batch paths
    /// ([`crate::FeatureFrame::predict_into`]) use them to evaluate all rows
    /// with the identical accumulation order; estimators with any other
    /// prediction rule return `None` (the default) and are evaluated
    /// row-by-row instead.
    fn linear_coeffs(&self) -> Option<(&[f64], f64)> {
        None
    }

    /// Absorb one `(x, runtime)` observation and refit.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] / [`CoreError::InvalidRuntime`].
    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()>;

    /// Absorb a block of `k = ys.len()` observations staged as augmented
    /// rows: row `r` is `zrows[r·(nf+1) .. (r+1)·(nf+1)] = [1, x_r]`, the
    /// layout [`NormalEquations::push_rows`] folds (the leading entry must
    /// be exactly `1.0`). `panel` is caller-owned scratch for the block
    /// kernels; a warm buffer keeps the call allocation-free.
    ///
    /// **Bitwise contract:** the resulting estimator state is identical —
    /// bit for bit — to `k` sequential [`ArmEstimator::update`] calls in
    /// row order, and on error the same prefix is absorbed and the same
    /// error is returned (`absorbed` reports how many leading rows were
    /// fully taken, so callers can account for partial absorption).
    ///
    /// The default delegates row by row to `update`; linear-family
    /// estimators override it (the panel cholupdate and tiled Gram fold
    /// for [`RecursiveArm`], a single deferred refit for [`LinearArm`]).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `zrows.len()` is not
    /// `(n_features + 1)·k`, plus everything `update` can return.
    fn absorb_rows(
        &mut self,
        zrows: &[f64],
        ys: &[f64],
        _panel: &mut Vec<f64>,
        absorbed: &mut usize,
    ) -> Result<()> {
        update_rows(self, zrows, ys, absorbed)
    }

    /// Feature-major adapter over [`ArmEstimator::absorb_rows`]: feature
    /// `f` of the block occupies `xcols[f·k .. (f+1)·k]`, one value per
    /// row in row order. The block is transposed into augmented rows
    /// (allocating) and absorbed under the same contract.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `xcols.len()` is not
    /// `n_features·k`, plus everything `absorb_rows` can return.
    fn absorb_block(&mut self, xcols: &[f64], ys: &[f64], absorbed: &mut usize) -> Result<()> {
        *absorbed = 0;
        let k = ys.len();
        let nf = self.n_features();
        if xcols.len() != nf * k {
            return Err(CoreError::FeatureDimMismatch {
                got: xcols.len().checked_div(k).unwrap_or(xcols.len()),
                expected: nf,
            });
        }
        let mut zrows = Vec::new();
        augmented_rows(xcols, k, &mut zrows);
        self.absorb_rows(&zrows, ys, &mut Vec::new(), absorbed)
    }

    /// Current fitted coefficients.
    fn fit(&self) -> LinearFit;

    /// Reset to the unfitted state.
    fn reset(&mut self);
}

fn validate(x: &[f64], n_features: usize, runtime: f64) -> Result<()> {
    if x.len() != n_features {
        return Err(CoreError::FeatureDimMismatch { got: x.len(), expected: n_features });
    }
    if !runtime.is_finite() || runtime <= 0.0 {
        return Err(CoreError::InvalidRuntime(runtime));
    }
    Ok(())
}

/// Shape check of an augmented row block: `(n_features + 1)·k` values.
fn check_rows(zrows: &[f64], k: usize, n_features: usize) -> Result<()> {
    if zrows.len() != (n_features + 1) * k {
        return Err(CoreError::FeatureDimMismatch {
            got: zrows.len().checked_div(k).map_or(zrows.len(), |w| w.saturating_sub(1)),
            expected: n_features,
        });
    }
    Ok(())
}

/// The reference semantics of [`ArmEstimator::absorb_rows`]: one `update`
/// per row, in row order, counting the rows taken.
fn update_rows<A: ArmEstimator + ?Sized>(
    arm: &mut A,
    zrows: &[f64],
    ys: &[f64],
    absorbed: &mut usize,
) -> Result<()> {
    *absorbed = 0;
    let nf = arm.n_features();
    check_rows(zrows, ys.len(), nf)?;
    for (r, (z, &y)) in zrows.chunks_exact(nf + 1).zip(ys).enumerate() {
        arm.update(&z[1..], y)?;
        *absorbed = r + 1;
    }
    Ok(())
}

/// Uniform error for `restore_state` on a wrong state kind or shape.
pub(crate) fn state_mismatch(expected: &'static str, detail: impl std::fmt::Display) -> CoreError {
    CoreError::InvalidParameter {
        name: "snapshot",
        detail: format!("cannot restore into a {expected} arm: {detail}"),
    }
}

/// Validate that a snapshotted fit matches an arm's feature count.
fn check_fit(fit: &LinearFit, n_features: usize, kind: &'static str) -> Result<()> {
    if fit.weights.len() != n_features {
        return Err(state_mismatch(
            kind,
            format!("fit has {} weights, arm has {n_features} features", fit.weights.len()),
        ));
    }
    Ok(())
}

/// Paper-faithful arm: stores its data `Dᵢ` and refits the full least
/// squares on every update (Algorithm 1, steps 10–11).
///
/// The stored data *is* the design matrix, grown one
/// [`Matrix::push_row`] per observation — the refit is `O(|Dᵢ|·m²)`
/// without the `O(|Dᵢ|²·m)` of accumulated row-by-row rebuild copies the
/// naive formulation pays.
#[derive(Debug, Clone)]
pub struct LinearArm {
    n_features: usize,
    design: Matrix,
    ys: Vec<f64>,
    current: LinearFit,
}

impl LinearArm {
    /// New unfitted arm over `n_features` context features.
    pub fn new(n_features: usize) -> Self {
        LinearArm {
            n_features,
            design: Matrix::zeros(0, n_features),
            ys: Vec::new(),
            current: LinearFit::zeros(n_features),
        }
    }

    /// Borrow the stored observations: the design matrix (one context per
    /// row) and the runtimes.
    pub fn data(&self) -> (&Matrix, &[f64]) {
        (&self.design, &self.ys)
    }
}

impl ArmEstimator for LinearArm {
    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_obs(&self) -> usize {
        self.ys.len()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.current.predict(x)
    }

    fn linear_coeffs(&self) -> Option<(&[f64], f64)> {
        Some((&self.current.weights, self.current.intercept))
    }

    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()> {
        validate(x, self.n_features, runtime)?;
        // lint: allow(no-panic) -- row arity validated at entry
        self.design.push_row(x).expect("validated arity");
        self.ys.push(runtime);
        self.current = fit_ols(&self.design, &self.ys)?;
        Ok(())
    }

    fn absorb_rows(
        &mut self,
        zrows: &[f64],
        ys: &[f64],
        _panel: &mut Vec<f64>,
        absorbed: &mut usize,
    ) -> Result<()> {
        // `fit_ols` is a pure function of the stored data, so the k−1
        // intermediate refits of the sequential path only ever overwrite
        // `current` — appending every valid row first and fitting once
        // yields the same bits as the last sequential refit, at 1/k the
        // cost. Validation still runs per row in row order so a bad row
        // absorbs exactly the sequential prefix before erroring.
        *absorbed = 0;
        check_rows(zrows, ys.len(), self.n_features)?;
        let mut failure = None;
        for (r, (z, &y)) in zrows.chunks_exact(self.n_features + 1).zip(ys).enumerate() {
            let row = &z[1..];
            if let Err(e) = validate(row, self.n_features, y) {
                failure = Some(e);
                break;
            }
            // lint: allow(no-panic) -- every row arity-checked before any push
            self.design.push_row(row).expect("validated arity");
            self.ys.push(y);
            *absorbed = r + 1;
        }
        if *absorbed > 0 {
            self.current = fit_ols(&self.design, &self.ys)?;
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn fit(&self) -> LinearFit {
        self.current.clone()
    }

    fn reset(&mut self) {
        self.design = Matrix::zeros(0, self.n_features);
        self.ys.clear();
        self.current = LinearFit::zeros(self.n_features);
    }

    fn state(&self) -> ArmState {
        ArmState::Linear {
            n_features: self.n_features,
            data: self.design.as_slice().to_vec(),
            ys: self.ys.clone(),
            fit: self.current.clone(),
        }
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        let ArmState::Linear { n_features, data, ys, fit } = state else {
            return Err(state_mismatch("linear", "state is not a linear-arm snapshot"));
        };
        if *n_features != self.n_features {
            return Err(state_mismatch(
                "linear",
                format!("state has {n_features} features, arm has {}", self.n_features),
            ));
        }
        if data.len() != ys.len() * self.n_features {
            return Err(state_mismatch(
                "linear",
                format!("design of {} values against {} rows", data.len(), ys.len()),
            ));
        }
        check_fit(fit, self.n_features, "linear")?;
        self.design = Matrix::from_vec(ys.len(), self.n_features, data.clone())?;
        self.ys = ys.clone();
        self.current = fit.clone();
        Ok(())
    }
}

/// Incremental arm: normal-equation sufficient statistics with an
/// incrementally maintained Cholesky factor — O(m²) per update and, in
/// steady state, **zero heap allocations**: the arm owns one
/// [`SolveScratch`] workspace and the refit writes into the existing
/// [`LinearFit`] via [`NormalEquations::solve_into`]. Only the very first
/// refit (and refits after a `reset`) pays a full factorization.
#[derive(Debug, Clone)]
pub struct RecursiveArm {
    acc: NormalEquations,
    ridge: f64,
    current: LinearFit,
    scratch: SolveScratch,
}

impl RecursiveArm {
    /// New unfitted arm over `n_features` features with plain OLS refits.
    pub fn new(n_features: usize) -> Self {
        Self::with_ridge(n_features, 0.0)
    }

    /// New arm whose refits apply ridge penalty `lambda ≥ 0`.
    pub fn with_ridge(n_features: usize, lambda: f64) -> Self {
        RecursiveArm {
            acc: NormalEquations::new(n_features),
            ridge: lambda.max(0.0),
            current: LinearFit::zeros(n_features),
            scratch: SolveScratch::for_features(n_features),
        }
    }
}

impl ArmEstimator for RecursiveArm {
    fn n_features(&self) -> usize {
        self.acc.n_features()
    }

    fn n_obs(&self) -> usize {
        self.acc.n_obs()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.current.predict(x)
    }

    fn linear_coeffs(&self) -> Option<(&[f64], f64)> {
        Some((&self.current.weights, self.current.intercept))
    }

    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()> {
        validate(x, self.acc.n_features(), runtime)?;
        self.acc.push(x, runtime)?;
        self.acc.solve_into(self.ridge, &mut self.scratch, &mut self.current)?;
        Ok(())
    }

    fn absorb_rows(
        &mut self,
        zrows: &[f64],
        ys: &[f64],
        panel: &mut Vec<f64>,
        absorbed: &mut usize,
    ) -> Result<()> {
        // The block fast path: panel cholupdates + tiled Gram fold + one
        // refit. Bitwise equal to k sequential updates because (a)
        // `push_rows` pins the per-entry accumulation order and the
        // per-element factor operations, and (b) the k−1 intermediate
        // `solve_from_factor` calls the sequential path performs are pure
        // reads of the accumulator (they write only the scratch and
        // `current`, both fully overwritten by the final solve) — skipping
        // them changes nothing but the cost.
        //
        // The fold requires a factor that is live for this ridge (otherwise
        // the sequential path would re-factorize mid-stream and cholupdate
        // from there — a different float history); cold arms take the exact
        // row-by-row loop instead. Ditto any invalid runtime: the
        // sequential loop is the reference for which prefix lands before
        // the error.
        *absorbed = 0;
        let nf = self.acc.n_features();
        check_rows(zrows, ys.len(), nf)?;
        if ys.is_empty() {
            return Ok(());
        }
        let fast =
            self.acc.factor_is_live(self.ridge) && ys.iter().all(|&y| y.is_finite() && y > 0.0);
        if !fast {
            return update_rows(self, zrows, ys, absorbed);
        }
        let folded = self.acc.push_rows(zrows, ys, panel)?;
        *absorbed = folded;
        self.acc.solve_into(self.ridge, &mut self.scratch, &mut self.current)?;
        // A mid-block factor failure (a pivot driven to +inf): the solve
        // above re-factorized exactly where the sequential path would have;
        // finish the remainder row by row.
        for (r, z) in zrows.chunks_exact(nf + 1).enumerate().skip(folded) {
            self.update(&z[1..], ys[r])?;
            *absorbed = r + 1;
        }
        Ok(())
    }

    fn fit(&self) -> LinearFit {
        self.current.clone()
    }

    fn reset(&mut self) {
        self.acc.clear();
        self.current = LinearFit::zeros(self.acc.n_features());
    }

    fn state(&self) -> ArmState {
        ArmState::Recursive { acc: self.acc.to_state(), fit: self.current.clone() }
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        let ArmState::Recursive { acc, fit } = state else {
            return Err(state_mismatch("recursive", "state is not a recursive-arm snapshot"));
        };
        if acc.n_features != self.acc.n_features() {
            return Err(state_mismatch(
                "recursive",
                format!("state has {} features, arm has {}", acc.n_features, self.acc.n_features()),
            ));
        }
        check_fit(fit, self.acc.n_features(), "recursive")?;
        self.acc = NormalEquations::from_state(acc)?;
        self.current = fit.clone();
        Ok(())
    }
}

/// Non-contextual arm: the estimate is the running mean runtime. Used by
/// the classic multi-armed-bandit policies ([`crate::plain`], [`crate::ucb`])
/// where no context features exist.
#[derive(Debug, Clone)]
pub struct MeanArm {
    n: usize,
    mean: f64,
}

impl MeanArm {
    /// New arm with no observations (predicts 0, optimistic).
    pub fn new() -> Self {
        MeanArm { n: 0, mean: 0.0 }
    }

    /// Running mean runtime (0 when unplayed).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl Default for MeanArm {
    fn default() -> Self {
        Self::new()
    }
}

impl ArmEstimator for MeanArm {
    fn n_features(&self) -> usize {
        0
    }

    fn n_obs(&self) -> usize {
        self.n
    }

    fn predict(&self, _x: &[f64]) -> f64 {
        self.mean
    }

    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()> {
        if !x.is_empty() {
            return Err(CoreError::FeatureDimMismatch { got: x.len(), expected: 0 });
        }
        if !runtime.is_finite() || runtime <= 0.0 {
            return Err(CoreError::InvalidRuntime(runtime));
        }
        self.n += 1;
        self.mean += (runtime - self.mean) / self.n as f64;
        Ok(())
    }

    fn fit(&self) -> LinearFit {
        LinearFit { weights: vec![], intercept: self.mean, residual_ss: 0.0, n_obs: self.n }
    }

    fn reset(&mut self) {
        self.n = 0;
        self.mean = 0.0;
    }

    fn state(&self) -> ArmState {
        ArmState::Mean { n: self.n, mean: self.mean }
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        let ArmState::Mean { n, mean } = state else {
            return Err(state_mismatch("mean", "state is not a mean-arm snapshot"));
        };
        self.n = *n;
        self.mean = *mean;
        Ok(())
    }
}

/// Build `n_arms` independent arms of a given kind (helper for policies).
pub fn make_arms<A: ArmEstimator>(n_arms: usize, factory: impl Fn() -> A) -> Vec<A> {
    (0..n_arms).map(|_| factory()).collect()
}

/// Boxed arms are arms: lets heterogeneous estimators (or runtime-chosen
/// kinds, as in the drift ablation) drive the generic policies.
impl ArmEstimator for Box<dyn ArmEstimator> {
    fn n_features(&self) -> usize {
        self.as_ref().n_features()
    }

    fn n_obs(&self) -> usize {
        self.as_ref().n_obs()
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.as_ref().predict(x)
    }

    fn linear_coeffs(&self) -> Option<(&[f64], f64)> {
        self.as_ref().linear_coeffs()
    }

    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()> {
        self.as_mut().update(x, runtime)
    }

    fn absorb_rows(
        &mut self,
        zrows: &[f64],
        ys: &[f64],
        panel: &mut Vec<f64>,
        absorbed: &mut usize,
    ) -> Result<()> {
        self.as_mut().absorb_rows(zrows, ys, panel, absorbed)
    }

    fn fit(&self) -> LinearFit {
        self.as_ref().fit()
    }

    fn reset(&mut self) {
        self.as_mut().reset()
    }

    fn state(&self) -> ArmState {
        self.as_ref().state()
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        self.as_mut().restore_state(state)
    }
}

/// Ridge-regularized batch refit helper shared by tests and baselines:
/// identical to the arm's own behaviour but usable on external data.
///
/// # Errors
/// Propagates linear-algebra failures.
pub fn refit(xs: &Matrix, ys: &[f64], lambda: f64) -> Result<LinearFit> {
    Ok(if lambda > 0.0 { fit_ridge(xs, ys, lambda)? } else { fit_ols(xs, ys)? })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(arm: &mut impl ArmEstimator, data: &[(Vec<f64>, f64)]) {
        for (x, y) in data {
            arm.update(x, *y).unwrap();
        }
    }

    fn linear_data() -> Vec<(Vec<f64>, f64)> {
        // runtime = 3·x₀ + 2·x₁ + 10
        (0..15)
            .map(|i| {
                let x = vec![(i % 5) as f64, (i % 3) as f64];
                let y = 3.0 * x[0] + 2.0 * x[1] + 10.0;
                (x, y)
            })
            .collect()
    }

    #[test]
    fn unfitted_arms_predict_zero() {
        let lin = LinearArm::new(2);
        let rec = RecursiveArm::new(2);
        assert_eq!(lin.predict(&[5.0, 5.0]), 0.0);
        assert_eq!(rec.predict(&[5.0, 5.0]), 0.0);
        assert_eq!(lin.n_obs(), 0);
        assert_eq!(rec.n_features(), 2);
    }

    #[test]
    fn linear_arm_recovers_model() {
        let mut arm = LinearArm::new(2);
        feed(&mut arm, &linear_data());
        let f = arm.fit();
        assert!((f.weights[0] - 3.0).abs() < 1e-8);
        assert!((f.weights[1] - 2.0).abs() < 1e-8);
        assert!((f.intercept - 10.0).abs() < 1e-8);
        assert!((arm.predict(&[10.0, 1.0]) - 42.0).abs() < 1e-6);
        let (xs, ys) = arm.data();
        assert_eq!(xs.rows(), 15);
        assert_eq!(ys.len(), 15);
    }

    #[test]
    fn recursive_matches_exact() {
        let data = linear_data();
        let mut lin = LinearArm::new(2);
        let mut rec = RecursiveArm::new(2);
        for (i, (x, y)) in data.iter().enumerate() {
            lin.update(x, *y).unwrap();
            rec.update(x, *y).unwrap();
            // Fitted values at *observed* contexts are unique even while the
            // design is rank-deficient (the first three contexts here are
            // collinear), so compare there after every update...
            assert!(
                (lin.predict(x) - rec.predict(x)).abs() < 1e-4 * (1.0 + y.abs()),
                "diverged at observed point, n={}",
                lin.n_obs()
            );
            // ...and at an off-data probe once the design has full rank
            // (from the fourth, non-collinear context on) where the OLS
            // solution is unique.
            if i >= 3 {
                let probe = [2.5, 1.5];
                assert!(
                    (lin.predict(&probe) - rec.predict(&probe)).abs() < 1e-6,
                    "diverged at probe, n={}",
                    lin.n_obs()
                );
            }
        }
        assert_eq!(lin.n_obs(), rec.n_obs());
    }

    #[test]
    fn update_validates_input() {
        let mut arm = RecursiveArm::new(2);
        assert!(matches!(
            arm.update(&[1.0], 5.0),
            Err(CoreError::FeatureDimMismatch { got: 1, expected: 2 })
        ));
        assert!(matches!(arm.update(&[1.0, 2.0], -3.0), Err(CoreError::InvalidRuntime(_))));
        assert!(matches!(arm.update(&[1.0, 2.0], f64::NAN), Err(CoreError::InvalidRuntime(_))));
        assert!(matches!(arm.update(&[1.0, 2.0], 0.0), Err(CoreError::InvalidRuntime(_))));
        assert_eq!(arm.n_obs(), 0, "failed updates must not be absorbed");
        let mut lin = LinearArm::new(2);
        assert!(lin.update(&[1.0, 2.0, 3.0], 1.0).is_err());
        assert_eq!(lin.n_obs(), 0);
    }

    #[test]
    fn reset_restores_zero_state() {
        let mut arm = RecursiveArm::new(1);
        feed(&mut arm, &[(vec![1.0], 5.0), (vec![2.0], 9.0)]);
        assert!(arm.predict(&[3.0]) > 0.0);
        arm.reset();
        assert_eq!(arm.n_obs(), 0);
        assert_eq!(arm.predict(&[3.0]), 0.0);
        let mut lin = LinearArm::new(1);
        feed(&mut lin, &[(vec![1.0], 5.0)]);
        lin.reset();
        assert_eq!(lin.predict(&[1.0]), 0.0);
    }

    #[test]
    fn ridge_arm_shrinks() {
        let data = linear_data();
        let mut plain = RecursiveArm::new(2);
        let mut ridged = RecursiveArm::with_ridge(2, 50.0);
        for (x, y) in &data {
            plain.update(x, *y).unwrap();
            ridged.update(x, *y).unwrap();
        }
        assert!(ridged.fit().weights[0].abs() < plain.fit().weights[0].abs());
    }

    #[test]
    fn single_observation_prediction_is_sane() {
        // After one observation the arm should predict that observation at
        // its own context (ridge fallback handles the underdetermined fit).
        let mut arm = LinearArm::new(2);
        arm.update(&[3.0, 4.0], 120.0).unwrap();
        assert!((arm.predict(&[3.0, 4.0]) - 120.0).abs() < 0.5);
    }

    #[test]
    fn mean_arm_running_mean() {
        let mut arm = MeanArm::new();
        assert_eq!(arm.predict(&[]), 0.0);
        arm.update(&[], 10.0).unwrap();
        arm.update(&[], 20.0).unwrap();
        arm.update(&[], 30.0).unwrap();
        assert!((arm.mean() - 20.0).abs() < 1e-12);
        assert_eq!(arm.n_obs(), 3);
        assert!(arm.update(&[1.0], 5.0).is_err());
        assert!(arm.update(&[], -5.0).is_err());
        arm.reset();
        assert_eq!(arm.mean(), 0.0);
        assert_eq!(MeanArm::default().n_obs(), 0);
        assert_eq!(arm.fit().weights.len(), 0);
    }

    fn to_cols(data: &[(Vec<f64>, f64)]) -> (Vec<f64>, Vec<f64>) {
        let k = data.len();
        let nf = data.first().map_or(0, |(x, _)| x.len());
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

    fn assert_fit_bits(a: &LinearFit, b: &LinearFit) {
        assert_eq!(a.intercept.to_bits(), b.intercept.to_bits());
        assert_eq!(a.residual_ss.to_bits(), b.residual_ss.to_bits());
        assert_eq!(a.n_obs, b.n_obs);
        assert_eq!(a.weights.len(), b.weights.len());
        for (x, y) in a.weights.iter().zip(&b.weights) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn absorb_block_bitwise_matches_sequential_updates() {
        let data = linear_data();
        let (cols, ys) = to_cols(&data);
        // Cold and warm recursive arms, and the paper-faithful linear arm.
        let mut rec_blk = RecursiveArm::new(2);
        let mut rec_seq = RecursiveArm::new(2);
        let mut lin_blk = LinearArm::new(2);
        let mut lin_seq = LinearArm::new(2);
        for round in 0..2 {
            let mut absorbed = 0;
            rec_blk.absorb_block(&cols, &ys, &mut absorbed).unwrap();
            assert_eq!(absorbed, data.len(), "round {round}");
            lin_blk.absorb_block(&cols, &ys, &mut absorbed).unwrap();
            assert_eq!(absorbed, data.len());
            feed(&mut rec_seq, &data);
            feed(&mut lin_seq, &data);
            assert_eq!(rec_blk.state(), rec_seq.state(), "recursive round {round}");
            assert_fit_bits(&rec_blk.fit(), &rec_seq.fit());
            assert_eq!(lin_blk.state(), lin_seq.state(), "linear round {round}");
        }
    }

    #[test]
    fn absorb_block_partial_prefix_on_invalid_runtime() {
        // An invalid runtime mid-block absorbs exactly the sequential
        // prefix and leaves the estimator where row-by-row updates would.
        let mut data = linear_data();
        data[4].1 = f64::NAN;
        let (cols, ys) = to_cols(&data);
        for (blk, seq) in [
            (&mut RecursiveArm::new(2) as &mut dyn ArmEstimator, &mut RecursiveArm::new(2) as _),
            (&mut LinearArm::new(2) as &mut dyn ArmEstimator, &mut LinearArm::new(2) as _),
        ] {
            let mut absorbed = 0;
            assert!(matches!(
                blk.absorb_block(&cols, &ys, &mut absorbed),
                Err(CoreError::InvalidRuntime(_))
            ));
            assert_eq!(absorbed, 4);
            let seq: &mut dyn ArmEstimator = seq;
            for (x, y) in &data[..4] {
                seq.update(x, *y).unwrap();
            }
            assert!(seq.update(&data[4].0, data[4].1).is_err());
            assert_eq!(blk.state(), seq.state());
        }

        // Wrong-size block: rejected untouched.
        let mut arm = RecursiveArm::new(2);
        let mut absorbed = 9;
        assert!(arm.absorb_block(&cols[..3], &ys, &mut absorbed).is_err());
        assert_eq!(absorbed, 0);
        assert_eq!(arm.n_obs(), 0);
    }

    #[test]
    fn make_arms_builds_independent() {
        let mut arms = make_arms(3, || RecursiveArm::new(1));
        arms[0].update(&[1.0], 5.0).unwrap();
        assert_eq!(arms[0].n_obs(), 1);
        assert_eq!(arms[1].n_obs(), 0);
        assert_eq!(arms.len(), 3);
    }
}
