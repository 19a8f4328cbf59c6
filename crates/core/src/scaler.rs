//! Feature standardization.
//!
//! The BP3D feature vector mixes bytes (~10⁸) with moisture fractions
//! (~10⁻¹). Least squares is scale-equivariant *in exact arithmetic*, but
//! finite precision and ridge fallbacks are not, and distance-based
//! exploration (LinUCB widths, Thompson covariances) is outright
//! scale-sensitive. [`StandardScaler`] learns per-feature mean/std
//! *online* (Welford) and [`ScaledPolicy`] wraps any [`Policy`] so callers
//! keep passing raw features while the wrapped policy sees z-scores.

use crate::error::CoreError;
use crate::frame::FeatureFrame;
use crate::policy::{ArmSpec, Policy, Selection};
use crate::snapshot::{kind_mismatch, PolicyState, WelfordState};
use crate::workspace::Workspace;
use crate::Result;
use banditware_linalg::stats::Welford;

/// Online per-feature standardizer: `z = (x − mean) / std`.
#[derive(Debug, Clone)]
pub struct StandardScaler {
    dims: Vec<Welford>,
}

impl StandardScaler {
    /// New scaler over `n_features` dimensions.
    pub fn new(n_features: usize) -> Self {
        StandardScaler { dims: vec![Welford::new(); n_features] }
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.dims.len()
    }

    /// Observations absorbed.
    pub fn n_obs(&self) -> u64 {
        self.dims.first().map_or(0, Welford::count)
    }

    /// Absorb one raw feature vector.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn observe(&mut self, x: &[f64]) -> Result<()> {
        if x.len() != self.dims.len() {
            return Err(CoreError::FeatureDimMismatch { got: x.len(), expected: self.dims.len() });
        }
        for (w, &v) in self.dims.iter_mut().zip(x) {
            w.push(v);
        }
        Ok(())
    }

    /// Standardize a raw vector with the statistics learned so far.
    /// Constant (zero-variance) features map to 0; with no observations the
    /// input passes through unchanged (the identity is the only sane prior).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn transform(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::with_capacity(x.len());
        self.transform_extend(x, &mut out)?;
        Ok(out)
    }

    /// [`StandardScaler::transform`] into a caller-owned buffer (cleared
    /// first) — the allocation-free hot-path variant.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn transform_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        self.transform_extend(x, out)
    }

    /// [`StandardScaler::transform`] *appended* to a caller-owned buffer —
    /// lets batch paths standardize a burst into one flat allocation.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn transform_extend(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if x.len() != self.dims.len() {
            return Err(CoreError::FeatureDimMismatch { got: x.len(), expected: self.dims.len() });
        }
        if self.n_obs() == 0 {
            out.extend_from_slice(x);
            return Ok(());
        }
        out.extend(self.dims.iter().zip(x).map(|(w, &v)| {
            let sd = w.std_dev();
            if sd > 0.0 {
                (v - w.mean()) / sd
            } else {
                0.0
            }
        }));
        Ok(())
    }

    /// Absorb a whole columnar batch: each per-feature Welford accumulator
    /// walks its own contiguous column. Bitwise identical to absorbing the
    /// frame's rows one [`StandardScaler::observe`] at a time — an
    /// accumulator only ever sees its own feature's values, in row order
    /// either way.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn observe_frame(&mut self, frame: &FeatureFrame) -> Result<()> {
        if frame.n_features() != self.dims.len() {
            return Err(CoreError::FeatureDimMismatch {
                got: frame.n_features(),
                expected: self.dims.len(),
            });
        }
        for (f, w) in self.dims.iter_mut().enumerate() {
            for &v in frame.column(f) {
                w.push(v);
            }
        }
        Ok(())
    }

    /// Standardize a whole columnar batch into `dst` (overwritten, storage
    /// reused): per column, `z = (v − mean) / std` with the statistics
    /// learned so far — element-wise, so bitwise identical to
    /// [`StandardScaler::transform`] row by row. Constant features map to 0;
    /// with no observations the frame passes through unchanged.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn transform_frame(&self, src: &FeatureFrame, dst: &mut FeatureFrame) -> Result<()> {
        if src.n_features() != self.dims.len() {
            return Err(CoreError::FeatureDimMismatch {
                got: src.n_features(),
                expected: self.dims.len(),
            });
        }
        dst.copy_from(src);
        if self.n_obs() == 0 {
            return Ok(());
        }
        for (f, w) in self.dims.iter().enumerate() {
            let sd = w.std_dev();
            let col = dst.column_mut(f);
            if sd > 0.0 {
                let mean = w.mean();
                for v in col {
                    *v = (*v - mean) / sd;
                }
            } else {
                col.fill(0.0);
            }
        }
        Ok(())
    }

    /// Per-feature means.
    pub fn means(&self) -> Vec<f64> {
        self.dims.iter().map(Welford::mean).collect()
    }

    /// Per-feature standard deviations.
    pub fn std_devs(&self) -> Vec<f64> {
        self.dims.iter().map(Welford::std_dev).collect()
    }

    /// Reset all statistics.
    pub fn reset(&mut self) {
        for w in &mut self.dims {
            *w = Welford::new();
        }
    }

    /// Export the per-feature Welford accumulators for checkpointing
    /// (bitwise round-trip with [`StandardScaler::restore_state`]).
    pub fn state(&self) -> Vec<WelfordState> {
        self.dims
            .iter()
            .map(|w| WelfordState { n: w.count(), mean: w.mean(), m2: w.m2() })
            .collect()
    }

    /// Restore statistics captured with [`StandardScaler::state`].
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when the state's width differs.
    pub fn restore_state(&mut self, state: &[WelfordState]) -> Result<()> {
        if state.len() != self.dims.len() {
            return Err(CoreError::FeatureDimMismatch {
                got: state.len(),
                expected: self.dims.len(),
            });
        }
        for (w, s) in self.dims.iter_mut().zip(state) {
            *w = Welford::from_parts(s.n, s.mean, s.m2);
        }
        Ok(())
    }
}

/// A policy wrapper that standardizes contexts before delegating.
///
/// The scaler is updated on every `select` and `observe`, so the
/// standardization adapts as the workload distribution reveals itself —
/// consistent with the framework's online-first philosophy.
///
/// Both the mutable hot path and the `&self` read path
/// ([`Policy::predict`], [`Policy::predict_all_into`]) are allocation-free:
/// both standardize into the thread's [`Workspace`].
#[derive(Debug, Clone)]
pub struct ScaledPolicy<P: Policy> {
    inner: P,
    scaler: StandardScaler,
}

impl<P: Policy> ScaledPolicy<P> {
    /// Wrap a policy.
    pub fn new(inner: P) -> Self {
        let n = inner.n_features();
        ScaledPolicy { inner, scaler: StandardScaler::new(n) }
    }

    /// The wrapped policy.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// The scaler's current statistics.
    pub fn scaler(&self) -> &StandardScaler {
        &self.scaler
    }
}

/// Run `f` on `x` standardized with `scaler`'s current statistics, in a
/// buffer moved out of the thread's [`Workspace`] for the call: the
/// workspace itself stays free for the inner policy's entry point.
fn standardized<R>(
    scaler: &StandardScaler,
    x: &[f64],
    f: impl FnOnce(&[f64]) -> Result<R>,
) -> Result<R> {
    let mut z = Workspace::with(|ws| std::mem::take(&mut ws.scaled));
    let res = scaler.transform_into(x, &mut z).and_then(|()| f(&z));
    Workspace::with(|ws| ws.scaled = z);
    res
}

impl<P: Policy> Policy for ScaledPolicy<P> {
    fn name(&self) -> String {
        format!("scaled:{}", self.inner.name())
    }

    fn n_arms(&self) -> usize {
        self.inner.n_arms()
    }

    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        self.scaler.observe(x)?;
        standardized(&self.scaler, x, |z| self.inner.select(z))
    }

    fn select_frame_with(
        &mut self,
        frame: &FeatureFrame,
        out: &mut Vec<Selection>,
        cols: &mut Vec<f64>,
        ws: &mut Workspace,
    ) -> Result<()> {
        // One scaler pass for the whole batch: absorb every context first,
        // then standardize them all against the same (post-batch)
        // statistics — column by column, into the workspace's frame. Every
        // request in a burst is standardized identically, and the scaler is
        // updated once instead of interleaved with selections. The inner
        // policy's prediction columns are this policy's: `predict`
        // standardizes with the same statistics, element-wise.
        if frame.n_rows() == 0 {
            out.clear();
            cols.clear();
            return Ok(());
        }
        self.scaler.observe_frame(frame)?;
        let mut zframe = std::mem::take(&mut ws.zframe);
        let res = match self.scaler.transform_frame(frame, &mut zframe) {
            Ok(()) => self.inner.select_frame_with(&zframe, out, cols, ws),
            Err(e) => Err(e),
        };
        ws.zframe = zframe;
        res
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        // The matching select/select_frame_with already absorbed this
        // context; only transform here. Contexts arriving *without* a
        // selection go through warm_start below.
        standardized(&self.scaler, x, |z| self.inner.observe(arm, z, runtime))
    }

    fn observe_frame_with(
        &mut self,
        frame: &crate::ObservationFrame,
        absorbed: &mut Vec<bool>,
        ws: &mut Workspace,
    ) -> Result<()> {
        // The batch twin of `observe`: the matching select path already
        // absorbed these contexts into the scaler, so this only transforms
        // a copy of the frame, row by row, against the *fixed* current
        // statistics — `observe`'s own transform, so bitwise identical to
        // the row loop; the bookkeeping lanes pass through untouched.
        let ScaledPolicy { inner, scaler } = self;
        let n = frame.n_features();
        let mut zobs = std::mem::take(&mut ws.zobs);
        let transformed = if n == scaler.n_features() {
            zobs.copy_from(frame);
            let z = &mut ws.scaled;
            zobs.rows_mut().chunks_exact_mut(n.max(1)).try_for_each(|row| {
                scaler.transform_into(row, z)?;
                row.copy_from_slice(z);
                Ok(())
            })
        } else {
            Err(CoreError::FeatureDimMismatch { got: n, expected: scaler.n_features() })
        };
        let res = match transformed {
            Ok(()) => inner.observe_frame_with(&zobs, absorbed, ws),
            Err(e) => {
                absorbed.clear();
                absorbed.resize(frame.n_rows(), false);
                Err(e)
            }
        };
        ws.zobs = zobs;
        res
    }

    fn warm_start(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        // Warm starts and checkpoint replay: no selection preceded this
        // context, so absorb it first — a replayed recommender rebuilds the
        // same standardization statistics the live one accumulated, in the
        // same absorb-then-transform order per context.
        self.scaler.observe(x)?;
        standardized(&self.scaler, x, |z| self.inner.warm_start(arm, z, runtime))
    }

    fn exploit(&self, x: &[f64], costs: &[f64]) -> Result<usize> {
        // Standardize exactly as the live select path would, then let the
        // wrapped policy apply its own exploitation rule.
        standardized(&self.scaler, x, |z| self.inner.exploit(z, costs))
    }

    fn predict(&self, arm: usize, x: &[f64]) -> Result<f64> {
        standardized(&self.scaler, x, |z| self.inner.predict(arm, z))
    }

    fn predict_all(&self, x: &[f64]) -> Result<Vec<f64>> {
        // One scaler transform for the whole sweep instead of one per arm.
        standardized(&self.scaler, x, |z| self.inner.predict_all(z))
    }

    fn predict_all_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        standardized(&self.scaler, x, |z| self.inner.predict_all_into(z, out))
    }

    fn pulls(&self) -> Vec<usize> {
        self.inner.pulls()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.scaler.reset();
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Scaled { scaler: self.scaler.state(), inner: Box::new(self.inner.snapshot()) }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::Scaled { scaler, inner } = state else {
            return Err(kind_mismatch("scaled", state));
        };
        self.scaler.restore_state(scaler)?;
        self.inner.restore(inner)
    }
}

/// Convenience: a scaled Algorithm-1 policy.
pub fn scaled_epsilon_greedy(
    specs: Vec<ArmSpec>,
    n_features: usize,
    config: crate::BanditConfig,
) -> Result<ScaledPolicy<crate::epsilon::EpsilonGreedy>> {
    Ok(ScaledPolicy::new(crate::epsilon::EpsilonGreedy::new(specs, n_features, config)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BanditConfig, Policy};

    #[test]
    fn scaler_matches_batch_statistics() {
        let data = [[1.0, 100.0], [2.0, 200.0], [3.0, 300.0], [4.0, 400.0]];
        let mut s = StandardScaler::new(2);
        for x in &data {
            s.observe(x).unwrap();
        }
        assert_eq!(s.n_obs(), 4);
        let means = s.means();
        assert!((means[0] - 2.5).abs() < 1e-12);
        assert!((means[1] - 250.0).abs() < 1e-12);
        let z = s.transform(&[2.5, 250.0]).unwrap();
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12, "mean maps to zero");
        let z = s.transform(&[4.0, 100.0]).unwrap();
        assert!(z[0] > 0.0 && z[1] < 0.0);
        // both dimensions on the same scale now
        assert!((z[0].abs() - 1.3416).abs() < 1e-3);
    }

    #[test]
    fn constant_feature_maps_to_zero() {
        let mut s = StandardScaler::new(1);
        for _ in 0..5 {
            s.observe(&[7.0]).unwrap();
        }
        assert_eq!(s.transform(&[7.0]).unwrap(), vec![0.0]);
        assert_eq!(s.transform(&[100.0]).unwrap(), vec![0.0]);
        assert_eq!(s.std_devs(), vec![0.0]);
    }

    #[test]
    fn empty_scaler_is_identity() {
        let s = StandardScaler::new(2);
        assert_eq!(s.transform(&[3.0, 4.0]).unwrap(), vec![3.0, 4.0]);
    }

    #[test]
    fn dimension_validation() {
        let mut s = StandardScaler::new(2);
        assert!(s.observe(&[1.0]).is_err());
        assert!(s.transform(&[1.0, 2.0, 3.0]).is_err());
        s.reset();
        assert_eq!(s.n_obs(), 0);
        assert_eq!(s.n_features(), 2);
    }

    #[test]
    fn scaled_policy_learns_on_wild_scales() {
        // Features on scales 1e-1 and 1e8 — the BP3D situation. The scaled
        // policy must separate two arms whose runtimes depend on the tiny
        // feature only.
        let mut p =
            scaled_epsilon_greedy(ArmSpec::unit_costs(2), 2, BanditConfig::paper().with_seed(3))
                .unwrap();
        let truth = |arm: usize, small: f64| if arm == 0 { 100.0 * small } else { 300.0 * small };
        for i in 0..200 {
            let small = (i % 9 + 1) as f64 * 0.1;
            let huge = 1e8 + (i % 13) as f64 * 1e6;
            let x = [small, huge];
            let sel = p.select(&x).unwrap();
            p.observe(sel.arm, &x, truth(sel.arm, small)).unwrap();
        }
        // Arm 0 strictly faster: exploitation should pick it.
        let preds0 = p.predict(0, &[0.5, 1.05e8]).unwrap();
        let preds1 = p.predict(1, &[0.5, 1.05e8]).unwrap();
        assert!(preds0 < preds1, "{preds0} vs {preds1}");
        assert_eq!(p.n_arms(), 2);
        assert_eq!(p.name(), "scaled:decaying-contextual-epsilon-greedy");
        assert!(p.pulls().iter().sum::<usize>() == 200);
        assert!(p.scaler().n_obs() >= 200);
        p.reset();
        assert_eq!(p.pulls(), vec![0, 0]);
        assert_eq!(p.scaler().n_obs(), 0);
    }

    #[test]
    fn batch_select_runs_one_scaler_pass() {
        let mut p =
            scaled_epsilon_greedy(ArmSpec::unit_costs(2), 1, BanditConfig::paper().with_seed(9))
                .unwrap();
        let xs: Vec<Vec<f64>> = (1..=8).map(|i| vec![i as f64 * 10.0]).collect();
        let mut sels = Vec::new();
        p.select_frame_into(&FeatureFrame::from_rows(&xs).unwrap(), &mut sels).unwrap();
        assert_eq!(sels.len(), 8);
        // every batch context was absorbed exactly once
        assert_eq!(p.scaler().n_obs(), 8);
        for (s, x) in sels.iter().zip(&xs) {
            p.observe(s.arm, x, x[0] + 5.0).unwrap();
        }
        // observe must not re-feed the scaler (selection already did)
        assert_eq!(p.scaler().n_obs(), 8);
        assert_eq!(p.pulls().iter().sum::<usize>(), 8);
    }
}
