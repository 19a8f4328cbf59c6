//! Drift-adaptive arm estimators.
//!
//! The paper's deployment target is a *shared* heterogeneous cluster, where
//! a hardware setting's effective performance drifts — co-located tenants
//! come and go, nodes get replaced, autoscalers resize pools. Plain least
//! squares weighs a year-old observation like yesterday's; these arms
//! don't:
//!
//! * [`DiscountedArm`] — exponentially weighted least squares (effective
//!   memory `1/(1−γ)` observations), O(m²) per update: the discount scales
//!   the maintained Cholesky factor exactly (`L ← √γ·L`), so no
//!   re-factorization ever happens on this path.
//! * [`WindowedArm`] — least squares over a sliding window of the last `w`
//!   observations, maintained by [`NormalEquations::push`] +
//!   [`NormalEquations::forget`] (rank-1 update + downdate), O(m²)
//!   amortized instead of an exact O(w·m²) refit per round; a downdate
//!   that loses positive definiteness transparently falls back to a full
//!   re-factorization.
//!
//! Both plug into [`crate::DecayingEpsilonGreedy`] via
//! [`DecayingEpsilonGreedy::with_arms`](crate::DecayingEpsilonGreedy::with_arms),
//! so the whole of Algorithm 1 becomes drift-aware without any other change.

use crate::arm::ArmEstimator;
use crate::error::CoreError;
use crate::snapshot::ArmState;
use crate::workspace::Workspace;
use crate::Result;
use banditware_linalg::lstsq::LinearFit;
use banditware_linalg::online::NormalEquations;
use std::collections::VecDeque;

fn validate(x: &[f64], n_features: usize, runtime: f64) -> Result<()> {
    if x.len() != n_features {
        return Err(CoreError::FeatureDimMismatch { got: x.len(), expected: n_features });
    }
    if !runtime.is_finite() || runtime <= 0.0 {
        return Err(CoreError::InvalidRuntime(runtime));
    }
    Ok(())
}

/// Exponentially weighted recursive least squares.
#[derive(Debug, Clone)]
pub struct DiscountedArm {
    acc: NormalEquations,
    gamma: f64,
    current: LinearFit,
}

impl DiscountedArm {
    /// New arm with forgetting factor `gamma ∈ (0, 1]` (1 = plain OLS).
    /// Effective memory is `1/(1−gamma)` observations.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for gamma outside `(0, 1]`.
    pub fn new(n_features: usize, gamma: f64) -> Result<Self> {
        if !(gamma > 0.0 && gamma <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "gamma",
                detail: format!("must be in (0, 1], got {gamma}"),
            });
        }
        Ok(DiscountedArm {
            acc: NormalEquations::new(n_features),
            gamma,
            current: LinearFit::zeros(n_features),
        })
    }

    /// The forgetting factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Effective number of remembered observations (`1/(1−γ)`, ∞ for γ=1).
    pub fn effective_memory(&self) -> f64 {
        if self.gamma >= 1.0 {
            f64::INFINITY
        } else {
            1.0 / (1.0 - self.gamma)
        }
    }
}

impl ArmEstimator for DiscountedArm {
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
        self.acc.discount(self.gamma);
        Workspace::with(|ws| {
            self.acc.push_with(x, runtime, &mut ws.aug)?;
            self.acc.solve_into(0.0, &mut ws.solve, &mut self.current)?;
            Ok(())
        })
    }

    fn fit(&self) -> LinearFit {
        self.current.clone()
    }

    fn reset(&mut self) {
        self.acc.clear();
        self.current = LinearFit::zeros(self.acc.n_features());
    }

    fn state(&self) -> ArmState {
        ArmState::Discounted { acc: self.acc.to_state(), fit: self.current.clone() }
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        // γ is construction-time configuration; only the statistics travel.
        let ArmState::Discounted { acc, fit } = state else {
            return Err(crate::arm::state_mismatch(
                "discounted",
                "state is not a discounted-arm snapshot",
            ));
        };
        if acc.n_features != self.acc.n_features() || fit.weights.len() != self.acc.n_features() {
            return Err(crate::arm::state_mismatch(
                "discounted",
                format!("state has {} features, arm has {}", acc.n_features, self.acc.n_features()),
            ));
        }
        self.acc = NormalEquations::from_state(acc)?;
        self.current = fit.clone();
        Ok(())
    }
}

/// Least squares over a sliding window of the most recent observations,
/// maintained incrementally: entering rounds are rank-1 *updates*, expiring
/// rounds rank-1 *downdates* of the same normal-equations factor.
#[derive(Debug, Clone)]
pub struct WindowedArm {
    n_features: usize,
    window: VecDeque<(Vec<f64>, f64)>,
    capacity: usize,
    total_seen: usize,
    acc: NormalEquations,
    current: LinearFit,
}

impl WindowedArm {
    /// New arm remembering at most `capacity` observations.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for a zero capacity.
    pub fn new(n_features: usize, capacity: usize) -> Result<Self> {
        if capacity == 0 {
            return Err(CoreError::InvalidParameter {
                name: "capacity",
                detail: "window must hold at least one observation".into(),
            });
        }
        Ok(WindowedArm {
            n_features,
            window: VecDeque::with_capacity(capacity),
            capacity,
            total_seen: 0,
            acc: NormalEquations::new(n_features),
            current: LinearFit::zeros(n_features),
        })
    }

    /// Observations currently inside the window.
    pub fn window_len(&self) -> usize {
        self.window.len()
    }

    /// The window capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl ArmEstimator for WindowedArm {
    fn n_features(&self) -> usize {
        self.n_features
    }

    fn n_obs(&self) -> usize {
        self.total_seen
    }

    fn predict(&self, x: &[f64]) -> f64 {
        self.current.predict(x)
    }

    fn linear_coeffs(&self) -> Option<(&[f64], f64)> {
        Some((&self.current.weights, self.current.intercept))
    }

    fn update(&mut self, x: &[f64], runtime: f64) -> Result<()> {
        validate(x, self.n_features, runtime)?;
        Workspace::with(|ws| {
            // A full window forgets its oldest row and reuses its buffer.
            let mut row = Vec::new();
            if self.window.len() == self.capacity {
                let (old_x, old_y) = self.window.pop_front().expect("window is full");
                self.acc.forget(&old_x, old_y, &mut ws.aug)?;
                row = old_x;
            }
            row.clear();
            row.extend_from_slice(x);
            self.window.push_back((row, runtime));
            self.acc.push_with(x, runtime, &mut ws.aug)?;
            self.total_seen += 1;
            self.acc.solve_into(0.0, &mut ws.solve, &mut self.current)?;
            Ok(())
        })
    }

    fn fit(&self) -> LinearFit {
        self.current.clone()
    }

    fn reset(&mut self) {
        self.window.clear();
        self.total_seen = 0;
        self.acc.clear();
        self.current = LinearFit::zeros(self.n_features);
    }

    fn state(&self) -> ArmState {
        let mut data = Vec::with_capacity(self.window.len() * self.n_features);
        let mut ys = Vec::with_capacity(self.window.len());
        for (x, y) in &self.window {
            data.extend_from_slice(x);
            ys.push(*y);
        }
        ArmState::Windowed {
            n_features: self.n_features,
            total_seen: self.total_seen,
            data,
            ys,
            acc: self.acc.to_state(),
            fit: self.current.clone(),
        }
    }

    fn restore_state(&mut self, state: &ArmState) -> Result<()> {
        let ArmState::Windowed { n_features, total_seen, data, ys, acc, fit } = state else {
            return Err(crate::arm::state_mismatch(
                "windowed",
                "state is not a windowed-arm snapshot",
            ));
        };
        if *n_features != self.n_features
            || acc.n_features != self.n_features
            || fit.weights.len() != self.n_features
        {
            return Err(crate::arm::state_mismatch(
                "windowed",
                format!("state has {n_features} features, arm has {}", self.n_features),
            ));
        }
        if ys.len() > self.capacity {
            return Err(crate::arm::state_mismatch(
                "windowed",
                format!("window of {} rows exceeds arm capacity {}", ys.len(), self.capacity),
            ));
        }
        if data.len() != ys.len() * self.n_features {
            return Err(crate::arm::state_mismatch(
                "windowed",
                format!("window of {} values against {} rows", data.len(), ys.len()),
            ));
        }
        self.window.clear();
        if self.n_features == 0 {
            for &y in ys {
                self.window.push_back((Vec::new(), y));
            }
        } else {
            for (x, &y) in data.chunks_exact(self.n_features).zip(ys) {
                self.window.push_back((x.to_vec(), y));
            }
        }
        self.total_seen = *total_seen;
        self.acc = NormalEquations::from_state(acc)?;
        self.current = fit.clone();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arm::RecursiveArm;
    use crate::{ArmSpec, BanditConfig, DecayingEpsilonGreedy, Policy};

    /// Feed a regime of `y = slope·x` for `n` rounds.
    fn feed(arm: &mut impl ArmEstimator, slope: f64, n: usize) {
        for i in 0..n {
            let x = (i % 10 + 1) as f64;
            arm.update(&[x], slope * x).unwrap();
        }
    }

    #[test]
    fn discounted_arm_tracks_regime_change() {
        let mut drift = DiscountedArm::new(1, 0.85).unwrap();
        let mut frozen = RecursiveArm::new(1);
        feed(&mut drift, 2.0, 80);
        feed(&mut frozen, 2.0, 80);
        feed(&mut drift, 6.0, 80);
        feed(&mut frozen, 6.0, 80);
        let probe = [10.0];
        assert!(
            (drift.predict(&probe) - 60.0).abs() < 3.0,
            "discounted arm adapted: {}",
            drift.predict(&probe)
        );
        assert!(
            (frozen.predict(&probe) - 60.0).abs() > 10.0,
            "plain arm anchored to the old regime: {}",
            frozen.predict(&probe)
        );
    }

    #[test]
    fn windowed_arm_forgets_completely() {
        let mut arm = WindowedArm::new(1, 30).unwrap();
        feed(&mut arm, 2.0, 100);
        feed(&mut arm, 6.0, 30); // exactly one full window of the new regime
        assert!((arm.predict(&[10.0]) - 60.0).abs() < 1e-6);
        assert_eq!(arm.window_len(), 30);
        assert_eq!(arm.n_obs(), 130, "total count keeps the full history");
        assert_eq!(arm.capacity(), 30);
    }

    #[test]
    fn gamma_one_equals_plain_ols() {
        let mut d = DiscountedArm::new(1, 1.0).unwrap();
        let mut p = RecursiveArm::new(1);
        feed(&mut d, 3.0, 40);
        feed(&mut p, 3.0, 40);
        assert!((d.predict(&[7.0]) - p.predict(&[7.0])).abs() < 1e-9);
        assert!(d.effective_memory().is_infinite());
        assert!((DiscountedArm::new(1, 0.9).unwrap().effective_memory() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn validation_and_reset() {
        assert!(DiscountedArm::new(1, 0.0).is_err());
        assert!(DiscountedArm::new(1, 1.5).is_err());
        assert!(WindowedArm::new(1, 0).is_err());
        let mut d = DiscountedArm::new(2, 0.9).unwrap();
        assert!(d.update(&[1.0], 5.0).is_err());
        assert!(d.update(&[1.0, 2.0], -1.0).is_err());
        d.update(&[1.0, 2.0], 5.0).unwrap();
        d.reset();
        assert_eq!(d.n_obs(), 0);
        assert_eq!(d.predict(&[1.0, 2.0]), 0.0);
        let mut w = WindowedArm::new(2, 5).unwrap();
        assert!(w.update(&[1.0], 5.0).is_err());
        w.update(&[1.0, 2.0], 5.0).unwrap();
        w.reset();
        assert_eq!(w.window_len(), 0);
        assert_eq!(w.predict(&[1.0, 2.0]), 0.0);
        assert_eq!(w.fit().n_obs, 0);
        assert_eq!(d.gamma(), 0.9);
    }

    /// The headline behaviour: a drift-aware Algorithm 1 re-learns the best
    /// hardware after the cluster changes underneath it.
    #[test]
    fn drift_aware_policy_follows_hardware_swap() {
        let gamma = 0.9;
        let cfg = BanditConfig::paper().with_epsilon0(0.3).with_decay(1.0).with_seed(3);
        let mut policy = DecayingEpsilonGreedy::with_arms(ArmSpec::unit_costs(2), 1, cfg, |nf| {
            DiscountedArm::new(nf, gamma).expect("valid gamma")
        })
        .unwrap();
        // Phase 1: arm 0 fast (runtime x), arm 1 slow (3x).
        let truth_phase1 = |arm: usize, x: f64| if arm == 0 { x } else { 3.0 * x };
        // Phase 2: swapped.
        let truth_phase2 = |arm: usize, x: f64| if arm == 0 { 3.0 * x } else { x };

        for i in 0..200 {
            let x = (i % 10 + 1) as f64;
            let sel = policy.select(&[x]).unwrap();
            policy.observe(sel.arm, &[x], truth_phase1(sel.arm, x)).unwrap();
        }
        assert_eq!(policy.exploit(&[5.0]).unwrap(), 0, "phase 1 winner");
        for i in 0..250 {
            let x = (i % 10 + 1) as f64;
            let sel = policy.select(&[x]).unwrap();
            policy.observe(sel.arm, &[x], truth_phase2(sel.arm, x)).unwrap();
        }
        assert_eq!(policy.exploit(&[5.0]).unwrap(), 1, "re-learned after the swap");
    }
}
