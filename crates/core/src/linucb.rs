//! LinUCB for runtime *minimization* — one of the "more complex contextual
//! bandit algorithms" the paper's §5 lists as future work.
//!
//! Each arm keeps a ridge regression in the augmented space `z = [1, x]`
//! via [`banditware_linalg::online::RankOneInverse`]. Selection is
//! optimistic-for-minimization: pick the arm with the lowest *lower*
//! confidence bound `θᵢᵀz − α·√(zᵀAᵢ⁻¹z)` — an arm is attractive either
//! because it looks fast or because it is still uncertain.

use crate::error::CoreError;
use crate::policy::{check_arm, check_features, ArmSpec, Policy, Selection};
use crate::snapshot::{arm_count_mismatch, kind_mismatch, PolicyState};
use crate::workspace::Workspace;
use crate::Result;
use banditware_linalg::online::RankOneInverse;
use banditware_linalg::vector;

/// LinUCB policy (minimization form).
///
/// The point estimates `θᵢ` are cached (recomputed only when an arm
/// observes), and the augmented context / `A⁻¹z` intermediates live in the
/// thread's [`Workspace`]: select, observe and the `&self` read path
/// ([`LinUcb::lcb`], [`Policy::predict`]) perform zero heap allocations
/// once warm.
#[derive(Debug, Clone)]
pub struct LinUcb {
    arms: Vec<RankOneInverse>,
    thetas: Vec<Vec<f64>>,
    pulls: Vec<usize>,
    specs: Vec<ArmSpec>,
    n_features: usize,
    /// Exploration width multiplier α (the classic LinUCB parameter).
    alpha: f64,
    /// Ridge prior λ for each arm's design matrix.
    lambda: f64,
}

impl LinUcb {
    /// Arm metadata this policy was built with.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// Build a LinUCB policy.
    ///
    /// # Errors
    /// [`CoreError::NoArms`] / [`CoreError::InvalidParameter`].
    pub fn new(specs: Vec<ArmSpec>, n_features: usize, alpha: f64, lambda: f64) -> Result<Self> {
        if specs.is_empty() {
            return Err(CoreError::NoArms);
        }
        if !(alpha.is_finite() && alpha >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "alpha",
                detail: format!("must be finite and >= 0, got {alpha}"),
            });
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "lambda",
                detail: format!("must be finite and > 0, got {lambda}"),
            });
        }
        let dim = n_features + 1;
        Ok(LinUcb {
            arms: (0..specs.len()).map(|_| RankOneInverse::new(dim, lambda)).collect(),
            thetas: vec![vec![0.0; dim]; specs.len()],
            pulls: vec![0; specs.len()],
            specs,
            n_features,
            alpha,
            lambda,
        })
    }

    /// The lower confidence bound of an arm for a context.
    ///
    /// # Errors
    /// Propagates arm/feature validation.
    pub fn lcb(&self, arm: usize, x: &[f64]) -> Result<f64> {
        check_arm(arm, self.arms.len())?;
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            ws.stage_aug(x);
            Self::mean_and_lcb(&self.arms[arm], &self.thetas[arm], self.alpha, &ws.z, &mut ws.az)
                .map(|(_, lcb)| lcb)
        })
    }

    /// The one LCB formula, shared by the public [`LinUcb::lcb`] accessor
    /// and the allocation-free `select` loop: `θᵀz − α·√(max(0, zᵀA⁻¹z))`,
    /// returned alongside the mean so `select` can track the greedy arm.
    fn mean_and_lcb(
        arm: &RankOneInverse,
        theta: &[f64],
        alpha: f64,
        z: &[f64],
        az: &mut Vec<f64>,
    ) -> Result<(f64, f64)> {
        let mean = vector::dot(theta, z);
        let width = arm.quad_form_with(z, az)?.max(0.0).sqrt();
        Ok((mean, mean - alpha * width))
    }

    /// The LCB argmin for `x`, reported as a selection whose `explored`
    /// flag says whether it differs from the greedy (lowest-mean) arm.
    fn lcb_argmin(&self, x: &[f64]) -> Result<Selection> {
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            ws.stage_aug(x);
            let mut best = 0usize;
            let mut best_lcb = f64::INFINITY;
            // Greedy tracker mirrors `vector::argmin` over the means (first
            // minimum wins, NaNs lose every comparison).
            let mut greedy: Option<(usize, f64)> = None;
            for (i, (arm, theta)) in self.arms.iter().zip(&self.thetas).enumerate() {
                let (mean, lcb) = Self::mean_and_lcb(arm, theta, self.alpha, &ws.z, &mut ws.az)?;
                if lcb < best_lcb {
                    best_lcb = lcb;
                    best = i;
                }
                if !mean.is_nan() {
                    match greedy {
                        Some((_, gv)) if gv <= mean => {}
                        _ => greedy = Some((i, mean)),
                    }
                }
            }
            // LinUCB is deterministic: "exploration" is implicit in the
            // width term, so a selection counts as explored only when its
            // mean was not actually the lowest.
            let greedy = greedy.map_or(best, |(i, _)| i);
            Ok(Selection { arm: best, explored: best != greedy })
        })
    }
}

impl Policy for LinUcb {
    fn name(&self) -> String {
        "linucb".to_string()
    }

    fn n_arms(&self) -> usize {
        self.arms.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        self.lcb_argmin(x)
    }

    fn exploit(&self, x: &[f64], _costs: &[f64]) -> Result<usize> {
        // LinUCB's deterministic rule *is* the LCB argmin — a follower
        // answering from means alone would diverge from the primary whenever
        // the width term flips the ranking.
        self.lcb_argmin(x).map(|sel| sel.arm)
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        check_arm(arm, self.arms.len())?;
        check_features(x, self.n_features)?;
        if !runtime.is_finite() || runtime <= 0.0 {
            return Err(CoreError::InvalidRuntime(runtime));
        }
        Workspace::with(|ws| {
            ws.stage_aug(x);
            self.arms[arm].push(&ws.z, runtime, &mut ws.az)?;
            self.arms[arm].theta_into(&mut self.thetas[arm])?;
            self.pulls[arm] += 1;
            Ok(())
        })
    }

    fn predict(&self, arm: usize, x: &[f64]) -> Result<f64> {
        check_arm(arm, self.arms.len())?;
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            ws.stage_aug(x);
            Ok(vector::dot(&self.thetas[arm], &ws.z))
        })
    }

    fn pulls(&self) -> Vec<usize> {
        self.pulls.clone()
    }

    fn reset(&mut self) {
        let dim = self.n_features + 1;
        for (arm, theta) in self.arms.iter_mut().zip(&mut self.thetas) {
            *arm = RankOneInverse::new(dim, self.lambda);
            theta.iter_mut().for_each(|t| *t = 0.0);
        }
        self.pulls.iter_mut().for_each(|p| *p = 0);
    }

    fn snapshot(&self) -> PolicyState {
        // θ̂ is *not* stored: it is recomputed from the restored accumulator
        // with the same fixed-order kernel that maintains it live, so the
        // recomputation is bitwise identical.
        PolicyState::LinUcb {
            pulls: self.pulls.clone(),
            arms: self.arms.iter().map(RankOneInverse::to_state).collect(),
        }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::LinUcb { pulls, arms } = state else {
            return Err(kind_mismatch("linucb", state));
        };
        if arms.len() != self.arms.len() || pulls.len() != self.arms.len() {
            return Err(arm_count_mismatch(self.arms.len(), arms.len()));
        }
        let dim = self.n_features + 1;
        for (i, s) in arms.iter().enumerate() {
            if s.dim != dim {
                return Err(CoreError::InvalidParameter {
                    name: "snapshot",
                    detail: format!("arm {i} state has dim {}, policy has {dim}", s.dim),
                });
            }
            self.arms[i] = RankOneInverse::from_state(s)?;
            if s.n == 0 {
                self.thetas[i].iter_mut().for_each(|t| *t = 0.0);
            } else {
                self.arms[i].theta_into(&mut self.thetas[i])?;
            }
        }
        self.pulls.copy_from_slice(pulls);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn truth(arm: usize, x: f64) -> f64 {
        match arm {
            0 => 2.0 * x + 10.0,
            _ => x + 50.0,
        }
    }

    #[test]
    fn construction_validates() {
        assert!(LinUcb::new(vec![], 1, 1.0, 1.0).is_err());
        assert!(LinUcb::new(ArmSpec::unit_costs(2), 1, -1.0, 1.0).is_err());
        assert!(LinUcb::new(ArmSpec::unit_costs(2), 1, 1.0, 0.0).is_err());
        assert!(LinUcb::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0).is_ok());
    }

    #[test]
    fn learns_crossover() {
        let mut p = LinUcb::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..400 {
            let x = rng.gen_range(1.0..100.0);
            let sel = p.select(&[x]).unwrap();
            p.observe(sel.arm, &[x], truth(sel.arm, x)).unwrap();
        }
        // With both arms well-sampled, means should identify the winner.
        let preds_low = p.predict_all(&[10.0]).unwrap();
        let preds_high = p.predict_all(&[90.0]).unwrap();
        assert!(preds_low[0] < preds_low[1], "x=10 arm0 faster: {preds_low:?}");
        assert!(preds_high[1] < preds_high[0], "x=90 arm1 faster: {preds_high:?}");
    }

    #[test]
    fn width_shrinks_with_observations() {
        let mut p = LinUcb::new(ArmSpec::unit_costs(1), 1, 1.0, 1.0).unwrap();
        let before_gap = p.predict(0, &[5.0]).unwrap() - p.lcb(0, &[5.0]).unwrap();
        for _ in 0..20 {
            p.observe(0, &[5.0], 30.0).unwrap();
        }
        let after_gap = p.predict(0, &[5.0]).unwrap() - p.lcb(0, &[5.0]).unwrap();
        assert!(after_gap < before_gap, "{after_gap} !< {before_gap}");
    }

    #[test]
    fn unseen_arms_get_tried() {
        // With optimistic widths every arm must be pulled early.
        let mut p = LinUcb::new(ArmSpec::unit_costs(3), 1, 2.0, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..60 {
            let x = rng.gen_range(1.0..10.0);
            let sel = p.select(&[x]).unwrap();
            p.observe(sel.arm, &[x], 20.0 + sel.arm as f64).unwrap();
        }
        assert!(p.pulls().iter().all(|&c| c > 0), "pulls: {:?}", p.pulls());
    }

    #[test]
    fn reset_and_validation() {
        let mut p = LinUcb::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0).unwrap();
        p.observe(0, &[1.0], 5.0).unwrap();
        p.reset();
        assert_eq!(p.pulls(), vec![0, 0]);
        assert_eq!(p.predict(0, &[1.0]).unwrap(), 0.0);
        assert!(p.observe(0, &[1.0], -1.0).is_err());
        assert!(p.observe(7, &[1.0], 1.0).is_err());
        assert!(p.select(&[1.0, 2.0]).is_err());
        assert_eq!(p.name(), "linucb");
        assert_eq!(p.n_arms(), 2);
        assert_eq!(p.n_features(), 1);
    }

    #[test]
    fn alpha_zero_is_greedy() {
        let mut p = LinUcb::new(ArmSpec::unit_costs(2), 1, 0.0, 1.0).unwrap();
        for _ in 0..5 {
            p.observe(0, &[1.0], 10.0).unwrap();
            p.observe(1, &[1.0], 99.0).unwrap();
        }
        let sel = p.select(&[1.0]).unwrap();
        assert_eq!(sel.arm, 0);
        assert!(!sel.explored);
    }
}
