//! Linear Thompson sampling for runtime minimization (future-work policy).
//!
//! Each arm maintains a Bayesian linear regression in the augmented space
//! `z = [1, x]` with ridge prior `A₀ = λI`: posterior mean `θ̂ = A⁻¹Zᵀy`,
//! posterior covariance `σ̂²A⁻¹`. A round samples `θ̃ ~ N(θ̂, σ̂²A⁻¹)` per arm
//! and plays the arm with the smallest sampled runtime `θ̃ᵀz`.

use crate::error::CoreError;
use crate::policy::{check_arm, check_features, ArmSpec, Policy, Selection};
use crate::snapshot::{arm_count_mismatch, kind_mismatch, PolicyState};
use crate::workspace::Workspace;
use crate::Result;
use banditware_linalg::online::RankOneInverse;
use banditware_linalg::vector;
use banditware_linalg::Cholesky;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Linear-Gaussian Thompson sampling.
///
/// All per-round intermediates — the augmented context, the scaled
/// covariance, its Cholesky factor, the Gaussian draw and the sampled
/// weight vector — live in the thread's [`Workspace`], so steady-state
/// `select`/`observe` and the `&self` read path ([`Policy::predict`])
/// perform zero heap allocations (the rare collapsed-covariance jitter
/// fallback is the only allocating escape hatch).
#[derive(Debug, Clone)]
pub struct LinThompson {
    arms: Vec<RankOneInverse>,
    thetas: Vec<Vec<f64>>,
    /// Per-arm residual accumulators for the noise estimate: (Σy², n).
    sum_sq: Vec<f64>,
    pulls: Vec<usize>,
    specs: Vec<ArmSpec>,
    n_features: usize,
    lambda: f64,
    /// Scale multiplier on the posterior (exploration aggressiveness).
    scale: f64,
    rng: StdRng,
    seed: u64,
}

impl LinThompson {
    /// Arm metadata this policy was built with.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// Build a Thompson-sampling policy.
    ///
    /// # Errors
    /// [`CoreError::NoArms`] / [`CoreError::InvalidParameter`].
    pub fn new(
        specs: Vec<ArmSpec>,
        n_features: usize,
        lambda: f64,
        scale: f64,
        seed: u64,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(CoreError::NoArms);
        }
        if !(lambda.is_finite() && lambda > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "lambda",
                detail: format!("must be finite and > 0, got {lambda}"),
            });
        }
        if !(scale.is_finite() && scale >= 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "scale",
                detail: format!("must be finite and >= 0, got {scale}"),
            });
        }
        let dim = n_features + 1;
        Ok(LinThompson {
            arms: (0..specs.len()).map(|_| RankOneInverse::new(dim, lambda)).collect(),
            thetas: vec![vec![0.0; dim]; specs.len()],
            sum_sq: vec![0.0; specs.len()],
            pulls: vec![0; specs.len()],
            specs,
            n_features,
            lambda,
            scale,
            rng: StdRng::seed_from_u64(seed),
            seed,
        })
    }

    /// Estimated observation noise σ̂ for an arm (floored for stability).
    fn sigma(&self, arm: usize) -> f64 {
        let n = self.pulls[arm];
        if n < 2 {
            return 1.0; // weakly-informative default before data arrives
        }
        // RSS ≈ Σy² − θ̂ᵀ(Zᵀy); with A⁻¹ bookkeeping we approximate via mean
        // squared residual of predictions at the posterior mean.
        let var = (self.sum_sq[arm] / n as f64).max(1e-12);
        var.sqrt() * 0.1 + 1e-3
    }

    /// Draw θ̃ for one arm into the workspace's `draw` buffer.
    fn sample_theta(&mut self, arm: usize, ws: &mut Workspace) -> Result<()> {
        let dim = self.n_features + 1;
        // Cholesky of the covariance σ²·A⁻¹ (A⁻¹ is SPD by construction),
        // built and factorized entirely inside the workspace.
        let sigma = self.sigma(arm) * self.scale;
        let Workspace { cov, cov_l, az: xi, draw, .. } = ws;
        if cov.shape() != (dim, dim) {
            cov.reset_zeroed(dim, dim);
        }
        cov.copy_from(self.arms[arm].a_inv());
        cov.scale_mut(sigma * sigma);
        if Cholesky::factor_into(cov, cov_l).is_err() {
            // Guard against a fully-collapsed covariance (e.g. scale = 0):
            // the rare allocating fallback, mirroring `decompose_jittered`.
            let (ch, _) = Cholesky::decompose_jittered(cov, 1e-12, 12)?;
            cov_l.copy_from(ch.l());
        }
        xi.clear();
        xi.extend((0..dim).map(|_| banditware_workload_free_gaussian(&mut self.rng)));
        draw.clear();
        draw.extend_from_slice(&self.thetas[arm]);
        for i in 0..dim {
            let mut s = 0.0;
            for j in 0..=i {
                s += cov_l[(i, j)] * xi[j];
            }
            draw[i] += s;
        }
        Ok(())
    }
}

/// Standard normal (Box–Muller), local to avoid a dependency edge on the
/// workloads crate, which hosts the shared helper.
fn banditware_workload_free_gaussian(rng: &mut impl Rng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

impl Policy for LinThompson {
    fn name(&self) -> String {
        "linear-thompson".to_string()
    }

    fn n_arms(&self) -> usize {
        self.arms.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            ws.stage_aug(x);
            let mut best = 0;
            let mut best_draw = f64::INFINITY;
            // Greedy tracker mirrors `vector::argmin` over the posterior means.
            let mut greedy: Option<(usize, f64)> = None;
            for arm in 0..self.arms.len() {
                self.sample_theta(arm, ws)?;
                let draw = vector::dot(&ws.draw, &ws.z);
                if draw < best_draw {
                    best_draw = draw;
                    best = arm;
                }
                let mean = vector::dot(&self.thetas[arm], &ws.z);
                if !mean.is_nan() {
                    match greedy {
                        Some((_, gv)) if gv <= mean => {}
                        _ => greedy = Some((arm, mean)),
                    }
                }
            }
            let greedy = greedy.map_or(best, |(i, _)| i);
            Ok(Selection { arm: best, explored: best != greedy })
        })
    }

    fn exploit(&self, x: &[f64], _costs: &[f64]) -> Result<usize> {
        // Exploitation for Thompson sampling: the posterior-mean argmin —
        // the arm `select` tracks as "greedy" — with no posterior draw and
        // no RNG consumption.
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            ws.stage_aug(x);
            let mut greedy: Option<(usize, f64)> = None;
            for (arm, theta) in self.thetas.iter().enumerate() {
                let mean = vector::dot(theta, &ws.z);
                if !mean.is_nan() {
                    match greedy {
                        Some((_, gv)) if gv <= mean => {}
                        _ => greedy = Some((arm, mean)),
                    }
                }
            }
            Ok(greedy.map_or(0, |(i, _)| i))
        })
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
            self.sum_sq[arm] += runtime * runtime;
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
        for i in 0..self.arms.len() {
            self.arms[i] = RankOneInverse::new(dim, self.lambda);
            self.thetas[i] = vec![0.0; dim];
            self.sum_sq[i] = 0.0;
            self.pulls[i] = 0;
        }
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Thompson {
            pulls: self.pulls.clone(),
            sum_sq: self.sum_sq.clone(),
            rng: self.rng.state(),
            arms: self.arms.iter().map(RankOneInverse::to_state).collect(),
        }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::Thompson { pulls, sum_sq, rng, arms } = state else {
            return Err(kind_mismatch("linear-thompson", state));
        };
        let n_arms = self.arms.len();
        if arms.len() != n_arms || pulls.len() != n_arms || sum_sq.len() != n_arms {
            return Err(arm_count_mismatch(n_arms, arms.len()));
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
        self.sum_sq.copy_from_slice(sum_sq);
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn truth(arm: usize, x: f64) -> f64 {
        match arm {
            0 => 2.0 * x + 10.0,
            _ => x + 50.0,
        }
    }

    #[test]
    fn construction_validates() {
        assert!(LinThompson::new(vec![], 1, 1.0, 1.0, 0).is_err());
        assert!(LinThompson::new(ArmSpec::unit_costs(2), 1, 0.0, 1.0, 0).is_err());
        assert!(LinThompson::new(ArmSpec::unit_costs(2), 1, 1.0, -1.0, 0).is_err());
        assert!(LinThompson::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0, 0).is_ok());
    }

    #[test]
    fn explores_all_arms_then_learns() {
        let mut p = LinThompson::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..300 {
            let x = rng.gen_range(1.0..100.0);
            let sel = p.select(&[x]).unwrap();
            p.observe(sel.arm, &[x], truth(sel.arm, x)).unwrap();
        }
        assert!(p.pulls().iter().all(|&c| c > 10), "pulls {:?}", p.pulls());
        let low = p.predict_all(&[10.0]).unwrap();
        let high = p.predict_all(&[90.0]).unwrap();
        assert!(low[0] < low[1]);
        assert!(high[1] < high[0]);
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = LinThompson::new(ArmSpec::unit_costs(3), 1, 1.0, 1.0, 42).unwrap();
        let mut b = LinThompson::new(ArmSpec::unit_costs(3), 1, 1.0, 1.0, 42).unwrap();
        for i in 0..50 {
            let x = [(i % 5) as f64 + 1.0];
            let sa = a.select(&x).unwrap();
            let sb = b.select(&x).unwrap();
            assert_eq!(sa.arm, sb.arm);
            a.observe(sa.arm, &x, 5.0 + i as f64).unwrap();
            b.observe(sb.arm, &x, 5.0 + i as f64).unwrap();
        }
    }

    #[test]
    fn scale_zero_collapses_to_greedy_mean() {
        let mut p = LinThompson::new(ArmSpec::unit_costs(2), 1, 1.0, 0.0, 0).unwrap();
        for _ in 0..10 {
            p.observe(0, &[1.0], 10.0).unwrap();
            p.observe(1, &[1.0], 50.0).unwrap();
        }
        for _ in 0..20 {
            assert_eq!(p.select(&[1.0]).unwrap().arm, 0);
        }
    }

    #[test]
    fn reset_and_validation() {
        let mut p = LinThompson::new(ArmSpec::unit_costs(2), 1, 1.0, 1.0, 0).unwrap();
        p.observe(0, &[1.0], 5.0).unwrap();
        p.reset();
        assert_eq!(p.pulls(), vec![0, 0]);
        assert!(p.observe(0, &[1.0], f64::INFINITY).is_err());
        assert!(p.predict(5, &[1.0]).is_err());
        assert!(p.select(&[]).is_err());
        assert_eq!(p.name(), "linear-thompson");
    }
}
