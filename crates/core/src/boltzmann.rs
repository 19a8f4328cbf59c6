//! Boltzmann (softmax) exploration over contextual runtime predictions —
//! an alternative to ε-greedy for the ablation benches: instead of a hard
//! explore/exploit split, arms are sampled with probability
//! `P(i) ∝ exp(−R̂ᵢ / T)`, the temperature `T` decaying geometrically.

use crate::arm::{ArmEstimator, RecursiveArm};
use crate::error::CoreError;
use crate::policy::{check_arm, check_features, ArmSpec, Policy, Selection};
use crate::snapshot::{arm_count_mismatch, kind_mismatch, PolicyState};
use crate::workspace::Workspace;
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Softmax/Boltzmann contextual policy over linear arms.
///
/// Selection computes the softmax in the thread's [`Workspace`], so the
/// hot path allocates nothing (the public [`Boltzmann::probabilities`]
/// accessor still returns a fresh vector).
#[derive(Debug, Clone)]
pub struct Boltzmann {
    arms: Vec<RecursiveArm>,
    specs: Vec<ArmSpec>,
    n_features: usize,
    temperature: f64,
    t0: f64,
    decay: f64,
    min_temperature: f64,
    rng: StdRng,
    seed: u64,
}

impl Boltzmann {
    /// Arm metadata this policy was built with.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// Build a Boltzmann policy with initial temperature `t0` (in seconds of
    /// predicted runtime) decaying by `decay` per observation, floored at
    /// `min_temperature`.
    ///
    /// # Errors
    /// [`CoreError::NoArms`] / [`CoreError::InvalidParameter`].
    pub fn new(
        specs: Vec<ArmSpec>,
        n_features: usize,
        t0: f64,
        decay: f64,
        seed: u64,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(CoreError::NoArms);
        }
        if !(t0.is_finite() && t0 > 0.0) {
            return Err(CoreError::InvalidParameter {
                name: "t0",
                detail: format!("must be finite and > 0, got {t0}"),
            });
        }
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "decay",
                detail: format!("must be in (0, 1], got {decay}"),
            });
        }
        Ok(Boltzmann {
            arms: (0..specs.len()).map(|_| RecursiveArm::new(n_features)).collect(),
            specs,
            n_features,
            temperature: t0,
            t0,
            decay,
            min_temperature: 1e-6,
            rng: StdRng::seed_from_u64(seed),
            seed,
        })
    }

    /// Current temperature.
    pub fn temperature(&self) -> f64 {
        self.temperature
    }

    /// Selection probabilities for a context (softmax over −R̂/T, shifted
    /// for numerical stability).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn probabilities(&self, x: &[f64]) -> Result<Vec<f64>> {
        check_features(x, self.n_features)?;
        let mut out = Vec::with_capacity(self.arms.len());
        Self::softmax_into(&self.arms, self.temperature.max(self.min_temperature), x, &mut out);
        Ok(out)
    }

    /// The one softmax: predictions written in place, exponentiated in
    /// place, normalized in place. Shared by the public
    /// [`Boltzmann::probabilities`] accessor and the allocation-free
    /// `select` and `exploit` paths so the sampling distribution can never
    /// diverge from what the accessor reports.
    fn softmax_into(arms: &[RecursiveArm], t: f64, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(arms.iter().map(|a| a.predict(x)));
        let min_pred = out.iter().cloned().fold(f64::INFINITY, f64::min);
        for p in out.iter_mut() {
            *p = (-(*p - min_pred) / t).exp();
        }
        let z: f64 = out.iter().sum();
        for p in out.iter_mut() {
            *p /= z;
        }
    }
}

impl Policy for Boltzmann {
    fn name(&self) -> String {
        "boltzmann".to_string()
    }

    fn n_arms(&self) -> usize {
        self.arms.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        check_features(x, self.n_features)?;
        // Same softmax as `probabilities`, into the workspace.
        let t = self.temperature.max(self.min_temperature);
        Workspace::with(|ws| {
            let probs = &mut ws.per_arm;
            Self::softmax_into(&self.arms, t, x, probs);
            let u: f64 = self.rng.gen();
            let mut cum = 0.0;
            let mut pick = probs.len() - 1;
            for (i, p) in probs.iter().enumerate() {
                cum += p;
                if u <= cum {
                    pick = i;
                    break;
                }
            }
            let greedy = banditware_linalg::vector::argmax(probs).unwrap_or(pick);
            Ok(Selection { arm: pick, explored: pick != greedy })
        })
    }

    fn exploit(&self, x: &[f64], _costs: &[f64]) -> Result<usize> {
        // The mode of the sampling distribution — i.e. the arm `select`
        // would favor — not a tolerant-selection over raw means.
        check_features(x, self.n_features)?;
        let t = self.temperature.max(self.min_temperature);
        Workspace::with(|ws| {
            Self::softmax_into(&self.arms, t, x, &mut ws.per_arm);
            banditware_linalg::vector::argmax(&ws.per_arm).ok_or(CoreError::NoArms)
        })
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        check_arm(arm, self.arms.len())?;
        self.arms[arm].update(x, runtime)?;
        self.temperature = (self.temperature * self.decay).max(self.min_temperature);
        Ok(())
    }

    fn predict(&self, arm: usize, x: &[f64]) -> Result<f64> {
        check_arm(arm, self.arms.len())?;
        check_features(x, self.n_features)?;
        Ok(self.arms[arm].predict(x))
    }

    fn pulls(&self) -> Vec<usize> {
        self.arms.iter().map(|a| a.n_obs()).collect()
    }

    fn reset(&mut self) {
        self.arms.iter_mut().for_each(ArmEstimator::reset);
        self.temperature = self.t0;
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Boltzmann {
            temperature: self.temperature,
            rng: self.rng.state(),
            arms: self.arms.iter().map(ArmEstimator::state).collect(),
        }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::Boltzmann { temperature, rng, arms } = state else {
            return Err(kind_mismatch("boltzmann", state));
        };
        if arms.len() != self.arms.len() {
            return Err(arm_count_mismatch(self.arms.len(), arms.len()));
        }
        for (arm, s) in self.arms.iter_mut().zip(arms) {
            arm.restore_state(s)?;
        }
        self.temperature = *temperature;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probabilities_sum_to_one_and_favor_fast_arms() {
        let mut p = Boltzmann::new(ArmSpec::unit_costs(2), 1, 10.0, 1.0, 0).unwrap();
        for _ in 0..5 {
            p.observe(0, &[1.0], 10.0).unwrap();
            p.observe(1, &[1.0], 40.0).unwrap();
        }
        let probs = p.probabilities(&[1.0]).unwrap();
        assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(probs[0] > probs[1], "faster arm favoured: {probs:?}");
    }

    #[test]
    fn high_temperature_is_nearly_uniform() {
        let mut p = Boltzmann::new(ArmSpec::unit_costs(2), 1, 1e9, 1.0, 0).unwrap();
        for _ in 0..5 {
            p.observe(0, &[1.0], 10.0).unwrap();
            p.observe(1, &[1.0], 40.0).unwrap();
        }
        let probs = p.probabilities(&[1.0]).unwrap();
        assert!((probs[0] - 0.5).abs() < 1e-3, "{probs:?}");
    }

    #[test]
    fn temperature_decays_and_floors() {
        let mut p = Boltzmann::new(ArmSpec::unit_costs(2), 1, 1.0, 0.5, 0).unwrap();
        for _ in 0..60 {
            p.observe(0, &[1.0], 5.0).unwrap();
        }
        assert!(p.temperature() >= 1e-6);
        assert!(p.temperature() < 1e-5, "decayed to floor, got {}", p.temperature());
    }

    #[test]
    fn cold_policy_is_greedy() {
        let mut p = Boltzmann::new(ArmSpec::unit_costs(2), 1, 1.0, 0.01, 3).unwrap();
        for _ in 0..10 {
            p.observe(0, &[1.0], 10.0).unwrap();
            p.observe(1, &[1.0], 40.0).unwrap();
        }
        // temperature ≈ 1e-6: probability mass collapses on the fast arm
        let mut count0 = 0;
        for _ in 0..50 {
            if p.select(&[1.0]).unwrap().arm == 0 {
                count0 += 1;
            }
        }
        assert_eq!(count0, 50);
    }

    #[test]
    fn validation_and_reset() {
        assert!(Boltzmann::new(vec![], 1, 1.0, 0.9, 0).is_err());
        assert!(Boltzmann::new(ArmSpec::unit_costs(2), 1, 0.0, 0.9, 0).is_err());
        assert!(Boltzmann::new(ArmSpec::unit_costs(2), 1, 1.0, 1.5, 0).is_err());
        let mut p = Boltzmann::new(ArmSpec::unit_costs(2), 1, 5.0, 0.9, 0).unwrap();
        p.observe(0, &[1.0], 3.0).unwrap();
        p.reset();
        assert_eq!(p.temperature(), 5.0);
        assert_eq!(p.pulls(), vec![0, 0]);
        assert!(p.select(&[1.0, 2.0]).is_err());
        assert!(p.predict(9, &[1.0]).is_err());
        assert_eq!(p.name(), "boltzmann");
    }
}
