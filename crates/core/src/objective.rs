//! Multi-metric selection — the paper's §5 plan to "adapt BanditWare to
//! support multiple parameter minimization" and to monitor metrics beyond
//! runtime.
//!
//! [`Objective`] scalarizes a vector of observed metrics into the single
//! cost a policy minimizes: `Σ weightᵢ · metricᵢ`. The canonical instance
//! is `runtime + price·resource_cost + patience·queue_wait`: a user who
//! only cares about speed sets `price = patience = 0` and recovers the
//! paper's objective exactly.
//!
//! [`BudgetedEpsilonGreedy`] is Algorithm 1 with the exploitation rule
//! replaced by "minimize predicted runtime **plus** a per-second price on
//! the arm's resources" — the continuous counterpart of tolerant selection
//! (tolerance admits a *set* and picks the cheapest; a budget trades the
//! two off smoothly).

use crate::arm::{ArmEstimator, RecursiveArm};
use crate::error::CoreError;
use crate::policy::{check_arm, check_features, ArmSpec, Policy, Selection};
use crate::snapshot::{arm_count_mismatch, kind_mismatch, PolicyState};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Weights for scalarizing observed metrics into one cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Objective {
    /// Weight on runtime seconds (usually 1).
    pub runtime: f64,
    /// Price per resource-cost unit per second of runtime: occupying a big
    /// machine longer costs more.
    pub resource_price: f64,
    /// Weight on queue-wait seconds.
    pub queue_wait: f64,
}

impl Objective {
    /// Pure runtime minimization (the paper's objective).
    pub const RUNTIME_ONLY: Objective =
        Objective { runtime: 1.0, resource_price: 0.0, queue_wait: 0.0 };

    /// Construct, validating non-negativity.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] on a negative or non-finite weight.
    pub fn new(runtime: f64, resource_price: f64, queue_wait: f64) -> Result<Self> {
        for (name, v) in
            [("runtime", runtime), ("resource_price", resource_price), ("queue_wait", queue_wait)]
        {
            if !(v.is_finite() && v >= 0.0) {
                return Err(CoreError::InvalidParameter {
                    name: "objective",
                    detail: format!("{name} weight must be finite and >= 0, got {v}"),
                });
            }
        }
        Ok(Objective { runtime, resource_price, queue_wait })
    }

    /// Scalarize an observation: `runtime·w_r + runtime·cost·price +
    /// wait·w_q`. The resource term scales with runtime because resources
    /// are *occupied for the duration* (core-seconds, the unit clusters
    /// bill).
    pub fn cost(&self, runtime_s: f64, resource_cost: f64, wait_s: f64) -> f64 {
        self.runtime * runtime_s
            + self.resource_price * resource_cost * runtime_s
            + self.queue_wait * wait_s
    }
}

/// Algorithm 1 with budget-aware exploitation: minimize
/// `R̂(Hᵢ, x) · (w_runtime + price · costᵢ)` instead of raw predicted
/// runtime.
#[derive(Debug, Clone)]
pub struct BudgetedEpsilonGreedy {
    arms: Vec<RecursiveArm>,
    specs: Vec<ArmSpec>,
    objective: Objective,
    epsilon: f64,
    epsilon0: f64,
    decay: f64,
    n_features: usize,
    rng: StdRng,
    seed: u64,
}

impl BudgetedEpsilonGreedy {
    /// Build with the paper's schedule parameters and an [`Objective`].
    ///
    /// # Errors
    /// [`CoreError::NoArms`] / [`CoreError::InvalidParameter`].
    pub fn new(
        specs: Vec<ArmSpec>,
        n_features: usize,
        objective: Objective,
        epsilon0: f64,
        decay: f64,
        seed: u64,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(CoreError::NoArms);
        }
        if !(0.0..=1.0).contains(&epsilon0) {
            return Err(CoreError::InvalidParameter {
                name: "epsilon0",
                detail: format!("must be in [0, 1], got {epsilon0}"),
            });
        }
        if !(decay > 0.0 && decay <= 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "decay",
                detail: format!("must be in (0, 1], got {decay}"),
            });
        }
        Ok(BudgetedEpsilonGreedy {
            arms: (0..specs.len()).map(|_| RecursiveArm::new(n_features)).collect(),
            specs,
            objective,
            epsilon: epsilon0,
            epsilon0,
            decay,
            n_features,
            rng: StdRng::seed_from_u64(seed),
            seed,
        })
    }

    /// The objective in force.
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Scalarized predicted cost of an arm for a context.
    ///
    /// # Errors
    /// Propagates arm/feature validation.
    pub fn predicted_cost(&self, arm: usize, x: &[f64]) -> Result<f64> {
        check_arm(arm, self.arms.len())?;
        check_features(x, self.n_features)?;
        let runtime = self.arms[arm].predict(x);
        Ok(self.objective.cost(runtime, self.specs[arm].resource_cost, 0.0))
    }

    /// The budget-aware exploitation choice (no randomness consumed).
    ///
    /// # Errors
    /// Propagates prediction failures.
    pub fn exploit(&self, x: &[f64]) -> Result<usize> {
        // A running `vector::argmin` over the arms' costs: a NaN cost never
        // wins, and the first of tied minima does.
        let mut best: Option<(usize, f64)> = None;
        for arm in 0..self.arms.len() {
            let cost = self.predicted_cost(arm, x)?;
            if !cost.is_nan() && best.is_none_or(|(_, b)| cost < b) {
                best = Some((arm, cost));
            }
        }
        best.map(|(arm, _)| arm).ok_or(CoreError::NoArms)
    }
}

impl Policy for BudgetedEpsilonGreedy {
    fn name(&self) -> String {
        "budgeted-epsilon-greedy".to_string()
    }

    fn n_arms(&self) -> usize {
        self.arms.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        check_features(x, self.n_features)?;
        if self.rng.gen::<f64>() < self.epsilon {
            let arm = self.rng.gen_range(0..self.arms.len());
            return Ok(Selection { arm, explored: true });
        }
        Ok(Selection { arm: self.exploit(x)?, explored: false })
    }

    fn exploit(&self, x: &[f64], _costs: &[f64]) -> Result<usize> {
        // The budgeted rule scalarizes runtime × resource cost through the
        // objective; the caller's plain cost vector has no say here.
        BudgetedEpsilonGreedy::exploit(self, x)
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        check_arm(arm, self.arms.len())?;
        self.arms[arm].update(x, runtime)?;
        self.epsilon *= self.decay;
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
        self.epsilon = self.epsilon0;
        self.rng = StdRng::seed_from_u64(self.seed);
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Budgeted {
            epsilon: self.epsilon,
            rng: self.rng.state(),
            arms: self.arms.iter().map(ArmEstimator::state).collect(),
        }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::Budgeted { epsilon, rng, arms } = state else {
            return Err(kind_mismatch("budgeted-epsilon-greedy", state));
        };
        if arms.len() != self.arms.len() {
            return Err(arm_count_mismatch(self.arms.len(), arms.len()));
        }
        for (arm, s) in self.arms.iter_mut().zip(arms) {
            arm.restore_state(s)?;
        }
        self.epsilon = *epsilon;
        self.rng = StdRng::from_state(*rng);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_scalarization() {
        let o = Objective::new(1.0, 0.5, 2.0).unwrap();
        // runtime 100 s on cost-4 hardware after 10 s wait:
        // 100 + 0.5·4·100 + 2·10 = 100 + 200 + 20
        assert!((o.cost(100.0, 4.0, 10.0) - 320.0).abs() < 1e-12);
        assert_eq!(Objective::RUNTIME_ONLY.cost(100.0, 4.0, 10.0), 100.0);
        assert!(Objective::new(-1.0, 0.0, 0.0).is_err());
        assert!(Objective::new(1.0, f64::NAN, 0.0).is_err());
    }

    fn train(policy: &mut BudgetedEpsilonGreedy, truths: &[f64]) {
        for i in 0..120 {
            let x = (i % 10 + 1) as f64;
            let sel = policy.select(&[x]).unwrap();
            policy.observe(sel.arm, &[x], truths[sel.arm] * x).unwrap();
        }
    }

    #[test]
    fn exploit_matches_argmin_over_predicted_costs() {
        let specs = vec![
            ArmSpec::new(0, "a", 1.0),
            ArmSpec::new(1, "b", 2.0),
            ArmSpec::new(2, "c", 1.0),
            ArmSpec::new(3, "d", 4.0),
        ];
        let objective = Objective::new(1.0, 0.05, 0.0).unwrap();
        let mut p = BudgetedEpsilonGreedy::new(specs, 1, objective, 0.5, 0.97, 3).unwrap();
        let reference = |p: &BudgetedEpsilonGreedy, x: f64| {
            let costs: Vec<f64> = (0..4).map(|a| p.predicted_cost(a, &[x]).unwrap()).collect();
            banditware_linalg::vector::argmin(&costs).unwrap()
        };
        // Untrained arms tie on runtime: the first of the tied minima wins.
        assert_eq!(p.exploit(&[2.0]).unwrap(), reference(&p, 2.0));
        train(&mut p, &[9.0, 7.0, 9.0, 5.0]);
        for i in 0..40 {
            let x = 0.25 * i as f64;
            assert_eq!(p.exploit(&[x]).unwrap(), reference(&p, x), "x = {x}");
        }
    }

    #[test]
    fn zero_price_recovers_pure_runtime_choice() {
        // Arm 1 is faster but far more expensive.
        let specs = vec![ArmSpec::new(0, "cheap", 1.0), ArmSpec::new(1, "big", 100.0)];
        let mut p =
            BudgetedEpsilonGreedy::new(specs, 1, Objective::RUNTIME_ONLY, 0.3, 0.95, 1).unwrap();
        train(&mut p, &[10.0, 8.0]);
        assert_eq!(p.exploit(&[5.0]).unwrap(), 1, "price 0 → fastest wins");
    }

    #[test]
    fn high_price_flips_to_cheap_arm() {
        let specs = vec![ArmSpec::new(0, "cheap", 1.0), ArmSpec::new(1, "big", 100.0)];
        let objective = Objective::new(1.0, 0.05, 0.0).unwrap();
        let mut p = BudgetedEpsilonGreedy::new(specs, 1, objective, 0.3, 0.95, 1).unwrap();
        train(&mut p, &[10.0, 8.0]);
        // cost(cheap) = 10x·(1 + 0.05·1) = 10.5x; cost(big) = 8x·(1+5) = 48x
        assert_eq!(p.exploit(&[5.0]).unwrap(), 0, "expensive speed is not worth it");
        let c0 = p.predicted_cost(0, &[5.0]).unwrap();
        let c1 = p.predicted_cost(1, &[5.0]).unwrap();
        assert!(c0 < c1);
    }

    #[test]
    fn snapshot_restores_bitwise_identical_stream() {
        // The ROADMAP leftover: BudgetedEpsilonGreedy used to fall back to
        // PolicyState::Opaque, so v3 checkpointing (and replication) failed
        // at save time. With a real state variant, a restored twin continues
        // the live policy's stream bit for bit — exploration draws included.
        let specs = vec![ArmSpec::new(0, "cheap", 1.0), ArmSpec::new(1, "big", 4.0)];
        let objective = Objective::new(1.0, 0.1, 0.0).unwrap();
        let mut live =
            BudgetedEpsilonGreedy::new(specs.clone(), 1, objective, 0.4, 0.95, 11).unwrap();
        train(&mut live, &[10.0, 8.0]);
        let state = live.snapshot();
        assert_eq!(state.kind(), "budgeted");

        let mut twin = BudgetedEpsilonGreedy::new(specs.clone(), 1, objective, 0.4, 0.95, 0)
            .expect("fresh twin");
        twin.restore(&state).unwrap();
        for i in 0..60 {
            let x = [(i % 9 + 1) as f64];
            let sa = live.select(&x).unwrap();
            let sb = twin.select(&x).unwrap();
            assert_eq!(sa, sb, "round {i}");
            let pa = live.predicted_cost(sa.arm, &x).unwrap();
            let pb = twin.predicted_cost(sb.arm, &x).unwrap();
            assert_eq!(pa.to_bits(), pb.to_bits(), "round {i}");
            let rt = 5.0 + x[0] * (sa.arm + 1) as f64;
            live.observe(sa.arm, &x, rt).unwrap();
            twin.observe(sb.arm, &x, rt).unwrap();
        }

        // Restore validates kind and arm count.
        let mut wrong = BudgetedEpsilonGreedy::new(
            ArmSpec::unit_costs(3),
            1,
            Objective::RUNTIME_ONLY,
            0.4,
            0.95,
            0,
        )
        .unwrap();
        assert!(wrong.restore(&state).is_err(), "arm-count mismatch rejected");
        assert!(twin
            .restore(&crate::snapshot::PolicyState::Ucb1 { rounds: 1, arms: vec![(1, 1.0)] })
            .is_err());
    }

    #[test]
    fn policy_plumbing() {
        let mut p = BudgetedEpsilonGreedy::new(
            ArmSpec::unit_costs(3),
            2,
            Objective::RUNTIME_ONLY,
            1.0,
            0.9,
            0,
        )
        .unwrap();
        assert_eq!(p.name(), "budgeted-epsilon-greedy");
        assert_eq!(p.n_arms(), 3);
        assert_eq!(p.n_features(), 2);
        assert!(p.select(&[1.0]).is_err());
        assert!(p.observe(9, &[1.0, 2.0], 1.0).is_err());
        assert!(p.predict(0, &[1.0]).is_err());
        p.observe(0, &[1.0, 2.0], 5.0).unwrap();
        assert_eq!(p.pulls(), vec![1, 0, 0]);
        p.reset();
        assert_eq!(p.pulls(), vec![0, 0, 0]);
        assert!(
            BudgetedEpsilonGreedy::new(vec![], 1, Objective::RUNTIME_ONLY, 1.0, 0.9, 0).is_err()
        );
        assert!(BudgetedEpsilonGreedy::new(
            ArmSpec::unit_costs(2),
            1,
            Objective::RUNTIME_ONLY,
            1.5,
            0.9,
            0
        )
        .is_err());
        assert!(BudgetedEpsilonGreedy::new(
            ArmSpec::unit_costs(2),
            1,
            Objective::RUNTIME_ONLY,
            1.0,
            0.0,
            0
        )
        .is_err());
        assert_eq!(p.objective(), &Objective::RUNTIME_ONLY);
    }
}
