//! Algorithm 1: Decaying Contextual ε-Greedy with Tolerant Selection.
//!
//! ```text
//! Require: hardware set H, decay α, initial rate ε₀, tolerance (tr, ts)
//!  1: Dᵢ ← ∅, wᵢ ← 0, bᵢ ← 0 ∀i;  ε ← ε₀
//!  4: for each incoming workflow with features x:
//!  5:     R̂(Hᵢ, x) = wᵢᵀx + bᵢ  ∀i
//!  6:     with probability ε: pick a uniformly random arm        (explore)
//!  7:     otherwise: tolerant selection                          (exploit)
//!  9:     observe the actual runtime on the chosen arm
//! 11:     refit that arm by least squares over its data
//! 12:     ε ← α · ε
//! ```
//!
//! The implementation is generic over the arm estimator so the exact-refit
//! [`LinearArm`] (the paper's formulation) and the O(m²) [`RecursiveArm`]
//! (identical regression, incremental) are interchangeable.

use crate::arm::{ArmEstimator, LinearArm, RecursiveArm};
use crate::config::BanditConfig;
use crate::error::CoreError;
use crate::frame::FeatureFrame;
use crate::policy::{check_arm, check_features, ArmSpec, Policy, Selection};
use crate::snapshot::{arm_count_mismatch, kind_mismatch, PolicyState};
use crate::tolerance::tolerant_select;
use crate::workspace::{Grouping, Workspace};
use crate::Result;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Algorithm 1, generic over the per-arm estimator.
///
/// ```
/// use banditware_core::{ArmSpec, BanditConfig, Policy, Tolerance};
/// use banditware_core::epsilon::EpsilonGreedy;
///
/// // Two hardware settings; arm 1 is twice as expensive.
/// let specs = vec![ArmSpec::new(0, "small", 1.0), ArmSpec::new(1, "big", 2.0)];
/// let config = BanditConfig::paper()             // ε₀ = 1, α = 0.99
///     .with_tolerance(Tolerance::seconds(5.0)?)  // 5 s slack → prefer cheap
///     .with_seed(7);
/// let mut policy = EpsilonGreedy::new(specs, 1, config)?;
///
/// // The online loop: select, run, observe.
/// for i in 1..=50 {
///     let x = [(i % 10 + 1) as f64];
///     let sel = policy.select(&x)?;
///     let runtime = 10.0 * x[0] * (sel.arm + 1) as f64; // arm 0 truly faster
///     policy.observe(sel.arm, &x, runtime)?;
/// }
/// assert_eq!(policy.exploit(&[5.0])?, 0, "learned the fast cheap arm");
/// assert!(policy.epsilon() < 0.61, "ε decayed from 1.0");
/// # Ok::<(), banditware_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DecayingEpsilonGreedy<A: ArmEstimator> {
    arms: Vec<A>,
    specs: Vec<ArmSpec>,
    config: BanditConfig,
    epsilon: f64,
    rng: StdRng,
    n_features: usize,
    /// Resource costs cached from `specs` at construction (tolerant
    /// selection reads them every exploit round).
    costs: Vec<f64>,
}

/// The default instantiation (incremental arms).
pub type EpsilonGreedy = DecayingEpsilonGreedy<RecursiveArm>;

/// The paper-exact instantiation (stored-data refits).
pub type ExactEpsilonGreedy = DecayingEpsilonGreedy<LinearArm>;

impl DecayingEpsilonGreedy<RecursiveArm> {
    /// Build with incremental arms (the default).
    ///
    /// # Errors
    /// [`CoreError::NoArms`] for an empty spec list, or invalid config.
    pub fn new(specs: Vec<ArmSpec>, n_features: usize, config: BanditConfig) -> Result<Self> {
        let lambda = config.ridge_lambda;
        Self::with_arms(specs, n_features, config, |nf| RecursiveArm::with_ridge(nf, lambda))
    }
}

impl DecayingEpsilonGreedy<LinearArm> {
    /// Build with paper-exact stored-data arms.
    ///
    /// # Errors
    /// See [`DecayingEpsilonGreedy::new`].
    pub fn new_exact(specs: Vec<ArmSpec>, n_features: usize, config: BanditConfig) -> Result<Self> {
        Self::with_arms(specs, n_features, config, LinearArm::new)
    }
}

impl<A: ArmEstimator> DecayingEpsilonGreedy<A> {
    /// Build with a custom arm factory.
    ///
    /// # Errors
    /// [`CoreError::NoArms`] / [`CoreError::InvalidParameter`].
    pub fn with_arms(
        specs: Vec<ArmSpec>,
        n_features: usize,
        config: BanditConfig,
        factory: impl Fn(usize) -> A,
    ) -> Result<Self> {
        if specs.is_empty() {
            return Err(CoreError::NoArms);
        }
        config.validate()?;
        let arms: Vec<A> = (0..specs.len()).map(|_| factory(n_features)).collect();
        let costs: Vec<f64> = specs.iter().map(|s| s.resource_cost).collect();
        Ok(DecayingEpsilonGreedy {
            arms,
            specs,
            epsilon: config.epsilon0,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            n_features,
            costs,
        })
    }

    /// Current exploration probability ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The configuration this policy was built with.
    pub fn config(&self) -> &BanditConfig {
        &self.config
    }

    /// Arm metadata.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// Borrow an arm estimator (for reporting fitted coefficients).
    ///
    /// # Errors
    /// [`CoreError::ArmOutOfRange`].
    pub fn arm(&self, i: usize) -> Result<&A> {
        check_arm(i, self.arms.len())?;
        Ok(&self.arms[i])
    }

    /// The exploitation choice for `x` *without* consuming randomness or
    /// mutating state — i.e. pure tolerant selection over current models.
    /// This is what the evaluation layer queries to measure per-round
    /// accuracy without disturbing the schedule.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`].
    pub fn exploit(&self, x: &[f64]) -> Result<usize> {
        check_features(x, self.n_features)?;
        Workspace::with(|ws| {
            let preds = &mut ws.per_arm;
            preds.clear();
            preds.extend(self.arms.iter().map(|a| a.predict(x)));
            tolerant_select(preds, &self.costs, self.config.tolerance)
        })
    }
}

impl<A: ArmEstimator> Policy for DecayingEpsilonGreedy<A> {
    fn name(&self) -> String {
        "decaying-contextual-epsilon-greedy".to_string()
    }

    fn n_arms(&self) -> usize {
        self.arms.len()
    }

    fn n_features(&self) -> usize {
        self.n_features
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        check_features(x, self.n_features)?;
        // Step 6: explore with probability ε.
        if self.rng.gen::<f64>() < self.epsilon {
            let arm = self.rng.gen_range(0..self.arms.len());
            return Ok(Selection { arm, explored: true });
        }
        // Step 7: tolerant selection over current predictions (the
        // workspace-backed exploit rule allocates nothing).
        Ok(Selection { arm: self.exploit(x)?, explored: false })
    }

    fn select_frame_with(
        &mut self,
        frame: &FeatureFrame,
        out: &mut Vec<Selection>,
        cols: &mut Vec<f64>,
        ws: &mut Workspace,
    ) -> Result<()> {
        out.clear();
        cols.clear();
        if frame.n_rows() == 0 {
            // Mirror the row path on an empty burst: no selections, no RNG
            // consumed, no width check (an empty frame carries no width).
            return Ok(());
        }
        if frame.n_features() != self.n_features {
            return Err(CoreError::FeatureDimMismatch {
                got: frame.n_features(),
                expected: self.n_features,
            });
        }
        let n = frame.n_rows();
        // Pass 1 — the schedule: draw per-row explore decisions in row
        // order, exactly the RNG stream per-row `select` consumes (the
        // draws never depend on predictions, so hoisting them is exact).
        out.reserve(n);
        for _ in 0..n {
            if self.rng.gen::<f64>() < self.epsilon {
                let arm = self.rng.gen_range(0..self.arms.len());
                out.push(Selection { arm, explored: true });
            } else {
                out.push(Selection { arm: usize::MAX, explored: false });
            }
        }
        if out.iter().all(|s| s.explored) {
            // No prediction was needed, so none is made.
            return Ok(());
        }
        // Pass 2 — the models: one prediction column per arm, each computed
        // by the columnar kernel when the arm is affine (every in-tree
        // linear-family arm is) and by row-gather otherwise.
        let DecayingEpsilonGreedy { arms, costs, config, .. } = self;
        let Workspace { rows, per_arm: preds, .. } = ws;
        cols.resize(arms.len() * n, 0.0);
        for (a, arm) in arms.iter().enumerate() {
            let col = &mut cols[a * n..(a + 1) * n];
            if let Some((w, b)) = arm.linear_coeffs() {
                frame.predict_into(w, b, col);
            } else {
                let m = frame.n_features();
                frame.rows_into(rows);
                for (r, p) in col.iter_mut().enumerate() {
                    *p = arm.predict(&rows[r * m..(r + 1) * m]);
                }
            }
        }
        // Pass 3 — tolerant selection per exploit row, gathering that row's
        // per-arm predictions into one buffer.
        preds.clear();
        preds.resize(arms.len(), 0.0);
        for (r, sel) in out.iter_mut().enumerate() {
            if sel.explored {
                continue;
            }
            for (a, p) in preds.iter_mut().enumerate() {
                *p = cols[a * n + r];
            }
            sel.arm = tolerant_select(preds, costs, config.tolerance)?;
        }
        Ok(())
    }

    fn exploit(&self, x: &[f64], _costs: &[f64]) -> Result<usize> {
        // Algorithm 1 step 7 is tolerant selection over the *configured*
        // per-arm costs and tolerance, not the caller-supplied zero-slack
        // default — delegate to the inherent rule.
        DecayingEpsilonGreedy::exploit(self, x)
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        check_arm(arm, self.arms.len())?;
        // Steps 10–11: store and refit.
        self.arms[arm].update(x, runtime)?;
        // Step 12: decay once per observed workflow.
        self.epsilon *= self.config.decay;
        Ok(())
    }

    fn observe_frame_with(
        &mut self,
        frame: &crate::ObservationFrame,
        absorbed: &mut Vec<bool>,
        ws: &mut Workspace,
    ) -> Result<()> {
        let n = frame.n_rows();
        absorbed.clear();
        absorbed.resize(n, false);
        if n == 0 {
            return Ok(());
        }
        let n_arms = self.arms.len();
        if frame.n_features() != self.n_features || frame.arms().iter().any(|&a| a >= n_arms) {
            // A row is going to fail validation: take the row-gather
            // reference loop so the error surfaces at exactly the row (and
            // with exactly the prefix absorbed) the sequential path
            // produces.
            return crate::policy::observe_frame_rows(self, frame, absorbed);
        }
        let DecayingEpsilonGreedy { arms, config, epsilon, .. } = self;
        // The grouping buffers leave the workspace while the arms, which
        // take it for their panel and solve scratch, absorb.
        let mut g = std::mem::take(&mut ws.grouping);
        let Grouping { block, ys } = &mut g;
        let mut result = Ok(());
        let mut n_absorbed = 0usize;
        for (a, arm) in arms.iter_mut().enumerate() {
            // Stage this arm's rows once, in frame row order, as augmented
            // rows `[1, x]`: each arm's estimator sees the exact observation
            // sequence the row loop feeds it — arm updates commute across
            // arms (disjoint state), which is what makes the grouped
            // absorption bitwise-identical on success.
            block.clear();
            ys.clear();
            for (r, _) in frame.arms().iter().enumerate().filter(|&(_, &ra)| ra == a) {
                block.push(1.0);
                block.extend_from_slice(frame.row(r));
                ys.push(frame.outcome(r));
            }
            if ys.is_empty() {
                continue;
            }
            let mut sub = 0;
            let res = arm.absorb_rows(block, ys, ws, &mut sub);
            // The arm absorbed its first `sub` rows.
            let mine = absorbed.iter_mut().zip(frame.arms()).filter(|&(_, &ra)| ra == a);
            for (flag, _) in mine.take(sub) {
                *flag = true;
            }
            n_absorbed += sub;
            if let Err(e) = res {
                // Completed groups stay absorbed; unflagged rows are the
                // caller's to re-open.
                result = Err(e);
                break;
            }
        }
        // Step 12, batched: one decay per absorbed observation — the same
        // multiply sequence the interleaved row loop applies (the decay
        // never reads arm state, so hoisting it is exact).
        for _ in 0..n_absorbed {
            *epsilon *= config.decay;
        }
        ws.grouping = g;
        result
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
        for a in &mut self.arms {
            a.reset();
        }
        self.epsilon = self.config.epsilon0;
        self.rng = StdRng::seed_from_u64(self.config.seed);
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Epsilon {
            epsilon: self.epsilon,
            rng: self.rng.state(),
            arms: self.arms.iter().map(ArmEstimator::state).collect(),
        }
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let PolicyState::Epsilon { epsilon, rng, arms } = state else {
            return Err(kind_mismatch("epsilon-greedy", state));
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
    use crate::tolerance::Tolerance;

    /// Two synthetic arms: arm 0 runtime = 2x + 10, arm 1 runtime = x + 50.
    /// Crossover at x = 40; arm 0 is best below, arm 1 above.
    fn truth(arm: usize, x: f64) -> f64 {
        match arm {
            0 => 2.0 * x + 10.0,
            _ => x + 50.0,
        }
    }

    fn run_rounds(policy: &mut EpsilonGreedy, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let x = rng.gen_range(1.0..100.0);
            let sel = policy.select(&[x]).unwrap();
            policy.observe(sel.arm, &[x], truth(sel.arm, x)).unwrap();
        }
    }

    #[test]
    fn converges_to_correct_arm_per_context() {
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, BanditConfig::paper()).unwrap();
        run_rounds(&mut p, 300, 1);
        // After 300 rounds ε ≈ 0.049; models should be sharp.
        assert_eq!(p.exploit(&[10.0]).unwrap(), 0, "x=10 → arm 0 (2x+10=30 vs 60)");
        assert_eq!(p.exploit(&[90.0]).unwrap(), 1, "x=90 → arm 1 (190 vs 140)");
        // And the fitted models are near the truth.
        assert!((p.predict(0, &[50.0]).unwrap() - 110.0).abs() < 5.0);
        assert!((p.predict(1, &[50.0]).unwrap() - 100.0).abs() < 5.0);
    }

    #[test]
    fn epsilon_decays_geometrically_per_observation() {
        let cfg = BanditConfig::paper().with_decay(0.9);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        assert_eq!(p.epsilon(), 1.0);
        p.observe(0, &[1.0], 5.0).unwrap();
        assert!((p.epsilon() - 0.9).abs() < 1e-12);
        p.observe(1, &[1.0], 5.0).unwrap();
        assert!((p.epsilon() - 0.81).abs() < 1e-12);
        // select() must not decay
        let _ = p.select(&[1.0]).unwrap();
        assert!((p.epsilon() - 0.81).abs() < 1e-12);
    }

    #[test]
    fn epsilon0_one_always_explores_first_round() {
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(3), 1, BanditConfig::paper()).unwrap();
        for _ in 0..50 {
            let s = p.select(&[1.0]).unwrap();
            assert!(s.explored, "ε=1 must always explore");
        }
    }

    #[test]
    fn epsilon0_zero_never_explores() {
        let cfg = BanditConfig::paper().with_epsilon0(0.0);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(3), 1, cfg).unwrap();
        for _ in 0..50 {
            let s = p.select(&[1.0]).unwrap();
            assert!(!s.explored);
        }
    }

    #[test]
    fn exploration_fraction_tracks_epsilon() {
        let cfg = BanditConfig::paper().with_epsilon0(0.3).with_decay(1.0).with_seed(5);
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        let n = 5000;
        let mut explored = 0;
        for _ in 0..n {
            if p.select(&[1.0]).unwrap().explored {
                explored += 1;
            }
        }
        let frac = explored as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.03, "exploration fraction {frac}");
    }

    #[test]
    fn tolerant_exploitation_prefers_cheap_arm() {
        // Arm 1 slightly faster but costly; tolerance admits cheap arm 0.
        let specs = vec![ArmSpec::new(0, "cheap", 1.0), ArmSpec::new(1, "big", 10.0)];
        let cfg = BanditConfig::paper()
            .with_epsilon0(0.0)
            .with_tolerance(Tolerance::seconds(20.0).unwrap());
        let mut p = EpsilonGreedy::new(specs, 1, cfg).unwrap();
        // Feed flat models: arm0 ≈ 110 s, arm1 ≈ 100 s.
        for i in 0..10 {
            let x = i as f64;
            p.observe(0, &[x], 110.0).unwrap();
            p.observe(1, &[x], 100.0).unwrap();
        }
        let sel = p.select(&[5.0]).unwrap();
        assert_eq!(sel.arm, 0, "within 20 s tolerance the cheap arm wins");
        assert!(!sel.explored);
    }

    #[test]
    fn reset_restores_initial_schedule() {
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, BanditConfig::paper()).unwrap();
        run_rounds(&mut p, 50, 2);
        assert!(p.epsilon() < 1.0);
        assert!(p.pulls().iter().sum::<usize>() == 50);
        p.reset();
        assert_eq!(p.epsilon(), 1.0);
        assert_eq!(p.pulls(), vec![0, 0]);
        assert_eq!(p.predict(0, &[10.0]).unwrap(), 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = BanditConfig::paper().with_seed(42);
        let mut a = EpsilonGreedy::new(ArmSpec::unit_costs(3), 1, cfg).unwrap();
        let mut b = EpsilonGreedy::new(ArmSpec::unit_costs(3), 1, cfg).unwrap();
        for i in 0..100 {
            let x = [(i % 7) as f64];
            let sa = a.select(&x).unwrap();
            let sb = b.select(&x).unwrap();
            assert_eq!(sa, sb);
            a.observe(sa.arm, &x, 10.0 + i as f64).unwrap();
            b.observe(sb.arm, &x, 10.0 + i as f64).unwrap();
        }
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            EpsilonGreedy::new(vec![], 1, BanditConfig::paper()),
            Err(CoreError::NoArms)
        ));
        assert!(EpsilonGreedy::new(
            ArmSpec::unit_costs(2),
            1,
            BanditConfig::paper().with_decay(2.0)
        )
        .is_err());
        let mut p = EpsilonGreedy::new(ArmSpec::unit_costs(2), 2, BanditConfig::paper()).unwrap();
        assert!(p.select(&[1.0]).is_err());
        assert!(p.observe(5, &[1.0, 2.0], 1.0).is_err());
        assert!(p.observe(0, &[1.0], 1.0).is_err());
        assert!(p.predict(0, &[1.0]).is_err());
        assert!(p.predict(9, &[1.0, 2.0]).is_err());
        assert!(p.arm(9).is_err());
        assert!(p.arm(0).is_ok());
    }

    #[test]
    fn exact_variant_behaves_identically() {
        let cfg = BanditConfig::paper().with_seed(3);
        let mut exact = ExactEpsilonGreedy::new_exact(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        let mut fast = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..80 {
            let x = [rng.gen_range(1.0..50.0)];
            let se = exact.select(&x).unwrap();
            let sf = fast.select(&x).unwrap();
            assert_eq!(se, sf, "same seed → same draws");
            let rt = truth(se.arm, x[0]);
            exact.observe(se.arm, &x, rt).unwrap();
            fast.observe(sf.arm, &x, rt).unwrap();
            let pe = exact.predict(0, &x).unwrap();
            let pf = fast.predict(0, &x).unwrap();
            assert!((pe - pf).abs() < 1e-5 * (1.0 + pe.abs()), "{pe} vs {pf}");
        }
        assert_eq!(exact.name(), "decaying-contextual-epsilon-greedy");
        assert_eq!(exact.n_features(), 1);
        assert_eq!(exact.n_arms(), 2);
    }
}
