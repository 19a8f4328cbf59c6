//! The [`Policy`] trait shared by every bandit algorithm, plus arm metadata.

use crate::snapshot::PolicyState;
use crate::Result;

/// Metadata about one arm (hardware setting), independent of any concrete
/// hardware type: the policy layer only ever needs an identifier and the
/// scalar resource cost used by tolerant selection.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmSpec {
    /// Dense arm index.
    pub id: usize,
    /// Display name, interned: cloning an `Arc<str>` is a refcount bump,
    /// so handing the name out per recommendation costs no allocation (see
    /// [`crate::Recommendation::name`]).
    pub name: std::sync::Arc<str>,
    /// Scalar resource cost (lower = more efficient); see Algorithm 1 step 7.
    pub resource_cost: f64,
}

impl ArmSpec {
    /// Convenience constructor.
    pub fn new(id: usize, name: impl Into<std::sync::Arc<str>>, resource_cost: f64) -> Self {
        ArmSpec { id, name: name.into(), resource_cost }
    }

    /// Build specs with unit costs (for policies/tests that ignore cost).
    pub fn unit_costs(n: usize) -> Vec<ArmSpec> {
        (0..n).map(|i| ArmSpec::new(i, format!("arm-{i}"), 1.0)).collect()
    }
}

/// The outcome of a selection round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Selection {
    /// The chosen arm index.
    pub arm: usize,
    /// True when the round was an exploration draw (uniform random), false
    /// for exploitation (model-driven).
    pub explored: bool,
}

/// A contextual bandit policy over a fixed arm set.
///
/// The protocol is the paper's loop: for each incoming workflow, call
/// [`Policy::select`] with its feature vector, run it on the returned arm,
/// then feed the observed runtime back via [`Policy::observe`].
///
/// The trait is **object-safe**: serving layers hold `Box<dyn Policy>` so the
/// algorithm can be chosen by name at runtime (see the blanket
/// `impl Policy for Box<dyn Policy>` below), and wrappers can compose names
/// dynamically — which is why [`Policy::name`] returns an owned `String`
/// rather than a `&'static str`.
pub trait Policy: Send + Sync + std::fmt::Debug {
    /// Short algorithm name (for reports and benches). Wrappers may derive
    /// it from their inner policy (e.g. `"scaled:linucb"`).
    fn name(&self) -> String;

    /// Number of arms.
    fn n_arms(&self) -> usize;

    /// Number of context features.
    fn n_features(&self) -> usize;

    /// Choose an arm for context `x`.
    ///
    /// # Errors
    /// [`crate::CoreError::FeatureDimMismatch`] on a wrong-arity context.
    fn select(&mut self, x: &[f64]) -> Result<Selection>;

    /// Choose arms for a whole batch of contexts ([`crate::FeatureFrame`])
    /// against the **same model state**: one selection per frame row, into
    /// `out` (cleared first). This is the one batch select entry point;
    /// serving layers reuse the frame and `out` across bursts, so the
    /// steady-state batch path performs no heap allocation (pinned by
    /// `alloc_free.rs`).
    ///
    /// **Bitwise contract:** the selections and the RNG stream consumption
    /// equal a loop of [`Policy::select`] over the rows in order (the
    /// scaler wrapper: absorb the whole burst, then standardize; see the
    /// [`crate::frame`] module docs). The default gathers each row and
    /// delegates to `select`; policies with a columnar kernel
    /// ([`crate::DecayingEpsilonGreedy`]) and batch-amortizing wrappers
    /// ([`crate::ScaledPolicy`]) override it so the per-arm predict loop and
    /// the scaler pass stride contiguous columns.
    ///
    /// # Errors
    /// Propagates [`Policy::select`] validation; on error the buffer
    /// contents are unspecified (randomness may have been consumed).
    fn select_frame_into(
        &mut self,
        frame: &crate::FeatureFrame,
        out: &mut Vec<Selection>,
    ) -> Result<()> {
        out.clear();
        out.reserve(frame.n_rows());
        let m = frame.n_features();
        frame.with_row_major(|rows| {
            for r in 0..frame.n_rows() {
                out.push(self.select(&rows[r * m..(r + 1) * m])?);
            }
            Ok(())
        })
    }

    /// The per-arm predictions the most recent
    /// [`Policy::select_frame_into`] computed, arm-major (`n_arms × n_rows`:
    /// arm `a`, row `r` at `a·n_rows + r`), each bitwise equal to
    /// [`Policy::predict`] on that row against the current model. `None`
    /// (the default) when the policy keeps no such columns or the last
    /// frame pass predicted nothing; callers then fall back to `predict`.
    /// Only valid until the policy next changes state.
    fn frame_predictions(&self) -> Option<&[f64]> {
        None
    }

    /// Record the observed runtime of `arm` on context `x` and refit.
    ///
    /// # Errors
    /// [`crate::CoreError::ArmOutOfRange`] /
    /// [`crate::CoreError::FeatureDimMismatch`] /
    /// [`crate::CoreError::InvalidRuntime`].
    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()>;

    /// Absorb a whole batch of completed observations
    /// ([`crate::ObservationFrame`]) — the record-side twin of
    /// [`Policy::select_frame_into`].
    ///
    /// `absorbed` is cleared, resized to `n_rows`, and set `true` for every
    /// row whose observation was fully taken; callers use it to decide
    /// which tickets to close and which rounds to re-open. The first
    /// failure stops absorption and is returned (rows not flagged were not
    /// absorbed at all).
    ///
    /// **Bitwise contract:** on success the policy lands in exactly the
    /// state of row-by-row [`Policy::observe`] calls in row order — model
    /// statistics, schedules, and RNG positions (`observe` consumes no
    /// randomness). The default delegates each row to `observe`, flagging
    /// a strict prefix on failure; policies with block absorb kernels
    /// ([`crate::DecayingEpsilonGreedy`] groups rows per arm into one
    /// [`crate::ArmEstimator::absorb_rows`] each) and transforming wrappers
    /// ([`crate::ScaledPolicy`] standardizes the whole frame in one row
    /// pass) override it. Overrides may absorb
    /// a non-prefix subset when a mid-batch failure interrupts per-arm
    /// groups — `absorbed` is the source of truth.
    ///
    /// # Errors
    /// See [`Policy::observe`].
    fn observe_frame(
        &mut self,
        frame: &crate::ObservationFrame,
        absorbed: &mut Vec<bool>,
    ) -> Result<()> {
        observe_frame_rows(self, frame, absorbed)
    }

    /// Absorb an observation whose context this policy has **not** seen
    /// through its own [`Policy::select`] — warm starts from historical
    /// traces and checkpoint replay. The default delegates to
    /// [`Policy::observe`]; wrappers that learn from contexts at selection
    /// time override it ([`crate::ScaledPolicy`] feeds its scaler first, so
    /// a replayed recommender rebuilds the standardization statistics the
    /// live one accumulated).
    ///
    /// # Errors
    /// See [`Policy::observe`].
    fn warm_start(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        self.observe(arm, x, runtime)
    }

    /// Current runtime prediction of `arm` for context `x`.
    ///
    /// # Errors
    /// [`crate::CoreError::ArmOutOfRange`] /
    /// [`crate::CoreError::FeatureDimMismatch`].
    fn predict(&self, arm: usize, x: &[f64]) -> Result<f64>;

    /// Predictions of every arm for context `x` (Algorithm 1 step 5).
    ///
    /// # Errors
    /// Propagates [`Policy::predict`].
    fn predict_all(&self, x: &[f64]) -> Result<Vec<f64>> {
        (0..self.n_arms()).map(|a| self.predict(a, x)).collect()
    }

    /// [`Policy::predict_all`] into a caller-owned buffer (cleared first)
    /// so per-round scoring loops don't allocate a fresh vector per call.
    ///
    /// # Errors
    /// Propagates [`Policy::predict`]; on error the buffer holds the
    /// predictions made so far.
    fn predict_all_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        out.clear();
        out.reserve(self.n_arms());
        for a in 0..self.n_arms() {
            out.push(self.predict(a, x)?);
        }
        Ok(())
    }

    /// The policy's **exploitation** choice for context `x`: the arm its
    /// own greedy rule would pick, with no exploration draw, no RNG
    /// consumption, and no state mutation. `costs` are the per-arm resource
    /// costs (one per arm, in arm order) for rules that trade runtime
    /// against cost.
    ///
    /// The default is Algorithm 1 step 7 with zero slack: tolerant
    /// selection over [`Policy::predict_all`] — the fastest predicted arm,
    /// cost-then-index tie-broken. Policies with a *specialized*
    /// exploitation rule override it (LinUCB's LCB argmin, the budgeted
    /// objective argmin, Boltzmann's highest-probability arm, the ε-greedy
    /// family's own configured tolerance), so read-only serving surfaces —
    /// a replication follower's recommend — answer with exactly the arm the
    /// live policy's exploit path would.
    ///
    /// # Errors
    /// [`crate::CoreError::FeatureDimMismatch`] on a wrong-arity context;
    /// propagates [`crate::tolerance::tolerant_select`] validation when
    /// `costs` has the wrong length.
    fn exploit(&self, x: &[f64], costs: &[f64]) -> Result<usize> {
        let preds = self.predict_all(x)?;
        crate::tolerance::tolerant_select(&preds, costs, crate::tolerance::Tolerance::ZERO)
    }

    /// Observations absorbed per arm.
    fn pulls(&self) -> Vec<usize>;

    /// Reset every arm and internal schedule to the initial state.
    fn reset(&mut self);

    /// Export the policy's complete live state — sufficient statistics,
    /// schedules, RNG stream positions — as a [`PolicyState`]. Restoring
    /// the snapshot (into a policy built with the same configuration) is
    /// **bitwise-faithful**: the restored policy's future selections and
    /// predictions are exactly the live policy's.
    ///
    /// The default returns [`PolicyState::Opaque`], which the state-based
    /// persistence ([`crate::persist::save_checkpoint`]) refuses to write —
    /// ad-hoc policies fall back to history replay (v2 checkpoints).
    fn snapshot(&self) -> PolicyState {
        PolicyState::Opaque
    }

    /// Restore a state previously captured with [`Policy::snapshot`] from a
    /// policy of the same family and shape. On error the policy's state is
    /// unspecified — restore into a freshly built policy and discard it on
    /// failure (which is what [`crate::persist`] does).
    ///
    /// # Errors
    /// [`crate::CoreError::InvalidParameter`] on a kind/arm-count/dimension
    /// mismatch, or (the default) for policies without snapshot support.
    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        let _ = state;
        Err(crate::CoreError::InvalidParameter {
            name: "snapshot",
            detail: format!("policy {:?} does not support snapshot restore", self.name()),
        })
    }
}

/// Forwarding impl so `BanditWare<Box<dyn Policy>>` (and any other
/// `P: Policy` bound) works with a runtime-chosen boxed policy.
impl Policy for Box<dyn Policy> {
    fn name(&self) -> String {
        (**self).name()
    }

    fn n_arms(&self) -> usize {
        (**self).n_arms()
    }

    fn n_features(&self) -> usize {
        (**self).n_features()
    }

    fn select(&mut self, x: &[f64]) -> Result<Selection> {
        (**self).select(x)
    }

    fn select_frame_into(
        &mut self,
        frame: &crate::FeatureFrame,
        out: &mut Vec<Selection>,
    ) -> Result<()> {
        (**self).select_frame_into(frame, out)
    }

    fn frame_predictions(&self) -> Option<&[f64]> {
        (**self).frame_predictions()
    }

    fn exploit(&self, x: &[f64], costs: &[f64]) -> Result<usize> {
        (**self).exploit(x, costs)
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        (**self).observe(arm, x, runtime)
    }

    fn observe_frame(
        &mut self,
        frame: &crate::ObservationFrame,
        absorbed: &mut Vec<bool>,
    ) -> Result<()> {
        (**self).observe_frame(frame, absorbed)
    }

    fn warm_start(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
        (**self).warm_start(arm, x, runtime)
    }

    fn predict(&self, arm: usize, x: &[f64]) -> Result<f64> {
        (**self).predict(arm, x)
    }

    fn predict_all(&self, x: &[f64]) -> Result<Vec<f64>> {
        (**self).predict_all(x)
    }

    fn predict_all_into(&self, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        (**self).predict_all_into(x, out)
    }

    fn pulls(&self) -> Vec<usize> {
        (**self).pulls()
    }

    fn reset(&mut self) {
        (**self).reset()
    }

    fn snapshot(&self) -> PolicyState {
        (**self).snapshot()
    }

    fn restore(&mut self, state: &PolicyState) -> Result<()> {
        (**self).restore(state)
    }
}

/// The row-by-row reference implementation of [`Policy::observe_frame`]:
/// delegate each row to [`Policy::observe`] in row order, flag the
/// absorbed prefix, stop at the first failure. Shared by the trait default
/// and by batched overrides as their fallback when a batch fails
/// pre-validation (so error positions match the sequential path exactly).
pub(crate) fn observe_frame_rows<P: Policy + ?Sized>(
    policy: &mut P,
    frame: &crate::ObservationFrame,
    absorbed: &mut Vec<bool>,
) -> Result<()> {
    absorbed.clear();
    absorbed.resize(frame.n_rows(), false);
    for r in 0..frame.n_rows() {
        policy.observe(frame.arm(r), frame.row(r), frame.outcome(r))?;
        absorbed[r] = true;
    }
    Ok(())
}

/// Validate a context's arity against a policy's feature count.
pub(crate) fn check_features(x: &[f64], expected: usize) -> Result<()> {
    if x.len() != expected {
        Err(crate::CoreError::FeatureDimMismatch { got: x.len(), expected })
    } else {
        Ok(())
    }
}

/// Validate an arm index.
pub(crate) fn check_arm(arm: usize, n_arms: usize) -> Result<()> {
    if arm >= n_arms {
        Err(crate::CoreError::ArmOutOfRange { arm, n_arms })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_spec_constructors() {
        let s = ArmSpec::new(2, "H2", 6.0);
        assert_eq!(s.id, 2);
        assert_eq!(&*s.name, "H2");
        // Interned names: cloning a spec shares the allocation.
        assert!(std::sync::Arc::ptr_eq(&s.name, &s.clone().name));
        let specs = ArmSpec::unit_costs(3);
        assert_eq!(specs.len(), 3);
        assert!(specs.iter().all(|s| s.resource_cost == 1.0));
        assert_eq!(&*specs[1].name, "arm-1");
    }

    #[test]
    fn boxed_policy_forwards_everything() {
        use crate::epsilon::EpsilonGreedy;
        use crate::BanditConfig;
        let mut p: Box<dyn Policy> = Box::new(
            EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, BanditConfig::paper().with_seed(1))
                .unwrap(),
        );
        assert_eq!(p.name(), "decaying-contextual-epsilon-greedy");
        assert_eq!(p.n_arms(), 2);
        assert_eq!(p.n_features(), 1);
        let xs: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let mut sels = Vec::new();
        p.select_frame_into(&crate::FeatureFrame::from_rows(&xs).unwrap(), &mut sels).unwrap();
        assert_eq!(sels.len(), 4);
        for (s, x) in sels.iter().zip(&xs) {
            p.observe(s.arm, x, 10.0 + x[0]).unwrap();
        }
        assert_eq!(p.pulls().iter().sum::<usize>(), 4);
        assert!(p.predict(0, &[1.0]).unwrap().is_finite());
        assert_eq!(p.predict_all(&[1.0]).unwrap().len(), 2);
        p.reset();
        assert_eq!(p.pulls(), vec![0, 0]);
    }

    #[test]
    fn validators() {
        assert!(check_features(&[1.0, 2.0], 2).is_ok());
        assert!(check_features(&[1.0], 2).is_err());
        assert!(check_arm(1, 2).is_ok());
        assert!(check_arm(2, 2).is_err());
    }
}
