//! Bitwise equivalence of the columnar batch path and per-row references.
//!
//! The contract: driving a policy through `select_frame_with` (a
//! struct-of-arrays [`FeatureFrame`], blocked predict kernels, hoisted RNG
//! draws) produces the *same* selections, the *same* RNG stream, and
//! bit-for-bit the *same* predictions as one [`Policy::select`] per row in
//! row order — for the scaler wrapper, absorb the whole burst, then
//! standardize each row for the inner policy's `select`. The references
//! below are built test-locally from public per-row calls (`select`,
//! `predict`, [`StandardScaler::observe`] / `transform_into`), never from
//! another batch path. Twins are driven across bursts whose sizes and
//! feature widths cover the 4-lane block tails. At the recorder level,
//! `BanditWare::recommend_batch_frame` is pinned against a loop of
//! `recommend_ticketed` over the same rows.

use banditware_core::linucb::LinUcb;
use banditware_core::scaler::scaled_epsilon_greedy;
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, FeatureFrame, Policy, PolicyState, Recommendation,
    Selection, StandardScaler, Workspace,
};

const M: usize = 7; // deliberately not a multiple of 4: exercises kernel tails
const SEED: u64 = 0xB17E_57A7;

fn specs() -> Vec<ArmSpec> {
    vec![
        ArmSpec::new(0, "small", 2.0),
        ArmSpec::new(1, "medium", 4.0),
        ArmSpec::new(2, "large", 8.0),
    ]
}

/// Deterministic context for (round, row) at width `m`.
fn context(round: usize, row: usize, m: usize) -> Vec<f64> {
    (0..m).map(|j| ((round * 131 + row * 17 + j * 5) % 101) as f64 * 0.37 - 11.0).collect()
}

/// Deterministic runtime for an arm in a context.
fn runtime(arm: usize, x: &[f64]) -> f64 {
    let s: f64 = x.iter().sum();
    10.0 + 3.0 * arm as f64 + 0.25 * s
}

// Burst sizes covering empty, tails 1..3, exact blocks, and bigger bursts.
const BURSTS: &[usize] = &[4, 1, 0, 5, 8, 3, 13, 2, 16, 7];

fn epsilon_greedy(m: usize, seed: u64) -> banditware_core::epsilon::EpsilonGreedy {
    banditware_core::epsilon::EpsilonGreedy::new(specs(), m, BanditConfig::paper().with_seed(seed))
        .unwrap()
}

fn linucb() -> LinUcb {
    LinUcb::new(specs(), M, 1.0, 1e-3).unwrap()
}

/// A row-at-a-time reference for one policy's frame path.
trait RowReference {
    /// Select every row of one burst, in row order.
    fn select_rows(&mut self, rows: &[Vec<f64>]) -> Vec<Selection>;
    /// Arm `arm`'s prediction for row `r` of the last burst, on the input
    /// the selecting policy saw.
    fn predict_row(&self, arm: usize, r: usize) -> f64;
    /// Record one observation, as the wrapped policy's `observe` would.
    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64);
    /// The reference's full state, comparable with [`Policy::snapshot`].
    fn snapshot(&self) -> PolicyState;
}

/// Unwrapped policies: one `select` per row, in row order.
struct PerRow<P> {
    policy: P,
    rows: Vec<Vec<f64>>,
}

impl<P: Policy> PerRow<P> {
    fn new(policy: P) -> Self {
        PerRow { policy, rows: Vec::new() }
    }
}

impl<P: Policy> RowReference for PerRow<P> {
    fn select_rows(&mut self, rows: &[Vec<f64>]) -> Vec<Selection> {
        self.rows = rows.to_vec();
        rows.iter().map(|x| self.policy.select(x).unwrap()).collect()
    }

    fn predict_row(&self, arm: usize, r: usize) -> f64 {
        self.policy.predict(arm, &self.rows[r]).unwrap()
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) {
        self.policy.observe(arm, x, runtime).unwrap();
    }

    fn snapshot(&self) -> PolicyState {
        self.policy.snapshot()
    }
}

/// The scaler wrapper, from public [`StandardScaler`] calls: absorb every
/// row of the burst, then standardize each row against the post-burst
/// statistics and hand it to the inner policy's `select`. With
/// `interleaved`, each row is absorbed and standardized before the next is
/// absorbed instead — the ordering the frame path must *not* match.
struct ScaledRows<P> {
    scaler: StandardScaler,
    inner: P,
    z: Vec<Vec<f64>>,
    interleaved: bool,
}

impl<P: Policy> ScaledRows<P> {
    fn new(inner: P, interleaved: bool) -> Self {
        ScaledRows {
            scaler: StandardScaler::new(inner.n_features()),
            inner,
            z: Vec::new(),
            interleaved,
        }
    }

    fn standardize(&self, x: &[f64]) -> Vec<f64> {
        let mut z = Vec::new();
        self.scaler.transform_into(x, &mut z).unwrap();
        z
    }
}

impl<P: Policy> RowReference for ScaledRows<P> {
    fn select_rows(&mut self, rows: &[Vec<f64>]) -> Vec<Selection> {
        self.z.clear();
        if self.interleaved {
            for x in rows {
                self.scaler.observe(x).unwrap();
                self.z.push(self.standardize(x));
            }
        } else {
            for x in rows {
                self.scaler.observe(x).unwrap();
            }
            self.z = rows.iter().map(|x| self.standardize(x)).collect();
        }
        self.z.iter().map(|z| self.inner.select(z).unwrap()).collect()
    }

    fn predict_row(&self, arm: usize, r: usize) -> f64 {
        self.inner.predict(arm, &self.z[r]).unwrap()
    }

    fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) {
        // `ScaledPolicy::observe`: the select already absorbed `x`.
        let z = self.standardize(x);
        self.inner.observe(arm, &z, runtime).unwrap();
    }

    fn snapshot(&self) -> PolicyState {
        PolicyState::Scaled { scaler: self.scaler.state(), inner: Box::new(self.inner.snapshot()) }
    }
}

/// Drive `framed` through `select_frame_with` and `reference` through its
/// per-row loop on the same bursts at width `m`. Selections must match
/// exactly (same arms, same explore draws — the same RNG stream); where
/// the frame pass computed per-arm prediction columns (arm-major, into the
/// caller's buffer), each must equal the reference's prediction on the row
/// it selected with to the bit; both twins are trained identically between
/// bursts, and the final states must be equal. Returns the number of
/// bursts whose predictions were compared, or the first divergence.
fn check_frame_against<P: Policy, R: RowReference>(
    mut reference: R,
    mut framed: P,
    m: usize,
) -> Result<usize, String> {
    let mut frame = FeatureFrame::new();
    let mut sels: Vec<Selection> = Vec::new();
    let mut cols: Vec<f64> = Vec::new();
    let mut compared = 0;
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, m)).collect();
        let want = reference.select_rows(&contexts);
        frame.fill_from_rows(&contexts).unwrap();
        Workspace::with(|ws| framed.select_frame_with(&frame, &mut sels, &mut cols, ws)).unwrap();

        if want != sels {
            return Err(format!("m={m} round {round}: selections {want:?} vs {sels:?}"));
        }
        let n_arms = framed.n_arms();
        if let Some(preds) = Some(&cols).filter(|p| n > 0 && p.len() == n_arms * n) {
            for arm in 0..n_arms {
                for r in 0..n {
                    let (a, b) = (reference.predict_row(arm, r), preds[arm * n + r]);
                    if a.to_bits() != b.to_bits() {
                        return Err(format!(
                            "m={m} round {round} row {r} arm {arm}: prediction {a} vs {b}"
                        ));
                    }
                }
            }
            compared += 1;
        }

        // Train both twins identically so later bursts exercise the
        // exploit path against fitted (non-zero) models.
        for (x, s) in contexts.iter().zip(&want) {
            let rt = runtime(s.arm, x);
            reference.observe(s.arm, x, rt);
            framed.observe(s.arm, x, rt).unwrap();
        }
    }
    if reference.snapshot() != framed.snapshot() {
        return Err(format!("m={m}: policy state diverged between the reference and the frame"));
    }
    Ok(compared)
}

#[test]
fn plain_epsilon_frame_selects_bitwise_like_per_row_select() {
    let compared =
        check_frame_against(PerRow::new(epsilon_greedy(M, SEED)), epsilon_greedy(M, SEED), M)
            .unwrap();
    assert!(compared > 0, "no burst compared frame predictions");
}

#[test]
fn scaled_epsilon_frame_selects_bitwise_like_absorb_then_standardize() {
    let compared = check_frame_against(
        ScaledRows::new(epsilon_greedy(M, SEED), false),
        scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap(),
        M,
    )
    .unwrap();
    assert!(compared > 0, "no burst compared frame predictions");
}

/// Feature widths sweeping the block tails (0..=9) all stay bitwise
/// identical between the scaled frame path and its per-row reference.
#[test]
fn scaled_frame_matches_reference_across_feature_widths() {
    for m in 0..=9usize {
        let seed = SEED ^ m as u64;
        check_frame_against(
            ScaledRows::new(epsilon_greedy(m, seed), false),
            scaled_epsilon_greedy(specs(), m, BanditConfig::paper().with_seed(seed)).unwrap(),
            m,
        )
        .unwrap();
    }
}

/// The scaled reference is sensitive to the order that defines the
/// wrapper: absorbing and standardizing each row before the next is
/// absorbed standardizes every row but the last of a burst against other
/// statistics, and the frame path must not match that.
#[test]
fn interleaved_scaled_reference_diverges_from_frame() {
    let verdict = check_frame_against(
        ScaledRows::new(epsilon_greedy(M, SEED), true),
        scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap(),
        M,
    );
    assert!(verdict.is_err(), "interleaved observe/transform matched the frame path");
}

/// The default row-gather `select_frame_into` (used by policies without a
/// columnar kernel) equals per-row `select` — here via LinUCB, which
/// selects deterministically from its confidence bounds.
#[test]
fn default_frame_gather_matches_per_row_select_for_linucb() {
    check_frame_against(PerRow::new(linucb()), linucb(), M).unwrap();
}

fn assert_recs_bitwise_eq(a: &Recommendation, b: &Recommendation, ctx: &str) {
    assert_eq!(a.arm, b.arm, "{ctx}: arm");
    assert_eq!(a.explored, b.explored, "{ctx}: explored flag");
    assert_eq!(
        a.predicted_runtime.to_bits(),
        b.predicted_runtime.to_bits(),
        "{ctx}: predicted_runtime bits ({} vs {})",
        a.predicted_runtime,
        b.predicted_runtime
    );
}

/// Recorder level: `recommend_batch_frame` equals a loop of
/// `recommend_ticketed` over the same rows — same ticket ids, arms,
/// explore flags and predicted-runtime bits — and leaves the policies in
/// identical states.
fn frame_recommend_matches_ticketed_loop<P: Policy>(
    mut rows: BanditWare<P>,
    mut framed: BanditWare<P>,
) {
    let mut frame = FeatureFrame::new();
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, M)).collect();

        let via_rows: Vec<_> =
            contexts.iter().map(|x| rows.recommend_ticketed(x).unwrap()).collect();
        frame.fill_from_rows(&contexts).unwrap();
        let via_frame = framed.recommend_batch_frame(&frame).unwrap();

        assert_eq!(via_rows.len(), via_frame.len(), "round {round}: burst size");
        for (i, ((ta, ra), (tb, rb))) in via_rows.iter().zip(&via_frame).enumerate() {
            assert_eq!(ta, tb, "round {round} row {i}: ticket id");
            assert_recs_bitwise_eq(ra, rb, &format!("round {round} row {i}"));
            let rt = runtime(ra.arm, &contexts[i]);
            rows.record_ticket(*ta, rt).unwrap();
            framed.record_ticket(*tb, rt).unwrap();
        }
    }
    assert_eq!(
        rows.policy().snapshot(),
        framed.policy().snapshot(),
        "policy state diverged between the ticketed loop and the frame path"
    );
}

#[test]
fn plain_epsilon_frame_recommend_matches_ticketed_loop() {
    let mk = || BanditWare::new(epsilon_greedy(M, SEED), specs());
    frame_recommend_matches_ticketed_loop(mk(), mk());
}

#[test]
fn linucb_frame_recommend_matches_ticketed_loop() {
    let mk = || BanditWare::new(linucb(), specs());
    frame_recommend_matches_ticketed_loop(mk(), mk());
}
