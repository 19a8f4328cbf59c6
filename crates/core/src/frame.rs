//! Batch layouts for the serving hot path: columnar contexts on the
//! select side, row-major observations on the record side.
//!
//! A burst of recommendation requests arrives as rows — one `Vec<f64>`
//! context per workflow. The per-arm prediction sweep, however, walks
//! *features*: `R̂(Hᵢ, x) = wᵢᵀx + bᵢ` multiplies weight `w[f]` against
//! feature `f` of every row. [`FeatureFrame`] stores the burst column-major
//! so [`FeatureFrame::predict_into`] reads each feature of a block of rows
//! contiguously ([`banditware_linalg::vector::dot_cols_into`], a
//! register-blocked sweep with an AVX2 twin on wide systems), and the
//! Welford scaler pass ([`crate::StandardScaler::observe_frame`]) walks
//! each per-feature accumulator over a contiguous column.
//!
//! The record side needs rows: a completed round comes out of the ticket
//! arena as one row, and the per-arm block absorption takes augmented rows
//! `[1, x]`. [`ObservationFrame`] therefore stores its features row-major,
//! and each staging step is one contiguous row copy.
//!
//! ## Bitwise-determinism contract
//!
//! The frame path equals per-row `select`: for any batch,
//! [`crate::Policy::select_frame_into`] over a frame built from the rows
//! returns exactly the selections (and consumes exactly the RNG stream) of
//! a loop of [`crate::Policy::select`] over the rows in order — for the
//! scaler wrapper ([`crate::ScaledPolicy`]), absorb the whole burst, then
//! standardize each row for the inner policy's `select` — and every
//! prediction matches [`crate::Policy::predict`] to the last bit. This
//! holds because
//!
//! * [`FeatureFrame::predict_into`] replays `vector::dot`'s accumulation
//!   order exactly: per row, four independent lane sums over feature blocks
//!   of 4 (lane `k` sums `w[4j+k]·x[4j+k]` in ascending `j`), a sequential
//!   scalar tail, combined as `(s0 + s1) + (s2 + s3) + tail` and only then
//!   `+ intercept` — the same adds in the same order, just batched across
//!   a block of rows;
//! * a Welford accumulator for feature `f` sees the same value sequence
//!   whether the burst is absorbed row-by-row or column-by-column (each
//!   accumulator only ever reads its own feature, in row order either way);
//! * standardization is element-wise.
//!
//! Golden determinism suites and the serving equivalence tests rely on this
//! contract; see `crates/core/tests/frame_equivalence.rs`.

use crate::error::CoreError;
use crate::Result;
use banditware_linalg::vector;

/// A batch of contexts in column-major (struct-of-arrays) layout.
///
/// Feature `f` of row `r` lives at `cols[f * n_rows + r]`, so
/// [`FeatureFrame::column`] is a contiguous `&[f64]` of one feature across
/// the whole burst. Buffers are reused across [`FeatureFrame::fill_from_rows`]
/// calls: a steady-state serving loop re-fills the same frame without
/// allocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureFrame {
    /// Column-major values, `n_features * n_rows` long.
    cols: Vec<f64>,
    n_rows: usize,
    n_features: usize,
}

impl FeatureFrame {
    /// New empty frame (0 rows, 0 features).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a frame from row-major contexts (convenience over
    /// [`FeatureFrame::fill_from_rows`]).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] on ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let mut frame = FeatureFrame::new();
        frame.fill_from_rows(rows)?;
        Ok(frame)
    }

    /// Rebuild this frame from row-major contexts, reusing storage. The
    /// width is inferred from the first row (an empty batch yields an empty
    /// frame).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when rows disagree on width; the
    /// frame is left unchanged.
    pub fn fill_from_rows(&mut self, rows: &[Vec<f64>]) -> Result<()> {
        let n_rows = rows.len();
        let n_features = rows.first().map_or(0, Vec::len);
        for row in rows {
            if row.len() != n_features {
                return Err(CoreError::FeatureDimMismatch { got: row.len(), expected: n_features });
            }
        }
        self.n_rows = n_rows;
        self.n_features = n_features;
        self.cols.clear();
        self.cols.resize(n_features * n_rows, 0.0);
        for (r, row) in rows.iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                self.cols[f * n_rows + r] = v;
            }
        }
        Ok(())
    }

    /// Reset to an `n_rows × n_features` frame of zeros (reusing storage),
    /// ready for row-at-a-time filling via [`FeatureFrame::set_row`]. This
    /// is the staging entry point for producers whose rows are not
    /// contiguous `Vec`s (the record path scatters ticket-table rounds in).
    pub fn begin(&mut self, n_rows: usize, n_features: usize) {
        self.n_rows = n_rows;
        self.n_features = n_features;
        self.cols.clear();
        self.cols.resize(n_features * n_rows, 0.0);
    }

    /// Scatter one row into a frame prepared by [`FeatureFrame::begin`].
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `row.len() != n_features`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn set_row(&mut self, r: usize, row: &[f64]) -> Result<()> {
        if row.len() != self.n_features {
            return Err(CoreError::FeatureDimMismatch {
                got: row.len(),
                expected: self.n_features,
            });
        }
        assert!(r < self.n_rows, "row {r} of a {}-row frame", self.n_rows);
        for (f, &v) in row.iter().enumerate() {
            self.cols[f * self.n_rows + r] = v;
        }
        Ok(())
    }

    /// Overwrite this frame with a copy of `src`, reusing storage.
    pub fn copy_from(&mut self, src: &FeatureFrame) {
        self.n_rows = src.n_rows;
        self.n_features = src.n_features;
        self.cols.clear();
        self.cols.extend_from_slice(&src.cols);
    }

    /// Number of rows (contexts) in the batch.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features per context.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Feature `f` across all rows, contiguous.
    ///
    /// # Panics
    /// Panics when `f >= n_features` (programmer error on the hot path).
    pub fn column(&self, f: usize) -> &[f64] {
        assert!(f < self.n_features, "column {f} of a {}-feature frame", self.n_features);
        &self.cols[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Mutable view of feature `f` across all rows (used by the scaler's
    /// columnar standardization pass).
    ///
    /// # Panics
    /// Panics when `f >= n_features`.
    pub fn column_mut(&mut self, f: usize) -> &mut [f64] {
        assert!(f < self.n_features, "column {f} of a {}-feature frame", self.n_features);
        &mut self.cols[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Transpose the frame into row-major storage: row `r` lands in
    /// `dst[at(r)·stride ..][..n_features]`. Returns whether every value
    /// copied satisfies `|x| <= bound` (`false` on any `NaN`), so an
    /// ingress check rides the same pass.
    ///
    /// One plain pass per row: its writes are contiguous and its column
    /// reads hit lines the previous rows brought in. On a 2-vCPU x86-64
    /// host a 64×64 frame into a slot-scattered arena took 1.7–3.1 µs this
    /// way against 4.6–7.5 µs through 8×8 register tiles.
    ///
    /// # Panics
    /// When `stride < n_features` or a destination row falls outside `dst`.
    pub fn transpose_into(
        &self,
        dst: &mut [f64],
        stride: usize,
        at: impl Fn(usize) -> usize,
        bound: f64,
    ) -> bool {
        let (n, m) = (self.n_rows, self.n_features);
        assert!(stride >= m, "transpose_into: stride {stride} below width {m}");
        let mut fits = true;
        for r in 0..n {
            let row = &mut dst[at(r) * stride..][..m];
            for (f, d) in row.iter_mut().enumerate() {
                let v = self.cols[f * n + r];
                *d = v;
                fits &= v.abs() <= bound;
            }
        }
        fits
    }

    /// The whole frame as one row-major buffer (`n_rows × n_features`) in
    /// `rows` (overwritten): the row view for policies without a columnar
    /// kernel. A warm buffer (the thread's workspace) allocates nothing.
    pub(crate) fn rows_into(&self, rows: &mut Vec<f64>) {
        rows.clear();
        rows.resize(self.n_rows * self.n_features, 0.0);
        self.transpose_into(rows, self.n_features, |r| r, f64::INFINITY);
    }

    /// Affine prediction of every row against one arm's coefficients:
    /// `out[r] = w·x_r + b`, **bit-for-bit** equal to
    /// `vector::dot(w, row_r) + b` (see the module docs for why). `out`
    /// must be pre-sized to `n_rows`; nothing is allocated.
    ///
    /// # Panics
    /// Panics when `weights.len() != n_features` or `out.len() != n_rows`.
    pub fn predict_into(&self, weights: &[f64], intercept: f64, out: &mut [f64]) {
        assert_eq!(weights.len(), self.n_features, "predict_into: weight count mismatch");
        assert_eq!(out.len(), self.n_rows, "predict_into: output length mismatch");
        vector::dot_cols_into(weights, &self.cols, intercept, out);
    }
}

/// A batch of completed observations, row-major — the record-side twin of
/// [`FeatureFrame`].
///
/// Feature `f` of row `r` lives at `rows[r * n_features + f]`, so
/// [`ObservationFrame::row`] is one contiguous `&[f64]`: staging a closed
/// round is one row copy, and a policy builds each arm's augmented block
/// `[1, x]` from row copies. Outcomes, arms, and explored flags ride along
/// as per-row lanes. Buffers are reused across [`ObservationFrame::begin`]
/// cycles, so a steady-state record loop stages every burst without
/// allocating.
///
/// The same bitwise-determinism contract as the select side applies:
/// absorbing a frame through [`crate::Policy::observe_frame`] produces
/// exactly the policy state of row-by-row [`crate::Policy::observe`] calls
/// in row order (see `crates/serve/tests/record_frame_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct ObservationFrame {
    /// Row-major features, `n_rows * n_features` long.
    rows: Vec<f64>,
    n_features: usize,
    outcomes: Vec<f64>,
    arms: Vec<usize>,
    explored: Vec<bool>,
}

impl ObservationFrame {
    /// New empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to `n_rows` zeroed observations of `n_features` features
    /// (reusing storage), ready for [`ObservationFrame::set_row`].
    pub fn begin(&mut self, n_rows: usize, n_features: usize) {
        self.n_features = n_features;
        self.rows.clear();
        self.rows.resize(n_rows * n_features, 0.0);
        self.outcomes.clear();
        self.outcomes.resize(n_rows, 0.0);
        self.arms.clear();
        self.arms.resize(n_rows, 0);
        self.explored.clear();
        self.explored.resize(n_rows, false);
    }

    /// Stage one completed round into row `r` (one contiguous copy of
    /// `features`).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `features.len()` disagrees
    /// with the frame width.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn set_row(
        &mut self,
        r: usize,
        arm: usize,
        features: &[f64],
        outcome: f64,
        explored: bool,
    ) -> Result<()> {
        if features.len() != self.n_features {
            return Err(CoreError::FeatureDimMismatch {
                got: features.len(),
                expected: self.n_features,
            });
        }
        assert!(r < self.n_rows(), "row {r} of a {}-row frame", self.n_rows());
        self.rows[r * self.n_features..][..self.n_features].copy_from_slice(features);
        self.outcomes[r] = outcome;
        self.arms[r] = arm;
        self.explored[r] = explored;
        Ok(())
    }

    /// Overwrite this frame with a copy of `src`, reusing storage.
    pub fn copy_from(&mut self, src: &ObservationFrame) {
        self.n_features = src.n_features;
        self.rows.clear();
        self.rows.extend_from_slice(&src.rows);
        self.outcomes.clear();
        self.outcomes.extend_from_slice(&src.outcomes);
        self.arms.clear();
        self.arms.extend_from_slice(&src.arms);
        self.explored.clear();
        self.explored.extend_from_slice(&src.explored);
    }

    /// Number of observations in the batch.
    pub fn n_rows(&self) -> usize {
        self.outcomes.len()
    }

    /// Number of features per observation.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when the frame holds no observations.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// The features of row `r`, contiguous.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn row(&self, r: usize) -> &[f64] {
        &self.rows[r * self.n_features..(r + 1) * self.n_features]
    }

    /// Every row's features as one mutable row-major block — for in-place
    /// transforms (the scaler's standardization pass).
    pub fn rows_mut(&mut self) -> &mut [f64] {
        &mut self.rows
    }

    /// Outcome (runtime) lane, one per row.
    pub fn outcomes(&self) -> &[f64] {
        &self.outcomes
    }

    /// Arm lane, one per row.
    pub fn arms(&self) -> &[usize] {
        &self.arms
    }

    /// Outcome of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn outcome(&self, r: usize) -> f64 {
        self.outcomes[r]
    }

    /// Arm of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn arm(&self, r: usize) -> usize {
        self.arms[r]
    }

    /// Explored flag of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn explored(&self, r: usize) -> bool {
        self.explored[r]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_linalg::lstsq::LinearFit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rows(n_rows: usize, n_features: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_rows)
            .map(|_| (0..n_features).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect()
    }

    #[test]
    fn roundtrips_rows_through_columns() {
        let data = rows(7, 5, 1);
        let frame = FeatureFrame::from_rows(&data).unwrap();
        assert_eq!(frame.n_rows(), 7);
        assert_eq!(frame.n_features(), 5);
        assert!(!frame.is_empty());
        let mut back = vec![0.0; 7 * 5];
        assert!(frame.transpose_into(&mut back, 5, |r| r, f64::INFINITY));
        assert_eq!(back, data.concat());
        for f in 0..5 {
            let col: Vec<f64> = data.iter().map(|row| row[f]).collect();
            assert_eq!(frame.column(f), &col[..]);
        }
    }

    #[test]
    fn transpose_into_scatters_rows_and_checks_the_bound() {
        for (n_rows, n_features) in [(1, 1), (8, 8), (9, 17), (16, 64), (3, 0), (20, 7), (64, 64)] {
            let data = rows(n_rows, n_features, 40 + n_rows as u64);
            let stride = n_features + 2;
            let at = |r: usize| n_rows - 1 - r;
            let mut dst = vec![f64::NAN; n_rows * stride];
            let frame = FeatureFrame::from_rows(&data).unwrap();
            assert!(frame.transpose_into(&mut dst, stride, at, 100.0));
            for (r, row) in data.iter().enumerate() {
                assert_eq!(&dst[at(r) * stride..][..n_features], &row[..]);
            }
            for (r, f) in [(0, 0), (n_rows / 2, n_features / 2), (n_rows - 1, n_features)] {
                for bad in [f64::NAN, 100.5, f64::NEG_INFINITY] {
                    let mut data = data.clone();
                    let Some(v) = data[r].get_mut(f) else { continue };
                    *v = bad;
                    let frame = FeatureFrame::from_rows(&data).unwrap();
                    assert!(
                        !frame.transpose_into(&mut dst, stride, at, 100.0),
                        "{n_rows}x{n_features}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        let mut frame = FeatureFrame::from_rows(&rows(3, 4, 2)).unwrap();
        let bad = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(frame.fill_from_rows(&bad).is_err());
        // failed fill leaves the old contents alone
        assert_eq!(frame.n_rows(), 3);
        assert_eq!(frame.n_features(), 4);
    }

    #[test]
    fn empty_batch_is_empty_frame() {
        let frame = FeatureFrame::from_rows(&[]).unwrap();
        assert!(frame.is_empty());
        assert_eq!(frame.n_features(), 0);
        assert_eq!(FeatureFrame::new(), frame);
    }

    #[test]
    fn refill_reuses_capacity() {
        let mut frame = FeatureFrame::new();
        frame.fill_from_rows(&rows(64, 8, 3)).unwrap();
        let cap = frame.cols.capacity();
        frame.fill_from_rows(&rows(32, 8, 4)).unwrap();
        assert_eq!(frame.n_rows(), 32);
        assert_eq!(frame.cols.capacity(), cap, "smaller refill must not reallocate");
    }

    #[test]
    fn copy_from_matches_source() {
        let a = FeatureFrame::from_rows(&rows(5, 3, 5)).unwrap();
        let mut b = FeatureFrame::new();
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn predict_into_is_bitwise_dot_plus_intercept() {
        const R: usize = vector::DOT_COLS_ROWS;
        // Sweep widths across several block boundaries, including the empty
        // frame and pure-tail widths, and row counts that end on every
        // block size of the sweep.
        for (n_features, n_rows) in [0usize, 1, 3, 4, 5, 7, 8, 11, 16, 64, 65]
            .into_iter()
            .flat_map(|f| [0, 1, 2, 3, R - 1, R, R + 1, 2 * R + 3, 64].map(|n| (f, n)))
        {
            let data = rows(n_rows, n_features, 10 + n_features as u64);
            let mut frame = FeatureFrame::new();
            frame.begin(n_rows, n_features);
            for (r, row) in data.iter().enumerate() {
                frame.set_row(r, row).unwrap();
            }
            let mut rng = StdRng::seed_from_u64(99);
            let fit = LinearFit {
                weights: (0..n_features).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                intercept: rng.gen_range(-10.0..10.0),
                residual_ss: 0.0,
                n_obs: 1,
            };
            let mut out = vec![f64::NAN; frame.n_rows()];
            frame.predict_into(&fit.weights, fit.intercept, &mut out);
            for (r, row) in data.iter().enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    fit.predict(row).to_bits(),
                    "width {n_features}, rows {n_rows}, row {r}"
                );
            }
        }
    }

    #[test]
    fn observation_rows_round_trip() {
        let data = rows(9, 6, 7);
        let mut obs = ObservationFrame::new();
        obs.begin(data.len(), 6);
        // Fill out of order: each row lands in its own slot.
        for (r, row) in data.iter().enumerate().rev() {
            obs.set_row(r, r % 3, row, 10.0 + r as f64, r % 2 == 0).unwrap();
        }
        assert_eq!((obs.n_rows(), obs.n_features()), (9, 6));
        assert_eq!(obs.rows, data.concat());
        for (r, row) in data.iter().enumerate() {
            assert_eq!(obs.row(r), &row[..]);
            assert_eq!(
                (obs.arm(r), obs.outcome(r), obs.explored(r)),
                (r % 3, 10.0 + r as f64, r % 2 == 0)
            );
        }
        assert!(obs.set_row(0, 0, &[1.0; 5], 1.0, false).is_err(), "width is checked");
        let mut copy = ObservationFrame::new();
        copy.copy_from(&obs);
        assert_eq!(
            (&copy.rows, copy.arms(), copy.outcomes()),
            (&obs.rows, obs.arms(), obs.outcomes())
        );
        // A smaller refill reuses storage and zeroes the rows.
        let cap = obs.rows.capacity();
        obs.begin(4, 6);
        assert_eq!(obs.rows, [0.0; 24]);
        assert_eq!(obs.rows.capacity(), cap);
        obs.begin(0, 6);
        assert!(obs.is_empty());
    }
}
