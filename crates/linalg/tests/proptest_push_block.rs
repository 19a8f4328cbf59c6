//! Bitwise pin for the block record path.
//!
//! [`NormalEquations::push_rows`] (and its feature-major adapter
//! [`NormalEquations::push_block`]) promises that folding a k-row block is
//! bit-for-bit identical to k sequential [`NormalEquations::push`] calls —
//! Gram matrix (upper triangle), moment vector, `Σy²`, count, *and* the
//! live LDLᵀ factor. These tests drive both paths over random blocks (cold
//! and warm accumulators, every width 0..=9 and block size 0..=16), over
//! the serving width m=64 with block sizes that cross the 4-row panel and
//! tile edges, and through the factor-failure path, comparing the exported
//! state with `to_bits` equality — the same contract `proptest_kernels.rs`
//! pins for the vector block kernels.

use banditware_linalg::online::augmented_rows;
use banditware_linalg::{NormalEqState, NormalEquations, SolveScratch};
use proptest::prelude::*;

/// `to_bits` equality over the full exported accumulator state. The Gram
/// matrix is compared only on the maintained upper triangle (the lower
/// triangle is unspecified by contract).
fn assert_state_bitwise(a: &NormalEqState, b: &NormalEqState) {
    assert_eq!(a.n_features, b.n_features);
    assert_eq!(a.n, b.n);
    assert_eq!(a.yty.to_bits(), b.yty.to_bits(), "Σy² diverged");
    let dim = a.n_features + 1;
    for (i, (x, y)) in a.zty.iter().zip(&b.zty).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "Zᵀy[{i}] diverged");
    }
    for i in 0..dim {
        for j in i..dim {
            assert_eq!(
                a.ztz[i * dim + j].to_bits(),
                b.ztz[i * dim + j].to_bits(),
                "ZᵀZ[{i},{j}] diverged"
            );
        }
    }
    match (&a.factor, &b.factor) {
        (None, None) => {}
        (Some(fa), Some(fb)) => {
            assert_eq!(fa.lambda.to_bits(), fb.lambda.to_bits());
            assert_eq!(fa.parts.dim, fb.parts.dim);
            for (x, y) in fa.parts.lt.iter().zip(&fb.parts.lt) {
                assert_eq!(x.to_bits(), y.to_bits(), "factor Lᵀ diverged");
            }
            for (x, y) in fa.parts.d.iter().zip(&fb.parts.d) {
                assert_eq!(x.to_bits(), y.to_bits(), "factor D diverged");
            }
            for (x, y) in fa.reg.iter().zip(&fb.reg) {
                assert_eq!(x.to_bits(), y.to_bits(), "factor reg diverged");
            }
        }
        (a, b) => panic!("factor liveness diverged: {} vs {}", a.is_some(), b.is_some()),
    }
}

fn element() -> impl Strategy<Value = f64> {
    (-1e3..1e3f64, 0u8..6).prop_map(|(v, class)| match class {
        0 => 0.0,
        1 => v * 1e-6,
        2 => v * 1e3,
        _ => v,
    })
}

/// A block of `k` rows of `nf` features plus outcomes, `k` in 0..=16 and
/// `nf` in 0..=9 (covering all 4-lane column-panel tail residues of the
/// augmented dimension).
fn block() -> impl Strategy<Value = (usize, Vec<f64>, Vec<f64>)> {
    (0usize..=9, 0usize..=16).prop_flat_map(|(nf, k)| {
        (Just(nf), prop::collection::vec(element(), nf * k), prop::collection::vec(0.01..1e3f64, k))
    })
}

/// Drive `push_block` to completion the way callers do: fold, and if a
/// cholupdate ever stopped the block early, push the remainder row by row
/// (the documented caller protocol).
fn absorb_block(acc: &mut NormalEquations, nf: usize, xcols: &[f64], ys: &[f64]) {
    let k = ys.len();
    let done = acc.push_block(xcols, ys).unwrap();
    let mut row = vec![0.0; nf];
    for r in done..k {
        for f in 0..nf {
            row[f] = xcols[f * k + r];
        }
        acc.push(&row, ys[r]).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn push_block_is_bitwise_k_sequential_pushes(
        (nf, xcols, ys) in block(),
        (warm, lambda) in (any::<bool>(), 0.0..2.0f64),
    ) {
        let k = ys.len();
        let mut blk = NormalEquations::new(nf);
        let mut seq = NormalEquations::new(nf);
        if warm && k > 0 {
            // Prime both with one row and a solve so a live factor exists:
            // the block path must keep it bitwise in step via the same
            // per-row cholupdate sweep.
            let mut row = vec![0.0; nf];
            for f in 0..nf {
                row[f] = xcols[f * k];
            }
            let mut scratch = SolveScratch::new();
            for acc in [&mut blk, &mut seq] {
                acc.push(&row, ys[0]).unwrap();
                acc.solve_with(lambda, &mut scratch).unwrap();
            }
            prop_assert!(blk.factor_is_live(lambda));
        }
        absorb_block(&mut blk, nf, &xcols, &ys);
        let mut row = vec![0.0; nf];
        for r in 0..k {
            for f in 0..nf {
                row[f] = xcols[f * k + r];
            }
            seq.push(&row, ys[r]).unwrap();
        }
        assert_state_bitwise(&blk.to_state(), &seq.to_state());

        // And the fits they produce are the same bits.
        if k > 0 {
            let mut scratch = SolveScratch::new();
            let a = blk.solve_with(lambda, &mut scratch).unwrap();
            let b = seq.solve_with(lambda, &mut scratch).unwrap();
            prop_assert_eq!(a.intercept.to_bits(), b.intercept.to_bits());
            prop_assert_eq!(a.residual_ss.to_bits(), b.residual_ss.to_bits());
            for (x, y) in a.weights.iter().zip(&b.weights) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}

/// Deterministic sweep over every (width, block-size) pair so each column
/// tail residue is pinned even if the random cases cluster.
#[test]
fn push_block_bitwise_all_shapes_0_to_9_by_0_to_16() {
    for nf in 0..=9usize {
        for k in 0..=16usize {
            let xcols: Vec<f64> = (0..nf * k)
                .map(|i| (i as f64) * 0.37 - 3.1 + ((i * 29 % 7) as f64) * 0.11)
                .collect();
            let ys: Vec<f64> = (0..k).map(|r| 0.5 + (r as f64) * 1.37).collect();
            let mut blk = NormalEquations::new(nf);
            let mut seq = NormalEquations::new(nf);
            absorb_block(&mut blk, nf, &xcols, &ys);
            let mut row = vec![0.0; nf];
            for r in 0..k {
                for f in 0..nf {
                    row[f] = xcols[f * k + r];
                }
                seq.push(&row, ys[r]).unwrap();
            }
            assert_state_bitwise(&blk.to_state(), &seq.to_state());
        }
    }
}

/// Deterministic feature-major block of `k` rows of `nf` features.
fn fixed_block(nf: usize, k: usize) -> (Vec<f64>, Vec<f64>) {
    let xcols = (0..nf * k).map(|i| ((i * 53 % 97) as f64) * 0.071 - 3.3).collect();
    let ys = (0..k).map(|r| 0.5 + (r % 13) as f64 * 1.37).collect();
    (xcols, ys)
}

/// Give every accumulator the same `n` rows and a solve, so a live factor
/// for `lambda` exists.
fn prime(accs: &mut [&mut NormalEquations], nf: usize, n: usize, lambda: f64) {
    let (xcols, ys) = fixed_block(nf, n);
    let mut row = vec![0.0; nf];
    let mut scratch = SolveScratch::new();
    for acc in accs.iter_mut() {
        for r in 0..n {
            for f in 0..nf {
                row[f] = xcols[f * n + n - 1 - r];
            }
            acc.push(&row, ys[r] + 1.0).unwrap();
        }
        acc.solve_with(lambda, &mut scratch).unwrap();
        assert!(acc.factor_is_live(lambda));
    }
}

/// The serving width: m=64 (augmented dimension 65, so one ragged Gram
/// column) with block sizes crossing the panel and tile edges, cold and
/// warm, through both the feature-major adapter and the row path with a
/// reused panel scratch.
#[test]
fn push_rows_bitwise_at_m64_across_panel_and_tile_edges() {
    let nf = 64;
    let mut panel = Vec::new();
    let mut zrows = Vec::new();
    for warm in [false, true] {
        for k in [1usize, 3, 4, 5, 16, 64, 67] {
            let (xcols, ys) = fixed_block(nf, k);
            let mut blk = NormalEquations::new(nf);
            let mut rows = NormalEquations::new(nf);
            let mut seq = NormalEquations::new(nf);
            if warm {
                prime(&mut [&mut blk, &mut rows, &mut seq], nf, 80, 0.5);
            }
            absorb_block(&mut blk, nf, &xcols, &ys);
            augmented_rows(&xcols, k, &mut zrows);
            assert_eq!(rows.push_rows(&zrows, &ys, &mut panel).unwrap(), k);
            let mut row = vec![0.0; nf];
            for r in 0..k {
                for f in 0..nf {
                    row[f] = xcols[f * k + r];
                }
                seq.push(&row, ys[r]).unwrap();
            }
            assert_state_bitwise(&blk.to_state(), &seq.to_state());
            assert_state_bitwise(&rows.to_state(), &seq.to_state());
            assert_eq!(rows.factor_is_live(0.5), warm, "k={k}");
        }
    }
}

/// A feature of 1e200 makes its pivot `+inf`, and the next row's factor
/// update then fails the pivot floor. Wherever the huge row sits in a
/// 4-row panel (and when it is the block's last row), the block path must
/// report the same absorbed count as the row at which the sequential push
/// loop loses its factor, and end with the same statistics and factor
/// liveness.
#[test]
fn factor_failure_matches_sequential_pushes_at_every_panel_position() {
    let (nf, k) = (7, 12);
    for pos in [0, 1, 2, 3, k - 1] {
        let (mut xcols, ys) = fixed_block(nf, k);
        xcols[3 * k + pos] = 1e200;
        let mut blk = NormalEquations::new(nf);
        let mut seq = NormalEquations::new(nf);
        prime(&mut [&mut blk, &mut seq], nf, 20, 0.0);

        let mut dies_at = None;
        let mut row = vec![0.0; nf];
        for r in 0..k {
            for f in 0..nf {
                row[f] = xcols[f * k + r];
            }
            seq.push(&row, ys[r]).unwrap();
            if dies_at.is_none() && !seq.factor_is_live(0.0) {
                dies_at = Some(r);
            }
        }
        let done = blk.push_block(&xcols, &ys).unwrap();
        assert_eq!(done, dies_at.map_or(k, |r| r + 1), "huge row at {pos}");
        assert_eq!(dies_at, (pos + 1 < k).then_some(pos + 1), "huge row at {pos}");
        for r in done..k {
            for f in 0..nf {
                row[f] = xcols[f * k + r];
            }
            blk.push(&row, ys[r]).unwrap();
        }
        assert_eq!(blk.factor_is_live(0.0), seq.factor_is_live(0.0), "huge row at {pos}");
        assert_state_bitwise(&blk.to_state(), &seq.to_state());
    }
}
