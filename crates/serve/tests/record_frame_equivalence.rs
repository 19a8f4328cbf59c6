//! Bitwise equivalence of the columnar record path and the row paths.
//!
//! PR 8's contract, the record-side twin of `engine_equivalence.rs`:
//! absorbing a burst through `record_batch_frame` (staged
//! [`ObservationFrame`], per-arm grouped rank-k Gram folds) leaves the
//! policy in bit-for-bit the *same* state as recording the rounds one at a
//! time in input order — same snapshots, same prediction bits, same
//! histories, and (through [`DurableEngine`]) the same WAL segment bytes.
//! The twins are driven across burst sizes covering the 4-lane block tails
//! (0–16), feature widths 0–9, and interleaved frame / single-record calls,
//! for plain + scaled ε-greedy and LinUCB.

use banditware_core::scaler::scaled_epsilon_greedy;
use banditware_core::{
    ArmEstimator, ArmSpec, BanditConfig, BanditWare, FeatureFrame, Policy, RecursiveArm, Ticket,
};
use banditware_serve::{DurableEngine, Engine, EngineBuilder, WalOptions};
use std::path::{Path, PathBuf};

const M: usize = 7; // deliberately not a multiple of 4: exercises kernel tails
const SEED: u64 = 0x5EC0_8D08;

// Burst sizes covering empty, tails 1..3, exact blocks, and bigger bursts.
const BURSTS: &[usize] = &[4, 1, 0, 5, 8, 3, 13, 2, 16, 7];

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

/// Drive identically seeded twin recommenders through the same issued
/// rounds; the `rows` twin records every round one at a time (the
/// reference semantics), the `framed` twin mixes frame-batch and single
/// record calls. Every round probes per-arm prediction bits;
/// the end states (snapshot, history, round counters, open tickets) must
/// be identical.
fn record_frame_matches_rows<P: Policy>(
    mut rows: BanditWare<P>,
    mut framed: BanditWare<P>,
    m: usize,
) {
    let mut frame = FeatureFrame::new();
    let probe: Vec<f64> = (0..m).map(|j| 0.75 * j as f64 - 1.0).collect();
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, m)).collect();
        frame.fill_from_rows(&contexts).unwrap();
        let via_rows = rows.recommend_batch_frame(&frame).unwrap();
        let via_frame = framed.recommend_batch_frame(&frame).unwrap();
        assert_eq!(via_rows.len(), via_frame.len(), "m={m} round {round}: burst size");

        let outcome = |issued: &[(Ticket, banditware_core::Recommendation)]| -> Vec<(Ticket, f64)> {
            issued
                .iter()
                .enumerate()
                .map(|(i, (t, rec))| (*t, runtime(rec.arm, &contexts[i])))
                .collect()
        };
        let out_rows = outcome(&via_rows);
        let out_frame = outcome(&via_frame);

        // Reference: strictly one at a time, in input order.
        for &(t, rt) in &out_rows {
            rows.record_ticket(t, rt).unwrap();
        }
        // Candidate: every third round records ticket by ticket, the rest
        // as one frame burst (so bursts of every 4-lane tail take the
        // frame path).
        if round % 3 == 1 {
            for &(t, rt) in &out_frame {
                framed.record_ticket(t, rt).unwrap();
            }
        } else {
            framed.record_batch_frame(&out_frame).unwrap();
        }

        for arm in 0..3 {
            match (rows.policy().predict(arm, &probe), framed.policy().predict(arm, &probe)) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "m={m} round {round} arm {arm}: prediction bits ({a} vs {b})"
                ),
                (Err(_), Err(_)) => {}
                (a, b) => {
                    panic!("m={m} round {round} arm {arm}: predict divergence {a:?} vs {b:?}")
                }
            }
        }
    }
    assert_eq!(
        rows.policy().snapshot(),
        framed.policy().snapshot(),
        "m={m}: policy state diverged between row and frame record paths"
    );
    assert_eq!(rows.history(), framed.history(), "m={m}: histories diverged");
    assert_eq!(rows.rounds(), framed.rounds(), "m={m}: round counters diverged");
    assert_eq!(rows.open_tickets(), framed.open_tickets(), "m={m}: open tickets diverged");
}

#[test]
fn plain_epsilon_record_frame_matches_rows() {
    let mk = || {
        let policy = banditware_core::epsilon::EpsilonGreedy::new(
            specs(),
            M,
            BanditConfig::paper().with_seed(SEED),
        )
        .unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

#[test]
fn scaled_epsilon_record_frame_matches_rows() {
    let mk = || {
        let policy =
            scaled_epsilon_greedy(specs(), M, BanditConfig::paper().with_seed(SEED)).unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

/// The default row-gather `observe_frame` (used by policies without a
/// grouped absorption kernel) also matches — here via LinUCB.
#[test]
fn linucb_record_frame_matches_rows() {
    let mk = || {
        let policy = banditware_core::linucb::LinUcb::new(specs(), M, 1.0, 1e-3).unwrap();
        BanditWare::new(policy, specs())
    };
    record_frame_matches_rows(mk(), mk(), M);
}

/// Feature widths sweeping the rank-k fold's block tails (0..=9) all stay
/// bitwise identical between the frame record path and one-at-a-time
/// recording.
#[test]
fn record_frame_matches_rows_across_feature_widths() {
    for m in 0..=9usize {
        let mk = || {
            let policy =
                scaled_epsilon_greedy(specs(), m, BanditConfig::paper().with_seed(SEED ^ m as u64))
                    .unwrap();
            BanditWare::new(policy, specs())
        };
        record_frame_matches_rows(mk(), mk(), m);
    }
}

/// The policy's row-major absorption (`absorb_rows` over augmented rows
/// `[1, x]`, the panel cholupdate and tiled Gram fold, with one panel
/// scratch shared across calls) leaves the estimator bit-for-bit where the
/// feature-major adapter (`absorb_block`) does — cold,
/// warm-with-live-factor, and across panel and tile tails.
#[test]
fn row_major_absorption_bitwise_matches_feature_major_adapter() {
    let mut panel = Vec::new();
    for m in [1usize, 3, 4, 7, 8] {
        let mut feature_major = RecursiveArm::new(m);
        let mut row_major = RecursiveArm::new(m);
        let probe: Vec<f64> = (0..m).map(|j| 0.75 * j as f64 - 1.0).collect();
        for (round, &k) in BURSTS.iter().enumerate() {
            let block: Vec<Vec<f64>> = (0..k).map(|r| context(round, r, m)).collect();
            let ys: Vec<f64> = block.iter().map(|x| runtime(round % 3, x)).collect();
            let mut cols = vec![0.0; m * k];
            let mut zrows = vec![1.0; (m + 1) * k];
            for (r, x) in block.iter().enumerate() {
                zrows[r * (m + 1) + 1..(r + 1) * (m + 1)].copy_from_slice(x);
                for (f, &v) in x.iter().enumerate() {
                    cols[f * k + r] = v;
                }
            }
            let (mut a, mut b) = (0, 0);
            feature_major.absorb_block(&cols, &ys, &mut a).unwrap();
            row_major.absorb_rows(&zrows, &ys, &mut panel, &mut b).unwrap();
            assert_eq!(a, b, "m={m} round {round}: absorbed counts");
            assert_eq!(feature_major.state(), row_major.state(), "m={m} round {round}: arm state");
            if k > 0 {
                assert_eq!(
                    feature_major.predict(&probe).to_bits(),
                    row_major.predict(&probe).to_bits(),
                    "m={m} round {round}: prediction bits"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Durable layer: WAL segment bytes
// ---------------------------------------------------------------------------

fn builder() -> EngineBuilder {
    Engine::builder(specs(), M).config(BanditConfig::paper().with_seed(SEED)).stripes(4)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("bw_wal_tests").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// All WAL segment bytes of a key's directory, concatenated in segment
/// order (both engines stay inside one segment here — the bursts total a
/// few KiB against a 1 MiB segment cap — so this is the full log).
fn wal_bytes(key_dir: &Path) -> Vec<u8> {
    let mut segments: Vec<_> = std::fs::read_dir(key_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().into_string().ok())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    assert!(!segments.is_empty(), "no WAL segments under {}", key_dir.display());
    let mut bytes = Vec::new();
    for seg in segments {
        bytes.extend(std::fs::read(key_dir.join(seg)).unwrap());
    }
    bytes
}

fn probe_predictions(engine: &Engine, key: &str) -> Vec<u64> {
    let mut bits = Vec::new();
    let probe: Vec<f64> = (0..M).map(|j| 0.75 * j as f64 - 1.0).collect();
    engine
        .with_shard(key, |shard| {
            for arm in 0..3 {
                bits.push(shard.policy().predict(arm, &probe).unwrap().to_bits());
            }
        })
        .expect("shard exists");
    bits
}

/// One `DurableEngine` recommends every round with a per-request
/// `recommend` and records it with a per-ticket `record` (one append per
/// observation); the other recommends each burst as one frame and absorbs
/// it with `record_batch_frame` (one grouped append per burst, grouped
/// rank-k absorption). The recommendations, the models, the round
/// counters, and the **WAL segment bytes** — seqs, lines, CRCs — must come
/// out identical.
#[test]
fn durable_record_frame_wal_bytes_match_row_path() {
    let dir_rows = tmp_dir("pr8-record-rows");
    let dir_frame = tmp_dir("pr8-record-frame");
    let (rows, _) = DurableEngine::open(builder(), WalOptions::new(&dir_rows)).unwrap();
    let (framed, _) = DurableEngine::open(builder(), WalOptions::new(&dir_frame)).unwrap();

    let mut frame = FeatureFrame::new();
    for (round, &n) in BURSTS.iter().enumerate() {
        let contexts: Vec<Vec<f64>> = (0..n).map(|r| context(round, r, M)).collect();
        let via_rows: Vec<_> = contexts.iter().map(|x| rows.recommend("w", x).unwrap()).collect();
        frame.fill_from_rows(&contexts).unwrap();
        let via_frame = framed.recommend_batch_frame("w", &frame).unwrap();
        assert_eq!(via_rows.len(), via_frame.len(), "round {round}: burst size");
        for ((ta, ra), (tb, rb)) in via_rows.iter().zip(&via_frame) {
            assert_eq!(ta.id(), tb.id(), "round {round}: ticket ids diverged");
            assert_eq!((ra.arm, ra.explored), (rb.arm, rb.explored), "round {round}: selections");
            assert_eq!(
                ra.predicted_runtime.to_bits(),
                rb.predicted_runtime.to_bits(),
                "round {round}: predicted runtime bits"
            );
        }
        for (i, &(ticket, _)) in via_rows.iter().enumerate() {
            let rt = runtime(via_rows[i].1.arm, &contexts[i]);
            rows.record("w", ticket, rt).unwrap();
        }
        let outcomes: Vec<(Ticket, f64)> = via_frame
            .iter()
            .enumerate()
            .map(|(i, (t, rec))| (*t, runtime(rec.arm, &contexts[i])))
            .collect();
        // Interleave single-record rounds through the frame path too.
        if round % 3 == 1 {
            for &(t, rt) in &outcomes {
                framed.record("w", t, rt).unwrap();
            }
        } else {
            framed.record_batch_frame("w", &outcomes).unwrap();
        }
    }

    assert_eq!(
        probe_predictions(rows.engine(), "w"),
        probe_predictions(framed.engine(), "w"),
        "prediction bits diverged between durable row and frame record paths"
    );
    assert_eq!(
        wal_bytes(&dir_rows.join("kw")),
        wal_bytes(&dir_frame.join("kw")),
        "WAL segment bytes diverged between per-record appends and group commits"
    );

    drop(rows);
    drop(framed);
    let _ = std::fs::remove_dir_all(&dir_rows);
    let _ = std::fs::remove_dir_all(&dir_frame);
}
