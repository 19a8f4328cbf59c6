//! The PR-4 acceptance pin: restoring a `banditware-history v3` statistics
//! snapshot yields a **bitwise-identical recommendation stream** to full-log
//! replay — for all 8 named policies, with interleaved open tickets — and a
//! live recommender (RNG stream position included) round-trips exactly.

use banditware_core::persist::{
    load_checkpoint, load_snapshot, restore_checkpoint, restore_snapshot, save_checkpoint,
    save_history, Checkpoint,
};
use banditware_core::{ArmSpec, BanditConfig, BanditWare, FeatureFrame, Policy, Retention, Ticket};
use banditware_serve::{build_policy, policy_names, Engine};
use proptest::prelude::*;

const N_ARMS: usize = 3;
const N_FEATURES: usize = 2;

fn fresh_bandit(policy_name: &str, seed: u64) -> BanditWare<Box<dyn Policy>> {
    let specs = ArmSpec::unit_costs(N_ARMS);
    let config = BanditConfig::paper().with_seed(seed);
    let policy = build_policy(policy_name, specs.clone(), N_FEATURES, &config).unwrap();
    BanditWare::new(policy, specs)
}

/// A deterministic context stream (no RNG — the policies own theirs).
fn context(i: usize) -> Vec<f64> {
    vec![(i % 11) as f64 * 3.5 + 0.5, ((i * 7) % 5) as f64 - 2.0]
}

fn runtime_for(arm: usize, x: &[f64]) -> f64 {
    5.0 + x[0] * (arm + 1) as f64 + x[1].abs()
}

/// Drive a recommender through `rounds` live rounds, leaving every
/// `hold_every`-th ticket open (interleaved in-flight rounds).
fn drive_live(bandit: &mut BanditWare<Box<dyn Policy>>, rounds: usize, hold_every: usize) {
    let mut held: Vec<Ticket> = Vec::new();
    for i in 0..rounds {
        let x = context(i);
        let (ticket, rec) = bandit.recommend_ticketed(&x).unwrap();
        if hold_every > 0 && i % hold_every == hold_every - 1 {
            held.push(ticket);
            // Record every second held ticket late and out of order.
            if held.len() == 2 {
                let late = held.remove(0);
                let round = bandit.in_flight_round(late).unwrap().clone();
                bandit.record_ticket(late, runtime_for(round.arm, &round.features)).unwrap();
            }
        } else {
            bandit.record_ticket(ticket, runtime_for(rec.arm, &x)).unwrap();
        }
    }
}

/// Two recommenders must emit identical streams when driven identically.
fn assert_streams_identical(
    a: &mut BanditWare<Box<dyn Policy>>,
    b: &mut BanditWare<Box<dyn Policy>>,
    rounds: usize,
) {
    for i in 0..rounds {
        let x = context(1000 + i);
        let (ta, ra) = a.recommend_ticketed(&x).unwrap();
        let (tb, rb) = b.recommend_ticketed(&x).unwrap();
        assert_eq!(ra.arm, rb.arm, "round {i}: arms diverged");
        assert_eq!(ra.explored, rb.explored, "round {i}: exploration flags diverged");
        assert_eq!(
            ra.predicted_runtime.to_bits(),
            rb.predicted_runtime.to_bits(),
            "round {i}: predictions diverged ({} vs {})",
            ra.predicted_runtime,
            rb.predicted_runtime
        );
        let rt = runtime_for(ra.arm, &x);
        a.record_ticket(ta, rt).unwrap();
        b.record_ticket(tb, rt).unwrap();
    }
}

/// Every policy: a LIVE recommender (mid-stream RNG, open tickets) saved as
/// v3 restores to a twin that continues bit-for-bit — the property v2
/// replay deliberately does not have.
#[test]
fn live_v3_roundtrip_continues_bitwise_for_all_policies() {
    for name in policy_names() {
        let mut live = fresh_bandit(name, 42);
        drive_live(&mut live, 50, 7);
        let open_before = live.open_tickets();
        assert!(!open_before.is_empty(), "{name}: harness should leave tickets open");

        let mut buf = Vec::new();
        save_checkpoint(&live, &mut buf).unwrap();
        let checkpoint = load_checkpoint(buf.as_slice()).unwrap();
        let mut restored = fresh_bandit(name, 42);
        restore_checkpoint(&mut restored, &checkpoint).unwrap();

        assert_eq!(restored.rounds(), live.rounds(), "{name}");
        assert_eq!(restored.open_tickets(), open_before, "{name}");
        // Held tickets still record correctly after restore, on both sides.
        for &t in &open_before {
            let round = live.in_flight_round(t).unwrap().clone();
            let rt = runtime_for(round.arm, &round.features);
            live.record_ticket(t, rt).unwrap();
            restored.record_ticket(t, rt).unwrap();
        }
        assert_streams_identical(&mut live, &mut restored, 60);
    }
}

/// Every policy: v3 snapshot-restore ≡ full-log replay, bitwise. The
/// source state is built by replay (the warm-start lifecycle, fresh RNG),
/// so both restore routes are defined to agree exactly.
#[test]
fn v3_restore_equals_full_replay_for_all_policies() {
    for name in policy_names() {
        // Source: a replay-built recommender (CLI train lifecycle).
        let mut trainer = fresh_bandit(name, 9);
        for i in 0..40 {
            let x = context(i);
            trainer.record_external(i % N_ARMS, &x, runtime_for(i % N_ARMS, &x)).unwrap();
        }
        let mut v2 = Vec::new();
        save_history(&trainer, &mut v2).unwrap();

        // Route A: replay the full log.
        let mut replayed = fresh_bandit(name, 9);
        restore_snapshot(&mut replayed, &load_snapshot(v2.as_slice()).unwrap()).unwrap();
        // Route B: v3 snapshot of the replayed state, restored fresh.
        let mut v3 = Vec::new();
        save_checkpoint(&replayed, &mut v3).unwrap();
        let mut stats = fresh_bandit(name, 9);
        restore_checkpoint(&mut stats, &load_checkpoint(v3.as_slice()).unwrap()).unwrap();

        assert_streams_identical(&mut replayed, &mut stats, 60);
    }
}

/// Compacted snapshots stay exact when the recommender only retains a
/// bounded tail: dropping history must not change the model or the stream.
#[test]
fn bounded_tail_snapshot_is_still_exact() {
    for name in policy_names() {
        let mut live = fresh_bandit(name, 5);
        live.set_retention(Retention::Tail(6));
        drive_live(&mut live, 80, 0);
        assert_eq!(live.rounds(), 80, "{name}");
        assert!(live.history().len() <= 6, "{name}");

        let mut buf = Vec::new();
        save_checkpoint(&live, &mut buf).unwrap();
        let Checkpoint::Stats(state) = load_checkpoint(buf.as_slice()).unwrap() else {
            panic!("{name}: v3 must parse as Stats");
        };
        assert!(state.tail.len() <= 6, "{name}: snapshot tail bounded");
        assert_eq!(state.total_rounds, 80, "{name}");

        let mut restored = fresh_bandit(name, 5);
        restore_checkpoint(&mut restored, &Checkpoint::Stats(state)).unwrap();
        assert_eq!(restored.rounds(), 80, "{name}");
        assert_streams_identical(&mut live, &mut restored, 40);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized schedules: any interleaving of recommendations, held
    /// tickets, and records round-trips through v3 bitwise, for a random
    /// policy, seed, and history length.
    #[test]
    fn v3_roundtrip_survives_random_schedules(
        policy_idx in 0usize..9,
        seed in any::<u64>(),
        rounds in 1usize..60,
        hold_every in 0usize..5,
        tail_knob in 0usize..11,
    ) {
        let name = policy_names()[policy_idx];
        let mut live = fresh_bandit(name, seed);
        // 0 = keep Retention::Full; n > 0 = Tail(n - 1).
        if tail_knob > 0 {
            live.set_retention(Retention::Tail(tail_knob - 1));
        }
        drive_live(&mut live, rounds, hold_every);

        let mut buf = Vec::new();
        save_checkpoint(&live, &mut buf).unwrap();
        let checkpoint = load_checkpoint(buf.as_slice()).unwrap();
        let mut restored = fresh_bandit(name, seed);
        restore_checkpoint(&mut restored, &checkpoint).unwrap();

        prop_assert_eq!(restored.rounds(), live.rounds());
        prop_assert_eq!(restored.open_tickets(), live.open_tickets());
        prop_assert_eq!(restored.next_ticket_id(), live.next_ticket_id());

        // Continue both with fresh rounds; streams must agree bitwise.
        for i in 0..30 {
            let x = context(5000 + i);
            let (ta, ra) = live.recommend_ticketed(&x).unwrap();
            let (tb, rb) = restored.recommend_ticketed(&x).unwrap();
            prop_assert_eq!(ra.arm, rb.arm, "round {}", i);
            prop_assert_eq!(ra.explored, rb.explored, "round {}", i);
            prop_assert_eq!(ra.predicted_runtime.to_bits(), rb.predicted_runtime.to_bits());
            let rt = runtime_for(ra.arm, &x);
            live.record_ticket(ta, rt).unwrap();
            restored.record_ticket(tb, rt).unwrap();
        }
    }
}

/// Backward compatibility: the literal v1 and v2 fixture files written by
/// earlier releases still load through `load_checkpoint` and restore by
/// replay.
#[test]
fn v1_and_v2_fixtures_still_restore() {
    let v1 = "banditware-history v1\narm,explored,runtime,features...\n\
              0,1,153.2,100,2\n2,0,98.7,350,4\n";
    let v2 = "banditware-history v2\narm,explored,runtime,features...\n\
              0,1,153.2,100,2\n2,0,98.7,350,4\nopen,5,1,0,420,1\nnext,6\n";
    for (text, open_expected) in [(v1, 0), (v2, 1)] {
        let checkpoint = load_checkpoint(text.as_bytes()).unwrap();
        assert!(matches!(checkpoint, Checkpoint::Replay(_)));
        assert_eq!(checkpoint.total_rounds(), 2);
        assert_eq!(checkpoint.open_rounds().len(), open_expected);
        let mut bandit = fresh_bandit("epsilon-greedy", 1);
        restore_checkpoint(&mut bandit, &checkpoint).unwrap();
        assert_eq!(bandit.rounds(), 2);
        assert_eq!(bandit.in_flight(), open_expected);
        if open_expected == 1 {
            // The surviving reporter can still record its ticket.
            bandit.record_ticket(Ticket::from_id(5), 77.0).unwrap();
            assert_eq!(bandit.rounds(), 3);
            // Consumed ids are never reissued.
            let (t, _) = bandit.recommend_ticketed(&[1.0, 1.0]).unwrap();
            assert_eq!(t.id(), 6);
        }
    }
}

/// FNV-1a (64-bit) of a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Serve a fixed-seed ε-greedy stream of `steps` bursts per key through an
/// `Engine` over `m` features and `arms` arms, and digest each key's v3
/// checkpoint bytes.
fn served_checkpoint_digests(m: usize, arms: usize, steps: usize) -> Vec<u64> {
    let specs = (0..arms).map(|a| ArmSpec::new(a, format!("arm-{a}"), (1 << a) as f64)).collect();
    let engine = Engine::builder(specs, m)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_epsilon0(0.5).with_seed(23))
        .retention(Retention::Tail(16))
        .build()
        .unwrap();
    let keys = ["tenant-a", "tenant-b", "tenant-c"];
    // Burst sizes cover the one-row path, the 4-row panels and their
    // remainders.
    let bursts = [1, 2, 5, 3, 8, 4, 1, 9];
    for step in 0..steps {
        for (k, key) in keys.iter().enumerate() {
            let rows = bursts[(step + k) % bursts.len()];
            let xs: Vec<Vec<f64>> = (0..rows)
                .map(|r| {
                    let s = (step * 31 + k * 7 + r) as u64;
                    (0..m)
                        .map(|j| ((s * 2_654_435_761 + j as u64 * 97) % 1000) as f64 / 100.0 + 1.0)
                        .collect()
                })
                .collect();
            let frame = FeatureFrame::from_rows(&xs).unwrap();
            let recs = engine.recommend_batch_frame(key, &frame).unwrap();
            let outcomes: Vec<(Ticket, f64)> = recs
                .iter()
                .zip(&xs)
                .map(|((t, rec), x)| {
                    (*t, 20.0 + 3.0 * rec.arm as f64 * x[0] + x.iter().sum::<f64>() * 0.5)
                })
                .collect();
            engine.record_batch_frame(key, &outcomes).unwrap();
        }
    }
    keys.iter()
        .map(|key| {
            let mut bytes = Vec::new();
            engine.save_shard_checkpoint(key, &mut bytes).unwrap();
            fnv1a64(&bytes)
        })
        .collect()
}

/// The exported checkpoint bytes of served ε-greedy shards, at the paper's
/// width (m=7, three arms) and the wide shape (m=64, four arms), match
/// digests recorded with the full-matrix arm layout. The packed layout
/// must export exactly what that one did: the mirrored `ZᵀZ`, and `Lᵀ`
/// with a unit diagonal and zeros below it.
#[test]
fn served_checkpoint_bytes_match_the_full_layout() {
    let got = served_checkpoint_digests(7, 3, 40);
    assert_eq!(
        got,
        [0x9ea9_9958_323c_7f90, 0xaa30_7abc_526c_ad9a, 0x17b2_bd08_9f5a_fb91],
        "m=7 checkpoint digests"
    );
    let got = served_checkpoint_digests(64, 4, 60);
    assert_eq!(
        got,
        [0xa081_ee01_f4d7_e75b, 0x432f_3aec_67d7_7fd1, 0xa47a_be4b_9909_f438],
        "m=64 checkpoint digests"
    );
}
