//! Follower correctness: whatever the interleaving of record / compact /
//! rotate / ship cycles, a promoted follower's recommendation stream is
//! **bitwise-identical** to a never-crashed primary driven through exactly
//! the replicated (watermark) prefix of the same request stream — and a
//! corrupted shipped file is quarantined and reported, never applied.
//!
//! The bitwise gate uses deterministic-selection policies (LinUCB, UCB1,
//! and ε-greedy with ε₀ = 0): segment replay deliberately does not
//! re-consume selection randomness, so round-by-round stream equality is
//! the right property exactly when selection is a pure function of the
//! model state. (Snapshots carry RNG positions, so stochastic policies get
//! the same guarantee from each compaction — pinned in
//! `snapshot_roundtrip.rs`.)

use banditware_core::{ArmSpec, BanditConfig, Ticket};
use banditware_serve::{
    DurableEngine, Engine, EngineBuilder, FollowerEngine, FsTransport, Replicator, ServeResult,
    WalOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const KEYS: [&str; 2] = ["tenant-a", "tenant-b"];
const POLICIES: [&str; 3] = ["linucb", "ucb1", "epsilon-greedy"];

fn builder(policy: &str, seed: u64) -> EngineBuilder {
    // ε₀ = 0 keeps ε-greedy's selection deterministic (see module docs);
    // LinUCB and UCB1 consume no randomness at all.
    Engine::builder(ArmSpec::unit_costs(3), 1)
        .policy(policy)
        .config(BanditConfig::paper().with_epsilon0(0.0).with_seed(seed))
}

fn tmp_dir(name: &str, tag: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("bw_replication_tests")
        .join(format!("{name}-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn context(key_idx: usize, i: usize) -> Vec<f64> {
    vec![((i * 13 + key_idx * 5) % 37) as f64 + 0.5]
}

fn runtime(key_idx: usize, arm: usize, x: &[f64]) -> f64 {
    5.0 + x[0] * ((arm + key_idx) % 3 + 1) as f64 * 0.4
}

/// Drive a primary through `rounds` rounds per key with compactions and
/// ships interleaved on the given cadences.
fn drive_primary(
    primary: &DurableEngine,
    replicator: &Replicator,
    rounds: usize,
    ship_every: usize,
    compact_every: usize,
    seal: bool,
) -> ServeResult<()> {
    for i in 0..rounds {
        for (ki, key) in KEYS.iter().enumerate() {
            let x = context(ki, i);
            let (ticket, rec) = primary.recommend(key, &x)?;
            primary.record(key, ticket, runtime(ki, rec.arm, &x))?;
        }
        if compact_every > 0 && (i + 1) % compact_every == 0 {
            primary.compact_all()?;
        }
        if (i + 1) % ship_every == 0 {
            replicator.ship_all(primary, seal)?;
        }
    }
    Ok(())
}

/// A never-crashed twin: the same engine fed exactly `watermark` rounds of
/// the same per-key stream.
fn twin_at_watermarks(policy: &str, seed: u64, watermarks: &[(String, usize)]) -> Engine {
    let twin = builder(policy, seed).build().unwrap();
    for (key, watermark) in watermarks {
        let ki = KEYS.iter().position(|k| k == key).unwrap();
        for i in 0..*watermark {
            let x = context(ki, i);
            let (ticket, rec) = twin.recommend(key, &x).unwrap();
            twin.record(key, ticket, runtime(ki, rec.arm, &x)).unwrap();
        }
    }
    twin
}

/// Drive both engines through the same fresh stream; every recommendation
/// must match bitwise (arm, exploration flag, predicted-runtime bits).
fn assert_streams_bitwise_identical(promoted: &DurableEngine, twin: &Engine, rounds: usize) {
    for i in 0..rounds {
        for (ki, key) in KEYS.iter().enumerate() {
            let x = context(ki, 9000 + i);
            let (tp, rp) = promoted.recommend(key, &x).unwrap();
            let (tt, rt) = twin.recommend(key, &x).unwrap();
            assert_eq!(rp.arm, rt.arm, "{key} round {i}: arms diverged");
            assert_eq!(rp.explored, rt.explored, "{key} round {i}: exploration diverged");
            assert_eq!(
                rp.predicted_runtime.to_bits(),
                rt.predicted_runtime.to_bits(),
                "{key} round {i}: predictions diverged ({} vs {})",
                rp.predicted_runtime,
                rt.predicted_runtime
            );
            let observed = runtime(ki, rp.arm, &x);
            promoted.record(key, tp, observed).unwrap();
            twin.record(key, tt, observed).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tentpole property: record/compact/rotate/ship in any
    /// interleaving, crash, promote — the promoted follower's stream is
    /// bitwise the uncrashed watermark twin's.
    #[test]
    fn promoted_follower_matches_uncrashed_twin(
        policy_idx in 0usize..3,
        seed in any::<u64>(),
        rounds in 4usize..60,
        ship_every in 1usize..16,
        compact_every in 0usize..8,
        seal in any::<bool>(),
        segment_bytes in 128u64..2048,
    ) {
        let policy = POLICIES[policy_idx];
        let tag = seed ^ (rounds as u64) << 32;
        let primary_dir = tmp_dir("prop-primary", tag);
        let replica_dir = tmp_dir("prop-replica", tag);
        let options = WalOptions::new(&primary_dir).segment_max_bytes(segment_bytes);
        let (primary, _) = DurableEngine::open(builder(policy, seed), options).unwrap();
        let replicator = Replicator::new(FsTransport::new(&replica_dir));
        drive_primary(&primary, &replicator, rounds, ship_every, compact_every, seal).unwrap();
        let primary_rounds = primary.engine().stats().recorded_rounds;
        drop(primary); // the crash

        let (follower, catch_up) =
            FollowerEngine::open(builder(policy, seed), WalOptions::new(&replica_dir)).unwrap();
        prop_assert!(catch_up.quarantined.is_empty(), "{:?}", catch_up.quarantined);
        let watermarks = follower.watermarks();
        let replicated: usize = watermarks.iter().map(|(_, w)| w).sum();
        prop_assert!(replicated <= primary_rounds, "follower never runs ahead");
        let (promoted, recovery) = follower.promote().unwrap();
        prop_assert_eq!(&recovery.watermarks, &watermarks, "promotion keeps the watermarks");
        prop_assert!(!recovery.torn_tail, "shipped files are never torn");

        let twin = twin_at_watermarks(policy, seed, &watermarks);
        assert_streams_bitwise_identical(&promoted, &twin, 20);
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}

#[test]
fn byte_flip_in_a_shipped_segment_is_quarantined_never_applied() {
    let primary_dir = tmp_dir("flip-seg-primary", 1);
    let replica_dir = tmp_dir("flip-seg-replica", 1);
    let (primary, _) =
        DurableEngine::open(builder("linucb", 3), WalOptions::new(&primary_dir)).unwrap();
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    drive_primary(&primary, &replicator, 30, 30, 0, true).unwrap();

    // Flip one byte inside the shipped segment at the follower.
    let shipped = replica_dir.join("ktenant-a").join("wal-1.log");
    let mut bytes = std::fs::read(&shipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&shipped, &bytes).unwrap();

    let (follower, report) =
        FollowerEngine::open(builder("linucb", 3), WalOptions::new(&replica_dir)).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
    let (qpath, reason) = &report.quarantined[0];
    assert!(qpath.ends_with("wal-1.log.quarantined"), "{qpath}");
    assert!(reason.contains("crc"), "{reason}");
    assert!(!shipped.exists(), "damaged file moved out of the apply path");
    assert!(PathBuf::from(qpath).exists(), "damaged bytes preserved for forensics");
    // Nothing of the damaged tenant was applied; the clean tenant was.
    assert_eq!(follower.watermark("tenant-a"), None);
    assert_eq!(follower.watermark("tenant-b"), Some(30));

    // Promoting over the quarantined replica is refused at the library
    // level: recovery globs whatever segments exist, so it cannot see the
    // renamed file missing from the middle of the stream.
    let (stale, _) =
        FollowerEngine::open(builder("linucb", 3), WalOptions::new(&replica_dir)).unwrap();
    let err = stale.promote().unwrap_err();
    assert!(
        matches!(err, banditware_serve::ServeError::Manifest { .. }),
        "expected Manifest refusal, got {err:?}"
    );
    assert!(err.to_string().contains("re-replicate"), "{err}");

    // The next ship re-sends the missing segment; catch-up heals.
    let report = replicator.ship_all(&primary, false).unwrap();
    assert_eq!(report.segments_shipped, 1, "only the quarantined segment re-ships");
    let report = follower.catch_up().unwrap();
    assert!(report.quarantined.is_empty());
    assert_eq!(report.replayed, 30);
    assert_eq!(follower.watermark("tenant-a"), Some(30));
    // Healed: the forensic `.quarantined` copy may remain, but every
    // manifest-listed file is back and clean, so promotion proceeds.
    let (promoted, recovery) = follower.promote().unwrap();
    assert_eq!(
        recovery.watermarks,
        vec![("tenant-a".to_string(), 30), ("tenant-b".to_string(), 30)]
    );
    drop(promoted);
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn byte_flip_in_a_shipped_snapshot_is_quarantined_never_applied() {
    let primary_dir = tmp_dir("flip-snap-primary", 1);
    let replica_dir = tmp_dir("flip-snap-replica", 1);
    let (primary, _) =
        DurableEngine::open(builder("linucb", 5), WalOptions::new(&primary_dir)).unwrap();
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    drive_primary(&primary, &replicator, 20, 50, 0, false).unwrap(); // no ship yet
    primary.compact_all().unwrap();
    replicator.ship_all(&primary, false).unwrap();

    let shipped = replica_dir.join("ktenant-b").join("snapshot.v3");
    let mut bytes = std::fs::read(&shipped).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&shipped, &bytes).unwrap();

    let (follower, report) =
        FollowerEngine::open(builder("linucb", 5), WalOptions::new(&replica_dir)).unwrap();
    assert_eq!(report.quarantined.len(), 1, "{:?}", report.quarantined);
    assert!(report.quarantined[0].0.ends_with("snapshot.v3.quarantined"));
    assert_eq!(follower.watermark("tenant-b"), None, "damaged snapshot never applied");
    assert_eq!(follower.watermark("tenant-a"), Some(20), "clean tenant unaffected");

    // Re-ship re-installs the snapshot (the ship cache must not assume the
    // destination still holds what it delivered); catch-up heals.
    replicator.ship_all(&primary, false).unwrap();
    let report = follower.catch_up().unwrap();
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(follower.watermark("tenant-b"), Some(20));
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn open_tickets_survive_failover_through_shipped_snapshots() {
    let primary_dir = tmp_dir("tickets-primary", 1);
    let replica_dir = tmp_dir("tickets-replica", 1);
    let (primary, _) =
        DurableEngine::open(builder("linucb", 9), WalOptions::new(&primary_dir)).unwrap();
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    drive_primary(&primary, &replicator, 12, 50, 0, false).unwrap();
    // One job per tenant is on the cluster when the snapshot is taken.
    let mut held = Vec::new();
    for (ki, key) in KEYS.iter().enumerate() {
        let x = context(ki, 777);
        let (ticket, rec) = primary.recommend(key, &x).unwrap();
        held.push((*key, ticket, runtime(ki, rec.arm, &x), rec.arm, x));
    }
    primary.compact_all().unwrap(); // the snapshot carries the open tickets
    replicator.ship_all(&primary, false).unwrap();
    drop(primary); // crash with the jobs still running

    let (follower, _) =
        FollowerEngine::open(builder("linucb", 9), WalOptions::new(&replica_dir)).unwrap();
    let (promoted, _) = follower.promote().unwrap();
    // The jobs finish after failover and record against their original
    // tickets, attributed to the original arm and context.
    for (key, ticket, rt, arm, x) in held {
        promoted.record(key, ticket, rt).unwrap();
        let last =
            promoted.engine().with_shard(key, |s| s.history().last().unwrap().clone()).unwrap();
        assert_eq!(last.arm, arm, "{key}");
        assert_eq!(last.features, x, "{key}");
        assert_eq!(last.runtime, rt, "{key}");
    }
    // A ticket the snapshot never saw is still rejected loudly.
    assert!(promoted
        .record("tenant-a", Ticket::from_id(9999), 1.0)
        .unwrap_err()
        .is_unknown_ticket());
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn restart_never_extends_a_sealed_shipped_segment() {
    // After a seal-ship the cursor points past the sealed segment, but the
    // successor file is only created on the next append. A restart must
    // not resume appends into the sealed, manifest-advertised, already-
    // shipped segment — its bytes are the replication contract.
    let primary_dir = tmp_dir("restart-primary", 1);
    let replica_dir = tmp_dir("restart-replica", 1);
    let (primary, _) =
        DurableEngine::open(builder("linucb", 4), WalOptions::new(&primary_dir)).unwrap();
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    drive_primary(&primary, &replicator, 10, 100, 0, false).unwrap();
    replicator.ship_all(&primary, true).unwrap(); // seals + ships wal-1
    let sealed = primary_dir.join("ktenant-a").join("wal-1.log");
    let sealed_bytes = std::fs::read(&sealed).unwrap();
    drop(primary); // restart with no successor segment on disk

    let (primary, _) =
        DurableEngine::open(builder("linucb", 4), WalOptions::new(&primary_dir)).unwrap();
    drive_primary(&primary, &replicator, 3, 100, 0, false).unwrap();
    assert_eq!(
        std::fs::read(&sealed).unwrap(),
        sealed_bytes,
        "sealed+advertised segment must stay byte-identical across restarts"
    );
    assert!(
        primary_dir.join("ktenant-a").join("wal-2.log").exists(),
        "post-restart records go to a fresh segment"
    );

    // The follower therefore never sees a manifest/file disagreement.
    replicator.ship_all(&primary, true).unwrap();
    let (follower, report) =
        FollowerEngine::open(builder("linucb", 4), WalOptions::new(&replica_dir)).unwrap();
    assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
    assert_eq!(follower.watermark("tenant-a"), Some(13));
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

#[test]
fn catch_up_is_incremental_across_ship_cycles() {
    let primary_dir = tmp_dir("incr-primary", 1);
    let replica_dir = tmp_dir("incr-replica", 1);
    let options = WalOptions::new(&primary_dir).segment_max_bytes(512);
    let (primary, _) = DurableEngine::open(builder("ucb1", 2), options).unwrap();
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    let (follower, _) =
        FollowerEngine::open(builder("ucb1", 2), WalOptions::new(&replica_dir)).unwrap();

    let mut total_replayed = 0;
    for cycle in 0..4 {
        drive_primary(&primary, &replicator, 10, 100, 0, false).unwrap(); // records only
        replicator.ship_all(&primary, true).unwrap();
        let report = follower.catch_up().unwrap();
        assert_eq!(report.skipped, 0, "cycle {cycle}: incremental replay never re-applies");
        total_replayed += report.replayed;
        let rounds = 10 * (cycle + 1);
        assert_eq!(follower.watermark("tenant-a"), Some(rounds));
        // Idempotence: a catch-up with nothing new applies nothing.
        let idle = follower.catch_up().unwrap();
        assert_eq!((idle.replayed, idle.skipped), (0, 0), "cycle {cycle}");
    }
    assert_eq!(total_replayed, 2 * 40, "every record of both tenants applied exactly once");

    // A compaction mid-stream swaps segments for a snapshot; the follower
    // rebuilds from it without double-applying.
    primary.compact_all().unwrap();
    drive_primary(&primary, &replicator, 5, 100, 0, false).unwrap();
    replicator.ship_all(&primary, true).unwrap();
    let report = follower.catch_up().unwrap();
    assert_eq!(report.snapshots_applied, 2, "both tenants rebuilt from the snapshot");
    assert_eq!(report.replayed, 2 * 5, "only the post-snapshot tail replays");
    assert_eq!(follower.watermark("tenant-a"), Some(45));
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}

/// What a follower can lose is bounded by the rotation threshold: a ship
/// without `seal_active` leaves only the primary's active segment behind.
/// At every rotation size, 20 000 recorded rounds leave fewer than two
/// segments' worth of records unreplicated. The staleness is a count that
/// repeats exactly for these seeds (20, 3 and 291 rounds against bounds of
/// about 42, 169 and 679).
#[test]
fn no_seal_ship_leaves_under_two_segments_behind() {
    const M: usize = 8;
    const ROUNDS: usize = 20_000;
    let builder = || {
        Engine::builder(ArmSpec::unit_costs(4), M)
            .config(BanditConfig::paper().with_epsilon0(0.1).with_seed(5))
    };
    for rotate_bytes in [4 * 1024, 16 * 1024, 64 * 1024] {
        let primary_dir = tmp_dir("staleness-primary", rotate_bytes);
        let replica_dir = tmp_dir("staleness-replica", rotate_bytes);
        let options = WalOptions::new(&primary_dir).segment_max_bytes(rotate_bytes);
        let (primary, _) = DurableEngine::open(builder(), options).unwrap();
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..ROUNDS {
            let x: Vec<f64> = (0..M).map(|_| rng.gen_range(0.1..100.0)).collect();
            let (t, rec) = primary.recommend("tenant", &x).unwrap();
            primary.record("tenant", t, 10.0 + rec.arm as f64 + x[0] * 0.1).unwrap();
        }
        // Records vary in size (shortest round-trip floats), so the bound
        // takes the observed mean.
        let wal_bytes: u64 = std::fs::read_dir(primary_dir.join("ktenant"))
            .unwrap()
            .map(|e| e.unwrap())
            .filter(|e| e.file_name().to_string_lossy().starts_with("wal-"))
            .map(|e| e.metadata().unwrap().len())
            .sum();
        let records_per_segment = rotate_bytes as f64 / (wal_bytes as f64 / ROUNDS as f64);
        Replicator::new(FsTransport::new(&replica_dir)).ship_all(&primary, false).unwrap();

        let (follower, report) =
            FollowerEngine::open(builder(), WalOptions::new(&replica_dir)).unwrap();
        assert!(report.quarantined.is_empty(), "{:?}", report.quarantined);
        let staleness = ROUNDS - follower.watermark("tenant").unwrap_or(0);
        assert!(
            (staleness as f64) < 2.0 * records_per_segment,
            "rotation {rotate_bytes} B: {staleness} records behind, bound {:.0}",
            2.0 * records_per_segment
        );
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&replica_dir);
    }
}
