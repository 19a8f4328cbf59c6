//! Kill a serving engine mid-flight and restore it — twice.
//!
//! Phase 1 serves three tenants through an `Engine::open`-ed engine
//! (every recorded runtime is appended to a per-tenant WAL segment) and
//! then "crashes": the engine is dropped with rounds still in flight and
//! no shutdown hook. Phase 2 reopens the directory — pure WAL replay — verifies the
//! models survived bit-for-bit, shows that tickets never covered by a
//! snapshot are rejected loudly (the caller resubmits), leaves fresh jobs
//! in flight, and compacts everything into `banditware-history v3`
//! statistics snapshots — which *do* capture the open-ticket table. Phase
//! 3 crashes again and reopens from the snapshots: recovery now reads
//! O(m²) of state plus a tiny tail no matter how long the tenants had
//! been running, and the jobs held across the second crash record against
//! their original tickets.
//!
//! ```text
//! cargo run --release --example crash_recovery
//! ```

use banditware::prelude::*;
use banditware::serve::Engine;
use std::time::Instant;

const TENANTS: [&str; 3] = ["genomics", "wildfire", "llm-batch"];

fn builder() -> banditware::serve::EngineBuilder {
    let specs = specs_from_hardware(&synthetic_hardware());
    Engine::builder(specs, 1)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_epsilon0(0.3).with_seed(2025))
        .retention(Retention::Tail(32)) // bounded per-tenant memory
}

/// A tenant's synthetic runtime: each prefers different hardware.
fn runtime(tenant_idx: usize, arm: usize, x: f64) -> f64 {
    10.0 + x * ((arm + tenant_idx) % 4 + 1) as f64 * 0.2
}

fn model_bits(engine: &Engine, key: &str) -> Vec<u64> {
    engine
        .with_shard(key, |shard| {
            (0..shard.specs().len())
                .map(|arm| shard.policy().predict(arm, &[250.0]).unwrap().to_bits())
                .collect()
        })
        .expect("shard exists")
}

fn main() {
    let dir = std::env::temp_dir().join("banditware-crash-recovery-example");
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions::new(&dir).segment_max_bytes(16 * 1024);

    // ---- Phase 1: serve, then die without warning. ----
    let (engine, _) = Engine::open(builder(), options.clone()).expect("open");
    let mut survivors = Vec::new();
    for (ti, key) in TENANTS.iter().enumerate() {
        for i in 0..400 {
            let x = 100.0 + (i * 13 % 400) as f64;
            let (ticket, rec) = engine.recommend(key, &[x]).expect("recommend");
            engine.record(key, ticket, runtime(ti, rec.arm, x)).expect("record");
        }
        // One job per tenant is still on the cluster when we die.
        let (ticket, rec) = engine.recommend(key, &[333.0]).expect("recommend");
        survivors.push((*key, ticket, rec.arm));
    }
    let fingerprints: Vec<Vec<u64>> = TENANTS.iter().map(|k| model_bits(&engine, k)).collect();
    println!(
        "phase 1: served {} rounds across {} tenants, crashing now (3 jobs in flight)",
        3 * 400,
        TENANTS.len()
    );
    drop(engine); // the crash

    // ---- Phase 2: recover from the raw WAL, finish the surviving jobs,
    // compact. ----
    let start = Instant::now();
    let (engine, report) = Engine::open(builder(), options.clone()).expect("reopen");
    let wal_recovery = start.elapsed();
    println!(
        "phase 2: recovered {} tenants from the WAL in {:.2?} ({} records replayed)",
        report.keys.len(),
        wal_recovery,
        report.replayed
    );
    for (ti, key) in TENANTS.iter().enumerate() {
        assert_eq!(model_bits(&engine, key), fingerprints[ti], "{key}: model drifted");
    }
    println!("         model fingerprints identical to the moment of the crash");
    // The phase-1 in-flight jobs were never snapshotted: their runtime
    // reports are rejected loudly (never misattributed) and the work is
    // resubmitted as fresh rounds.
    for &(key, ticket, arm) in &survivors {
        let ti = TENANTS.iter().position(|k| *k == key).unwrap();
        assert!(engine
            .record(key, ticket, runtime(ti, arm, 333.0))
            .unwrap_err()
            .is_unknown_ticket());
        let (fresh, rec) = engine.recommend(key, &[333.0]).expect("resubmit");
        engine.record(key, fresh, runtime(ti, rec.arm, 333.0)).expect("record resubmission");
    }
    println!("         3 pre-crash tickets rejected loudly; jobs resubmitted and recorded");
    // Open fresh rounds, then compact: a v3 snapshot carries the
    // open-ticket table, so THESE survive the next crash.
    let mut held = Vec::new();
    for (ti, key) in TENANTS.iter().enumerate() {
        let (ticket, rec) = engine.recommend(key, &[275.0]).expect("recommend");
        held.push((*key, ticket, runtime(ti, rec.arm, 275.0)));
    }
    let compacted = engine.compact_all().expect("compact");
    println!(
        "         compacted {} tenants into v3 statistics snapshots (3 jobs in flight, \
         captured by the snapshots)",
        compacted.len()
    );
    let fingerprints: Vec<Vec<u64>> = TENANTS.iter().map(|k| model_bits(&engine, k)).collect();
    drop(engine); // crash again

    // ---- Phase 3: recovery is now snapshot-shaped — state, not history. ----
    let start = Instant::now();
    let (engine, report) = Engine::open(builder(), options).expect("reopen");
    let snap_recovery = start.elapsed();
    println!(
        "phase 3: recovered from snapshots in {:.2?} ({} snapshots, {} WAL records left to replay)",
        snap_recovery, report.snapshots_loaded, report.replayed
    );
    for (ti, key) in TENANTS.iter().enumerate() {
        assert_eq!(model_bits(&engine, key), fingerprints[ti], "{key}: model drifted");
    }
    // The jobs held across the crash finished on the cluster meanwhile;
    // their tickets came back out of the snapshots and record normally.
    for (key, ticket, rt) in held {
        engine.record(key, ticket, rt).expect("snapshotted ticket records after crash");
    }
    println!("         3 jobs held across the crash recorded against their original tickets");
    let stats = engine.stats();
    println!(
        "         {} tenants, {} recorded rounds, {} in flight — serving continues",
        stats.keys, stats.recorded_rounds, stats.in_flight
    );
    let _ = std::fs::remove_dir_all(&dir);
}
