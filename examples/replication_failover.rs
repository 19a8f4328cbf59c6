//! Kill a primary mid-stream, promote its follower, and prove the
//! promoted engine is exactly the engine you would have had anyway.
//!
//! A primary engine opened with a WAL (`Engine::open`) serves two tenants
//! while a `Replicator` ships its durable state — a compacted
//! `snapshot.v3` plus sealed, checksummed WAL segments — into a follower
//! directory. The primary then dies without
//! warning, mid-stream: everything after the last ship is lost with it.
//! The `FollowerEngine` catches up from the replica, reports its per-key
//! applied-sequence **watermarks**, and promotes into a logged `Engine`
//! through the standard recovery path.
//!
//! The acceptance gate: drive the promoted engine and a **never-crashed
//! twin** (a same-seed engine fed exactly the watermark prefix of the same
//! stream) through an identical post-failover request stream — the two
//! recommendation streams must match **bitwise** (arm, exploration flag,
//! and predicted-runtime bits). The policy is LinUCB, whose selection is
//! deterministic, so the fingerprint is meaningful round by round; for
//! stochastic policies the same guarantee holds from each compaction
//! (snapshots carry RNG stream positions), while segment replay
//! deliberately does not re-consume selection randomness.
//!
//! ```text
//! cargo run --release --example replication_failover
//! ```

use banditware::prelude::*;
use banditware::serve::EngineBuilder;

const TENANTS: [&str; 2] = ["genomics", "wildfire"];
const SHIP_1: usize = 250; // compact + ship
const SHIP_2: usize = 450; // ship with seal_active — the failover point
const CRASH: usize = 600; // rounds recorded when the primary dies

fn builder() -> EngineBuilder {
    let specs = specs_from_hardware(&synthetic_hardware());
    Engine::builder(specs, 1)
        .policy("linucb")
        .config(BanditConfig::paper().with_seed(2025))
        .durability(Durability::FsyncPerRotation)
}

fn context(tenant_idx: usize, i: usize) -> Vec<f64> {
    vec![100.0 + ((i * 13 + tenant_idx * 7) % 400) as f64]
}

/// Each tenant prefers different hardware; deterministic, so the twin fed
/// the same prefix observes the same runtimes.
fn runtime(tenant_idx: usize, arm: usize, x: f64) -> f64 {
    10.0 + x * ((arm + tenant_idx) % 4 + 1) as f64 * 0.2
}

/// Drive both engines through the same fresh request stream and return the
/// two bitwise recommendation fingerprints (FNV-1a over arm / explored /
/// predicted-runtime bits).
fn race(promoted: &Engine, twin: &Engine, rounds: usize) -> (u64, u64) {
    let fnv = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let (mut fp_promoted, mut fp_twin) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
    for (ti, key) in TENANTS.iter().enumerate() {
        for i in 0..rounds {
            let x = context(ti, 10_000 + i);
            let (tp, rp) = promoted.recommend(key, &x).expect("promoted recommend");
            let (tt, rt) = twin.recommend(key, &x).expect("twin recommend");
            fp_promoted = fnv(
                fnv(fnv(fp_promoted, rp.arm as u64), u64::from(rp.explored)),
                rp.predicted_runtime.to_bits(),
            );
            fp_twin = fnv(
                fnv(fnv(fp_twin, rt.arm as u64), u64::from(rt.explored)),
                rt.predicted_runtime.to_bits(),
            );
            let observed = runtime(ti, rp.arm, x[0]);
            promoted.record(key, tp, observed).expect("promoted record");
            twin.record(key, tt, runtime(ti, rt.arm, x[0])).expect("twin record");
            assert_eq!(observed, runtime(ti, rt.arm, x[0]), "twin diverged mid-race");
        }
    }
    (fp_promoted, fp_twin)
}

fn main() {
    let primary_dir = std::env::temp_dir().join("banditware-failover-primary");
    let replica_dir = std::env::temp_dir().join("banditware-failover-replica");
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    let options = WalOptions::new(&primary_dir).segment_max_bytes(8 * 1024);

    // ---- The primary serves; the replicator ships twice; then it dies. ----
    let (primary, _) = Engine::open(builder(), options).expect("open primary");
    let replicator = Replicator::new(FsTransport::new(&replica_dir));
    for i in 0..CRASH {
        for (ti, key) in TENANTS.iter().enumerate() {
            let x = context(ti, i);
            let (ticket, rec) = primary.recommend(key, &x).expect("recommend");
            primary.record(key, ticket, runtime(ti, rec.arm, x[0])).expect("record");
        }
        if i + 1 == SHIP_1 {
            primary.compact_all().expect("compact");
            let report = replicator.ship_all(&primary, false).expect("ship 1");
            println!(
                "ship @{SHIP_1}: {} snapshot(s) + {} segment(s), {} bytes",
                report.snapshots_shipped, report.segments_shipped, report.bytes_shipped
            );
        }
        if i + 1 == SHIP_2 {
            let report = replicator.ship_all(&primary, true).expect("ship 2");
            println!(
                "ship @{SHIP_2}: {} segment(s) (active sealed), {} bytes",
                report.segments_shipped, report.bytes_shipped
            );
        }
    }
    println!(
        "primary crashes at {CRASH} rounds/tenant — {} unshipped rounds die with it",
        CRASH - SHIP_2
    );
    drop(primary); // the crash: no shutdown hook, no final ship

    // ---- The follower catches up and fails over. ----
    let (follower, catch_up) =
        FollowerEngine::open(builder(), WalOptions::new(&replica_dir)).expect("open follower");
    assert!(catch_up.quarantined.is_empty(), "clean replica: {:?}", catch_up.quarantined);
    for key in TENANTS {
        assert_eq!(follower.watermark(key), Some(SHIP_2), "{key}: watermark = last sealed ship");
        // Read-only serving from replicated state: no ticket, no RNG.
        let rec = follower.recommend(key, &[250.0]).expect("follower recommend").unwrap();
        assert!(!rec.explored);
    }
    println!(
        "follower caught up: {} snapshot(s) applied, {} record(s) replayed, watermarks {:?}",
        catch_up.snapshots_applied, catch_up.replayed, catch_up.watermarks
    );
    let (promoted, recovery) = follower.promote().expect("promote");
    for (key, watermark) in &recovery.watermarks {
        assert_eq!(*watermark, SHIP_2, "{key}: promoted at the replicated watermark");
    }
    println!("promoted follower at watermarks {:?}", recovery.watermarks);

    // ---- The never-crashed twin: the same engine fed exactly the
    // replicated prefix of the same stream. ----
    let twin = builder().build().expect("twin");
    for i in 0..SHIP_2 {
        for (ti, key) in TENANTS.iter().enumerate() {
            let x = context(ti, i);
            let (ticket, rec) = twin.recommend(key, &x).expect("twin recommend");
            twin.record(key, ticket, runtime(ti, rec.arm, x[0])).expect("twin record");
        }
    }

    // ---- The gate: identical post-failover recommendation streams. ----
    let (fp_promoted, fp_twin) = race(&promoted, &twin, 120);
    assert_eq!(
        fp_promoted, fp_twin,
        "promoted follower and never-crashed twin diverged post-failover"
    );
    println!(
        "post-promotion fingerprint over {} rounds: {fp_promoted:016x} == twin {fp_twin:016x}",
        120 * TENANTS.len()
    );
    let stats = promoted.stats();
    println!(
        "promoted engine serving on: {} tenants, {} recorded rounds — failover lost only the \
         {} unshipped rounds per tenant",
        stats.keys,
        stats.recorded_rounds,
        CRASH - SHIP_2
    );
    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
}
