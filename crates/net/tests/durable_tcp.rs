//! The durable TCP gate: a logged engine served over TCP loses nothing it
//! acknowledged. A client stream of recommends and records — sync and
//! pipelined, over several keys — runs against an [`Engine::open`]-ed
//! engine (`FsyncPerBatch`) behind a [`NetServer`]; the server and the
//! engine are then dropped without compacting, and the directory is
//! reopened. For every key the recovered engine must carry the same round
//! count, the same history bits and the same prediction bits as an
//! in-process twin built without a log and fed the same stream.
//!
//! Checkpoint bytes are not compared: the WAL does not log RNG positions,
//! so a recovered shard's exploration stream restarts from its seed.

use banditware_core::{ArmSpec, BanditConfig, Ticket};
use banditware_net::{NetClient, NetServer, Response, ServerConfig};
use banditware_serve::{Durability, Engine, EngineBuilder, WalOptions};
use std::path::PathBuf;
use std::sync::Arc;

const KEYS: [&str; 3] = ["tenant-a", "tenant-b", "tenant/c"];
const N_FEATURES: usize = 2;

fn builder() -> EngineBuilder {
    Engine::builder(ArmSpec::unit_costs(3), N_FEATURES)
        .config(BanditConfig::paper().with_epsilon0(0.2).with_seed(91))
        .stripes(4)
        .durability(Durability::FsyncPerBatch)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join("bw_net_tests").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn context(i: usize) -> Vec<f64> {
    vec![(i % 9) as f64 + 0.5, ((i * 3) % 7) as f64]
}

fn runtime(i: usize, arm: usize) -> f64 {
    20.0 + 4.0 * arm as f64 + (i % 5) as f64 * 0.75
}

/// The prediction bits of every arm at three fixed probes (the same probes
/// `serve/tests/wal_recovery.rs` compares).
fn probe_predictions(engine: &Engine, key: &str) -> Vec<u64> {
    let mut bits = Vec::new();
    for probe in [[1.0, 2.0], [5.5, 0.0], [8.0, 6.0]] {
        engine
            .with_shard(key, |shard| {
                for arm in 0..3 {
                    bits.push(shard.policy().predict(arm, &probe).unwrap().to_bits());
                }
            })
            .expect("shard exists");
    }
    bits
}

/// Every recorded observation of a key, as bits.
fn history_bits(engine: &Engine, key: &str) -> Vec<(usize, usize, bool, u64, Vec<u64>)> {
    engine
        .history(key)
        .expect("shard exists")
        .iter()
        .map(|o| {
            let features = o.features.iter().map(|f| f.to_bits()).collect();
            (o.round, o.arm, o.explored, o.runtime.to_bits(), features)
        })
        .collect()
}

/// A remote recommendation `(ticket, arm, explored, predicted runtime)`
/// must equal the twin's for the same request, bit for bit. Returns the
/// ticket and the arm.
fn check_recommend(
    remote: (u64, usize, bool, f64),
    twin: &Engine,
    key: &str,
    x: &[f64],
) -> (Ticket, usize) {
    let (ticket, rec) = twin.recommend(key, x).expect("twin recommend");
    assert_eq!(remote.0, ticket.id(), "{key}: ticket");
    assert_eq!(remote.1, rec.arm, "{key}: arm");
    assert_eq!(remote.2, rec.explored, "{key}: explored");
    assert_eq!(remote.3.to_bits(), rec.predicted_runtime.to_bits(), "{key}: prediction");
    (ticket, rec.arm)
}

#[test]
fn durable_tcp_stream_survives_a_reopen_bitwise() {
    let dir = tmp_dir("durable-tcp");
    let (engine, report) = Engine::open(builder(), WalOptions::new(&dir)).expect("open");
    assert!(report.keys.is_empty());
    let engine = Arc::new(engine);
    let twin = builder().build().expect("twin");
    let mut server =
        NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut recorded = 0;
    let mut i = 0;
    for step in 0..40 {
        if step % 3 == 0 {
            // Sync: one recommend and its record, round trip by round trip.
            let key = KEYS[step % KEYS.len()];
            let x = context(i);
            let r = client.recommend(key, &x).expect("recommend");
            let remote = (r.ticket, r.arm, r.explored, r.predicted_runtime);
            let (ticket, arm) = check_recommend(remote, &twin, key, &x);
            client.record(key, ticket.id(), runtime(i, arm)).expect("record");
            twin.record(key, ticket, runtime(i, arm)).expect("twin record");
            recorded += 1;
            i += 1;
        } else {
            // Pipelined: a burst of recommends across the keys (the server
            // coalesces each key's run into one frame call), then a burst
            // of their records (one WAL group commit per key group).
            let burst: Vec<(&str, Vec<f64>, u64)> = (0..7)
                .map(|j| {
                    let key = KEYS[(step + j / 2) % KEYS.len()];
                    let x = context(i + j);
                    let id = client.send_recommend(key, &x);
                    (key, x, id)
                })
                .collect();
            client.flush().expect("flush");
            let mut issued = Vec::new();
            for (j, (key, x, id)) in burst.into_iter().enumerate() {
                let remote = match client.wait(id).expect("burst recommend") {
                    Response::Recommend { ticket, arm, explored, predicted_runtime, .. } => {
                        (ticket, arm as usize, explored, predicted_runtime)
                    }
                    other => panic!("expected a recommendation, got {other:?}"),
                };
                let (ticket, arm) = check_recommend(remote, &twin, key, &x);
                issued.push((key, ticket, runtime(i + j, arm)));
            }
            let ids: Vec<u64> =
                issued.iter().map(|&(key, t, y)| client.send_record(key, t.id(), y)).collect();
            client.flush().expect("flush");
            for (id, &(key, ticket, y)) in ids.into_iter().zip(&issued) {
                assert!(matches!(client.wait(id).expect("burst record"), Response::RecordOk));
                twin.record(key, ticket, y).expect("twin record");
            }
            recorded += issued.len();
            i += issued.len();
        }
    }
    assert_eq!(engine.stats().in_flight, 0, "every ticket was recorded");

    // Crash: drop the server and the engine, no compaction.
    drop(client);
    server.shutdown();
    drop(server);
    assert_eq!(Arc::strong_count(&engine), 1, "the server released the engine");
    drop(engine);

    let (revived, report) = Engine::open(builder(), WalOptions::new(&dir)).expect("reopen");
    let mut keys: Vec<String> = KEYS.iter().map(|k| k.to_string()).collect();
    keys.sort();
    assert_eq!(report.keys, keys);
    assert_eq!(report.snapshots_loaded, 0);
    assert_eq!(report.replayed, recorded);
    assert!(!report.torn_tail);
    for key in KEYS {
        let rounds = revived.with_shard(key, |s| s.rounds()).expect("recovered shard");
        assert_eq!(Some(rounds), twin.with_shard(key, |s| s.rounds()), "{key}: rounds");
        assert_eq!(history_bits(&revived, key), history_bits(&twin, key), "{key}: history");
        assert_eq!(
            probe_predictions(&revived, key),
            probe_predictions(&twin, key),
            "{key}: predictions"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
