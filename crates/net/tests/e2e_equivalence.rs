//! End-to-end equivalence: driving the engine over TCP must produce a
//! recommendation stream **bitwise identical** to calling the same engine
//! in-process with the same seed and schedule — the wire adds framing, not
//! semantics. Exercised with and without an accumulation window, through
//! the sync path and the pipelined path.

use banditware_core::{ArmSpec, BanditConfig};
use banditware_net::{ErrorCode, NetClient, NetError, NetServer, Response, ServerConfig};
use banditware_serve::{Engine, EngineBuilder};
use std::sync::Arc;
use std::time::Duration;

const SEED: u64 = 77;

fn engine() -> Arc<Engine> {
    Arc::new(
        EngineBuilder::new(ArmSpec::unit_costs(3), 2)
            .policy("epsilon-greedy")
            .config(BanditConfig::paper().with_seed(SEED))
            .build()
            .expect("engine builds"),
    )
}

fn context(i: usize) -> Vec<f64> {
    vec![(i % 7) as f64 + 1.0, (i % 5) as f64 * 0.5]
}

fn runtime(i: usize, arm: usize) -> f64 {
    10.0 + arm as f64 * 3.0 + (i % 3) as f64
}

/// Drive `rounds` of recommend→record through both front-ends and compare
/// every response field bit-for-bit.
fn assert_streams_identical(config: ServerConfig, rounds: usize, pipeline_every: usize) {
    let reference = engine();
    let served = engine();
    let mut server = NetServer::bind(served, "127.0.0.1:0", config).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    let mut i = 0;
    while i < rounds {
        if pipeline_every > 0 && i % pipeline_every == 0 {
            // A pipelined burst: several recommends hit the socket back to
            // back, so the server coalesces them into one recommend_batch.
            let burst = (rounds - i).min(8);
            let ids: Vec<u64> =
                (0..burst).map(|j| client.send_recommend("wf-a", &context(i + j))).collect();
            client.flush().expect("flush");
            // Same schedule in-process: the pipelined burst reaches the
            // engine as recommends first, records after.
            let local: Vec<_> = (0..burst)
                .map(|j| reference.recommend("wf-a", &context(i + j)).expect("local"))
                .collect();
            for (j, id) in ids.into_iter().enumerate() {
                let remote = match client.wait(id).expect("burst recommend") {
                    Response::Recommend {
                        ticket,
                        arm,
                        explored,
                        predicted_runtime,
                        resource_cost,
                        name,
                    } => (ticket, arm, explored, predicted_runtime, resource_cost, name),
                    other => panic!("expected recommend, got {other:?}"),
                };
                let (lt, lr) = (&local[j].0, &local[j].1);
                assert_eq!(remote.0, lt.id(), "ticket, round {}", i + j);
                assert_eq!(remote.1 as usize, lr.arm, "arm, round {}", i + j);
                assert_eq!(remote.2, lr.explored, "explored, round {}", i + j);
                assert_eq!(
                    remote.3.to_bits(),
                    lr.predicted_runtime.to_bits(),
                    "predicted bits, round {}",
                    i + j
                );
                assert_eq!(remote.4.to_bits(), lr.resource_cost.to_bits(), "cost bits");
                assert_eq!(remote.5, &*lr.name, "name, round {}", i + j);
                client.record("wf-a", remote.0, runtime(i + j, lr.arm)).expect("remote record");
                reference.record("wf-a", *lt, runtime(i + j, lr.arm)).expect("local record");
            }
            i += burst;
        } else {
            let remote = client.recommend("wf-a", &context(i)).expect("sync recommend");
            let (lt, lr) = reference.recommend("wf-a", &context(i)).expect("local");
            assert_eq!(remote.ticket, lt.id(), "ticket, round {i}");
            assert_eq!(remote.arm, lr.arm, "arm, round {i}");
            assert_eq!(remote.explored, lr.explored, "explored, round {i}");
            assert_eq!(
                remote.predicted_runtime.to_bits(),
                lr.predicted_runtime.to_bits(),
                "predicted bits, round {i}"
            );
            assert_eq!(remote.resource_cost.to_bits(), lr.resource_cost.to_bits());
            assert_eq!(remote.name, &*lr.name, "name, round {i}");
            client.record("wf-a", remote.ticket, runtime(i, lr.arm)).expect("remote record");
            reference.record("wf-a", lt, runtime(i, lr.arm)).expect("local record");
            i += 1;
        }
    }
    server.shutdown();
}

#[test]
fn tcp_stream_bitwise_identical_to_in_process() {
    assert_streams_identical(ServerConfig::default(), 120, 0);
}

#[test]
fn tcp_stream_bitwise_identical_with_pipelined_bursts() {
    assert_streams_identical(ServerConfig::default(), 120, 3);
}

#[test]
fn tcp_stream_bitwise_identical_with_accumulation_window() {
    // A nonzero window coalesces frames that arrive close together; the
    // stream must still match the sequential in-process reference exactly.
    let config = ServerConfig::default().with_batch_window(Duration::from_millis(2));
    assert_streams_identical(config, 60, 4);
}

#[test]
fn reactor_cross_connection_coalescing_is_bitwise_equivalent() {
    // Several connections on distinct tenant keys, all funneled through
    // one reactor thread: requests arriving in the same wake coalesce
    // across connections, and every key's stream must still match a
    // sequential in-process reference bit for bit.
    let reference = engine();
    let served = engine();
    let config = ServerConfig::default().with_reactor_threads(1);
    let mut server = NetServer::bind(served, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    const CLIENTS: usize = 4;
    let mut clients: Vec<NetClient> =
        (0..CLIENTS).map(|_| NetClient::connect(addr).expect("connect")).collect();
    let keys: Vec<String> = (0..CLIENTS).map(|c| format!("wf-{c}")).collect();

    for i in 0..60 {
        // Fire every client's recommend before waiting on any, so the
        // requests land in the reactor close together and have the chance
        // to coalesce into one cross-connection burst.
        let ids: Vec<u64> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let id = client.send_recommend(&keys[c], &context(i));
                client.flush().expect("flush");
                id
            })
            .collect();
        for (c, client) in clients.iter_mut().enumerate() {
            let remote = match client.wait(ids[c]).expect("recommend") {
                Response::Recommend { ticket, arm, explored, predicted_runtime, .. } => {
                    (ticket, arm as usize, explored, predicted_runtime)
                }
                other => panic!("expected recommend, got {other:?}"),
            };
            let (lt, lr) = reference.recommend(&keys[c], &context(i)).expect("local");
            assert_eq!(remote.0, lt.id(), "ticket, client {c} round {i}");
            assert_eq!(remote.1, lr.arm, "arm, client {c} round {i}");
            assert_eq!(remote.2, lr.explored, "explored, client {c} round {i}");
            assert_eq!(
                remote.3.to_bits(),
                lr.predicted_runtime.to_bits(),
                "predicted bits, client {c} round {i}"
            );
            client.record(&keys[c], remote.0, runtime(i, lr.arm)).expect("remote record");
            reference.record(&keys[c], lt, runtime(i, lr.arm)).expect("local record");
        }
    }
    server.shutdown();
}

#[test]
fn connection_ceiling_rejects_with_busy_and_keeps_serving() {
    let config = ServerConfig::default().with_max_connections(2);
    let mut server = NetServer::bind(engine(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut a = NetClient::connect(addr).expect("connect a");
    let mut b = NetClient::connect(addr).expect("connect b");
    a.ping().expect("a serves");
    b.ping().expect("b serves");

    // The third connection is accepted only to be told why it can't stay:
    // a typed Busy frame, then a graceful close.
    let mut c = NetClient::connect(addr).expect("tcp connect still succeeds");
    match c.ping() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Busy),
        other => panic!("expected busy reject, got {other:?}"),
    }

    // Established connections are unaffected by the reject.
    let rec = a.recommend("wf-a", &context(0)).expect("a still serves");
    a.record("wf-a", rec.ticket, 5.0).expect("a records");
    b.ping().expect("b still serves");

    // A freed seat is reusable.
    drop(a);
    let mut d = loop {
        // The server retires the dropped connection asynchronously; retry
        // until the seat frees up.
        let mut d = NetClient::connect(addr).expect("connect d");
        match d.ping() {
            Ok(()) => break d,
            Err(NetError::Remote { code: ErrorCode::Busy, .. }) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => panic!("unexpected error reclaiming seat: {e}"),
        }
    };
    d.ping().expect("d serves on the freed seat");
    server.shutdown();
}

#[test]
fn pipelined_responses_resolve_out_of_wait_order() {
    let mut server =
        NetServer::bind(engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // Interleave two tenant keys; wait in reverse of send order. Request
    // IDs — not arrival order — route each reply.
    let mut ids = Vec::new();
    for i in 0..6 {
        let key = if i % 2 == 0 { "wf-a" } else { "wf-b" };
        ids.push((i, key, client.send_recommend(key, &context(i))));
    }
    client.flush().expect("flush");
    let mut tickets = std::collections::HashSet::new();
    for (i, key, id) in ids.into_iter().rev() {
        match client.wait(id).expect("reply routed by id") {
            Response::Recommend { ticket, .. } => {
                // Tickets are per-shard, so scope distinctness by key.
                assert!(tickets.insert((key, ticket)), "round {i} got a distinct ticket");
            }
            other => panic!("expected recommend, got {other:?}"),
        }
    }
    server.shutdown();
}

#[test]
fn checkpoint_over_tcp_matches_local_serialization() {
    let reference = engine();
    let served = engine();
    let mut server =
        NetServer::bind(Arc::clone(&served), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    for i in 0..40 {
        let remote = client.recommend("wf-a", &context(i)).expect("recommend");
        let (lt, lr) = reference.recommend("wf-a", &context(i)).expect("local");
        client.record("wf-a", remote.ticket, runtime(i, lr.arm)).expect("record");
        reference.record("wf-a", lt, runtime(i, lr.arm)).expect("record");
    }

    let over_wire = client.checkpoint("wf-a").expect("checkpoint");
    let mut local = Vec::new();
    reference.save_shard_checkpoint("wf-a", &mut local).expect("local checkpoint");
    assert!(!over_wire.is_empty());
    assert_eq!(over_wire, local, "checkpoint bytes identical over TCP");
    server.shutdown();
}

#[test]
fn typed_error_then_connection_still_usable() {
    let mut server =
        NetServer::bind(engine(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut client = NetClient::connect(server.local_addr()).expect("connect");

    // A record against a ticket that was never issued: typed engine error.
    match client.record("wf-a", 999_999, 1.0) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Engine),
        other => panic!("expected remote engine error, got {other:?}"),
    }
    // Wrong feature count: typed engine error (individual fallback verdict).
    match client.recommend("wf-a", &[1.0, 2.0, 3.0, 4.0]) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Engine),
        other => panic!("expected remote engine error, got {other:?}"),
    }
    // The connection survives both and serves real traffic.
    let rec = client.recommend("wf-a", &context(0)).expect("recommend after errors");
    client.record("wf-a", rec.ticket, 5.0).expect("record after errors");
    client.ping().expect("ping after errors");
    server.shutdown();
}
