//! The engine behind a TCP front-end: clients on the loopback interface
//! drive the recommend→run→record loop through `banditware-net`'s framed
//! protocol, and the streams they see are **bitwise identical** to calling
//! the engine in-process.
//!
//! ```text
//! cargo run --release --example network_serving
//! ```
//!
//! Three phases, each asserting the same bits:
//!
//! 1. **Sync round-trips** — one workflow client recommending, running (a
//!    synthetic runtime model) and recording over TCP, round by round.
//! 2. **Pipelining** — the same client ships a burst of requests in one
//!    write; the server coalesces them into a single batched engine call
//!    and answers them all in one write back.
//! 3. **Equivalence check** — an identically-seeded in-process engine
//!    replays the same schedule; every ticket, arm and float bit must
//!    match, which the example asserts.

use banditware::net::{NetClient, NetServer, ServerConfig};
use banditware::prelude::*;
use banditware::serve::EngineBuilder;
use std::sync::Arc;

const SEED: u64 = 42;
const KEY: &str = "bp3d-campaign";

fn engine() -> Arc<Engine> {
    let specs = specs_from_hardware(&ndp_hardware());
    Arc::new(
        EngineBuilder::new(specs, 1)
            .config(BanditConfig::paper().with_seed(SEED))
            .build()
            .expect("engine builds"),
    )
}

/// Synthetic runtime for arm `a` on a workflow of size `x` (the example's
/// stand-in for actually running the job).
fn runtime(x: f64, arm: usize) -> f64 {
    40.0 + x * (arm as f64 + 1.0) * 0.08
}

fn workload(round: usize) -> f64 {
    100.0 + ((round * 37) % 400) as f64
}

fn main() {
    // The server owns one engine; port 0 = any free loopback port.
    let served = engine();
    let mut server =
        NetServer::bind(served, "127.0.0.1:0", ServerConfig::default()).expect("bind loopback");
    let addr = server.local_addr();
    println!("== serving on {addr} ==");

    // The equivalence reference: same specs, same seed, no network.
    let reference = engine();
    let mut client = NetClient::connect(addr).expect("connect");

    // Phase 1: sync rounds.
    println!("\n-- phase 1: 20 synchronous rounds over TCP --");
    let mut matches = 0;
    for round in 0..20 {
        let x = workload(round);
        let remote = client.recommend(KEY, &[x]).expect("recommend over TCP");
        let (ticket, local) = reference.recommend(KEY, &[x]).expect("recommend in-process");
        assert_eq!(remote.ticket, ticket.id(), "round {round}: tickets match");
        assert_eq!(remote.arm, local.arm, "round {round}: arms match");
        assert_eq!(
            remote.predicted_runtime.to_bits(),
            local.predicted_runtime.to_bits(),
            "round {round}: predicted runtimes match to the bit"
        );
        matches += 1;
        let r = runtime(x, remote.arm);
        client.record(KEY, remote.ticket, r).expect("record over TCP");
        reference.record(KEY, ticket, r).expect("record in-process");
        if round < 5 {
            println!(
                "  round {round}: x={x:>3} -> {} (predicted {:.1}s, ran {r:.1}s{})",
                remote.name,
                remote.predicted_runtime,
                if remote.explored { ", explored" } else { "" }
            );
        }
    }
    println!("  ... {matches}/20 rounds bitwise-identical to in-process");

    // Phase 2: a pipelined burst. All requests go out before any reply is
    // read; the server coalesces them into one `recommend_batch_frame`.
    // The frame path equals per-row `select` (the scaler wrapper: absorb
    // the whole burst, then standardize), so per-request in-process
    // recommends are its bitwise reference.
    println!("\n-- phase 2: one pipelined burst of 16 rounds --");
    let ids: Vec<(usize, u64)> =
        (20..36).map(|round| (round, client.send_recommend(KEY, &[workload(round)]))).collect();
    client.flush().expect("one write for the whole burst");
    // The in-process schedule seen by the server: recommends first (the
    // burst arrives together), records after.
    let locals: Vec<_> = (20..36)
        .map(|round| reference.recommend(KEY, &[workload(round)]).expect("in-process"))
        .collect();
    for (i, (round, id)) in ids.into_iter().enumerate() {
        let resp = client.wait(id).expect("burst reply");
        let banditware::net::Response::Recommend { ticket, arm, predicted_runtime, .. } = resp
        else {
            panic!("expected a recommendation, got {resp:?}");
        };
        let (lticket, local) = &locals[i];
        assert_eq!(ticket, lticket.id());
        assert_eq!(arm as usize, local.arm);
        assert_eq!(predicted_runtime.to_bits(), local.predicted_runtime.to_bits());
        let r = runtime(workload(round), local.arm);
        client.record(KEY, ticket, r).expect("record over TCP");
        reference.record(KEY, *lticket, r).expect("record in-process");
    }
    println!("  16/16 pipelined rounds bitwise-identical to in-process");

    // Phase 3: the serialized shard state agrees too.
    let over_wire = client.checkpoint(KEY).expect("checkpoint over TCP");
    let mut local = Vec::new();
    reference.save_shard_checkpoint(KEY, &mut local).expect("checkpoint in-process");
    assert_eq!(over_wire, local, "checkpoint bytes identical over TCP");
    println!("\n-- phase 3: shard checkpoint over TCP: {} bytes, identical --", over_wire.len());

    server.shutdown();
    println!("\nall equivalence checks passed");
}
