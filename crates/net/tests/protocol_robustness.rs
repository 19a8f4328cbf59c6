//! Protocol robustness: randomized damage against a **live** server must
//! never crash it, and a connection that just had a frame rejected must
//! still serve valid traffic.
//!
//! One server (shared across every proptest case) backs all connections;
//! if any damage sequence wedged a reactor loop or panicked the process,
//! every subsequent case would fail loudly. Damage kinds:
//!
//! * bit-flip inside a frame's payload or CRC trailer (recoverable: typed
//!   Malformed error, connection continues),
//! * CRC-clean frames whose body does not decode (recoverable, request ID
//!   salvaged),
//! * frames torn by a mid-frame hang-up (connection ends quietly),
//! * oversized length headers (typed Oversized error, then close),
//! * valid frames interleaved across several writes with pauses (must
//!   simply work),
//! * slow-loris dribble: many connections feeding one byte per write must
//!   not stall other clients' round-trips (separate test below, on a
//!   single event loop that owns every connection).

use banditware_core::{ArmSpec, BanditConfig};
use banditware_net::frame::{encode_frame, read_frame, MAX_PAYLOAD};
use banditware_net::protocol::{
    decode_response, encode_request, Request, Response, UNKNOWN_REQUEST_ID,
};
use banditware_net::{ErrorCode, NetError, NetServer, ServerConfig};
use banditware_serve::EngineBuilder;
use proptest::prelude::*;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn start_server(config: ServerConfig) -> SocketAddr {
    let engine = Arc::new(
        EngineBuilder::new(ArmSpec::unit_costs(3), 2)
            .config(BanditConfig::paper().with_seed(3))
            .build()
            .expect("engine builds"),
    );
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    // Leaked on purpose: the server must stay up for the whole test
    // process so every case hits the same instance.
    std::mem::forget(server);
    addr
}

/// The shared live server (started lazily).
fn server_addr() -> SocketAddr {
    static SERVER: OnceLock<SocketAddr> = OnceLock::new();
    *SERVER.get_or_init(|| start_server(ServerConfig::default()))
}

fn connect() -> TcpStream {
    let stream = TcpStream::connect(server_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // A hung read is a deadlocked test; fail it instead.
    stream.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    stream
}

fn request_frame(id: u64, req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request(id, req, &mut payload);
    let mut wire = Vec::new();
    encode_frame(&payload, &mut wire);
    wire
}

fn read_response(stream: &mut TcpStream) -> (u64, Response) {
    let mut payload = Vec::new();
    read_frame(stream, &mut payload).expect("read response frame");
    decode_response(&payload).expect("decode response")
}

/// One randomized abuse step. `Fatal` variants run on their own throwaway
/// connection (the protocol defines them as connection-ending); the rest
/// run on the case's main connection, which must keep working afterwards.
#[derive(Debug, Clone)]
enum Damage {
    BitFlip { features: (f64, f64), pos: u64, bit: u8 },
    GarbageBody { body: Vec<u8> },
    InterleavedWrites { features: (f64, f64), split: u64 },
    TornFrame { features: (f64, f64), keep: u64 },
    OversizedHeader { extra: u32 },
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    (
        0u8..5,
        (0.5f64..8.0, 0.5f64..8.0),
        any::<u64>(),
        prop::collection::vec(any::<u8>(), 0..24),
        0u32..1024,
    )
        .prop_map(|(kind, features, knob, body, extra)| match kind {
            0 => Damage::BitFlip { features, pos: knob, bit: (knob % 8) as u8 },
            1 => Damage::GarbageBody { body },
            2 => Damage::InterleavedWrites { features, split: knob },
            3 => Damage::TornFrame { features, keep: knob },
            _ => Damage::OversizedHeader { extra },
        })
}

fn apply(stream: &mut TcpStream, next_id: &mut u64, damage: &Damage) -> Result<(), TestCaseError> {
    match damage {
        Damage::BitFlip { features, pos, bit } => {
            let id = *next_id;
            *next_id += 1;
            let mut wire = request_frame(
                id,
                &Request::Recommend { key: "wf".into(), features: vec![features.0, features.1] },
            );
            // Flip anywhere in payload or CRC trailer — never the length
            // header, which the CRC does not cover (a corrupted length is
            // the oversized/desync case, exercised separately).
            let idx = 4 + (*pos as usize % (wire.len() - 4));
            wire[idx] ^= 1 << (bit % 8);
            stream.write_all(&wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (got, resp) = read_response(stream);
            prop_assert_eq!(got, UNKNOWN_REQUEST_ID);
            match resp {
                Response::Error { code, .. } => prop_assert_eq!(code, ErrorCode::Malformed),
                other => return Err(TestCaseError::fail(format!("expected error: {other:?}"))),
            }
        }
        Damage::GarbageBody { body } => {
            // CRC-clean frame whose payload is nonsense: opcode 0x6E, a
            // request ID far above anything the case will legitimately use,
            // then arbitrary bytes.
            let garbage_id = (1u64 << 60) | *next_id;
            let mut payload = vec![0x6E];
            payload.extend_from_slice(&garbage_id.to_le_bytes());
            payload.extend_from_slice(body);
            let mut wire = Vec::new();
            encode_frame(&payload, &mut wire);
            stream.write_all(&wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (got, resp) = read_response(stream);
            prop_assert_eq!(got, garbage_id, "request ID salvaged from undecodable payload");
            match resp {
                Response::Error { code, .. } => prop_assert_eq!(code, ErrorCode::Malformed),
                other => return Err(TestCaseError::fail(format!("expected error: {other:?}"))),
            }
        }
        Damage::InterleavedWrites { features, split } => {
            let id = *next_id;
            *next_id += 1;
            let wire = request_frame(
                id,
                &Request::Recommend { key: "wf".into(), features: vec![features.0, features.1] },
            );
            let at = 1 + (*split as usize % (wire.len() - 1));
            stream.write_all(&wire[..at]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            stream.flush().ok();
            std::thread::sleep(Duration::from_millis(1));
            stream.write_all(&wire[at..]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (got, resp) = read_response(stream);
            prop_assert_eq!(got, id);
            prop_assert!(
                matches!(resp, Response::Recommend { .. }),
                "split-across-writes frame served normally: {:?}",
                resp
            );
        }
        Damage::TornFrame { features, keep } => {
            // A peer that hangs up mid-frame: its own connection dies
            // quietly; nobody else notices.
            let mut victim = connect();
            let wire = request_frame(
                7,
                &Request::Recommend { key: "wf".into(), features: vec![features.0, features.1] },
            );
            let at = *keep as usize % wire.len();
            victim.write_all(&wire[..at]).map_err(|e| TestCaseError::fail(e.to_string()))?;
            victim.shutdown(std::net::Shutdown::Write).ok();
            let mut payload = Vec::new();
            match read_frame(&mut victim, &mut payload) {
                Err(NetError::ConnectionClosed) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "torn connection should close without a response, got {other:?}"
                    )))
                }
            }
        }
        Damage::OversizedHeader { extra } => {
            let mut victim = connect();
            let mut wire = Vec::new();
            wire.extend_from_slice(&(MAX_PAYLOAD as u32 + 1 + extra).to_le_bytes());
            wire.extend_from_slice(b"whatever follows is unsynchronizable");
            victim.write_all(&wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let (got, resp) = read_response(&mut victim);
            prop_assert_eq!(got, UNKNOWN_REQUEST_ID);
            match resp {
                Response::Error { code, .. } => prop_assert_eq!(code, ErrorCode::Oversized),
                other => return Err(TestCaseError::fail(format!("expected error: {other:?}"))),
            }
            let mut payload = Vec::new();
            match read_frame(&mut victim, &mut payload) {
                Err(NetError::ConnectionClosed) => {}
                other => {
                    return Err(TestCaseError::fail(format!(
                        "oversized header should end the connection, got {other:?}"
                    )))
                }
            }
        }
    }
    Ok(())
}

/// Valid round-trip proving the connection (and server) still work.
fn assert_live(stream: &mut TcpStream, next_id: &mut u64) -> Result<(), TestCaseError> {
    let id = *next_id;
    *next_id += 1;
    let wire =
        request_frame(id, &Request::Recommend { key: "wf".into(), features: vec![1.0, 2.0] });
    stream.write_all(&wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let (got, resp) = read_response(stream);
    prop_assert_eq!(got, id);
    prop_assert!(
        matches!(resp, Response::Recommend { .. }),
        "valid traffic after damage still succeeds: {:?}",
        resp
    );
    let pid = *next_id;
    *next_id += 1;
    let wire = request_frame(pid, &Request::Ping);
    stream.write_all(&wire).map_err(|e| TestCaseError::fail(e.to_string()))?;
    let (got, resp) = read_response(stream);
    prop_assert_eq!(got, pid);
    prop_assert_eq!(resp, Response::Pong);
    Ok(())
}

fn run_damage_case(ops: &[Damage]) -> Result<(), TestCaseError> {
    let mut stream = connect();
    let mut next_id = 1u64;
    for op in ops {
        apply(&mut stream, &mut next_id, op)?;
        // After every damage step the same connection (for recoverable
        // damage) keeps serving valid traffic.
        assert_live(&mut stream, &mut next_id)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn damaged_streams_never_crash_a_live_server(
        ops in prop::collection::vec(damage_strategy(), 1..6),
    ) {
        run_damage_case(&ops)?;
    }
}

/// Clean EOF while a batch window is still accumulating: the reactor must
/// hold the connection open until the window expires and serve every
/// request that was complete before the EOF (the documented clean-EOF
/// contract), and it must NOT free the slot early — a connection adopted
/// into a prematurely freed slot would receive the EOF'd client's
/// responses (cross-client misdelivery).
#[test]
fn eof_during_open_batch_window_still_serves_and_never_misroutes() {
    let addr = start_server(
        ServerConfig::default()
            .with_reactor_threads(1)
            .with_batch_window(Duration::from_millis(300)),
    );

    // Client A: two complete requests, then an immediate write-shutdown so
    // the reactor sees the EOF while the window still holds both requests.
    let mut a = TcpStream::connect(addr).expect("connect a");
    a.set_nodelay(true).expect("nodelay");
    a.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut wire = request_frame(1, &Request::Ping);
    wire.extend_from_slice(&request_frame(
        2,
        &Request::Recommend { key: "wf".into(), features: vec![1.0, 2.0] },
    ));
    a.write_all(&wire).expect("write a");
    a.shutdown(std::net::Shutdown::Write).expect("eof a");

    // Client B connects inside the window; were A's slot freed at EOF, the
    // single reactor would adopt B into it and route A's responses here.
    std::thread::sleep(Duration::from_millis(50));
    let mut b = TcpStream::connect(addr).expect("connect b");
    b.set_nodelay(true).expect("nodelay");
    b.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    b.write_all(&request_frame(42, &Request::Ping)).expect("write b");

    // A's completed requests are served once the window expires...
    let (got, resp) = read_response(&mut a);
    assert_eq!(got, 1, "a's ping answered after its EOF");
    assert_eq!(resp, Response::Pong);
    let (got, resp) = read_response(&mut a);
    assert_eq!(got, 2, "a's recommend answered after its EOF");
    assert!(matches!(resp, Response::Recommend { .. }), "a's recommend: {resp:?}");
    // ...and only then does the connection close.
    let mut payload = Vec::new();
    match read_frame(&mut a, &mut payload) {
        Err(NetError::ConnectionClosed) => {}
        other => panic!("a should close after its responses, got {other:?}"),
    }

    // B's first response is its own — nothing of A's leaked into its slot.
    let (got, resp) = read_response(&mut b);
    assert_eq!(got, 42, "b receives only its own response");
    assert_eq!(resp, Response::Pong);
}

/// A connection **reset** while a request of its own waits in an open
/// batch window: the request is dropped, and the slot is reused only after
/// that, so a connection adopted into it never receives the dead client's
/// response.
#[test]
fn reset_during_open_batch_window_drops_its_requests_and_never_misroutes() {
    let window = Duration::from_millis(300);
    let addr =
        start_server(ServerConfig::default().with_reactor_threads(1).with_batch_window(window));

    // Client A leaves its pong unread, so closing the socket sends a reset.
    let mut a = TcpStream::connect(addr).expect("connect a");
    a.set_nodelay(true).expect("nodelay");
    a.write_all(&request_frame(1, &Request::Ping)).expect("write a");
    std::thread::sleep(window + Duration::from_millis(100));
    // A new window opens on A's recommend; A resets inside it.
    let recommend = Request::Recommend { key: "wf".into(), features: vec![1.0, 2.0] };
    a.write_all(&request_frame(2, &recommend)).expect("write a");
    std::thread::sleep(Duration::from_millis(50));
    drop(a);
    std::thread::sleep(Duration::from_millis(50));

    // Were A's slot freed with its recommend still queued, the single
    // reactor would adopt B into it and route that response here.
    let mut b = TcpStream::connect(addr).expect("connect b");
    b.set_nodelay(true).expect("nodelay");
    b.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    b.write_all(&request_frame(42, &Request::Ping)).expect("write b");
    let (got, resp) = read_response(&mut b);
    assert_eq!(got, 42, "b receives only its own response, got {resp:?}");
    assert_eq!(resp, Response::Pong);
}

/// Slow-loris: many connections dribbling one byte per write must not
/// stall anyone else. Run against a **single** reactor thread — the
/// hardest case, since that one event loop owns every connection — with a
/// fresh server so loris connections cannot leak into the shared ones.
#[test]
fn slow_loris_connections_do_not_stall_other_clients() {
    let addr = start_server(ServerConfig::default().with_reactor_threads(1));

    const LORIS: usize = 40;
    let frame =
        request_frame(1, &Request::Recommend { key: "drip".into(), features: vec![1.0, 2.0] });
    let mut loris: Vec<(TcpStream, usize)> = (0..LORIS)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("loris connect");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
            (s, 0)
        })
        .collect();

    // Dribble the frame one byte at a time across all loris connections,
    // interleaved with a well-behaved client's synchronous round-trips.
    // Every round-trip must complete promptly even though 40 connections
    // sit mid-frame the whole time.
    let mut client = TcpStream::connect(addr).expect("client connect");
    client.set_nodelay(true).expect("nodelay");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    let mut next_id = 100u64;

    let started = Instant::now();
    for step in 0..frame.len() {
        for (s, sent) in &mut loris {
            s.write_all(&frame[*sent..*sent + 1]).expect("dribble one byte");
            *sent += 1;
        }
        // Two full rounds between dribbles: if the reactor stalled on the
        // half-written frames, the 10 s read timeout would fail this.
        for _ in 0..2 {
            assert_live(&mut client, &mut next_id).unwrap_or_else(|e| {
                panic!("round-trip stalled behind slow-loris at byte {step}: {e}")
            });
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "interleaved rounds took {:?} — the loop is being starved",
        started.elapsed()
    );

    // Once each dribbled frame finally completes, it is served normally.
    for (mut s, sent) in loris {
        assert_eq!(sent, frame.len());
        let (got, resp) = read_response(&mut s);
        assert_eq!(got, 1);
        assert!(matches!(resp, Response::Recommend { .. }), "loris frame served: {resp:?}");
    }
}
