//! The batching core against an in-process twin engine: grouping order,
//! response bytes, and the allocations of a warmed pass.

use super::*;
use crate::frame::encode_frame;
use crate::protocol::{decode_response, encode_request, Request};
use banditware_core::{ArmSpec, BanditConfig, Retention};
use banditware_serve::EngineBuilder;
use std::collections::HashMap;

/// A counting global allocator with a **thread-local** counter, so the
/// other tests the harness runs in parallel never land in a counting
/// window.
#[allow(unsafe_code)]
mod counting {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static ALLOCS: Cell<u64> = const { Cell::new(0) };
    }

    fn bump() {
        // `try_with`: a thread being torn down no longer counts.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }

    /// Allocations made by the calling thread so far.
    pub(super) fn allocs() -> u64 {
        ALLOCS.with(Cell::get)
    }

    pub(super) struct Counting;

    // SAFETY: every method forwards its arguments unchanged to `System`,
    // which upholds the `GlobalAlloc` contract; the only addition is a
    // const-initialized thread-local counter bump, which never allocates.
    unsafe impl GlobalAlloc for Counting {
        // SAFETY: forwards to `System` unchanged (see the impl).
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump();
            // SAFETY: the caller's `alloc` contract is forwarded verbatim.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: forwards to `System` unchanged (see the impl).
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump();
            // SAFETY: the caller's `alloc_zeroed` contract is forwarded verbatim.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: forwards to `System` unchanged (see the impl).
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump();
            // SAFETY: the caller's `realloc` contract is forwarded verbatim.
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        // SAFETY: forwards to `System` unchanged (see the impl).
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: the caller's `dealloc` contract is forwarded verbatim.
            unsafe { System.dealloc(ptr, layout) }
        }
    }

    #[global_allocator]
    static GLOBAL: Counting = Counting;
}

fn engine() -> Engine {
    EngineBuilder::new(ArmSpec::unit_costs(3), 2)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_seed(41))
        .build()
        .expect("engine builds")
}

fn request_frame(id: u64, req: &Request) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_request(id, req, &mut payload);
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    frame
}

fn response_frame(id: u64, resp: &Response) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_response(id, resp, &mut payload);
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    frame
}

fn recommend_frame(id: u64, ticket: Ticket, rec: &Recommendation) -> Vec<u8> {
    response_frame(
        id,
        &Response::Recommend {
            ticket: ticket.id(),
            arm: rec.arm as u32,
            explored: rec.explored,
            predicted_runtime: rec.predicted_runtime,
            resource_cost: rec.resource_cost,
            name: rec.name.to_string(),
        },
    )
}

fn recommend(key: &str, features: &[f64]) -> Request {
    Request::Recommend { key: key.into(), features: features.to_vec() }
}

/// Every group kind in one pass, checked byte for byte against a twin
/// engine driven through the same entry points in the order the groups
/// must execute.
#[test]
fn one_pass_groups_in_order_and_answers_bitwise() {
    let served = engine();
    let twin = engine();
    let one = |x: &[f64]| FeatureFrame::from_rows(&[x.to_vec()]).expect("frame");
    let (x1, x2, y1, y2, z1, z2) =
        ([1.0, 2.0], [3.0, 0.5], [2.0, 2.0], [4.0, 1.0], [5.0, 1.5], [6.0, 0.0]);
    let (w1, w3, w2) = ([1.5, 2.5], [1.0, 2.0, 3.0], [0.5, 3.5]);

    // The twin runs the expected group order first; its tickets feed the
    // requests below.
    let mut want: Vec<(usize, Vec<u8>)> = Vec::new();
    // Group: recommend a [x1].
    let (t1, r) = twin.recommend_batch_frame("a", &one(&x1)).expect("a")[0].clone();
    want.push((0, recommend_frame(1, t1, &r)));
    // Group: recommend b [y1, y2] — coalesced across the interleaved record of a.
    let burst = FeatureFrame::from_rows(&[y1.to_vec(), y2.to_vec()]).expect("frame");
    let b = twin.recommend_batch_frame("b", &burst).expect("b");
    want.push((1, recommend_frame(2, b[0].0, &b[0].1)));
    want.push((1, recommend_frame(4, b[1].0, &b[1].1)));
    // Group: record a [t1] — a different op on a starts a new group.
    twin.record_batch_frame("a", &[(t1, 12.5)]).expect("record a");
    want.push((0, response_frame(3, &Response::RecordOk)));
    // Group: recommend a [x2] — after a's record, so not joined to [x1].
    let (t, r) = twin.recommend_batch_frame("a", &one(&x2)).expect("a")[0].clone();
    want.push((0, recommend_frame(5, t, &r)));
    // Group: recommend c [z1]; the checkpoint ends c's group.
    let (t, r) = twin.recommend_batch_frame("c", &one(&z1)).expect("c")[0].clone();
    want.push((0, recommend_frame(6, t, &r)));
    let mut bytes = Vec::new();
    twin.save_shard_checkpoint("c", &mut bytes).expect("checkpoint");
    want.push((1, response_frame(7, &Response::Checkpoint { bytes })));
    let (t, r) = twin.recommend_batch_frame("c", &one(&z2)).expect("c")[0].clone();
    want.push((0, recommend_frame(8, t, &r)));
    want.push((1, response_frame(9, &Response::Pong)));
    want.push((
        1,
        response_frame(
            UNKNOWN_REQUEST_ID,
            &Response::Error {
                code: ErrorCode::Malformed,
                message: "frame CRC mismatch; payload discarded".into(),
            },
        ),
    ));
    // Group: recommend d, ragged — the per-request fallback answers each.
    for (id, x) in [(11, &w1[..]), (12, &w3[..]), (13, &w2[..])] {
        let frame = match twin.recommend("d", x) {
            Ok((t, r)) => recommend_frame(id, t, &r),
            Err(e) => response_frame(
                id,
                &Response::Error { code: ErrorCode::Engine, message: e.to_string() },
            ),
        };
        want.push((0, frame));
    }

    let mut crc_bad = request_frame(10, &Request::Ping);
    crc_bad[6] ^= 0x10;
    let arrivals: Vec<(usize, Vec<u8>)> = vec![
        (0, request_frame(1, &recommend("a", &x1))),
        (1, request_frame(2, &recommend("b", &y1))),
        (0, request_frame(3, &Request::Record { key: "a".into(), ticket: t1.id(), runtime: 12.5 })),
        (1, request_frame(4, &recommend("b", &y2))),
        (0, request_frame(5, &recommend("a", &x2))),
        (0, request_frame(6, &recommend("c", &z1))),
        (1, request_frame(7, &Request::Checkpoint { key: "c".into() })),
        (0, request_frame(8, &recommend("c", &z2))),
        (1, request_frame(9, &Request::Ping)),
        (1, crc_bad),
        (0, request_frame(11, &recommend("d", &w1))),
        (0, request_frame(12, &recommend("d", &w3))),
        (0, request_frame(13, &recommend("d", &w2))),
    ];
    let mut inbox = Inbox::default();
    for (slot, mut rx) in arrivals {
        assert!(drain_frames(&mut rx, slot, &mut inbox));
        assert!(rx.is_empty(), "a whole frame is consumed");
    }
    let mut got: Vec<(usize, Vec<u8>)> = Vec::new();
    execute_batch(&served, &mut inbox, &mut BatchScratch::default(), &mut |slot, bytes| {
        got.push((slot, bytes.to_vec()));
    });
    assert!(inbox.is_empty());
    assert_eq!(got.len(), want.len(), "one response per request");
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "response {i} differs");
    }
    // Both engines end in the same state.
    for key in ["a", "b", "c", "d"] {
        let (mut s, mut t) = (Vec::new(), Vec::new());
        served.save_shard_checkpoint(key, &mut s).expect("served");
        twin.save_shard_checkpoint(key, &mut t).expect("twin");
        assert_eq!(s, t, "key {key}");
    }
}

#[test]
fn drain_frames_keeps_the_partial_tail_and_stops_at_an_oversized_header() {
    let mut rx = Vec::new();
    for id in 0..5 {
        rx.extend_from_slice(&request_frame(id, &Request::Ping));
    }
    let tail = request_frame(5, &recommend("k", &[1.0, 2.0]));
    rx.extend_from_slice(&tail[..7]);
    let mut inbox = Inbox::default();
    assert!(drain_frames(&mut rx, 3, &mut inbox));
    assert_eq!(inbox.len(), 5);
    assert_eq!(rx, tail[..7], "only the incomplete frame remains");
    rx.extend_from_slice(&tail[7..]);
    assert!(drain_frames(&mut rx, 3, &mut inbox));
    assert_eq!(inbox.len(), 6);
    assert!(rx.is_empty());
    inbox.retain_slots(|s| s == 3);
    assert_eq!(inbox.len(), 6, "every request is tagged with its slot");

    rx.extend_from_slice(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
    assert!(!drain_frames(&mut rx, 3, &mut inbox), "oversized header is fatal");
    assert_eq!(inbox.len(), 7, "the Oversized reject is queued");
}

/// A warmed pass — decode into the arena, group, execute, encode —
/// allocates nothing: the key index keeps its table across passes, and
/// under a bounded retention the engine issues tickets into its warm arena,
/// answers into the scratch result buffer and recycles the history rows
/// the tail drops.
#[test]
fn warmed_pass_allocates_nothing() {
    const KEYS: [&str; 4] = ["k0", "k1", "k2", "k3"];
    let served = EngineBuilder::new(ArmSpec::unit_costs(3), 2)
        .policy("epsilon-greedy")
        .config(BanditConfig::paper().with_seed(41))
        .retention(Retention::Tail(4))
        .build()
        .expect("engine builds");
    let mut inbox = Inbox::default();
    let mut scratch = BatchScratch::default();
    let mut out: Vec<u8> = Vec::with_capacity(1 << 16);
    // Tickets each key issued last pass, recorded this pass.
    let mut open: Vec<Vec<u64>> = vec![Vec::new(); KEYS.len()];
    let mut id = 0u64;

    for pass in 0..40usize {
        // Arrivals over two connection slots: two recommends per key, then
        // the records of last pass's tickets.
        let mut rx = [Vec::new(), Vec::new()];
        // Request ID → key index, to file each reply's ticket.
        let mut key_of = HashMap::new();
        for r in 0..2 {
            for (k, key) in KEYS.iter().enumerate() {
                let x = vec![(pass % 7 + k) as f64, (r + 1) as f64 * 0.5];
                id += 1;
                key_of.insert(id, k);
                rx[k % 2].extend_from_slice(&request_frame(id, &recommend(key, &x)));
            }
        }
        for (k, key) in KEYS.iter().enumerate() {
            for t in open[k].drain(..) {
                id += 1;
                let req = Request::Record {
                    key: (*key).into(),
                    ticket: t,
                    runtime: 10.0 + (t % 5) as f64,
                };
                rx[k % 2].extend_from_slice(&request_frame(id, &req));
            }
        }

        out.clear();
        let before = counting::allocs();
        for (slot, buf) in rx.iter_mut().enumerate() {
            assert!(drain_frames(buf, slot, &mut inbox));
        }
        execute_batch(&served, &mut inbox, &mut scratch, &mut |_slot, bytes| {
            out.extend_from_slice(bytes);
        });
        let pass_allocs = counting::allocs() - before;

        let mut rest = &out[..];
        while !rest.is_empty() {
            let Ok(FrameEvent::Payload { start, end, consumed }) = parse_frame(rest) else {
                panic!("server wrote a damaged frame");
            };
            match decode_response(&rest[start..end]).expect("decodes") {
                (rid, Response::Recommend { ticket, .. }) => open[key_of[&rid]].push(ticket),
                (_, Response::RecordOk) => {}
                (rid, other) => panic!("request {rid}: unexpected {other:?}"),
            }
            rest = &rest[consumed..];
        }
        // Each arm sizes its buffers on its first pulls, which under the
        // paper's ε₀ = 1 schedule spread over the first dozen passes.
        if pass >= 16 {
            assert_eq!(pass_allocs, 0, "pass {pass}: {pass_allocs} allocations");
        }
        assert_eq!(served.stats().in_flight, 2 * KEYS.len(), "pass {pass}");
    }
}
