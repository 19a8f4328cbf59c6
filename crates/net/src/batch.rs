//! The batching core each reactor loop runs: frame draining, the per-loop
//! request arena ([`Inbox`]), and coalesced execution ([`execute_batch`]).
//!
//! The request path from read buffer to engine allocates nothing in steady
//! state. Frames parse from a moving offset and the read buffer compacts
//! once per read pass. Requests decode in place and their keys and
//! features are copied into two reused buffers. Groups are index lists in
//! reused scratch, recommend groups are written straight into the burst
//! [`FeatureFrame`], the engine answers into a reused result buffer, and
//! responses encode from borrowed parts. Keys are grouped through a reused
//! open-addressing index ([`KeyIndex`]), so a warm pass allocates nothing.

use crate::error::ErrorCode;
use crate::frame::{encode_frame, parse_frame, FrameEvent, MAX_PAYLOAD};
use crate::protocol::{
    decode_request_ref, encode_error, encode_recommend, encode_response, features, RequestRef,
    Response, UNKNOWN_REQUEST_ID,
};
use banditware_core::{CoreError, FeatureFrame, Recommendation, Ticket};
use banditware_serve::Engine;
use std::ops::Range;

/// One decoded request's operation; keys and features are ranges into the
/// [`Inbox`] arena.
#[derive(Debug)]
enum Op {
    Recommend {
        key: Range<usize>,
        features: Range<usize>,
    },
    Record {
        key: Range<usize>,
        ticket: u64,
        runtime: f64,
    },
    Checkpoint {
        key: Range<usize>,
    },
    Ping,
    /// Already answered at parse time (CRC failure, undecodable payload).
    Reject {
        code: ErrorCode,
        message: String,
    },
}

/// One inbound request: the connection slot it came from, its wire
/// request ID, and what it asks for.
#[derive(Debug)]
struct Pending {
    slot: usize,
    id: u64,
    op: Op,
}

/// The requests decoded since the last batch ran, in arrival order. Keys
/// and features live in two buffers that are cleared, never freed, after
/// each batch, so a warmed loop decodes without allocating.
#[derive(Debug, Default)]
pub(crate) struct Inbox {
    items: Vec<Pending>,
    keys: String,
    features: Vec<f64>,
}

impl Inbox {
    /// Requests waiting for the next batch.
    pub(crate) fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no request is waiting.
    pub(crate) fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Drop the waiting requests whose slot fails `keep`.
    pub(crate) fn retain_slots(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.items.retain(|p| keep(p.slot));
    }

    /// Decode one CRC-clean payload from `slot`. A payload that does not
    /// decode becomes a `Malformed` reject, with the request ID salvaged
    /// from the fixed header position so the error routes back to the
    /// right caller.
    fn push_payload(&mut self, slot: usize, payload: &[u8]) {
        let (id, op) = match decode_request_ref(payload) {
            Ok((id, req)) => (id, self.stash(req)),
            Err(e) => {
                let id = match payload.get(1..9) {
                    Some(&[a, b, c, d, e, f, g, h]) => u64::from_le_bytes([a, b, c, d, e, f, g, h]),
                    _ => UNKNOWN_REQUEST_ID,
                };
                (id, Op::Reject { code: ErrorCode::Malformed, message: e.to_string() })
            }
        };
        self.items.push(Pending { slot, id, op });
    }

    /// Queue a parse-time reject for `slot`.
    fn push_reject(&mut self, slot: usize, code: ErrorCode, message: String) {
        self.items.push(Pending { slot, id: UNKNOWN_REQUEST_ID, op: Op::Reject { code, message } });
    }

    fn stash(&mut self, req: RequestRef<'_>) -> Op {
        match req {
            RequestRef::Recommend { key, features: raw } => {
                let key = self.stash_key(key);
                let start = self.features.len();
                self.features.extend(features(raw));
                Op::Recommend { key, features: start..self.features.len() }
            }
            RequestRef::Record { key, ticket, runtime } => {
                Op::Record { key: self.stash_key(key), ticket, runtime }
            }
            RequestRef::Checkpoint { key } => Op::Checkpoint { key: self.stash_key(key) },
            RequestRef::Ping => Op::Ping,
        }
    }

    fn stash_key(&mut self, key: &str) -> Range<usize> {
        let start = self.keys.len();
        self.keys.push_str(key);
        start..self.keys.len()
    }

    fn key(&self, range: &Range<usize>) -> &str {
        &self.keys[range.clone()]
    }

    /// The tenant key an item names (`None` for pings and rejects).
    fn key_of(&self, item: &Pending) -> Option<&str> {
        match &item.op {
            Op::Recommend { key, .. } | Op::Record { key, .. } | Op::Checkpoint { key } => {
                Some(self.key(key))
            }
            Op::Ping | Op::Reject { .. } => None,
        }
    }

    /// A recommend's features (empty for any other operation).
    fn features_of(&self, item: &Pending) -> &[f64] {
        match &item.op {
            Op::Recommend { features, .. } => &self.features[features.clone()],
            _ => &[],
        }
    }

    fn clear(&mut self) {
        self.items.clear();
        self.keys.clear();
        self.features.clear();
    }
}

/// Parse every complete frame at the front of `rx` into `inbox`, tagged
/// with `slot`, then drop the parsed bytes with one compaction. Damage
/// policy: CRC failure → typed `Malformed` reject, keep going; oversized
/// header → typed `Oversized` reject and stop. Returns `false` in the
/// oversized case: with the length field untrusted the stream has no next
/// boundary, so the caller serves what it has and closes.
pub(crate) fn drain_frames(rx: &mut Vec<u8>, slot: usize, inbox: &mut Inbox) -> bool {
    let mut pos = 0;
    let mut intact = true;
    loop {
        match parse_frame(&rx[pos..]) {
            Ok(FrameEvent::Incomplete) => break,
            Ok(FrameEvent::Payload { start, end, consumed }) => {
                inbox.push_payload(slot, &rx[pos + start..pos + end]);
                pos += consumed;
            }
            Ok(FrameEvent::CorruptPayload { consumed }) => {
                inbox.push_reject(
                    slot,
                    ErrorCode::Malformed,
                    "frame CRC mismatch; payload discarded".into(),
                );
                pos += consumed;
            }
            Err(_) => {
                inbox.push_reject(
                    slot,
                    ErrorCode::Oversized,
                    format!("frame exceeds the {MAX_PAYLOAD} byte payload ceiling"),
                );
                intact = false;
                break;
            }
        }
    }
    rx.drain(..pos);
    intact
}

/// End marker of a group's member list.
const NIL: usize = usize::MAX;

/// One coalesced group: a linked list of inbox indices threaded through
/// [`BatchScratch::next`], in arrival order.
#[derive(Debug, Clone, Copy)]
struct Group {
    head: usize,
    tail: usize,
    len: usize,
}

/// Each tenant key's most recent group in one pass: open addressing with
/// linear probing over FNV-1a hashes. A slot holds a group index; a probe
/// compares the key against that group head's key in the arena. The table
/// is at most half full and keeps its capacity across passes.
#[derive(Debug, Default)]
struct KeyIndex {
    slots: Vec<usize>,
}

impl KeyIndex {
    /// Empty the table, sized for up to `keys` distinct keys.
    fn reset(&mut self, keys: usize) {
        self.slots.clear();
        self.slots.resize((2 * keys).next_power_of_two().max(8), NIL);
    }

    /// The slot of `key`: the one holding its group, or the empty slot
    /// where it goes. `key_of(g)` is the key of group `g`.
    fn find<'k>(&self, key: &str, key_of: impl Fn(usize) -> &'k str) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = fnv1a(key.as_bytes()) as usize & mask;
        while self.slots[at] != NIL && key_of(self.slots[at]) != key {
            at = (at + 1) & mask;
        }
        at
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Reusable buffers for [`execute_batch`], so steady-state batching
/// allocates nothing per wake.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    groups: Vec<Group>,
    index: KeyIndex,
    /// Per inbox index: the next member of its group, or [`NIL`].
    next: Vec<usize>,
    /// Columnar staging for recommend bursts, filled row by row from the
    /// arena outside the stripe lock.
    burst: FeatureFrame,
    /// The engine's answers for one recommend burst.
    recs: Vec<(Ticket, Recommendation)>,
    outcomes: Vec<(Ticket, f64)>,
    payload: Vec<u8>,
    frame: Vec<u8>,
}

/// Encodes one response payload at a time, frames it and hands it to the
/// sink tagged with its connection slot.
struct Responder<'a> {
    payload: &'a mut Vec<u8>,
    frame: &'a mut Vec<u8>,
    sink: &'a mut dyn FnMut(usize, &[u8]),
}

impl Responder<'_> {
    fn send(&mut self, slot: usize, encode: impl FnOnce(&mut Vec<u8>)) {
        encode(self.payload);
        self.frame.clear();
        encode_frame(self.payload, self.frame);
        (self.sink)(slot, self.frame);
    }

    fn recommendation(&mut self, item: &Pending, ticket: Ticket, rec: &Recommendation) {
        self.send(item.slot, |p| {
            encode_recommend(
                item.id,
                ticket.id(),
                rec.arm as u32,
                rec.explored,
                rec.predicted_runtime,
                rec.resource_cost,
                &rec.name,
                p,
            );
        });
    }

    fn error(&mut self, item: &Pending, code: ErrorCode, err: &CoreError) {
        self.send(item.slot, |p| encode_error(item.id, code, &err.to_string(), p));
    }

    fn reply(&mut self, item: &Pending, resp: &Response) {
        self.send(item.slot, |p| encode_response(item.id, resp, p));
    }
}

/// Coalesce the inbox into per-(key, operation) groups, in creation order.
/// A same-key same-op request joins its key's most recent group
/// (coalescing across interleaved other-key — and other-connection —
/// traffic); a same-key *different*-op request starts a fresh group, and a
/// checkpoint is its own group that no later request joins, so one key's
/// operation order is never reordered.
fn group(inbox: &Inbox, groups: &mut Vec<Group>, next: &mut Vec<usize>, index: &mut KeyIndex) {
    groups.clear();
    next.clear();
    index.reset(inbox.len());
    for (i, item) in inbox.items.iter().enumerate() {
        next.push(NIL);
        let single = Group { head: i, tail: i, len: 1 };
        let Some(key) = inbox.key_of(item) else {
            groups.push(single);
            continue;
        };
        let head_key = |g: usize| inbox.key_of(&inbox.items[groups[g].head]).unwrap_or("");
        let at = index.find(key, head_key);
        if let Some(g) = groups.get_mut(index.slots[at]) {
            let same_op = matches!(
                (&inbox.items[g.head].op, &item.op),
                (Op::Recommend { .. }, Op::Recommend { .. })
                    | (Op::Record { .. }, Op::Record { .. })
            );
            if same_op {
                next[g.tail] = i;
                g.tail = i;
                g.len += 1;
                continue;
            }
        }
        index.slots[at] = groups.len();
        groups.push(single);
    }
}

/// Execute every waiting request: coalesce the inbox — **across
/// connections** — into per-(key, operation) groups, run each group
/// through the engine's columnar batch entry points, and hand every encoded
/// response frame to `sink` tagged with the connection slot it belongs to.
/// Every request gets exactly one response. The inbox is empty afterwards.
pub(crate) fn execute_batch(
    engine: &Engine,
    inbox: &mut Inbox,
    scratch: &mut BatchScratch,
    sink: &mut dyn FnMut(usize, &[u8]),
) {
    let BatchScratch { groups, index, next, burst, recs, outcomes, payload, frame } = scratch;
    group(inbox, groups, next, index);
    let mut out = Responder { payload, frame, sink };
    let items = &inbox.items;

    for g in groups.iter() {
        let head = &items[g.head];
        let members = || {
            std::iter::successors(Some(g.head), |&i| Some(next[i]).filter(|&n| n != NIL))
                .map(|i| &items[i])
        };
        match &head.op {
            Op::Reject { code, message } => {
                out.send(head.slot, |p| encode_error(head.id, *code, message, p));
            }
            Op::Ping => out.reply(head, &Response::Pong),
            Op::Checkpoint { key } => {
                let mut bytes = Vec::new();
                match engine.save_shard_checkpoint(inbox.key(key), &mut bytes) {
                    Ok(()) => out.reply(head, &Response::Checkpoint { bytes }),
                    Err(e) => {
                        let code = match &e {
                            CoreError::InvalidParameter { .. } => ErrorCode::Unsupported,
                            _ => ErrorCode::Engine,
                        };
                        out.error(head, code, &e);
                    }
                }
            }
            Op::Recommend { key, .. } => {
                // Stage the coalesced burst row by row and drive the
                // columnar engine path; a ragged burst (or any batch
                // validation failure) falls through to the per-request
                // retry below.
                let key = inbox.key(key);
                burst.begin(g.len, inbox.features_of(head).len());
                let batched = members()
                    .enumerate()
                    .try_for_each(|(r, item)| burst.set_row(r, inbox.features_of(item)))
                    .and_then(|()| engine.recommend_batch_frame_into(key, burst, recs));
                match batched {
                    Ok(()) => {
                        for (item, (ticket, rec)) in members().zip(recs.iter()) {
                            out.recommendation(item, *ticket, rec);
                        }
                    }
                    Err(_) => {
                        // Batch validation is atomic; retry individually so
                        // each request gets its own verdict.
                        for item in members() {
                            match engine.recommend(key, inbox.features_of(item)) {
                                Ok((ticket, rec)) => out.recommendation(item, ticket, &rec),
                                Err(e) => out.error(item, ErrorCode::Engine, &e),
                            }
                        }
                    }
                }
            }
            Op::Record { key, .. } => {
                // Columnar frame absorption for the coalesced burst (one
                // WAL group commit, per-arm rank-k folds); bitwise
                // identical to per-request recording.
                let key = inbox.key(key);
                outcomes.clear();
                outcomes.extend(members().filter_map(|item| match item.op {
                    Op::Record { ticket, runtime, .. } => Some((Ticket::from_id(ticket), runtime)),
                    _ => None,
                }));
                match engine.record_batch_frame(key, outcomes) {
                    Ok(()) => {
                        for item in members() {
                            out.reply(item, &Response::RecordOk);
                        }
                    }
                    Err(_) => {
                        for (item, &(ticket, runtime)) in members().zip(outcomes.iter()) {
                            match engine.record(key, ticket, runtime) {
                                Ok(()) => out.reply(item, &Response::RecordOk),
                                Err(e) => out.error(item, ErrorCode::Engine, &e),
                            }
                        }
                    }
                }
            }
        }
    }
    inbox.clear();
}

#[cfg(test)]
mod tests;
