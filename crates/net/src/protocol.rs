//! Payload encoding: opcode + request ID + a fixed little-endian body.
//!
//! Every payload starts with one opcode byte and a `u64` request ID chosen
//! by the client. Responses echo the request's ID, which is what lets the
//! server answer **out of order** (coalesced batches complete per tenant
//! key, not per arrival) while clients still match replies to calls.
//!
//! | opcode | direction | body |
//! |--------|-----------|------|
//! | `0x01` recommend | → | `u16` key len, key bytes, `u16` n features, n × `f64` |
//! | `0x02` record | → | `u16` key len, key bytes, `u64` ticket, `f64` runtime |
//! | `0x03` checkpoint | → | `u16` key len, key bytes |
//! | `0x04` ping | → | — |
//! | `0x81` recommend ok | ← | `u64` ticket, `u32` arm, `u8` explored, `f64` predicted runtime, `f64` resource cost, `u16` name len, name bytes |
//! | `0x82` record ok | ← | — |
//! | `0x83` checkpoint ok | ← | `u32` len, checkpoint bytes |
//! | `0x84` pong | ← | — |
//! | `0x7F` error | ← | `u8` code ([`ErrorCode`]), `u16` message len, message bytes |
//!
//! All integers and floats are little-endian; floats travel as raw IEEE-754
//! bits, so a recommendation stream over TCP is **bitwise identical** to
//! the in-process one.

use crate::error::{ErrorCode, NetError, NetResult};

/// Opcode: client asks for a recommendation.
pub const REQ_RECOMMEND: u8 = 0x01;
/// Opcode: client reports an observed runtime for a ticket.
pub const REQ_RECORD: u8 = 0x02;
/// Opcode: client asks for a serialized checkpoint of one tenant key.
pub const REQ_CHECKPOINT: u8 = 0x03;
/// Opcode: liveness probe.
pub const REQ_PING: u8 = 0x04;
/// Opcode: successful recommend response.
pub const RESP_RECOMMEND: u8 = 0x81;
/// Opcode: successful record response.
pub const RESP_RECORD: u8 = 0x82;
/// Opcode: successful checkpoint response.
pub const RESP_CHECKPOINT: u8 = 0x83;
/// Opcode: ping response.
pub const RESP_PONG: u8 = 0x84;
/// Opcode: typed error response.
pub const RESP_ERROR: u8 = 0x7F;

/// The request ID a server uses when the real one is unrecoverable (the
/// frame failed its CRC, so nothing in the payload can be trusted).
pub const UNKNOWN_REQUEST_ID: u64 = u64::MAX;

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Recommend hardware for one workflow context of a tenant key.
    Recommend {
        /// Tenant key (engine shard).
        key: String,
        /// Workflow features.
        features: Vec<f64>,
    },
    /// Record the observed runtime of an in-flight ticket.
    Record {
        /// Tenant key (engine shard).
        key: String,
        /// Ticket ID from a previous recommend response.
        ticket: u64,
        /// Observed runtime in seconds.
        runtime: f64,
    },
    /// Fetch a serialized checkpoint of a key's shard.
    Checkpoint {
        /// Tenant key (engine shard).
        key: String,
    },
    /// Liveness probe.
    Ping,
}

/// A request decoded in place: keys borrow the payload and a recommend's
/// features stay as their raw little-endian bytes, so decoding copies and
/// allocates nothing. [`decode_request`] is the owned form.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RequestRef<'a> {
    /// See [`Request::Recommend`]; `features` holds `n × 8` bytes.
    Recommend { key: &'a str, features: &'a [u8] },
    /// See [`Request::Record`].
    Record { key: &'a str, ticket: u64, runtime: f64 },
    /// See [`Request::Checkpoint`].
    Checkpoint { key: &'a str },
    /// See [`Request::Ping`].
    Ping,
}

/// The values of a recommend's raw feature bytes (see [`RequestRef`]).
pub(crate) fn features(raw: &[u8]) -> impl Iterator<Item = f64> + '_ {
    raw.chunks_exact(8).map(|b| {
        f64::from_bits(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    })
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A recommendation plus the ticket that must be recorded (or dropped).
    Recommend {
        /// Ticket to record the observed runtime against.
        ticket: u64,
        /// Chosen arm index.
        arm: u32,
        /// Whether the round was an exploration draw.
        explored: bool,
        /// Predicted runtime (NaN when the arm has no fit yet).
        predicted_runtime: f64,
        /// The arm's configured resource cost.
        resource_cost: f64,
        /// The arm's display name.
        name: String,
    },
    /// The record was absorbed.
    RecordOk,
    /// A serialized shard checkpoint.
    Checkpoint {
        /// The checkpoint file bytes (same format `save_shard_checkpoint`
        /// writes to disk).
        bytes: Vec<u8>,
    },
    /// Liveness answer.
    Pong,
    /// The request failed; the connection stays usable unless the code is
    /// [`ErrorCode::Oversized`].
    Error {
        /// Typed error class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

fn put_str(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encode `(id, request)` into `out` (cleared first). The result is a
/// payload — wrap it with [`crate::frame::encode_frame`] before sending.
pub fn encode_request(id: u64, req: &Request, out: &mut Vec<u8>) {
    out.clear();
    match req {
        Request::Recommend { key, features } => {
            out.push(REQ_RECOMMEND);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(key, out);
            out.extend_from_slice(&(features.len() as u16).to_le_bytes());
            for f in features {
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        }
        Request::Record { key, ticket, runtime } => {
            out.push(REQ_RECORD);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(key, out);
            out.extend_from_slice(&ticket.to_le_bytes());
            out.extend_from_slice(&runtime.to_bits().to_le_bytes());
        }
        Request::Checkpoint { key } => {
            out.push(REQ_CHECKPOINT);
            out.extend_from_slice(&id.to_le_bytes());
            put_str(key, out);
        }
        Request::Ping => {
            out.push(REQ_PING);
            out.extend_from_slice(&id.to_le_bytes());
        }
    }
}

/// Encode a recommend response from borrowed parts into `out` (cleared
/// first): the server encodes straight from the engine's recommendation,
/// with no owned name.
#[allow(clippy::too_many_arguments)]
pub(crate) fn encode_recommend(
    id: u64,
    ticket: u64,
    arm: u32,
    explored: bool,
    predicted_runtime: f64,
    resource_cost: f64,
    name: &str,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.push(RESP_RECOMMEND);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&ticket.to_le_bytes());
    out.extend_from_slice(&arm.to_le_bytes());
    out.push(u8::from(explored));
    out.extend_from_slice(&predicted_runtime.to_bits().to_le_bytes());
    out.extend_from_slice(&resource_cost.to_bits().to_le_bytes());
    put_str(name, out);
}

/// Encode an error response from borrowed parts into `out` (cleared first).
pub(crate) fn encode_error(id: u64, code: ErrorCode, message: &str, out: &mut Vec<u8>) {
    out.clear();
    out.push(RESP_ERROR);
    out.extend_from_slice(&id.to_le_bytes());
    out.push(code as u8);
    put_str(message, out);
}

/// Encode `(id, response)` into `out` (cleared first).
pub fn encode_response(id: u64, resp: &Response, out: &mut Vec<u8>) {
    out.clear();
    match resp {
        Response::Recommend { ticket, arm, explored, predicted_runtime, resource_cost, name } => {
            encode_recommend(
                id,
                *ticket,
                *arm,
                *explored,
                *predicted_runtime,
                *resource_cost,
                name,
                out,
            );
        }
        Response::RecordOk => {
            out.push(RESP_RECORD);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Checkpoint { bytes } => {
            out.push(RESP_CHECKPOINT);
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
        Response::Pong => {
            out.push(RESP_PONG);
            out.extend_from_slice(&id.to_le_bytes());
        }
        Response::Error { code, message } => encode_error(id, *code, message, out),
    }
}

/// A little-endian payload cursor; every read is bounds-checked so corrupt
/// (but CRC-clean, e.g. maliciously crafted) payloads decode to errors, not
/// panics.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> NetResult<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len()).ok_or_else(|| {
            NetError::Protocol(format!(
                "payload truncated: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len()
            ))
        })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> NetResult<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> NetResult<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> NetResult<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> NetResult<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    fn f64(&mut self) -> NetResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> NetResult<&'a str> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map_err(|_| NetError::Protocol("string field is not UTF-8".into()))
    }

    fn finish(&self) -> NetResult<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(NetError::Protocol(format!(
                "{} trailing bytes after a complete body",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// Decode a request payload into `(id, request)`.
///
/// # Errors
/// [`NetError::Protocol`] on an unknown opcode, a truncated body, trailing
/// garbage, or a non-UTF-8 key.
pub fn decode_request(payload: &[u8]) -> NetResult<(u64, Request)> {
    let (id, req) = decode_request_ref(payload)?;
    let req = match req {
        RequestRef::Recommend { key, features: raw } => {
            Request::Recommend { key: key.to_owned(), features: features(raw).collect() }
        }
        RequestRef::Record { key, ticket, runtime } => {
            Request::Record { key: key.to_owned(), ticket, runtime }
        }
        RequestRef::Checkpoint { key } => Request::Checkpoint { key: key.to_owned() },
        RequestRef::Ping => Request::Ping,
    };
    Ok((id, req))
}

/// Decode a request payload into `(id, request)` in place (see
/// [`RequestRef`]); accepts and rejects exactly what [`decode_request`]
/// does, with the same error messages.
pub(crate) fn decode_request_ref(payload: &[u8]) -> NetResult<(u64, RequestRef<'_>)> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let id = c.u64()?;
    let req = match op {
        REQ_RECOMMEND => {
            let key = c.str()?;
            let n = c.u16()? as usize;
            let start = c.pos;
            // One float at a time, so a truncated body reports the same
            // offset the owned decoder always has.
            for _ in 0..n {
                c.take(8)?;
            }
            RequestRef::Recommend { key, features: &payload[start..c.pos] }
        }
        REQ_RECORD => {
            let key = c.str()?;
            let ticket = c.u64()?;
            let runtime = c.f64()?;
            RequestRef::Record { key, ticket, runtime }
        }
        REQ_CHECKPOINT => RequestRef::Checkpoint { key: c.str()? },
        REQ_PING => RequestRef::Ping,
        other => return Err(NetError::Protocol(format!("unknown request opcode {other:#04x}"))),
    };
    c.finish()?;
    Ok((id, req))
}

/// Decode a response payload into `(id, response)`.
///
/// # Errors
/// [`NetError::Protocol`] on an unknown opcode, a truncated body, trailing
/// garbage, an unknown error code, or a non-UTF-8 string field.
pub fn decode_response(payload: &[u8]) -> NetResult<(u64, Response)> {
    let mut c = Cursor::new(payload);
    let op = c.u8()?;
    let id = c.u64()?;
    let resp = match op {
        RESP_RECOMMEND => Response::Recommend {
            ticket: c.u64()?,
            arm: c.u32()?,
            explored: c.u8()? != 0,
            predicted_runtime: c.f64()?,
            resource_cost: c.f64()?,
            name: c.str()?.to_owned(),
        },
        RESP_RECORD => Response::RecordOk,
        RESP_CHECKPOINT => {
            let len = c.u32()? as usize;
            Response::Checkpoint { bytes: c.take(len)?.to_vec() }
        }
        RESP_PONG => Response::Pong,
        RESP_ERROR => {
            let code = ErrorCode::from_u8(c.u8()?)
                .ok_or_else(|| NetError::Protocol("unknown error code".into()))?;
            Response::Error { code, message: c.str()?.to_owned() }
        }
        other => return Err(NetError::Protocol(format!("unknown response opcode {other:#04x}"))),
    };
    c.finish()?;
    Ok((id, resp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut buf = Vec::new();
        let cases = vec![
            Request::Ping,
            Request::Recommend { key: "wf/α".into(), features: vec![1.5, -0.0, f64::NAN] },
            Request::Record { key: "wf".into(), ticket: 42, runtime: 12.25 },
            Request::Checkpoint { key: String::new() },
        ];
        for (i, req) in cases.into_iter().enumerate() {
            encode_request(i as u64 * 7, &req, &mut buf);
            let (id, back) = decode_request(&buf).unwrap();
            assert_eq!(id, i as u64 * 7);
            match (&req, &back) {
                // NaN != NaN: compare bit patterns for the float-carrying case.
                (
                    Request::Recommend { features: a, .. },
                    Request::Recommend { features: b, .. },
                ) => {
                    let a: Vec<u64> = a.iter().map(|f| f.to_bits()).collect();
                    let b: Vec<u64> = b.iter().map(|f| f.to_bits()).collect();
                    assert_eq!(a, b, "float bits must survive the wire");
                }
                _ => assert_eq!(req, back),
            }
        }
    }

    #[test]
    fn response_round_trips() {
        let mut buf = Vec::new();
        let cases = vec![
            Response::Pong,
            Response::RecordOk,
            Response::Recommend {
                ticket: 9,
                arm: 2,
                explored: true,
                predicted_runtime: 31.5,
                resource_cost: 1.0,
                name: "a100".into(),
            },
            Response::Checkpoint { bytes: vec![0, 1, 2, 255] },
            Response::Error { code: ErrorCode::Engine, message: "unknown ticket 7".into() },
        ];
        for (i, resp) in cases.into_iter().enumerate() {
            encode_response(i as u64, &resp, &mut buf);
            let (id, back) = decode_response(&buf).unwrap();
            assert_eq!(id, i as u64);
            assert_eq!(resp, back);
        }
    }

    #[test]
    fn malformed_payloads_decode_to_errors_not_panics() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[0xEE, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        // Truncated recommend: declares 3 features, carries none.
        let mut buf = Vec::new();
        encode_request(1, &Request::Recommend { key: "k".into(), features: vec![1.0] }, &mut buf);
        buf.truncate(buf.len() - 4);
        assert!(decode_request(&buf).is_err());
        // Trailing garbage after a complete body.
        let mut buf = Vec::new();
        encode_request(1, &Request::Ping, &mut buf);
        buf.push(0);
        assert!(decode_request(&buf).is_err());
        // A declared string length far past the buffer must not allocate/panic.
        let mut buf = vec![REQ_CHECKPOINT];
        buf.extend_from_slice(&1u64.to_le_bytes());
        buf.extend_from_slice(&u16::MAX.to_le_bytes());
        buf.push(b'x');
        assert!(decode_request(&buf).is_err());
    }
}
