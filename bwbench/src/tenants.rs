//! `paper-tenants`: TCP loopback to a reactor `NetServer` (one loop
//! thread), driven by one generator thread over two connections; every
//! tenant key is pinned to one connection.
//!
//! Each episode sets up its own engine, server and connections and runs
//! two phases. Phase 1 is a closed loop of pipelined bursts — a burst's
//! recommends, then their records — and gives throughput and quality.
//! Phase 2 is an open loop at a fixed offered rate: each record is due a
//! fixed delay after its recommend's reply, and latency is timed from the
//! due time. Requests
//! are encoded with the program's own codec into buffers allocated before
//! the clock; replies are parsed in place, so the generator allocates
//! nothing while timed.

use crate::inproc::{
    check_quality, put_e2e, put_host, put_overhead, put_tail, timed_setups, EpisodeLog, EPISODES,
    TRACE_BLOCK_MS,
};
use crate::report::{self, Gauge, Ledger, Metrics, Series};
use crate::scenario::{self, Digest, Quality, Scenario};
use crate::trace::{Tracer, NONE};
use crate::{ladder, Args};
use banditware_core::{FeatureFrame, Ticket};
use banditware_net::frame::{encode_frame, parse_frame, FrameEvent};
use banditware_net::protocol::{
    decode_response, encode_request, RESP_PONG, RESP_RECOMMEND, RESP_RECORD,
};
use banditware_net::{NetServer, Request, Response, ServerConfig, ServerMode};
use banditware_serve::Engine;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the open-loop phase. With its records the server is
/// busy a sixth of the time or less, so latency is mostly service time: at
/// 20 000/s the server ran at two thirds of the host's capacity and, when
/// a shared host slowed, queueing pushed the percentiles up far more than
/// the slowdown itself.
const OFFERED_PER_S: f64 = 5_000.0;
/// A gauge slice (about 80 µs) runs in the open loop only when no request
/// falls due within this many nanoseconds.
const GAUGE_CLEAR_NS: u64 = 150_000;
/// Delay between a recommend's reply and its record being due.
const RECORD_DELAY_NS: u64 = 5_000_000;
/// Latency samples kept per kind (allocated before the clock).
const MAX_SAMPLES: usize = 1 << 20;
/// Open-loop requests in flight, at most (a ring indexed by request id).
const RING: usize = 1 << 16;

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// One server reply, parsed in place.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Reply {
    Recommend { id: u64, ticket: u64, arm: usize, explored: bool, predicted: f64 },
    RecordOk { id: u64 },
    Pong { id: u64 },
    Other { id: u64, op: u8 },
}

impl Reply {
    fn id(&self) -> u64 {
        match *self {
            Reply::Recommend { id, .. }
            | Reply::RecordOk { id }
            | Reply::Pong { id }
            | Reply::Other { id, .. } => id,
        }
    }
}

fn le64(p: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(p.get(at..at + 8)?.try_into().ok()?))
}

/// Parse a response payload without allocating (the layout of
/// `net::protocol::encode_response`; checked against `decode_response` on
/// the first reply of every run).
fn parse_reply(p: &[u8]) -> Option<Reply> {
    let op = *p.first()?;
    let id = le64(p, 1)?;
    Some(match op {
        RESP_RECOMMEND => Reply::Recommend {
            id,
            ticket: le64(p, 9)?,
            arm: u32::from_le_bytes(p.get(17..21)?.try_into().ok()?) as usize,
            explored: *p.get(21)? != 0,
            predicted: f64::from_bits(le64(p, 22)?),
        },
        RESP_RECORD => Reply::RecordOk { id },
        RESP_PONG => Reply::Pong { id },
        op => Reply::Other { id, op },
    })
}

/// One client connection with its own write queue and read buffer.
struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    sent: usize,
    inbuf: Vec<u8>,
    lo: usize,
    hi: usize,
    /// Where the last parsed reply's payload sits in `inbuf`.
    last: std::ops::Range<usize>,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> Res<Conn> {
        let stream = TcpStream::connect(addr).map_err(err)?;
        stream.set_nodelay(true).map_err(err)?;
        // Nonblocking throughout: the generator polls and yields rather
        // than sleeping in the kernel, whose wake-ups on a shared host
        // cost more than the requests themselves.
        stream.set_nonblocking(true).map_err(err)?;
        let mut c = Conn {
            stream,
            out: Vec::with_capacity(1 << 20),
            sent: 0,
            inbuf: vec![0; 1 << 20],
            lo: 0,
            hi: 0,
            last: 0..0,
        };
        let mut payload = Vec::new();
        c.queue(0, &Request::Ping, &mut payload);
        c.flush()?;
        match c.wait_reply()? {
            Reply::Pong { id: 0 } => Ok(c),
            other => Err(format!("connect: expected a pong, got {other:?}")),
        }
    }

    fn queue(&mut self, id: u64, req: &Request, payload: &mut Vec<u8>) {
        encode_request(id, req, payload);
        encode_frame(payload, &mut self.out);
    }

    /// Write everything queued.
    fn flush(&mut self) -> Res<()> {
        while !self.out.is_empty() {
            self.flush_some()?;
            if !self.out.is_empty() {
                std::thread::yield_now();
            }
        }
        Ok(())
    }

    /// Write what the socket takes now.
    fn flush_some(&mut self) -> Res<()> {
        while self.sent < self.out.len() {
            match self.stream.write(&self.out[self.sent..]) {
                Ok(n) => self.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(err(e)),
            }
        }
        self.out.clear();
        self.sent = 0;
        Ok(())
    }

    /// Read once; `false` when the socket had nothing.
    fn fill(&mut self) -> Res<bool> {
        if self.lo == self.hi {
            (self.lo, self.hi) = (0, 0);
        } else if self.hi > self.inbuf.len() / 2 {
            self.inbuf.copy_within(self.lo..self.hi, 0);
            (self.lo, self.hi) = (0, self.hi - self.lo);
        }
        match self.stream.read(&mut self.inbuf[self.hi..]) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(n) => {
                self.hi += n;
                Ok(true)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                Ok(false)
            }
            Err(e) => Err(err(e)),
        }
    }

    /// The next complete reply already buffered, if any.
    fn next_reply(&mut self) -> Res<Option<Reply>> {
        match parse_frame(&self.inbuf[self.lo..self.hi]).map_err(err)? {
            FrameEvent::Incomplete => Ok(None),
            FrameEvent::CorruptPayload { .. } => Err("reply failed its CRC".into()),
            FrameEvent::Payload { start, end, consumed } => {
                self.last = self.lo + start..self.lo + end;
                let reply = parse_reply(&self.inbuf[self.last.clone()]).ok_or("truncated reply")?;
                self.lo += consumed;
                Ok(Some(reply))
            }
        }
    }

    fn wait_reply(&mut self) -> Res<Reply> {
        loop {
            if let Some(r) = self.next_reply()? {
                return Ok(r);
            }
            if !self.fill()? {
                std::thread::yield_now();
            }
        }
    }
}

fn set_recommend(req: &mut Request, k: &str, x: &[f64]) {
    if let Request::Recommend { key, features } = req {
        key.clear();
        key.push_str(k);
        features.clear();
        features.extend_from_slice(x);
    }
}

fn set_record(req: &mut Request, k: &str, t: u64, y: f64) {
    if let Request::Record { key, ticket, runtime } = req {
        key.clear();
        key.push_str(k);
        *ticket = t;
        *runtime = y;
    }
}

/// Reusable requests and payload buffer.
struct Encoder {
    recommend: Request,
    record: Request,
    payload: Vec<u8>,
}

impl Encoder {
    fn new(m: usize) -> Self {
        Encoder {
            recommend: Request::Recommend {
                key: String::with_capacity(64),
                features: Vec::with_capacity(m),
            },
            record: Request::Record { key: String::with_capacity(64), ticket: 0, runtime: 0.0 },
            payload: Vec::with_capacity(64 + 8 * m),
        }
    }
}

struct ClosedOut {
    bursts: usize,
    rounds: u64,
    requests: u64,
    failed: u64,
    gauge: Gauge,
    quality: Quality,
    digest: Digest,
    traced_split: (f64, f64),
}

/// Phase 1: closed-loop bursts, timed by `gauge` from a fresh start.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    sc: &Scenario,
    conns: &mut [Conn; 2],
    enc: &mut Encoder,
    seconds: f64,
    mut gauge: Gauge,
    t: &mut Tracer,
    ledger: &mut Ledger,
) -> ClosedOut {
    let b = sc.sizes.batch;
    let tol = sc.tolerance();
    let mut slots: Vec<Option<(u64, usize, bool, f64)>> = vec![None; b];
    gauge.reset();
    let mut out = ClosedOut {
        bursts: 0,
        rounds: 0,
        requests: 0,
        failed: 0,
        gauge,
        quality: Quality::default(),
        digest: Digest::default(),
        traced_split: (0.0, 0.0),
    };
    let traced = t.on();
    let mut next_id = 1u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut tracing, mut block_rounds, mut block_at) = (false, 0u64, start);
    let mut split = [(0u64, 0.0f64); 2];
    let mut checked_codec = false;
    'bursts: loop {
        let now = Instant::now();
        if out.bursts >= sc.sizes.quality_steps && now >= deadline {
            break;
        }
        out.gauge.tick(now);
        if traced {
            let on = ((now - start).as_millis() / TRACE_BLOCK_MS) % 2 == 1;
            if on != tracing {
                let side = usize::from(tracing);
                split[side].0 += out.rounds - block_rounds;
                split[side].1 += (now - block_at).as_secs_f64();
                (tracing, block_rounds, block_at) = (on, out.rounds, now);
            }
        }
        let span = if tracing { t.begin("tcp.burst", NONE, out.bursts as u64) } else { NONE };
        let row0 = sc.step_start(out.bursts);
        // Recommends.
        let base = next_id;
        let mut expect = [0usize; 2];
        for (i, slot) in slots.iter_mut().enumerate() {
            let r = row0 + i;
            let key = sc.pool.key(r);
            set_recommend(&mut enc.recommend, &sc.keys[key], sc.pool.row(r));
            conns[key & 1].queue(base + i as u64, &enc.recommend, &mut enc.payload);
            expect[key & 1] += 1;
            *slot = None;
        }
        next_id += b as u64;
        out.requests += b as u64;
        for ci in 0..2 {
            if let Err(e) = conns[ci].flush() {
                ledger.mismatch(format!("closed loop: write: {e}"));
                out.failed += expect[ci] as u64;
                break 'bursts;
            }
        }
        for ci in 0..2 {
            for _ in 0..expect[ci] {
                let reply = match conns[ci].wait_reply() {
                    Ok(r) => r,
                    Err(e) => {
                        ledger.mismatch(format!("closed loop: read: {e}"));
                        out.failed += 1;
                        break 'bursts;
                    }
                };
                if !checked_codec {
                    // The in-place parser must agree with the program's own
                    // decoder (once per run, off the hot path's budget).
                    checked_codec = true;
                    let payload = &conns[ci].inbuf[conns[ci].last.clone()];
                    let same = matches!((decode_response(payload), reply),
                        (Ok((id, Response::Recommend { ticket, arm, explored, predicted_runtime, .. })),
                         Reply::Recommend { id: i2, ticket: t2, arm: a2, explored: e2, predicted: p2 })
                        if id == i2 && ticket == t2 && arm as usize == a2 && explored == e2
                            && predicted_runtime.to_bits() == p2.to_bits());
                    ledger.check(same, || {
                        "in-place reply parser disagrees with decode_response".into()
                    });
                }
                let Reply::Recommend { id, ticket, arm, explored, predicted } = reply else {
                    ledger
                        .mismatch(format!("closed loop: expected a recommendation, got {reply:?}"));
                    out.failed += 1;
                    break 'bursts;
                };
                let i = id.wrapping_sub(base) as usize;
                if i >= b || slots[i].is_some() || sc.pool.key(row0 + i) & 1 != ci {
                    ledger.mismatch(format!(
                        "closed loop: reply id {id} matches no request of burst {}",
                        out.bursts
                    ));
                    out.failed += 1;
                    break 'bursts;
                }
                slots[i] = Some((ticket, arm, explored, predicted));
            }
        }
        // Records.
        let base = next_id;
        for (i, slot) in slots.iter().enumerate() {
            let r = row0 + i;
            let key = sc.pool.key(r);
            let (ticket, arm, explored, predicted) = slot.expect("every slot was filled above");
            let y = sc.pool.realized(r, arm);
            if out.bursts < sc.sizes.quality_steps {
                out.quality.add(sc.pool.correct(r, arm, tol), predicted, y);
            }
            out.digest.round(ticket, arm, explored, predicted);
            set_record(&mut enc.record, &sc.keys[key], ticket, y);
            conns[key & 1].queue(base + i as u64, &enc.record, &mut enc.payload);
        }
        next_id += b as u64;
        out.requests += b as u64;
        for c in conns.iter_mut() {
            if let Err(e) = c.flush() {
                ledger.mismatch(format!("closed loop: write: {e}"));
                out.failed += 1;
                break 'bursts;
            }
        }
        for ci in 0..2 {
            for _ in 0..expect[ci] {
                match conns[ci].wait_reply() {
                    Ok(Reply::RecordOk { id }) if id.wrapping_sub(base) < b as u64 => {}
                    other => {
                        ledger
                            .mismatch(format!("closed loop: expected a record ack, got {other:?}"));
                        out.failed += 1;
                        break 'bursts;
                    }
                }
            }
        }
        t.end(span);
        out.rounds += b as u64;
        out.bursts += 1;
    }
    let end = Instant::now();
    out.gauge.close(end);
    if traced {
        let side = usize::from(tracing);
        split[side].0 += out.rounds - block_rounds;
        split[side].1 += (end - block_at).as_secs_f64();
        out.traced_split = (split[0].0 as f64 / split[0].1, split[1].0 as f64 / split[1].1);
    }
    out
}

#[derive(Clone, Copy)]
struct Pending {
    id: u64,
    due_ns: u64,
    row: u32,
    recommend: bool,
    span: u32,
}

struct OpenOut {
    rounds: u64,
    requests: u64,
    failed: u64,
    recommend_us: Series,
    record_us: Series,
    gauge: Gauge,
    late_us: Series,
    in_flight_peak: usize,
}

impl OpenOut {
    fn new(gauge: Gauge) -> Self {
        OpenOut {
            rounds: 0,
            requests: 0,
            failed: 0,
            recommend_us: Series::with_capacity(MAX_SAMPLES),
            record_us: Series::with_capacity(MAX_SAMPLES),
            gauge,
            late_us: Series::with_capacity(MAX_SAMPLES),
            in_flight_peak: 0,
        }
    }
}

/// Phase 2: open loop at [`OFFERED_PER_S`], starting at pool row `row0`.
/// `o`'s buffers are reused; its counts start from zero.
#[allow(clippy::too_many_arguments)]
fn open_loop(
    sc: &Scenario,
    conns: &mut [Conn; 2],
    enc: &mut Encoder,
    row0: usize,
    seconds: f64,
    t: &mut Tracer,
    ledger: &mut Ledger,
    o: &mut OpenOut,
) -> Res<()> {
    (o.rounds, o.requests, o.failed, o.in_flight_peak) = (0, 0, 0, 0);
    o.recommend_us.clear();
    o.record_us.clear();
    o.late_us.clear();
    o.gauge.reset();
    let empty = Pending { id: u64::MAX, due_ns: 0, row: 0, recommend: false, span: NONE };
    let mut ring = vec![empty; RING];
    let mut records: VecDeque<(u64, u32, u64, usize)> = VecDeque::with_capacity(RING);
    let period_ns = 1e9 / OFFERED_PER_S;
    let end_ns = (seconds * 1e9) as u64;
    let give_up_ns = end_ns + 10_000_000_000;
    let mut next_id = 1u64 << 40;
    let mut issued = 0u64;
    let mut outstanding = 0usize;
    let mut in_flight = 0usize;
    let start = Instant::now();
    let due_of = |n: u64| 1_000_000 + (n as f64 * period_ns) as u64;
    loop {
        let now = start.elapsed().as_nanos() as u64;
        while due_of(issued) <= now && due_of(issued) < end_ns {
            let due = due_of(issued);
            let r = (row0 + issued as usize) % sc.pool.len();
            let key = sc.pool.key(r);
            let slot = &mut ring[(next_id as usize) % RING];
            if slot.id != u64::MAX {
                return Err("open loop: more requests in flight than the ring holds".into());
            }
            let span = t.begin("tcp.recommend", NONE, next_id);
            *slot = Pending { id: next_id, due_ns: due, row: r as u32, recommend: true, span };
            set_recommend(&mut enc.recommend, &sc.keys[key], sc.pool.row(r));
            conns[key & 1].queue(next_id, &enc.recommend, &mut enc.payload);
            o.late_us.push((now - due) as f64 / 1e3, o.gauge.t(start + Duration::from_nanos(now)));
            next_id += 1;
            issued += 1;
            outstanding += 1;
        }
        while records.front().is_some_and(|f| f.0 <= now) {
            let (due, r, ticket, arm) = records.pop_front().expect("front checked above");
            let key = sc.pool.key(r as usize);
            let slot = &mut ring[(next_id as usize) % RING];
            if slot.id != u64::MAX {
                return Err("open loop: more requests in flight than the ring holds".into());
            }
            let span = t.begin("tcp.record", NONE, next_id);
            *slot = Pending { id: next_id, due_ns: due, row: r, recommend: false, span };
            set_record(&mut enc.record, &sc.keys[key], ticket, sc.pool.realized(r as usize, arm));
            conns[key & 1].queue(next_id, &enc.record, &mut enc.payload);
            o.late_us.push((now - due) as f64 / 1e3, o.gauge.t(start + Duration::from_nanos(now)));
            next_id += 1;
            outstanding += 1;
        }
        for c in conns.iter_mut() {
            c.flush_some()?;
        }
        for c in conns.iter_mut() {
            loop {
                let reply = match c.next_reply()? {
                    Some(r) => r,
                    None if c.fill()? => continue,
                    None => break,
                };
                let at = start.elapsed().as_nanos() as u64;
                let id = reply.id();
                let slot = &mut ring[(id as usize) % RING];
                if slot.id != id {
                    ledger
                        .mismatch(format!("open loop: reply id {id} matches no request in flight"));
                    o.failed += 1;
                    return Ok(());
                }
                let p = std::mem::replace(slot, empty);
                t.end(p.span);
                outstanding -= 1;
                o.requests += 1;
                let us = at.saturating_sub(p.due_ns) as f64 / 1e3;
                match reply {
                    Reply::Recommend { ticket, arm, .. } if p.recommend => {
                        o.recommend_us.push(us, o.gauge.t(start + Duration::from_nanos(at)));
                        records.push_back((at + RECORD_DELAY_NS, p.row, ticket, arm));
                        in_flight += 1;
                        o.in_flight_peak = o.in_flight_peak.max(in_flight);
                    }
                    Reply::RecordOk { .. } if !p.recommend => {
                        o.record_us.push(us, o.gauge.t(start + Duration::from_nanos(at)));
                        in_flight -= 1;
                        o.rounds += 1;
                    }
                    other => {
                        ledger.mismatch(format!("open loop: unexpected reply {other:?}"));
                        o.failed += 1;
                        return Ok(());
                    }
                }
            }
        }
        let next_due = records.front().map_or(u64::MAX, |f| f.0).min(due_of(issued));
        if outstanding == 0 && next_due > now + GAUGE_CLEAR_NS {
            // Nothing in flight and nothing due before the slice ends: the
            // gauge delays no request.
            o.gauge.tick(start + Duration::from_nanos(now));
        }
        // On a 2-core host the server's loop thread can share this core: a
        // pure spin starves it into millisecond stalls, a yield does not.
        std::thread::yield_now();
        if now >= end_ns && outstanding == 0 && records.is_empty() {
            break;
        }
        if now >= give_up_ns {
            ledger.mismatch(format!(
                "open loop: {outstanding} requests unanswered 10 s after the phase"
            ));
            o.failed += outstanding as u64;
            break;
        }
    }
    o.gauge.close(Instant::now());
    Ok(())
}

/// Replay `bursts` closed-loop bursts into a fresh engine restored from
/// the same checkpoints. Entry `b` is the digest of the stream after `b`
/// bursts; each episode's TCP stream must match its prefix bit for bit.
fn replay_digests(sc: &Scenario, ckpts: &[Vec<u8>], bursts: usize) -> Res<Vec<Digest>> {
    let engine = sc.builder().build().map_err(err)?;
    scenario::restore_all(&engine, &sc.keys, ckpts).map_err(err)?;
    let mut digest = Digest::default();
    let mut prefixes = Vec::with_capacity(bursts + 1);
    prefixes.push(digest);
    let mut frame = FeatureFrame::new();
    let b = sc.sizes.batch;
    let mut served = vec![(0u64, 0usize, false, 0.0f64); b];
    for step in 0..bursts {
        let row0 = sc.step_start(step);
        let calls = sc.calls(step);
        for c in &calls {
            sc.frame(&c.rows, &mut frame);
            let recs = engine.recommend_batch_frame(&sc.keys[c.key], &frame).map_err(err)?;
            for ((ticket, rec), &r) in recs.iter().zip(&c.rows) {
                served[r - row0] = (ticket.id(), rec.arm, rec.explored, rec.predicted_runtime);
            }
        }
        for c in &calls {
            let outcomes: Vec<(Ticket, f64)> = c
                .rows
                .iter()
                .map(|&r| {
                    (Ticket::from_id(served[r - row0].0), sc.pool.realized(r, served[r - row0].1))
                })
                .collect();
            engine.record_batch_frame(&sc.keys[c.key], &outcomes).map_err(err)?;
        }
        for &(ticket, arm, explored, predicted) in &served {
            digest.round(ticket, arm, explored, predicted);
        }
        prefixes.push(digest);
    }
    Ok(prefixes)
}

struct Served {
    engine: Arc<Engine>,
    server: NetServer,
    conns: [Conn; 2],
}

pub fn run(
    args: &Args,
    work: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    ledger: &mut Ledger,
) -> Res<()> {
    let sc = scenario::paper_tenants(args.seed, args.smoke);
    let ckpts = sc.checkpoints()?;
    let mut enc = Encoder::new(sc.m());
    let serve = || -> Res<Served> {
        let engine = Arc::new(sc.builder().build().map_err(err)?);
        scenario::restore_all(&engine, &sc.keys, &ckpts).map_err(err)?;
        let config = ServerConfig::default().with_mode(ServerMode::Reactor).with_reactor_threads(1);
        let server = NetServer::bind(Arc::clone(&engine), "127.0.0.1:0", config).map_err(err)?;
        let conns = [Conn::connect(server.local_addr())?, Conn::connect(server.local_addr())?];
        Ok(Served { engine, server, conns })
    };
    let setup_s = timed_setups(&sc, args.smoke, &mut Gauge::loopback()?, serve)?;
    let episodes = if args.trace { 1 } else { EPISODES };
    // Each episode: a closed-loop phase, then an open-loop phase.
    let phase_s = args.seconds / episodes as f64 / 2.0;
    let mut open = OpenOut::new(Gauge::loopback()?);
    let mut log = EpisodeLog::default();
    let mut quality = None;
    let mut streams = Vec::with_capacity(episodes);
    let mut last = None;
    let s0 = report::spin_mops();
    for _ in 0..episodes {
        let Served { engine, mut server, mut conns } = serve()?;
        let base = engine.stats().recorded_rounds;
        let gauge = Gauge::loopback()?;
        let closed = closed_loop(&sc, &mut conns, &mut enc, phase_s, gauge, t, ledger);
        ledger.phase("closed-loop", closed.requests, closed.failed);
        let row0 = sc.step_start(closed.bursts);
        let served = open_loop(&sc, &mut conns, &mut enc, row0, phase_s, t, ledger, &mut open);
        let stats = engine.stats();
        drop(conns);
        server.shutdown();
        served?;
        ledger.phase("open-loop", open.requests, open.failed);
        let rounds = closed.rounds + open.rounds;
        ledger
            .check(stats.in_flight == 0, || format!("{} rounds still in flight", stats.in_flight));
        ledger.check(stats.recorded_rounds == base + rounds as usize, || {
            format!(
                "engine recorded {} rounds, expected {}",
                stats.recorded_rounds,
                base + rounds as usize
            )
        });
        check_quality(ledger, &sc, &closed.quality, &mut quality);
        streams.push((closed.bursts, closed.digest));
        log.push(
            sc.name,
            closed.rounds,
            &closed.gauge,
            &open.recommend_us,
            &open.record_us,
            &open.gauge,
        );
        last = Some(closed);
    }
    let s1 = report::spin_mops();
    let longest = streams.iter().map(|s| s.0).max().unwrap_or(0);
    let replayed = replay_digests(&sc, &ckpts, longest)?;
    ledger.phase("in-process-replay", (longest * sc.sizes.batch) as u64, 0);
    for (bursts, digest) in &streams {
        ledger.check(replayed[*bursts] == *digest, || {
            format!(
                "TCP stream digest {digest:?} after {bursts} bursts != in-process replay {:?}",
                replayed[*bursts]
            )
        });
    }
    let quality = quality.unwrap_or_default();
    eprintln!("{}: accuracy {:.4}, host {s0:.0}/{s1:.0} Mops", sc.name, quality.accuracy());
    if !args.trace {
        put_e2e(m, setup_s, &log, &quality);
        return Ok(());
    }
    let closed = last.ok_or("no episode ran")?;
    let spans = t.len();
    ladder::run(&sc, &ckpts, &work.join("ladder-wal"), t, m, ledger)?;
    let late = open.late_us.sorted();
    m.put("gen.late_p90_us", report::quantile(&late, 0.9), "us");
    m.put("gen.late_max_us", late.last().copied().unwrap_or(f64::NAN), "us");
    m.put("engine.in_flight_peak", open.in_flight_peak.max(sc.sizes.batch) as f64, "count");
    put_host(m, [s0, s1], &open.gauge);
    put_tail(m, &open.recommend_us, &open.record_us);
    put_overhead(m, closed.traced_split, spans);
    Ok(())
}
