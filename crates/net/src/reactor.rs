//! The epoll event loops that serve every connection.
//!
//! A small fixed pool of reactor threads (default `min(cores, 4)`) owns
//! every connection between them; the blocking acceptor hands accepted
//! streams round-robin to the reactors through a mutex-protected inbox plus
//! an eventfd doorbell. Each reactor runs one loop:
//!
//! ```text
//!   epoll_wait ─▶ drain doorbell / adopt new connections
//!             ─▶ read every ready connection to WouldBlock,
//!                parse complete frames (conn slot, request) in order
//!             ─▶ coalesce ACROSS connections per (key, op)
//!                └─▶ Engine::recommend_batch_frame / record_batch_frame
//!             ─▶ route responses back by slot, flush, re-arm interest
//! ```
//!
//! Coalescing across connections is what makes concurrency cheap: 256
//! clients each sending one request per round trip become a handful of
//! columnar bursts per wake instead of 256 single-row engine calls, so
//! batch efficiency *grows* with concurrency. Readiness is
//! level-triggered; a connection whose peer stops reading responses is
//! paused (see [`crate::conn`]) so slow consumers never stall the loop, and
//! idle connections — including deliberately slow-loris ones dribbling
//! single bytes — cost nothing between their own readiness events.

use crate::batch::{execute_batch, BatchScratch, Inbox};
use crate::conn::{Conn, ReadOutcome, TX_CAP, TX_RESUME};
use crate::sys_epoll::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use banditware_serve::Engine;
use std::collections::VecDeque;
use std::io;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
// lint: timing-module -- epoll timeouts and the batch-window clock are wall-time by design
use std::time::{Duration, Instant};

/// How often an idle reactor wakes up to check the shutdown flag.
const POLL: Duration = Duration::from_millis(25);

/// The channel between the acceptor and one reactor thread.
#[derive(Debug)]
pub(crate) struct ReactorShared {
    /// Freshly accepted streams awaiting adoption.
    pub inbox: Mutex<VecDeque<TcpStream>>,
    /// Doorbell: rung after pushing to the inbox, and at shutdown.
    pub wake: EventFd,
}

/// A running reactor thread plus its acceptor-facing channel.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    pub shared: Arc<ReactorShared>,
    pub handle: JoinHandle<()>,
}

/// Spawn `n` reactor threads sharing one engine. Every epoll instance and
/// eventfd is created before the first thread starts, so a creation
/// failure returns the error and spawns nothing.
pub(crate) fn spawn_reactors(
    engine: &Arc<Engine>,
    n: usize,
    window: Duration,
    shutdown: &Arc<AtomicBool>,
    live: &Arc<AtomicUsize>,
) -> io::Result<Vec<ReactorHandle>> {
    let mut loops = Vec::with_capacity(n.max(1));
    for _ in 0..n.max(1) {
        let ep = Epoll::new()?;
        let shared =
            Arc::new(ReactorShared { inbox: Mutex::new(VecDeque::new()), wake: EventFd::new()? });
        ep.add(shared.wake.raw(), DOORBELL, EPOLLIN)?;
        loops.push((ep, shared));
    }
    Ok(loops
        .into_iter()
        .map(|(ep, shared)| {
            let handle = {
                let shared = Arc::clone(&shared);
                let engine = Arc::clone(engine);
                let shutdown = Arc::clone(shutdown);
                let live = Arc::clone(live);
                std::thread::spawn(move || run(ep, &shared, &engine, window, &shutdown, &live))
            };
            ReactorHandle { shared, handle }
        })
        .collect())
}

/// Epoll token of the doorbell eventfd; connection slot `s` uses `s + 1`.
const DOORBELL: u64 = 0;

/// One reactor thread's event loop.
fn run(
    ep: Epoll,
    shared: &ReactorShared,
    engine: &Engine,
    window: Duration,
    shutdown: &AtomicBool,
    live: &AtomicUsize,
) {
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::default(); 512];
    let mut chunk = vec![0u8; 64 * 1024];
    let mut inbox = Inbox::default();
    let mut scratch = BatchScratch::default();
    // Slots needing a post-batch flush / interest refresh this wake.
    let mut touched: Vec<usize> = Vec::new();
    let mut adopted: Vec<TcpStream> = Vec::new();
    // `None` = no batch open; `Some(deadline)` = accumulate until then.
    let mut deadline: Option<Instant> = None;

    loop {
        let timeout_ms = match deadline {
            Some(d) => {
                let remaining = d.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    0
                } else {
                    remaining.as_millis().clamp(1, POLL.as_millis()) as i32
                }
            }
            None => POLL.as_millis() as i32,
        };
        // EINTR surfaces as Ok(0) inside `wait`; anything else (EBADF,
        // EFAULT, ...) means this epoll instance is broken for good —
        // retrying would spin forever serving nobody. Log, close this
        // reactor's connections, and release their seats under the accept
        // ceiling so the rest of the server keeps its capacity.
        let n = match ep.wait(&mut events, timeout_ms) {
            Ok(n) => n,
            Err(e) => {
                let open = conns.iter().filter(|c| c.is_some()).count();
                let queued = shared
                    .inbox
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .drain(..)
                    .count();
                eprintln!(
                    "banditware-net: reactor epoll_wait failed ({e}); \
                     closing this reactor's {} connection(s)",
                    open + queued
                );
                live.fetch_sub(open + queued, Ordering::AcqRel);
                return;
            }
        };
        if shutdown.load(Ordering::Acquire) {
            // Dropping the connections closes their sockets; requests
            // still in flight are abandoned.
            return;
        }

        for i in 0..n {
            let ev = events[i];
            let ready = { ev.events };
            if { ev.data } == DOORBELL {
                shared.wake.drain();
                {
                    let mut inbox =
                        shared.inbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                    adopted.extend(inbox.drain(..));
                }
                for stream in adopted.drain(..) {
                    adopt(&ep, &mut conns, &mut free, live, stream);
                }
                continue;
            }
            let slot = ({ ev.data } - 1) as usize;
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else { continue };
            let mut dead = false;
            if ready & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0 {
                if conn.paused {
                    // Reads are off; ERR/HUP here means the peer is gone
                    // while responses are still queued — nothing left to
                    // deliver them to.
                    dead = ready & (EPOLLHUP | EPOLLERR) != 0;
                } else {
                    let outcome = conn.read_ready(&mut chunk, slot, &mut inbox);
                    dead = outcome == ReadOutcome::Dead;
                }
            }
            if !dead && ready & EPOLLOUT != 0 && conn.flush().is_err() {
                dead = true;
            }
            if dead {
                close(&ep, &mut conns, &mut free, &mut inbox, live, slot);
            } else {
                touched.push(slot);
            }
        }

        // Cross-connection batch: everything decoded this wake (plus
        // anything accumulated under a non-zero window) executes as one
        // coalesced set once the window expires.
        if !inbox.is_empty() {
            let now = Instant::now();
            let open = *deadline.get_or_insert(now + window);
            if now >= open {
                let conns_ref = &mut conns;
                let touched_ref = &mut touched;
                // Every request gets exactly one response, so zeroing
                // `queued` on each response leaves no stale count.
                execute_batch(engine, &mut inbox, &mut scratch, &mut |slot, bytes| {
                    if let Some(conn) = conns_ref.get_mut(slot).and_then(Option::as_mut) {
                        conn.queued = 0;
                        conn.queue(bytes);
                        touched_ref.push(slot);
                    }
                });
                deadline = None;
            }
        }

        // Flush, apply backpressure, close drained-and-closing
        // connections, and re-arm interest for everything touched.
        touched.sort_unstable();
        touched.dedup();
        for slot in touched.drain(..) {
            let Some(conn) = conns.get_mut(slot).and_then(Option::as_mut) else { continue };
            if conn.pending_tx() > 0 && conn.flush().is_err() {
                close(&ep, &mut conns, &mut free, &mut inbox, live, slot);
                continue;
            }
            conn.paused = if conn.paused {
                conn.pending_tx() >= TX_RESUME
            } else {
                conn.pending_tx() > TX_CAP
            };
            // A clean-EOF connection retires only after its queue drained
            // AND no decoded requests of its own still sit in the open
            // batch window — closing earlier would drop its completed
            // requests (the EOF contract serves them) and free the slot
            // for reuse while the inbox still routes responses to it.
            if conn.closing && conn.pending_tx() == 0 && conn.queued == 0 {
                close(&ep, &mut conns, &mut free, &mut inbox, live, slot);
                continue;
            }
            let want = conn.desired_interest();
            if want != conn.interest && ep.modify(conn.raw_fd(), conn.token, want).is_ok() {
                conn.interest = want;
            }
        }
    }
}

/// Adopt a freshly accepted stream into a free slot and register it.
fn adopt(
    ep: &Epoll,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    live: &AtomicUsize,
    stream: TcpStream,
) {
    let slot = free.pop().unwrap_or_else(|| {
        conns.push(None);
        conns.len() - 1
    });
    match Conn::new(stream, slot as u64 + 1) {
        Ok(conn) if ep.add(conn.raw_fd(), conn.token, conn.interest).is_ok() => {
            conns[slot] = Some(conn);
        }
        _ => {
            free.push(slot);
            live.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// Retire a connection: deregister, drop (closing the socket), drop any
/// requests of its own still waiting in the inbox (so none can answer the
/// slot's next tenant), free the slot, release its seat under the accept
/// ceiling.
fn close(
    ep: &Epoll,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    inbox: &mut Inbox,
    live: &AtomicUsize,
    slot: usize,
) {
    if let Some(conn) = conns[slot].take() {
        let _ = ep.delete(conn.raw_fd());
        if conn.queued > 0 {
            inbox.retain_slots(|s| s != slot);
        }
        free.push(slot);
        live.fetch_sub(1, Ordering::AcqRel);
    }
}
