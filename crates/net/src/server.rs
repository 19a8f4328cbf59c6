//! The TCP front-end over a shared [`Engine`]: a blocking acceptor that
//! hands every connection to a small fixed pool of epoll event loops
//! (`crate::reactor`) with nonblocking sockets. Connection count costs no
//! threads, and each loop wake coalesces requests **across every ready
//! connection**, so batch efficiency grows with concurrency instead of
//! being capped per socket.
//!
//! ## Batching at the socket boundary
//!
//! Requests parsed in one readiness pass — plus whatever else arrives
//! within the configured accumulation window — are **coalesced per tenant
//! key** and fed to [`Engine::recommend_batch_frame`] /
//! [`Engine::record_batch_frame`], so a burst of n rounds costs one
//! shard-lock acquisition and one response syscall per connection instead
//! of n of each. Coalescing preserves per-key operation order (a key's
//! recommends and records never reorder relative to each other) but
//! completes whole groups at a time, so responses legitimately return out
//! of order across keys — which is why the protocol carries request IDs.
//!
//! ## Damage policy
//!
//! * Payload bit-flip (CRC fails, boundary intact): typed
//!   [`ErrorCode::Malformed`] response, connection continues at the next
//!   frame boundary.
//! * Undecodable payload (CRC clean, body nonsense): typed
//!   [`ErrorCode::Malformed`] response echoing the request ID when the
//!   header was long enough to carry one.
//! * Oversized length header: typed [`ErrorCode::Oversized`] response, then
//!   the connection closes — with the length field untrusted there is no
//!   next boundary to resynchronize to.
//! * Torn frame at EOF / peer reset: the connection closes quietly.
//! * Accept past [`ServerConfig::max_connections`]: typed
//!   [`ErrorCode::Busy`] response, then the new connection closes;
//!   established connections are unaffected.
//!
//! The handlers never panic on input bytes; every decode is bounds-checked.

use crate::error::{ErrorCode, NetResult};
use crate::frame::encode_frame;
use crate::protocol::{encode_response, Response, UNKNOWN_REQUEST_ID};
use crate::reactor::{self, ReactorHandle};
use banditware_serve::Engine;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
// lint: timing-module -- the Busy-reject linger is wall-time by design
use std::time::{Duration, Instant};

/// Compatibility shim: the epoll reactor is the only serving architecture.
/// Kept, with [`ServerConfig::with_mode`], only because the benchmark
/// (`bwbench/`) still names it; delete both at the next change to the
/// benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServerMode {
    /// The epoll reactor, the only mode.
    #[default]
    Reactor,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long a batch keeps accumulating frames after the first one
    /// before processing (`Duration::ZERO` — the default — processes
    /// whatever each readiness pass delivered: pipelined bursts still
    /// coalesce naturally, and single sync requests see no added latency).
    pub batch_window: Duration,
    /// Event-loop threads; `0` (the default) resolves to
    /// `min(available cores, 4)`.
    pub reactor_threads: usize,
    /// Accept ceiling: a connection arriving while this many are
    /// established gets a typed [`ErrorCode::Busy`] frame and a graceful
    /// close instead of service. `usize::MAX` (the default) never rejects.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            batch_window: Duration::ZERO,
            reactor_threads: 0,
            max_connections: usize::MAX,
        }
    }
}

impl ServerConfig {
    /// Builder-style accumulation window.
    #[must_use]
    pub fn with_batch_window(mut self, window: Duration) -> Self {
        self.batch_window = window;
        self
    }

    /// Compatibility shim (see [`ServerMode`]): accepts the one mode and
    /// changes nothing.
    #[must_use]
    pub fn with_mode(self, _mode: ServerMode) -> Self {
        self
    }

    /// Builder-style reactor thread count (`0` = auto).
    #[must_use]
    pub fn with_reactor_threads(mut self, threads: usize) -> Self {
        self.reactor_threads = threads;
        self
    }

    /// Builder-style connection ceiling.
    #[must_use]
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// The reactor pool size this configuration resolves to.
    pub fn resolved_reactor_threads(&self) -> usize {
        if self.reactor_threads > 0 {
            return self.reactor_threads;
        }
        std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
    }
}

/// A running TCP server. Dropping it (or calling [`NetServer::shutdown`])
/// stops the acceptor and joins every serving thread.
#[derive(Debug)]
pub struct NetServer {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    reactors: Vec<ReactorHandle>,
}

impl NetServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and start accepting.
    /// The engine is shared: several servers (or in-process callers) may
    /// serve the same one concurrently.
    ///
    /// # Errors
    /// [`crate::NetError::Io`] on bind failure, or when an event loop's
    /// epoll instance or eventfd cannot be created.
    pub fn bind(
        engine: Arc<Engine>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> NetResult<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        // Established-connection count, shared by the acceptor (ceiling
        // check) and the reactors (which retire connections).
        let live = Arc::new(AtomicUsize::new(0));
        let max_connections = config.max_connections;
        let reactors = reactor::spawn_reactors(
            &engine,
            config.resolved_reactor_threads(),
            config.batch_window,
            &shutdown,
            &live,
        )?;

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let dispatch: Vec<Arc<reactor::ReactorShared>> =
                reactors.iter().map(|r| Arc::clone(&r.shared)).collect();
            std::thread::spawn(move || {
                let mut next = 0usize;
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if live.load(Ordering::Acquire) >= max_connections {
                        reject_busy(stream);
                        continue;
                    }
                    live.fetch_add(1, Ordering::AcqRel);
                    let target = &dispatch[next % dispatch.len()];
                    next = next.wrapping_add(1);
                    target
                        .inbox
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push_back(stream);
                    target.wake.wake();
                }
            })
        };
        Ok(NetServer { local_addr, shutdown, acceptor: Some(acceptor), reactors })
    }

    /// The bound address (the real port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, wake every event loop, and join all threads.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the acceptor's `accept` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for r in std::mem::take(&mut self.reactors) {
            r.shared.wake.wake();
            let _ = r.handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Answer a connection arriving past the ceiling with a typed `Busy` frame
/// (unknown request ID — it rejects the connection, not any one request)
/// and close gracefully.
fn reject_busy(mut stream: TcpStream) {
    let mut payload = Vec::new();
    encode_response(
        UNKNOWN_REQUEST_ID,
        &Response::Error { code: ErrorCode::Busy, message: "server at connection capacity".into() },
        &mut payload,
    );
    let mut frame = Vec::new();
    encode_frame(&payload, &mut frame);
    let _ = stream.set_nodelay(true);
    let _ = stream.write_all(&frame);
    let _ = stream.shutdown(std::net::Shutdown::Write);
    // The client has usually already written its first request; dropping
    // the socket with those bytes unread can turn the close into an RST
    // that discards the in-flight Busy frame. Linger briefly reading until
    // the peer closes so the typed rejection reliably arrives. Bounded in
    // time so a hostile dribbler cannot pin the acceptor.
    let deadline = Instant::now() + Duration::from_millis(500);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut sink = [0u8; 4096];
    loop {
        match stream.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
        if Instant::now() >= deadline {
            break;
        }
    }
}
