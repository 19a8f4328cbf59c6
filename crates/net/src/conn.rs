//! Per-connection state for the reactor: nonblocking socket, incremental
//! frame decoding off a read buffer, and a bounded write queue with
//! backpressure.
//!
//! A connection never blocks the event loop: reads drain until
//! `WouldBlock`, writes push until `WouldBlock`, and everything undelivered
//! waits in buffers for the next readiness event. When a peer stops
//! draining its responses the write queue grows toward
//! [`TX_CAP`]; past it the reactor *pauses reads* on that connection
//! (dropping `EPOLLIN` interest) until the queue drains below
//! [`TX_RESUME`], so one slow consumer cannot pin unbounded response bytes
//! in server memory while other connections keep their full cadence.

use crate::batch::{drain_frames, Inbox};
use crate::sys_epoll::{EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};

/// Pause reads on a connection once this many undelivered response bytes
/// are queued for it.
pub(crate) const TX_CAP: usize = 256 * 1024;

/// Resume reads once the queue drains back below this.
pub(crate) const TX_RESUME: usize = TX_CAP / 2;

/// What a read pass learned about the connection's fate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadOutcome {
    /// Still alive; whatever parsed was handed to the sink.
    Open,
    /// Clean EOF: parse and serve what was already complete, then close
    /// after the response queue drains.
    Eof,
    /// Hard error (reset mid-conversation): close quietly, drop everything
    /// pending for this connection.
    Dead,
}

/// One reactor-managed connection.
#[derive(Debug)]
pub(crate) struct Conn {
    stream: TcpStream,
    /// Epoll token (slot index + 1; token 0 is the reactor's doorbell).
    pub token: u64,
    /// Read accumulation buffer (bytes not yet forming a complete frame).
    rx: Vec<u8>,
    /// Response bytes queued but not yet accepted by the kernel.
    tx: Vec<u8>,
    /// Consumed prefix of `tx` (compacted lazily).
    tx_pos: usize,
    /// The interest mask currently registered with epoll.
    pub interest: u32,
    /// Flush the queue, then close (EOF seen or fatal protocol damage).
    pub closing: bool,
    /// Reads suspended by write-queue backpressure.
    pub paused: bool,
    /// Requests of this connection waiting in the reactor's inbox for the
    /// next batch (reset when the batch runs).
    pub queued: usize,
}

impl Conn {
    /// Wrap a freshly accepted stream in nonblocking mode.
    pub fn new(stream: TcpStream, token: u64) -> io::Result<Conn> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            token,
            rx: Vec::with_capacity(4 * 1024),
            tx: Vec::with_capacity(4 * 1024),
            tx_pos: 0,
            interest: EPOLLIN | EPOLLRDHUP,
            closing: false,
            paused: false,
            queued: 0,
        })
    }

    /// The socket's descriptor, for epoll registration.
    pub fn raw_fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Drain everything the kernel has buffered, then decode every complete
    /// frame into `inbox`, tagged with `slot`, in stream order (via
    /// [`drain_frames`], which holds the damage policy). An oversized
    /// header also sets [`Conn::closing`] (no trustworthy next boundary);
    /// at a torn frame at EOF whatever was complete still serves.
    pub fn read_ready(&mut self, chunk: &mut [u8], slot: usize, inbox: &mut Inbox) -> ReadOutcome {
        let mut outcome = ReadOutcome::Open;
        loop {
            match self.stream.read(chunk) {
                Ok(0) => {
                    outcome = ReadOutcome::Eof;
                    break;
                }
                Ok(n) => {
                    self.rx.extend_from_slice(&chunk[..n]);
                    // A short read means the kernel buffer is drained: stop
                    // here and skip the EAGAIN round-trip. If more bytes
                    // race in behind the short read, level-triggered epoll
                    // reports the socket again on the next wait.
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Dead,
            }
        }
        let before = inbox.len();
        if !drain_frames(&mut self.rx, slot, inbox) {
            self.closing = true;
        }
        self.queued += inbox.len() - before;
        if outcome == ReadOutcome::Eof {
            self.closing = true;
        }
        outcome
    }

    /// Queue encoded response bytes for delivery.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.tx.extend_from_slice(bytes);
    }

    /// Undelivered response bytes.
    pub fn pending_tx(&self) -> usize {
        self.tx.len() - self.tx_pos
    }

    /// Push queued bytes to the kernel until it stops accepting. Returns
    /// `Ok(true)` when the queue drained, `Ok(false)` when bytes remain
    /// (register `EPOLLOUT` and come back), `Err` on a dead socket.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.tx_pos < self.tx.len() {
            match self.stream.write(&self.tx[self.tx_pos..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.tx_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.tx_pos == self.tx.len() {
            self.tx.clear();
            self.tx_pos = 0;
            return Ok(true);
        }
        // Compact once the dead prefix dominates, so the queue does not
        // grow monotonically under sustained partial writes.
        if self.tx_pos > 64 * 1024 && self.tx_pos * 2 > self.tx.len() {
            self.tx.drain(..self.tx_pos);
            self.tx_pos = 0;
        }
        Ok(false)
    }

    /// The interest mask this connection should be registered with right
    /// now: reads unless paused (backpressure) or closing, writes while
    /// the queue is non-empty.
    pub fn desired_interest(&self) -> u32 {
        let mut mask = 0;
        if !self.paused && !self.closing {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if self.pending_tx() > 0 {
            mask |= EPOLLOUT;
        }
        mask
    }
}
