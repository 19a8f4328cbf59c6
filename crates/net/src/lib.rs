//! Network serving front-end for the BanditWare engine: a framed TCP
//! protocol, a thread-per-connection server, and a blocking client.
//!
//! ROADMAP item 1: the paper's recommend→observe loop becomes reachable by
//! out-of-process clients. The design goal is that the wire adds framing,
//! not semantics — a client driving `recommend`/`record` over TCP sees a
//! **bitwise-identical** recommendation stream to calling the in-process
//! [`banditware_serve::Engine`] with the same seed and schedule, because
//! floats travel as raw IEEE-754 bits and the server feeds coalesced bursts
//! to the same `recommend_batch_frame`/`record_batch_frame` entry points
//! the in-process path uses.
//!
//! ```text
//!  client                    server (thread-per-conn or epoll reactor)
//!  ───────                   ─────────────────────────────────────────
//!  [len|payload|crc] ───────▶ accumulate → parse frames
//!  [len|payload|crc] ───────▶ coalesce per (key, op) within the window
//!                             (the reactor coalesces ACROSS connections)
//!                             └─▶ Engine::recommend_batch_frame / record_batch_frame
//!  ◀─────── [len|payload|crc] one write for the whole batch,
//!                             responses matched by request ID
//! ```
//!
//! * [`frame`] — the outer `[len][payload][crc32]` envelope (CRC32 shared
//!   with the serve crate's WAL).
//! * [`protocol`] — opcodes, request/response bodies, bounds-checked
//!   decoding.
//! * [`server`] — [`NetServer`]: the acceptor, in either [`ServerMode`]
//!   (thread-per-connection or epoll reactor), over the batching core
//!   both modes share (frame draining, the request arena and coalesced
//!   execution).
//! * [`client`] — [`NetClient`]: sync calls and explicit pipelining.
//!
//! `std::net` only — consistent with the workspace's zero-registry-deps
//! policy.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub(crate) mod batch;
pub mod client;
pub(crate) mod conn;
pub mod error;
pub mod frame;
pub mod protocol;
pub(crate) mod reactor;
pub mod server;
pub(crate) mod sys_epoll;

pub use client::{NetClient, RemoteRecommendation};
pub use error::{ErrorCode, NetError, NetResult};
pub use protocol::{Request, Response};
pub use server::{NetServer, ServerConfig, ServerMode};
