//! BanditWare serving layer: a concurrent recommendation engine.
//!
//! The paper deploys BanditWare as a **long-lived service** in front of a
//! shared cluster (the NDP testbed): many workflows from many tenants are in
//! flight at once, and each tenant/workflow class learns its own runtime
//! models. This crate turns the single-threaded [`banditware_core::BanditWare`]
//! facade into that service:
//!
//! * [`engine::Engine`] — one logical bandit per tenant/workflow-class
//!   **key**, stored in striped [`std::sync::RwLock`] shards so requests for
//!   different keys proceed in parallel. Rounds are ticketed
//!   ([`banditware_core::Ticket`]): recommendations and runtime reports may
//!   overlap arbitrarily and arrive out of order. Batched
//!   `recommend_batch_frame`/`record_batch_frame` take each shard lock
//!   **once per batch** instead of once per call; the frame path equals
//!   per-row `select` (the scaler wrapper: absorb the whole burst, then
//!   standardize).
//! * [`builder`] — construct any named policy
//!   (`"epsilon-greedy"`, `"linucb"`, `"thompson"`, …) from a
//!   [`banditware_core::BanditConfig`] at runtime; the engine stores policies
//!   as `Box<dyn Policy>`, so the algorithm is a deployment choice, not a
//!   compile-time one.
//! * [`stress`] — a deterministic multi-threaded harness over
//!   [`std::thread::scope`]: each worker owns a disjoint set of keys, so the
//!   per-key round streams (and therefore every shard's final state) are
//!   identical regardless of thread count or interleaving.
//! * [`wal`] — crash durability: [`wal::DurableEngine`] appends every
//!   recorded observation to a per-key segment log (group-committed per
//!   batch, CRC32 on every line and header, fsync per the
//!   [`wal::Durability`] policy), folds closed segments into
//!   `banditware-history v3` statistics snapshots on
//!   [`wal::DurableEngine::compact`], and recovers in O(m²) + O(WAL tail) —
//!   independent of how many rounds a tenant ever ran.
//! * [`replicate`] — warm standbys: [`replicate::Replicator`] ships a
//!   primary's compacted snapshots and sealed, checksummed WAL segments
//!   through a [`replicate::SegmentTransport`] to follower directories; a
//!   [`replicate::FollowerEngine`] applies them through the same recovery
//!   path, tracks per-key applied-sequence watermarks, serves read-only
//!   predictions, and [`replicate::FollowerEngine::promote`]s into a full
//!   [`wal::DurableEngine`] on failover.
//! * [`error`] — [`error::ServeError`]: the core errors plus the failure
//!   modes only a durable, replicated engine has (corruption with file +
//!   line + checksums, manifest violations, transport failures, healed
//!   poisoned locks).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod builder;
pub mod crc;
pub mod engine;
pub mod error;
pub mod replicate;
pub mod stress;
pub mod wal;

pub use builder::{build_policy, policy_names, EngineBuilder};
pub use engine::{Engine, EngineStats};
pub use error::{ServeError, ServeResult};
pub use replicate::{
    CatchUpReport, FollowerEngine, FsTransport, Replicator, SegmentTransport, ShipReport,
};
pub use stress::{run_stress, StressPlan, StressReport};
pub use wal::{Durability, DurableEngine, RecoveryReport, WalOptions};
