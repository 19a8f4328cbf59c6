//! The concurrent serving engine: striped-lock shards of ticketed bandits.
//!
//! One logical [`BanditWare`] per tenant/workflow-class **key**. Keys hash
//! onto a fixed set of stripes, each guarded by its own
//! [`std::sync::RwLock`]; requests for keys on different stripes never
//! contend, and read-only traffic (predictions, history inspection, stats)
//! shares a stripe concurrently. Within a shard the full ticket semantics
//! of the core facade apply: overlapping rounds, out-of-order recording,
//! dropped tickets, batched recommend/record taking the lock once per
//! batch.
//!
//! **No per-shard scratch.** A shard holds its model state, its history
//! tail and its open tickets. Every buffer a call needs only while it runs
//! (selections, prediction columns, the staged record burst, the per-arm
//! grouping, the solve scratch) lives in the serving thread's
//! [`banditware_core::Workspace`], taken once per call and shared by every
//! tenant that thread serves, so the few tenants of a burst reuse one warm
//! set of buffers instead of each keeping its own. Once the thread is warm
//! the recommend/record loop performs zero heap allocations inside the
//! locks — concurrent tenants never contend on the global allocator, only
//! on their own stripe. `tests/shard_footprint.rs` pins the live heap a
//! restored and served shard holds.
//!
//! **Optional log.** An engine opened with [`Engine::open`] also carries a
//! per-key write-ahead log ([`crate::wal`]): every recorded observation is
//! appended, under the same stripe lock as its in-memory apply, before the
//! record call returns. An engine from [`EngineBuilder::build`] has no log
//! and its record path does nothing more than the shard's own.

use crate::builder::{build_policy, EngineBuilder};
use crate::error::{ServeError, ServeResult};
use crate::wal::{push_wal_line, Wal};
use banditware_core::persist::{self, Checkpoint, HistorySnapshot};
use banditware_core::{
    ArmSpec, BanditConfig, BanditWare, CoreError, FeatureFrame, Observation, Policy,
    Recommendation, Result, Retention, Ticket,
};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, RwLock};

type Shard = BanditWare<Box<dyn Policy>>;
type Stripe = RwLock<HashMap<String, Shard, BuildHasherDefault<Fnv1a>>>;

/// FNV-1a over the key bytes: the stripe assignment, stable across
/// processes (unlike `std::collections::hash_map::RandomState`), and the
/// shard maps' hasher — on an ~11-byte tenant key, a fraction of SipHash's
/// cost per lookup.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.0 =
            bytes.iter().fold(self.0, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

fn fnv1a(key: &str) -> u64 {
    let mut h = Fnv1a::default();
    Hasher::write(&mut h, key.as_bytes());
    h.0
}

/// Aggregate counters across every shard (one engine-wide sweep).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Number of registered keys (logical bandits).
    pub keys: usize,
    /// Completed rounds across all shards.
    pub recorded_rounds: usize,
    /// Rounds currently awaiting their runtime across all shards.
    pub in_flight: usize,
}

/// A concurrent, multi-tenant recommendation engine.
///
/// Cheap operations (`recommend`, `record`) take one stripe write lock;
/// batched operations amortize that lock over the whole batch (and, on the
/// recommend side, run one policy selection pass — e.g. one scaler pass —
/// for the burst). Different keys on different stripes proceed fully in
/// parallel.
pub struct Engine {
    stripes: Vec<Stripe>,
    /// History retention applied to every shard (see
    /// [`banditware_core::Retention`]): under `Tail`/`None` a tenant's
    /// steady-state memory is O(m² + tail) regardless of lifetime.
    retention: Retention,
    policy_name: String,
    /// The name the constructed policy *reports* (e.g.
    /// `"scaled:decaying-contextual-epsilon-greedy"` for the builder name
    /// `"scaled-epsilon-greedy"`), captured once at build time so
    /// reporting paths read a cached `&str` instead of constructing a
    /// policy and calling the `String`-allocating [`Policy::name`].
    effective_policy_name: String,
    /// Arm metadata, one table shared by every shard.
    specs: Arc<[ArmSpec]>,
    n_features: usize,
    config: BanditConfig,
    /// The per-key write-ahead log, present only on an engine opened with
    /// [`Engine::open`].
    pub(crate) log: Option<Wal>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("policy", &self.policy_name)
            .field("stripes", &self.stripes.len())
            .field("dir", &self.dir())
            .field("durability", &self.durability())
            .finish_non_exhaustive()
    }
}

impl Engine {
    /// Start building an engine (see [`EngineBuilder`]).
    pub fn builder(specs: Vec<ArmSpec>, n_features: usize) -> EngineBuilder {
        EngineBuilder::new(specs, n_features)
    }

    pub(crate) fn from_builder(b: EngineBuilder, effective_policy_name: String) -> Self {
        Engine {
            stripes: (0..b.n_stripes).map(|_| RwLock::new(HashMap::default())).collect(),
            retention: b.retention,
            policy_name: b.policy,
            effective_policy_name,
            specs: b.specs.into(),
            n_features: b.n_features,
            config: b.config,
            log: None,
        }
    }

    /// The history retention every shard runs with.
    pub fn retention(&self) -> Retention {
        self.retention
    }

    /// The policy every shard runs (chosen by name at build time).
    pub fn policy_name(&self) -> &str {
        &self.policy_name
    }

    /// The name the constructed policy reports about itself, cached at
    /// build time (allocation-free to read, unlike [`Policy::name`]).
    pub fn effective_policy_name(&self) -> &str {
        &self.effective_policy_name
    }

    /// Number of lock stripes.
    pub fn n_stripes(&self) -> usize {
        self.stripes.len()
    }

    /// The bandit configuration shared by every shard (tolerance, schedule,
    /// base seed). Read-only serving surfaces — e.g. a replication
    /// follower's exploit-only recommend — use its tolerance to mirror the
    /// exploitation rule without mutating any policy.
    pub fn config(&self) -> &BanditConfig {
        &self.config
    }

    fn stripe(&self, key: &str) -> &Stripe {
        &self.stripes[(fnv1a(key) % self.stripes.len() as u64) as usize]
    }

    /// The policy seed a key's shard is (or will be) built with: a pure
    /// function of the engine seed and the key, so tenants draw
    /// independent, reproducible exploration streams regardless of
    /// registration order. Public so harnesses can build standalone
    /// reference bandits that match a shard exactly.
    pub fn shard_seed(&self, key: &str) -> u64 {
        self.config.seed ^ fnv1a(key).rotate_left(17)
    }

    fn make_shard(&self, key: &str) -> Result<Shard> {
        let config = self.config.with_seed(self.shard_seed(key));
        let policy =
            build_policy(&self.policy_name, self.specs.to_vec(), self.n_features, &config)?;
        Ok(BanditWare::new(policy, Arc::clone(&self.specs)).with_retention(self.retention))
    }

    /// Run `f` against the key's shard under the stripe **write** lock,
    /// creating the shard on first use.
    ///
    /// # Errors
    /// Propagates shard construction (bad policy/config combinations are
    /// caught at [`EngineBuilder::build`] time, so this is exceptional).
    pub fn with_shard_mut<R>(&self, key: &str, f: impl FnOnce(&mut Shard) -> R) -> Result<R> {
        // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
        let mut map = self.stripe(key).write().expect("stripe lock poisoned");
        // One hash lookup on the hot path (the shard exists); a miss pays
        // for the insert.
        if let Some(shard) = map.get_mut(key) {
            return Ok(f(shard));
        }
        let shard = self.make_shard(key)?;
        Ok(f(map.entry(key.to_string()).or_insert(shard)))
    }

    /// Run `f` against the key's shard under the stripe **read** lock.
    /// Returns `None` for a key that has never been touched.
    pub fn with_shard<R>(&self, key: &str, f: impl FnOnce(&Shard) -> R) -> Option<R> {
        // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
        let map = self.stripe(key).read().expect("stripe lock poisoned");
        map.get(key).map(f)
    }

    /// Run `f` under the stripe write lock against a shard that must
    /// already exist — one lock acquisition, no create-on-miss. `None` for
    /// an untouched key. This is the record-side hot path: a runtime report
    /// for a key with no shard can only be a stray ticket.
    pub(crate) fn with_existing_shard_mut<R>(
        &self,
        key: &str,
        f: impl FnOnce(&mut Shard) -> R,
    ) -> Option<R> {
        // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
        let mut map = self.stripe(key).write().expect("stripe lock poisoned");
        map.get_mut(key).map(f)
    }

    /// Pre-create the shard for a key (optional — shards are created lazily
    /// on first `recommend`).
    ///
    /// # Errors
    /// Propagates shard construction.
    pub fn register(&self, key: &str) -> Result<()> {
        self.with_shard_mut(key, |_| ())
    }

    /// Recommend hardware for one workflow of `key`, opening a ticket.
    ///
    /// # Errors
    /// Propagates policy validation.
    pub fn recommend(&self, key: &str, features: &[f64]) -> Result<(Ticket, Recommendation)> {
        self.with_shard_mut(key, |shard| shard.recommend_ticketed(features))?
    }

    /// Recommend for a whole batch of workflows of `key` ([`FeatureFrame`],
    /// one row per context) under **one** stripe lock acquisition and one
    /// policy frame pass. The caller builds the frame outside the stripe
    /// lock; the shard runs
    /// [`banditware_core::BanditWare::recommend_batch_frame_into`].
    ///
    /// # Errors
    /// Propagates policy validation; on error no tickets are issued.
    pub fn recommend_batch_frame(
        &self,
        key: &str,
        frame: &FeatureFrame,
    ) -> Result<Vec<(Ticket, Recommendation)>> {
        let mut out = Vec::with_capacity(frame.n_rows());
        self.recommend_batch_frame_into(key, frame, &mut out).map(|()| out)
    }

    /// [`Engine::recommend_batch_frame`] into a caller-owned buffer
    /// (cleared first), so a serving loop that reuses `out` allocates
    /// nothing per burst once the key's shard is warm.
    ///
    /// # Errors
    /// As [`Engine::recommend_batch_frame`].
    pub fn recommend_batch_frame_into(
        &self,
        key: &str,
        frame: &FeatureFrame,
        out: &mut Vec<(Ticket, Recommendation)>,
    ) -> Result<()> {
        self.with_shard_mut(key, |shard| shard.recommend_batch_frame_into(frame, out))?
    }

    /// Record the runtime for an in-flight ticket of `key`. Tickets may be
    /// recorded in any order. With a log, the observation is appended to
    /// the key's WAL under the same stripe lock as the in-memory apply,
    /// flushed (and fsynced, per the [`crate::Durability`] policy) before
    /// returning.
    ///
    /// Failure semantics with a log: validation and lock failures happen
    /// *before* the in-memory apply, so the ticket stays open and the call
    /// is cleanly retryable. An **append IO failure** (disk full, EIO)
    /// happens after it: the observation is live in the serving state but
    /// not in the log — the error tells the caller durability was not
    /// achieved, and a crash before the next successful
    /// [`Engine::compact`] loses that one record.
    ///
    /// # Errors
    /// [`CoreError::UnknownTicket`] for a ticket not in flight on this key
    /// (including keys that were never touched); policy validation and
    /// [`CoreError::Io`] otherwise (all via [`ServeError::Core`]);
    /// [`ServeError::LockPoisoned`].
    pub fn record(&self, key: &str, ticket: Ticket, runtime: f64) -> ServeResult<()> {
        self.with_existing_shard_mut(key, |shard| -> ServeResult<()> {
            let Some(log) = &self.log else {
                return Ok(shard.record_ticket(ticket, runtime)?);
            };
            // Only touch the filesystem once the ticket is known to be
            // real: a stray record must not mint a phantom tenant
            // directory that recovery would then report as a key.
            if shard.in_flight_round(ticket).is_none() {
                return Err(CoreError::UnknownTicket { ticket: ticket.id() }.into());
            }
            let wal = log.key_wal(key)?;
            // Acquire (and, if poisoned, heal) the appender BEFORE the
            // in-memory apply: a lock failure must leave the ticket open
            // and retryable.
            let mut appender = Wal::lock_wal(&wal)?;
            let mut applied = Ok(());
            appender.append_group(|line| {
                // The line is written before the apply, while the round is
                // still open; a successful record takes sequence number
                // `rounds()`. A refused record appends nothing.
                if let Some(round) = shard.in_flight_round(ticket) {
                    push_wal_line(line, shard.rounds(), ticket, &round, runtime);
                }
                applied = shard.record_ticket(ticket, runtime);
                u64::from(applied.is_ok())
            })?;
            Ok(applied?)
        })
        .ok_or(ServeError::Core(CoreError::UnknownTicket { ticket: ticket.id() }))?
    }

    /// Record a batch of outcomes for `key` under one stripe lock
    /// acquisition. Request validation is atomic; the shard stages the
    /// burst into its reused [`banditware_core::ObservationFrame`] and
    /// absorbs it in one policy frame pass (per-arm grouped rank-k folds
    /// for the linear families), bitwise identical to recording the rounds
    /// one at a time — see [`BanditWare::record_batch_frame`].
    ///
    /// With a log, the whole group is **one** WAL append + flush: the
    /// logged absorption ([`BanditWare::record_batch_frame_logged`]) builds
    /// the group-commit buffer in the same critical section as the
    /// in-memory apply, one line per absorbed round in frame row order, so
    /// the log bytes are identical to recording the rounds one at a time,
    /// and every absorbed round is in the flushed group even when a later
    /// round fails numerically.
    ///
    /// # Errors
    /// [`CoreError::UnknownTicket`] / [`CoreError::InvalidRuntime`] /
    /// [`CoreError::InvalidParameter`] for a duplicated ticket; policy
    /// validation and [`CoreError::Io`] otherwise (all via
    /// [`ServeError::Core`]); [`ServeError::LockPoisoned`].
    pub fn record_batch_frame(&self, key: &str, outcomes: &[(Ticket, f64)]) -> ServeResult<()> {
        let Some(&(first, _)) = outcomes.first() else {
            return Ok(());
        };
        self.with_existing_shard_mut(key, |shard| -> ServeResult<()> {
            let Some(log) = &self.log else {
                return Ok(shard.record_batch_frame(outcomes)?);
            };
            // Atomic request validation first: a malformed request must not
            // materialize WAL state for the key on disk.
            shard.validate_record_batch(outcomes)?;
            // Acquire (healing if poisoned) the appender before absorbing
            // anything — a lock failure must not leave absorbed rounds
            // missing from the log.
            let wal = log.key_wal(key)?;
            let mut appender = Wal::lock_wal(&wal)?;
            // Flush whatever was absorbed even on a mid-batch policy
            // failure, so the log never lags the in-memory state.
            let mut result = Ok(());
            appender.append_group(|group| {
                let mut n_records = 0;
                result = shard.record_batch_frame_logged(outcomes, |seq, ticket, round, y| {
                    push_wal_line(group, seq, ticket, round, y);
                    n_records += 1;
                });
                n_records
            })?;
            Ok(result?)
        })
        .ok_or(ServeError::Core(CoreError::UnknownTicket { ticket: first.id() }))?
    }

    /// Abandon an in-flight round of `key`. Returns whether a round was
    /// actually dropped.
    pub fn drop_ticket(&self, key: &str, ticket: Ticket) -> bool {
        self.with_existing_shard_mut(key, |shard| shard.drop_ticket(ticket)).unwrap_or(false)
    }

    /// Clone out a key's recorded history (`None` for an untouched key).
    pub fn history(&self, key: &str) -> Option<Vec<Observation>> {
        self.with_shard(key, |shard| shard.history().to_vec())
    }

    /// Open tickets of a key, ascending (empty for an untouched key).
    pub fn open_tickets(&self, key: &str) -> Vec<Ticket> {
        self.with_shard(key, |shard| shard.open_tickets()).unwrap_or_default()
    }

    /// Every key with a live shard, sorted (stable reporting order).
    pub fn keys(&self) -> Vec<String> {
        let mut keys: Vec<String> = self
            .stripes
            .iter()
            .flat_map(|s| {
                // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
                s.read().expect("stripe lock poisoned").keys().cloned().collect::<Vec<_>>()
            })
            .collect();
        keys.sort();
        keys
    }

    /// Aggregate counters across all shards.
    pub fn stats(&self) -> EngineStats {
        let mut stats = EngineStats::default();
        for stripe in &self.stripes {
            // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
            let map = stripe.read().expect("stripe lock poisoned");
            // lint: allow(determinism) -- commutative counter sums: order cannot reach an output
            for shard in map.values() {
                stats.keys += 1;
                stats.recorded_rounds += shard.rounds();
                stats.in_flight += shard.in_flight();
            }
        }
        stats
    }

    /// Checkpoint one key's shard (v2 format: history + open tickets +
    /// ticket counter). An untouched key saves as an empty checkpoint
    /// without materializing a shard. Serialization happens in memory under
    /// the stripe **read** lock; the caller's writer only runs after the
    /// lock is released, so slow IO never blocks the stripe's traffic.
    ///
    /// # Errors
    /// IO failures surface as [`CoreError::Io`].
    pub fn save_shard(&self, key: &str, mut writer: impl std::io::Write) -> Result<()> {
        let serialize = |shard: &Shard| {
            let mut buf = Vec::new();
            persist::save_history(shard, &mut buf).map(|()| buf)
        };
        let buf = match self.with_shard(key, serialize) {
            Some(res) => res?,
            None => serialize(&self.make_shard(key)?)?,
        };
        writer.write_all(&buf).map_err(|e| CoreError::Io {
            op: "save",
            kind: e.kind(),
            message: e.to_string(),
        })
    }

    /// Restore one key's shard from a snapshot, replacing any existing
    /// shard state for that key. Open tickets are re-opened with their
    /// original ids.
    ///
    /// # Errors
    /// Propagates replay/reopen validation.
    pub fn restore_shard(&self, key: &str, snapshot: &HistorySnapshot) -> Result<()> {
        let mut fresh = self.make_shard(key)?;
        persist::restore_snapshot(&mut fresh, snapshot)?;
        // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
        let mut map = self.stripe(key).write().expect("stripe lock poisoned");
        map.insert(key.to_string(), fresh);
        Ok(())
    }

    /// Checkpoint one key's shard as a **v3 statistics snapshot**
    /// ([`persist::save_checkpoint`]): O(m² + tail) bytes and O(m²)
    /// restore, independent of how many rounds the tenant ever ran.
    /// Serialization happens under the stripe read lock; the caller's
    /// writer runs after the lock is released.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] for policies without snapshot
    /// support (use [`Engine::save_shard`] — the v2 log — for those);
    /// [`CoreError::Io`] on IO failures.
    pub fn save_shard_checkpoint(&self, key: &str, mut writer: impl std::io::Write) -> Result<()> {
        let serialize = |shard: &Shard| {
            let mut buf = Vec::new();
            persist::save_checkpoint(shard, &mut buf).map(|()| buf)
        };
        let buf = match self.with_shard(key, serialize) {
            Some(res) => res?,
            None => serialize(&self.make_shard(key)?)?,
        };
        writer.write_all(&buf).map_err(|e| CoreError::Io {
            op: "save",
            kind: e.kind(),
            message: e.to_string(),
        })
    }

    /// Restore one key's shard from a parsed checkpoint of **any** version
    /// (v1/v2 replay or v3 state restore — see
    /// [`persist::restore_checkpoint`]), replacing any existing shard state
    /// for that key.
    ///
    /// # Errors
    /// Propagates state/replay validation.
    pub fn restore_shard_checkpoint(&self, key: &str, checkpoint: &Checkpoint) -> Result<()> {
        let mut fresh = self.make_shard(key)?;
        persist::restore_checkpoint(&mut fresh, checkpoint)?;
        // lint: allow(no-panic) -- poisoned only by a panicked writer; crash over corrupt state
        let mut map = self.stripe(key).write().expect("stripe lock poisoned");
        map.insert(key.to_string(), fresh);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::builder(ArmSpec::unit_costs(3), 1)
            .config(BanditConfig::paper().with_seed(42))
            .stripes(4)
            .build()
            .unwrap()
    }

    #[test]
    fn per_key_isolation() {
        let e = engine();
        let (ta, _) = e.recommend("tenant-a", &[1.0]).unwrap();
        let (tb, _) = e.recommend("tenant-b", &[1.0]).unwrap();
        // Ticket namespaces are per shard: ids restart per key, and a ticket
        // is only meaningful together with its key.
        assert_eq!(ta.id(), 0);
        assert_eq!(tb.id(), 0);
        assert!(matches!(
            e.record("tenant-b", Ticket::from_id(99), 5.0),
            Err(ServeError::Core(CoreError::UnknownTicket { ticket: 99 }))
        ));
        e.record("tenant-a", ta, 5.0).unwrap();
        e.record("tenant-b", tb, 7.0).unwrap();
        assert_eq!(e.history("tenant-a").unwrap().len(), 1);
        assert_eq!(e.history("tenant-b").unwrap().len(), 1);
        assert_eq!(e.history("tenant-a").unwrap()[0].runtime, 5.0);
        assert_eq!(e.history("tenant-b").unwrap()[0].runtime, 7.0);
        assert_eq!(e.keys(), vec!["tenant-a".to_string(), "tenant-b".to_string()]);
    }

    #[test]
    fn unknown_key_record_is_unknown_ticket() {
        let e = engine();
        let err = e.record("ghost", Ticket::from_id(0), 1.0).unwrap_err();
        assert!(matches!(err, ServeError::Core(CoreError::UnknownTicket { ticket: 0 })));
        assert!(e.record_batch_frame("ghost", &[(Ticket::from_id(3), 1.0)]).is_err());
        assert!(e.record_batch_frame("ghost", &[]).is_ok(), "empty batch is a no-op");
        assert!(!e.drop_ticket("ghost", Ticket::from_id(0)));
        assert!(e.history("ghost").is_none());
    }

    #[test]
    fn batch_path_shares_one_lock_pass() {
        let e = engine();
        let contexts: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let issued =
            e.recommend_batch_frame("w", &FeatureFrame::from_rows(&contexts).unwrap()).unwrap();
        assert_eq!(issued.len(), 10);
        assert_eq!(e.open_tickets("w").len(), 10);
        let outcomes: Vec<(Ticket, f64)> =
            issued.iter().rev().map(|(t, r)| (*t, 10.0 + r.arm as f64)).collect();
        e.record_batch_frame("w", &outcomes).unwrap();
        assert_eq!(e.stats(), EngineStats { keys: 1, recorded_rounds: 10, in_flight: 0 });
    }

    #[test]
    fn same_seed_same_key_reproduces() {
        let run = || {
            let e = engine();
            let mut arms = Vec::new();
            for i in 0..30 {
                let (t, rec) = e.recommend("k", &[(i % 5) as f64]).unwrap();
                e.record("k", t, 10.0 + rec.arm as f64).unwrap();
                arms.push(rec.arm);
            }
            arms
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_keys_draw_different_streams() {
        let e = engine();
        let mut arms_a = Vec::new();
        let mut arms_b = Vec::new();
        for i in 0..20 {
            let x = [(i % 5) as f64];
            let (ta, ra) = e.recommend("alpha", &x).unwrap();
            let (tb, rb) = e.recommend("beta", &x).unwrap();
            e.record("alpha", ta, 10.0).unwrap();
            e.record("beta", tb, 10.0).unwrap();
            arms_a.push(ra.arm);
            arms_b.push(rb.arm);
        }
        assert_ne!(arms_a, arms_b, "per-key seeds must differ");
    }

    #[test]
    fn save_restore_roundtrip_with_open_tickets() {
        let e = engine();
        for i in 0..12 {
            let (t, _) = e.recommend("w", &[i as f64]).unwrap();
            e.record("w", t, 20.0 + i as f64).unwrap();
        }
        let (open, _) = e.recommend("w", &[99.0]).unwrap();
        let mut buf = Vec::new();
        e.save_shard("w", &mut buf).unwrap();

        let e2 = engine();
        let snapshot = persist::load_snapshot(buf.as_slice()).unwrap();
        e2.restore_shard("w", &snapshot).unwrap();
        assert_eq!(e2.history("w").unwrap().len(), 12);
        assert_eq!(e2.open_tickets("w"), vec![open]);
        e2.record("w", open, 50.0).unwrap();
        assert_eq!(e2.history("w").unwrap().last().unwrap().features, vec![99.0]);
    }

    #[test]
    fn stats_and_policy_name() {
        let e = Engine::builder(ArmSpec::unit_costs(2), 1).policy("ucb1").build().unwrap();
        assert_eq!(e.policy_name(), "ucb1");
        assert_eq!(e.effective_policy_name(), "ucb1");
        // The cached effective name is the policy's *reported* name, which
        // can differ from the builder name.
        let scaled =
            Engine::builder(ArmSpec::unit_costs(2), 1).policy("scaled-epsilon-greedy").build();
        assert_eq!(
            scaled.unwrap().effective_policy_name(),
            "scaled:decaying-contextual-epsilon-greedy"
        );
        assert_eq!(e.stats(), EngineStats::default());
        e.register("x").unwrap();
        assert_eq!(e.stats().keys, 1);
        assert!(e.n_stripes() >= 1);
    }
}
