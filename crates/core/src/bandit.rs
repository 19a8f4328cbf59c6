//! [`BanditWare`] — the user-facing recommender facade.
//!
//! Couples a [`Policy`] with the arm metadata and a complete run history, and
//! exposes the framework's two-call protocol in two flavours:
//!
//! * **Ticketed** (the serving path): [`BanditWare::recommend_ticketed`]
//!   returns a [`Ticket`] alongside the recommendation; the observed runtime
//!   is attributed later via [`BanditWare::record_ticket`]. Arbitrarily many
//!   rounds may be in flight at once, tickets may be recorded **out of
//!   order**, and a round that never completes can be abandoned with
//!   [`BanditWare::drop_ticket`]. [`BanditWare::recommend_batch_frame`]
//!   selects a whole burst ([`FeatureFrame`]) in one policy pass (for
//!   [`crate::ScaledPolicy`], one scaler pass);
//!   [`BanditWare::record_batch_frame`] validates the burst atomically and
//!   absorbs it in one batched policy pass.
//! * **Legacy single-slot**: [`BanditWare::recommend`] +
//!   [`BanditWare::record`] keep the original strictly-alternating protocol.
//!   They are a shim over the ticket table; calling `recommend` twice
//!   without recording is now an explicit
//!   [`crate::CoreError::RecommendationPending`] instead of a silent
//!   overwrite.
//!
//! A convenience [`BanditWare::run_round`] does recommend + record around a
//! user-supplied executor closure (e.g. a cluster submission).

use crate::frame::{FeatureFrame, ObservationFrame};
use crate::policy::{ArmSpec, Policy, Selection};
use crate::tickets::TicketTable;
use crate::{CoreError, Result};

/// The largest feature magnitude the recommender accepts at ingress. At
/// this bound even 2⁵³ rows of `x²` sum to a finite Gram entry, so no
/// accepted context can overflow an arm's statistics (see
/// [`CoreError::FeatureTooLarge`]).
pub const MAX_FEATURE_MAGNITUDE: f64 = 1e100;

/// One remembered round.
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// 0-based round counter.
    pub round: usize,
    /// Chosen arm.
    pub arm: usize,
    /// The workflow's context features.
    pub features: Vec<f64>,
    /// Observed runtime (seconds).
    pub runtime: f64,
    /// Whether the round was an exploration draw.
    pub explored: bool,
}

/// A recommendation returned to the caller.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// Chosen arm index.
    pub arm: usize,
    /// Arm display name — a shared handle into the recommender's
    /// [`ArmSpec`] table, so handing it out per request is a refcount
    /// bump, not a string allocation.
    pub name: std::sync::Arc<str>,
    /// Arm resource cost.
    pub resource_cost: f64,
    /// Predicted runtime under the current model (NaN before any fit).
    pub predicted_runtime: f64,
    /// Whether this was an exploration draw.
    pub explored: bool,
}

/// How much of the observation log a [`BanditWare`] keeps in memory.
///
/// Every policy in this crate is a deterministic function of its
/// *sufficient statistics* (snapshotted exactly by
/// [`crate::Policy::snapshot`]), so the log is **not** needed to operate —
/// it exists for inspection, v2-style replay checkpoints, and per-arm
/// summaries. Under `Tail`/`None` the steady-state memory of a tenant is
/// O(m² + tail) instead of O(rounds): the round counter keeps counting
/// ([`BanditWare::rounds`] reports the true total) while old observations
/// are dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retention {
    /// Keep every observation (the historical default; required for
    /// faithful v2 replay checkpoints of the full run).
    Full,
    /// Keep only the most recent `n` observations.
    Tail(usize),
    /// Keep no observations at all.
    None,
}

/// Opaque handle for an in-flight round: issued by
/// [`BanditWare::recommend_ticketed`], consumed by
/// [`BanditWare::record_ticket`].
///
/// Ids are assigned from a monotone per-recommender counter, so they are
/// stable across checkpoints ([`crate::persist`] serializes open tickets by
/// id) and can travel through external systems (e.g. as a job tag on a
/// cluster submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ticket(u64);

impl Ticket {
    /// The raw ticket id (for logs, job tags, checkpoints).
    pub fn id(self) -> u64 {
        self.0
    }

    /// Rebuild a ticket from a raw id (e.g. one that travelled through a
    /// job queue or a checkpoint). Recording it still requires the id to be
    /// in the recommender's in-flight table.
    pub fn from_id(id: u64) -> Self {
        Ticket(id)
    }
}

impl std::fmt::Display for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// The remembered half of an unfinished round: a view into the
/// recommender's ticket table ([`crate::persist::OpenRound`] is the owned
/// form).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InFlightRound<'a> {
    /// Chosen arm.
    pub arm: usize,
    /// Context the recommendation was made for.
    pub features: &'a [f64],
    /// Whether the selection was an exploration draw.
    pub explored: bool,
}

/// The retained observation log and the lifetime round counter.
#[derive(Debug, Clone)]
struct History {
    rows: Vec<Observation>,
    /// Rounds recorded but no longer retained in `rows` (dropped by the
    /// retention policy or elided by a stats-only restore). The absolute
    /// round counter is `base + rows.len()`.
    base: usize,
    retention: Retention,
    /// Oldest row while a full tail is being overwritten in place; 0
    /// outside a [`History::push`]…[`History::settle`] run.
    head: usize,
}

impl History {
    fn rounds(&self) -> usize {
        self.base + self.rows.len()
    }

    fn keep(&self) -> usize {
        match self.retention {
            Retention::Full => usize::MAX,
            Retention::Tail(n) => n,
            Retention::None => 0,
        }
    }

    /// Append one round with the next absolute round number. Once a tail
    /// is full the oldest row is overwritten in place (its feature `Vec`
    /// reused), so a warm `Tail(n)` log appends without allocating; call
    /// [`History::settle`] before the rows are read.
    fn push(&mut self, arm: usize, features: &[f64], runtime: f64, explored: bool) {
        let round = self.rounds();
        if self.rows.len() < self.keep() {
            self.rows.push(Observation {
                round,
                arm,
                features: features.to_vec(),
                runtime,
                explored,
            });
            return;
        }
        self.base += 1;
        let len = self.rows.len();
        if let Some(o) = self.rows.get_mut(self.head) {
            o.round = round;
            o.arm = arm;
            o.features.clear();
            o.features.extend_from_slice(features);
            o.runtime = runtime;
            o.explored = explored;
            self.head = (self.head + 1) % len;
        }
    }

    /// Put the rows back in round order: one rotation per burst.
    fn settle(&mut self) {
        self.rows.rotate_left(self.head);
        self.head = 0;
    }

    /// Drop rows beyond the retention bound, oldest first.
    fn trim(&mut self) {
        let keep = self.keep();
        if self.rows.len() > keep {
            let drop = self.rows.len() - keep;
            self.rows.drain(..drop);
            self.base += drop;
        }
    }
}

/// The BanditWare recommender: policy + hardware metadata + history +
/// in-flight ticket table.
#[derive(Debug, Clone)]
pub struct BanditWare<P: Policy> {
    policy: P,
    specs: Vec<ArmSpec>,
    history: History,
    tickets: TicketTable,
    next_ticket: u64,
    legacy_pending: Option<Ticket>,
    /// Scratch: batched selections, reused across bursts.
    batch_sels: Vec<Selection>,
    /// Scratch: index positions of a record batch's tickets, in input
    /// order, filled by [`BanditWare::validate_record_batch`].
    batch_pos: Vec<usize>,
    /// Scratch: the same positions sorted, for duplicate detection
    /// (replaces a per-call `HashSet`).
    batch_sorted: Vec<usize>,
    /// Scratch: the row-major observation batch
    /// ([`BanditWare::record_batch_frame`] copies each closed round's arena
    /// row here, reused across bursts).
    batch_obs: ObservationFrame,
    /// Scratch: per-row absorbed flags from the policy's frame observe.
    batch_absorbed: Vec<bool>,
}

impl<P: Policy> BanditWare<P> {
    /// Wrap a policy. `specs` must match the policy's arm count.
    ///
    /// # Panics
    /// Panics on an arm-count mismatch (construction-time programmer error).
    pub fn new(policy: P, specs: Vec<ArmSpec>) -> Self {
        assert_eq!(policy.n_arms(), specs.len(), "policy arms != specs");
        BanditWare {
            policy,
            specs,
            history: History { rows: Vec::new(), base: 0, retention: Retention::Full, head: 0 },
            tickets: TicketTable::default(),
            next_ticket: 0,
            legacy_pending: None,
            batch_sels: Vec::new(),
            batch_pos: Vec::new(),
            batch_sorted: Vec::new(),
            batch_obs: ObservationFrame::new(),
            batch_absorbed: Vec::new(),
        }
    }

    /// Builder-style retention policy (see [`Retention`]).
    pub fn with_retention(mut self, retention: Retention) -> Self {
        self.set_retention(retention);
        self
    }

    /// Change the retention policy. Tightening it trims the stored history
    /// immediately; the absolute round counter is unaffected.
    pub fn set_retention(&mut self, retention: Retention) {
        self.history.retention = retention;
        self.history.trim();
    }

    /// The active retention policy.
    pub fn retention(&self) -> Retention {
        self.history.retention
    }

    /// The wrapped policy (read access, e.g. for reporting fitted models).
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Mutable access to the wrapped policy — the checkpoint-restore hook
    /// ([`crate::persist::restore_checkpoint`] restores the policy state in
    /// place).
    pub(crate) fn policy_mut(&mut self) -> &mut P {
        &mut self.policy
    }

    /// Replace the stored history with a restored tail whose rounds end at
    /// `total_rounds` (the stats-only v3 restore path: the policy already
    /// contains every observation's effect, the tail is retained context).
    pub(crate) fn install_history(&mut self, total_rounds: usize, tail: Vec<Observation>) {
        debug_assert!(tail.len() <= total_rounds);
        self.history.base = total_rounds - tail.len();
        self.history.rows = tail;
        self.history.trim();
    }

    /// Arm metadata.
    pub fn specs(&self) -> &[ArmSpec] {
        &self.specs
    }

    /// The **retained** observations (the most recent tail under
    /// [`Retention::Tail`], everything under [`Retention::Full`]).
    /// `Observation::round` carries the absolute round number even when
    /// earlier rounds have been dropped.
    pub fn history(&self) -> &[Observation] {
        &self.history.rows
    }

    /// Rounds recorded over the recommender's lifetime — counts retained
    /// *and* dropped observations.
    pub fn rounds(&self) -> usize {
        self.history.rounds()
    }

    /// Tickets currently awaiting their runtime, in ascending id order.
    pub fn open_tickets(&self) -> Vec<Ticket> {
        self.tickets.iter().map(|(ticket, _)| ticket).collect()
    }

    /// Number of rounds currently in flight.
    pub fn in_flight(&self) -> usize {
        self.tickets.len()
    }

    /// The remembered selection of an open ticket (`None` when the ticket
    /// is not in flight). Durable serving layers read this to log the full
    /// observation (arm, context, exploration flag) alongside the runtime
    /// when a ticket is recorded.
    pub fn in_flight_round(&self, ticket: Ticket) -> Option<InFlightRound<'_>> {
        self.tickets.position(ticket.0).map(|pos| self.tickets.round(pos))
    }

    /// Iterate over the open rounds (ticket + remembered selection), in
    /// ascending ticket order. Used by [`crate::persist`] to checkpoint
    /// mid-flight state.
    pub fn open_rounds(&self) -> impl Iterator<Item = (Ticket, InFlightRound<'_>)> + '_ {
        self.tickets.iter()
    }

    /// The id the next issued ticket will get. Checkpointed alongside the
    /// open tickets: ids of rounds recorded *before* a crash must never be
    /// reissued afterwards, or a reporter retrying a lost ack would record
    /// against a fresh, unrelated round.
    pub fn next_ticket_id(&self) -> u64 {
        self.next_ticket
    }

    /// Ensure future tickets are issued at or above `next` (monotone: a
    /// lower value is ignored). The checkpoint-restore path calls this with
    /// the saved counter.
    pub fn advance_ticket_counter(&mut self, next: u64) {
        self.next_ticket = self.next_ticket.max(next);
    }

    /// Recommend hardware for a workflow and open a ticket for the round.
    /// Any number of tickets may be open at once; record them in any order
    /// via [`BanditWare::record_ticket`].
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] /
    /// [`crate::CoreError::FeatureTooLarge`] for a refused feature (nothing
    /// is selected and no ticket is issued); propagates policy validation
    /// (feature arity).
    pub fn recommend_ticketed(&mut self, features: &[f64]) -> Result<(Ticket, Recommendation)> {
        check_row(features)?;
        let sel = self.policy.select(features)?;
        let predicted = self.policy.predict(sel.arm, features).unwrap_or(f64::NAN);
        let ticket = Ticket(self.next_ticket);
        self.next_ticket += 1;
        self.tickets.insert(ticket.0, sel.arm, features, sel.explored);
        Ok((ticket, recommendation(&self.specs, sel, predicted)))
    }

    /// [`BanditWare::recommend_batch_frame_into`] into a fresh `Vec`.
    ///
    /// # Errors
    /// As [`BanditWare::recommend_batch_frame_into`].
    pub fn recommend_batch_frame(
        &mut self,
        frame: &FeatureFrame,
    ) -> Result<Vec<(Ticket, Recommendation)>> {
        let mut out = Vec::with_capacity(frame.n_rows());
        self.recommend_batch_frame_into(frame, &mut out).map(|()| out)
    }

    /// Recommend hardware for a whole batch of workflows ([`FeatureFrame`],
    /// one row per context) in one policy pass, into `out` (cleared first):
    /// one `(ticket, recommendation)` per row, in row order. Selections are
    /// made against the same model state (for [`crate::ScaledPolicy`] the
    /// scaler runs once for the batch). One transpose of the frame into
    /// the ticket arena (which also runs the ingress check), one policy
    /// frame pass, and each recommendation's prediction taken from that
    /// pass ([`Policy::frame_predictions`]) when the policy keeps it. This
    /// is the layout the serving front-end builds once per coalesced burst;
    /// for an unwrapped policy the results are bitwise identical to a loop
    /// of [`BanditWare::recommend_ticketed`] over the rows, and a warm
    /// recommender with a reused `out` allocates nothing.
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] /
    /// [`crate::CoreError::FeatureTooLarge`] for the first refused feature
    /// in column order; propagates policy validation. On error no tickets
    /// are issued and no randomness is consumed by the ingress check.
    pub fn recommend_batch_frame_into(
        &mut self,
        frame: &FeatureFrame,
        out: &mut Vec<(Ticket, Recommendation)>,
    ) -> Result<()> {
        out.clear();
        let BanditWare { policy, specs, tickets, next_ticket, batch_sels, .. } = self;
        if !tickets.stage(frame, MAX_FEATURE_MAGNITUDE) {
            tickets.unstage();
            return Err(refused_in_frame(frame));
        }
        if let Err(e) = policy.select_frame_into(frame, batch_sels) {
            tickets.unstage();
            return Err(e);
        }
        let n = frame.n_rows();
        let preds = policy.frame_predictions().filter(|p| p.len() == specs.len() * n);
        out.reserve(batch_sels.len());
        for (r, (&sel, id)) in batch_sels.iter().zip(*next_ticket..).enumerate() {
            let predicted = match preds {
                Some(p) => p[sel.arm * n + r],
                None => policy.predict(sel.arm, tickets.staged_row(r)).unwrap_or(f64::NAN),
            };
            out.push((Ticket(id), recommendation(specs, sel, predicted)));
        }
        tickets.commit(*next_ticket, batch_sels);
        *next_ticket += out.len() as u64;
        Ok(())
    }

    /// Record the observed runtime of an in-flight round. Tickets may be
    /// recorded in any order relative to their issuance.
    ///
    /// On a validation failure (e.g. [`crate::CoreError::InvalidRuntime`])
    /// the ticket **stays open** so the caller can retry with a corrected
    /// value or abandon the round with [`BanditWare::drop_ticket`].
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] for a ticket that was never
    /// issued, already recorded, or dropped; policy validation otherwise.
    pub fn record_ticket(&mut self, ticket: Ticket, runtime: f64) -> Result<()> {
        let pos =
            self.tickets.position(ticket.0).ok_or(CoreError::UnknownTicket { ticket: ticket.0 })?;
        let round = self.tickets.round(pos);
        self.policy.observe(round.arm, round.features, runtime)?;
        if self.legacy_pending == Some(ticket) {
            self.legacy_pending = None;
        }
        self.history.push(round.arm, round.features, runtime, round.explored);
        self.history.settle();
        self.tickets.remove(pos);
        Ok(())
    }

    /// Atomic request validation for a record batch: every ticket open,
    /// no ticket listed twice, every runtime positive and finite. Leaves
    /// the recommender untouched; allocation-free in steady state (dedup
    /// runs over a reused sorted scratch buffer instead of a `HashSet`).
    ///
    /// Durable serving layers call this *before* touching the filesystem,
    /// so a malformed request cannot mint WAL state for a key.
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] /
    /// [`crate::CoreError::InvalidRuntime`] for the first offending row (in
    /// input order); [`crate::CoreError::InvalidParameter`] for a ticket
    /// listed twice in the batch.
    pub fn validate_record_batch(&mut self, outcomes: &[(Ticket, f64)]) -> Result<()> {
        self.batch_pos.clear();
        for &(ticket, runtime) in outcomes {
            let pos = self
                .tickets
                .position(ticket.0)
                .ok_or(CoreError::UnknownTicket { ticket: ticket.0 })?;
            if !runtime.is_finite() || runtime <= 0.0 {
                return Err(CoreError::InvalidRuntime(runtime));
            }
            self.batch_pos.push(pos);
        }
        // Index positions ascend with ticket ids, so the first duplicate
        // found is the smallest duplicated id.
        self.batch_sorted.clear();
        self.batch_sorted.extend_from_slice(&self.batch_pos);
        self.batch_sorted.sort_unstable();
        for pair in self.batch_sorted.windows(2) {
            if pair[0] == pair[1] {
                return Err(CoreError::InvalidParameter {
                    name: "outcomes",
                    detail: format!(
                        "ticket {} listed twice in one batch",
                        self.tickets.id_at(pair[0])
                    ),
                });
            }
        }
        Ok(())
    }

    /// Record a batch of `(ticket, runtime)` pairs through the
    /// batched frame observe path. Request validation
    /// ([`BanditWare::validate_record_batch`]) is atomic: every ticket must
    /// be open (and unique within the batch) and every runtime positive and
    /// finite **before** anything is absorbed, so a malformed call leaves
    /// the recommender untouched. The burst's remembered rounds are then
    /// staged into a reused [`ObservationFrame`] and handed to the policy
    /// as one [`Policy::observe_frame`] pass — for the contextual ε-greedy
    /// family that means per-arm grouped rank-k absorption instead of one
    /// refit per row, bitwise identical to recording the rounds one at a
    /// time in input order.
    ///
    /// Rounds the policy absorbs are consumed (history appended, legacy
    /// slot cleared, tickets closed in one compaction pass); rounds it does
    /// not absorb — a mid-batch numerical failure, not a request error —
    /// **stay open** under their ticket ids so the caller can retry or
    /// [`BanditWare::drop_ticket`] them. Retrying the open remainder can
    /// never double-count an observation: a consumed ticket in the retry
    /// surfaces as [`crate::CoreError::UnknownTicket`]. With a policy that
    /// absorbs rows in input order the open remainder is exactly the
    /// failing round and its successors; a grouped-absorption policy may
    /// absorb a non-prefix subset (rows of arms it finished before the
    /// failing arm), which only ever leaves *fewer* rounds open.
    ///
    /// Rounds whose remembered feature width disagrees with the policy's
    /// (possible only via [`BanditWare::reopen_ticket`] on a non-contextual
    /// policy, which skips the width check) cannot be staged as one frame; such
    /// a batch is absorbed row by row with identical semantics.
    ///
    /// # Errors
    /// [`crate::CoreError::UnknownTicket`] for a ticket not in flight,
    /// [`crate::CoreError::InvalidParameter`] for a ticket listed twice in
    /// the batch, [`crate::CoreError::InvalidRuntime`] for a non-positive
    /// or non-finite runtime; policy validation otherwise.
    pub fn record_batch_frame(&mut self, outcomes: &[(Ticket, f64)]) -> Result<()> {
        self.record_batch_frame_logged(outcomes, |_, _, _, _| {})
    }

    /// [`BanditWare::record_batch_frame`] with a per-absorbed-round
    /// callback `log(seq, ticket, round, runtime)`, invoked in frame row
    /// order immediately before the round enters the history (`seq` is the
    /// absolute round number the observation gets). Durable serving layers
    /// use this to build a group-commit WAL buffer in the same critical
    /// section as the in-memory apply, without re-looking-up or cloning the
    /// closed rounds.
    ///
    /// # Errors
    /// As [`BanditWare::record_batch_frame`].
    pub fn record_batch_frame_logged(
        &mut self,
        outcomes: &[(Ticket, f64)],
        mut log: impl FnMut(usize, Ticket, &InFlightRound<'_>, f64),
    ) -> Result<()> {
        if outcomes.is_empty() {
            return Ok(());
        }
        self.validate_record_batch(outcomes)?;
        let BanditWare {
            policy,
            history,
            tickets,
            legacy_pending,
            batch_pos,
            batch_obs,
            batch_absorbed,
            ..
        } = self;
        let nf = policy.n_features();
        let result = if batch_pos.iter().all(|&pos| tickets.round(pos).features.len() == nf) {
            batch_obs.begin(outcomes.len(), nf);
            for (i, (&pos, &(_, runtime))) in batch_pos.iter().zip(outcomes).enumerate() {
                let round = tickets.round(pos);
                batch_obs.set_row(i, round.arm, round.features, runtime, round.explored)?;
            }
            policy.observe_frame(batch_obs, batch_absorbed)
        } else {
            // Ragged remembered widths: absorb row by row up to the first
            // failure (the reference semantics the frame path is pinned
            // against).
            batch_absorbed.clear();
            batch_absorbed.resize(outcomes.len(), false);
            let mut result = Ok(());
            for (i, (&pos, &(_, runtime))) in batch_pos.iter().zip(outcomes).enumerate() {
                let round = tickets.round(pos);
                result = policy.observe(round.arm, round.features, runtime);
                if result.is_err() {
                    break;
                }
                batch_absorbed[i] = true;
            }
            result
        };
        for (i, (&pos, &(ticket, runtime))) in batch_pos.iter().zip(outcomes).enumerate() {
            if !batch_absorbed[i] {
                continue;
            }
            let round = tickets.round(pos);
            log(history.rounds(), ticket, &round, runtime);
            if *legacy_pending == Some(ticket) {
                *legacy_pending = None;
            }
            history.push(round.arm, round.features, runtime, round.explored);
            tickets.close(pos);
        }
        tickets.sweep();
        history.settle();
        result
    }

    /// Abandon an in-flight round (e.g. the job was cancelled or its runtime
    /// was lost). Returns whether the ticket was open.
    pub fn drop_ticket(&mut self, ticket: Ticket) -> bool {
        if self.legacy_pending == Some(ticket) {
            self.legacy_pending = None;
        }
        let Some(pos) = self.tickets.position(ticket.0) else {
            return false;
        };
        self.tickets.remove(pos);
        true
    }

    /// Re-open a ticket with a specific id — the checkpoint-restore path
    /// ([`crate::persist`]): a crash mid-flight replays the history and then
    /// re-opens the rounds that were awaiting runtimes, with their original
    /// ids, so external systems holding those tickets can still record.
    ///
    /// # Errors
    /// [`crate::CoreError::ArmOutOfRange`] /
    /// [`crate::CoreError::FeatureDimMismatch`] for inconsistent state, and
    /// [`crate::CoreError::InvalidParameter`] for an id that is already open.
    pub fn reopen_ticket(
        &mut self,
        ticket: Ticket,
        arm: usize,
        features: &[f64],
        explored: bool,
    ) -> Result<()> {
        if arm >= self.specs.len() {
            return Err(CoreError::ArmOutOfRange { arm, n_arms: self.specs.len() });
        }
        // Non-contextual policies report zero features and ignore contexts.
        if self.policy.n_features() > 0 && features.len() != self.policy.n_features() {
            return Err(CoreError::FeatureDimMismatch {
                got: features.len(),
                expected: self.policy.n_features(),
            });
        }
        if !self.tickets.insert(ticket.0, arm, features, explored) {
            return Err(CoreError::InvalidParameter {
                name: "ticket",
                detail: format!("ticket {} is already open", ticket.0),
            });
        }
        self.next_ticket = self.next_ticket.max(ticket.0 + 1);
        Ok(())
    }

    /// Recommend hardware for a workflow with the given features — the
    /// legacy single-slot protocol. The selection is remembered so the
    /// following [`BanditWare::record`] can attribute the runtime without
    /// the caller re-passing everything.
    ///
    /// # Errors
    /// [`crate::CoreError::RecommendationPending`] when a previous
    /// `recommend` has not been recorded yet (use the ticketed API for
    /// overlapping rounds); propagates policy validation (feature arity).
    pub fn recommend(&mut self, features: &[f64]) -> Result<Recommendation> {
        if let Some(ticket) = self.legacy_pending {
            return Err(CoreError::RecommendationPending { ticket: ticket.0 });
        }
        let (ticket, rec) = self.recommend_ticketed(features)?;
        self.legacy_pending = Some(ticket);
        Ok(rec)
    }

    /// Record the observed runtime of the **most recent**
    /// [`BanditWare::recommend`]. Unlike the ticketed path, a failed record
    /// consumes the pending slot (the caller decides how to retry).
    ///
    /// # Errors
    /// [`crate::CoreError::InvalidRuntime`] (and policy validation); calling
    /// without a pending recommendation is an
    /// [`crate::CoreError::InvalidParameter`].
    pub fn record(&mut self, runtime: f64) -> Result<()> {
        let ticket = self.legacy_pending.take().ok_or(CoreError::InvalidParameter {
            name: "pending",
            detail: "record() called without a preceding recommend()".into(),
        })?;
        let result = self.record_ticket(ticket, runtime);
        if result.is_err() {
            // Legacy semantics: the pending slot is consumed either way.
            self.drop_ticket(ticket);
        }
        result
    }

    /// Record an externally chosen `(arm, features, runtime)` triple — e.g.
    /// when warm-starting from historical traces or replaying a checkpoint.
    /// Goes through [`Policy::warm_start`], so context-learning wrappers
    /// (the feature scaler) absorb the context they never selected on.
    ///
    /// # Errors
    /// [`crate::CoreError::NonFiniteFeature`] /
    /// [`crate::CoreError::FeatureTooLarge`] for a refused feature (nothing
    /// is absorbed); propagates policy validation.
    pub fn record_external(&mut self, arm: usize, features: &[f64], runtime: f64) -> Result<()> {
        check_row(features)?;
        self.policy.warm_start(arm, features, runtime)?;
        self.history.push(arm, features, runtime, false);
        self.history.settle();
        Ok(())
    }

    /// Replay one logged observation — the WAL/checkpoint tail-replay path.
    /// Like [`BanditWare::record_external`] (the policy absorbs it through
    /// [`Policy::warm_start`]) but the original exploration flag survives
    /// into the retained history. It takes what the log holds without the
    /// ingress check, so an existing log always recovers.
    ///
    /// # Errors
    /// Propagates policy validation.
    pub fn record_replayed(&mut self, o: &Observation) -> Result<()> {
        self.policy.warm_start(o.arm, &o.features, o.runtime)?;
        self.history.push(o.arm, &o.features, o.runtime, o.explored);
        self.history.settle();
        Ok(())
    }

    /// One full round: recommend, execute via the closure, record. Returns
    /// `(recommendation, runtime)`.
    ///
    /// # Errors
    /// Propagates recommendation/record failures.
    pub fn run_round(
        &mut self,
        features: &[f64],
        executor: impl FnOnce(&Recommendation) -> f64,
    ) -> Result<(Recommendation, f64)> {
        let rec = self.recommend(features)?;
        let runtime = executor(&rec);
        self.record(runtime)?;
        Ok((rec, runtime))
    }

    /// Pulls per arm.
    pub fn pulls(&self) -> Vec<usize> {
        self.policy.pulls()
    }

    /// Mean observed runtime per arm over the **retained** history (NaN for
    /// arms with no retained observation). Under [`Retention::Tail`] this
    /// is a windowed mean — often the more useful quantity on a drifting
    /// cluster anyway.
    pub fn mean_runtime_per_arm(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.specs.len()];
        let mut counts = vec![0usize; self.specs.len()];
        for o in self.history() {
            sums[o.arm] += o.runtime;
            counts[o.arm] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &c)| if c == 0 { f64::NAN } else { s / c as f64 })
            .collect()
    }

    /// Reset the policy, clear the history (and the dropped-rounds
    /// counter), and void every open ticket.
    pub fn reset(&mut self) {
        self.policy.reset();
        self.history.rows.clear();
        self.history.base = 0;
        self.tickets.clear();
        self.next_ticket = 0;
        self.legacy_pending = None;
    }
}

/// The recommendation for selection `sel` with prediction `predicted`.
fn recommendation(specs: &[ArmSpec], sel: Selection, predicted: f64) -> Recommendation {
    let spec = &specs[sel.arm];
    Recommendation {
        arm: sel.arm,
        name: spec.name.clone(),
        resource_cost: spec.resource_cost,
        predicted_runtime: predicted,
        explored: sel.explored,
    }
}

/// Position and value of the first feature the ingress refuses: `inf`,
/// `NaN`, or a magnitude above [`MAX_FEATURE_MAGNITUDE`].
fn first_refused(values: &[f64]) -> Option<(usize, f64)> {
    values.iter().copied().enumerate().find(|(_, v)| !(v.abs() <= MAX_FEATURE_MAGNITUDE))
}

/// The typed error for refused feature `feature` of value `value`.
fn refused(feature: usize, value: f64) -> CoreError {
    if value.is_finite() {
        CoreError::FeatureTooLarge { feature, value }
    } else {
        CoreError::NonFiniteFeature { feature, value }
    }
}

/// The ingress check for one context.
fn check_row(features: &[f64]) -> Result<()> {
    match first_refused(features) {
        Some((feature, value)) => Err(refused(feature, value)),
        None => Ok(()),
    }
}

/// The ingress error for a frame whose transpose found a refused feature:
/// the first one in column order.
fn refused_in_frame(frame: &FeatureFrame) -> CoreError {
    (0..frame.n_features())
        .find_map(|f| first_refused(frame.column(f)).map(|(_, value)| refused(f, value)))
        // The transpose and this scan apply one predicate, so a refused
        // value is always found; a NaN stands in for the impossible case.
        .unwrap_or(CoreError::NonFiniteFeature { feature: 0, value: f64::NAN })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BanditConfig;
    use crate::epsilon::EpsilonGreedy;
    use crate::CoreError;

    fn make() -> BanditWare<EpsilonGreedy> {
        let specs = vec![ArmSpec::new(0, "H0", 4.0), ArmSpec::new(1, "H1", 6.0)];
        let policy =
            EpsilonGreedy::new(specs.clone(), 1, BanditConfig::paper().with_seed(1)).unwrap();
        BanditWare::new(policy, specs)
    }

    /// Non-finite features are refused where contexts enter. Before the
    /// check, one `+inf` recorded into an arm made it predict NaN from then
    /// on, and a NaN context surfaced as a misleading `NoArms`.
    #[test]
    fn non_finite_features_are_rejected_at_ingress() {
        let mk = || {
            let specs = vec![ArmSpec::new(0, "H0", 4.0), ArmSpec::new(1, "H1", 6.0)];
            let config = BanditConfig::paper().with_epsilon0(0.3).with_seed(5);
            BanditWare::new(EpsilonGreedy::new(specs.clone(), 3, config).unwrap(), specs)
        };
        let (mut bw, mut twin) = (mk(), mk());
        for i in 0..8 {
            let x = [i as f64 + 1.0, (i % 3) as f64, 0.5 * i as f64];
            for b in [&mut bw, &mut twin] {
                let (t, _) = b.recommend_ticketed(&x).unwrap();
                b.record_ticket(t, 10.0 + x[0] + (t.id() % 2) as f64).unwrap();
            }
        }
        let probe = [3.5, 1.0, -2.0];
        let bits = |b: &BanditWare<EpsilonGreedy>| -> Vec<u64> {
            (0..2).map(|a| b.policy().predict(a, &probe).unwrap().to_bits()).collect()
        };
        let (preds, next, rounds) = (bits(&bw), bw.next_ticket_id(), bw.rounds());
        let rejected_at = |e: CoreError| match e {
            CoreError::NonFiniteFeature { feature, .. } => Some(feature),
            _ => None,
        };

        let inf = [1.0, f64::INFINITY, 2.0];
        let nan = [1.0, 2.0, f64::NAN];
        assert_eq!(rejected_at(bw.recommend_ticketed(&inf).unwrap_err()), Some(1));
        assert_eq!(rejected_at(bw.recommend_ticketed(&nan).unwrap_err()), Some(2));
        assert_eq!(rejected_at(bw.recommend(&nan).unwrap_err()), Some(2));
        let burst =
            FeatureFrame::from_rows(&[vec![1.0, 2.0, 3.0], nan.to_vec(), vec![4.0, 5.0, 6.0]])
                .unwrap();
        assert_eq!(rejected_at(bw.recommend_batch_frame(&burst).unwrap_err()), Some(2));
        let one_row = FeatureFrame::from_rows(&[inf.to_vec()]).unwrap();
        assert_eq!(rejected_at(bw.recommend_batch_frame(&one_row).unwrap_err()), Some(1));
        assert_eq!(rejected_at(bw.record_external(0, &inf, 5.0).unwrap_err()), Some(1));

        // No ticket, no absorbed round, no model change, no RNG draw: the
        // next round matches a twin that never saw the bad calls.
        assert_eq!((bw.next_ticket_id(), bw.in_flight(), bw.rounds()), (next, 0, rounds));
        assert_eq!(bits(&bw), preds);
        let x = [2.0, 2.0, 2.0];
        let (ta, ra) = bw.recommend(&x).map(|r| (bw.next_ticket_id(), r)).unwrap();
        let (tb, rb) = twin.recommend(&x).map(|r| (twin.next_ticket_id(), r)).unwrap();
        assert_eq!((ta, ra.arm, ra.explored), (tb, rb.arm, rb.explored));
        assert_eq!(ra.predicted_runtime.to_bits(), rb.predicted_runtime.to_bits());
    }

    /// Finite features too large for an arm's Gram entry are refused at
    /// the same ingress. Before the bound, `record_external(0, &[1e200, ..])`
    /// was accepted and arm 0 predicted `inf`, then `NaN`, from then on.
    #[test]
    fn overflowing_features_are_rejected_at_ingress() {
        let mk = || {
            let specs = vec![ArmSpec::new(0, "H0", 4.0), ArmSpec::new(1, "H1", 6.0)];
            let config = BanditConfig::paper().with_epsilon0(0.3).with_seed(5);
            BanditWare::new(EpsilonGreedy::new(specs.clone(), 3, config).unwrap(), specs)
        };
        let (mut bw, mut twin) = (mk(), mk());
        for i in 0..8 {
            let x = [i as f64 + 1.0, (i % 3) as f64, 0.5 * i as f64];
            for b in [&mut bw, &mut twin] {
                let (t, _) = b.recommend_ticketed(&x).unwrap();
                b.record_ticket(t, 10.0 + x[0] + (t.id() % 2) as f64).unwrap();
            }
        }
        let probe = [3.5, 1.0, -2.0];
        let bits = |b: &BanditWare<EpsilonGreedy>| -> Vec<u64> {
            (0..2).map(|a| b.policy().predict(a, &probe).unwrap().to_bits()).collect()
        };
        let (preds, next, rounds) = (bits(&bw), bw.next_ticket_id(), bw.rounds());
        let rejected_at = |e: CoreError| match e {
            CoreError::FeatureTooLarge { feature, value } => Some((feature, value)),
            _ => None,
        };

        let huge = [1.0, 2.0, 1e200];
        assert_eq!(rejected_at(bw.recommend(&huge).unwrap_err()), Some((2, 1e200)));
        assert_eq!(rejected_at(bw.recommend_ticketed(&huge).unwrap_err()), Some((2, 1e200)));
        let burst =
            FeatureFrame::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, -1e200, 6.0], huge.to_vec()])
                .unwrap();
        assert_eq!(rejected_at(bw.recommend_batch_frame(&burst).unwrap_err()), Some((1, -1e200)));
        let one_row = FeatureFrame::from_rows(&[huge.to_vec()]).unwrap();
        assert_eq!(rejected_at(bw.recommend_batch_frame(&one_row).unwrap_err()), Some((2, 1e200)));
        assert_eq!(rejected_at(bw.record_external(0, &huge, 5.0).unwrap_err()), Some((2, 1e200)));
        // The bound itself is accepted.
        let edge = [MAX_FEATURE_MAGNITUDE, -MAX_FEATURE_MAGNITUDE, 0.0];
        assert_eq!(check_row(&edge), Ok(()));

        // No ticket, no absorbed round, no model change, no RNG draw.
        assert_eq!((bw.next_ticket_id(), bw.in_flight(), bw.rounds()), (next, 0, rounds));
        assert_eq!(bits(&bw), preds);
        let x = [2.0, 2.0, 2.0];
        let (ta, ra) = bw.recommend(&x).map(|r| (bw.next_ticket_id(), r)).unwrap();
        let (tb, rb) = twin.recommend(&x).map(|r| (twin.next_ticket_id(), r)).unwrap();
        assert_eq!((ta, ra.arm, ra.explored), (tb, rb.arm, rb.explored));
        assert_eq!(ra.predicted_runtime.to_bits(), rb.predicted_runtime.to_bits());

        // Replay takes what the log holds.
        let o = Observation {
            round: 0,
            arm: 1,
            features: huge.to_vec(),
            runtime: 8.0,
            explored: false,
        };
        twin.record_replayed(&o).unwrap();
        assert_eq!(twin.history().last().map(|h| h.features[2]), Some(1e200));
    }

    #[test]
    fn first_refused_finds_every_position() {
        for n in 0..11 {
            let clean: Vec<f64> = (0..n).map(|i| i as f64 * 1e99 - 3.0).collect();
            assert_eq!(first_refused(&clean), None);
            for pos in 0..n {
                for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1.5e100, -1e300] {
                    let mut v = clean.clone();
                    v[pos] = bad;
                    let (at, value) = first_refused(&v).unwrap();
                    assert_eq!((at, value.to_bits()), (pos, bad.to_bits()), "n={n}");
                }
            }
        }
    }

    #[test]
    fn recommend_then_record_builds_history() {
        let mut bw = make();
        let rec = bw.recommend(&[10.0]).unwrap();
        assert!(rec.arm < 2);
        assert!(rec.name.starts_with('H'));
        bw.record(42.0).unwrap();
        assert_eq!(bw.rounds(), 1);
        let h = &bw.history()[0];
        assert_eq!(h.runtime, 42.0);
        assert_eq!(h.features, vec![10.0]);
        assert_eq!(h.round, 0);
        assert_eq!(bw.in_flight(), 0);
    }

    #[test]
    fn record_without_recommend_errors() {
        let mut bw = make();
        assert!(matches!(bw.record(1.0), Err(CoreError::InvalidParameter { .. })));
    }

    #[test]
    fn double_record_errors() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        bw.record(5.0).unwrap();
        assert!(bw.record(5.0).is_err());
    }

    #[test]
    fn double_recommend_is_explicit_error() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        let err = bw.recommend(&[2.0]).unwrap_err();
        assert!(matches!(err, CoreError::RecommendationPending { .. }), "{err:?}");
        // The slot is intact: recording the first round still works.
        bw.record(9.0).unwrap();
        assert_eq!(bw.rounds(), 1);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        // And the protocol can continue.
        bw.recommend(&[2.0]).unwrap();
        bw.record(4.0).unwrap();
        assert_eq!(bw.rounds(), 2);
    }

    #[test]
    fn ticketed_rounds_overlap_and_record_out_of_order() {
        let mut bw = make();
        let (t1, r1) = bw.recommend_ticketed(&[1.0]).unwrap();
        let (t2, _r2) = bw.recommend_ticketed(&[2.0]).unwrap();
        let (t3, _r3) = bw.recommend_ticketed(&[3.0]).unwrap();
        assert_eq!(bw.in_flight(), 3);
        assert_ne!(t1, t2);
        assert!(r1.arm < 2);
        // Record in reverse order.
        bw.record_ticket(t3, 30.0).unwrap();
        bw.record_ticket(t1, 10.0).unwrap();
        bw.record_ticket(t2, 20.0).unwrap();
        assert_eq!(bw.in_flight(), 0);
        assert_eq!(bw.rounds(), 3);
        // History is in *record* order; features attribute correctly.
        assert_eq!(bw.history()[0].features, vec![3.0]);
        assert_eq!(bw.history()[0].runtime, 30.0);
        assert_eq!(bw.history()[1].features, vec![1.0]);
        assert_eq!(bw.history()[2].features, vec![2.0]);
        // Round numbers are record-order too.
        assert_eq!(bw.history()[2].round, 2);
    }

    #[test]
    fn unknown_and_double_tickets_error() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        bw.record_ticket(t, 5.0).unwrap();
        assert!(matches!(
            bw.record_ticket(t, 5.0),
            Err(CoreError::UnknownTicket { ticket }) if ticket == t.id()
        ));
        assert!(matches!(
            bw.record_ticket(Ticket::from_id(999), 5.0),
            Err(CoreError::UnknownTicket { ticket: 999 })
        ));
    }

    #[test]
    fn dropped_ticket_is_gone() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[7.0]).unwrap();
        assert_eq!(bw.in_flight_round(t).unwrap().features, &[7.0]);
        assert!(bw.drop_ticket(t));
        assert_eq!(bw.in_flight(), 0);
        assert!(!bw.drop_ticket(t), "double drop is a no-op");
        assert!(matches!(bw.record_ticket(t, 5.0), Err(CoreError::UnknownTicket { .. })));
        // Dropped rounds never reach the history or the model.
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
    }

    #[test]
    fn invalid_runtime_keeps_ticket_open() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        assert!(matches!(bw.record_ticket(t, -4.0), Err(CoreError::InvalidRuntime(_))));
        assert_eq!(bw.in_flight(), 1, "failed record leaves the round open");
        bw.record_ticket(t, 4.0).unwrap();
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn batch_recommend_then_batch_record() {
        let mut bw = make();
        let contexts: Vec<Vec<f64>> = (1..=5).map(|i| vec![i as f64]).collect();
        let issued =
            bw.recommend_batch_frame(&FeatureFrame::from_rows(&contexts).unwrap()).unwrap();
        assert_eq!(issued.len(), 5);
        assert_eq!(bw.in_flight(), 5);
        // Ticket ids are unique and ascending in input order.
        for w in issued.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        let outcomes: Vec<(Ticket, f64)> =
            issued.iter().map(|(t, r)| (*t, 10.0 * (r.arm + 1) as f64)).collect();
        bw.record_batch_frame(&outcomes).unwrap();
        assert_eq!(bw.rounds(), 5);
        assert_eq!(bw.in_flight(), 0);
        assert_eq!(bw.pulls().iter().sum::<usize>(), 5);
    }

    #[test]
    fn batch_record_validates_atomically() {
        let mut bw = make();
        let issued = bw
            .recommend_batch_frame(&FeatureFrame::from_rows(&[vec![1.0], vec![2.0]]).unwrap())
            .unwrap();
        let (t0, t1) = (issued[0].0, issued[1].0);
        // Unknown ticket in the batch → nothing absorbed.
        let err = bw.record_batch_frame(&[(t0, 5.0), (Ticket::from_id(77), 5.0)]).unwrap_err();
        assert!(matches!(err, CoreError::UnknownTicket { ticket: 77 }));
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.in_flight(), 2);
        // Duplicate ticket within a batch → rejected up front, named as a
        // duplicate (not as an unknown ticket — it IS in flight).
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t0, 6.0)]),
            Err(CoreError::InvalidParameter { name: "outcomes", .. })
        ));
        assert_eq!(bw.rounds(), 0);
        // Invalid runtime anywhere → nothing absorbed.
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t1, f64::NAN)]),
            Err(CoreError::InvalidRuntime(_))
        ));
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
        // A clean batch then succeeds.
        bw.record_batch_frame(&[(t1, 7.0), (t0, 5.0)]).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.history()[0].features, vec![2.0], "record order preserved");
    }

    #[test]
    fn batch_record_policy_failure_consumes_only_the_recorded_prefix() {
        /// A policy whose refit "numerically fails" on runtimes above 1000
        /// — a stand-in for a rank-deficient least-squares failure that
        /// request validation cannot catch up front.
        #[derive(Debug)]
        struct Brittle {
            observed: usize,
        }
        impl Policy for Brittle {
            fn name(&self) -> String {
                "brittle".into()
            }
            fn n_arms(&self) -> usize {
                2
            }
            fn n_features(&self) -> usize {
                1
            }
            fn select(&mut self, _x: &[f64]) -> crate::Result<crate::policy::Selection> {
                Ok(crate::policy::Selection { arm: 0, explored: false })
            }
            fn observe(&mut self, _arm: usize, _x: &[f64], runtime: f64) -> crate::Result<()> {
                if runtime > 1000.0 {
                    return Err(CoreError::Linalg(
                        banditware_linalg::LinalgError::InsufficientData { have: 0, need: 1 },
                    ));
                }
                self.observed += 1;
                Ok(())
            }
            fn predict(&self, _arm: usize, _x: &[f64]) -> crate::Result<f64> {
                Ok(0.0)
            }
            fn pulls(&self) -> Vec<usize> {
                vec![self.observed, 0]
            }
            fn reset(&mut self) {
                self.observed = 0;
            }
        }

        let mut bw = BanditWare::new(Brittle { observed: 0 }, ArmSpec::unit_costs(2));
        let issued = bw
            .recommend_batch_frame(
                &FeatureFrame::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap(),
            )
            .unwrap();
        let (t0, t1, t2) = (issued[0].0, issued[1].0, issued[2].0);
        // Outcome for t1 fails inside the policy; t0 was already absorbed.
        let err = bw.record_batch_frame(&[(t0, 5.0), (t1, 5000.0), (t2, 7.0)]).unwrap_err();
        assert!(matches!(err, CoreError::Linalg(_)));
        // The recorded prefix is consumed and in the history; the failing
        // round and its successors stay open for retry.
        assert_eq!(bw.rounds(), 1);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        assert_eq!(bw.open_tickets(), vec![t1, t2]);
        // Retrying the full batch cannot double-count: the consumed ticket
        // is rejected up front, leaving the model untouched.
        assert!(matches!(
            bw.record_batch_frame(&[(t0, 5.0), (t1, 6.0), (t2, 7.0)]),
            Err(CoreError::UnknownTicket { .. })
        ));
        assert_eq!(bw.rounds(), 1);
        // Retrying only the open remainder succeeds.
        bw.record_batch_frame(&[(t1, 6.0), (t2, 7.0)]).unwrap();
        assert_eq!(bw.rounds(), 3);
        assert_eq!(bw.in_flight(), 0);
    }

    #[test]
    fn legacy_and_ticketed_paths_interleave() {
        let mut bw = make();
        let (t, _) = bw.recommend_ticketed(&[5.0]).unwrap();
        // Legacy slot is independent of open tickets.
        bw.recommend(&[1.0]).unwrap();
        bw.record(11.0).unwrap();
        bw.record_ticket(t, 55.0).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.history()[0].features, vec![1.0]);
        assert_eq!(bw.history()[1].features, vec![5.0]);
    }

    #[test]
    fn run_round_executes_closure() {
        let mut bw = make();
        let (rec, rt) = bw
            .run_round(&[3.0], |r| {
                // slower hardware takes longer
                100.0 + r.arm as f64 * 10.0
            })
            .unwrap();
        assert_eq!(rt, 100.0 + rec.arm as f64 * 10.0);
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn record_external_warm_start() {
        let mut bw = make();
        for i in 1..=10 {
            bw.record_external(0, &[i as f64], 2.0 * i as f64 + 5.0).unwrap();
        }
        assert_eq!(bw.rounds(), 10);
        assert_eq!(bw.pulls(), vec![10, 0]);
        // model learned from external data
        let pred = bw.policy().predict(0, &[20.0]).unwrap();
        assert!((pred - 45.0).abs() < 1.0, "pred {pred}");
        let means = bw.mean_runtime_per_arm();
        assert!((means[0] - 16.0).abs() < 1e-9);
        assert!(means[1].is_nan());
    }

    #[test]
    fn invalid_runtime_keeps_history_clean() {
        let mut bw = make();
        bw.recommend(&[1.0]).unwrap();
        assert!(bw.record(-1.0).is_err());
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.in_flight(), 0, "legacy record consumes the slot on error");
        // a fresh recommendation works again
        bw.recommend(&[1.0]).unwrap();
        bw.record(3.0).unwrap();
        assert_eq!(bw.rounds(), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut bw = make();
        bw.run_round(&[1.0], |_| 5.0).unwrap();
        let (t, _) = bw.recommend_ticketed(&[2.0]).unwrap();
        bw.reset();
        assert_eq!(bw.rounds(), 0);
        assert_eq!(bw.pulls(), vec![0, 0]);
        assert_eq!(bw.in_flight(), 0);
        assert!(bw.record(1.0).is_err(), "pending cleared");
        assert!(bw.record_ticket(t, 1.0).is_err(), "tickets voided");
        // Ticket ids restart from zero after a reset.
        let (t2, _) = bw.recommend_ticketed(&[1.0]).unwrap();
        assert_eq!(t2.id(), 0);
    }

    #[test]
    fn reopen_ticket_restores_mid_flight_state() {
        let mut bw = make();
        bw.reopen_ticket(Ticket::from_id(41), 1, &[9.0], true).unwrap();
        assert_eq!(bw.open_tickets(), vec![Ticket::from_id(41)]);
        // Duplicate / invalid reopens are rejected.
        assert!(bw.reopen_ticket(Ticket::from_id(41), 0, &[1.0], false).is_err());
        assert!(bw.reopen_ticket(Ticket::from_id(42), 9, &[1.0], false).is_err());
        assert!(bw.reopen_ticket(Ticket::from_id(43), 0, &[1.0, 2.0], false).is_err());
        // Fresh tickets never collide with a reopened id.
        let (t, _) = bw.recommend_ticketed(&[3.0]).unwrap();
        assert_eq!(t.id(), 42);
        // The reopened round records like any other.
        bw.record_ticket(Ticket::from_id(41), 12.0).unwrap();
        let h = &bw.history()[0];
        assert_eq!((h.arm, h.explored), (1, true));
        assert_eq!(h.features, vec![9.0]);
    }

    #[test]
    fn boxed_policy_facade_works() {
        let specs = ArmSpec::unit_costs(2);
        let policy: Box<dyn Policy> = Box::new(
            EpsilonGreedy::new(specs.clone(), 1, BanditConfig::paper().with_seed(3)).unwrap(),
        );
        let mut bw: BanditWare<Box<dyn Policy>> = BanditWare::new(policy, specs);
        let issued = bw
            .recommend_batch_frame(&FeatureFrame::from_rows(&[vec![1.0], vec![2.0]]).unwrap())
            .unwrap();
        let outcomes: Vec<(Ticket, f64)> = issued.iter().map(|(t, _)| (*t, 5.0)).collect();
        bw.record_batch_frame(&outcomes).unwrap();
        assert_eq!(bw.rounds(), 2);
        assert_eq!(bw.policy().name(), "decaying-contextual-epsilon-greedy");
    }

    #[test]
    fn tail_retention_bounds_history_and_keeps_counting() {
        let mut bw = make().with_retention(Retention::Tail(5));
        for i in 0..40 {
            bw.run_round(&[i as f64], |_| 10.0 + i as f64).unwrap();
        }
        assert_eq!(bw.rounds(), 40, "round counter is lifetime-total");
        assert_eq!(bw.history().len(), 5, "history bounded at the tail");
        // The tail holds the most recent rounds with absolute numbering.
        assert_eq!(bw.history()[0].round, 35);
        assert_eq!(bw.history()[4].round, 39);
        assert_eq!(bw.history()[4].features, vec![39.0]);
        // The model saw everything, not just the tail.
        assert_eq!(bw.pulls().iter().sum::<usize>(), 40);
        // Tightening retention trims immediately.
        bw.set_retention(Retention::Tail(2));
        assert_eq!(bw.history().len(), 2);
        assert_eq!(bw.history()[0].round, 38);
        assert_eq!(bw.rounds(), 40);
        // Reset clears the dropped-rounds counter too.
        bw.reset();
        assert_eq!(bw.rounds(), 0);
        assert!(bw.history().is_empty());
    }

    #[test]
    fn none_retention_stores_nothing() {
        let mut bw = make().with_retention(Retention::None);
        for i in 0..10 {
            bw.run_round(&[i as f64], |_| 5.0).unwrap();
        }
        assert_eq!(bw.rounds(), 10);
        assert!(bw.history().is_empty());
        assert_eq!(bw.retention(), Retention::None);
        // Per-arm means over an empty retained history are all-NaN.
        assert!(bw.mean_runtime_per_arm().iter().all(|m| m.is_nan()));
    }

    #[test]
    fn in_flight_round_exposes_open_selection() {
        let mut bw = make();
        let (t, rec) = bw.recommend_ticketed(&[7.0]).unwrap();
        let round = bw.in_flight_round(t).unwrap();
        assert_eq!(round.arm, rec.arm);
        assert_eq!(round.features, &[7.0]);
        bw.record_ticket(t, 3.0).unwrap();
        assert!(bw.in_flight_round(t).is_none());
    }

    #[test]
    fn record_replayed_preserves_exploration_flag() {
        let mut bw = make();
        let o = Observation { round: 0, arm: 1, features: vec![2.0], runtime: 8.0, explored: true };
        bw.record_replayed(&o).unwrap();
        assert_eq!(bw.history()[0].explored, true);
        assert_eq!(bw.pulls(), vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "policy arms != specs")]
    fn spec_mismatch_panics() {
        let policy = EpsilonGreedy::new(ArmSpec::unit_costs(2), 1, BanditConfig::paper()).unwrap();
        let _ = BanditWare::new(policy, ArmSpec::unit_costs(3));
    }

    #[test]
    fn predicted_runtime_populated_after_learning() {
        let mut bw = make();
        for _ in 0..30 {
            bw.run_round(&[5.0], |_| 50.0).unwrap();
        }
        let rec = bw.recommend(&[5.0]).unwrap();
        assert!((rec.predicted_runtime - 50.0).abs() < 5.0);
        assert!(rec.resource_cost > 0.0);
    }
}
