//! Checkpointing: three on-disk formats, one reader.
//!
//! BanditWare runs for the lifetime of a platform, not a process. Every
//! policy in this crate is a deterministic function of its **sufficient
//! statistics**, which admits two very different checkpoint strategies:
//!
//! * **v1/v2 — the observation log** ([`save_history`]): one completed
//!   round per line; restore replays the log into a fresh policy at
//!   O(n·m²). v2 adds the open-ticket table and the ticket counter. These
//!   formats remain fully supported — they are policy-agnostic (the same
//!   log replays into *any* algorithm) and they are what ad-hoc policies
//!   without snapshot support use.
//! * **v3 — the statistics snapshot** ([`save_checkpoint`]): the policy's
//!   exact live state ([`crate::Policy::snapshot`] — Gram matrices, live
//!   Cholesky factors, scaler statistics, RNG stream positions, schedules)
//!   plus an optional bounded history tail, the open-ticket table, and the
//!   absolute round counter. Restore is O(m²) **independent of history
//!   length**, and bitwise-faithful: the restored recommender emits exactly
//!   the stream the replayed (or live) one would.
//!
//! All three are line-oriented text (floats in Rust's shortest-round-trip
//! form, which is exact), so checkpoints survive crate upgrades and can be
//! inspected with standard tools:
//!
//! ```text
//! banditware-history v3
//! stats snapshot: rounds + policy state + tail + open tickets
//! rounds,120
//! p,kind,epsilon,0.29953…,3
//! p,rng,139…,482…,77…,901…
//! p,arm,0,recursive,…
//! p,end
//! tail,0,1,153.2,100
//! open,5,1,0,420
//! next,6
//! ```
//!
//! [`load_checkpoint`] reads any version and [`restore_checkpoint`] applies
//! it — v1/v2 by replay, v3 by state restore — so callers never dispatch on
//! the format themselves.

use crate::bandit::{BanditWare, Observation, Ticket};
use crate::error::CoreError;
use crate::policy::Policy;
use crate::snapshot::{parse_policy_state, write_policy_state, LineCursor, PolicyState};
use crate::Result;
use std::io::{BufRead, BufReader, Read, Write};

const MAGIC_V1: &str = "banditware-history v1";
const MAGIC_V2: &str = "banditware-history v2";
const MAGIC_V3: &str = "banditware-history v3";
const V3_DESCRIPTOR: &str = "stats snapshot: rounds + policy state + tail + open tickets";

/// A round that was awaiting its runtime when the checkpoint was taken.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRound {
    /// The ticket id the caller is still holding.
    pub ticket: u64,
    /// Chosen arm.
    pub arm: usize,
    /// Context the recommendation was made for.
    pub features: Vec<f64>,
    /// Whether the selection was an exploration draw.
    pub explored: bool,
}

/// Everything a v2 checkpoint holds: the completed rounds, the rounds that
/// were still in flight, and the ticket counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistorySnapshot {
    /// Completed observations, in record order.
    pub observations: Vec<Observation>,
    /// Open tickets, in ascending ticket order.
    pub open_rounds: Vec<OpenRound>,
    /// The recommender's next-ticket counter (`next,<id>` line). Restoring
    /// it guarantees ids consumed before the crash are never reissued, so a
    /// reporter retrying a lost acknowledgement gets
    /// [`CoreError::UnknownTicket`] instead of silently recording against a
    /// fresh round. Zero in v1 files and pre-counter v2 files.
    pub next_ticket: u64,
}

/// Everything a v3 checkpoint holds: the policy's exact state, the absolute
/// round counter, the retained history tail, the open-ticket table, and the
/// ticket counter.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSnapshot {
    /// The policy's complete live state (see [`crate::Policy::snapshot`]).
    pub policy: PolicyState,
    /// Rounds recorded over the recommender's lifetime (≥ `tail.len()`;
    /// the tail holds rounds `total_rounds − tail.len() .. total_rounds`).
    pub total_rounds: usize,
    /// The retained observation tail (possibly empty — the policy state
    /// already contains every observation's effect; the tail is context
    /// for inspection and windowed summaries).
    pub tail: Vec<Observation>,
    /// Open tickets, in ascending ticket order.
    pub open_rounds: Vec<OpenRound>,
    /// The recommender's next-ticket counter.
    pub next_ticket: u64,
}

/// A parsed checkpoint of any version, tagged by how it restores.
#[derive(Debug, Clone, PartialEq)]
pub enum Checkpoint {
    /// A v1/v2 observation log: restore by replaying into a fresh policy
    /// (O(n·m²), policy-agnostic).
    Replay(HistorySnapshot),
    /// A v3 statistics snapshot: restore by installing the policy state
    /// (O(m²), independent of history length, bitwise-faithful).
    Stats(StateSnapshot),
}

impl Checkpoint {
    /// Rounds the restored recommender will report.
    pub fn total_rounds(&self) -> usize {
        match self {
            Checkpoint::Replay(h) => h.observations.len(),
            Checkpoint::Stats(s) => s.total_rounds,
        }
    }

    /// Open tickets carried by the checkpoint.
    pub fn open_rounds(&self) -> &[OpenRound] {
        match self {
            Checkpoint::Replay(h) => &h.open_rounds,
            Checkpoint::Stats(s) => &s.open_rounds,
        }
    }
}

fn io_err(op: &'static str) -> impl Fn(std::io::Error) -> CoreError {
    move |e| CoreError::Io { op, kind: e.kind(), message: e.to_string() }
}

/// Serialize a recommender's history — and any open tickets — to a writer
/// (v2 format).
///
/// # Errors
/// [`CoreError::InvalidParameter`] when the recommender has dropped
/// observations under a bounded [`crate::Retention`] policy: a v2 log of
/// only the retained tail would silently replay into a different model.
/// Use [`save_checkpoint`] (v3) for retention-bounded recommenders —
/// that is the format built for them. [`CoreError::Io`] on IO failures.
pub fn save_history<P: Policy>(bandit: &BanditWare<P>, mut writer: impl Write) -> Result<()> {
    if bandit.rounds() > bandit.history().len() {
        return Err(CoreError::InvalidParameter {
            name: "history",
            detail: format!(
                "{} of {} recorded rounds were dropped by the retention policy; a v2 log \
                 would replay into a different model — use save_checkpoint (v3)",
                bandit.rounds() - bandit.history().len(),
                bandit.rounds()
            ),
        });
    }
    let io = io_err("save");
    writeln!(writer, "{MAGIC_V2}").map_err(&io)?;
    writeln!(writer, "arm,explored,runtime,features...").map_err(&io)?;
    for o in bandit.history() {
        let features: Vec<String> = o.features.iter().map(|f| format!("{f}")).collect();
        writeln!(
            writer,
            "{},{},{},{}",
            o.arm,
            if o.explored { 1 } else { 0 },
            o.runtime,
            features.join(",")
        )
        .map_err(&io)?;
    }
    for (ticket, round) in bandit.open_rounds() {
        let features: Vec<String> = round.features.iter().map(|f| format!("{f}")).collect();
        writeln!(
            writer,
            "open,{},{},{},{}",
            ticket.id(),
            round.arm,
            if round.explored { 1 } else { 0 },
            features.join(",")
        )
        .map_err(&io)?;
    }
    if bandit.next_ticket_id() > 0 {
        writeln!(writer, "next,{}", bandit.next_ticket_id()).map_err(&io)?;
    }
    Ok(())
}

/// A format violation at 0-based line `line` of a history/checkpoint file.
fn parse_err(line: usize, detail: String) -> CoreError {
    CoreError::InvalidParameter { name: "history", detail: format!("line {}: {detail}", line + 1) }
}

/// The feature fields of a round line (everything after its fixed
/// prefix). The writers join features after a trailing comma, so a
/// zero-feature round (a non-contextual policy's empty context) is one
/// empty field and reads back as no features.
fn parse_features(fields: &[&str], line: usize) -> Result<Vec<f64>> {
    if fields == [""] {
        return Ok(Vec::new());
    }
    fields
        .iter()
        .map(|f| f.parse::<f64>().map_err(|e| parse_err(line, format!("bad feature: {e}"))))
        .collect()
}

fn parse_explored(field: &str, line: usize) -> Result<bool> {
    match field {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(parse_err(line, format!("bad explored flag {other:?}"))),
    }
}

/// Parse a v1 **or** v2 history file into a full snapshot (observations plus
/// open tickets; round numbers are assigned sequentially).
///
/// # Errors
/// [`CoreError::Io`] on read failures, [`CoreError::InvalidParameter`] on
/// format violations with the offending line number in the message.
pub fn load_snapshot(reader: impl Read) -> Result<HistorySnapshot> {
    let buf = BufReader::new(reader);
    let mut lines = buf.lines().enumerate();
    let read_err =
        |e: std::io::Error| CoreError::Io { op: "load", kind: e.kind(), message: e.to_string() };

    let (i, first) = lines.next().ok_or_else(|| parse_err(0, "empty input".into()))?;
    let first = first.map_err(read_err)?;
    let v2 = match first.trim() {
        MAGIC_V1 => false,
        MAGIC_V2 => true,
        MAGIC_V3 => {
            return Err(parse_err(
                i,
                "v3 checkpoints hold policy state, not an observation log; \
                 use load_checkpoint/restore_checkpoint"
                    .into(),
            ))
        }
        other => {
            return Err(parse_err(
                i,
                format!("expected header {MAGIC_V1:?} or {MAGIC_V2:?}, found {other:?}"),
            ))
        }
    };
    // Column header line (ignored beyond existence).
    let (_, header) = lines.next().ok_or_else(|| parse_err(1, "missing column header".into()))?;
    header.map_err(read_err)?;

    let mut snapshot = HistorySnapshot::default();
    for (i, line) in lines {
        let line = line.map_err(read_err)?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields[0] == "open" {
            if !v2 {
                return Err(parse_err(i, "open-ticket line in a v1 file".into()));
            }
            if fields.len() < 4 {
                return Err(parse_err(
                    i,
                    format!("open ticket needs >= 4 fields, found {}", fields.len()),
                ));
            }
            let ticket: u64 =
                fields[1].parse().map_err(|e| parse_err(i, format!("bad ticket: {e}")))?;
            let arm: usize =
                fields[2].parse().map_err(|e| parse_err(i, format!("bad arm: {e}")))?;
            let explored = parse_explored(fields[3], i)?;
            let features = parse_features(&fields[4..], i)?;
            snapshot.open_rounds.push(OpenRound { ticket, arm, features, explored });
            continue;
        }
        if fields[0] == "next" {
            if !v2 {
                return Err(parse_err(i, "ticket-counter line in a v1 file".into()));
            }
            if fields.len() != 2 {
                return Err(parse_err(i, "ticket counter needs exactly 2 fields".into()));
            }
            let next: u64 =
                fields[1].parse().map_err(|e| parse_err(i, format!("bad ticket counter: {e}")))?;
            snapshot.next_ticket = snapshot.next_ticket.max(next);
            continue;
        }
        if !snapshot.open_rounds.is_empty() {
            return Err(parse_err(i, "observation after open-ticket section".into()));
        }
        if fields.len() < 3 {
            return Err(parse_err(i, format!("expected >= 3 fields, found {}", fields.len())));
        }
        let arm: usize = fields[0].parse().map_err(|e| parse_err(i, format!("bad arm: {e}")))?;
        let explored = parse_explored(fields[1], i)?;
        let runtime: f64 =
            fields[2].parse().map_err(|e| parse_err(i, format!("bad runtime: {e}")))?;
        let features = parse_features(&fields[3..], i)?;
        snapshot.observations.push(Observation {
            round: snapshot.observations.len(),
            arm,
            features,
            runtime,
            explored,
        });
    }
    Ok(snapshot)
}

/// Parse a history file back into observations only (round numbers are
/// assigned sequentially). Accepts v1 and v2 files; open tickets in a v2
/// file are ignored — use [`load_snapshot`] to recover them.
///
/// # Errors
/// See [`load_snapshot`].
pub fn load_history(reader: impl Read) -> Result<Vec<Observation>> {
    Ok(load_snapshot(reader)?.observations)
}

/// Restore a recommender by replaying a saved history into a fresh policy.
/// The policy's models end up exactly as if it had observed the log live
/// (ε schedule included — each replayed observation decays it).
///
/// # Errors
/// Propagates policy validation (e.g. arm/feature mismatches between the
/// log and the fresh policy).
pub fn replay_into<P: Policy>(
    bandit: &mut BanditWare<P>,
    observations: &[Observation],
) -> Result<()> {
    for o in observations {
        bandit.record_external(o.arm, &o.features, o.runtime)?;
    }
    Ok(())
}

/// Restore a recommender from a full snapshot: replay the observations,
/// re-open every in-flight ticket with its original id (so callers holding
/// tickets across the crash can still `record_ticket` against them), and
/// restore the ticket counter (so ids consumed before the crash are never
/// reissued).
///
/// # Errors
/// Propagates policy validation and ticket-reopen failures.
pub fn restore_snapshot<P: Policy>(
    bandit: &mut BanditWare<P>,
    snapshot: &HistorySnapshot,
) -> Result<()> {
    replay_into(bandit, &snapshot.observations)?;
    for open in &snapshot.open_rounds {
        bandit.reopen_ticket(
            Ticket::from_id(open.ticket),
            open.arm,
            &open.features,
            open.explored,
        )?;
    }
    bandit.advance_ticket_counter(snapshot.next_ticket);
    Ok(())
}

fn write_obs_line(
    writer: &mut impl Write,
    prefix: &str,
    arm: usize,
    explored: bool,
    runtime: f64,
    features: &[f64],
    io: &impl Fn(std::io::Error) -> CoreError,
) -> Result<()> {
    let features: Vec<String> = features.iter().map(|f| format!("{f}")).collect();
    writeln!(
        writer,
        "{prefix}{arm},{},{runtime},{}",
        if explored { 1 } else { 0 },
        features.join(",")
    )
    .map_err(io)
}

/// Serialize a recommender as a **v3 statistics snapshot**: the policy's
/// exact state, the absolute round counter, whatever history tail the
/// recommender retains, the open-ticket table, and the ticket counter.
///
/// Restoring ([`restore_checkpoint`]) is O(m²) regardless of how many
/// rounds were ever recorded, and bitwise-faithful — including RNG stream
/// positions, which v2 replay deliberately does not capture.
///
/// # Errors
/// [`CoreError::InvalidParameter`] when the policy does not support state
/// snapshots ([`crate::PolicyState::Opaque`] — use [`save_history`] for
/// those); [`CoreError::Io`] on IO failures.
pub fn save_checkpoint<P: Policy>(bandit: &BanditWare<P>, mut writer: impl Write) -> Result<()> {
    let io = io_err("save");
    let state = bandit.policy().snapshot();
    // Serialize into a buffer first: a policy (or a nested arm) without
    // snapshot support must fail *before* a single byte reaches the
    // caller's writer, never leaving a truncated header on disk.
    let mut buf = Vec::new();
    writeln!(buf, "{MAGIC_V3}").map_err(&io)?;
    writeln!(buf, "{V3_DESCRIPTOR}").map_err(&io)?;
    writeln!(buf, "rounds,{}", bandit.rounds()).map_err(&io)?;
    write_policy_state(&state, &mut buf)?;
    for o in bandit.history() {
        write_obs_line(&mut buf, "tail,", o.arm, o.explored, o.runtime, &o.features, &io)?;
    }
    for (ticket, round) in bandit.open_rounds() {
        let features: Vec<String> = round.features.iter().map(|f| format!("{f}")).collect();
        writeln!(
            buf,
            "open,{},{},{},{}",
            ticket.id(),
            round.arm,
            if round.explored { 1 } else { 0 },
            features.join(",")
        )
        .map_err(&io)?;
    }
    if bandit.next_ticket_id() > 0 {
        writeln!(buf, "next,{}", bandit.next_ticket_id()).map_err(&io)?;
    }
    writer.write_all(&buf).map_err(&io)
}

/// Parse a checkpoint of **any** version: v1/v2 observation logs come back
/// as [`Checkpoint::Replay`], v3 statistics snapshots as
/// [`Checkpoint::Stats`]. Feed the result to [`restore_checkpoint`].
///
/// # Errors
/// [`CoreError::Io`] on read failures, [`CoreError::InvalidParameter`] on
/// format violations with the offending line number in the message.
pub fn load_checkpoint(reader: impl Read) -> Result<Checkpoint> {
    let read_err =
        |e: std::io::Error| CoreError::Io { op: "load", kind: e.kind(), message: e.to_string() };
    let mut text = String::new();
    BufReader::new(reader).read_to_string(&mut text).map_err(read_err)?;
    let first = text.lines().next().unwrap_or("").trim();
    if first == MAGIC_V3 {
        parse_v3(&text).map(Checkpoint::Stats)
    } else {
        load_snapshot(text.as_bytes()).map(Checkpoint::Replay)
    }
}

fn parse_v3(text: &str) -> Result<StateSnapshot> {
    let lines: Vec<(usize, String)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| (i, l.to_string()))
        .collect();
    // Header (validated by the caller) + descriptor + rounds lines.
    if lines.len() < 3 {
        return Err(parse_err(lines.len(), "truncated v3 header".into()));
    }
    // rounds,<total>
    let (no, rounds_line) = (lines[2].0, lines[2].1.as_str());
    let total_rounds = rounds_line
        .strip_prefix("rounds,")
        .ok_or_else(|| parse_err(no, format!("expected \"rounds,<n>\", found {rounds_line:?}")))?
        .parse::<usize>()
        .map_err(|e| parse_err(no, format!("bad round counter: {e}")))?;
    // Policy block.
    let mut cur = LineCursor::new(&lines[3..]);
    let policy = parse_policy_state(&mut cur)?;

    // Tail / open / next lines.
    let mut tail: Vec<Observation> = Vec::new();
    let mut open_rounds: Vec<OpenRound> = Vec::new();
    let mut next_ticket = 0u64;
    while let Some((i, line)) = cur.next_line() {
        let fields: Vec<&str> = line.split(',').collect();
        match fields[0] {
            "tail" => {
                if !open_rounds.is_empty() {
                    return Err(parse_err(i, "tail line after open-ticket section".into()));
                }
                if fields.len() < 4 {
                    return Err(parse_err(
                        i,
                        format!("tail needs >= 4 fields, found {}", fields.len()),
                    ));
                }
                let arm: usize =
                    fields[1].parse().map_err(|e| parse_err(i, format!("bad arm: {e}")))?;
                let explored = parse_explored(fields[2], i)?;
                let runtime: f64 =
                    fields[3].parse().map_err(|e| parse_err(i, format!("bad runtime: {e}")))?;
                let features = parse_features(&fields[4..], i)?;
                tail.push(Observation { round: 0, arm, features, runtime, explored });
            }
            "open" => {
                if fields.len() < 4 {
                    return Err(parse_err(
                        i,
                        format!("open ticket needs >= 4 fields, found {}", fields.len()),
                    ));
                }
                let ticket: u64 =
                    fields[1].parse().map_err(|e| parse_err(i, format!("bad ticket: {e}")))?;
                let arm: usize =
                    fields[2].parse().map_err(|e| parse_err(i, format!("bad arm: {e}")))?;
                let explored = parse_explored(fields[3], i)?;
                let features = parse_features(&fields[4..], i)?;
                open_rounds.push(OpenRound { ticket, arm, features, explored });
            }
            "next" => {
                if fields.len() != 2 {
                    return Err(parse_err(i, "ticket counter needs exactly 2 fields".into()));
                }
                let next: u64 = fields[1]
                    .parse()
                    .map_err(|e| parse_err(i, format!("bad ticket counter: {e}")))?;
                next_ticket = next_ticket.max(next);
            }
            other => return Err(parse_err(i, format!("unexpected line kind {other:?}"))),
        }
    }
    if tail.len() > total_rounds {
        return Err(parse_err(
            0,
            format!("tail of {} observations exceeds round counter {total_rounds}", tail.len()),
        ));
    }
    // Stamp absolute round numbers: the tail ends at `total_rounds`.
    let base = total_rounds - tail.len();
    for (i, o) in tail.iter_mut().enumerate() {
        o.round = base + i;
    }
    Ok(StateSnapshot { policy, total_rounds, tail, open_rounds, next_ticket })
}

/// Restore a **fresh** recommender from a parsed checkpoint of any version:
/// v1/v2 by replaying the log ([`restore_snapshot`] — O(n·m²)), v3 by
/// installing the exact policy state (O(m²), independent of history
/// length). Open tickets are re-opened with their original ids and the
/// ticket counter resumes, in both cases.
///
/// The target should be freshly built with the same configuration the
/// checkpointed recommender had; on error its state is unspecified.
///
/// # Errors
/// Propagates policy state/shape validation and ticket-reopen failures.
pub fn restore_checkpoint<P: Policy>(
    bandit: &mut BanditWare<P>,
    checkpoint: &Checkpoint,
) -> Result<()> {
    match checkpoint {
        Checkpoint::Replay(snapshot) => restore_snapshot(bandit, snapshot),
        Checkpoint::Stats(state) => {
            bandit.policy_mut().restore(&state.policy)?;
            bandit.install_history(state.total_rounds, state.tail.clone());
            for open in &state.open_rounds {
                bandit.reopen_ticket(
                    Ticket::from_id(open.ticket),
                    open.arm,
                    &open.features,
                    open.explored,
                )?;
            }
            bandit.advance_ticket_counter(state.next_ticket);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epsilon::EpsilonGreedy;
    use crate::{ArmSpec, BanditConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fresh() -> BanditWare<EpsilonGreedy> {
        let specs = ArmSpec::unit_costs(3);
        let policy =
            EpsilonGreedy::new(specs.clone(), 2, BanditConfig::paper().with_seed(5)).unwrap();
        BanditWare::new(policy, specs)
    }

    fn trained_bandit(rounds: usize) -> BanditWare<EpsilonGreedy> {
        let mut bandit = fresh();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..rounds {
            let x = [rng.gen_range(1.0..50.0), rng.gen_range(0.0..5.0)];
            bandit.run_round(&x, |rec| 10.0 + x[0] * (rec.arm + 1) as f64 + x[1]).unwrap();
        }
        bandit
    }

    #[test]
    fn zero_feature_rounds_survive_save_load_save() {
        // A non-contextual policy takes empty contexts: its history rows
        // and open tickets are written with one empty feature field.
        use crate::plain::PlainEpsilonGreedy;
        let specs = ArmSpec::unit_costs(3);
        let fresh = || {
            let policy = PlainEpsilonGreedy::new(specs.clone(), 0.5, 0.99, 3).unwrap();
            BanditWare::new(policy, specs.clone())
        };
        let mut bandit = fresh();
        for r in 0..6 {
            bandit.run_round(&[], |rec| 10.0 + (rec.arm + r) as f64).unwrap();
        }
        let (open, _) = bandit.recommend_ticketed(&[]).unwrap();
        let mut first = Vec::new();
        save_checkpoint(&bandit, &mut first).unwrap();
        let mut restored = fresh();
        restore_checkpoint(&mut restored, &load_checkpoint(first.as_slice()).unwrap()).unwrap();
        assert_eq!(restored.open_tickets(), vec![open]);
        let mut second = Vec::new();
        save_checkpoint(&restored, &mut second).unwrap();
        assert_eq!(first, second, "save -> load -> save changed the bytes");
        // The v2 log loads the same rows back (its replay re-records them
        // as external observations, so only the rows are compared here).
        let mut log = Vec::new();
        save_history(&bandit, &mut log).unwrap();
        let snapshot = load_snapshot(log.as_slice()).unwrap();
        assert_eq!(snapshot.observations.len(), 6);
        assert!(snapshot.observations.iter().all(|o| o.features.is_empty()));
        for (o, h) in snapshot.observations.iter().zip(bandit.history()) {
            assert_eq!((o.arm, o.explored, o.runtime), (h.arm, h.explored, h.runtime));
        }
        assert_eq!(snapshot.open_rounds.len(), 1);
        assert_eq!(snapshot.open_rounds[0].ticket, open.id());
        assert!(snapshot.open_rounds[0].features.is_empty());
        // A non-empty field list is still parsed strictly.
        assert!(parse_features(&["1.5", ""], 0).is_err());
        assert_eq!(parse_features(&["1.5", "-2"], 0).unwrap(), vec![1.5, -2.0]);
    }

    #[test]
    fn save_load_roundtrip() {
        let bandit = trained_bandit(40);
        let mut buf = Vec::new();
        save_history(&bandit, &mut buf).unwrap();
        let loaded = load_history(buf.as_slice()).unwrap();
        assert_eq!(loaded.len(), 40);
        for (a, b) in bandit.history().iter().zip(&loaded) {
            assert_eq!(a.arm, b.arm);
            assert_eq!(a.explored, b.explored);
            assert_eq!(a.features, b.features);
            assert!((a.runtime - b.runtime).abs() < 1e-12);
        }
    }

    #[test]
    fn restored_policy_predicts_identically() {
        let original = trained_bandit(60);
        let mut buf = Vec::new();
        save_history(&original, &mut buf).unwrap();
        let loaded = load_history(buf.as_slice()).unwrap();

        let mut restored = fresh();
        replay_into(&mut restored, &loaded).unwrap();

        for probe in [[5.0, 1.0], [25.0, 3.0], [49.0, 0.5]] {
            for arm in 0..3 {
                let a = original.policy().predict(arm, &probe).unwrap();
                let b = restored.policy().predict(arm, &probe).unwrap();
                assert!((a - b).abs() < 1e-9, "arm {arm}: {a} vs {b}");
            }
        }
        // ε schedule replayed too (one decay per observation).
        assert!((original.policy().epsilon() - restored.policy().epsilon()).abs() < 1e-12);
    }

    #[test]
    fn open_tickets_roundtrip_and_record_after_restore() {
        let mut original = trained_bandit(20);
        let (t_a, _) = original.recommend_ticketed(&[30.0, 2.0]).unwrap();
        let (t_b, rec_b) = original.recommend_ticketed(&[8.0, 1.0]).unwrap();
        let mut buf = Vec::new();
        save_history(&original, &mut buf).unwrap();

        let snapshot = load_snapshot(buf.as_slice()).unwrap();
        assert_eq!(snapshot.observations.len(), 20);
        assert_eq!(snapshot.open_rounds.len(), 2);
        assert_eq!(snapshot.open_rounds[0].ticket, t_a.id());
        assert_eq!(snapshot.open_rounds[1].features, vec![8.0, 1.0]);

        let mut restored = fresh();
        restore_snapshot(&mut restored, &snapshot).unwrap();
        assert_eq!(restored.in_flight(), 2);
        assert_eq!(restored.open_tickets(), vec![t_a, t_b]);
        // The caller holding ticket B across the crash can still record it,
        // and the observation attributes to the original arm/context.
        restored.record_ticket(t_b, 99.0).unwrap();
        let last = restored.history().last().unwrap();
        assert_eq!(last.arm, rec_b.arm);
        assert_eq!(last.features, vec![8.0, 1.0]);
        assert_eq!(last.runtime, 99.0);
        // The ticket counter continues exactly where the original left off.
        let (t_new, _) = restored.recommend_ticketed(&[1.0, 1.0]).unwrap();
        assert_eq!(t_new.id(), original.next_ticket_id());
    }

    #[test]
    fn restore_never_reissues_consumed_ticket_ids() {
        // The at-least-once crash scenario: ticket 21 is recorded, its ack
        // is lost, the service checkpoints with only ticket 20 open and
        // crashes. After restore, the reporter's retry for 21 must fail
        // loudly — and 21 must never be handed to a fresh round.
        let mut original = trained_bandit(20); // tickets 0..20 consumed
        let (t_open, _) = original.recommend_ticketed(&[30.0, 2.0]).unwrap();
        let (t_acked, _) = original.recommend_ticketed(&[8.0, 1.0]).unwrap();
        original.record_ticket(t_acked, 42.0).unwrap();
        let mut buf = Vec::new();
        save_history(&original, &mut buf).unwrap();

        let mut restored = fresh();
        restore_snapshot(&mut restored, &load_snapshot(buf.as_slice()).unwrap()).unwrap();
        assert_eq!(restored.open_tickets(), vec![t_open]);
        // Retrying the already-recorded ticket is rejected, not misrouted.
        assert!(matches!(
            restored.record_ticket(t_acked, 42.0),
            Err(CoreError::UnknownTicket { .. })
        ));
        // And a fresh round gets a brand-new id, not the consumed 21.
        let (t_new, _) = restored.recommend_ticketed(&[2.0, 2.0]).unwrap();
        assert_eq!(t_new.id(), t_acked.id() + 1);
    }

    #[test]
    fn scaled_policy_replay_rebuilds_scaler_statistics() {
        use crate::scaler::scaled_epsilon_greedy;
        // A scaled policy trains its inner models on z-scores; the replayed
        // twin must rebuild the same standardization statistics from the
        // log or its models are fit on raw features instead.
        let specs = ArmSpec::unit_costs(2);
        let make = || {
            let p = scaled_epsilon_greedy(specs.clone(), 2, BanditConfig::paper().with_seed(11))
                .unwrap();
            BanditWare::new(p, specs.clone())
        };
        let mut live = make();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..50 {
            // Wildly different feature scales — the scaler's whole job.
            let x = [rng.gen_range(0.1..1.0), rng.gen_range(1e7..1e8)];
            live.run_round(&x, |rec| 5.0 + x[0] * 40.0 * (rec.arm + 1) as f64).unwrap();
        }
        let mut buf = Vec::new();
        save_history(&live, &mut buf).unwrap();

        let mut restored = make();
        restore_snapshot(&mut restored, &load_snapshot(buf.as_slice()).unwrap()).unwrap();
        assert_eq!(restored.policy().scaler().n_obs(), live.policy().scaler().n_obs());
        for probe in [[0.3, 2e7], [0.8, 9e7]] {
            for arm in 0..2 {
                let a = live.policy().predict(arm, &probe).unwrap();
                let b = restored.policy().predict(arm, &probe).unwrap();
                assert!(
                    (a - b).abs() < 1e-9 * (1.0 + a.abs()),
                    "arm {arm} probe {probe:?}: live {a} vs restored {b}"
                );
            }
        }
    }

    #[test]
    fn v1_files_still_load() {
        let v1 = "banditware-history v1\narm,explored,runtime,features...\n\
                  0,1,153.2,100,2\n2,0,98.7,350,4\n";
        let snapshot = load_snapshot(v1.as_bytes()).unwrap();
        assert_eq!(snapshot.observations.len(), 2);
        assert!(snapshot.open_rounds.is_empty());
        assert_eq!(snapshot.observations[1].arm, 2);
        assert_eq!(snapshot.observations[1].features, vec![350.0, 4.0]);
        // load_history sees the same observations.
        assert_eq!(load_history(v1.as_bytes()).unwrap(), snapshot.observations);
        // An open-ticket line in a v1 file is a format violation.
        let bad = format!("{v1}open,3,0,1,5,5\n");
        assert!(load_snapshot(bad.as_bytes()).is_err());
    }

    #[test]
    fn io_failures_are_io_errors() {
        struct FailingWriter;
        impl std::io::Write for FailingWriter {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::Other, "disk detached"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let bandit = trained_bandit(3);
        let err = save_history(&bandit, FailingWriter).unwrap_err();
        match err {
            CoreError::Io { op, ref message, .. } => {
                assert_eq!(op, "save");
                assert!(message.contains("disk detached"), "{message}");
            }
            other => panic!("expected CoreError::Io, got {other:?}"),
        }

        struct FailingReader;
        impl std::io::Read for FailingReader {
            fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(std::io::ErrorKind::BrokenPipe, "pipe closed"))
            }
        }
        let err = load_snapshot(FailingReader).unwrap_err();
        assert!(matches!(err, CoreError::Io { op: "load", .. }), "{err:?}");
    }

    #[test]
    fn rejects_malformed_input() {
        const MAGIC: &str = "banditware-history v2";
        assert!(load_history("".as_bytes()).is_err());
        assert!(load_history("not-the-magic\n".as_bytes()).is_err());
        assert!(load_history(format!("{MAGIC}\n").as_bytes()).is_err());
        let bad_arm = format!("{MAGIC}\nheader\nxyz,0,1.0,2.0\n");
        assert!(load_history(bad_arm.as_bytes()).is_err());
        let bad_flag = format!("{MAGIC}\nheader\n0,yes,1.0,2.0\n");
        assert!(load_history(bad_flag.as_bytes()).is_err());
        let bad_rt = format!("{MAGIC}\nheader\n0,1,abc,2.0\n");
        assert!(load_history(bad_rt.as_bytes()).is_err());
        let too_short = format!("{MAGIC}\nheader\n0,1\n");
        assert!(load_history(too_short.as_bytes()).is_err());
        // Error messages carry line numbers.
        let err = load_history(format!("{MAGIC}\nheader\n0,1,1.0,zz\n").as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
        // Malformed open-ticket lines.
        let bad_ticket = format!("{MAGIC}\nheader\nopen,x,0,1,5\n");
        assert!(load_snapshot(bad_ticket.as_bytes()).is_err());
        let short_ticket = format!("{MAGIC}\nheader\nopen,3\n");
        assert!(load_snapshot(short_ticket.as_bytes()).is_err());
        // Observations may not follow the open-ticket section.
        let out_of_order = format!("{MAGIC}\nheader\nopen,3,0,1,5\n0,1,1.0,2.0\n");
        assert!(load_snapshot(out_of_order.as_bytes()).is_err());
        // Malformed ticket-counter lines.
        assert!(load_snapshot(format!("{MAGIC}\nheader\nnext,abc\n").as_bytes()).is_err());
        assert!(load_snapshot(format!("{MAGIC}\nheader\nnext,1,2\n").as_bytes()).is_err());
        let v1_next = "banditware-history v1\nheader\nnext,5\n";
        assert!(load_snapshot(v1_next.as_bytes()).is_err(), "counter line invalid in v1");
        // A well-formed counter line loads.
        let ok = format!("{MAGIC}\nheader\n0,1,5.0,1.5\nnext,9\n");
        assert_eq!(load_snapshot(ok.as_bytes()).unwrap().next_ticket, 9);
    }

    #[test]
    fn v3_checkpoint_restores_bitwise_identical_stream() {
        // The gold-standard property v2 replay deliberately does not have:
        // a restored recommender continues exactly where the LIVE one was,
        // RNG stream position included.
        let mut live = trained_bandit(60);
        let (t_open, _) = live.recommend_ticketed(&[30.0, 2.0]).unwrap();
        let mut buf = Vec::new();
        save_checkpoint(&live, &mut buf).unwrap();

        let checkpoint = load_checkpoint(buf.as_slice()).unwrap();
        let Checkpoint::Stats(state) = &checkpoint else { panic!("v3 parses as Stats") };
        assert_eq!(state.total_rounds, 60);
        assert_eq!(state.tail.len(), 60, "Retention::Full keeps everything");
        assert_eq!(state.open_rounds.len(), 1);

        let mut restored = fresh();
        restore_checkpoint(&mut restored, &checkpoint).unwrap();
        assert_eq!(restored.rounds(), 60);
        assert_eq!(restored.open_tickets(), vec![t_open]);
        assert_eq!(
            restored.policy().epsilon().to_bits(),
            live.policy().epsilon().to_bits(),
            "ε schedule restored exactly"
        );
        // Drive both with an identical stream: selections (exploration
        // draws included) and predictions must agree bitwise.
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..80 {
            let x = [rng.gen_range(1.0..50.0), rng.gen_range(0.0..5.0)];
            let (ta, ra) = live.recommend_ticketed(&x).unwrap();
            let (tb, rb) = restored.recommend_ticketed(&x).unwrap();
            assert_eq!(ra.arm, rb.arm);
            assert_eq!(ra.explored, rb.explored);
            assert_eq!(ra.predicted_runtime.to_bits(), rb.predicted_runtime.to_bits());
            let rt = 10.0 + x[0] * (ra.arm + 1) as f64;
            live.record_ticket(ta, rt).unwrap();
            restored.record_ticket(tb, rt).unwrap();
        }
    }

    #[test]
    fn v3_tail_respects_retention() {
        let mut live = trained_bandit(50);
        live.set_retention(crate::Retention::Tail(8));
        assert_eq!(live.history().len(), 8);
        assert_eq!(live.rounds(), 50);
        let mut buf = Vec::new();
        save_checkpoint(&live, &mut buf).unwrap();
        let checkpoint = load_checkpoint(buf.as_slice()).unwrap();
        let Checkpoint::Stats(state) = &checkpoint else { panic!("v3 parses as Stats") };
        assert_eq!(state.total_rounds, 50);
        assert_eq!(state.tail.len(), 8);
        assert_eq!(state.tail[0].round, 42, "absolute round numbers survive");
        assert_eq!(state.tail.last().unwrap().round, 49);

        let mut restored = fresh();
        restore_checkpoint(&mut restored, &checkpoint).unwrap();
        assert_eq!(restored.rounds(), 50);
        assert_eq!(restored.history().len(), 8);
        assert_eq!(restored.history()[0].round, 42);
        // The restored model matches the live one despite never seeing the
        // 42 dropped observations as observations.
        for arm in 0..3 {
            let a = live.policy().predict(arm, &[20.0, 1.0]).unwrap();
            let b = restored.policy().predict(arm, &[20.0, 1.0]).unwrap();
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn v2_and_v3_restores_agree_for_replay_built_state() {
        // A recommender built purely by replay (the CLI train lifecycle)
        // has a fresh RNG, so the v2-replayed twin and the v3-restored twin
        // must emit identical recommendation streams.
        let source = trained_bandit(40);
        let mut v2buf = Vec::new();
        save_history(&source, &mut v2buf).unwrap();
        let mut replayed = fresh();
        restore_checkpoint(&mut replayed, &load_checkpoint(v2buf.as_slice()).unwrap()).unwrap();

        let mut v3buf = Vec::new();
        save_checkpoint(&replayed, &mut v3buf).unwrap();
        let mut stats_restored = fresh();
        restore_checkpoint(&mut stats_restored, &load_checkpoint(v3buf.as_slice()).unwrap())
            .unwrap();

        for i in 0..60 {
            let x = [(i % 9) as f64 + 1.0, (i % 4) as f64];
            let (ta, ra) = replayed.recommend_ticketed(&x).unwrap();
            let (tb, rb) = stats_restored.recommend_ticketed(&x).unwrap();
            assert_eq!((ra.arm, ra.explored), (rb.arm, rb.explored), "round {i}");
            replayed.record_ticket(ta, 5.0 + x[0]).unwrap();
            stats_restored.record_ticket(tb, 5.0 + x[0]).unwrap();
        }
    }

    #[test]
    fn v3_rejects_malformed_input() {
        const M: &str = "banditware-history v3";
        const D: &str = "stats snapshot: rounds + policy state + tail + open tickets";
        let ok = format!(
            "{M}\n{D}\nrounds,2\np,kind,ucb1,2,1\np,arm,0,mean,2,5.0\np,end\n\
             tail,0,0,5.0,1.0\nnext,3\n"
        );
        let cp = load_checkpoint(ok.as_bytes()).unwrap();
        assert_eq!(cp.total_rounds(), 2);
        assert!(matches!(cp, Checkpoint::Stats(_)));

        // Truncated header.
        assert!(load_checkpoint(format!("{M}\n{D}\n").as_bytes()).is_err());
        // Missing rounds line.
        assert!(load_checkpoint(format!("{M}\n{D}\np,kind,ucb1,0,0\np,end\n").as_bytes()).is_err());
        // Tail longer than the round counter.
        let bad = format!(
            "{M}\n{D}\nrounds,0\np,kind,ucb1,2,1\np,arm,0,mean,2,5.0\np,end\ntail,0,0,5.0,1.0\n"
        );
        assert!(load_checkpoint(bad.as_bytes()).is_err());
        // Tail after the open section.
        let bad = format!(
            "{M}\n{D}\nrounds,5\np,kind,ucb1,2,1\np,arm,0,mean,2,5.0\np,end\n\
             open,1,0,0,1.0\ntail,0,0,5.0,1.0\n"
        );
        assert!(load_checkpoint(bad.as_bytes()).is_err());
        // Unknown trailing line kind.
        let bad =
            format!("{M}\n{D}\nrounds,0\np,kind,ucb1,2,1\np,arm,0,mean,2,5.0\np,end\nblorp,1\n");
        assert!(load_checkpoint(bad.as_bytes()).is_err());
        // The legacy reader refuses v3 files with a pointer at the right
        // API instead of a generic header error.
        let err = load_snapshot(ok.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("load_checkpoint"), "{err}");
        // load_checkpoint reads v1/v2 too.
        let source = trained_bandit(5);
        let mut v2 = Vec::new();
        save_history(&source, &mut v2).unwrap();
        assert!(matches!(load_checkpoint(v2.as_slice()).unwrap(), Checkpoint::Replay(_)));
    }

    #[test]
    fn opaque_policies_cannot_save_v3() {
        // An ad-hoc policy that keeps the trait's Opaque snapshot default
        // (every in-tree policy now has a real state variant, Budgeted
        // included, so the fallback needs a synthetic example).
        #[derive(Debug)]
        struct AdHoc(crate::plain::PlainEpsilonGreedy);
        impl Policy for AdHoc {
            fn name(&self) -> String {
                "ad-hoc".to_string()
            }
            fn n_arms(&self) -> usize {
                self.0.n_arms()
            }
            fn n_features(&self) -> usize {
                self.0.n_features()
            }
            fn select(&mut self, x: &[f64]) -> Result<crate::Selection> {
                self.0.select(x)
            }
            fn observe(&mut self, arm: usize, x: &[f64], runtime: f64) -> Result<()> {
                self.0.observe(arm, x, runtime)
            }
            fn predict(&self, arm: usize, x: &[f64]) -> Result<f64> {
                self.0.predict(arm, x)
            }
            fn pulls(&self) -> Vec<usize> {
                self.0.pulls()
            }
            fn reset(&mut self) {
                self.0.reset()
            }
        }
        let policy = AdHoc(
            crate::plain::PlainEpsilonGreedy::new(ArmSpec::unit_costs(2), 0.1, 0.99, 7).unwrap(),
        );
        let bandit = BanditWare::new(policy, ArmSpec::unit_costs(2));
        // The failure must reach the caller's writer as *zero bytes* — a
        // truncated v3 header on disk would be worse than no file.
        let mut sink = Vec::new();
        let err = save_checkpoint(&bandit, &mut sink).unwrap_err();
        assert!(err.to_string().contains("snapshot"), "{err}");
        assert!(sink.is_empty(), "failed save wrote {} bytes", sink.len());
        // The v2 path still serves such policies.
        let mut buf = Vec::new();
        save_history(&bandit, &mut buf).unwrap();
        assert!(load_checkpoint(buf.as_slice()).is_ok());
    }

    #[test]
    fn save_history_refuses_retention_truncated_logs() {
        let mut bandit = trained_bandit(30);
        let mut full = Vec::new();
        save_history(&bandit, &mut full).unwrap();
        // Once observations have actually been dropped, a v2 log would
        // silently replay into a different model — refuse loudly.
        bandit.set_retention(crate::Retention::Tail(4));
        let err = save_history(&bandit, Vec::new()).unwrap_err();
        assert!(err.to_string().contains("save_checkpoint"), "{err}");
        // The v3 path is the supported one for bounded retention.
        let mut v3 = Vec::new();
        save_checkpoint(&bandit, &mut v3).unwrap();
        assert_eq!(load_checkpoint(v3.as_slice()).unwrap().total_rounds(), 30);
        // A bounded policy that never exceeded its bound still saves v2.
        let fresh_tail = trained_bandit(3);
        let mut ok = Vec::new();
        let mut bounded = fresh_tail;
        bounded.set_retention(crate::Retention::Tail(10));
        save_history(&bounded, &mut ok).unwrap();
    }

    #[test]
    fn empty_history_roundtrips() {
        let specs = ArmSpec::unit_costs(2);
        let policy = EpsilonGreedy::new(specs.clone(), 1, BanditConfig::paper()).unwrap();
        let bandit = BanditWare::new(policy, specs);
        let mut buf = Vec::new();
        save_history(&bandit, &mut buf).unwrap();
        assert!(load_history(buf.as_slice()).unwrap().is_empty());
        assert_eq!(load_snapshot(buf.as_slice()).unwrap(), HistorySnapshot::default());
    }

    #[test]
    fn blank_lines_tolerated() {
        let text = "banditware-history v2\nheader\n0,1,5.0,1.5\n\n1,0,7.0,2.5\n";
        let obs = load_history(text.as_bytes()).unwrap();
        assert_eq!(obs.len(), 2);
        assert_eq!(obs[1].round, 1);
        assert_eq!(obs[1].arm, 1);
    }
}
