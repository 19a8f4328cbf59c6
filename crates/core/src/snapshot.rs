//! Exact policy-state snapshots: every policy is a deterministic function
//! of its sufficient statistics, so persistence can store *those* instead
//! of the observation log.
//!
//! [`PolicyState`] is the object-safe currency of [`crate::Policy::snapshot`]
//! / [`crate::Policy::restore`]: one enum variant per policy family, each
//! carrying the complete live state — model sufficient statistics
//! (including any incrementally maintained Cholesky factor, whose caches
//! are state, not recomputable), exploration schedules (ε, temperature,
//! UCB round counters), RNG stream positions, scaler statistics, and the
//! cached fits. Restoring a snapshot is **bitwise-faithful**: the restored
//! policy's future selections, predictions, and refits produce exactly the
//! bits the live policy would have produced.
//!
//! The module also provides the line-oriented text codec used by the
//! `banditware-history v3` checkpoint format (see [`crate::persist`]):
//! every line starts with `p,`, a policy block opens with
//! `p,kind,<family>,…` and closes with `p,end`, and floats are written with
//! Rust's shortest-round-trip formatting so the text form is exactly as
//! faithful as the in-memory one.

use crate::error::CoreError;
use crate::Result;
use banditware_linalg::cholesky::FactorParts;
use banditware_linalg::lstsq::LinearFit;
use banditware_linalg::online::{NeqFactorState, NormalEqState, RankOneState};
use std::io::Write;

/// One feature dimension of a standard scaler (a Welford accumulator).
#[derive(Debug, Clone, PartialEq)]
pub struct WelfordState {
    /// Count of absorbed values.
    pub n: u64,
    /// Running mean.
    pub mean: f64,
    /// Second central moment `Σ(x − mean)²`.
    pub m2: f64,
}

/// The complete state of one arm estimator (see
/// [`crate::arm::ArmEstimator::state`]).
#[derive(Debug, Clone, PartialEq)]
pub enum ArmState {
    /// An estimator that does not support snapshotting (the trait default).
    Opaque,
    /// [`crate::arm::RecursiveArm`]: normal-equation statistics (+ live
    /// factor) and the cached fit.
    Recursive {
        /// Accumulator state.
        acc: NormalEqState,
        /// The cached fit (maintained incrementally — stored, not refit).
        fit: LinearFit,
    },
    /// [`crate::arm::LinearArm`]: the stored design matrix and targets —
    /// the paper-exact arm's sufficient statistic *is* its data, so its
    /// snapshot is inherently O(n).
    Linear {
        /// Feature count (design matrix width).
        n_features: usize,
        /// Design matrix, row-major (`ys.len() × n_features`).
        data: Vec<f64>,
        /// Observed runtimes, one per design row.
        ys: Vec<f64>,
        /// The cached fit.
        fit: LinearFit,
    },
    /// [`crate::arm::MeanArm`]: running mean runtime.
    Mean {
        /// Observation count.
        n: usize,
        /// Running mean.
        mean: f64,
    },
    /// [`crate::drift::DiscountedArm`]: discounted statistics (γ itself is
    /// construction-time configuration, not state).
    Discounted {
        /// Accumulator state.
        acc: NormalEqState,
        /// The cached fit.
        fit: LinearFit,
    },
    /// [`crate::drift::WindowedArm`]: the live window contents plus the
    /// incrementally maintained statistics over them.
    Windowed {
        /// Feature count.
        n_features: usize,
        /// Observations ever absorbed (the window only holds the tail).
        total_seen: usize,
        /// Window contexts, row-major (`ys.len() × n_features`), oldest
        /// first.
        data: Vec<f64>,
        /// Window runtimes, oldest first.
        ys: Vec<f64>,
        /// Accumulator state over the window contents.
        acc: NormalEqState,
        /// The cached fit.
        fit: LinearFit,
    },
}

/// The complete state of one policy (see [`crate::Policy::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyState {
    /// The policy does not support snapshotting (the trait default).
    /// [`crate::persist::save_checkpoint`] refuses to write it.
    Opaque,
    /// [`crate::DecayingEpsilonGreedy`] over any snapshot-capable arm
    /// estimator (the arm kind travels inside each [`ArmState`]).
    Epsilon {
        /// Current exploration probability.
        epsilon: f64,
        /// Exploration RNG stream position.
        rng: [u64; 4],
        /// Per-arm estimator states.
        arms: Vec<ArmState>,
    },
    /// [`crate::objective::BudgetedEpsilonGreedy`]: the same shape as
    /// [`PolicyState::Epsilon`] (schedule + RNG + recursive arms), under its
    /// own kind tag so a budgeted snapshot never restores into a plain
    /// ε-greedy policy with a different exploitation rule (the
    /// [`crate::objective::Objective`] itself is construction-time
    /// configuration, not state).
    Budgeted {
        /// Current exploration probability.
        epsilon: f64,
        /// Exploration RNG stream position.
        rng: [u64; 4],
        /// Per-arm estimator states.
        arms: Vec<ArmState>,
    },
    /// [`crate::plain::PlainEpsilonGreedy`].
    Plain {
        /// Current exploration probability.
        epsilon: f64,
        /// Exploration RNG stream position.
        rng: [u64; 4],
        /// Per-arm `(count, mean runtime)`.
        arms: Vec<(usize, f64)>,
    },
    /// [`crate::ucb::Ucb1`].
    Ucb1 {
        /// Total observed rounds (drives the confidence width).
        rounds: usize,
        /// Per-arm `(count, mean runtime)`.
        arms: Vec<(usize, f64)>,
    },
    /// [`crate::linucb::LinUcb`] (θ̂ is recomputed from the restored
    /// accumulator — `A⁻¹Xᵀy` with the fixed kernel order is bitwise
    /// reproducible).
    LinUcb {
        /// Per-arm pull counts.
        pulls: Vec<usize>,
        /// Per-arm Sherman–Morrison accumulators.
        arms: Vec<RankOneState>,
    },
    /// [`crate::thompson::LinThompson`].
    Thompson {
        /// Per-arm pull counts.
        pulls: Vec<usize>,
        /// Per-arm `Σy²` (noise estimate).
        sum_sq: Vec<f64>,
        /// Sampling RNG stream position.
        rng: [u64; 4],
        /// Per-arm Sherman–Morrison accumulators.
        arms: Vec<RankOneState>,
    },
    /// [`crate::boltzmann::Boltzmann`].
    Boltzmann {
        /// Current softmax temperature.
        temperature: f64,
        /// Sampling RNG stream position.
        rng: [u64; 4],
        /// Per-arm estimator states.
        arms: Vec<ArmState>,
    },
    /// [`crate::ScaledPolicy`]: scaler statistics plus the wrapped policy's
    /// full state.
    Scaled {
        /// Per-feature Welford accumulators.
        scaler: Vec<WelfordState>,
        /// The wrapped policy's state.
        inner: Box<PolicyState>,
    },
}

impl PolicyState {
    /// The stable format tag this state serializes under (`"opaque"` for
    /// the unsupported default).
    pub fn kind(&self) -> &'static str {
        match self {
            PolicyState::Opaque => "opaque",
            PolicyState::Epsilon { .. } => "epsilon",
            PolicyState::Budgeted { .. } => "budgeted",
            PolicyState::Plain { .. } => "plain",
            PolicyState::Ucb1 { .. } => "ucb1",
            PolicyState::LinUcb { .. } => "linucb",
            PolicyState::Thompson { .. } => "thompson",
            PolicyState::Boltzmann { .. } => "boltzmann",
            PolicyState::Scaled { .. } => "scaled",
        }
    }
}

/// Uniform "wrong snapshot kind" error for `Policy::restore` impls.
pub(crate) fn kind_mismatch(expected: &'static str, got: &PolicyState) -> CoreError {
    CoreError::InvalidParameter {
        name: "snapshot",
        detail: format!("cannot restore a {:?} snapshot into a {expected} policy", got.kind()),
    }
}

/// Uniform arm-count mismatch error for `Policy::restore` impls.
pub(crate) fn arm_count_mismatch(expected: usize, got: usize) -> CoreError {
    CoreError::InvalidParameter {
        name: "snapshot",
        detail: format!("snapshot has {got} arms, policy has {expected}"),
    }
}

// ---------------------------------------------------------------------------
// Text codec
// ---------------------------------------------------------------------------

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::Io { op: "save", kind: e.kind(), message: e.to_string() }
}

/// Append `,v0,v1,…` to a line, each float in shortest-round-trip form
/// and written straight into it. An empty slice still writes its comma.
pub(crate) fn push_f64s(out: &mut String, vs: &[f64]) {
    use std::fmt::Write as _;
    out.push(',');
    if let Some((first, rest)) = vs.split_first() {
        let _ = write!(out, "{first}");
        for v in rest {
            let _ = write!(out, ",{v}");
        }
    }
}

fn write_neq(out: &mut String, acc: &NormalEqState) {
    use std::fmt::Write as _;
    let _ = write!(out, ",{},{},{}", acc.n_features, acc.n, acc.yty);
    push_f64s(out, &acc.zty);
    push_f64s(out, &acc.ztz);
    match &acc.factor {
        Some(f) => {
            // Flag 1: canonical ridge regularizer (reg[0] = 0, reg[i] = λ) —
            // reconstructed from λ on parse, and exactly what pre-reg
            // snapshots decode to. Flag 2: jittered factor, explicit reg
            // vector appended after lt/d/dinv.
            let canonical = f.reg.first().is_some_and(|&r0| r0 == 0.0)
                && f.reg[1..].iter().all(|&r| r == f.lambda);
            let _ = write!(out, ",{},{}", if canonical { 1 } else { 2 }, f.lambda);
            push_f64s(out, &f.parts.lt);
            push_f64s(out, &f.parts.d);
            push_f64s(out, &f.parts.dinv);
            if !canonical {
                push_f64s(out, &f.reg);
            }
        }
        None => {
            let _ = write!(out, ",0");
        }
    }
}

fn write_fit(out: &mut String, fit: &LinearFit) {
    use std::fmt::Write as _;
    let _ =
        write!(out, ",{},{},{},{}", fit.intercept, fit.residual_ss, fit.n_obs, fit.weights.len());
    if !fit.weights.is_empty() {
        push_f64s(out, &fit.weights);
    }
}

fn write_ridge(out: &mut String, acc: &RankOneState) {
    use std::fmt::Write as _;
    let _ = write!(out, ",{},{}", acc.dim, acc.n);
    push_f64s(out, &acc.xty);
    push_f64s(out, &acc.a_inv);
}

fn arm_line(i: usize, arm: &ArmState) -> Result<String> {
    use std::fmt::Write as _;
    let mut out = format!("p,arm,{i}");
    match arm {
        ArmState::Opaque => {
            return Err(CoreError::InvalidParameter {
                name: "snapshot",
                detail: format!("arm {i} does not support state snapshots"),
            })
        }
        ArmState::Mean { n, mean } => {
            let _ = write!(out, ",mean,{n},{mean}");
        }
        ArmState::Recursive { acc, fit } => {
            out.push_str(",recursive");
            write_neq(&mut out, acc);
            write_fit(&mut out, fit);
        }
        ArmState::Discounted { acc, fit } => {
            out.push_str(",discounted");
            write_neq(&mut out, acc);
            write_fit(&mut out, fit);
        }
        ArmState::Linear { n_features, data, ys, fit } => {
            let _ = write!(out, ",linear,{n_features},{}", ys.len());
            if !data.is_empty() {
                push_f64s(&mut out, data);
            }
            if !ys.is_empty() {
                push_f64s(&mut out, ys);
            }
            write_fit(&mut out, fit);
        }
        ArmState::Windowed { n_features, total_seen, data, ys, acc, fit } => {
            let _ = write!(out, ",windowed,{n_features},{total_seen},{}", ys.len());
            if !data.is_empty() {
                push_f64s(&mut out, data);
            }
            if !ys.is_empty() {
                push_f64s(&mut out, ys);
            }
            write_neq(&mut out, acc);
            write_fit(&mut out, fit);
        }
    }
    Ok(out)
}

fn rng_line(rng: &[u64; 4]) -> String {
    format!("p,rng,{},{},{},{}", rng[0], rng[1], rng[2], rng[3])
}

/// Serialize a policy state as `p,`-prefixed lines (a `p,kind,…` header
/// through a matching `p,end`).
///
/// # Errors
/// [`CoreError::Io`] on write failures; [`CoreError::InvalidParameter`]
/// when the state (or a nested arm) is [`PolicyState::Opaque`] — opaque
/// policies cannot be checkpointed by state, only by history replay.
pub fn write_policy_state(state: &PolicyState, w: &mut impl Write) -> Result<()> {
    match state {
        PolicyState::Opaque => {
            return Err(CoreError::InvalidParameter {
                name: "snapshot",
                detail: "policy does not support state snapshots; save the history (v2) instead"
                    .into(),
            })
        }
        PolicyState::Epsilon { epsilon, rng, arms } => {
            writeln!(w, "p,kind,epsilon,{epsilon},{}", arms.len()).map_err(io_err)?;
            writeln!(w, "{}", rng_line(rng)).map_err(io_err)?;
            for (i, arm) in arms.iter().enumerate() {
                writeln!(w, "{}", arm_line(i, arm)?).map_err(io_err)?;
            }
        }
        PolicyState::Budgeted { epsilon, rng, arms } => {
            writeln!(w, "p,kind,budgeted,{epsilon},{}", arms.len()).map_err(io_err)?;
            writeln!(w, "{}", rng_line(rng)).map_err(io_err)?;
            for (i, arm) in arms.iter().enumerate() {
                writeln!(w, "{}", arm_line(i, arm)?).map_err(io_err)?;
            }
        }
        PolicyState::Plain { epsilon, rng, arms } => {
            writeln!(w, "p,kind,plain,{epsilon},{}", arms.len()).map_err(io_err)?;
            writeln!(w, "{}", rng_line(rng)).map_err(io_err)?;
            for (i, (n, mean)) in arms.iter().enumerate() {
                writeln!(w, "p,arm,{i},mean,{n},{mean}").map_err(io_err)?;
            }
        }
        PolicyState::Ucb1 { rounds, arms } => {
            writeln!(w, "p,kind,ucb1,{rounds},{}", arms.len()).map_err(io_err)?;
            for (i, (n, mean)) in arms.iter().enumerate() {
                writeln!(w, "p,arm,{i},mean,{n},{mean}").map_err(io_err)?;
            }
        }
        PolicyState::LinUcb { pulls, arms } => {
            writeln!(w, "p,kind,linucb,{}", arms.len()).map_err(io_err)?;
            for (i, (acc, n_pulls)) in arms.iter().zip(pulls).enumerate() {
                let mut line = format!("p,arm,{i},ridge,{n_pulls}");
                write_ridge(&mut line, acc);
                writeln!(w, "{line}").map_err(io_err)?;
            }
        }
        PolicyState::Thompson { pulls, sum_sq, rng, arms } => {
            writeln!(w, "p,kind,thompson,{}", arms.len()).map_err(io_err)?;
            writeln!(w, "{}", rng_line(rng)).map_err(io_err)?;
            for (i, acc) in arms.iter().enumerate() {
                let mut line = format!("p,arm,{i},ridge,{},{}", pulls[i], sum_sq[i]);
                write_ridge(&mut line, acc);
                writeln!(w, "{line}").map_err(io_err)?;
            }
        }
        PolicyState::Boltzmann { temperature, rng, arms } => {
            writeln!(w, "p,kind,boltzmann,{temperature},{}", arms.len()).map_err(io_err)?;
            writeln!(w, "{}", rng_line(rng)).map_err(io_err)?;
            for (i, arm) in arms.iter().enumerate() {
                writeln!(w, "{}", arm_line(i, arm)?).map_err(io_err)?;
            }
        }
        PolicyState::Scaled { scaler, inner } => {
            writeln!(w, "p,kind,scaled,{}", scaler.len()).map_err(io_err)?;
            for (i, ws) in scaler.iter().enumerate() {
                writeln!(w, "p,welford,{i},{},{},{}", ws.n, ws.mean, ws.m2).map_err(io_err)?;
            }
            write_policy_state(inner, w)?;
        }
    }
    writeln!(w, "p,end").map_err(io_err)?;
    Ok(())
}

/// A cursor over the comma-separated fields of one borrowed line, shared by
/// every text reader of the checkpoint and WAL formats.
///
/// It yields exactly the fields `str::split(',')` would: an empty line is
/// one empty field, and a trailing comma ends the line with one. It finds
/// each `,` with an inline scan of eight bytes per step ([`find_comma`]).
/// Most fields are a few to ~20 bytes, and at that length a `memchr` call
/// per field costs more than the scan.
#[derive(Debug, Clone)]
pub struct FieldCursor<'a> {
    /// The unread rest of the line; `None` once the last field is read.
    rest: Option<&'a str>,
}

impl<'a> FieldCursor<'a> {
    /// A cursor before the first field of `line`.
    pub fn new(line: &'a str) -> Self {
        FieldCursor { rest: Some(line) }
    }

    /// The unread rest of the line: `None` once every field is read,
    /// `Some("")` when exactly one empty field is left.
    pub fn rest(&self) -> Option<&'a str> {
        self.rest
    }

    /// The number of fields left (one byte scan of the rest).
    pub fn remaining(&self) -> usize {
        self.rest.map_or(0, |r| 1 + r.bytes().filter(|&b| b == b',').count())
    }

    /// The next `N` fields, or `None` when the line ends first.
    pub fn next_n<const N: usize>(&mut self) -> Option<[&'a str; N]> {
        let mut out = [""; N];
        for slot in &mut out {
            *slot = self.next()?;
        }
        Some(out)
    }
}

impl<'a> Iterator for FieldCursor<'a> {
    type Item = &'a str;

    #[inline]
    fn next(&mut self) -> Option<&'a str> {
        let rest = self.rest?;
        match find_comma(rest.as_bytes()) {
            Some(at) => {
                // A `,` byte is always a char boundary.
                self.rest = Some(&rest[at + 1..]);
                Some(&rest[..at])
            }
            None => {
                self.rest = None;
                Some(rest)
            }
        }
    }
}

impl std::iter::FusedIterator for FieldCursor<'_> {}

/// The index of the first `,` in `s`. Each step tests one little-endian
/// 8-byte word: XOR with a word of commas zeroes exactly the comma bytes,
/// and `(w - 0x01…) & !w & 0x80…` sets the top bit of the lowest zero
/// byte (a borrow can only mark bytes above it). The tail is scanned
/// byte by byte.
#[inline]
fn find_comma(s: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    const COMMAS: u64 = LO * b',' as u64;
    let mut chunks = s.chunks_exact(8);
    let mut base = 0;
    for c in &mut chunks {
        let mut word = [0u8; 8];
        word.copy_from_slice(c);
        let w = u64::from_le_bytes(word) ^ COMMAS;
        let z = w.wrapping_sub(LO) & !w & HI;
        if z != 0 {
            return Some(base + (z.trailing_zeros() / 8) as usize);
        }
        base += 8;
    }
    chunks.remainder().iter().position(|&b| b == b',').map(|i| base + i)
}

/// A cursor over pre-split checkpoint lines (line number + content), shared
/// by the v3 reader in [`crate::persist`].
#[derive(Debug)]
pub struct LineCursor<'a> {
    lines: &'a [(usize, &'a str)],
    pos: usize,
}

impl<'a> LineCursor<'a> {
    /// Wrap a slice of `(0-based line number, content)` pairs.
    pub fn new(lines: &'a [(usize, &'a str)]) -> Self {
        LineCursor { lines, pos: 0 }
    }

    /// The next line without consuming it.
    pub fn peek(&self) -> Option<(usize, &'a str)> {
        self.lines.get(self.pos).copied()
    }

    /// Consume and return the next line.
    pub fn next_line(&mut self) -> Option<(usize, &'a str)> {
        let out = self.peek();
        if out.is_some() {
            self.pos += 1;
        }
        out
    }

    /// A capacity for `count` items of one line each: a corrupt count
    /// must not reserve more than the unread lines can hold.
    fn capacity_for(&self, count: usize) -> usize {
        count.min(self.lines.len() - self.pos)
    }
}

pub(crate) fn parse_err(line: usize, detail: impl std::fmt::Display) -> CoreError {
    CoreError::InvalidParameter { name: "snapshot", detail: format!("line {}: {detail}", line + 1) }
}

/// Typed field reader over one `p,` line of a policy block.
struct Fields<'a> {
    it: FieldCursor<'a>,
    line: usize,
}

impl<'a> Fields<'a> {
    fn new(line_no: usize, content: &'a str) -> Self {
        Fields { it: FieldCursor::new(content), line: line_no }
    }

    fn raw(&mut self, what: &str) -> Result<&'a str> {
        self.it.next().ok_or_else(|| parse_err(self.line, format!("missing field: {what}")))
    }

    fn tag(&mut self, expected: &str) -> Result<()> {
        let got = self.raw(expected)?;
        if got != expected {
            return Err(parse_err(self.line, format!("expected {expected:?}, found {got:?}")));
        }
        Ok(())
    }

    fn usize(&mut self, what: &str) -> Result<usize> {
        let raw = self.raw(what)?;
        raw.parse().map_err(|e| parse_err(self.line, format!("bad {what} {raw:?}: {e}")))
    }

    fn u64(&mut self, what: &str) -> Result<u64> {
        let raw = self.raw(what)?;
        raw.parse().map_err(|e| parse_err(self.line, format!("bad {what} {raw:?}: {e}")))
    }

    fn f64(&mut self, what: &str) -> Result<f64> {
        let raw = self.raw(what)?;
        raw.parse().map_err(|e| parse_err(self.line, format!("bad {what} {raw:?}: {e}")))
    }

    fn f64s(&mut self, count: usize, what: &str) -> Result<Vec<f64>> {
        // A corrupt count must not reserve more than the line can hold:
        // every float takes a byte, and all but the last a comma.
        let room = self.it.rest().map_or(0, |r| r.len().div_ceil(2));
        let mut out = Vec::with_capacity(count.min(room));
        for _ in 0..count {
            out.push(self.f64(what)?);
        }
        Ok(out)
    }

    /// `a × b` elements of a declared block; a product past `usize` is a
    /// corrupt size, reported as such.
    fn block(&self, what: &str, a: usize, b: usize) -> Result<usize> {
        a.checked_mul(b)
            .ok_or_else(|| parse_err(self.line, format!("{what} size {a} x {b} overflows")))
    }

    fn done(mut self) -> Result<()> {
        match self.it.next() {
            Some(extra) => {
                Err(parse_err(self.line, format!("unexpected trailing field {extra:?}")))
            }
            None => Ok(()),
        }
    }
}

fn parse_neq(f: &mut Fields) -> Result<NormalEqState> {
    let n_features = f.usize("n_features")?;
    let dim = n_features.checked_add(1).ok_or_else(|| {
        parse_err(f.line, format!("n_features {n_features} overflows the dimension"))
    })?;
    let square = f.block("ztz", dim, dim)?;
    let n = f.usize("n")?;
    let yty = f.f64("yty")?;
    let zty = f.f64s(dim, "zty")?;
    let ztz = f.f64s(square, "ztz")?;
    let factor = match f.usize("has_factor")? {
        0 => None,
        flag @ (1 | 2) => {
            let lambda = f.f64("lambda")?;
            let lt = f.f64s(square, "lt")?;
            let d = f.f64s(dim, "d")?;
            let dinv = f.f64s(dim, "dinv")?;
            let reg = if flag == 2 {
                f.f64s(dim, "reg")?
            } else {
                // Canonical un-jittered factor: reg is implied by λ.
                let mut reg = vec![lambda; dim];
                reg[0] = 0.0;
                reg
            };
            Some(NeqFactorState { lambda, parts: FactorParts { dim, lt, d, dinv }, reg })
        }
        other => return Err(parse_err(f.line, format!("bad has_factor flag {other}"))),
    };
    Ok(NormalEqState { n_features, n, yty, zty, ztz, factor })
}

fn parse_fit(f: &mut Fields) -> Result<LinearFit> {
    let intercept = f.f64("intercept")?;
    let residual_ss = f.f64("residual_ss")?;
    let n_obs = f.usize("n_obs")?;
    let n_weights = f.usize("n_weights")?;
    let weights = f.f64s(n_weights, "weights")?;
    Ok(LinearFit { weights, intercept, residual_ss, n_obs })
}

fn parse_ridge(f: &mut Fields) -> Result<RankOneState> {
    let dim = f.usize("dim")?;
    let n = f.usize("n")?;
    let square = f.block("a_inv", dim, dim)?;
    let xty = f.f64s(dim, "xty")?;
    let a_inv = f.f64s(square, "a_inv")?;
    Ok(RankOneState { dim, n, a_inv, xty })
}

/// Parse one `p,arm,<i>,…` estimator line (recursive / discounted / linear
/// / windowed / mean payloads).
fn parse_arm_state(f: &mut Fields) -> Result<ArmState> {
    let kind = f.raw("arm kind")?;
    let arm = match kind {
        "mean" => ArmState::Mean { n: f.usize("n")?, mean: f.f64("mean")? },
        "recursive" => ArmState::Recursive { acc: parse_neq(f)?, fit: parse_fit(f)? },
        "discounted" => ArmState::Discounted { acc: parse_neq(f)?, fit: parse_fit(f)? },
        "linear" => {
            let n_features = f.usize("n_features")?;
            let rows = f.usize("rows")?;
            let data = f.f64s(f.block("design", rows, n_features)?, "design")?;
            let ys = f.f64s(rows, "ys")?;
            ArmState::Linear { n_features, data, ys, fit: parse_fit(f)? }
        }
        "windowed" => {
            let n_features = f.usize("n_features")?;
            let total_seen = f.usize("total_seen")?;
            let rows = f.usize("window_len")?;
            let data = f.f64s(f.block("window", rows, n_features)?, "window contexts")?;
            let ys = f.f64s(rows, "window runtimes")?;
            ArmState::Windowed {
                n_features,
                total_seen,
                data,
                ys,
                acc: parse_neq(f)?,
                fit: parse_fit(f)?,
            }
        }
        other => return Err(parse_err(f.line, format!("unknown arm kind {other:?}"))),
    };
    Ok(arm)
}

fn expect_line<'a>(cur: &mut LineCursor<'a>, what: &str) -> Result<(usize, &'a str)> {
    cur.next_line().ok_or_else(|| {
        let line = cur.lines.last().map_or(0, |(n, _)| *n + 1);
        parse_err(line, format!("unexpected end of snapshot: missing {what}"))
    })
}

fn parse_rng_line(cur: &mut LineCursor) -> Result<[u64; 4]> {
    let (no, line) = expect_line(cur, "p,rng line")?;
    let mut f = Fields::new(no, line);
    f.tag("p")?;
    f.tag("rng")?;
    let s = [f.u64("s0")?, f.u64("s1")?, f.u64("s2")?, f.u64("s3")?];
    f.done()?;
    Ok(s)
}

/// `p,arm,<i>,…` with the expected index; returns a Fields cursor placed at
/// the payload.
fn open_arm_line<'a>(cur: &mut LineCursor<'a>, expect_idx: usize) -> Result<Fields<'a>> {
    let (no, line) = expect_line(cur, "p,arm line")?;
    let mut f = Fields::new(no, line);
    f.tag("p")?;
    f.tag("arm")?;
    let idx = f.usize("arm index")?;
    if idx != expect_idx {
        return Err(parse_err(no, format!("arm index {idx}, expected {expect_idx}")));
    }
    Ok(f)
}

fn expect_end(cur: &mut LineCursor) -> Result<()> {
    let (no, line) = expect_line(cur, "p,end line")?;
    if line != "p,end" {
        return Err(parse_err(no, format!("expected \"p,end\", found {line:?}")));
    }
    Ok(())
}

/// Parse one policy-state block (`p,kind,…` through `p,end`) off the
/// cursor.
///
/// # Errors
/// [`CoreError::InvalidParameter`] naming the offending line on any format
/// violation.
pub fn parse_policy_state(cur: &mut LineCursor) -> Result<PolicyState> {
    let (no, line) = expect_line(cur, "p,kind line")?;
    let mut f = Fields::new(no, line);
    f.tag("p")?;
    f.tag("kind")?;
    let kind = f.raw("policy kind")?;
    let state = match kind {
        "epsilon" | "budgeted" | "boltzmann" => {
            let scalar = f.f64(if kind == "boltzmann" { "temperature" } else { "epsilon" })?;
            let n_arms = f.usize("n_arms")?;
            f.done()?;
            let rng = parse_rng_line(cur)?;
            let mut arms = Vec::with_capacity(cur.capacity_for(n_arms));
            for i in 0..n_arms {
                let mut af = open_arm_line(cur, i)?;
                let arm = parse_arm_state(&mut af)?;
                af.done()?;
                arms.push(arm);
            }
            match kind {
                "epsilon" => PolicyState::Epsilon { epsilon: scalar, rng, arms },
                "budgeted" => PolicyState::Budgeted { epsilon: scalar, rng, arms },
                _ => PolicyState::Boltzmann { temperature: scalar, rng, arms },
            }
        }
        "plain" | "ucb1" => {
            let (epsilon, rounds) =
                if kind == "plain" { (f.f64("epsilon")?, 0) } else { (0.0, f.usize("rounds")?) };
            let n_arms = f.usize("n_arms")?;
            f.done()?;
            let rng = if kind == "plain" { Some(parse_rng_line(cur)?) } else { None };
            let mut arms = Vec::with_capacity(cur.capacity_for(n_arms));
            for i in 0..n_arms {
                let mut af = open_arm_line(cur, i)?;
                af.tag("mean")?;
                arms.push((af.usize("n")?, af.f64("mean")?));
                af.done()?;
            }
            if kind == "plain" {
                PolicyState::Plain { epsilon, rng: rng.expect("parsed above"), arms }
            } else {
                PolicyState::Ucb1 { rounds, arms }
            }
        }
        "linucb" => {
            let n_arms = f.usize("n_arms")?;
            f.done()?;
            let mut pulls = Vec::with_capacity(cur.capacity_for(n_arms));
            let mut arms = Vec::with_capacity(cur.capacity_for(n_arms));
            for i in 0..n_arms {
                let mut af = open_arm_line(cur, i)?;
                af.tag("ridge")?;
                pulls.push(af.usize("pulls")?);
                arms.push(parse_ridge(&mut af)?);
                af.done()?;
            }
            PolicyState::LinUcb { pulls, arms }
        }
        "thompson" => {
            let n_arms = f.usize("n_arms")?;
            f.done()?;
            let rng = parse_rng_line(cur)?;
            let mut pulls = Vec::with_capacity(cur.capacity_for(n_arms));
            let mut sum_sq = Vec::with_capacity(cur.capacity_for(n_arms));
            let mut arms = Vec::with_capacity(cur.capacity_for(n_arms));
            for i in 0..n_arms {
                let mut af = open_arm_line(cur, i)?;
                af.tag("ridge")?;
                pulls.push(af.usize("pulls")?);
                sum_sq.push(af.f64("sum_sq")?);
                arms.push(parse_ridge(&mut af)?);
                af.done()?;
            }
            PolicyState::Thompson { pulls, sum_sq, rng, arms }
        }
        "scaled" => {
            let n_features = f.usize("n_features")?;
            f.done()?;
            let mut scaler = Vec::with_capacity(cur.capacity_for(n_features));
            for i in 0..n_features {
                let (no, line) = expect_line(cur, "p,welford line")?;
                let mut wf = Fields::new(no, line);
                wf.tag("p")?;
                wf.tag("welford")?;
                let idx = wf.usize("feature index")?;
                if idx != i {
                    return Err(parse_err(no, format!("welford index {idx}, expected {i}")));
                }
                scaler.push(WelfordState {
                    n: wf.u64("n")?,
                    mean: wf.f64("mean")?,
                    m2: wf.f64("m2")?,
                });
                wf.done()?;
            }
            let inner = parse_policy_state(cur)?;
            PolicyState::Scaled { scaler, inner: Box::new(inner) }
        }
        other => return Err(parse_err(no, format!("unknown policy kind {other:?}"))),
    };
    expect_end(cur)?;
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn neq_state() -> NormalEqState {
        NormalEqState {
            n_features: 1,
            n: 3,
            yty: 14.0,
            zty: vec![6.0, 11.0],
            ztz: vec![3.0, 6.0, 6.0, 14.0],
            factor: Some(NeqFactorState {
                lambda: 0.0,
                parts: FactorParts {
                    dim: 2,
                    lt: vec![1.0, 2.0, 0.0, 1.0],
                    d: vec![3.0, 2.0],
                    dinv: vec![1.0 / 3.0, 0.5],
                },
                reg: vec![0.0, 0.0],
            }),
        }
    }

    fn fit() -> LinearFit {
        LinearFit { weights: vec![1.5], intercept: 0.5, residual_ss: 0.25, n_obs: 3 }
    }

    fn roundtrip(state: &PolicyState) -> PolicyState {
        let mut buf = Vec::new();
        write_policy_state(state, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<(usize, &str)> = text.lines().enumerate().collect();
        let mut cur = LineCursor::new(&lines);
        let parsed = parse_policy_state(&mut cur).unwrap();
        assert!(cur.peek().is_none(), "trailing lines after p,end");
        parsed
    }

    #[test]
    fn every_variant_roundtrips() {
        let rng = [1u64, u64::MAX, 42, 7];
        let states = vec![
            PolicyState::Epsilon {
                epsilon: 0.625,
                rng,
                arms: vec![
                    ArmState::Recursive { acc: neq_state(), fit: fit() },
                    ArmState::Linear {
                        n_features: 1,
                        data: vec![1.0, 2.0, 3.0],
                        ys: vec![2.0, 4.0, 6.0],
                        fit: fit(),
                    },
                    ArmState::Discounted { acc: neq_state(), fit: fit() },
                    ArmState::Windowed {
                        n_features: 1,
                        total_seen: 9,
                        data: vec![1.0, 2.0],
                        ys: vec![3.0, 5.0],
                        acc: neq_state(),
                        fit: fit(),
                    },
                ],
            },
            PolicyState::Budgeted {
                epsilon: 0.125,
                rng,
                arms: vec![
                    ArmState::Recursive { acc: neq_state(), fit: fit() },
                    ArmState::Recursive { acc: neq_state(), fit: fit() },
                ],
            },
            PolicyState::Plain { epsilon: 0.5, rng, arms: vec![(3, 10.0), (0, 0.0)] },
            PolicyState::Ucb1 { rounds: 7, arms: vec![(4, 2.5), (3, 9.0)] },
            PolicyState::LinUcb {
                pulls: vec![2, 1],
                arms: vec![
                    RankOneState {
                        dim: 2,
                        n: 2,
                        a_inv: vec![0.5, 0.1, 0.1, 0.25],
                        xty: vec![1.0, 2.0],
                    },
                    RankOneState {
                        dim: 2,
                        n: 1,
                        a_inv: vec![1.0, 0.0, 0.0, 1.0],
                        xty: vec![0.5, 0.5],
                    },
                ],
            },
            PolicyState::Thompson {
                pulls: vec![1],
                sum_sq: vec![25.0],
                rng,
                arms: vec![RankOneState {
                    dim: 2,
                    n: 1,
                    a_inv: vec![0.9, -0.1, -0.1, 0.8],
                    xty: vec![5.0, 10.0],
                }],
            },
            PolicyState::Boltzmann {
                temperature: 12.5,
                rng,
                arms: vec![ArmState::Recursive { acc: neq_state(), fit: fit() }],
            },
            PolicyState::Scaled {
                scaler: vec![
                    WelfordState { n: 5, mean: 2.5, m2: 10.0 },
                    WelfordState { n: 5, mean: -1.0, m2: 0.125 },
                ],
                inner: Box::new(PolicyState::Epsilon {
                    epsilon: 1.0,
                    rng,
                    arms: vec![ArmState::Mean { n: 2, mean: 7.0 }],
                }),
            },
        ];
        for state in &states {
            assert_eq!(&roundtrip(state), state, "roundtrip of {:?}", state.kind());
        }
    }

    #[test]
    fn jittered_factor_reg_roundtrips_via_flag_2() {
        // A non-canonical regularizer (baked jitter on the diagonal) must be
        // carried explicitly; a canonical one stays on the compact flag-1 form.
        let mut acc = neq_state();
        if let Some(f) = &mut acc.factor {
            f.lambda = 0.5;
            f.reg = vec![1e-9, 0.5 + 2e-9];
        }
        let state = PolicyState::Boltzmann {
            temperature: 1.0,
            rng: [9, 8, 7, 6],
            arms: vec![ArmState::Recursive { acc: acc.clone(), fit: fit() }],
        };
        let mut buf = Vec::new();
        write_policy_state(&state, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains(",recursive,1,3,14,"), "arm payload present:\n{text}");
        assert_eq!(roundtrip(&state), state);
        let parsed = roundtrip(&state);
        if let PolicyState::Boltzmann { arms, .. } = &parsed {
            if let ArmState::Recursive { acc: racc, .. } = &arms[0] {
                let f = racc.factor.as_ref().unwrap();
                assert_eq!(f.reg[0].to_bits(), (1e-9f64).to_bits());
                assert_eq!(f.reg[1].to_bits(), (0.5f64 + 2e-9).to_bits());
            } else {
                panic!("arm kind changed");
            }
        } else {
            panic!("variant changed");
        }
    }

    #[test]
    fn float_text_is_bitwise_exact() {
        // Shortest-round-trip Display must restore exact bits, including
        // awkward values.
        let awkward = [0.1 + 0.2, f64::MIN_POSITIVE, 1e300, -0.0, 1.0 / 3.0];
        let state = PolicyState::Plain {
            epsilon: awkward[0],
            rng: [0, 1, 2, 3],
            arms: awkward.iter().map(|&v| (1usize, v)).collect(),
        };
        let parsed = roundtrip(&state);
        if let (
            PolicyState::Plain { epsilon, arms, .. },
            PolicyState::Plain { epsilon: e2, arms: a2, .. },
        ) = (&state, &parsed)
        {
            assert_eq!(epsilon.to_bits(), e2.to_bits());
            for ((_, a), (_, b)) in arms.iter().zip(a2) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} vs {b}");
            }
        } else {
            panic!("variant changed in roundtrip");
        }
    }

    #[test]
    fn opaque_states_refuse_to_serialize() {
        let mut buf = Vec::new();
        assert!(write_policy_state(&PolicyState::Opaque, &mut buf).is_err());
        let nested =
            PolicyState::Epsilon { epsilon: 1.0, rng: [0; 4], arms: vec![ArmState::Opaque] };
        assert!(write_policy_state(&nested, &mut buf).is_err());
    }

    #[test]
    fn malformed_blocks_are_rejected_with_line_numbers() {
        let parse = |text: &str| {
            let lines: Vec<(usize, &str)> = text.lines().enumerate().collect();
            parse_policy_state(&mut LineCursor::new(&lines))
        };
        assert!(parse("").is_err());
        assert!(parse("p,kind,frobnicate,1\np,end\n").is_err());
        // Missing p,end.
        assert!(parse("p,kind,ucb1,3,1\np,arm,0,mean,2,5.0\n").is_err());
        // Wrong arm index.
        assert!(parse("p,kind,ucb1,3,1\np,arm,1,mean,2,5.0\np,end\n").is_err());
        // Trailing junk on a line.
        assert!(parse("p,kind,ucb1,3,1\np,arm,0,mean,2,5.0,77\np,end\n").is_err());
        // Bad float.
        let err = parse("p,kind,ucb1,3,1\np,arm,0,mean,2,xyz\np,end\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        // RNG line missing where required.
        assert!(parse("p,kind,plain,0.5,1\np,arm,0,mean,2,5.0\np,end\n").is_err());
    }

    #[test]
    fn field_cursor_edge_lines_match_split() {
        for line in ["", ",", ",,", "a,", ",a", "p,end", "1.5", "\u{e9},\u{20ac}", "\u{e9},"] {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(FieldCursor::new(line).collect::<Vec<_>>(), fields, "{line:?}");
            assert_eq!(FieldCursor::new(line).remaining(), fields.len(), "{line:?}");
        }
        let mut cur = FieldCursor::new("a,");
        assert_eq!(cur.next(), Some("a"));
        assert_eq!(cur.rest(), Some(""), "one empty field left");
        assert_eq!(cur.next(), Some(""));
        assert_eq!((cur.rest(), cur.next(), cur.next()), (None, None, None), "fused");
    }

    #[test]
    fn declared_sizes_that_overflow_are_parse_errors() {
        // A corrupt size must come back as a line-numbered error naming it:
        // not an arithmetic-overflow panic (debug), not a wrapped size that
        // blames a later field (release), and not a giant reservation.
        let parse = |text: &str| {
            let lines: Vec<(usize, &str)> = text.lines().enumerate().collect();
            parse_policy_state(&mut LineCursor::new(&lines)).unwrap_err().to_string()
        };
        let block = |arm: &str| format!("p,kind,epsilon,0.5,1\np,rng,1,2,3,4\n{arm}\np,end\n");
        let err = parse(&block(&format!("p,arm,0,recursive,{},0,0", usize::MAX)));
        assert!(err.contains("line 3: n_features 18446744073709551615 overflows"), "{err}");
        let err = parse(&block("p,arm,0,linear,8589934592,2147483648,1.0"));
        assert!(err.contains("line 3: design size 2147483648 x 8589934592 overflows"), "{err}");
        let err = parse(&block("p,arm,0,windowed,4294967296,0,4294967296,1.0"));
        assert!(err.contains("line 3: window size 4294967296 x 4294967296 overflows"), "{err}");
        let err = parse(&block("p,arm,0,discounted,4294967296,0,0"));
        assert!(err.contains("line 3: ztz size 4294967297 x 4294967297 overflows"), "{err}");
        let ridge = "p,kind,linucb,1\np,arm,0,ridge,0,4294967296,0\np,end\n";
        assert!(parse(ridge).contains("line 2: a_inv size 4294967296 x 4294967296 overflows"));
        // Counts that fit but exceed the line end at the first missing field,
        // and a huge arm count reserves no more than the lines present.
        let err = parse(&block("p,arm,0,linear,1,4611686018427387904,1.0"));
        assert!(err.contains("line 3: missing field: design"), "{err}");
        let err = parse(&format!("p,kind,ucb1,3,{}\np,arm,0,mean,2,5.0\np,end\n", usize::MAX));
        assert!(err.contains("line 3: expected \"arm\", found \"end\""), "{err}");
    }

    #[test]
    fn floats_are_written_as_display_formats_them() {
        // `push_f64s` writes into the line; the bytes must be exactly the
        // old per-float `to_string()` join.
        let edge = [
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 3.0,
            -f64::MIN_POSITIVE / 1024.0,
            f64::from_bits(1),
            1e300,
            -1e-300,
            1e-7,
            1e16,
            3.0,
            -42.0,
            0.1 + 0.2,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN,
        ];
        let old = |vs: &[f64]| {
            let strings: Vec<String> = vs.iter().map(|v| v.to_string()).collect();
            format!(",{}", strings.join(","))
        };
        for n in 0..=edge.len() {
            let mut line = String::from("p,arm,0");
            push_f64s(&mut line, &edge[..n]);
            assert_eq!(line, format!("p,arm,0{}", old(&edge[..n])), "{n} values");
        }
    }
}
