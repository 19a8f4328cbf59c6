//! The per-thread scratch workspace.
//!
//! Every buffer the recommend and record paths need only *during* a call —
//! selections, prediction columns, the staged observation frame, the
//! per-arm grouping, augmented rows, the solve scratch, the `[1, x]`
//! vectors and `A⁻¹z` products — lives in one [`Workspace`] per thread
//! instead of in each recommender, policy and arm. A shard then holds only
//! its model state, its history tail and its open tickets, and the few
//! tenants of a burst share one warm set of buffers.
//!
//! **Once per entry point.** A public entry point (`BanditWare`'s batch
//! calls, `Policy::select`, `ArmEstimator::update`, the `&self` read
//! paths) takes the thread's workspace once with [`Workspace::with`] and
//! hands `&mut Workspace` down through the layers it calls
//! ([`crate::Policy::select_frame_with`],
//! [`crate::Policy::observe_frame_with`],
//! [`crate::ArmEstimator::absorb_rows`]). A layer that keeps a buffer
//! across a call down moves it out with `std::mem::take` and puts it back
//! afterwards.
//!
//! **Taken, not borrowed.** The thread-local cell is const-initialised and
//! holds a stack of spare workspaces; [`Workspace::with`] pops one (or
//! builds an empty one) and pushes it back when the closure returns. A
//! nested or re-entrant call — a wrapper policy calling its inner policy's
//! entry point, a record callback that records into another recommender —
//! gets a workspace of its own instead of failing, and once it has run it
//! stays warm for the next nested call.
//!
//! Buffers hold nothing between calls: every user clears or resizes before
//! reading, so results never depend on which workspace a call got (the
//! bitwise suites and `crates/core/tests/workspace.rs` pin this).

use crate::frame::{FeatureFrame, ObservationFrame};
use crate::policy::Selection;
use banditware_linalg::{Matrix, SolveScratch};
use std::cell::Cell;

/// One thread's scratch buffers (see the module docs). Opaque outside the
/// crate: custom [`crate::Policy`] and [`crate::ArmEstimator`]
/// implementations only pass it along.
#[derive(Debug, Default)]
pub struct Workspace {
    /// A burst's selections.
    pub(crate) sels: Vec<Selection>,
    /// A burst's prediction columns, arm-major.
    pub(crate) cols: Vec<f64>,
    /// A record burst's index positions, closed rounds and absorbed flags.
    pub(crate) burst: Burst,
    /// A record burst's index positions, sorted for duplicate detection.
    pub(crate) sorted: Vec<usize>,
    /// A feature frame transposed to rows.
    pub(crate) rows: Vec<f64>,
    /// One context's per-arm values (predictions, softmax weights, costs).
    pub(crate) per_arm: Vec<f64>,
    /// A record burst's per-arm grouping.
    pub(crate) grouping: Grouping,
    /// An augmented context `[1, x]`.
    pub(crate) z: Vec<f64>,
    /// A standardized context.
    pub(crate) scaled: Vec<f64>,
    /// `A⁻¹z`, or a Gaussian draw.
    pub(crate) az: Vec<f64>,
    /// A sampled weight vector.
    pub(crate) draw: Vec<f64>,
    /// A covariance matrix and its Cholesky factor.
    pub(crate) cov: Matrix,
    pub(crate) cov_l: Matrix,
    /// A standardized feature frame and observation frame.
    pub(crate) zframe: FeatureFrame,
    pub(crate) zobs: ObservationFrame,
    /// The block kernels' panel buffer.
    pub(crate) panel: Vec<f64>,
    /// The refit's solve scratch.
    pub(crate) solve: SolveScratch,
    /// The `[1, x]` staging vector of a one-row statistics update.
    pub(crate) aug: Vec<f64>,
}

/// The buffers [`crate::BanditWare`] keeps across a record burst's policy
/// pass.
#[derive(Debug, Default)]
pub(crate) struct Burst {
    /// Ticket-index positions, in input order.
    pub(crate) pos: Vec<usize>,
    /// The closed rounds, row-major.
    pub(crate) obs: ObservationFrame,
    /// Per-row absorbed flags.
    pub(crate) absorbed: Vec<bool>,
}

/// The buffers of a record burst's per-arm grouping
/// ([`crate::DecayingEpsilonGreedy`]'s `observe_frame_with`).
#[derive(Debug, Default)]
pub(crate) struct Grouping {
    /// One arm's block as augmented rows `[1, x]`, and its outcomes.
    pub(crate) block: Vec<f64>,
    pub(crate) ys: Vec<f64>,
}

thread_local! {
    // Boxed: taking and returning a workspace moves a pointer, not the
    // whole struct.
    #[allow(clippy::vec_box)]
    static SPARE: Cell<Vec<Box<Workspace>>> = const { Cell::new(Vec::new()) };
}

impl Workspace {
    /// Stage the augmented context `z = [1, x]` in `self.z`.
    pub(crate) fn stage_aug(&mut self, x: &[f64]) {
        self.z.clear();
        self.z.push(1.0);
        self.z.extend_from_slice(x);
    }

    /// Run `f` with one of this thread's workspaces, taken for the
    /// duration of the call (see the module docs).
    pub fn with<R>(f: impl FnOnce(&mut Workspace) -> R) -> R {
        let mut spare = SPARE.take();
        let mut ws = spare.pop().unwrap_or_default();
        SPARE.set(spare);
        let out = f(&mut ws);
        let mut spare = SPARE.take();
        spare.push(ws);
        SPARE.set(spare);
        out
    }
}
