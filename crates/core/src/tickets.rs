//! The in-flight ticket table behind [`crate::BanditWare`]: one flat,
//! row-major feature arena and an index of open rounds sorted by ticket id.
//!
//! * The arena holds `stride` values per slot. A slot is taken from the
//!   free list (or appended) when a round opens and returned when it
//!   closes, so the arena never holds more rows than the peak number of
//!   open tickets, and a warm table opens and closes rounds without
//!   allocating.
//! * Ticket ids are issued from a monotone counter, so a burst appends to
//!   the index; lookups are binary searches. A record burst marks its
//!   rounds closed and [`TicketTable::sweep`] drops them in one compaction
//!   pass.
//! * `stride` is the widest row opened so far. Contextual policies fix
//!   every row at their own width; a non-contextual policy may hold rows of
//!   any width, and a wider one re-strides the arena (each entry keeps its
//!   own width). A burst that is refused restores the previous stride.

use crate::bandit::{InFlightRound, Ticket};
use crate::frame::FeatureFrame;
use crate::policy::Selection;

/// One open round: its ticket id, the remembered selection, and where its
/// features live in the arena.
#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u64,
    arm: usize,
    explored: bool,
    slot: usize,
    width: usize,
    /// Recorded by the current burst; dropped by the next sweep.
    closed: bool,
}

/// See the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct TicketTable {
    /// Open rounds, ascending id.
    index: Vec<Entry>,
    /// Row-major features, `stride` values per slot.
    arena: Vec<f64>,
    stride: usize,
    slots: usize,
    /// Slots no open round holds.
    free: Vec<usize>,
    /// Index length, slot count and stride before the burst being issued
    /// (its entries sit at the end of the index until commit), restored if
    /// it is abandoned.
    before_stage: (usize, usize, usize),
}

impl TicketTable {
    /// Number of open rounds.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// Position of ticket `id` in the index.
    pub(crate) fn position(&self, id: u64) -> Option<usize> {
        self.index.binary_search_by_key(&id, |e| e.id).ok()
    }

    /// The ticket id at index position `pos`.
    pub(crate) fn id_at(&self, pos: usize) -> u64 {
        self.index[pos].id
    }

    /// The open round at index position `pos`.
    pub(crate) fn round(&self, pos: usize) -> InFlightRound<'_> {
        let e = &self.index[pos];
        InFlightRound {
            arm: e.arm,
            features: &self.arena[e.slot * self.stride..][..e.width],
            explored: e.explored,
        }
    }

    /// Every open round, ascending id.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Ticket, InFlightRound<'_>)> + '_ {
        (0..self.index.len()).map(|pos| (Ticket::from_id(self.index[pos].id), self.round(pos)))
    }

    /// Open a round under `id` (any id not already open). Returns `false`,
    /// changing nothing, when `id` is already open.
    pub(crate) fn insert(&mut self, id: u64, arm: usize, features: &[f64], explored: bool) -> bool {
        let Err(pos) = self.index.binary_search_by_key(&id, |e| e.id) else {
            return false;
        };
        let width = features.len();
        if width > self.stride {
            self.restride(width);
        }
        let slot = self.take_slot();
        self.arena[slot * self.stride..][..width].copy_from_slice(features);
        self.index.insert(pos, Entry { id, arm, explored, slot, width, closed: false });
        true
    }

    /// Close the round at `pos` now.
    pub(crate) fn remove(&mut self, pos: usize) {
        let e = self.index.remove(pos);
        self.free.push(e.slot);
    }

    /// Mark the round at `pos` closed; [`TicketTable::sweep`] drops it.
    /// Positions stay valid until the sweep.
    pub(crate) fn close(&mut self, pos: usize) {
        self.index[pos].closed = true;
    }

    /// Drop every closed round in one compaction pass.
    pub(crate) fn sweep(&mut self) {
        let TicketTable { index, free, .. } = self;
        index.retain(|e| {
            if e.closed {
                free.push(e.slot);
            }
            !e.closed
        });
    }

    /// Forget every round and release the arena.
    pub(crate) fn clear(&mut self) {
        *self = TicketTable::default();
    }

    /// Take a slot for each of a burst's `frame.n_rows()` rounds and
    /// transpose the frame into them. Returns whether every feature
    /// satisfies `|x| <= bound` (see [`FeatureFrame::transpose_into`]). The
    /// burst's entries wait at the end of the index, not yet open, until
    /// [`TicketTable::commit`] gives them ids; [`TicketTable::unstage`]
    /// abandons them.
    pub(crate) fn stage(&mut self, frame: &FeatureFrame, bound: f64) -> bool {
        let first = self.index.len();
        self.before_stage = (first, self.slots, self.stride);
        let width = frame.n_features();
        if frame.is_empty() {
            return true;
        }
        if width > self.stride {
            self.restride(width);
        }
        for _ in 0..frame.n_rows() {
            let slot = self.take_slot();
            let (id, arm, explored, closed) = (u64::MAX, 0, false, false);
            self.index.push(Entry { id, arm, explored, slot, width, closed });
        }
        let TicketTable { arena, stride, index, .. } = self;
        frame.transpose_into(arena, *stride, |r| index[first + r].slot, bound)
    }

    /// Features of staged row `r`.
    pub(crate) fn staged_row(&self, r: usize) -> &[f64] {
        let e = &self.index[self.before_stage.0 + r];
        &self.arena[e.slot * self.stride..][..e.width]
    }

    /// Abandon the staged burst: its slots return to where they came from
    /// and the arena to its previous shape.
    pub(crate) fn unstage(&mut self) {
        let (first, slots, stride) = self.before_stage;
        // Reverse order puts recycled slots back exactly as they were popped.
        for e in self.index.drain(first..).rev() {
            if e.slot < slots {
                self.free.push(e.slot);
            }
        }
        self.slots = slots;
        self.arena.truncate(slots * self.stride);
        if stride != self.stride {
            self.restride(stride);
        }
    }

    /// Open the staged burst: row `r` becomes ticket `first_id + r` with
    /// selection `sels[r]`. Ids must exceed every open id (they come from
    /// the monotone counter), so the index stays sorted.
    pub(crate) fn commit(&mut self, first_id: u64, sels: &[Selection]) {
        let first = self.before_stage.0;
        for ((e, sel), id) in self.index[first..].iter_mut().zip(sels).zip(first_id..) {
            (e.id, e.arm, e.explored) = (id, sel.arm, sel.explored);
        }
        // Rows left without a selection are not opened.
        let issued = (first + sels.len()).min(self.index.len());
        for e in self.index.drain(issued..) {
            self.free.push(e.slot);
        }
    }

    fn take_slot(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.slots += 1;
            self.arena.resize(self.slots * self.stride, 0.0);
            self.slots - 1
        })
    }

    /// Re-lay the arena at `stride` values per slot, keeping every open
    /// row (each fits: `stride` never drops below an open row's width).
    fn restride(&mut self, stride: usize) {
        let mut arena = vec![0.0; self.slots * stride];
        for e in &self.index {
            arena[e.slot * stride..][..e.width]
                .copy_from_slice(&self.arena[e.slot * self.stride..][..e.width]);
        }
        self.arena = arena;
        self.stride = stride;
    }
}
