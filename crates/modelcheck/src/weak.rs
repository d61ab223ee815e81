//! Store-buffer (TSO-style) weak-memory simulation.
//!
//! In the default mode the explorer serializes execution, so an atomic
//! load always observes the latest store — *sequential value semantics*.
//! That can never exhibit the one bug class the workspace's D5 ordering
//! discipline exists to prevent: a `Relaxed` publication whose readers
//! observe a **stale value** because the store is still sitting in the
//! writing CPU's store buffer.
//!
//! The weak mode ([`crate::Config::weak`]) simulates exactly that
//! hardware structure:
//!
//! * Every virtual thread owns a FIFO **store buffer**. A `Relaxed`
//!   store on a sync-class atomic is appended to the buffer instead of
//!   being applied to global memory.
//! * Buffered stores drain one at a time at **scheduler-chosen flush
//!   points**: whenever a thread's buffer is non-empty, the scheduler's
//!   enabled set gains a *flush pseudo-action* for that thread
//!   (rendered `f<tid>` in `v2:` traces, vs `t<tid>` for thread
//!   grants). The DFS explores flushing early, late, and — the
//!   interesting case — not at all: a finite execution in which a
//!   buffered store never became visible is a legal weak-memory
//!   execution, and it is the schedule that exhibits stale
//!   publication.
//! * `Release`/`SeqCst` stores and all read-modify-writes are **write
//!   through**: they first drain the executing thread's own buffer (a
//!   store buffer is FIFO — program order among a thread's stores is
//!   preserved) and then apply directly to global memory. This is the
//!   operational reading of the D5 contract: a correctly `Release`d
//!   publication is immediately visible, so every model that only uses
//!   sanctioned orderings behaves identically to the default mode.
//! * Loads (any ordering) first consult the thread's **own** buffer —
//!   TSO forwards a thread its own latest buffered store — and
//!   otherwise read global memory, which simply does not contain other
//!   threads' unflushed stores. `Acquire` loads additionally join the
//!   release clock deposited by write-through stores, so the
//!   happens-before machinery (and [`crate::sync::MData`] race
//!   detection) keeps working under the weak semantics.
//!
//! The eager `Relaxed`-on-sync-atomic *heuristics* of the default mode
//! are disabled here: weak mode does not flag the ordering, it
//! *executes* it, and lets the model's own assertions observe the
//! stale value.
//!
//! Global memory for weak-touched atomics lives in session-owned
//! `Cell`s rather than in the real `std` atomic: flush points are
//! executed by the scheduler, which has no reference to the atomic
//! instance, and the controller's post-join assertions must be able to
//! observe (the absence of) unflushed stores. Values are transported as
//! plain `u64` words; the instrumented wrappers convert (`bool`,
//! `usize`, pointers) on either side. The real atomic is kept in sync
//! opportunistically on write-through operations so uninstrumented
//! (pass-through) threads stay approximately coherent; only the
//! session-side cells are authoritative for scheduled threads.

use crate::sched::VClock;
use std::collections::{BTreeMap, VecDeque};

/// Scheduler-choice encoding offset: choice values `>= FLUSH_BASE`
/// denote "flush one store from thread `choice - FLUSH_BASE`'s buffer"
/// rather than "grant thread `choice`". Flush actions never count as
/// preemptions (they are memory-system steps, not context switches).
pub(crate) const FLUSH_BASE: usize = 1 << 16;

/// One buffered (not yet globally visible) store.
pub(crate) struct Pending {
    /// Identity token of the target atomic.
    pub token: usize,
    /// The stored value, as a word.
    pub value: u64,
    /// The writer's vector clock at the store operation; installed as
    /// the cell's last-write clock when the store flushes.
    pub clock: VClock,
}

/// Session-side state of one atomic: the authoritative weak-mode value
/// plus the happens-before metadata both modes use.
#[derive(Default)]
pub(crate) struct Cell {
    /// Globally visible value (weak mode only; the default mode keeps
    /// the real atomic authoritative).
    pub value: u64,
    /// The last write applied to global memory: thread and its clock.
    pub last_write: Option<(usize, VClock)>,
    /// Clock released into the atomic by release-or-stronger writes.
    pub release: Option<VClock>,
}

impl Cell {
    /// A cell whose value starts from the real atomic's current word.
    pub fn with_value(value: u64) -> Self {
        Cell {
            value,
            ..Cell::default()
        }
    }
}

/// A read-modify-write against a word cell. RMWs always flush: they
/// operate on the latest value in the modification order, on hardware
/// and here alike.
#[derive(Clone, Copy, Debug)]
pub(crate) enum RmwOp {
    Add(u64),
    Sub(u64),
    Swap(u64),
    Cex { expected: u64, new: u64 },
}

/// Apply `op` to `prev`, returning `(previous, Some(new))` — or
/// `(previous, None)` for a failed compare-exchange, which performs no
/// write.
pub(crate) fn apply_rmw(prev: u64, op: RmwOp) -> (u64, Option<u64>) {
    match op {
        RmwOp::Add(v) => (prev, Some(prev.wrapping_add(v))),
        RmwOp::Sub(v) => (prev, Some(prev.wrapping_sub(v))),
        RmwOp::Swap(v) => (prev, Some(v)),
        RmwOp::Cex { expected, new } => {
            if prev == expected {
                (prev, Some(new))
            } else {
                (prev, None)
            }
        }
    }
}

/// Newest pending store by `tid` to `token`, if any. TSO: a thread
/// always reads its own latest buffered store to a location.
pub(crate) fn own_buffered(buffers: &[VecDeque<Pending>], tid: usize, token: usize) -> Option<u64> {
    buffers[tid]
        .iter()
        .rev()
        .find(|p| p.token == token)
        .map(|p| p.value)
}

/// Apply the oldest pending store of `tid` to global memory. Returns
/// the token of the flushed store, or `None` when the buffer is already
/// empty. The token is what lets the scheduler record the flush as a
/// *write event* on that location for partial-order reduction — a flush
/// is the moment a buffered store becomes globally visible, so it is
/// the point that conflicts with other units' accesses.
pub(crate) fn flush_one(
    cells: &mut BTreeMap<usize, Cell>,
    buffers: &mut [VecDeque<Pending>],
    tid: usize,
) -> Option<usize> {
    let p = buffers[tid].pop_front()?;
    // The cell was created when the store was buffered, but an explicit
    // default keeps the flush total under any drain order.
    let cell = cells.entry(p.token).or_default();
    cell.value = p.value;
    // A flushed Relaxed store carries no release clock: readers learn
    // the value but gain no happens-before edge — exactly the stale
    // publication hazard the weak mode exists to exhibit.
    cell.last_write = Some((tid, p.clock));
    Some(p.token)
}

/// Drain `tid`'s whole buffer in FIFO order (write-through stores and
/// RMW operations do this before applying themselves). Returns the
/// drained tokens so the caller can charge them as writes of the
/// draining event.
pub(crate) fn drain(
    cells: &mut BTreeMap<usize, Cell>,
    buffers: &mut [VecDeque<Pending>],
    tid: usize,
) -> Vec<usize> {
    let mut drained = Vec::new();
    while let Some(tok) = flush_one(cells, buffers, tid) {
        drained.push(tok);
    }
    drained
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffered_stores_flush_in_fifo_order() {
        let mut cells = BTreeMap::new();
        let mut buffers = vec![VecDeque::new()];
        buffers[0].push_back(Pending {
            token: 7,
            value: 1,
            clock: VClock::default(),
        });
        buffers[0].push_back(Pending {
            token: 7,
            value: 2,
            clock: VClock::default(),
        });
        assert_eq!(own_buffered(&buffers, 0, 7), Some(2));
        assert_eq!(flush_one(&mut cells, &mut buffers, 0), Some(7));
        assert_eq!(cells.get(&7).map(|c| c.value), Some(1));
        assert_eq!(drain(&mut cells, &mut buffers, 0), vec![7]);
        assert_eq!(cells.get(&7).map(|c| c.value), Some(2));
        assert_eq!(flush_one(&mut cells, &mut buffers, 0), None);
    }
}
