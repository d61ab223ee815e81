//! Scoped history recording behind the `Cluster` lincheck facade.
//!
//! A recording is a [`Session`]: [`Session::begin`] opens one and makes
//! it the calling thread's *current* session, [`Session::finish`]
//! returns the events (plus the payload intern table) and closes it.
//! Nothing is process-global. A cluster records through the
//! [`Recorder`] handle it captured from the thread that built it
//! ([`Recorder::current`]), so a cluster built outside any session —
//! another test in the same binary, say — records nothing, whichever
//! threads later drive it, and two sessions on two threads own two
//! disjoint event streams that cannot interleave. With a detached
//! handle every hook is a cheap check-and-return — and without the
//! `lincheck` feature the cluster facade compiles the hooks away
//! entirely, so the production data path never reaches this module.
//!
//! Correctness notes:
//!
//! - **Thread ids** are session-assigned dense indices in
//!   first-record order, not OS thread ids. Under the model checker's
//!   serialized scheduler the assignment is deterministic per
//!   schedule, which is what makes witnesses byte-identical on replay.
//! - **Re-entrancy**: nested public API calls (`reintegrate_all` runs
//!   `heal_dirty` and `reintegrate_batch` internally) must record one
//!   operation, not three. A per-thread depth counter suppresses the
//!   inner spans.
//! - **Payload interning**: values are mapped to dense ids in
//!   first-seen order so histories and witnesses stay compact and
//!   deterministic.
//!
//! The recorder deliberately uses `std::sync::Mutex`, not the
//! instrumented sync facade: recording must not add yield points or
//! footprint accesses, or opening a session would change the very
//! schedule spaces it observes (and break existing byte-identical
//! trace regressions).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use crate::history::{Event, EventKind, Op, Ret, Val};

/// A completed recording: the event stream plus the payload intern
/// table (`vals[id]` = payload bytes for `Val` id).
#[derive(Debug, Default)]
pub struct Recording {
    /// Events in record order.
    pub events: Vec<Event>,
    /// Interned payloads in id order.
    pub vals: Vec<Vec<u8>>,
}

#[derive(Debug, Default)]
struct Active {
    events: Vec<Event>,
    threads: Vec<ThreadId>,
    interned: BTreeMap<Vec<u8>, Val>,
    vals: Vec<Vec<u8>>,
}

impl Active {
    fn tid(&mut self) -> u32 {
        let me = std::thread::current().id();
        if let Some(i) = self.threads.iter().position(|t| *t == me) {
            return i as u32;
        }
        self.threads.push(me);
        (self.threads.len() - 1) as u32
    }

    fn intern(&mut self, payload: &[u8]) -> Val {
        if let Some(&v) = self.interned.get(payload) {
            return v;
        }
        let v = self.vals.len() as Val;
        self.interned.insert(payload.to_vec(), v);
        self.vals.push(payload.to_vec());
        v
    }
}

/// One session's recording slot: `None` once the session finished, so
/// a recorder that outlives its session goes inert instead of leaking
/// events into nowhere.
type Slot = Arc<Mutex<Option<Active>>>;

thread_local! {
    /// The session clusters built on this thread attach to.
    static CURRENT: RefCell<Option<Slot>> = const { RefCell::new(None) };
    /// Open-span depth on this thread; inner spans are suppressed.
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

fn lk(slot: &Slot) -> std::sync::MutexGuard<'_, Option<Active>> {
    // A panicked hook holds no broken invariant worth poisoning over.
    match slot.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// An open recording session, owned by whoever will check the history.
/// Dropping it unfinished discards the recording.
#[derive(Debug)]
#[must_use = "a session records until `finish` takes its history"]
pub struct Session {
    slot: Slot,
}

impl Session {
    /// Open a fresh empty recording and make it the calling thread's
    /// current session: every [`Recorder::current`] taken on this
    /// thread from now on (i.e. every cluster built on it) records
    /// here, replacing any session the thread had open before.
    pub fn begin() -> Session {
        let slot: Slot = Arc::new(Mutex::new(Some(Active::default())));
        CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&slot)));
        Session { slot }
    }

    /// Take the recording and close the session; recorders still
    /// attached to it go inert.
    pub fn finish(self) -> Recording {
        let a = lk(&self.slot).take().unwrap_or_default();
        Recording {
            events: a.events,
            vals: a.vals,
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        *lk(&self.slot) = None;
        // try_with: a session dropped during thread teardown must not
        // panic on the already-destroyed slot (rule: `Drop` never panics).
        let _ = CURRENT.try_with(|c| {
            if let Ok(mut c) = c.try_borrow_mut() {
                if c.as_ref().is_some_and(|s| Arc::ptr_eq(s, &self.slot)) {
                    *c = None;
                }
            }
        });
    }
}

/// A cluster's handle onto the session it was built under; detached
/// (records nothing) when there was none.
#[derive(Debug, Clone, Default)]
pub struct Recorder(Option<Slot>);

/// An open operation span returned by [`Recorder::invoke`]; close it
/// with [`Recorder::ret`]. `recorded == false` spans (detached
/// recorder or nested call) only maintain the depth counter.
#[derive(Debug)]
#[must_use = "a span left open unbalances the thread's depth counter"]
pub struct Span {
    recorded: bool,
    counted: bool,
}

impl Span {
    /// A span that records nothing and counts nothing.
    pub fn disarmed() -> Self {
        Span {
            recorded: false,
            counted: false,
        }
    }
}

impl Recorder {
    /// A handle onto the calling thread's current session.
    pub fn current() -> Recorder {
        Recorder(CURRENT.with(|c| c.borrow().clone()))
    }

    /// Is this handle attached to a session that is still recording?
    pub fn active(&self) -> bool {
        self.0.as_ref().is_some_and(|s| lk(s).is_some())
    }

    /// Intern a payload in the session. Returns 0 when detached (the
    /// id is only meaningful alongside a recorded event).
    pub fn intern(&self, payload: &[u8]) -> Val {
        let Some(slot) = &self.0 else { return 0 };
        lk(slot).as_mut().map_or(0, |a| a.intern(payload))
    }

    /// Record an operation invocation at `now_ns`, returning the span
    /// to close with [`Recorder::ret`]. Nested invocations on the same
    /// thread (public API methods calling each other) are suppressed:
    /// only the outermost span records.
    pub fn invoke(&self, op: Op, now_ns: u64) -> Span {
        let Some(slot) = &self.0 else {
            return Span::disarmed();
        };
        let mut g = lk(slot);
        let Some(a) = g.as_mut() else {
            return Span::disarmed();
        };
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        if depth > 0 {
            return Span {
                recorded: false,
                counted: true,
            };
        }
        let tid = a.tid();
        a.events.push(Event {
            tid,
            kind: EventKind::Invoke(op),
            at_ns: now_ns,
        });
        Span {
            recorded: true,
            counted: true,
        }
    }

    /// Record the response for `span` at `now_ns`.
    pub fn ret(&self, span: Span, r: Ret, now_ns: u64) {
        if span.counted {
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        }
        if !span.recorded {
            return;
        }
        let Some(slot) = &self.0 else {
            return;
        };
        let mut g = lk(slot);
        let Some(a) = g.as_mut() else {
            return;
        };
        let tid = a.tid();
        a.events.push(Event {
            tid,
            kind: EventKind::Return(r),
            at_ns: now_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_interns_and_suppresses_nesting() {
        let session = Session::begin();
        let rec = Recorder::current();
        let v0 = rec.intern(b"hello");
        let v1 = rec.intern(b"world");
        let v0b = rec.intern(b"hello");
        assert_eq!((v0, v1, v0b), (0, 1, 0));
        let outer = rec.invoke(Op::Put { key: 5, val: v0 }, 10);
        // A nested public-API call inside the outer op records nothing.
        let inner = rec.invoke(Op::Heal, 11);
        rec.ret(inner, Ret::Ok, 12);
        rec.ret(outer, Ret::Ok, 13);
        let done = session.finish();
        assert!(!rec.active(), "finish closes the session");
        assert_eq!(done.vals, vec![b"hello".to_vec(), b"world".to_vec()]);
        assert_eq!(done.events.len(), 2);
        assert_eq!(
            done.events[0].kind,
            EventKind::Invoke(Op::Put { key: 5, val: 0 })
        );
        assert_eq!(done.events[1].kind, EventKind::Return(Ret::Ok));
        assert_eq!(done.events[0].at_ns, 10);
        assert_eq!(done.events[1].at_ns, 13);
        // A recorder that outlived its session is inert, and so is one
        // taken where no session is open.
        for r in [rec, Recorder::current()] {
            let s = r.invoke(Op::Heal, 1);
            r.ret(s, Ret::Ok, 2);
            assert!(!r.active());
        }
    }
}
