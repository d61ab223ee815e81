//! Instrumented drop-in sync primitives (`MAtomic*`, `MMutex`, `MData`).
//!
//! Each primitive is *runtime-adaptive*: on a thread owned by a
//! model-check session it declares the operation at a scheduler yield
//! point, performs it under the serialized turn, and applies the
//! vector-clock happens-before bookkeeping; on any other thread it
//! passes straight through to the plain `std` primitive (one
//! thread-local lookup of overhead). Consumer crates re-export these
//! behind a `cfg`-switched `sync` facade, so release builds without the
//! `modelcheck` feature compile to the raw primitives.
//!
//! Three atomic classes:
//! * **sync** ([`MAtomicU64::new`] etc.) — full instrumentation: every
//!   op is a yield point, `Relaxed` *reading* ops (loads and RMWs) are
//!   reported as violations (the dynamic analog of the analyzer's D5
//!   rule), and acquire/release edges join vector clocks. A `Relaxed`
//!   store is not flagged heuristically: its hazard — delayed
//!   publication — is executed operationally by the weak-memory mode
//!   ([`crate::weak`]), which buffers it in the writer's store buffer
//!   so readers observe a concrete stale value; the static D5 rule
//!   still bans the ordering at the source level.
//! * **observed counter** ([`MAtomicU64::new_counter_observed`]) — ops
//!   are yield points (so the explorer interleaves around them) but
//!   `Relaxed` is permitted and no happens-before edges are recorded:
//!   for statistics read by reporting code, e.g. the packed cache
//!   hit/miss pair.
//! * **counter** ([`MAtomicU64::new_counter`]) — pure pass-through:
//!   monotonic bean-counters that are incremented inside uninstrumented
//!   critical sections (node/fault internals) and must not introduce
//!   yield points there.

use crate::sched::{self, Bail, Op, VClock};
use crate::weak::RmwOp;
use std::sync::atomic::Ordering as StdOrdering;
use std::sync::Arc;
use std::sync::Mutex as StdMutex;

/// Memory orderings (re-exported from `std` so facade call sites keep
/// their `Ordering::…` spelling).
pub use std::sync::atomic::Ordering;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sync,
    Counter,
    CounterObserved,
}

/// Report a violation and abort the current schedule.
fn violation(sess: &Arc<sched::Session>, msg: String) -> ! {
    sess.fail(msg);
    std::panic::panic_any(Bail)
}

/// Session context of the calling thread if it is a scheduled virtual
/// thread (controller and foreign threads pass through).
fn vthread() -> Option<(Arc<sched::Session>, usize)> {
    match sched::current() {
        Some(ctx) => ctx.tid.map(|tid| (ctx.sess, tid)),
        None => None,
    }
}

/// Declare a *read* of coarse shared state the instrumentation cannot
/// see (raw-locked maps, pass-through counters feeding control flow)
/// under the caller-chosen footprint key. Not a yield point; no-op off
/// a scheduled virtual thread. Keys live in their own namespace — they
/// can never collide with sync-object tokens — and exist purely so the
/// partial-order reduction knows two turns touching the same invisible
/// state do not commute. The non-modelcheck facades ship empty shims.
pub fn footprint_read(key: u64) {
    if let Some((sess, _tid)) = vthread() {
        sess.declare_access(sched::FOOT_BIT | key, false);
    }
}

/// Declare a *write* of coarse shared state; see [`footprint_read`].
pub fn footprint_write(key: u64) {
    if let Some((sess, _tid)) = vthread() {
        sess.declare_access(sched::FOOT_BIT | key, true);
    }
}

pub use crate::msg::MsgFate;

/// The instrumented network facade (`MNet`), alongside `MAtomic*` /
/// `MMutex`: in message-scheduler mode every `Cluster::rpc` send asks
/// the explorer for the message's fate. The facade is stateless —
/// message identity is positional, the k-th send of a schedule meets
/// the k-th fate decision — which is exactly what makes `m<code>` trace
/// steps replayable.
pub struct MNet;

impl MNet {
    /// See [`msg_fate`].
    pub fn fate() -> Option<MsgFate> {
        msg_fate()
    }
}

/// Fate of the message the calling thread is about to send: `Some` only
/// on a scheduled virtual thread of a session whose
/// [`crate::Config::msg_budget`] is non-zero (a yield point and, while
/// fault budget remains, an explored decision). `None` everywhere else
/// — controller, foreign threads, message mode off — in which case the
/// caller keeps its production behaviour (the seed-hashed fault
/// fabric). The non-modelcheck facades ship a constant-`None` shim, so
/// the branch compiles away in release builds.
pub fn msg_fate() -> Option<MsgFate> {
    let (sess, tid) = vthread()?;
    sess.msg_fate(tid)
}

fn is_acquire(ord: StdOrdering) -> bool {
    matches!(
        ord,
        StdOrdering::Acquire | StdOrdering::AcqRel | StdOrdering::SeqCst
    )
}

fn is_release(ord: StdOrdering) -> bool {
    matches!(
        ord,
        StdOrdering::Release | StdOrdering::AcqRel | StdOrdering::SeqCst
    )
}

/// Per-atomic happens-before metadata, lazily re-initialised whenever a
/// new session epoch first touches the instance.
struct AtomicMeta {
    epoch: u64,
    /// Session identity token (weak mode keys the session-side word
    /// cell by it); allocated on first instrumented touch.
    token: Option<usize>,
    /// Clock released into the atomic by release-or-stronger writes
    /// (default mode; weak mode keeps this in the session cell).
    release: Option<VClock>,
    /// The last write event: thread and its clock at the write.
    last_write: Option<(usize, VClock)>,
}

impl AtomicMeta {
    const fn new() -> Self {
        AtomicMeta {
            epoch: 0,
            token: None,
            release: None,
            last_write: None,
        }
    }
}

fn meta_lock(m: &StdMutex<AtomicMeta>, epoch: u64) -> std::sync::MutexGuard<'_, AtomicMeta> {
    let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
    if g.epoch != epoch {
        *g = AtomicMeta::new();
        g.epoch = epoch;
    }
    g
}

/// The atomic's identity token within `sess`, allocated on first touch
/// (deterministic: touches happen in schedule order).
fn meta_token(meta: &StdMutex<AtomicMeta>, sess: &Arc<sched::Session>) -> usize {
    let mut g = meta_lock(meta, sess.epoch);
    if g.token.is_none() {
        g.token = Some(sess.alloc_token());
    }
    g.token.expect("token just ensured")
}

/// Value transport between typed atomics and the session-side word
/// cells of the weak mode.
trait Word: Copy {
    fn to_word(self) -> u64;
    fn from_word(w: u64) -> Self;
}

impl Word for u64 {
    fn to_word(self) -> u64 {
        self
    }
    fn from_word(w: u64) -> Self {
        w
    }
}

impl Word for usize {
    fn to_word(self) -> u64 {
        self as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize
    }
}

impl Word for bool {
    fn to_word(self) -> u64 {
        u64::from(self)
    }
    fn from_word(w: u64) -> Self {
        w != 0
    }
}

impl<T> Word for *mut T {
    fn to_word(self) -> u64 {
        self as usize as u64
    }
    fn from_word(w: u64) -> Self {
        w as usize as *mut T
    }
}

/// Outcome of an instrumented load.
enum ReadPath {
    /// Read the real atomic (default mode / pass-through).
    Through,
    /// Weak mode: use this session-side word instead.
    Value(u64),
}

/// Outcome of an instrumented read-modify-write.
enum RmwOut {
    /// Perform the real RMW (default mode / pass-through).
    Through,
    /// Weak mode: the op was performed against the session cell; the
    /// caller mirrors `store` (when present) into the real atomic.
    Weak { prev: u64, store: Option<u64> },
}

/// Default-mode (sequential value semantics) happens-before
/// bookkeeping and heuristics for one access by a virtual thread.
/// `writes` says whether the op stores a value; `reads` whether it
/// observes one.
#[allow(clippy::too_many_arguments)]
fn seq_access(
    sess: &Arc<sched::Session>,
    tid: usize,
    label: &str,
    meta: &StdMutex<AtomicMeta>,
    ord: StdOrdering,
    reads: bool,
    writes: bool,
    op_name: &str,
) {
    let clock = sess.clock_of(tid);
    let mut g = meta_lock(meta, sess.epoch);
    if ord == StdOrdering::Relaxed && reads {
        // Reading ops only: a relaxed *store*'s hazard is delayed
        // publication, which the weak mode executes operationally
        // (store buffers) instead of flagging heuristically — that is
        // what lets `--weak` find counterexamples this mode provably
        // misses. The static D5 rule still bans the ordering at the
        // source level.
        let msg = format!(
            "relaxed {op_name} on sync atomic {label}: unordered access could observe/publish a stale value (use Acquire/Release or a counter constructor)"
        );
        drop(g);
        violation(sess, msg);
    }
    if reads {
        // Pure loads only: an RMW always reads the latest value in the
        // modification order, even on real hardware.
        if let Some((wtid, wclock)) = g.last_write.as_ref().filter(|_| !writes) {
            if *wtid != tid && !wclock.event_before(*wtid, &clock) && !is_acquire(ord) {
                let msg = format!(
                    "stale read of {label}: write by t{wtid} is not ordered before this load"
                );
                drop(g);
                violation(sess, msg);
            }
        }
        if is_acquire(ord) {
            if let Some(rel) = g.release.clone() {
                drop(g);
                sess.join_into(tid, &rel);
                g = meta_lock(meta, sess.epoch);
            }
        }
    }
    if writes {
        let clock = sess.clock_of(tid);
        if is_release(ord) {
            match &mut g.release {
                Some(r) => r.join(&clock),
                None => g.release = Some(clock.clone()),
            }
        }
        g.last_write = Some((tid, clock));
    }
}

/// Instrumented load. `init` reads the real atomic's current word (used
/// to seed the session cell on first weak-mode touch).
fn instrumented_load(
    kind: Kind,
    label: &str,
    meta: &StdMutex<AtomicMeta>,
    ord: StdOrdering,
    init: &dyn Fn() -> u64,
) -> ReadPath {
    let Some(ctx) = sched::current() else {
        return ReadPath::Through;
    };
    let Some(tid) = ctx.tid else {
        // Controller (setup / after-hook): in weak mode the session
        // cell — which excludes unflushed store buffers — is
        // authoritative once a virtual thread has touched the atomic.
        if kind == Kind::Sync && ctx.sess.weak_active() {
            let token = meta_token(meta, &ctx.sess);
            if let Some(v) = ctx.sess.ctrl_cell_value(token) {
                return ReadPath::Value(v);
            }
        }
        return ReadPath::Through;
    };
    let sess = ctx.sess;
    if kind == Kind::Counter {
        return ReadPath::Through;
    }
    sess.yield_op(tid, Op::Step);
    if kind == Kind::CounterObserved {
        // Observed counters take part in modelled protocols (their
        // values are asserted on), so their accesses are dependence
        // edges for the reduction even without happens-before checks.
        let token = meta_token(meta, &sess);
        sess.declare_access(token as u64, false);
        return ReadPath::Through;
    }
    if sess.weak_active() {
        let token = meta_token(meta, &sess);
        return ReadPath::Value(sess.weak_load(tid, token, is_acquire(ord), init()));
    }
    sess.declare_access(meta_token(meta, &sess) as u64, false);
    seq_access(&sess, tid, label, meta, ord, true, false, "load");
    ReadPath::Through
}

/// Instrumented store. Returns whether the caller should write the real
/// atomic (false only for a buffered weak-mode store).
fn instrumented_store(
    kind: Kind,
    label: &str,
    meta: &StdMutex<AtomicMeta>,
    ord: StdOrdering,
    value: u64,
    init: &dyn Fn() -> u64,
) -> bool {
    let Some(ctx) = sched::current() else {
        return true;
    };
    let Some(tid) = ctx.tid else {
        if kind == Kind::Sync && ctx.sess.weak_active() {
            let token = meta_token(meta, &ctx.sess);
            ctx.sess.ctrl_cell_store(token, value);
        }
        return true;
    };
    let sess = ctx.sess;
    if kind == Kind::Counter {
        return true;
    }
    sess.yield_op(tid, Op::Step);
    if kind == Kind::CounterObserved {
        sess.declare_access(meta_token(meta, &sess) as u64, true);
        return true;
    }
    if sess.weak_active() {
        // The weak path declares for itself: a buffered store is not a
        // visible write (its flush is), a write-through is.
        let token = meta_token(meta, &sess);
        return sess.weak_store(
            tid,
            token,
            is_release(ord),
            ord == StdOrdering::Relaxed,
            value,
            init(),
        );
    }
    sess.declare_access(meta_token(meta, &sess) as u64, true);
    seq_access(&sess, tid, label, meta, ord, false, true, "store");
    true
}

/// Instrumented read-modify-write.
fn instrumented_rmw(
    kind: Kind,
    label: &str,
    meta: &StdMutex<AtomicMeta>,
    ord: StdOrdering,
    op: RmwOp,
    op_name: &str,
    init: &dyn Fn() -> u64,
) -> RmwOut {
    let Some(ctx) = sched::current() else {
        return RmwOut::Through;
    };
    let Some(tid) = ctx.tid else {
        if kind == Kind::Sync && ctx.sess.weak_active() {
            let token = meta_token(meta, &ctx.sess);
            if let Some((prev, store)) = ctx.sess.ctrl_cell_rmw(token, op) {
                return RmwOut::Weak { prev, store };
            }
        }
        return RmwOut::Through;
    };
    let sess = ctx.sess;
    if kind == Kind::Counter {
        return RmwOut::Through;
    }
    sess.yield_op(tid, Op::Step);
    if kind == Kind::CounterObserved {
        sess.declare_access(meta_token(meta, &sess) as u64, true);
        return RmwOut::Through;
    }
    if sess.weak_active() {
        let token = meta_token(meta, &sess);
        let (prev, store) = sess.weak_rmw(tid, token, is_acquire(ord), is_release(ord), op, init());
        return RmwOut::Weak { prev, store };
    }
    sess.declare_access(meta_token(meta, &sess) as u64, true);
    seq_access(&sess, tid, label, meta, ord, true, true, op_name);
    RmwOut::Through
}

macro_rules! int_atomic {
    ($name:ident, $std:ty, $int:ty) => {
        /// Instrumented integer atomic (see module docs for the three
        /// instrumentation classes).
        pub struct $name {
            inner: $std,
            kind: Kind,
            meta: StdMutex<AtomicMeta>,
        }

        impl $name {
            /// A fully instrumented synchronization atomic.
            pub const fn new(v: $int) -> Self {
                Self {
                    inner: <$std>::new(v),
                    kind: Kind::Sync,
                    meta: StdMutex::new(AtomicMeta::new()),
                }
            }

            /// A pass-through statistics counter (never a yield point).
            pub const fn new_counter(v: $int) -> Self {
                Self {
                    inner: <$std>::new(v),
                    kind: Kind::Counter,
                    meta: StdMutex::new(AtomicMeta::new()),
                }
            }

            /// A counter whose reads are part of a modelled protocol:
            /// ops are yield points but `Relaxed` is permitted.
            pub const fn new_counter_observed(v: $int) -> Self {
                Self {
                    inner: <$std>::new(v),
                    kind: Kind::CounterObserved,
                    meta: StdMutex::new(AtomicMeta::new()),
                }
            }

            fn word(&self) -> u64 {
                Word::to_word(self.inner.load(StdOrdering::SeqCst))
            }

            /// Atomic load.
            pub fn load(&self, ord: StdOrdering) -> $int {
                match instrumented_load(self.kind, stringify!($name), &self.meta, ord, &|| {
                    self.word()
                }) {
                    ReadPath::Value(w) => Word::from_word(w),
                    ReadPath::Through => self.inner.load(ord),
                }
            }

            /// Atomic store.
            pub fn store(&self, v: $int, ord: StdOrdering) {
                if instrumented_store(
                    self.kind,
                    stringify!($name),
                    &self.meta,
                    ord,
                    Word::to_word(v),
                    &|| self.word(),
                ) {
                    self.inner.store(v, ord)
                }
            }

            /// Atomic add, returning the previous value.
            pub fn fetch_add(&self, v: $int, ord: StdOrdering) -> $int {
                match instrumented_rmw(
                    self.kind,
                    stringify!($name),
                    &self.meta,
                    ord,
                    RmwOp::Add(Word::to_word(v)),
                    "fetch_add",
                    &|| self.word(),
                ) {
                    RmwOut::Through => self.inner.fetch_add(v, ord),
                    RmwOut::Weak { prev, store } => {
                        if let Some(n) = store {
                            self.inner.store(Word::from_word(n), StdOrdering::SeqCst);
                        }
                        Word::from_word(prev)
                    }
                }
            }

            /// Atomic subtract, returning the previous value.
            pub fn fetch_sub(&self, v: $int, ord: StdOrdering) -> $int {
                match instrumented_rmw(
                    self.kind,
                    stringify!($name),
                    &self.meta,
                    ord,
                    RmwOp::Sub(Word::to_word(v)),
                    "fetch_sub",
                    &|| self.word(),
                ) {
                    RmwOut::Through => self.inner.fetch_sub(v, ord),
                    RmwOut::Weak { prev, store } => {
                        if let Some(n) = store {
                            self.inner.store(Word::from_word(n), StdOrdering::SeqCst);
                        }
                        Word::from_word(prev)
                    }
                }
            }

            /// Atomic compare-exchange.
            pub fn compare_exchange(
                &self,
                current: $int,
                new: $int,
                success: StdOrdering,
                failure: StdOrdering,
            ) -> Result<$int, $int> {
                match instrumented_rmw(
                    self.kind,
                    stringify!($name),
                    &self.meta,
                    success,
                    RmwOp::Cex {
                        expected: Word::to_word(current),
                        new: Word::to_word(new),
                    },
                    "compare_exchange",
                    &|| self.word(),
                ) {
                    RmwOut::Through => self.inner.compare_exchange(current, new, success, failure),
                    RmwOut::Weak { prev, store } => {
                        if let Some(n) = store {
                            self.inner.store(Word::from_word(n), StdOrdering::SeqCst);
                            Ok(Word::from_word(prev))
                        } else {
                            Err(Word::from_word(prev))
                        }
                    }
                }
            }

            /// Mutable access (no concurrency, no instrumentation).
            pub fn get_mut(&mut self) -> &mut $int {
                self.inner.get_mut()
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(
                    f,
                    concat!(stringify!($name), "({:?})"),
                    self.inner.load(StdOrdering::Relaxed)
                )
            }
        }
    };
}

int_atomic!(MAtomicU64, std::sync::atomic::AtomicU64, u64);
int_atomic!(MAtomicUsize, std::sync::atomic::AtomicUsize, usize);

/// Instrumented `AtomicBool` (always the *sync* class — boolean flags
/// are control signals, not counters).
pub struct MAtomicBool {
    inner: std::sync::atomic::AtomicBool,
    meta: StdMutex<AtomicMeta>,
}

impl MAtomicBool {
    /// A fully instrumented boolean flag.
    pub const fn new(v: bool) -> Self {
        MAtomicBool {
            inner: std::sync::atomic::AtomicBool::new(v),
            meta: StdMutex::new(AtomicMeta::new()),
        }
    }

    fn word(&self) -> u64 {
        Word::to_word(self.inner.load(StdOrdering::SeqCst))
    }

    /// Atomic load.
    pub fn load(&self, ord: StdOrdering) -> bool {
        match instrumented_load(Kind::Sync, "MAtomicBool", &self.meta, ord, &|| self.word()) {
            ReadPath::Value(w) => Word::from_word(w),
            ReadPath::Through => self.inner.load(ord),
        }
    }

    /// Atomic store.
    pub fn store(&self, v: bool, ord: StdOrdering) {
        if instrumented_store(
            Kind::Sync,
            "MAtomicBool",
            &self.meta,
            ord,
            Word::to_word(v),
            &|| self.word(),
        ) {
            self.inner.store(v, ord)
        }
    }

    /// Atomic swap.
    pub fn swap(&self, v: bool, ord: StdOrdering) -> bool {
        match instrumented_rmw(
            Kind::Sync,
            "MAtomicBool",
            &self.meta,
            ord,
            RmwOp::Swap(Word::to_word(v)),
            "swap",
            &|| self.word(),
        ) {
            RmwOut::Through => self.inner.swap(v, ord),
            RmwOut::Weak { prev, store } => {
                if let Some(n) = store {
                    self.inner.store(Word::from_word(n), StdOrdering::SeqCst);
                }
                Word::from_word(prev)
            }
        }
    }
}

impl std::fmt::Debug for MAtomicBool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MAtomicBool({:?})",
            self.inner.load(StdOrdering::Relaxed)
        )
    }
}

/// Instrumented `AtomicPtr` (sync class). The pointer is treated as an
/// opaque word; no dereferencing happens here.
pub struct MAtomicPtr<T> {
    inner: std::sync::atomic::AtomicPtr<T>,
    meta: StdMutex<AtomicMeta>,
}

impl<T> MAtomicPtr<T> {
    /// A fully instrumented pointer atomic.
    pub const fn new(p: *mut T) -> Self {
        MAtomicPtr {
            inner: std::sync::atomic::AtomicPtr::new(p),
            meta: StdMutex::new(AtomicMeta::new()),
        }
    }

    fn word(&self) -> u64 {
        Word::to_word(self.inner.load(StdOrdering::SeqCst))
    }

    /// Atomic load.
    pub fn load(&self, ord: StdOrdering) -> *mut T {
        match instrumented_load(Kind::Sync, "MAtomicPtr", &self.meta, ord, &|| self.word()) {
            ReadPath::Value(w) => Word::from_word(w),
            ReadPath::Through => self.inner.load(ord),
        }
    }

    /// Atomic store.
    pub fn store(&self, p: *mut T, ord: StdOrdering) {
        if instrumented_store(
            Kind::Sync,
            "MAtomicPtr",
            &self.meta,
            ord,
            Word::to_word(p),
            &|| self.word(),
        ) {
            self.inner.store(p, ord)
        }
    }
}

impl<T> std::fmt::Debug for MAtomicPtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MAtomicPtr(..)")
    }
}

/// Per-mutex identity within the current session (tokens are allocated
/// lazily on first touch, in deterministic schedule order).
struct MutexMeta {
    epoch: u64,
    token: usize,
}

/// Instrumented mutex with the `parking_lot` calling convention
/// (`lock()` returns the guard directly, `try_lock()` an `Option`).
///
/// Under a session, acquisition is gated by the scheduler — a thread
/// requesting a held mutex is simply not enabled, so the underlying
/// `std` mutex never blocks and scheduler-level deadlock detection sees
/// every cycle. Lock/unlock edges join vector clocks like release/
/// acquire pairs.
pub struct MMutex<T: ?Sized> {
    meta: StdMutex<MutexMeta>,
    inner: StdMutex<T>,
}

impl<T> MMutex<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        MMutex {
            meta: StdMutex::new(MutexMeta { epoch: 0, token: 0 }),
            inner: StdMutex::new(value),
        }
    }
}

impl<T: ?Sized> MMutex<T> {
    fn token(&self, sess: &Arc<sched::Session>) -> usize {
        let mut g = self.meta.lock().unwrap_or_else(|e| e.into_inner());
        if g.epoch != sess.epoch {
            g.epoch = sess.epoch;
            g.token = sess.alloc_token();
        }
        g.token
    }

    fn plain_guard(&self) -> MMutexGuard<'_, T> {
        MMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            rel: None,
        }
    }

    /// Acquire, blocking (scheduler-gated under a session).
    pub fn lock(&self) -> MMutexGuard<'_, T> {
        let Some((sess, tid)) = vthread() else {
            return self.plain_guard();
        };
        let token = self.token(&sess);
        sess.yield_op(tid, Op::Lock(token));
        sess.lock_acquired(tid, token);
        MMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            rel: Some((sess, tid, token)),
        }
    }

    /// Try to acquire without blocking.
    pub fn try_lock(&self) -> Option<MMutexGuard<'_, T>> {
        let Some((sess, tid)) = vthread() else {
            return match self.inner.try_lock() {
                Ok(g) => Some(MMutexGuard {
                    inner: Some(g),
                    rel: None,
                }),
                Err(std::sync::TryLockError::Poisoned(g)) => Some(MMutexGuard {
                    inner: Some(g.into_inner()),
                    rel: None,
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            };
        };
        let token = self.token(&sess);
        sess.yield_op(tid, Op::TryLock(token));
        if !sess.mutex_free(token) {
            // A failed attempt observed the holder state: a read access
            // (a release by the holder would change the outcome).
            sess.declare_access(token as u64, false);
            return None;
        }
        sess.lock_acquired(tid, token);
        Some(MMutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
            rel: Some((sess, tid, token)),
        })
    }

    /// Mutable access (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MMutex(..)")
    }
}

/// Guard returned by [`MMutex::lock`]; announces the release to the
/// scheduler on drop (after the real unlock).
pub struct MMutexGuard<'a, T: ?Sized> {
    inner: Option<std::sync::MutexGuard<'a, T>>,
    rel: Option<(Arc<sched::Session>, usize, usize)>,
}

impl<T: ?Sized> std::ops::Deref for MMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard accessed after drop")
    }
}

impl<T: ?Sized> Drop for MMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.inner = None; // real unlock first
        if let Some((sess, tid, token)) = self.rel.take() {
            sess.lock_released(tid, token);
        }
    }
}

/// Happens-before metadata for one [`MData`] cell.
struct DataMeta {
    epoch: u64,
    /// Session-scoped identity token (allocated lazily per epoch) so
    /// accesses can be declared to the partial-order-reduction event
    /// log.
    token: Option<usize>,
    last_write: Option<(usize, VClock)>,
    /// Last read event per thread (tid, clock).
    reads: Vec<(usize, VClock)>,
}

/// A tracked plain-data cell: unsynchronized concurrent accesses are
/// reported as data races (FastTrack-style vector-clock check). Used to
/// model non-atomic shared state; reads clone the value.
pub struct MData<T> {
    inner: StdMutex<T>,
    meta: StdMutex<DataMeta>,
}

impl<T: Clone> MData<T> {
    /// Wrap `value`.
    pub const fn new(value: T) -> Self {
        MData {
            inner: StdMutex::new(value),
            meta: StdMutex::new(DataMeta {
                epoch: 0,
                token: None,
                last_write: None,
                reads: Vec::new(),
            }),
        }
    }

    fn meta(&self, epoch: u64) -> std::sync::MutexGuard<'_, DataMeta> {
        let mut g = self.meta.lock().unwrap_or_else(|e| e.into_inner());
        if g.epoch != epoch {
            g.epoch = epoch;
            g.token = None;
            g.last_write = None;
            g.reads = Vec::new();
        }
        g
    }

    /// Read the value (a race with an unordered write is a violation).
    pub fn read(&self) -> T {
        if let Some((sess, tid)) = vthread() {
            sess.yield_op(tid, Op::Step);
            let clock = sess.clock_of(tid);
            let mut g = self.meta(sess.epoch);
            let token = *g.token.get_or_insert_with(|| sess.alloc_token());
            sess.declare_access(token as u64, false);
            if let Some((wtid, wclock)) = &g.last_write {
                if *wtid != tid && !wclock.event_before(*wtid, &clock) {
                    let msg = format!("data race: read concurrent with write by t{wtid}");
                    drop(g);
                    violation(&sess, msg);
                }
            }
            g.reads.retain(|(t, _)| *t != tid);
            g.reads.push((tid, clock));
        }
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Overwrite the value (a race with any unordered access is a
    /// violation).
    pub fn write(&self, value: T) {
        if let Some((sess, tid)) = vthread() {
            sess.yield_op(tid, Op::Step);
            let clock = sess.clock_of(tid);
            let mut g = self.meta(sess.epoch);
            let token = *g.token.get_or_insert_with(|| sess.alloc_token());
            sess.declare_access(token as u64, true);
            if let Some((wtid, wclock)) = &g.last_write {
                if *wtid != tid && !wclock.event_before(*wtid, &clock) {
                    let msg = format!("data race: write concurrent with write by t{wtid}");
                    drop(g);
                    violation(&sess, msg);
                }
            }
            if let Some((rtid, rclock)) = g
                .reads
                .iter()
                .find(|(t, c)| *t != tid && !c.event_before(*t, &clock))
            {
                let msg = format!("data race: write concurrent with read by t{rtid}");
                let _ = rclock;
                drop(g);
                violation(&sess, msg);
            }
            g.last_write = Some((tid, clock));
            g.reads.clear();
        }
        *self.inner.lock().unwrap_or_else(|e| e.into_inner()) = value;
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for MData<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("MData(..)")
    }
}

/// `std`/`parking_lot`-compatible names so facade modules can re-export
/// this module wholesale.
pub type AtomicU64 = MAtomicU64;
/// See [`MAtomicUsize`].
pub type AtomicUsize = MAtomicUsize;
/// See [`MAtomicBool`].
pub type AtomicBool = MAtomicBool;
/// See [`MAtomicPtr`].
pub type AtomicPtr<T> = MAtomicPtr<T>;
/// See [`MMutex`].
pub type Mutex<T> = MMutex<T>;
/// See [`MMutexGuard`].
pub type MutexGuard<'a, T> = MMutexGuard<'a, T>;
