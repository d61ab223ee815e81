//! The virtual scheduler: real OS threads under strict turn-taking.
//!
//! Every instrumented operation calls a *yield point* before it runs.
//! The controller waits until each live virtual thread is parked at a
//! yield point (or finished), computes the enabled set, and grants
//! exactly one thread, which performs its operation and runs to its next
//! yield point. Execution is therefore fully serialized: the primitives
//! themselves never contend, and the interleaving is exactly the
//! decision sequence the explorer chose — which is what makes
//! counterexample traces replayable byte-for-byte.
//!
//! Only the choice among *multiple* enabled threads is recorded as a
//! decision; forced moves (one thread enabled) replay identically for
//! free and keep single-threaded stretches such as per-schedule cluster
//! construction from exploding the schedule space.
//!
//! For dynamic partial-order reduction the scheduler additionally keeps
//! an **event log**: every grant (thread turn or flush pseudo-action)
//! opens an [`Event`], and the instrumented primitives running inside
//! that turn declare their shared-state accesses onto it. The explorer
//! analyses the log after each run to find conflicting concurrent
//! events and insert backtrack points; it passes a **sleep set** into
//! the next run, which the scheduler honours by steering the default
//! policy away from sleeping choices, waking entries whose footprint an
//! executed access conflicts with, and pruning the run outright when a
//! sleeping choice becomes the only way forward.

use crate::msg::{MsgFate, MSG_BASE};
use crate::weak::{self, Cell, Pending, RmwOp, FLUSH_BASE};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once};

/// Monotonic session counter: per-instance primitive metadata stamps the
/// session it was initialised under, so an instance surviving from an
/// earlier schedule (or an earlier test) is re-initialised lazily
/// instead of leaking stale holder/clock state into the next run.
static SESSION_EPOCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// What the current OS thread is, from the session's point of view.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub sess: Arc<Session>,
    /// `Some(tid)` on a scheduled virtual thread; `None` on the
    /// controller (model setup / after-hook), whose operations pass
    /// through to the plain primitives without yielding.
    pub tid: Option<usize>,
}

/// The ambient session of the calling thread, if any. Primitives use
/// this to decide between instrumented and pass-through behaviour.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

fn set_current(ctx: Option<Ctx>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

/// Unwind payload used to abort virtual threads once a violation has
/// been recorded: it unwinds the thread's stack (releasing guards) and
/// is swallowed by the thread wrapper.
pub(crate) struct Bail;

/// Install a process-wide panic hook that silences panics on threads
/// currently owned by a model-check session — the harness catches and
/// reports them itself; default behaviour is preserved everywhere else.
fn install_quiet_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if current().is_some() {
                return;
            }
            prev(info);
        }));
    });
}

/// A happens-before vector clock, one component per virtual thread.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(pub(crate) Vec<u32>);

impl VClock {
    fn new(n: usize) -> Self {
        VClock(vec![0; n])
    }
    pub(crate) fn tick(&mut self, tid: usize) {
        self.0[tid] += 1;
    }
    pub(crate) fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &v) in other.0.iter().enumerate() {
            if self.0[i] < v {
                self.0[i] = v;
            }
        }
    }
    /// Does the event that produced `self` (on thread `tid`) happen
    /// before the state `other`?
    pub(crate) fn event_before(&self, tid: usize, other: &VClock) -> bool {
        self.0.get(tid).copied().unwrap_or(0) <= other.0.get(tid).copied().unwrap_or(0)
    }
}

/// The pending operation a parked thread wants to perform next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// Thread start / a plain instrumented step (atomic op, data access).
    Step,
    /// Blocking lock of the mutex with the given token: enabled only
    /// while no other thread holds it.
    Lock(usize),
    /// Non-blocking lock attempt: always enabled (failure is a result).
    TryLock(usize),
}

#[derive(Debug)]
enum TStatus {
    /// Spawned but not yet parked at its first yield point.
    Starting,
    AtYield(Op),
    Running,
    Finished,
}

/// One decision point: several choices were enabled and one was taken.
///
/// Choices `< FLUSH_BASE` grant the thread with that id; in weak-memory
/// mode choices in `FLUSH_BASE..MSG_BASE` flush one buffered store from
/// thread `choice - FLUSH_BASE` (rendered `f<tid>` in traces); in
/// message mode choices `>= MSG_BASE` assign the message fate with code
/// `choice - MSG_BASE` (rendered `m<code>`).
#[derive(Clone, Debug)]
pub struct Decision {
    /// Enabled choices, threads ascending then flush actions ascending.
    pub enabled: Vec<usize>,
    /// The choice taken.
    pub chosen: usize,
    /// The thread that ran immediately before this point (if any).
    pub prev: Option<usize>,
    /// Cumulative preemption count *including* this decision.
    pub cum_preempt: usize,
    /// Number of events executed before this decision; the event a
    /// thread/flush grant here creates has exactly this index, and the
    /// pre-state of event `i` is the last decision with `nevents <= i`.
    pub(crate) nevents: usize,
    /// Indices (into the run's initial sleep set) still asleep when the
    /// decision was taken — the entry sleep set of the child state.
    pub(crate) alive_sleep: Vec<usize>,
}

/// One shared-state access of an executed event: `(location, is_write)`.
/// Locations are sync tokens widened to `u64`; coarse footprint keys
/// (state invisible to the instrumentation, declared via
/// [`crate::sync::footprint_write`]) and the message-fate channel use
/// the two top bits as disjoint namespaces.
pub(crate) type Access = (u64, bool);

/// The single pseudo-location all message-fate assignments conflict on:
/// fates are positional (the k-th decided send gets the k-th fate), so
/// two racing sends may not be commuted by the reduction.
pub(crate) const NET_TOKEN: u64 = 1 << 62;

/// Namespace bit for coarse footprint keys (see [`Access`]).
pub(crate) const FOOT_BIT: u64 = 1 << 63;

/// One executed scheduler grant: a thread turn running to its next
/// yield point, or one flush pseudo-action. `unit` is the choice code
/// (`tid` or `FLUSH_BASE + tid`); `accesses` are declared by the
/// instrumented primitives while the turn runs — execution is fully
/// serialized, so the open event is always the last one in the log.
#[derive(Clone, Debug)]
pub(crate) struct Event {
    pub unit: usize,
    pub accesses: Vec<Access>,
}

/// A sleep-set entry the explorer passes into a run: taking `choice` at
/// the branch state was already covered by an explored sibling, so the
/// run must not execute it until some access conflicting with the
/// sibling's `footprint` wakes it (empty footprints never wake — the
/// sibling's event commuted with everything).
#[derive(Clone, Debug)]
pub(crate) struct SleepEntry {
    pub choice: usize,
    pub footprint: Vec<Access>,
}

/// Do an access and a footprint conflict (same location, at least one
/// side writing)?
fn conflicts(token: u64, write: bool, footprint: &[Access]) -> bool {
    footprint.iter().any(|&(t, w)| t == token && (w || write))
}

/// Was choosing `chosen` at a point where `prev` was still enabled a
/// preemption (i.e. an involuntary context switch)? Flush actions and
/// message fates are environment steps, never preemptions.
pub fn preempt_delta(prev: Option<usize>, enabled: &[usize], chosen: usize) -> usize {
    if chosen >= FLUSH_BASE {
        return 0;
    }
    match prev {
        Some(p) if p != chosen && enabled.contains(&p) => 1,
        _ => 0,
    }
}

struct State {
    threads: Vec<TStatus>,
    /// Set once a violation is recorded: parked threads wake and unwind.
    bail: bool,
    failure: Option<String>,
    /// Forced decision prefix (replay / DFS branch under test).
    prefix: Vec<usize>,
    cursor: usize,
    decisions: Vec<Decision>,
    last_granted: Option<usize>,
    /// Mutex token → holding thread.
    holders: BTreeMap<usize, usize>,
    /// Mutex token → clock released into the mutex at last unlock.
    mutex_clocks: BTreeMap<usize, VClock>,
    clocks: Vec<VClock>,
    next_token: usize,
    steps: u64,
    step_limit: u64,
    /// Message faults injected so far this schedule (message mode).
    msg_faults_used: usize,
    /// Per-thread store buffers (weak mode; always empty otherwise).
    buffers: Vec<VecDeque<Pending>>,
    /// Session-side atomic state: happens-before metadata plus — in
    /// weak mode — the authoritative globally-visible value.
    cells: BTreeMap<usize, Cell>,
    /// Event log for partial-order reduction: one entry per grant.
    events: Vec<Event>,
    /// Sleep set handed in by the explorer (empty for replay).
    initial_sleep: Vec<SleepEntry>,
    /// Liveness of each `initial_sleep` entry; entries wake (die) when a
    /// conflicting access executes, and only shrink within one run.
    sleep_alive: Vec<bool>,
    /// Set when the run was abandoned because a sleeping choice became
    /// the only way forward — the continuation is Mazurkiewicz-
    /// equivalent to an already-explored schedule.
    pruned: bool,
}

impl State {
    /// Sleep sets apply only past the forced branch prefix: the entries
    /// describe siblings of the *last* forced decision.
    fn sleep_active(&self) -> bool {
        self.cursor >= self.prefix.len() && self.sleep_alive.iter().any(|&a| a)
    }

    /// Is `choice` a still-sleeping entry?
    fn sleeping(&self, choice: usize) -> bool {
        self.sleep_active()
            && self
                .initial_sleep
                .iter()
                .zip(&self.sleep_alive)
                .any(|(e, &alive)| alive && e.choice == choice)
    }

    /// Record an access of the currently open event; wake conflicting
    /// sleep entries and (for threads) append to the event footprint.
    fn declare(&mut self, token: u64, write: bool) {
        if self.cursor >= self.prefix.len() {
            for (i, e) in self.initial_sleep.iter().enumerate() {
                if self.sleep_alive[i] && conflicts(token, write, &e.footprint) {
                    self.sleep_alive[i] = false;
                }
            }
        }
        if let Some(ev) = self.events.last_mut() {
            ev.accesses.push((token, write));
        }
    }
}

/// One schedule execution: owns the turn-taking state shared by the
/// controller and the virtual threads.
pub(crate) struct Session {
    pub(crate) epoch: u64,
    /// Store-buffer (weak-memory) mode for this schedule execution.
    weak: bool,
    /// Message-fate fault budget; `0` disables message-scheduler mode
    /// entirely (sends never yield, never decide).
    msg_budget: usize,
    state: Mutex<State>,
    cv: Condvar,
}

/// Result of driving one schedule to completion.
pub(crate) struct ExecOutcome {
    pub failure: Option<String>,
    pub decisions: Vec<Decision>,
    /// The executed event log (for the explorer's race analysis).
    pub events: Vec<Event>,
    /// Number of virtual threads the model spawned (event units are
    /// threads `0..nthreads` plus flush units `FLUSH_BASE + tid`).
    pub nthreads: usize,
    /// Flush actions still enabled when the run ended: per thread with a
    /// non-empty store buffer, the flush unit and the buffered tokens in
    /// FIFO order. A run legally terminates with unflushed stores (that
    /// IS the stale-publication execution), so these pending flushes
    /// never become events — the explorer analyses them as *phantom*
    /// write events, or their conflicts would never insert the
    /// flush-early backtrack points.
    pub pending_flush: Vec<(usize, Vec<u64>)>,
    /// True when the run was abandoned by the sleep set: no failure, no
    /// after-hook — the continuation was already covered.
    pub pruned: bool,
}

fn lk(m: &Mutex<State>) -> MutexGuard<'_, State> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Session {
    fn new(
        nthreads: usize,
        prefix: Vec<usize>,
        weak: bool,
        msg_budget: usize,
        initial_sleep: Vec<SleepEntry>,
    ) -> Arc<Self> {
        let sleep_alive = vec![true; initial_sleep.len()];
        Arc::new(Session {
            epoch: SESSION_EPOCH.fetch_add(1, Ordering::Relaxed),
            weak,
            msg_budget,
            state: Mutex::new(State {
                threads: (0..nthreads).map(|_| TStatus::Starting).collect(),
                bail: false,
                failure: None,
                prefix,
                cursor: 0,
                decisions: Vec::new(),
                last_granted: None,
                holders: BTreeMap::new(),
                mutex_clocks: BTreeMap::new(),
                clocks: (0..nthreads).map(|_| VClock::new(nthreads)).collect(),
                next_token: 0,
                steps: 0,
                step_limit: 1_000_000,
                msg_faults_used: 0,
                buffers: (0..nthreads).map(|_| VecDeque::new()).collect(),
                cells: BTreeMap::new(),
                events: Vec::new(),
                initial_sleep,
                sleep_alive,
                pruned: false,
            }),
            cv: Condvar::new(),
        })
    }

    /// Record a shared-state access of the running turn's event. Safe to
    /// call from the granted thread only (execution is serialized, so
    /// the open event is always the last one in the log).
    pub(crate) fn declare_access(&self, token: u64, write: bool) {
        lk(&self.state).declare(token, write);
    }

    /// Is this session running under the store-buffer semantics?
    pub(crate) fn weak_active(&self) -> bool {
        self.weak
    }

    /// Message-scheduler mode: the explorer assigns a fate to the
    /// message virtual thread `tid` is about to send. Returns `None`
    /// when the session has no fault budget (message mode off) —
    /// *without* yielding, so thread-only models keep their schedule
    /// spaces bit-for-bit. With a budget, every send is a yield point;
    /// while fault budget remains the fate is a recorded seven-way
    /// decision (`m<code>` in traces), and once the budget is spent
    /// each remaining send is a forced, unrecorded `Deliver` — the same
    /// compaction rule as single-choice thread grants.
    pub(crate) fn msg_fate(&self, tid: usize) -> Option<MsgFate> {
        if self.msg_budget == 0 {
            return None;
        }
        self.yield_op(tid, Op::Step);
        let mut st = lk(&self.state);
        // Fates are assigned positionally (the k-th decided send gets
        // the k-th trace entry), so every decided send is a write on one
        // shared pseudo-location: the reduction may never commute two
        // racing senders past each other.
        st.declare(NET_TOKEN, true);
        let enabled: Vec<usize> = if st.msg_faults_used < self.msg_budget {
            MsgFate::ALL.iter().map(|f| MSG_BASE + f.code()).collect()
        } else {
            vec![MSG_BASE]
        };
        let chosen = if enabled.len() == 1 {
            enabled[0]
        } else {
            // Fate decisions are data nondeterminism: never slept, never
            // steered, so `choose` cannot prune here.
            Self::choose(&mut st, &enabled).expect("fate decisions are never slept")
        };
        let fate = MsgFate::from_code(chosen - MSG_BASE).unwrap_or(MsgFate::Deliver);
        if fate.is_fault() {
            st.msg_faults_used += 1;
        }
        Some(fate)
    }

    /// Allocate a fresh identity token for a sync object (mutex).
    pub(crate) fn alloc_token(&self) -> usize {
        let mut st = lk(&self.state);
        let t = st.next_token;
        st.next_token += 1;
        t
    }

    /// Record a violation and make every other thread unwind. Called by
    /// the running thread; the caller then bails itself.
    pub(crate) fn fail(&self, msg: String) {
        let mut st = lk(&self.state);
        if st.failure.is_none() {
            st.failure = Some(msg);
        }
        st.bail = true;
        self.cv.notify_all();
    }

    /// Park the calling virtual thread at a yield point until granted.
    /// Returns normally once the thread owns the turn; unwinds with
    /// [`Bail`] if the schedule was aborted.
    pub(crate) fn yield_op(&self, tid: usize, op: Op) {
        let mut st = lk(&self.state);
        if st.bail {
            drop(st);
            std::panic::panic_any(Bail);
        }
        st.threads[tid] = TStatus::AtYield(op);
        self.cv.notify_all();
        loop {
            if st.bail {
                drop(st);
                std::panic::panic_any(Bail);
            }
            if matches!(st.threads[tid], TStatus::Running) {
                break;
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.clocks[tid].tick(tid);
        st.steps += 1;
        if st.steps > st.step_limit {
            st.failure = Some(format!(
                "step limit {} exceeded: unbounded loop under this schedule?",
                st.step_limit
            ));
            st.bail = true;
            self.cv.notify_all();
            drop(st);
            std::panic::panic_any(Bail);
        }
    }

    /// The granted thread acquired mutex `token`: record the holder and
    /// join the clock the last unlock released into the mutex. Acquires
    /// of the same mutex are mutually dependent — a write access.
    pub(crate) fn lock_acquired(&self, tid: usize, token: usize) {
        let mut st = lk(&self.state);
        st.declare(token as u64, true);
        st.holders.insert(token, tid);
        if let Some(c) = st.mutex_clocks.get(&token).cloned() {
            st.clocks[tid].join(&c);
        }
    }

    /// Is `token` free right now? (For `try_lock` semantics.)
    pub(crate) fn mutex_free(&self, token: usize) -> bool {
        !lk(&self.state).holders.contains_key(&token)
    }

    /// The holding thread released mutex `token`: store its clock into
    /// the mutex and wake the controller to recompute enabledness.
    pub(crate) fn lock_released(&self, tid: usize, token: usize) {
        let mut st = lk(&self.state);
        // The release is not a yield point, so it charges the releasing
        // thread's still-open turn: a release enables blocked lockers,
        // which is a dependence the reduction must see.
        st.declare(token as u64, true);
        st.holders.remove(&token);
        let clock = st.clocks[tid].clone();
        match st.mutex_clocks.get_mut(&token) {
            Some(c) => c.join(&clock),
            None => {
                st.mutex_clocks.insert(token, clock);
            }
        }
        self.cv.notify_all();
    }

    /// Snapshot of the calling thread's clock (already ticked for the
    /// current operation).
    pub(crate) fn clock_of(&self, tid: usize) -> VClock {
        lk(&self.state).clocks[tid].clone()
    }

    /// Join `other` into thread `tid`'s clock (acquire edge).
    pub(crate) fn join_into(&self, tid: usize, other: &VClock) {
        lk(&self.state).clocks[tid].join(other);
    }

    /// Weak-mode load by virtual thread `tid`: the thread's own newest
    /// buffered store if any (TSO store forwarding), otherwise the
    /// globally visible cell value — which never contains other
    /// threads' unflushed stores. Acquire loads join the release clock
    /// deposited by write-through stores.
    pub(crate) fn weak_load(&self, tid: usize, token: usize, acquire: bool, init: u64) -> u64 {
        let mut st = lk(&self.state);
        let st = &mut *st;
        st.declare(token as u64, false);
        let cell = st
            .cells
            .entry(token)
            .or_insert_with(|| Cell::with_value(init));
        let global = cell.value;
        let rel = cell.release.clone();
        let v = weak::own_buffered(&st.buffers, tid, token).unwrap_or(global);
        if acquire {
            if let Some(r) = rel {
                st.clocks[tid].join(&r);
            }
        }
        v
    }

    /// Weak-mode store by virtual thread `tid`. A `Relaxed` store is
    /// buffered (globally invisible until a flush point) and the caller
    /// must NOT write the real atomic; a release-or-stronger store
    /// drains the thread's own buffer and writes through — the caller
    /// mirrors it into the real atomic. Returns whether to write
    /// through.
    pub(crate) fn weak_store(
        &self,
        tid: usize,
        token: usize,
        release: bool,
        relaxed: bool,
        value: u64,
        init: u64,
    ) -> bool {
        let mut st = lk(&self.state);
        let st = &mut *st;
        let clock = st.clocks[tid].clone();
        st.cells
            .entry(token)
            .or_insert_with(|| Cell::with_value(init));
        if relaxed {
            // A buffered store is globally invisible: the *flush* is the
            // write event, so the buffering turn declares nothing.
            st.buffers[tid].push_back(Pending {
                token,
                value,
                clock,
            });
            return false;
        }
        for tok in weak::drain(&mut st.cells, &mut st.buffers, tid) {
            st.declare(tok as u64, true);
        }
        st.declare(token as u64, true);
        let cell = st.cells.entry(token).or_default();
        cell.value = value;
        cell.last_write = Some((tid, clock.clone()));
        if release {
            match &mut cell.release {
                Some(r) => r.join(&clock),
                None => cell.release = Some(clock),
            }
        }
        true
    }

    /// Weak-mode read-modify-write: RMWs always flush (drain own buffer)
    /// and operate on the latest globally visible value. Returns the
    /// previous value and, when the op wrote, the new value the caller
    /// mirrors into the real atomic.
    pub(crate) fn weak_rmw(
        &self,
        tid: usize,
        token: usize,
        acquire: bool,
        release: bool,
        op: RmwOp,
        init: u64,
    ) -> (u64, Option<u64>) {
        let mut st = lk(&self.state);
        let st = &mut *st;
        let clock = st.clocks[tid].clone();
        for tok in weak::drain(&mut st.cells, &mut st.buffers, tid) {
            st.declare(tok as u64, true);
        }
        st.declare(token as u64, true);
        let cell = st
            .cells
            .entry(token)
            .or_insert_with(|| Cell::with_value(init));
        let (prev, new) = weak::apply_rmw(cell.value, op);
        let rel = cell.release.clone();
        if let Some(n) = new {
            cell.value = n;
            cell.last_write = Some((tid, clock.clone()));
            if release {
                match &mut cell.release {
                    Some(r) => r.join(&clock),
                    None => cell.release = Some(clock),
                }
            }
        }
        if acquire {
            if let Some(r) = rel {
                st.clocks[tid].join(&r);
            }
        }
        (prev, new)
    }

    /// Controller read of a weak-mode cell: `Some` only when a virtual
    /// thread has touched the atomic this session, in which case the
    /// session-side value (excluding unflushed buffers) is
    /// authoritative — this is how post-join assertions observe stale
    /// publications.
    pub(crate) fn ctrl_cell_value(&self, token: usize) -> Option<u64> {
        lk(&self.state).cells.get(&token).map(|c| c.value)
    }

    /// Controller store: keep an existing cell in sync so later virtual
    /// thread reads observe controller-written values.
    pub(crate) fn ctrl_cell_store(&self, token: usize, value: u64) {
        if let Some(c) = lk(&self.state).cells.get_mut(&token) {
            c.value = value;
        }
    }

    /// Controller read-modify-write against an existing cell. Returns
    /// `None` when the atomic has no cell yet (caller passes through).
    pub(crate) fn ctrl_cell_rmw(&self, token: usize, op: RmwOp) -> Option<(u64, Option<u64>)> {
        let mut st = lk(&self.state);
        let cell = st.cells.get_mut(&token)?;
        let (prev, new) = weak::apply_rmw(cell.value, op);
        if let Some(n) = new {
            cell.value = n;
        }
        Some((prev, new))
    }

    fn mark_finished(&self, tid: usize) {
        let mut st = lk(&self.state);
        st.threads[tid] = TStatus::Finished;
        self.cv.notify_all();
    }

    /// Scheduling loop, run by the controller after spawning the virtual
    /// threads. Returns when every thread finished (or unwound).
    fn drive(&self) {
        let mut st = lk(&self.state);
        loop {
            while st
                .threads
                .iter()
                .any(|t| matches!(t, TStatus::Starting | TStatus::Running))
            {
                st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
            if st.bail {
                // Wake any parked threads so they unwind; wait them out.
                self.cv.notify_all();
                while !st.threads.iter().all(|t| matches!(t, TStatus::Finished)) {
                    self.cv.notify_all();
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                return;
            }
            if st.threads.iter().all(|t| matches!(t, TStatus::Finished)) {
                return;
            }
            let mut enabled: Vec<usize> = st
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, t)| match t {
                    TStatus::AtYield(Op::Lock(tok)) if st.holders.contains_key(tok) => None,
                    TStatus::AtYield(_) => Some(i),
                    _ => None,
                })
                .collect();
            // Weak mode: a non-empty store buffer enables a flush
            // pseudo-action (one store becomes globally visible). The
            // all-Finished return above deliberately precedes this, so
            // a buffer that is never flushed stays invisible to the
            // after-hook — a legal weak execution exhibiting stale
            // publication.
            for (i, b) in st.buffers.iter().enumerate() {
                if !b.is_empty() {
                    enabled.push(FLUSH_BASE + i);
                }
            }
            if enabled.is_empty() {
                let waiting: Vec<String> = st
                    .threads
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| matches!(t, TStatus::AtYield(_)))
                    .map(|(i, _)| format!("t{i}"))
                    .collect();
                st.failure = Some(format!(
                    "deadlock: threads {} all blocked",
                    waiting.join(",")
                ));
                st.bail = true;
                continue;
            }
            let chosen = if enabled.len() == 1 {
                // Forced moves are unrecorded, but a sleeping forced
                // choice still prunes: everything since the branch was
                // independent of it, so the sibling that took it first
                // already covered every continuation from here.
                if st.sleeping(enabled[0]) {
                    st.pruned = true;
                    st.bail = true;
                    continue;
                }
                enabled[0]
            } else {
                match Self::choose(&mut st, &enabled) {
                    Some(c) => c,
                    None => {
                        // Every enabled choice is asleep: the whole
                        // continuation is equivalent to explored ones.
                        st.pruned = true;
                        st.bail = true;
                        continue;
                    }
                }
            };
            st.events.push(Event {
                unit: chosen,
                accesses: Vec::new(),
            });
            if chosen >= FLUSH_BASE {
                // Memory-system step: apply the oldest buffered store of
                // that thread; no thread is granted and `last_granted`
                // is untouched (a flush is not a context switch). The
                // flush is the moment the store becomes visible — it is
                // the write event on the flushed location.
                let stm = &mut *st;
                if let Some(tok) =
                    weak::flush_one(&mut stm.cells, &mut stm.buffers, chosen - FLUSH_BASE)
                {
                    stm.declare(tok as u64, true);
                }
                continue;
            }
            st.threads[chosen] = TStatus::Running;
            st.last_granted = Some(chosen);
            self.cv.notify_all();
        }
    }

    /// Pick among several enabled threads: forced prefix first, then the
    /// deterministic continue-last policy — steered away from sleeping
    /// choices. Records the
    /// decision. Returns `None` (prune) when every enabled choice is
    /// asleep; with an empty sleep set the policy is byte-identical to
    /// the pre-reduction scheduler.
    fn choose(st: &mut State, enabled: &[usize]) -> Option<usize> {
        let forced = if st.cursor < st.prefix.len() {
            let c = st.prefix[st.cursor];
            st.cursor += 1;
            enabled.contains(&c).then_some(c)
        } else {
            None
        };
        let chosen = match forced {
            Some(c) => c,
            None => {
                // Fate decisions (all choices >= MSG_BASE) are data
                // nondeterminism, never slept; thread/flush decisions
                // skip sleeping choices.
                let fate = enabled[0] >= MSG_BASE;
                let awake: Vec<usize> = if fate {
                    enabled.to_vec()
                } else {
                    enabled
                        .iter()
                        .copied()
                        .filter(|&c| !st.sleeping(c))
                        .collect()
                };
                if awake.is_empty() {
                    return None;
                }
                match st.last_granted {
                    Some(l) if awake.contains(&l) => l,
                    _ => awake[0],
                }
            }
        };
        let prev = st.last_granted;
        let cum =
            st.decisions.last().map_or(0, |d| d.cum_preempt) + preempt_delta(prev, enabled, chosen);
        let nevents = st.events.len();
        let alive_sleep: Vec<usize> = st
            .sleep_alive
            .iter()
            .enumerate()
            .filter_map(|(i, &a)| a.then_some(i))
            .collect();
        st.decisions.push(Decision {
            enabled: enabled.to_vec(),
            chosen,
            prev,
            cum_preempt: cum,
            nevents,
            alive_sleep,
        });
        Some(chosen)
    }
}

/// Model environment handed to the setup closure: collects the virtual
/// threads and the post-join assertion hook for one schedule execution.
#[derive(Default)]
pub struct Env {
    threads: Vec<Box<dyn FnOnce() + Send>>,
    after: Vec<Box<dyn FnOnce()>>,
}

impl Env {
    /// Register a virtual thread. Threads are numbered `t0, t1, …` in
    /// spawn order; that numbering is what traces refer to.
    pub fn spawn(&mut self, f: impl FnOnce() + Send + 'static) {
        self.threads.push(Box::new(f));
    }

    /// Register a closure run by the controller after every virtual
    /// thread finished — the place for post-state assertions. Hooks
    /// chain in registration order and the first panic wins, so a
    /// harness (e.g. the `--lincheck` wrapper) can append its own check
    /// after the model's.
    pub fn after(&mut self, f: impl FnOnce() + 'static) {
        self.after.push(Box::new(f));
    }
}

fn panic_message(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Execute one schedule: run `setup` on the controller (pass-through
/// ops), spawn its threads under the scheduler with the given forced
/// decision `prefix`, drive to completion, then run the after-hook.
/// `initial_sleep` is the explorer's sleep set for this branch (empty
/// on replay — reduction never touches that path).
pub(crate) fn run_one(
    prefix: Vec<usize>,
    weak: bool,
    msg_budget: usize,
    initial_sleep: Vec<SleepEntry>,
    setup: &dyn Fn(&mut Env),
) -> ExecOutcome {
    install_quiet_hook();
    // Build the model under a provisional session so that primitives
    // created during setup bind to this session's epoch.
    let mut env = Env::default();
    let sess = Session::new(0, prefix, weak, msg_budget, initial_sleep);
    set_current(Some(Ctx {
        sess: Arc::clone(&sess),
        tid: None,
    }));
    let setup_res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| setup(&mut env)));
    if let Err(e) = setup_res {
        set_current(None);
        return ExecOutcome {
            failure: Some(format!("model setup panicked: {}", panic_message(e))),
            decisions: Vec::new(),
            events: Vec::new(),
            nthreads: 0,
            pruned: false,
            pending_flush: Vec::new(),
        };
    }
    let n = env.threads.len();
    {
        let mut st = lk(&sess.state);
        st.threads = (0..n).map(|_| TStatus::Starting).collect();
        st.clocks = (0..n).map(|_| VClock::new(n)).collect();
        st.buffers = (0..n).map(|_| VecDeque::new()).collect();
    }
    let handles: Vec<_> = env
        .threads
        .into_iter()
        .enumerate()
        .map(|(tid, body)| {
            let sess = Arc::clone(&sess);
            std::thread::spawn(move || {
                set_current(Some(Ctx {
                    sess: Arc::clone(&sess),
                    tid: Some(tid),
                }));
                // Park immediately so the controller sees every thread
                // before granting the first turn.
                let first = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    sess.yield_op(tid, Op::Step);
                }));
                let res = match first {
                    Ok(()) => std::panic::catch_unwind(std::panic::AssertUnwindSafe(body)),
                    Err(e) => Err(e),
                };
                if let Err(e) = res {
                    if !e.is::<Bail>() {
                        sess.fail(format!("t{tid} panicked: {}", panic_message(e)));
                    }
                }
                sess.mark_finished(tid);
                set_current(None);
            })
        })
        .collect();
    sess.drive();
    for h in handles {
        let _ = h.join();
    }
    let (mut failure, pruned) = {
        let st = lk(&sess.state);
        (st.failure.clone(), st.pruned)
    };
    // A pruned run was abandoned mid-execution: its state is incomplete
    // by construction, so the after-hook must not judge it (the
    // equivalent completed schedule already ran the hook).
    if failure.is_none() && !pruned {
        for after in env.after {
            if let Err(e) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(after)) {
                failure = Some(format!("post-state check failed: {}", panic_message(e)));
                break;
            }
        }
    }
    set_current(None);
    let (decisions, events, pending_flush) = {
        let mut st = lk(&sess.state);
        let pending: Vec<(usize, Vec<u64>)> = st
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(t, b)| (FLUSH_BASE + t, b.iter().map(|p| p.token as u64).collect()))
            .collect();
        (
            std::mem::take(&mut st.decisions),
            std::mem::take(&mut st.events),
            pending,
        )
    };
    ExecOutcome {
        failure,
        decisions,
        events,
        nthreads: n,
        pruned,
        pending_flush,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vclock_join_and_order() {
        let mut a = VClock::new(2);
        a.tick(0);
        let mut b = VClock::new(2);
        b.tick(1);
        b.join(&a);
        assert!(a.event_before(0, &b));
        assert!(!b.event_before(1, &a));
    }
}
