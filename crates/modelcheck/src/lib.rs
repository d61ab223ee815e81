//! `ech-modelcheck` — a dependency-free, loom-style concurrency model
//! checker for the workspace's lock-free core.
//!
//! A *model* is a closure that builds some shared state and spawns a
//! small, fixed set of virtual threads exercising it through the
//! instrumented primitives in [`sync`] (`MAtomic*`, `MMutex`, `MData`,
//! and — via the `modelcheck` feature of `vendor/arc_swap` — the real
//! `ArcSwap`). The explorer runs the model once per *schedule*,
//! enumerating thread interleavings by depth-first search over bounded
//! preemptions ([`explore`]); every violation — a failed assertion, a
//! vector-clock data race or stale relaxed read, or a scheduler-level
//! deadlock — comes back with a [`Failure::trace`] that [`replay`]
//! re-executes deterministically, byte for byte.
//!
//! Two memory modes, selected by [`Config::weak`]:
//!
//! * **Sequential value semantics** (default). Atomic loads always
//!   observe the latest store (the explorer serializes execution);
//!   ordering misuse is *detected* via the happens-before vector
//!   clocks — a `Relaxed` *reading* op on a sync-class atomic, or an
//!   unordered read of [`sync::MData`], is reported as a violation —
//!   rather than simulated by value branching.
//! * **Store buffers** (`weak: true`, [`weak`] module). Each thread
//!   gets a TSO-style FIFO store buffer: `Relaxed` stores on
//!   sync-class atomics become globally visible only at
//!   scheduler-chosen *flush points* (explored like any other
//!   decision, `f<tid>` in traces) — or never, so a wrongly-`Relaxed`
//!   publication yields a concrete stale-read counterexample that the
//!   default mode provably cannot produce. Release-or-stronger stores
//!   and RMWs write through, so D5-clean code behaves identically in
//!   both modes.
//!
//! A third, orthogonal dimension is the **message-scheduler mode**
//! ([`Config::msg_budget`], [`msg`] module): models built over the real
//! `Cluster` route every `Cluster::rpc` send through
//! [`sync::msg_fate`], and the explorer enumerates per-message fates —
//! deliver, drop (request or response), duplicate, reorder, partition
//! (inbound or outbound) — as first-class decisions (`m<code>` in
//! traces), rationed by a per-schedule fault budget. With the budget at
//! zero (the default) sends never yield and thread-only models keep
//! their schedule spaces bit-for-bit.
//!
//! And bounds that apply throughout: [`Config::max_preemptions`]
//! bounds the involuntary context switches per schedule (the CHESS
//! result: most concurrency bugs need very few),
//! [`Config::msg_budget`] bounds injected message faults the same way,
//! and [`Config::max_schedules`] caps the total; [`Report::exhausted`]
//! says whether the bounded space was fully covered.
//!
//! Traces are versioned (`v3:<mode>:b<bound>:m<budget>:<model>:<steps>`):
//! a counterexample found under one memory mode or fault budget is
//! meaningless — and is rejected, not silently diverging — when
//! replayed under another.

pub mod msg;
mod sched;
pub mod sync;
pub mod weak;

pub use msg::MsgFate;

pub use sched::{preempt_delta, Decision, Env, VClock};

/// Exploration parameters.
#[derive(Clone, Debug)]
pub struct Config {
    /// Maximum involuntary context switches per schedule (a switch away
    /// from a thread that was still enabled).
    pub max_preemptions: usize,
    /// Hard cap on schedules executed before reporting a truncated
    /// (non-exhausted) result.
    pub max_schedules: usize,
    /// Store-buffer (TSO-style) weak-memory semantics: `Relaxed` stores
    /// on sync-class atomics buffer per thread and become visible at
    /// scheduler-chosen flush points (see the [`weak`] module docs).
    pub weak: bool,
    /// Message-fate fault budget per schedule (see the [`msg`] module
    /// docs). `0` (the default) disables message-scheduler mode: sends
    /// never yield and never branch.
    pub msg_budget: usize,
    /// Dynamic partial-order reduction (the default). The explorer
    /// tracks the shared-state accesses of every executed grant, prunes
    /// schedules Mazurkiewicz-equivalent to explored ones via sleep
    /// sets, and inserts backtrack points only where conflicting
    /// concurrent events demand them. `false` restores the brute-force
    /// DFS over every enabled alternative (`--no-reduce`); both settings
    /// must produce identical verdicts on every model.
    pub reduce: bool,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            max_preemptions: 2,
            max_schedules: 20_000,
            weak: false,
            msg_budget: 0,
            reduce: true,
        }
    }
}

/// A violation found by the explorer.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Human-readable description of what went wrong.
    pub message: String,
    /// Replayable counterexample trace
    /// (`v3:<mode>:b<bound>:m<budget>:<model>:t…/f…/m…`).
    pub trace: String,
}

/// Outcome of exploring one model.
#[derive(Clone, Debug)]
pub struct Report {
    /// Model name (also embedded in traces).
    pub model: String,
    /// Schedules executed (including partially executed pruned runs).
    pub schedules: usize,
    /// Runs abandoned mid-execution by the sleep set: the continuation
    /// was Mazurkiewicz-equivalent to an already-explored schedule.
    /// Always `0` without reduction.
    pub blocked: usize,
    /// True when the whole bounded-preemption space was covered without
    /// hitting `max_schedules`.
    pub exhausted: bool,
    /// The first violation found, if any.
    pub failure: Option<Failure>,
}

/// A parsed `v3:` counterexample trace: the memory mode, preemption
/// bound, and message fault budget it was recorded under travel with
/// the decision prefix, so a replay cannot silently run under
/// different semantics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsedTrace {
    /// Model name.
    pub model: String,
    /// Recorded memory mode (`weak` ↔ store buffers, `sc` otherwise).
    pub weak: bool,
    /// Recorded preemption bound.
    pub bound: usize,
    /// Recorded message fault budget (`0` = thread-only exploration).
    pub msg_budget: usize,
    /// Forced decision prefix (thread grants, flush actions, and
    /// message fates).
    pub prefix: Vec<usize>,
}

fn render_step(choice: usize) -> String {
    if choice >= msg::MSG_BASE {
        format!("m{}", choice - msg::MSG_BASE)
    } else if choice >= weak::FLUSH_BASE {
        format!("f{}", choice - weak::FLUSH_BASE)
    } else {
        format!("t{choice}")
    }
}

/// Render a decision sequence as a replayable trace string.
fn render_trace(model: &str, cfg: &Config, decisions: &[Decision]) -> String {
    let mode = if cfg.weak { "weak" } else { "sc" };
    let steps: Vec<String> = decisions.iter().map(|d| render_step(d.chosen)).collect();
    let steps = if steps.is_empty() {
        "-".to_string()
    } else {
        steps.join(",")
    };
    format!(
        "v3:{mode}:b{}:m{}:{model}:{steps}",
        cfg.max_preemptions, cfg.msg_budget
    )
}

/// Parse a trace produced by [`explore`]. `v1:` and
/// `v2:` traces (which did not record the memory mode, respectively the
/// message fault budget) are rejected with an explanation instead of
/// silently diverging under the wrong semantics.
pub fn parse_trace(trace: &str) -> Result<ParsedTrace, String> {
    if trace.starts_with("v1:") {
        return Err(
            "v1 trace: it does not record the memory mode or preemption bound, so a replay \
             could silently diverge; re-record the counterexample with this build (v3)"
                .to_string(),
        );
    }
    if trace.starts_with("v2:") {
        return Err(
            "v2 trace: it does not record the message fault budget, so a replay could \
             silently diverge under message-scheduler mode; re-record the counterexample \
             with this build (v3)"
                .to_string(),
        );
    }
    let malformed = || {
        format!(
            "malformed trace {trace:?}: expected \
             v3:<sc|weak>:b<bound>:m<budget>:<model>:<t…/f…/m…|->"
        )
    };
    let rest = trace.strip_prefix("v3:").ok_or_else(malformed)?;
    let mut parts = rest.splitn(5, ':');
    let weak = match parts.next() {
        Some("sc") => false,
        Some("weak") => true,
        _ => return Err(malformed()),
    };
    let bound: usize = parts
        .next()
        .and_then(|b| b.strip_prefix('b'))
        .and_then(|b| b.parse().ok())
        .ok_or_else(malformed)?;
    let msg_budget: usize = parts
        .next()
        .and_then(|m| m.strip_prefix('m'))
        .and_then(|m| m.parse().ok())
        .ok_or_else(malformed)?;
    let model = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(malformed)?;
    let steps = parts.next().ok_or_else(malformed)?;
    let mut prefix = Vec::new();
    if steps != "-" {
        for s in steps.split(',') {
            let choice = if let Some(t) = s.strip_prefix('t') {
                t.parse::<usize>().ok()
            } else if let Some(f) = s.strip_prefix('f') {
                f.parse::<usize>().ok().map(|t| weak::FLUSH_BASE + t)
            } else if let Some(m) = s.strip_prefix('m') {
                m.parse::<usize>()
                    .ok()
                    .filter(|&c| c < msg::MsgFate::COUNT)
                    .map(|c| msg::MSG_BASE + c)
            } else {
                None
            };
            prefix.push(choice.ok_or_else(malformed)?);
        }
    }
    Ok(ParsedTrace {
        model: model.to_string(),
        weak,
        bound,
        msg_budget,
        prefix,
    })
}

/// Exhaustively explore `model` under `cfg` by DFS over schedules with
/// at most `cfg.max_preemptions` preemptions. The `setup` closure runs
/// once per schedule: build fresh state, spawn the virtual threads
/// ([`Env::spawn`]), optionally register a post-join assertion
/// ([`Env::after`]). With `cfg.reduce` (the default) the DFS is
/// dynamically partial-order reduced: only schedules that are *not*
/// Mazurkiewicz-equivalent to an explored one are executed.
pub fn explore(model: &str, cfg: &Config, setup: impl Fn(&mut Env)) -> Report {
    if cfg.reduce {
        explore_reduced(model, cfg, &setup)
    } else {
        explore_full(model, cfg, &setup)
    }
}

/// The pre-reduction brute-force DFS: branch on every enabled
/// alternative of every free decision. Kept verbatim as the reference
/// the reduced explorer is checked against (`--no-reduce`).
fn explore_full(model: &str, cfg: &Config, setup: &dyn Fn(&mut Env)) -> Report {
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut schedules = 0;
    let mut truncated = false;
    while let Some(prefix) = stack.pop() {
        if schedules >= cfg.max_schedules {
            truncated = true;
            break;
        }
        let plen = prefix.len();
        let exec = sched::run_one(prefix, cfg.weak, cfg.msg_budget, Vec::new(), setup);
        schedules += 1;
        if let Some(message) = exec.failure {
            return Report {
                model: model.to_string(),
                schedules,
                blocked: 0,
                exhausted: false,
                failure: Some(Failure {
                    trace: render_trace(model, cfg, &exec.decisions),
                    message,
                }),
            };
        }
        // Branch on every decision point this run chose freely (beyond
        // the forced prefix): each still-affordable alternative becomes
        // a new prefix. Branching only past `plen` guarantees each
        // schedule is generated exactly once.
        for i in (plen..exec.decisions.len()).rev() {
            let d = &exec.decisions[i];
            let before = if i == 0 {
                0
            } else {
                exec.decisions[i - 1].cum_preempt
            };
            for &alt in &d.enabled {
                if alt == d.chosen {
                    continue;
                }
                if before + preempt_delta(d.prev, &d.enabled, alt) > cfg.max_preemptions {
                    continue;
                }
                let mut next: Vec<usize> = exec.decisions[..i].iter().map(|d| d.chosen).collect();
                next.push(alt);
                stack.push(next);
            }
        }
    }
    Report {
        model: model.to_string(),
        schedules,
        blocked: 0,
        exhausted: !truncated,
        failure: None,
    }
}

/// One node on the reduced explorer's DFS stack: a decision point of
/// the current schedule path plus the bookkeeping DPOR needs.
struct Level {
    /// Enabled choices recorded at this decision.
    enabled: Vec<usize>,
    /// Unit granted immediately before (preemption accounting).
    prev: Option<usize>,
    /// Cumulative preemptions before this decision.
    cum_before: usize,
    /// Index of the event this level's grant creates (meaningless for
    /// fate levels, whose decisions create no event).
    nevents: usize,
    /// Fate decisions are data nondeterminism: every choice is seeded
    /// into `backtrack` up front and none is ever slept.
    fate: bool,
    /// Sleep set on entry: choices whose exploration from this state is
    /// covered by an already-explored sibling subtree.
    entry_sleep: Vec<sched::SleepEntry>,
    /// Choices already explored from this level, with the footprint of
    /// their first event (the sleep payload handed to later siblings).
    done: Vec<sched::SleepEntry>,
    /// Choices scheduled for exploration; grown by race-directed
    /// insertion.
    backtrack: Vec<usize>,
    /// Choice taken on the current path.
    chosen: usize,
}

/// Happens-before state of one location during the race sweep.
#[derive(Default)]
struct TokState {
    /// Last write: (event index, unit index, event clock).
    last_write: Option<(usize, usize, VClock)>,
    /// Reads since that write, one per unit.
    reads: Vec<(usize, usize, VClock)>,
}

/// Clock-component index of an event unit: threads `0..n`, flush units
/// `n..2n`.
fn unit_index(unit: usize, n: usize) -> usize {
    if unit >= weak::FLUSH_BASE {
        n + (unit - weak::FLUSH_BASE)
    } else {
        unit
    }
}

/// Offline Flanagan–Godefroid race sweep over one run's event log:
/// every `(i, j)` returned is a pair of conflicting events (same
/// location, at least one write) that are *concurrent* — not ordered by
/// the happens-before closure of per-unit program order plus the
/// dependence edges of earlier conflicts. These are exactly the pairs
/// whose reversal reaches a different Mazurkiewicz trace.
fn find_races(events: &[sched::Event], n: usize) -> Vec<(usize, usize)> {
    let nu = 2 * n;
    let mut unit_clock: Vec<VClock> = (0..nu).map(|_| VClock(vec![0; nu])).collect();
    let mut toks: std::collections::BTreeMap<u64, TokState> = std::collections::BTreeMap::new();
    let mut races = Vec::new();
    for (j, ev) in events.iter().enumerate() {
        let u = unit_index(ev.unit, n);
        let pre = unit_clock[u].clone();
        let mut vj = pre.clone();
        for &(token, write) in &ev.accesses {
            let ts = toks.entry(token).or_default();
            if let Some((i, ui, vi)) = &ts.last_write {
                if vi.0[*ui] > pre.0[*ui] {
                    races.push((*i, j));
                }
                vj.join(vi);
            }
            if write {
                for (i, ui, vi) in &ts.reads {
                    if vi.0[*ui] > pre.0[*ui] {
                        races.push((*i, j));
                    }
                    vj.join(vi);
                }
            }
        }
        vj.0[u] += 1;
        unit_clock[u] = vj.clone();
        for &(token, write) in &ev.accesses {
            let ts = toks.entry(token).or_default();
            if write {
                ts.last_write = Some((j, u, vj.clone()));
                ts.reads.clear();
            } else {
                ts.reads.retain(|&(_, ui, _)| ui != u);
                ts.reads.push((j, u, vj.clone()));
            }
        }
    }
    races
}

/// Dynamic partial-order reduction (Flanagan–Godefroid) with per-state
/// sleep sets over the bounded-preemption schedule space.
///
/// Each executed run is analysed offline: the scheduler's event log
/// (one event per grant, with the shared-state accesses the
/// instrumented primitives declared during that turn) is swept for
/// racing event pairs, and for each race a backtrack point is inserted
/// at the deepest decision at or before the earlier event — the racing
/// unit itself when it is schedulable and affordable there, every
/// affordable alternative otherwise. Because the preemption bound can
/// make the direct insertion unaffordable, a conservative extra point
/// is planted at the closest earlier decision where scheduling the
/// racing unit costs no preemption (the bounded-POR safety net).
///
/// Sleep sets carry the pruning to the scheduler: descending into a
/// sibling passes the already-explored siblings (with their first-event
/// footprints) into the run, which steers the default policy away from
/// them, wakes them on conflicting accesses, and abandons the run
/// (`Report::blocked`) when a sleeping choice becomes the only way
/// forward. An explored sibling is only put to sleep when its schedule
/// cost no more preemptions than the new branch, so the subtree that
/// covered it had at least this branch's remaining budget.
fn explore_reduced(model: &str, cfg: &Config, setup: &dyn Fn(&mut Env)) -> Report {
    let mut levels: Vec<Level> = Vec::new();
    let mut schedules = 0usize;
    let mut blocked = 0usize;
    let mut truncated = false;
    let bound = cfg.max_preemptions;
    let mut next: Option<(Vec<usize>, Vec<sched::SleepEntry>)> = Some((Vec::new(), Vec::new()));
    while let Some((prefix, sleep)) = next.take() {
        if schedules >= cfg.max_schedules {
            truncated = true;
            break;
        }
        let plen = prefix.len();
        let exec = sched::run_one(prefix, cfg.weak, cfg.msg_budget, sleep.clone(), setup);
        schedules += 1;
        if exec.pruned {
            blocked += 1;
        }
        if let Some(message) = exec.failure {
            return Report {
                model: model.to_string(),
                schedules,
                blocked,
                exhausted: false,
                failure: Some(Failure {
                    trace: render_trace(model, cfg, &exec.decisions),
                    message,
                }),
            };
        }
        // Extend the stack with this run's new decisions. A pruned
        // run's levels are extended too: its executed prefix is real,
        // and sleep-set theory says only its *continuation* was
        // redundant.
        for i in plen..exec.decisions.len() {
            let d = &exec.decisions[i];
            let fate = d.enabled[0] >= msg::MSG_BASE;
            levels.push(Level {
                enabled: d.enabled.clone(),
                prev: d.prev,
                cum_before: if i == 0 {
                    0
                } else {
                    exec.decisions[i - 1].cum_preempt
                },
                nevents: d.nevents,
                fate,
                entry_sleep: d.alive_sleep.iter().map(|&ix| sleep[ix].clone()).collect(),
                done: Vec::new(),
                backtrack: if fate {
                    d.enabled.clone()
                } else {
                    vec![d.chosen]
                },
                chosen: d.chosen,
            });
        }
        // Mark the chosen choice explored at every level of the path,
        // with the footprint of the event its grant created.
        for lvl in levels.iter_mut().take(exec.decisions.len()) {
            if !lvl.done.iter().any(|e| e.choice == lvl.chosen) {
                let footprint = if lvl.fate {
                    Vec::new()
                } else {
                    exec.events
                        .get(lvl.nevents)
                        .map(|e| e.accesses.clone())
                        .unwrap_or_default()
                };
                lvl.done.push(sched::SleepEntry {
                    choice: lvl.chosen,
                    footprint,
                });
            }
        }
        // Race-directed backtrack insertion. The analysed log is the
        // executed events plus one *phantom* write event per flush
        // action still enabled at termination (a run legally ends with
        // unflushed stores — that is the stale-publication execution —
        // so the flush-early schedules are only reachable if the
        // unexecuted flush still participates in the race sweep).
        let mut ana_events = exec.events.clone();
        for (unit, tokens) in &exec.pending_flush {
            ana_events.push(sched::Event {
                unit: *unit,
                accesses: tokens.iter().map(|&t| (t, true)).collect(),
            });
        }
        if !ana_events.is_empty() {
            // Controlling level of each event: the deepest non-fate
            // decision at or before the event's grant (events between
            // decisions were forced — no divergence is possible there).
            let mut ctrl: Vec<Option<usize>> = vec![None; ana_events.len()];
            for (li, lvl) in levels.iter().enumerate().take(exec.decisions.len()) {
                if lvl.fate {
                    continue;
                }
                for c in ctrl.iter_mut().skip(lvl.nevents) {
                    *c = Some(li);
                }
            }
            for (i_ev, j_ev) in find_races(&ana_events, exec.nthreads) {
                let Some(li) = ctrl[i_ev] else { continue };
                let cand = ana_events[j_ev].unit;
                let lvl = &mut levels[li];
                let primary_ok = if lvl.enabled.contains(&cand) {
                    if lvl.cum_before + preempt_delta(lvl.prev, &lvl.enabled, cand) <= bound {
                        if !lvl.backtrack.contains(&cand) {
                            lvl.backtrack.push(cand);
                        }
                        true
                    } else {
                        false
                    }
                } else {
                    // The racing unit is not schedulable here: fall back
                    // to every affordable alternative.
                    for i in 0..lvl.enabled.len() {
                        let c = lvl.enabled[i];
                        if lvl.cum_before + preempt_delta(lvl.prev, &lvl.enabled, c) <= bound
                            && !lvl.backtrack.contains(&c)
                        {
                            lvl.backtrack.push(c);
                        }
                    }
                    false
                };
                if !primary_ok {
                    // Bounded-POR safety net: also try the racing unit
                    // at the closest earlier point where scheduling it
                    // is free.
                    for k in (0..=li).rev() {
                        let lvl = &mut levels[k];
                        if !lvl.fate
                            && lvl.enabled.contains(&cand)
                            && preempt_delta(lvl.prev, &lvl.enabled, cand) == 0
                        {
                            if !lvl.backtrack.contains(&cand) {
                                lvl.backtrack.push(cand);
                            }
                            break;
                        }
                    }
                }
            }
        }
        // Backtrack: deepest level with an unexplored, affordable,
        // non-sleeping backtrack choice.
        while let Some(k) = levels.len().checked_sub(1) {
            let pick = {
                let lvl = &levels[k];
                lvl.backtrack.iter().copied().find(|&c| {
                    !lvl.done.iter().any(|e| e.choice == c)
                        && !lvl.entry_sleep.iter().any(|e| e.choice == c)
                        && lvl.cum_before + preempt_delta(lvl.prev, &lvl.enabled, c) <= bound
                })
            };
            match pick {
                Some(c) => {
                    let child = {
                        let lvl = &levels[k];
                        let delta_c = preempt_delta(lvl.prev, &lvl.enabled, c);
                        let mut child: Vec<sched::SleepEntry> = Vec::new();
                        for e in &lvl.entry_sleep {
                            if e.choice != c && e.choice < msg::MSG_BASE {
                                child.push(e.clone());
                            }
                        }
                        for e in &lvl.done {
                            if e.choice != c
                                && e.choice < msg::MSG_BASE
                                && preempt_delta(lvl.prev, &lvl.enabled, e.choice) <= delta_c
                                && !child.iter().any(|s| s.choice == e.choice)
                            {
                                child.push(e.clone());
                            }
                        }
                        child
                    };
                    levels[k].chosen = c;
                    let prefix: Vec<usize> = levels.iter().map(|l| l.chosen).collect();
                    next = Some((prefix, child));
                    break;
                }
                None => {
                    levels.pop();
                }
            }
        }
    }
    Report {
        model: model.to_string(),
        schedules,
        blocked,
        exhausted: !truncated,
        failure: None,
    }
}

/// Re-execute a single schedule from a counterexample trace. The forced
/// prefix pins every recorded decision; any decision points beyond it
/// follow the deterministic default policy, so the same trace always
/// produces the same execution. `cfg` must carry the memory mode,
/// bound, and message fault budget the trace was recorded under (see
/// [`parse_trace`]). Replay bypasses reduction entirely: the sleep set
/// is empty and no pruning can occur, so a recorded trace re-executes
/// byte-for-byte regardless of how it was found.
pub fn replay(model: &str, cfg: &Config, prefix: Vec<usize>, setup: impl Fn(&mut Env)) -> Report {
    let exec = sched::run_one(prefix, cfg.weak, cfg.msg_budget, Vec::new(), &setup);
    Report {
        model: model.to_string(),
        schedules: 1,
        blocked: 0,
        exhausted: false,
        failure: exec.failure.map(|message| Failure {
            trace: render_trace(model, cfg, &exec.decisions),
            message,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{MAtomicU64, MData, MMutex, Ordering};
    use super::*;
    use std::sync::Arc;

    /// Unsynchronized read-modify-write on plain data: the classic lost
    /// update, found by the race detector within a handful of schedules.
    #[test]
    fn data_race_is_found() {
        let report = explore("race", &Config::default(), |env| {
            let cell = Arc::new(MData::new(0u64));
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                env.spawn(move || {
                    let v = cell.read();
                    cell.write(v + 1);
                });
            }
        });
        let failure = report.failure.expect("race must be detected");
        assert!(failure.message.contains("data race"), "{}", failure.message);
        assert!(report.schedules < 50, "took {} schedules", report.schedules);
    }

    /// The same update under a mutex is race-free and the bounded space
    /// is fully explored.
    #[test]
    fn mutex_protected_update_passes_exhaustively() {
        let report = explore("guarded", &Config::default(), |env| {
            let cell = Arc::new(MMutex::new(0u64));
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                env.spawn(move || {
                    let mut g = cell.lock();
                    *g += 1;
                });
            }
            let after = Arc::clone(&cell);
            env.after(move || assert_eq!(*after.lock(), 2));
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
    }

    /// Classic ABBA deadlock: scheduler-level detection (no thread ever
    /// blocks on a real lock).
    #[test]
    fn abba_deadlock_is_found() {
        let report = explore("abba", &Config::default(), |env| {
            let a = Arc::new(MMutex::new(()));
            let b = Arc::new(MMutex::new(()));
            {
                let (a, b) = (Arc::clone(&a), Arc::clone(&b));
                env.spawn(move || {
                    let _ga = a.lock();
                    let _gb = b.lock();
                });
            }
            env.spawn(move || {
                let _gb = b.lock();
                let _ga = a.lock();
            });
        });
        let failure = report.failure.expect("deadlock must be detected");
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    /// A `Relaxed` load on a sync-class atomic that another thread wrote
    /// without an ordering edge is flagged as a stale read.
    #[test]
    fn relaxed_on_sync_atomic_is_flagged() {
        let report = explore("relaxed", &Config::default(), |env| {
            let flag = Arc::new(MAtomicU64::new(0));
            {
                let flag = Arc::clone(&flag);
                env.spawn(move || flag.store(1, Ordering::Release));
            }
            env.spawn(move || {
                let _ = flag.load(Ordering::Relaxed);
            });
        });
        let failure = report.failure.expect("relaxed misuse must be detected");
        assert!(failure.message.contains("relaxed"), "{}", failure.message);
    }

    /// Counter-class atomics are exempt: relaxed increments pass.
    #[test]
    fn counters_are_exempt() {
        let report = explore("counter", &Config::default(), |env| {
            let c = Arc::new(MAtomicU64::new_counter(0));
            for _ in 0..2 {
                let c = Arc::clone(&c);
                env.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            let after = Arc::clone(&c);
            env.after(move || assert_eq!(after.load(Ordering::Relaxed), 2));
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
    }

    /// Acquire/release publication is race-free: the consumer only
    /// touches the data after observing the flag.
    #[test]
    fn acquire_release_publication_passes() {
        let report = explore("publish", &Config::default(), |env| {
            let data = Arc::new(MData::new(0u64));
            let ready = Arc::new(MAtomicU64::new(0));
            {
                let (data, ready) = (Arc::clone(&data), Arc::clone(&ready));
                env.spawn(move || {
                    data.write(42);
                    ready.store(1, Ordering::Release);
                });
            }
            env.spawn(move || {
                if ready.load(Ordering::Acquire) == 1 {
                    assert_eq!(data.read(), 42);
                }
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
    }

    /// A counterexample trace replays deterministically: same failure,
    /// same trace, twice.
    #[test]
    fn replay_is_deterministic() {
        let model = |env: &mut Env| {
            let cell = Arc::new(MData::new(0u64));
            for _ in 0..2 {
                let cell = Arc::clone(&cell);
                env.spawn(move || {
                    let v = cell.read();
                    cell.write(v + 1);
                });
            }
        };
        let report = explore("replay", &Config::default(), model);
        let failure = report.failure.expect("race expected");
        let parsed = parse_trace(&failure.trace).expect("trace parses");
        assert_eq!(parsed.model, "replay");
        assert!(!parsed.weak);
        assert_eq!(parsed.bound, Config::default().max_preemptions);
        let cfg = Config {
            max_preemptions: parsed.bound,
            weak: parsed.weak,
            ..Config::default()
        };
        let r1 = replay(&parsed.model, &cfg, parsed.prefix.clone(), model);
        let r2 = replay(&parsed.model, &cfg, parsed.prefix, model);
        let f1 = r1.failure.expect("replay reproduces");
        let f2 = r2.failure.expect("replay reproduces");
        assert_eq!(f1.message, f2.message);
        assert_eq!(f1.trace, f2.trace);
        assert_eq!(f1.message, failure.message);
    }

    #[test]
    fn trace_v3_round_trips() {
        assert_eq!(
            parse_trace("v3:sc:b2:m0:m:t0,t1,t0"),
            Ok(ParsedTrace {
                model: "m".to_string(),
                weak: false,
                bound: 2,
                msg_budget: 0,
                prefix: vec![0, 1, 0],
            })
        );
        assert_eq!(
            parse_trace("v3:weak:b3:m0:m:t0,f0,t1"),
            Ok(ParsedTrace {
                model: "m".to_string(),
                weak: true,
                bound: 3,
                msg_budget: 0,
                prefix: vec![0, weak::FLUSH_BASE, 1],
            })
        );
        assert_eq!(
            parse_trace("v3:sc:b2:m2:m:t0,m0,m2,t1"),
            Ok(ParsedTrace {
                model: "m".to_string(),
                weak: false,
                bound: 2,
                msg_budget: 2,
                prefix: vec![0, msg::MSG_BASE, msg::MSG_BASE + 2, 1],
            })
        );
        assert_eq!(
            parse_trace("v3:sc:b2:m0:m:-"),
            Ok(ParsedTrace {
                model: "m".to_string(),
                weak: false,
                bound: 2,
                msg_budget: 0,
                prefix: vec![],
            })
        );
        assert!(parse_trace("garbage").is_err());
        assert!(parse_trace("v3:tso:b2:m0:m:t0").is_err());
        // A fate code beyond the known set must not parse.
        assert!(parse_trace("v3:sc:b2:m1:m:m7").is_err());
    }

    /// Schema-version fix: v1 traces (no recorded memory mode) and v2
    /// traces (no recorded message fault budget) are rejected with an
    /// explanation, never replayed under the wrong semantics.
    #[test]
    fn trace_v1_and_v2_are_rejected() {
        let err = parse_trace("v1:m:t0,t1,t0").expect_err("v1 must be rejected");
        assert!(err.contains("memory mode"), "{err}");
        assert!(err.contains("v3"), "{err}");
        let err = parse_trace("v2:sc:b2:m:t0,t1,t0").expect_err("v2 must be rejected");
        assert!(err.contains("fault budget"), "{err}");
        assert!(err.contains("v3"), "{err}");
    }

    fn weak_cfg() -> Config {
        Config {
            weak: true,
            ..Config::default()
        }
    }

    /// The tentpole litmus test: a `Relaxed` publication that the
    /// default mode passes (sequential value semantics + the heuristic
    /// deliberately narrowed to reading ops) but the weak mode catches
    /// with a concrete stale value — the store sits in t0's buffer and
    /// the post-join assertion observes global memory without it.
    #[test]
    fn weak_mode_finds_stale_relaxed_publication_that_sc_misses() {
        let model = |env: &mut Env| {
            let flag = Arc::new(MAtomicU64::new(0));
            {
                let flag = Arc::clone(&flag);
                env.spawn(move || flag.store(1, Ordering::Relaxed));
            }
            let after = Arc::clone(&flag);
            env.after(move || {
                assert_eq!(
                    after.load(Ordering::Acquire),
                    1,
                    "stale publication: relaxed store never became globally visible"
                );
            });
        };
        let sc = explore("pub-relaxed", &Config::default(), model);
        assert!(
            sc.failure.is_none(),
            "sc mode must miss the relaxed store: {:?}",
            sc.failure
        );
        assert!(sc.exhausted);
        let weak = explore("pub-relaxed", &weak_cfg(), model);
        let failure = weak
            .failure
            .expect("weak mode must catch the stale publication");
        assert!(
            failure.message.contains("stale publication"),
            "{}",
            failure.message
        );
        assert!(
            failure.trace.starts_with("v3:weak:b2:m0:pub-relaxed:"),
            "{}",
            failure.trace
        );
    }

    /// A correctly `Release`d publication writes through: identical
    /// behaviour in both modes, no spurious weak-mode failures.
    #[test]
    fn weak_mode_release_publication_stays_visible() {
        let model = |env: &mut Env| {
            let flag = Arc::new(MAtomicU64::new(0));
            {
                let flag = Arc::clone(&flag);
                env.spawn(move || flag.store(1, Ordering::Release));
            }
            let after = Arc::clone(&flag);
            env.after(move || assert_eq!(after.load(Ordering::Acquire), 1));
        };
        let weak = explore("pub-release", &weak_cfg(), model);
        assert!(weak.failure.is_none(), "{:?}", weak.failure);
        assert!(weak.exhausted);
    }

    /// TSO store forwarding: a thread reads its own buffered store even
    /// before any flush.
    #[test]
    fn weak_mode_thread_reads_its_own_buffer() {
        let report = explore("own-buffer", &weak_cfg(), |env| {
            let flag = Arc::new(MAtomicU64::new(0));
            env.spawn(move || {
                flag.store(7, Ordering::Relaxed);
                assert_eq!(flag.load(Ordering::Acquire), 7, "own store must forward");
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
    }

    /// Flush points are real scheduler decisions: the explorer finds the
    /// schedule where the buffered store flushes before the reader runs,
    /// and the trace records the flush (`f0`).
    #[test]
    fn weak_mode_explores_flush_points() {
        let report = explore("flush-points", &weak_cfg(), |env| {
            let flag = Arc::new(MAtomicU64::new(0));
            {
                let flag = Arc::clone(&flag);
                env.spawn(move || flag.store(1, Ordering::Relaxed));
            }
            env.spawn(move || {
                assert_ne!(
                    flag.load(Ordering::Acquire),
                    1,
                    "reader saw the flushed store"
                );
            });
        });
        let failure = report
            .failure
            .expect("some schedule must flush before the read");
        assert!(
            failure.message.contains("flushed store"),
            "{}",
            failure.message
        );
        assert!(
            failure.trace.contains("f0"),
            "trace must record the flush: {}",
            failure.trace
        );
    }

    /// RMW operations flush: after a fetch_add the previously buffered
    /// relaxed store is globally visible.
    #[test]
    fn weak_mode_rmw_flushes_the_buffer() {
        let report = explore("rmw-flush", &weak_cfg(), |env| {
            let flag = Arc::new(MAtomicU64::new(0));
            let other = Arc::new(MAtomicU64::new(0));
            {
                let (flag, other) = (Arc::clone(&flag), Arc::clone(&other));
                env.spawn(move || {
                    flag.store(1, Ordering::Relaxed);
                    // RMW on another location still drains this
                    // thread's whole buffer (TSO is per-thread FIFO).
                    other.fetch_add(1, Ordering::AcqRel);
                });
            }
            let after = Arc::clone(&flag);
            env.after(move || assert_eq!(after.load(Ordering::Acquire), 1));
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
    }

    /// A weak-mode counterexample replays byte-identically from its
    /// trace, flush decisions included.
    #[test]
    fn weak_trace_replays_deterministically() {
        let model = |env: &mut Env| {
            let flag = Arc::new(MAtomicU64::new(0));
            {
                let flag = Arc::clone(&flag);
                env.spawn(move || flag.store(1, Ordering::Relaxed));
            }
            env.spawn(move || {
                assert_ne!(
                    flag.load(Ordering::Acquire),
                    1,
                    "reader saw the flushed store"
                );
            });
        };
        let report = explore("weak-replay", &weak_cfg(), model);
        let failure = report.failure.expect("flush schedule fails");
        let parsed = parse_trace(&failure.trace).expect("trace parses");
        assert!(parsed.weak);
        let cfg = Config {
            max_preemptions: parsed.bound,
            weak: parsed.weak,
            ..Config::default()
        };
        let replayed = replay(&parsed.model, &cfg, parsed.prefix, model)
            .failure
            .expect("replay reproduces");
        assert_eq!(replayed.message, failure.message);
        assert_eq!(replayed.trace, failure.trace);
    }

    fn msg_cfg(budget: usize) -> Config {
        Config {
            msg_budget: budget,
            ..Config::default()
        }
    }

    /// With the budget at zero, `msg_fate` returns `None` without
    /// yielding: a sender model is a zero-decision single schedule.
    #[test]
    fn msg_mode_off_is_inert() {
        let report = explore("msg-off", &Config::default(), |env| {
            env.spawn(move || {
                assert_eq!(sync::msg_fate(), None, "budget 0 must never assign fates");
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
        assert_eq!(report.schedules, 1, "a send must not be a decision point");
    }

    /// With a budget, the explorer enumerates every fate: a model that
    /// asserts faults never happen is refuted, and the counterexample
    /// records the fate (`m<code>`) and replays byte-identically.
    #[test]
    fn msg_mode_enumerates_fates_and_replays() {
        let model = |env: &mut Env| {
            env.spawn(move || {
                let fate = sync::msg_fate().expect("budget 1 must assign a fate");
                assert!(!fate.is_fault(), "injected fault: {fate:?}");
            });
        };
        let report = explore("msg-fates", &msg_cfg(1), model);
        let failure = report.failure.expect("a fault fate must be explored");
        assert!(
            failure.trace.starts_with("v3:sc:b2:m1:msg-fates:"),
            "{}",
            failure.trace
        );
        let parsed = parse_trace(&failure.trace).expect("trace parses");
        assert_eq!(parsed.msg_budget, 1);
        assert!(
            parsed.prefix.iter().any(|&c| c >= msg::MSG_BASE),
            "trace must record the fate: {}",
            failure.trace
        );
        let cfg = Config {
            max_preemptions: parsed.bound,
            weak: parsed.weak,
            msg_budget: parsed.msg_budget,
            ..Config::default()
        };
        let r1 = replay(&parsed.model, &cfg, parsed.prefix.clone(), model);
        let r2 = replay(&parsed.model, &cfg, parsed.prefix, model);
        let f1 = r1.failure.expect("replay reproduces");
        let f2 = r2.failure.expect("replay reproduces");
        assert_eq!(f1.message, failure.message);
        assert_eq!(f1.trace, failure.trace);
        assert_eq!(f2.trace, failure.trace);
    }

    /// The fault budget is a hard ration: with budget 1 and two sends,
    /// no schedule injects two faults, and exhausted sends are forced
    /// `Deliver` without recording a decision.
    #[test]
    fn msg_fault_budget_is_rationed() {
        let report = explore("msg-budget", &msg_cfg(1), |env| {
            env.spawn(move || {
                let faults = (0..2)
                    .filter(|_| sync::msg_fate().expect("fate assigned").is_fault())
                    .count();
                assert!(faults <= 1, "budget exceeded: {faults} faults injected");
            });
        });
        assert!(report.failure.is_none(), "{:?}", report.failure);
        assert!(report.exhausted);
        // First send: 7 fates. Second send: 7 more only on the
        // fault-free branch — the six fault branches exhaust the budget
        // and force-deliver. 1 + 6 + 6 = 13 schedules.
        assert_eq!(report.schedules, 13);
    }

    /// Fate decisions are never preemptions: the whole fate space is
    /// explored even at preemption bound 0.
    #[test]
    fn msg_fates_are_free_under_preemption_bound() {
        let cfg = Config {
            max_preemptions: 0,
            ..msg_cfg(1)
        };
        let report = explore("msg-free", &cfg, |env| {
            env.spawn(move || {
                let fate = sync::msg_fate().expect("fate assigned");
                assert_ne!(
                    fate,
                    MsgFate::Duplicate,
                    "duplicate fate reached at bound 0"
                );
            });
        });
        let failure = report.failure.expect("duplicate fate must be explored");
        assert!(
            failure.message.contains("duplicate fate"),
            "{}",
            failure.message
        );
    }
}
