//! Subcommand implementations. Each returns its output as a `String` so
//! tests can assert on it without capturing stdout.

use ech_cli::args::{Args, ParseError};
use ech_core::ids::ObjectId;
use std::fmt::Write as _;

/// The dispatch table, in `help` order.
const COMMANDS: &[(&str, ech_cli::Command)] = &[
    ("bench", bench_cmd),
    ("modelcheck", modelcheck_cmd),
    ("lincheck", lincheck_cmd),
    ("help", help),
];

/// Run a parsed command, returning its printable output.
pub fn run(args: &Args) -> Result<String, ParseError> {
    ech_cli::dispatch(COMMANDS, args).unwrap_or_else(|| {
        Err(ParseError(format!(
            "unknown subcommand `{}`; try `ech-check help`",
            args.command
        )))
    })
}

fn help(_: &Args) -> Result<String, ParseError> {
    Ok("\
ech-check — checker hosts of the elastic consistent hashing toolkit
(built with the instrumented sync facades; everything else is `ech`)

USAGE: ech-check <command> [--flag value]...

COMMANDS:
  bench           run a checker benchmark group, JSON to stdout
                  (group: modelcheck)
                  [--smoke true] [--check-against FILE]
                  (modelcheck runs every model with reduction on and off
                  at its declared bound and reports schedules
                  explored/pruned — counts are deterministic, so
                  --check-against compares exactly)
  modelcheck      explore thread interleavings of the cluster's
                  publish/read/reintegrate protocols and report
                  violations with a replayable trace
                  [--model PATTERN] [--weak true] [--bound P]
                  [--msg true] [--msg-budget N] [--lincheck true]
                  [--replay TRACE] [--max-schedules B]
                  [--no-reduce true] [--stats true]
                  (partial-order reduction is on by default: sleep sets
                  plus dynamically inserted backtrack points prune
                  schedules equivalent up to reordering of independent
                  steps; --no-reduce restores the full bounded DFS and
                  must reach the same verdicts; --stats prints per-model
                  schedules run and runs abandoned by sleep sets)
                  (--weak simulates TSO store buffers: Relaxed stores
                  drain at explored flush points; --msg routes every
                  Cluster::rpc send through the explorer, which
                  enumerates per-message fates — drops, duplicates,
                  reorders, partition edges — under each model's fault
                  budget; --bound pins the preemption bound for every
                  model; traces are v3 and carry the memory mode,
                  preemption bound and message budget they were
                  recorded under)
                  (--model selects the models matching a `*`/`?`
                  wildcard pattern — a plain name matches only itself;
                  --lincheck records every schedule's operation history
                  at the Cluster API boundary and rejects schedules
                  whose history admits no linearization order —
                  witnesses are replayable `l1:` lines the lincheck
                  command re-verifies)
  lincheck        record a seeded deterministic stress history against a
                  live cluster on a virtual clock and check it with the
                  Wing–Gong linearizability checker
                  [--seed S] [--ops N] [--keys K]
                  [--witness L1LINE]  instead re-verify a rendered `l1:`
                  witness line: it must parse, stay non-linearizable,
                  and re-render byte-identically (minimal + canonical)
  help            this text
"
    .to_owned())
}

/// `ech-check bench <group>`: run a checker benchmark group and print
/// its JSON report. With `--check-against FILE` the fresh counts are also
/// compared to a committed reference (the CI modelcheck-smoke gate).
/// Schedule counts are deterministic, so the check is exact.
fn bench_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&["smoke", "check-against"])?;
    args.one_of("group", &["modelcheck"])?;
    let smoke: bool = args.get_or("smoke", false)?;
    // Read the reference before measuring: a bad path should fail fast,
    // not after the benchmark ran.
    let reference = args.read_file("check-against")?;
    let report = crate::bench_mc::run(smoke);
    let mut out = report.to_json();
    if let Some(reference) = reference {
        out.push('\n');
        out.push_str(&crate::bench_mc::check_against(&report, &reference).map_err(ParseError)?);
    }
    Ok(out)
}

/// `ech-check modelcheck`: run the registered interleaving models (see
/// [`crate::mc_models`]) and report one line per model. Regular models
/// must pass every explored schedule; the seeded-bug model inverts the
/// verdict — the checker must *find* its failure and print the trace,
/// which `--replay` then reproduces deterministically.
fn modelcheck_cmd(args: &Args) -> Result<String, ParseError> {
    args.allow_only(&[
        "model",
        "weak",
        "msg",
        "msg-budget",
        "lincheck",
        "bound",
        "replay",
        "max-schedules",
        "no-reduce",
        "stats",
    ])?;
    let weak: bool = args.get_or("weak", false)?;
    let msg: bool = args.get_or("msg", false)?;
    let lincheck: bool = args.get_or("lincheck", false)?;
    let no_reduce: bool = args.get_or("no-reduce", false)?;
    let stats: bool = args.get_or("stats", false)?;
    // Without `--bound` every model runs at its own declared bound.
    let bound_override: Option<usize> = if args.options.contains_key("bound") {
        Some(args.get_or("bound", 2)?)
    } else {
        None
    };
    // Same shape for the message-fault budget: `--msg-budget` pins it
    // for the whole run, otherwise each model's declared budget applies
    // (zero for the memory-protocol models, so `--msg` sweeps stay
    // affordable).
    let budget_override: Option<usize> = if args.options.contains_key("msg-budget") {
        Some(args.get_or("msg-budget", 1)?)
    } else {
        None
    };
    let max_schedules: usize = args.get_or("max-schedules", 20_000)?;
    if let Some(trace) = args.options.get("replay") {
        // A v3 trace carries its own memory mode; an explicit `--weak`
        // is only accepted when it agrees. `--lincheck` is not recorded
        // in traces (recording adds no scheduling decisions), so a
        // history violation replays under the same flag that found it.
        let explicit_weak = args.options.contains_key("weak").then_some(weak);
        return modelcheck_replay(trace, explicit_weak, lincheck);
    }
    let pattern = args.str_or("model", "*");
    let selected: Vec<&'static crate::mc_models::Model> = crate::mc_models::MODELS
        .iter()
        .filter(|m| glob_match(pattern, m.name))
        .collect();
    if selected.is_empty() {
        return Err(ParseError(format!(
            "--model `{pattern}` matches no model; available models:\n{}",
            crate::mc_models::MODELS
                .iter()
                .map(|m| format!("  {} — {}", m.name, m.about))
                .collect::<Vec<_>>()
                .join("\n")
        )));
    }
    let mode = if weak {
        "store-buffer weak memory"
    } else {
        "sequentially consistent"
    };
    let fates = if msg {
        ", message fates enumerated"
    } else {
        ""
    };
    let histories = if lincheck {
        ", histories lincheck-verified"
    } else {
        ""
    };
    let bound_desc = match bound_override {
        Some(b) => format!("preemption bound {b}"),
        None => "per-model preemption bounds".to_owned(),
    };
    let reduction = if no_reduce {
        ", reduction off"
    } else {
        ", partial-order reduction"
    };
    let mut out = String::new();
    writeln!(
        out,
        "modelcheck: bounded exhaustive exploration ({bound_desc}, {mode}{fates}{reduction}{histories})"
    )
    .expect("write to string");
    let mut problems: Vec<String> = Vec::new();
    for m in selected {
        let msg_budget = if msg {
            budget_override.unwrap_or(m.msg_budget)
        } else {
            0
        };
        let cfg = ech_modelcheck::Config {
            max_preemptions: bound_override.unwrap_or(m.bound),
            max_schedules,
            weak,
            msg_budget,
            reduce: !no_reduce,
        };
        let expect = m.expects_failure_with(weak, msg_budget > 0, lincheck);
        let report = if lincheck {
            ech_modelcheck::explore(m.name, &cfg, lincheck_wrapped(m))
        } else {
            ech_modelcheck::explore(m.name, &cfg, |env| m.build(env))
        };
        match (&report.failure, expect) {
            (None, false) => {
                let coverage = if report.exhausted {
                    "exhaustive"
                } else {
                    problems.push(format!(
                        "{}: schedule budget exhausted before full coverage",
                        m.name
                    ));
                    "TRUNCATED"
                };
                // A weak-only mutant passing the sequentially consistent
                // mode is the expected asymmetry, not a clean bill: say
                // so, so the report is not mistaken for full coverage.
                let note = if m.weak_only() && !weak {
                    " [weak-only mutant: stale publication needs --weak]"
                } else if m.msg_only() && msg_budget == 0 {
                    " [message-only mutant: fault enumeration needs --msg]"
                } else if m.lincheck_only() && !lincheck {
                    " [history mutant: order violation needs --lincheck]"
                } else {
                    ""
                };
                writeln!(
                    out,
                    "  {:<30} pass    {:>6} schedules ({coverage}){note}",
                    m.name, report.schedules
                )
                .expect("write to string");
            }
            (Some(f), true) => {
                writeln!(
                    out,
                    "  {:<30} caught  {:>6} schedules (seeded bug, expected)",
                    m.name, report.schedules
                )
                .expect("write to string");
                writeln!(out, "    {}", f.message).expect("write to string");
                writeln!(out, "    trace: {}", f.trace).expect("write to string");
            }
            (Some(f), false) => {
                writeln!(
                    out,
                    "  {:<30} FAIL    {:>6} schedules",
                    m.name, report.schedules
                )
                .expect("write to string");
                writeln!(out, "    {}", f.message).expect("write to string");
                writeln!(out, "    trace: {}", f.trace).expect("write to string");
                problems.push(format!("{}: {}", m.name, f.message));
            }
            (None, true) => {
                writeln!(
                    out,
                    "  {:<30} MISSED  {:>6} schedules (seeded bug not found)",
                    m.name, report.schedules
                )
                .expect("write to string");
                problems.push(format!("{}: seeded bug not found", m.name));
            }
        }
        if stats {
            writeln!(
                out,
                "    stats: {} schedules run, {} abandoned by sleep sets",
                report.schedules, report.blocked
            )
            .expect("write to string");
        }
    }
    if problems.is_empty() {
        writeln!(out, "modelcheck: ok").expect("write to string");
        Ok(out)
    } else {
        Err(ParseError(format!(
            "modelcheck failed: {}\n{out}",
            problems.join("; ")
        )))
    }
}

/// `*`/`?` wildcard match for `--model` (no character classes; model
/// names are flat kebab-case, so this is all a sweep filter needs).
fn glob_match(pat: &str, name: &str) -> bool {
    let (p, n) = (pat.as_bytes(), name.as_bytes());
    let (mut pi, mut ni) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ni < n.len() {
        if pi < p.len() && (p[pi] == b'?' || p[pi] == n[ni]) {
            pi += 1;
            ni += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ni));
            pi += 1;
        } else if let Some((sp, sn)) = star {
            // Backtrack: let the last `*` swallow one more byte.
            pi = sp + 1;
            ni = sn + 1;
            star = Some((sp, sn + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Wrap a model's setup for `--lincheck`: open a fresh recording
/// session before the scenario builds (its clusters attach to it, and
/// setup writes become the sequential prefix of every schedule's
/// history) and append an after-hook — behind the model's own
/// post-state checks — that finishes the session and fails the schedule
/// when the Wing–Gong checker finds no linearization order. The panic
/// message carries the replayable `l1:` witness, so the violation rides
/// the same trace plumbing as every other counterexample.
fn lincheck_wrapped(m: &'static crate::mc_models::Model) -> impl Fn(&mut ech_modelcheck::Env) {
    move |env: &mut ech_modelcheck::Env| {
        let session = ech_lincheck::recorder::Session::begin();
        m.build(env);
        let name = m.name;
        env.after(move || {
            let rec = session.finish();
            match ech_lincheck::check_kv(&rec.events, ech_lincheck::DEFAULT_BUDGET) {
                ech_lincheck::Outcome::Linearizable { .. } => {}
                ech_lincheck::Outcome::NonLinearizable { key, witness } => panic!(
                    "recorded history is not linearizable (key {key}); witness: {}",
                    ech_lincheck::render_witness(name, &witness)
                ),
                ech_lincheck::Outcome::BudgetExceeded { key, budget } => panic!(
                    "lincheck search overran its node budget on key {key} ({budget} configurations)"
                ),
            }
        });
    }
}

/// `ech-check lincheck`: record a seeded, deterministic stress history against
/// a live cluster on a virtual clock and check it with the Wing–Gong
/// linearizability checker — the offline smoke for the recording +
/// checking pipeline (CI runs it twice and compares the reports
/// byte-identically). With `--witness` it instead re-verifies a rendered
/// `l1:` witness line, the artifact `--lincheck` model runs and the
/// replay regression tests carry.
fn lincheck_cmd(args: &Args) -> Result<String, ParseError> {
    use bytes::Bytes;
    use ech_cluster::fault::{FaultPlan, VirtualClock};
    use ech_cluster::{Cluster, ClusterConfig};
    use ech_core::hash::mix64;
    use std::sync::Arc;
    args.allow_only(&["witness", "seed", "ops", "keys"])?;
    if let Some(line) = args.options.get("witness") {
        return match ech_lincheck::verify_witness(line) {
            Ok(()) => Ok("witness verified: minimal, canonical, and non-linearizable\n".to_owned()),
            Err(e) => Err(ParseError(format!("witness rejected: {e}"))),
        };
    }
    let seed: u64 = args.get_or("seed", 0x11C)?;
    let ops: usize = args.get_or("ops", 120)?;
    let keys: u64 = args.get_or("keys", 4)?;
    if ops == 0 {
        return Err(ParseError("--ops must be at least 1".into()));
    }
    if keys == 0 {
        return Err(ParseError("--keys must be at least 1".into()));
    }
    let mut cfg = ClusterConfig::paper();
    cfg.servers = 3;
    cfg.replicas = 2;
    let session = ech_lincheck::recorder::Session::begin();
    let c = Cluster::with_faults(cfg, FaultPlan::default(), Arc::new(VirtualClock::new()));
    // A seeded op mix over a handful of keys: overwrites (so the
    // last-write-wins register has history to get wrong), reads, power
    // resizes (degraded-write windows), and heal/drain passes. Scripted
    // single-threaded: the point is the recording and checking
    // pipeline, not schedule exploration — `modelcheck --lincheck`
    // covers the concurrent side.
    let mut active = 3usize;
    for i in 0..ops {
        let r = mix64(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let oid = ObjectId(1 + r % keys);
        match (r >> 8) % 10 {
            0..=4 => {
                let _ = c.put(oid, Bytes::from(format!("lincheck-{i}")));
            }
            5..=7 => {
                let _ = c.get(oid);
            }
            8 => {
                active = if active == 3 { 2 } else { 3 };
                c.resize(active);
            }
            _ => {
                if r & 1 == 0 {
                    c.heal_dirty();
                } else {
                    c.reintegrate_all();
                }
            }
        }
    }
    let rec = session.finish();
    let recorded_ops = rec
        .events
        .iter()
        .filter(|e| matches!(e.kind, ech_lincheck::EventKind::Invoke(_)))
        .count();
    let mut out = String::new();
    writeln!(
        out,
        "lincheck: seed {seed}, {ops} ops scripted over {keys} keys (3 servers, 2 replicas)"
    )
    .expect("write to string");
    writeln!(
        out,
        "lincheck: recorded {} events ({recorded_ops} operations)",
        rec.events.len()
    )
    .expect("write to string");
    match ech_lincheck::check_kv(&rec.events, ech_lincheck::DEFAULT_BUDGET) {
        ech_lincheck::Outcome::Linearizable { keys, ops, states } => {
            writeln!(
                out,
                "lincheck: linearizable ({keys} keys, {ops} keyed ops, {states} configurations)"
            )
            .expect("write to string");
            Ok(out)
        }
        ech_lincheck::Outcome::NonLinearizable { key, witness } => Err(ParseError(format!(
            "lincheck: history NOT linearizable (key {key})\n  witness: {}\n{out}",
            ech_lincheck::render_witness("stress", &witness)
        ))),
        ech_lincheck::Outcome::BudgetExceeded { key, budget } => Err(ParseError(format!(
            "lincheck: node budget exceeded on key {key} ({budget} configurations)\n{out}"
        ))),
    }
}

/// `ech-check modelcheck --replay TRACE`: re-execute one recorded schedule.
/// The v3 trace names its model *and* the memory mode, preemption bound
/// and message-fault budget it was recorded under; the scheduler forces
/// the recorded decisions under that same configuration, so the same
/// violation reproduces byte-identically (the counterexample replay
/// tests run this twice and compare outputs). v1/v2 traces are
/// rejected: they do not record everything the schedule depends on, so
/// a replay could silently diverge.
fn modelcheck_replay(
    trace: &str,
    explicit_weak: Option<bool>,
    lincheck: bool,
) -> Result<String, ParseError> {
    let parsed = ech_modelcheck::parse_trace(trace).map_err(ParseError)?;
    if let Some(w) = explicit_weak {
        if w != parsed.weak {
            return Err(ParseError(format!(
                "--weak {w} contradicts the trace's recorded memory mode `{}`; a trace \
                 replays under the mode that produced it",
                if parsed.weak { "weak" } else { "sc" }
            )));
        }
    }
    let model = crate::mc_models::find(&parsed.model)
        .ok_or_else(|| ParseError(format!("trace names unknown model `{}`", parsed.model)))?;
    // A trace recorded under a different bound or budget than the model
    // now declares replays against a scheduler configured differently
    // from the one that produced it — the prefix may name choices that
    // no longer exist at the same decision points. Mismatches are hard
    // errors, same policy as a mode-contradicting `--weak`.
    if parsed.bound != model.bound {
        return Err(ParseError(format!(
            "trace records preemption bound {} but model `{}` declares bound {}; \
             a trace replays under the configuration that produced it",
            parsed.bound, model.name, model.bound
        )));
    }
    if parsed.msg_budget != 0 && parsed.msg_budget != model.msg_budget {
        return Err(ParseError(format!(
            "trace records message budget {} but model `{}` declares budget {}; \
             a trace replays under the configuration that produced it",
            parsed.msg_budget, model.name, model.msg_budget
        )));
    }
    let cfg = ech_modelcheck::Config {
        max_preemptions: parsed.bound,
        max_schedules: 1,
        weak: parsed.weak,
        msg_budget: parsed.msg_budget,
        // Replay bypasses reduction entirely: the prefix pins every
        // decision, so there is nothing to prune and no sleep state to
        // consult.
        reduce: false,
    };
    // History recording adds no scheduling decisions, so a `--lincheck`
    // replay forces the identical prefix — only the post-state check
    // differs, which is exactly what reproduces a history violation.
    let report = if lincheck {
        ech_modelcheck::replay(model.name, &cfg, parsed.prefix, lincheck_wrapped(model))
    } else {
        ech_modelcheck::replay(model.name, &cfg, parsed.prefix, |env| model.build(env))
    };
    let mut out = String::new();
    match &report.failure {
        Some(f) => {
            writeln!(out, "replay {}: violation reproduced", model.name).expect("write to string");
            writeln!(out, "  {}", f.message).expect("write to string");
            writeln!(out, "  trace: {}", f.trace).expect("write to string");
        }
        None => {
            writeln!(out, "replay {}: no violation at this schedule", model.name)
                .expect("write to string");
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ech_cli::args::parse;

    fn run_line(line: &str) -> Result<String, ParseError> {
        run(&parse(line.split_whitespace().map(str::to_owned)).unwrap())
    }

    /// `help` lists exactly the subcommands the dispatch table accepts.
    #[test]
    fn help_lists_all_commands() {
        let h = run_line("help").unwrap();
        let listed: Vec<&str> = h
            .lines()
            .filter(|l| l.starts_with("  ") && !l.starts_with("   "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let dispatched: Vec<&str> = COMMANDS.iter().map(|(name, _)| *name).collect();
        assert_eq!(listed, dispatched);
        assert!(run_line("chaos").unwrap_err().0.contains("ech-check help"));
    }

    /// The protocol models must hold on *every* schedule within the
    /// preemption bound — truncated coverage or a single violating
    /// interleaving fails the run.
    #[test]
    fn modelcheck_default_models_pass_exhaustively() {
        for model in ["publish-vs-read", "cache-coherence", "cache-counters"] {
            let out = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(out.contains("pass"), "{model} did not pass:\n{out}");
            assert!(out.contains("(exhaustive)"), "{model} truncated:\n{out}");
        }
    }

    #[test]
    fn modelcheck_reintegration_model_passes_exhaustively() {
        let out = run_line("modelcheck --model reintegrate-vs-resize").unwrap();
        assert!(out.contains("pass"), "not passing:\n{out}");
        assert!(out.contains("(exhaustive)"), "truncated:\n{out}");
    }

    /// The counterexample pipeline end to end: the checker finds the
    /// deliberately seeded stamp-before-publish bug within a small
    /// schedule budget, and replaying its reported trace reproduces the
    /// identical violation byte for byte, twice.
    #[test]
    fn modelcheck_finds_seeded_bug_and_replays_it_deterministically() {
        let out = run_line("modelcheck --model seeded-stamp-bug --max-schedules 200").unwrap();
        assert!(
            out.contains("caught"),
            "seeded bug not found within 200 schedules:\n{out}"
        );
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "replay is not deterministic");
        // The reproduced trace round-trips: replay reports the same
        // schedule it was given.
        assert!(first.contains(trace), "replay rewrote the trace:\n{first}");
    }

    #[test]
    fn modelcheck_rejects_unknown_models_and_traces() {
        let err = run_line("modelcheck --model no-such-model").unwrap_err();
        assert!(err.0.contains("publish-vs-read"), "error lists models");
        assert!(run_line("modelcheck --replay not-a-trace").is_err());
        assert!(run_line("modelcheck --replay v1:no-such-model:t0").is_err());
    }

    /// The fault-aware coverage models must hold on every schedule in
    /// *both* memory modes: their protocols only use sanctioned
    /// orderings, so the store-buffer simulation may not change a single
    /// verdict.
    #[test]
    fn modelcheck_coverage_models_pass_exhaustively_in_both_modes() {
        for model in [
            "quorum-write-faults",
            "read-crash",
            "worker-stop-flag",
            "reintegration-pool",
        ] {
            for mode in ["", " --weak true"] {
                let out = run_line(&format!("modelcheck --model {model}{mode}")).unwrap();
                assert!(out.contains("pass"), "{model}{mode} did not pass:\n{out}");
                assert!(
                    out.contains("(exhaustive)"),
                    "{model}{mode} truncated:\n{out}"
                );
            }
        }
    }

    /// Find a seeded mutant's counterexample (under the given memory
    /// mode) and replay its reported trace twice: both replays must
    /// reproduce the violation and render byte-identical reports. The
    /// trace itself carries the mode + bound, so the replay needs no
    /// extra flags.
    fn assert_caught_and_replayable(model: &str, weak: bool) {
        let mode = if weak { " --weak true" } else { "" };
        let out = run_line(&format!("modelcheck --model {model}{mode}")).unwrap();
        assert!(out.contains("caught"), "{model}{mode} not caught:\n{out}");
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        let expected_mode = if weak { "v3:weak:" } else { "v3:sc:" };
        assert!(
            trace.starts_with(expected_mode),
            "trace does not record the mode it was found under: {trace}"
        );
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "{model} replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "{model} replay is not deterministic");
        assert!(
            first.contains(trace),
            "{model} replay rewrote the trace:\n{first}"
        );
    }

    /// Message-mode analogue of [`assert_caught_and_replayable`]: find
    /// the mutant's counterexample under `--msg`, check the trace
    /// records the message budget and at least one enumerated fate, and
    /// replay it byte-identically twice.
    fn assert_caught_and_replayable_msg(model: &str) {
        let out = run_line(&format!("modelcheck --model {model} --msg true")).unwrap();
        assert!(out.contains("caught"), "{model} --msg not caught:\n{out}");
        let trace_line = out
            .lines()
            .find(|l| l.trim_start().starts_with("trace: "))
            .expect("report carries a trace");
        let trace = trace_line.trim_start().trim_start_matches("trace: ");
        assert!(
            trace.starts_with("v3:sc:") && trace.contains(":m1:"),
            "trace does not record the message budget it was found under: {trace}"
        );
        let steps = trace.rsplit(':').next().expect("trace has steps");
        assert!(
            steps.split(',').any(|s| s.starts_with('m')),
            "counterexample carries no message-fate decision: {trace}"
        );
        let replay_cmd = format!("modelcheck --replay {trace}");
        let first = run_line(&replay_cmd).unwrap();
        let second = run_line(&replay_cmd).unwrap();
        assert!(
            first.contains("violation reproduced"),
            "{model} replay lost the violation:\n{first}"
        );
        assert_eq!(first, second, "{model} replay is not deterministic");
        assert!(
            first.contains(trace),
            "{model} replay rewrote the trace:\n{first}"
        );
    }

    /// Every seeded mutant that sequentially consistent exploration can
    /// catch is caught, and its counterexample replays byte-identically.
    #[test]
    fn modelcheck_catches_and_replays_every_seq_mutant() {
        for model in [
            "quorum-dirty-bug",
            "partition-quorum-bug",
            "stale-read-bug",
            "reintegration-lost-replica-bug",
        ] {
            assert_caught_and_replayable(model, false);
            // The same bugs are still bugs under weak memory.
            assert_caught_and_replayable(model, true);
        }
    }

    /// The weak-memory acceptance case: the two Relaxed-publication
    /// mutants pass *exhaustively* under sequentially consistent
    /// exploration (the mode provably cannot find them — every schedule
    /// was checked) and are caught with a replayable stale-publication
    /// counterexample under `--weak`.
    #[test]
    fn modelcheck_weak_mode_catches_what_sc_provably_misses() {
        for model in ["weak-stop-flag-relaxed", "weak-view-publish-relaxed"] {
            let sc = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(sc.contains("pass"), "{model} should pass under sc:\n{sc}");
            assert!(
                sc.contains("(exhaustive)"),
                "{model} sc pass must be exhaustive to prove the miss:\n{sc}"
            );
            assert!(
                sc.contains("weak-only mutant"),
                "{model} sc report lacks the weak-only annotation:\n{sc}"
            );
            assert_caught_and_replayable(model, true);
        }
    }

    /// v3 traces refuse to replay under a contradicting explicit mode,
    /// and v1/v2 traces are rejected outright (they do not record
    /// everything the schedule depends on, so a replay could silently
    /// diverge).
    #[test]
    fn modelcheck_replay_rejects_mode_mismatch_and_legacy_traces() {
        let err =
            run_line("modelcheck --replay v3:weak:b2:m0:weak-stop-flag-relaxed:t0,t0 --weak false")
                .unwrap_err();
        assert!(
            err.0.contains("contradicts"),
            "no mode-conflict error: {}",
            err.0
        );
        let err = run_line("modelcheck --replay v1:seeded-stamp-bug:0,0,1").unwrap_err();
        assert!(
            err.0.contains("memory mode") && err.0.contains("v3"),
            "v1 rejection does not explain itself: {}",
            err.0
        );
        let err =
            run_line("modelcheck --replay v2:weak:b2:weak-stop-flag-relaxed:t0,t0").unwrap_err();
        assert!(
            err.0.contains("message fault budget") && err.0.contains("v3"),
            "v2 rejection does not explain itself: {}",
            err.0
        );
        // Agreement is fine: an explicit matching mode replays normally.
        let ok = run_line(
            "modelcheck --replay v3:weak:b2:m0:weak-stop-flag-relaxed:t0,t0,t1,t1,t1,t1 --weak true",
        )
        .unwrap();
        assert!(ok.contains("replay weak-stop-flag-relaxed"), "{ok}");
    }

    /// The message-mode acceptance case: the three message mutants pass
    /// *exhaustively* under thread-only exploration (the mode provably
    /// cannot find them — every schedule was checked and none
    /// retransmits, drops, or delays anything) and are caught with a
    /// replayable message-fate counterexample under `--msg`.
    #[test]
    fn modelcheck_msg_mode_catches_what_thread_only_provably_misses() {
        for model in [
            "msg-quorum-ack-loss-bug",
            "msg-breaker-notfound-bug",
            "msg-dup-append-bug",
        ] {
            let sc = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(
                sc.contains("pass"),
                "{model} should pass thread-only:\n{sc}"
            );
            assert!(
                sc.contains("(exhaustive)"),
                "{model} thread-only pass must be exhaustive to prove the miss:\n{sc}"
            );
            assert!(
                sc.contains("message-only mutant"),
                "{model} report lacks the msg-only annotation:\n{sc}"
            );
            assert_caught_and_replayable_msg(model);
        }
    }

    /// The correct-protocol message models hold on every schedule with
    /// fates enumerated: quorum writes stay self-healing under any
    /// single message fault, the breaker recovers through its half-open
    /// probe, and duplicate delivery is idempotent.
    #[test]
    fn modelcheck_msg_models_pass_exhaustively_with_fates_enumerated() {
        for model in [
            "msg-quorum-ack-loss",
            "msg-breaker-probe",
            "msg-dup-idempotence",
        ] {
            let out = run_line(&format!("modelcheck --model {model} --msg true")).unwrap();
            assert!(out.contains("pass"), "{model} --msg did not pass:\n{out}");
            assert!(
                out.contains("(exhaustive)"),
                "{model} --msg truncated:\n{out}"
            );
        }
    }

    /// The linearizability acceptance case: the three history mutants
    /// pass *exhaustively* under plain exploration (their corruption is
    /// invisible to state assertions — only the caller-visible order of
    /// invocations and responses is wrong, and every schedule was
    /// checked to prove it) and are caught under `--lincheck` with a
    /// minimal witness that verifies standalone and a trace that
    /// replays byte-identically.
    #[test]
    fn modelcheck_lincheck_mode_catches_what_state_asserts_provably_miss() {
        for model in [
            "lin-ack-before-log-bug",
            "lin-stale-read-bug",
            "lin-heal-restamp-bug",
        ] {
            let plain = run_line(&format!("modelcheck --model {model}")).unwrap();
            assert!(
                plain.contains("pass"),
                "{model} should pass without --lincheck:\n{plain}"
            );
            assert!(
                plain.contains("(exhaustive)"),
                "{model} plain pass must be exhaustive to prove the miss:\n{plain}"
            );
            assert!(
                plain.contains("history mutant"),
                "{model} report lacks the history-mutant annotation:\n{plain}"
            );

            let out = run_line(&format!("modelcheck --model {model} --lincheck true")).unwrap();
            assert!(
                out.contains("caught"),
                "{model} --lincheck not caught:\n{out}"
            );
            assert!(
                out.contains("not linearizable"),
                "{model} counterexample is not a linearizability violation:\n{out}"
            );

            // The witness is self-contained evidence: `ech-check lincheck
            // --witness` re-checks minimality, canonical form, and
            // non-linearizability without re-running the schedule.
            let witness = out
                .lines()
                .find_map(|l| l.split("witness: ").nth(1))
                .expect("report carries an l1 witness");
            assert!(
                witness.starts_with(&format!("l1:{model}:")),
                "witness is not in the l1 schema: {witness}"
            );
            let verified = run_line(&format!("lincheck --witness {witness}")).unwrap();
            assert!(
                verified.contains("witness verified"),
                "{model} witness did not verify:\n{verified}"
            );

            // The trace replays the violation byte-identically, twice.
            // Replay needs `--lincheck true`: the trace pins the
            // schedule, the flag re-arms the history check on it.
            let trace_line = out
                .lines()
                .find(|l| l.trim_start().starts_with("trace: "))
                .expect("report carries a trace");
            let trace = trace_line.trim_start().trim_start_matches("trace: ");
            let replay_cmd = format!("modelcheck --replay {trace} --lincheck true");
            let first = run_line(&replay_cmd).unwrap();
            let second = run_line(&replay_cmd).unwrap();
            assert!(
                first.contains("violation reproduced"),
                "{model} replay lost the violation:\n{first}"
            );
            assert!(
                first.contains("not linearizable"),
                "{model} replay reproduced a different failure:\n{first}"
            );
            assert_eq!(first, second, "{model} replay is not deterministic");

            // Without the flag the same schedule is silent — the
            // violation lives in the history, not the state.
            let unarmed = run_line(&format!("modelcheck --replay {trace}")).unwrap();
            assert!(
                unarmed.contains("no violation"),
                "{model} replay without --lincheck should be silent:\n{unarmed}"
            );
        }
    }

    /// Histories recorded from the correct-protocol models are
    /// linearizable on every schedule: `--lincheck` adds the check
    /// without flipping a single verdict. (CI sweeps all models; this
    /// spot-checks one model per API family to keep the test fast.)
    #[test]
    fn modelcheck_lincheck_passes_on_correct_models() {
        for (model, extra) in [
            ("publish-vs-read", ""),
            ("quorum-write-faults", ""),
            ("reintegrate-vs-resize", ""),
            ("msg-dup-idempotence", " --msg true"),
        ] {
            let out = run_line(&format!(
                "modelcheck --model {model}{extra} --lincheck true"
            ))
            .unwrap();
            assert!(
                out.contains("pass"),
                "{model} --lincheck did not pass:\n{out}"
            );
            assert!(
                out.contains("(exhaustive)"),
                "{model} --lincheck truncated:\n{out}"
            );
            assert!(
                out.contains("histories lincheck-verified"),
                "{model} report does not state histories were checked:\n{out}"
            );
        }
    }

    /// `--model` selects by wildcard and errors when nothing matches.
    #[test]
    fn modelcheck_models_glob_selects_and_rejects() {
        let out = run_line("modelcheck --model lin-*-bug --lincheck true").unwrap();
        for model in [
            "lin-ack-before-log-bug",
            "lin-stale-read-bug",
            "lin-heal-restamp-bug",
        ] {
            assert!(out.contains(model), "glob missed {model}:\n{out}");
        }
        assert!(
            !out.contains("publish-vs-read"),
            "glob over-matched:\n{out}"
        );

        let err = run_line("modelcheck --model zzz-*").unwrap_err();
        assert!(
            err.0.contains("matches no model"),
            "empty glob match does not explain itself: {}",
            err.0
        );
    }

    /// The standalone history harness is a pure function of its seed:
    /// identical invocations render identical linearizable reports, and
    /// parameters reshape the scripted workload.
    #[test]
    fn lincheck_smoke_is_deterministic_and_linearizable() {
        let a = run_line("lincheck").unwrap();
        let b = run_line("lincheck").unwrap();
        assert_eq!(a, b, "lincheck smoke is not deterministic");
        assert!(a.contains("linearizable"), "smoke not linearizable:\n{a}");
        // Frozen as a golden file: a refactor of the data path
        // reproduces the report byte for byte or says why not.
        assert_eq!(a, include_str!("../golden/lincheck_default.txt"));
        let wide = run_line("lincheck --seed 99 --ops 300 --keys 6").unwrap();
        assert!(wide.contains("6 keys"), "params ignored:\n{wide}");
        assert!(wide.contains("linearizable"), "not linearizable:\n{wide}");
        assert!(run_line("lincheck --ops 0").is_err());
        assert!(run_line("lincheck --keys 0").is_err());
    }

    /// Witness verification is a real gate: corrupted or padded
    /// witnesses are rejected with a reason, not waved through.
    #[test]
    fn lincheck_witness_rejects_corruption() {
        assert!(run_line("lincheck --witness not-a-witness").is_err());
        // A linearizable history is not a witness of anything.
        let err = run_line("lincheck --witness l1:demo:i0.p1=v0/r0.ok/i1.g1/r1.v0").unwrap_err();
        assert!(
            err.0.contains("witness rejected"),
            "linearizable 'witness' accepted: {}",
            err.0
        );
    }
    #[test]
    fn bench_rejects_bad_invocations() {
        let err = run_line("bench").unwrap_err();
        assert!(err.0.contains("available: modelcheck"), "{}", err.0);
        assert!(run_line("bench warp").is_err());
        assert!(run_line("bench placement").is_err());
        assert!(run_line("bench modelcheck extra").is_err());
        assert!(run_line("bench modelcheck --bogus 1").is_err());
        assert!(run_line("bench modelcheck --check-against /no/such/file --smoke true").is_err());
    }
}
