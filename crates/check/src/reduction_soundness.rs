//! Reduction soundness: the partial-order reduction must be invisible
//! in verdicts.
//!
//! For every registered model, in every mode it is meaningful in (SC,
//! weak memory, message fates when the model declares a budget), the
//! reduced explorer and the brute-force DFS (`--no-reduce`) must agree:
//! safe models stay safe and exhausted, every seeded mutant is caught
//! on both sides, and the counterexamples both sides report describe
//! the *same* violation once canonically replayed (replay bypasses
//! reduction, so it is the common ground: each side's trace must
//! reproduce its reported failure byte-identically, and the two
//! reproduced violations must match). Every exploration runs twice and
//! the runs are compared field-for-field — the in-process equivalent of
//! the CI job's `run twice and cmp` determinism gate.
//!
//! This suite is the empirical backstop for the sleep-set + backtrack
//! machinery: a dependence relation that is too coarse only wastes
//! schedules, but one that is too fine prunes a real interleaving, and
//! that shows up here as a mutant caught on one side only.

use crate::mc_models::{Model, MODELS};
use ech_modelcheck::{explore, parse_trace, replay, Config, Report};

const MAX_SCHEDULES: usize = 500_000;

fn config(m: &Model, weak: bool, msg: bool, reduce: bool) -> Config {
    Config {
        max_preemptions: m.bound,
        max_schedules: MAX_SCHEDULES,
        weak,
        msg_budget: if msg { m.msg_budget } else { 0 },
        reduce,
    }
}

/// Every observable field of a report, for exact run-to-run comparison.
fn fingerprint(r: &Report) -> String {
    format!(
        "model={} schedules={} blocked={} exhausted={} failure={:?}",
        r.model, r.schedules, r.blocked, r.exhausted, r.failure
    )
}

/// Replay `trace` (reduction-free by construction) and return the
/// reproduced report.
fn canonical_replay(m: &'static Model, trace: &str) -> Report {
    let parsed = parse_trace(trace).expect("sweep-reported trace must parse");
    assert_eq!(parsed.model, m.name, "trace names the wrong model");
    let cfg = Config {
        max_preemptions: parsed.bound,
        max_schedules: 1,
        weak: parsed.weak,
        msg_budget: parsed.msg_budget,
        reduce: false,
    };
    replay(m.name, &cfg, parsed.prefix, |env| m.build(env))
}

/// The modes a model participates in: SC and weak always, message
/// fates only when the model declares a budget.
fn modes(m: &Model) -> Vec<(bool, bool)> {
    let mut v = vec![(false, false), (true, false)];
    if m.msg_budget > 0 {
        v.push((false, true));
    }
    v
}

#[test]
fn reduced_and_full_exploration_agree_everywhere() {
    for m in MODELS {
        for (weak, msg) in modes(m) {
            let label = format!(
                "{} ({}{})",
                m.name,
                if weak { "weak" } else { "sc" },
                if msg { ", msg" } else { "" }
            );
            // Each exploration twice: determinism first, then verdicts.
            let reduced = explore(m.name, &config(m, weak, msg, true), |env| m.build(env));
            let reduced2 = explore(m.name, &config(m, weak, msg, true), |env| m.build(env));
            assert_eq!(
                fingerprint(&reduced),
                fingerprint(&reduced2),
                "{label}: reduced exploration is not deterministic"
            );
            let full = explore(m.name, &config(m, weak, msg, false), |env| m.build(env));
            let full2 = explore(m.name, &config(m, weak, msg, false), |env| m.build(env));
            assert_eq!(
                fingerprint(&full),
                fingerprint(&full2),
                "{label}: full exploration is not deterministic"
            );

            let expect = m.expects_failure(weak, msg, false);
            assert_eq!(
                reduced.failure.is_some(),
                expect,
                "{label}: reduced verdict diverges from the declared expectation"
            );
            assert_eq!(
                full.failure.is_some(),
                expect,
                "{label}: full verdict diverges from the declared expectation"
            );
            // Mutant runs stop at the first violation, so only safe
            // models can (and must) cover their whole bounded space.
            assert!(
                expect || (reduced.exhausted && full.exhausted),
                "{label}: exploration hit the schedule cap — bounds are miscalibrated"
            );
            assert!(
                reduced.schedules <= full.schedules || expect,
                "{label}: reduction explored more schedules than brute force \
                 on a safe model ({} > {})",
                reduced.schedules,
                full.schedules
            );

            // Mutants: canonically replay both sides' first
            // counterexamples. Each must reproduce byte-identically,
            // and both must describe the same violation (the reduced
            // DFS may surface a different — equivalent-severity —
            // schedule first, but never a different bug).
            if let (Some(rf), Some(ff)) = (&reduced.failure, &full.failure) {
                let rr = canonical_replay(m, &rf.trace);
                let rr_failure = rr
                    .failure
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: reduced counterexample did not replay"));
                assert_eq!(
                    rr_failure.trace, rf.trace,
                    "{label}: reduced counterexample replay is not byte-identical"
                );
                assert_eq!(
                    rr_failure.message, rf.message,
                    "{label}: reduced counterexample replay changed the violation"
                );

                let fr = canonical_replay(m, &ff.trace);
                let fr_failure = fr
                    .failure
                    .as_ref()
                    .unwrap_or_else(|| panic!("{label}: full counterexample did not replay"));
                assert_eq!(
                    fr_failure.trace, ff.trace,
                    "{label}: full counterexample replay is not byte-identical"
                );
                assert_eq!(
                    rr_failure.message, fr_failure.message,
                    "{label}: reduced and full sweeps caught different violations"
                );
            }
        }
    }
}
