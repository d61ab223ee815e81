//! Self-test over the real workspace: the checked-in baseline must be
//! exact (no new findings, no stale entries), and the inline
//! `ech-allow` suppressions must be doing real work (the code they
//! cover is reachable and would otherwise be flagged).

use std::collections::BTreeSet;
use std::path::PathBuf;

use ech_analyzer::{analyze, baseline, collect_workspace_sources};

fn workspace_root() -> PathBuf {
    // crates/analyzer -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("analyzer lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_matches_checked_in_baseline_exactly() {
    let root = workspace_root();
    let files = collect_workspace_sources(&root).expect("workspace sources readable");
    assert!(
        files.len() > 20,
        "expected a real workspace, got {} files",
        files.len()
    );
    let findings = analyze(&files);
    let text = std::fs::read_to_string(root.join("analyzer-baseline.txt"))
        .expect("analyzer-baseline.txt is checked in at the workspace root");
    let known = baseline::parse(&text);
    let delta = baseline::diff(&findings, &known);
    assert!(
        delta.new.is_empty(),
        "new findings not in the baseline (fix, ech-allow, or regenerate):\n{}",
        delta
            .new
            .iter()
            .map(|f| format!("  {} ({}:{})", f.key, f.file, f.line))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        delta.stale.is_empty(),
        "stale baseline entries (debt was paid — regenerate to lock it in):\n  {}",
        delta.stale.join("\n  ")
    );
}

#[test]
fn suppressions_cover_real_reachable_findings() {
    // Strip every ech-allow marker and re-analyze: the suppressed sites
    // must resurface. This proves (a) the call-graph actually reaches
    // them and (b) the suppressions are what keeps the workspace clean,
    // not dead analysis.
    let root = workspace_root();
    let mut files = collect_workspace_sources(&root).expect("workspace sources readable");
    let baseline_keys: BTreeSet<String> = {
        let text = std::fs::read_to_string(root.join("analyzer-baseline.txt")).unwrap();
        baseline::parse(&text)
    };
    for f in &mut files {
        f.text = f.text.replace("ech-allow(", "ech-denied(");
    }
    let findings = analyze(&files);
    let extra: Vec<_> = findings
        .iter()
        .filter(|f| !baseline_keys.contains(&f.key))
        .collect();
    // The sanctioned wall-clock shim in cluster::fault (D1) and the
    // kv_retry budget-exhaustion panics in cluster::dirty_store (D2)
    // must be among the resurfaced findings.
    assert!(
        extra
            .iter()
            .any(|f| f.rule == "D1" && f.file == "crates/cluster/src/fault.rs"),
        "stripping ech-allow must resurface the SystemClock D1 sites: {extra:?}"
    );
    assert!(
        extra
            .iter()
            .any(|f| f.rule == "D2" && f.file == "crates/cluster/src/dirty_store.rs"),
        "stripping ech-allow must resurface the kv_retry D2 panics \
         (is the call graph still reaching dirty_store?): {extra:?}"
    );
}

#[test]
fn d9_reads_the_real_scenario_table() {
    // Strip every `pair:` field from the real table and re-analyze: a
    // missing-pair finding per scenario must surface. This proves D9
    // still finds the table after it moves — a stale path would make
    // the rule return early and check nothing, silently.
    let root = workspace_root();
    let mut files = collect_workspace_sources(&root).expect("workspace sources readable");
    let table = files
        .iter_mut()
        .find(|f| f.path.ends_with("/mc_models.rs"))
        .expect("the workspace has a scenario table");
    let scenarios = table.text.matches(" pair: \"").count();
    assert!(
        scenarios > 20,
        "expected the real table, got {scenarios} pairs"
    );
    table.text = table.text.replace(" pair: \"", " peer: \"");
    let missing = analyze(&files)
        .iter()
        .filter(|f| f.rule == "D9" && f.key.contains(" missing-pair"))
        .count();
    assert_eq!(
        missing, scenarios,
        "stripping every `pair:` must resurface one D9 finding per scenario"
    );
}

#[test]
fn every_suppression_in_the_workspace_carries_a_reason() {
    let root = workspace_root();
    let files = collect_workspace_sources(&root).expect("workspace sources readable");
    for f in &files {
        if f.path.starts_with("crates/analyzer/") {
            continue; // the analyzer's own sources mention the syntax in docs/tests
        }
        let lexed = ech_analyzer::lexer::lex(&f.text);
        for s in &lexed.suppressions {
            assert!(
                !s.reason.trim().is_empty(),
                "{}:{}: ech-allow({}) has no reason — justify the exemption",
                f.path,
                s.line,
                s.rules.join(",")
            );
        }
    }
}
