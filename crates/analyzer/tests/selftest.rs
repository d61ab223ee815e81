//! Self-test over the real workspace: it must have no findings, the
//! inline `ech-allow` suppressions must be doing real work (the code
//! they cover is reachable and would otherwise be flagged), and the
//! table-driven rules D9 and D10 must find the real files they check.

use std::path::PathBuf;

use ech_analyzer::rules::{D10Except, D10_ROWS};
use ech_analyzer::{analyze, collect_workspace_sources};

fn workspace_root() -> PathBuf {
    // crates/analyzer -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("analyzer lives two levels below the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_no_findings() {
    let files = collect_workspace_sources(&workspace_root()).expect("workspace sources readable");
    assert!(
        files.len() > 20,
        "expected a real workspace, got {} files",
        files.len()
    );
    let findings = analyze(&files);
    assert!(
        findings.is_empty(),
        "the workspace must lint clean (fix, or `ech-allow` with a reason):\n{}",
        findings
            .iter()
            .map(|f| format!("  {} ({}:{})", f.key, f.file, f.line))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn suppressions_cover_real_reachable_findings() {
    // Strip every ech-allow marker and re-analyze: the suppressed sites
    // must resurface. This proves (a) the call-graph actually reaches
    // them and (b) the suppressions are what keeps the workspace clean,
    // not dead analysis.
    let mut files =
        collect_workspace_sources(&workspace_root()).expect("workspace sources readable");
    for f in &mut files {
        f.text = f.text.replace("ech-allow(", "ech-denied(");
    }
    let extra = analyze(&files);
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
    let mut files =
        collect_workspace_sources(&workspace_root()).expect("workspace sources readable");
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
fn d10_reads_the_real_workspace() {
    // Append each row's needle as a comment to a real file the row
    // covers: exactly one D10 finding. Append it to a real file the row
    // does not cover: none. A mistyped scope would check nothing,
    // silently, and fail here instead.
    let files = collect_workspace_sources(&workspace_root()).expect("workspace sources readable");
    let d10_hits = |path: &str, needle: &str| {
        let mut files = files.clone();
        let f = files
            .iter_mut()
            .find(|f| f.path == path)
            .expect("picked from the workspace");
        f.text.push_str(&format!("\n// {needle}\n"));
        analyze(&files)
            .into_iter()
            .filter(|f| f.rule == "D10")
            .map(|f| f.file)
            .collect::<Vec<_>>()
    };
    for row in D10_ROWS {
        let inside = files
            .iter()
            .find(|f| row.covers(&f.path))
            .unwrap_or_else(|| panic!("`{}`: no real file under {}", row.needle, row.scope));
        assert_eq!(
            d10_hits(&inside.path, row.needle),
            [inside.path.as_str()],
            "`{}` appended to {}",
            row.needle,
            inside.path
        );
        // The exempt file where a row has one, else the first file
        // out of scope (for the `crates/*/src/` rows, the table itself).
        let outside = files
            .iter()
            .find(|f| matches!(row.except, D10Except::File(p) if p == f.path))
            .or_else(|| files.iter().find(|f| !row.covers(&f.path)))
            .expect("some file is out of scope or exempt");
        assert_eq!(
            d10_hits(&outside.path, row.needle),
            Vec::<String>::new(),
            "`{}` appended to {}",
            row.needle,
            outside.path
        );
        // The sanctioned spelling is still there: the retry facade has
        // its one runner, the recorder its one facade.
        match row.except {
            D10Except::Nowhere => {}
            D10Except::File(path) => assert!(
                files
                    .iter()
                    .any(|f| f.path == path && f.text.contains(row.needle)),
                "{path} no longer names `{}`",
                row.needle
            ),
            D10Except::Word(word) => assert!(
                files
                    .iter()
                    .any(|f| row.covers(&f.path) && f.text.contains(word)),
                "no `{word}` under {}",
                row.scope
            ),
        }
    }
}

#[test]
fn every_suppression_in_the_workspace_carries_a_reason() {
    let files = collect_workspace_sources(&workspace_root()).expect("workspace sources readable");
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
