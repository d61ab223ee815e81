//! `ech-analyzer`: a dependency-free static analyzer for this
//! workspace's invariants.
//!
//! Nine rule families (see `DESIGN.md` §9):
//!
//! - **D1 determinism** — no wall clocks, OS entropy or order-sensitive
//!   hash iteration in seed-deterministic code (placement, sim, trace
//!   synthesis, fault injection).
//! - **D2 no-panic data path** — no `unwrap`/`expect`/`panic!`-family
//!   macros/indexing in the `Cluster` put/get/repair/reintegration call
//!   graph.
//! - **D3 retry exhaustiveness** — every data-path error variant is
//!   explicitly classified retryable-or-permanent in `cluster::retry`,
//!   with no wildcard arms.
//! - **D4 lock discipline** — no lock-order cycles, no locks held
//!   across retry/fault-injection points.
//! - **D5 atomic-ordering discipline** — `Ordering::Relaxed` only on
//!   statistics counters, classified by their declared constructor
//!   (`counter_u64`/`counter_observed_u64`); raw `std::sync` primitives
//!   banned outside the `sync` facade the model checker instruments.
//! - **D6 publish order** — header stamping only after the new view is
//!   stored on writer paths; placement-cache consults only under a
//!   pinned view. Publication and pin points are derived from
//!   `ArcSwap`-typed field declarations, not receiver names.
//! - **D7 RPC choke-point discipline** — `StorageNode` I/O methods
//!   reachable from the `Cluster` data path are called only through the
//!   `Cluster::rpc` choke point (the op closure handed to `rpc(..)` is
//!   the sanctioned direct call); a bypass dodges the breaker, the
//!   fault fabric and the model checker's message scheduler.
//! - **D8 deadline propagation** — every function that issues rpc sends
//!   holds an operation budget (a `Deadline` parameter or a minted
//!   `op_deadline()`); deadline-free retry runners and fresh
//!   `Deadline::unbounded()` constructions are banned wherever rpc is
//!   reachable.
//! - **D9 model/mutant pairing** — every entry in the model-checker's
//!   scenario table (`mc_models.rs`) names its role-opposed `pair`
//!   (correct protocol ↔ seeded mutant), the pairing resolves and
//!   crosses roles, and every mutant is quoted elsewhere in the checker
//!   host's sources (`crates/check/src`) by the replay regression test
//!   pinning its counterexample.
//!
//! Findings carry stable line-number-free keys; a checked-in baseline
//! (`analyzer-baseline.txt`) records accepted debt and `--deny-new`
//! gates CI on anything not in it. Inline
//! `// ech-allow(<rule>): reason` comments suppress individual lines.

pub mod baseline;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::Finding;

/// One workspace source file (path + contents), the analyzer's input.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Full file text.
    pub text: String,
}

/// Analyze a set of source files; returns unsuppressed findings sorted
/// by (file, line, rule) with occurrence-stable keys.
pub fn analyze(files: &[SourceFile]) -> Vec<Finding> {
    let units = rules::build_units(files);
    rules::run_all(&units)
}

/// Collect `crates/*/src/**/*.rs` under `root`, sorted by path.
pub fn collect_workspace_sources(root: &Path) -> std::io::Result<Vec<SourceFile>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut paths)?;
        }
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for p in paths {
        let text = std::fs::read_to_string(&p)?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        out.push(SourceFile { path: rel, text });
    }
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        if p.is_dir() {
            walk_rs(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// CLI entry point shared by the `ech-analyzer` binary and `ech lint`.
/// Returns the process exit code.
pub fn run_cli(args: &[String]) -> i32 {
    let mut root = PathBuf::from(".");
    let mut baseline_path: Option<PathBuf> = None;
    let mut deny_new = false;
    let mut write_baseline = false;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" if i + 1 < args.len() => {
                root = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--baseline" if i + 1 < args.len() => {
                baseline_path = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--deny-new" => {
                deny_new = true;
                i += 1;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            "--write-baseline" => {
                write_baseline = true;
                i += 1;
            }
            "--help" | "-h" => {
                print_help();
                return 0;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("analyzer-baseline.txt"));
    let files = match collect_workspace_sources(&root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!(
                "error: cannot read workspace sources under {}: {e}",
                root.display()
            );
            return 2;
        }
    };
    let findings = analyze(&files);
    if write_baseline {
        let text = baseline::render(&findings);
        if let Err(e) = std::fs::write(&baseline_path, text) {
            eprintln!("error: cannot write {}: {e}", baseline_path.display());
            return 2;
        }
        println!(
            "wrote {} finding(s) to {}",
            findings.len(),
            baseline_path.display()
        );
        return 0;
    }
    let known = std::fs::read_to_string(&baseline_path)
        .map(|t| baseline::parse(&t))
        .unwrap_or_default();
    let delta = baseline::diff(&findings, &known);
    if json {
        // Machine-readable report: same findings, same exit-code
        // semantics, one JSON object on stdout (hand-rendered — the
        // analyzer stays dependency-free).
        let rows: Vec<String> = findings
            .iter()
            .map(|f| {
                format!(
                    "    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"key\": \"{}\", \
                     \"baselined\": {}, \"message\": \"{}\"}}",
                    f.rule,
                    json_escape(&f.file),
                    f.line,
                    json_escape(&f.key),
                    known.contains(&f.key),
                    json_escape(&f.message)
                )
            })
            .collect();
        let stale: Vec<String> = delta
            .stale
            .iter()
            .map(|k| format!("\"{}\"", json_escape(k)))
            .collect();
        println!(
            "{{\n  \"findings\": [\n{}\n  ],\n  \"new\": {},\n  \"stale\": [{}]\n}}",
            rows.join(",\n"),
            delta.new.len(),
            stale.join(", ")
        );
    } else {
        for f in &findings {
            let status = if known.contains(&f.key) {
                "warning"
            } else {
                "error"
            };
            println!("{status}[{}]: {}", f.rule, f.message);
            println!("  --> {}:{}", f.file, f.line);
            println!("  key: {}", f.key);
        }
        for k in &delta.stale {
            println!("note: baseline entry no longer produced (stale): {k}");
        }
        println!(
            "{} finding(s): {} baselined, {} new, {} stale baseline entr(ies)",
            findings.len(),
            findings.len() - delta.new.len(),
            delta.new.len(),
            delta.stale.len()
        );
    }
    if deny_new && (!delta.new.is_empty() || !delta.stale.is_empty()) {
        if !delta.new.is_empty() {
            eprintln!(
                "error: {} new finding(s) not in {} — fix them, add an \
                 `// ech-allow(<rule>): reason`, or regenerate the baseline",
                delta.new.len(),
                baseline_path.display()
            );
        }
        if !delta.stale.is_empty() {
            eprintln!(
                "error: {} stale baseline entr(ies) in {} — debt was paid, \
                 regenerate the baseline to lock in the improvement",
                delta.stale.len(),
                baseline_path.display()
            );
        }
        return 1;
    }
    0
}

/// Minimal JSON string escaping for the `--json` report.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn print_help() {
    println!(
        "ech-analyzer: workspace invariant linter (rules D1-D9)\n\n\
         USAGE: ech-analyzer [--root DIR] [--baseline FILE] [--deny-new] [--write-baseline] [--json]\n\n\
         OPTIONS:\n  \
         --root DIR         workspace root (default: .)\n  \
         --baseline FILE    baseline file (default: <root>/analyzer-baseline.txt)\n  \
         --deny-new         exit 1 on findings absent from the baseline or stale entries\n  \
         --write-baseline   rewrite the baseline from current findings\n  \
         --json             render the report as one JSON object on stdout\n  \
         -h, --help         show this help"
    );
}
