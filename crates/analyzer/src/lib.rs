//! `ech-analyzer`: a dependency-free static analyzer for this
//! workspace's invariants.
//!
//! Ten rule families (see `DESIGN.md` §9):
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
//! - **D10 forbidden text by path** — a table of retired names and
//!   patterns (copied mutant bodies, a second retry runner, the string
//!   header key, the dirty-entry text codec, the placement cache, a
//!   locked view, a second recorder naming site, retired extensions and
//!   uncalled helpers), each banned from the paths it once lived in,
//!   matched in raw text like D9.
//!
//! Any finding fails the run. Findings carry stable line-number-free
//! keys; an inline `// ech-allow(<rule>): reason` comment is the only
//! way to suppress one, for one line.

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
