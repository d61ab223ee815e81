//! The ten rule families (D1–D10) over parsed source files.
//!
//! Each rule produces [`Finding`]s with a stable, line-number-free
//! `key`, which tests select findings by, plus a 1-based line for
//! human-facing diagnostics.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{suppression_cover, Lexed, TokKind, Token};
use crate::parse::{matching_brace, parse, FnInfo, ParsedFile};
use crate::SourceFile;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Rule id (`"D1"`..`"D10"`).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Stable key (no line numbers).
    pub key: String,
    /// Human-readable message.
    pub message: String,
}

/// A lexed+parsed file ready for rule scanning.
pub struct Unit {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Token stream and suppressions.
    pub lexed: Lexed,
    /// Item structure.
    pub parsed: ParsedFile,
    /// Raw file text. The lexer erases string-literal contents, so
    /// rules that key on literal values (D9 reads model names out of
    /// `Model { name: "…" }` tables, D10 matches text) scan this instead.
    pub text: String,
}

/// Lex and parse every source file.
pub fn build_units(files: &[SourceFile]) -> Vec<Unit> {
    files
        .iter()
        .map(|f| {
            let lexed = crate::lexer::lex(&f.text);
            let parsed = parse(&lexed);
            Unit {
                path: f.path.clone(),
                lexed,
                parsed,
                text: f.text.clone(),
            }
        })
        .collect()
}

/// Is `line` in `unit` suppressed for `rule`?
fn suppressed(unit: &Unit, rule: &str, line: u32) -> bool {
    unit.lexed.suppressions.iter().any(|s| {
        if !s.rules.iter().any(|r| r == rule) {
            return false;
        }
        let (own, next) = suppression_cover(&unit.lexed, s);
        own == line || next == Some(line)
    })
}

/// Assign `#occ` occurrence suffixes so identical keys stay distinct
/// and stable in declaration order.
fn finalize_keys(findings: &mut [Finding]) {
    let mut seen: BTreeMap<String, u32> = BTreeMap::new();
    for f in findings.iter_mut() {
        let n = seen.entry(f.key.clone()).or_insert(0);
        f.key = format!("{}#{}", f.key, n);
        *n += 1;
    }
}

/// Run every rule over the units; returns unsuppressed findings sorted
/// by (file, line, rule).
pub fn run_all(units: &[Unit]) -> Vec<Finding> {
    let mut findings = Vec::new();
    d1_determinism(units, &mut findings);
    d2_no_panic(units, &mut findings);
    d3_retry_exhaustive(units, &mut findings);
    d4_lock_discipline(units, &mut findings);
    d5_atomic_discipline(units, &mut findings);
    d6_publish_order(units, &mut findings);
    d7_rpc_choke_point(units, &mut findings);
    d8_deadline_propagation(units, &mut findings);
    d9_model_pairing(units, &mut findings);
    d10_forbidden_text(units, &mut findings);
    findings.retain(|f| {
        let unit = units.iter().find(|u| u.path == f.file);
        !unit.is_some_and(|u| suppressed(u, f.rule, f.line))
    });
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    finalize_keys(&mut findings);
    findings
}

// ---------------------------------------------------------------- D1

/// Files whose behaviour must be bit-deterministic under a fixed seed.
fn d1_scoped(path: &str) -> bool {
    path == "crates/core/src/placement.rs"
        || path == "crates/core/src/engine.rs"
        || path.starts_with("crates/sim/src/")
        || path == "crates/traces/src/synth.rs"
        || path == "crates/cluster/src/fault.rs"
        || path == "crates/cluster/src/net.rs"
}

fn d1_determinism(units: &[Unit], out: &mut Vec<Finding>) {
    for u in units.iter().filter(|u| d1_scoped(&u.path)) {
        let t = &u.lexed.tokens;
        // Token ranges belonging to test fns are exempt.
        let test_ranges: Vec<(usize, usize)> = u
            .parsed
            .fns
            .iter()
            .filter(|f| f.is_test)
            .map(|f| f.body)
            .collect();
        let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i <= b);
        for (i, tok) in t.iter().enumerate() {
            if tok.kind != TokKind::Ident || in_test(i) {
                continue;
            }
            let path2 = |a: &str, b: &str| {
                tok.is_ident(a)
                    && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                    && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                    && t.get(i + 3).is_some_and(|x| x.is_ident(b))
            };
            let hit: Option<&str> = if path2("Instant", "now") {
                Some("Instant::now")
            } else if tok.is_ident("SystemTime") {
                Some("SystemTime")
            } else if tok.is_ident("thread_rng") {
                Some("thread_rng")
            } else if path2("thread", "sleep") {
                Some("thread::sleep")
            } else if tok.is_ident("HashMap") || tok.is_ident("HashSet") {
                Some(if tok.text == "HashMap" {
                    "HashMap"
                } else {
                    "HashSet"
                })
            } else {
                None
            };
            if let Some(what) = hit {
                let ctx = enclosing_fn(&u.parsed, i)
                    .map(|f| f.qual.clone())
                    .unwrap_or_else(|| "<item>".into());
                out.push(Finding {
                    rule: "D1",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D1 {} {} {}", u.path, ctx, what),
                    message: format!(
                        "nondeterminism source `{what}` in seed-deterministic code ({ctx}); \
                         use the injected Clock / seeded rng / BTree collections"
                    ),
                });
            }
        }
    }
}

fn enclosing_fn(parsed: &ParsedFile, tok_idx: usize) -> Option<&FnInfo> {
    parsed
        .fns
        .iter()
        .filter(|f| tok_idx >= f.body.0 && tok_idx <= f.body.1)
        .min_by_key(|f| f.body.1 - f.body.0)
}

// ---------------------------------------------------------------- D2

/// Entry points of the data path whose call graph must be panic-free.
const D2_ROOTS: &[&str] = &[
    "Cluster::put",
    "Cluster::put_at",
    "Cluster::get",
    "Cluster::locate",
    "Cluster::reintegrate_batch",
    "Cluster::reintegrate_all",
    "Cluster::heal_dirty",
    "Cluster::repair",
    "Cluster::crash_node",
    "Cluster::revive_node",
    "Cluster::detect_and_mark_crashed",
    "Cluster::is_fully_placed",
    "Cluster::under_replicated",
    "Cluster::node",
    // The network fault plane (`cluster::net`) sits on every data-path
    // send inside `Cluster::rpc`. Its entry points are rooted explicitly
    // rather than relying on call resolution alone: the rpc layer binds
    // the fabric through `if let Some(net) = &self.net` patterns whose
    // receivers only resolve by bare-name fallback, and the no-panic /
    // lock-discipline guarantees must not silently lapse if that
    // fallback ever stops firing.
    "NetFabric::before_send",
    "NetFabric::partition_active",
    "NetFabric::heal_partitions",
    "NetFabric::rpc_timeout",
    "ReplicaBreakers::try_acquire",
    "ReplicaBreakers::record_success",
    "ReplicaBreakers::record_failure",
];

/// Crates whose fns participate in D2/D4 call-graph resolution.
fn graph_scoped(path: &str) -> bool {
    path.starts_with("crates/cluster/src/")
        || path.starts_with("crates/kvstore/src/")
        || path.starts_with("crates/core/src/")
}

/// Method names too generic to resolve by name alone; following them
/// produces false edges (e.g. `Cluster::get` vs `HashMap::get` on a
/// closure-bound receiver). The list only gates the bare-name fallback:
/// typed receivers (declared fields, helper return types, trait
/// objects) resolve before it is consulted, which is why `len` could be
/// dropped from it. The residual under-approximation is documented in
/// DESIGN.md §9.
const CALL_IGNORE: &[&str] = &["get", "clone", "new", "into", "from", "iter"];

struct Graph<'a> {
    /// fn qual -> (unit index, FnInfo)
    fns: BTreeMap<&'a str, (usize, &'a FnInfo)>,
    /// bare name -> quals (for unqualified call resolution)
    by_name: BTreeMap<&'a str, Vec<&'a str>>,
    /// (struct name, field name) -> field's base type, for resolving
    /// `self.<field>.<method>(..)` receivers by declared type.
    fields: BTreeMap<(&'a str, &'a str), &'a str>,
    /// (struct name, field name) -> declared wrapper chain
    /// (outermost-first), for classifying fields by facade type —
    /// e.g. `view: ArcSwap<ClusterView>` maps to `["ArcSwap"]`.
    wrapped: BTreeMap<(&'a str, &'a str), &'a [String]>,
    /// trait name -> implementing types, so a `dyn Trait` receiver fans
    /// out to every impl that defines the method.
    trait_impls: BTreeMap<&'a str, Vec<&'a str>>,
}

fn build_graph(units: &[Unit]) -> Graph<'_> {
    let mut fns: BTreeMap<&str, (usize, &FnInfo)> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut fields: BTreeMap<(&str, &str), &str> = BTreeMap::new();
    let mut wrapped: BTreeMap<(&str, &str), &[String]> = BTreeMap::new();
    let mut trait_impls: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (ui, u) in units.iter().enumerate() {
        if !graph_scoped(&u.path) {
            continue;
        }
        for f in &u.parsed.fns {
            if f.is_test {
                continue;
            }
            fns.entry(f.qual.as_str()).or_insert((ui, f));
            by_name.entry(f.name.as_str()).or_default().push(&f.qual);
        }
        for s in &u.parsed.structs {
            for (fname, ftype) in &s.fields {
                fields
                    .entry((s.name.as_str(), fname.as_str()))
                    .or_insert(ftype.as_str());
            }
            for (fname, chain) in &s.wrapped {
                wrapped
                    .entry((s.name.as_str(), fname.as_str()))
                    .or_insert(chain.as_slice());
            }
        }
        for imp in &u.parsed.impls {
            if let Some(tr) = &imp.trait_name {
                trait_impls
                    .entry(tr.as_str())
                    .or_default()
                    .push(imp.type_name.as_str());
            }
        }
    }
    for tys in trait_impls.values_mut() {
        tys.sort_unstable();
        tys.dedup();
    }
    Graph {
        fns,
        by_name,
        fields,
        wrapped,
        trait_impls,
    }
}

/// Guard/handle hops that forward method calls to the wrapped value:
/// `self.dirty.clone().push_back(..)` still targets `KvDirtyTable`.
const RECEIVER_HOPS: &[&str] = &[
    "lock",
    "read",
    "write",
    "clone",
    "load",
    "peek",
    "borrow",
    "borrow_mut",
];

/// Field receiver of the method call at token `i`, if the receiver is
/// `self.<field>` — directly, through one [`RECEIVER_HOPS`] hop, or via
/// a let-bound alias (`let d = self.dirty.clone(); d.push_back(..)`).
fn receiver_field(t: &[Token], i: usize, aliases: &BTreeMap<String, String>) -> Option<String> {
    if i < 2 || !t[i - 1].is_punct('.') {
        return None;
    }
    // `k` is the dot introducing the method; hop back over one
    // `.lock()`-style link in the chain.
    let mut k = i - 1;
    if k >= 4
        && t[k - 1].is_punct(')')
        && t[k - 2].is_punct('(')
        && t[k - 3].kind == TokKind::Ident
        && RECEIVER_HOPS.contains(&t[k - 3].text.as_str())
        && t[k - 4].is_punct('.')
    {
        k -= 4;
    }
    // `self . field .` — the declared-field receiver.
    if k >= 3
        && t[k - 1].kind == TokKind::Ident
        && t[k - 2].is_punct('.')
        && t[k - 3].is_ident("self")
    {
        return Some(t[k - 1].text.clone());
    }
    // `alias .` — a local bound from `self.<field>` earlier in the body.
    if k >= 1 && t[k - 1].kind == TokKind::Ident && (k < 2 || !t[k - 2].is_punct('.')) {
        return aliases.get(&t[k - 1].text).cloned();
    }
    None
}

/// Locals bound straight off a field: `let [mut] name = self.field ...`.
fn local_aliases(t: &[Token], f: &FnInfo) -> BTreeMap<String, String> {
    let (a, b) = f.body;
    let mut out = BTreeMap::new();
    for i in a..=b.min(t.len().saturating_sub(1)) {
        if !t[i].is_ident("let") {
            continue;
        }
        let mut k = i + 1;
        if t.get(k).is_some_and(|x| x.is_ident("mut")) {
            k += 1;
        }
        let Some(name) = t.get(k).filter(|x| x.kind == TokKind::Ident) else {
            continue;
        };
        if t.get(k + 1).is_some_and(|x| x.is_punct('='))
            && !t.get(k + 2).is_some_and(|x| x.is_punct('='))
            && t.get(k + 2).is_some_and(|x| x.is_ident("self"))
            && t.get(k + 3).is_some_and(|x| x.is_punct('.'))
            && t.get(k + 4).is_some_and(|x| x.kind == TokKind::Ident)
        {
            out.insert(name.text.clone(), t[k + 4].text.clone());
        }
    }
    out
}

/// How a method call's receiver typed out.
enum Recv<'a> {
    /// Declared type found and it defines the method in graph scope —
    /// several targets when the receiver is a trait object.
    Methods(Vec<&'a str>),
    /// Declared type found but the method is foreign to the graph (a
    /// std/derived method): no edge, and no name-based guessing either.
    External,
    /// Receiver type undetermined; name heuristics may proceed.
    Unknown,
}

/// Base return type of a `self.helper(..)[?].method(..)` receiver: one
/// hop through a helper defined on the enclosing type, `?`-transparent
/// because [`RET_WRAPPERS`](crate::parse) strips `Result`/`Option`.
fn helper_ret_base(g: &Graph<'_>, t: &[Token], i: usize, f: &FnInfo) -> Option<String> {
    if i < 1 || !t[i - 1].is_punct('.') {
        return None;
    }
    let mut k = i - 1; // the dot introducing the method
    if k >= 1 && t[k - 1].is_punct('?') {
        k -= 1;
    }
    if k < 1 || !t[k - 1].is_punct(')') {
        return None;
    }
    // Match the helper's argument parens backwards.
    let mut depth = 0i32;
    let mut open = None;
    for j in (0..k).rev() {
        if t[j].is_punct(')') {
            depth += 1;
        } else if t[j].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                open = Some(j);
                break;
            }
        }
    }
    let open = open?;
    if open < 3
        || t[open - 1].kind != TokKind::Ident
        || !t[open - 2].is_punct('.')
        || !t[open - 3].is_ident("self")
    {
        return None;
    }
    let owner = f.owner.as_deref()?;
    let helper = format!("{owner}::{}", t[open - 1].text);
    g.fns
        .get(helper.as_str())
        .and_then(|(_, fi)| fi.ret.clone())
}

/// Type the receiver of the method call at `i` by declaration: a
/// `self.<field>` receiver (direct, hopped, or aliased) by the field's
/// declared type, a `self.helper(..)[?]` receiver — or an alias bound
/// from one — by the helper's declared return type.
fn resolve_receiver<'a>(
    g: &Graph<'a>,
    t: &[Token],
    i: usize,
    f: &FnInfo,
    aliases: &BTreeMap<String, String>,
) -> Recv<'a> {
    let owner = f.owner.as_deref();
    let base = receiver_field(t, i, aliases)
        .and_then(|field| {
            let o = owner?;
            g.fields
                .get(&(o, field.as_str()))
                .map(|b| (*b).to_string())
                .or_else(|| {
                    // `let n = self.node(x)?; n.put(..)` — not a field,
                    // but the bound helper's return type is the type.
                    g.fns
                        .get(format!("{o}::{field}").as_str())
                        .and_then(|(_, fi)| fi.ret.clone())
                })
        })
        .or_else(|| helper_ret_base(g, t, i, f));
    let Some(base) = base else {
        return Recv::Unknown;
    };
    let base = if base == "Self" {
        match owner {
            Some(o) => o.to_string(),
            None => return Recv::Unknown,
        }
    } else {
        base
    };
    let m = t[i].text.as_str();
    if let Some((k, _)) = g.fns.get_key_value(format!("{base}::{m}").as_str()) {
        return Recv::Methods(vec![*k]);
    }
    // Trait-object receiver: every implementing type that defines the
    // method is a possible target.
    if let Some(impls) = g.trait_impls.get(base.as_str()) {
        let targets: Vec<&str> = impls
            .iter()
            .filter_map(|ty| {
                g.fns
                    .get_key_value(format!("{ty}::{m}").as_str())
                    .map(|(k, _)| *k)
            })
            .collect();
        if !targets.is_empty() {
            return Recv::Methods(targets);
        }
    }
    Recv::External
}

/// Resolve the call at token `i` (already known to be `name(`-shaped)
/// to its possible graph targets. Typed-receiver resolution decides
/// first; a typed receiver whose method isn't in the graph produces
/// *no* edge rather than falling back to name guessing. Qualified
/// `Type::name(..)` misses are likewise final — falling through would
/// invent edges for std paths like `Vec::new(..)`.
fn resolve_call<'a>(
    g: &Graph<'a>,
    t: &[Token],
    i: usize,
    f: &FnInfo,
    aliases: &BTreeMap<String, String>,
) -> Vec<&'a str> {
    match resolve_receiver(g, t, i, f, aliases) {
        Recv::Methods(ms) => return ms,
        Recv::External => return Vec::new(),
        Recv::Unknown => {}
    }
    let name = t[i].text.as_str();
    if i >= 3 && t[i - 1].is_punct(':') && t[i - 2].is_punct(':') && t[i - 3].kind == TokKind::Ident
    {
        let ty = t[i - 3].text.as_str();
        let ty = match (ty, f.owner.as_deref()) {
            ("Self", Some(o)) => o,
            ("Self", None) => return Vec::new(),
            _ => ty,
        };
        return g
            .fns
            .get_key_value(format!("{ty}::{name}").as_str())
            .map(|(k, _)| vec![*k])
            .unwrap_or_default();
    }
    if CALL_IGNORE.contains(&name) {
        return Vec::new();
    }
    // Bare-name fallback: prefer a same-owner method, else accept a
    // unique global match.
    if let Some(cands) = g.by_name.get(name) {
        if let Some(owner) = &f.owner {
            let own = format!("{owner}::{name}");
            if let Some(q) = cands.iter().find(|q| **q == own) {
                return vec![q];
            }
        }
        if cands.len() == 1 {
            return vec![cands[0]];
        }
    }
    Vec::new()
}

/// Qualified names of fns called from `f`'s body.
fn callees<'a>(units: &[Unit], g: &Graph<'a>, ui: usize, f: &FnInfo) -> Vec<&'a str> {
    let t = &units[ui].lexed.tokens;
    let mut out = Vec::new();
    let (a, b) = f.body;
    let aliases = local_aliases(t, f);
    for i in a..=b.min(t.len().saturating_sub(1)) {
        let tok = &t[i];
        if tok.kind != TokKind::Ident {
            continue;
        }
        // A call looks like `name (` possibly with `::<..>` turbofish —
        // we only need the common `name(` and `name::<` shapes plus
        // `.name(` method calls.
        let next_is_call = t.get(i + 1).is_some_and(|x| x.is_punct('('))
            || (t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| x.is_punct('<')));
        if !next_is_call {
            continue;
        }
        out.extend(resolve_call(g, t, i, f, &aliases));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// All fns reachable from the D2 roots (inclusive).
fn d2_reachable<'a>(units: &[Unit], g: &Graph<'a>) -> BTreeSet<&'a str> {
    let mut reach: BTreeSet<&str> = BTreeSet::new();
    let mut work: Vec<&str> = Vec::new();
    for r in D2_ROOTS {
        if let Some((k, _)) = g.fns.get_key_value(*r) {
            reach.insert(k);
            work.push(k);
        }
    }
    while let Some(q) = work.pop() {
        let (ui, f) = g.fns[q];
        for c in callees(units, g, ui, f) {
            if reach.insert(c) {
                work.push(c);
            }
        }
    }
    reach
}

fn d2_no_panic(units: &[Unit], out: &mut Vec<Finding>) {
    let g = build_graph(units);
    let reach = d2_reachable(units, &g);
    for q in &reach {
        let (ui, f) = g.fns[q];
        let u = &units[ui];
        let t = &u.lexed.tokens;
        let (a, b) = f.body;
        for i in a..=b.min(t.len().saturating_sub(1)) {
            let tok = &t[i];
            let hit: Option<String> = if tok.kind == TokKind::Ident
                && (tok.text == "unwrap" || tok.text == "expect")
                && i > 0
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                Some(format!(".{}()", tok.text))
            } else if tok.kind == TokKind::Ident
                && matches!(
                    tok.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
                && t.get(i + 1).is_some_and(|x| x.is_punct('!'))
            {
                Some(format!("{}!", tok.text))
            } else if tok.is_punct('[')
                && i > 0
                && (t[i - 1].kind == TokKind::Ident
                    || t[i - 1].is_punct(')')
                    || t[i - 1].is_punct(']'))
                // `name[` after an ident that is a type position (e.g.
                // `[u8; 4]` array types start a line or follow `:`/`=`)
                // still matches; indexing heuristic accepts that noise.
                && !t.get(i + 1).is_some_and(|x| x.is_punct(']'))
            {
                Some("indexing[]".into())
            } else {
                None
            };
            if let Some(what) = hit {
                out.push(Finding {
                    rule: "D2",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D2 {} {} {}", u.path, f.qual, what),
                    message: format!(
                        "possible panic `{what}` on the data path (reachable from a \
                         Cluster entry point via {}); return a classified error instead",
                        f.qual
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D3

/// Error enums whose variants must be classified in `cluster::retry`.
const D3_ENUMS: &[(&str, &str)] = &[
    ("ClusterError", "crates/cluster/src/cluster.rs"),
    ("NodeError", "crates/cluster/src/node.rs"),
    ("KvError", "crates/kvstore/src/error.rs"),
    ("PlacementError", "crates/core/src/placement.rs"),
];

fn d3_retry_exhaustive(units: &[Unit], out: &mut Vec<Finding>) {
    let retry = units
        .iter()
        .find(|u| u.path == "crates/cluster/src/retry.rs");
    for (enum_name, def_path) in D3_ENUMS {
        let Some(def_unit) = units.iter().find(|u| u.path == *def_path) else {
            continue;
        };
        let Some(e) = def_unit
            .parsed
            .enums
            .iter()
            .find(|e| e.name == *enum_name && !e.is_test)
        else {
            continue;
        };
        let Some(retry) = retry else {
            out.push(Finding {
                rule: "D3",
                file: def_path.to_string(),
                line: e.line,
                key: format!("D3 {} {} no-retry-module", def_path, enum_name),
                message: format!(
                    "`{enum_name}` has no retry classification: crates/cluster/src/retry.rs \
                     is missing"
                ),
            });
            continue;
        };
        // Find `impl Classify for <enum_name>` in retry.rs.
        let imp = retry
            .parsed
            .impls
            .iter()
            .find(|i| i.trait_name.as_deref() == Some("Classify") && i.type_name == *enum_name);
        let Some(imp) = imp else {
            out.push(Finding {
                rule: "D3",
                file: "crates/cluster/src/retry.rs".into(),
                line: 1,
                key: format!(
                    "D3 crates/cluster/src/retry.rs {} unclassified-enum",
                    enum_name
                ),
                message: format!(
                    "error enum `{enum_name}` ({def_path}) has no `impl Classify` in \
                     cluster::retry — every data-path error must be retryable-or-permanent"
                ),
            });
            continue;
        };
        let t = &retry.lexed.tokens;
        let (a, b) = imp.body;
        // Variants referenced as `EnumName :: Variant` inside the impl.
        let mut mentioned: BTreeSet<&str> = BTreeSet::new();
        let mut wildcard_line = None;
        for i in a..=b.min(t.len().saturating_sub(1)) {
            let tok = &t[i];
            if tok.is_ident(enum_name)
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            {
                if let Some(v) = t.get(i + 3) {
                    if let Some(known) = e
                        .variants
                        .iter()
                        .find(|kv| v.is_ident(kv))
                        .map(|s| s.as_str())
                    {
                        mentioned.insert(known);
                    }
                }
            }
            // `Self :: Variant` also counts.
            if tok.is_ident("Self")
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            {
                if let Some(v) = t.get(i + 3) {
                    if let Some(known) = e
                        .variants
                        .iter()
                        .find(|kv| v.is_ident(kv))
                        .map(|s| s.as_str())
                    {
                        mentioned.insert(known);
                    }
                }
            }
            // Wildcard match arm `_ =>` hides unclassified variants.
            if tok.is_ident("_")
                && t.get(i + 1).is_some_and(|x| x.is_punct('='))
                && t.get(i + 2).is_some_and(|x| x.is_punct('>'))
            {
                wildcard_line.get_or_insert(tok.line);
            }
        }
        if let Some(line) = wildcard_line {
            out.push(Finding {
                rule: "D3",
                file: "crates/cluster/src/retry.rs".into(),
                line,
                key: format!("D3 crates/cluster/src/retry.rs {} wildcard-arm", enum_name),
                message: format!(
                    "wildcard `_ =>` arm in `impl Classify for {enum_name}`: new variants \
                     would silently inherit a class; match every variant explicitly"
                ),
            });
        }
        for v in &e.variants {
            if !mentioned.contains(v.as_str()) {
                out.push(Finding {
                    rule: "D3",
                    file: "crates/cluster/src/retry.rs".into(),
                    line: t.get(a).map_or(1, |x| x.line),
                    key: format!(
                        "D3 crates/cluster/src/retry.rs {} missing-variant {}",
                        enum_name, v
                    ),
                    message: format!(
                        "`{enum_name}::{v}` is not classified in `impl Classify for \
                         {enum_name}` — decide retryable or permanent"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D4

/// Function names that are retry/fault-injection points: holding a lock
/// across a call that can reach one of these risks deadlock with the
/// fault injector's delays and unbounded retry backoff.
const D4_RETRY_POINTS: &[&str] = &["run_counted_deadline", "kv_retry", "before_node_op"];

#[derive(Debug)]
struct LockSite {
    /// Resource name: the ident before the `.lock()/.read()/.write()` dot.
    resource: String,
    /// Token index of the method ident.
    at: usize,
    line: u32,
    /// Token index past which the guard is dead.
    live_until: usize,
}

/// Extract lock acquisitions in `f`'s body with guard liveness ranges.
fn lock_sites(t: &[Token], f: &FnInfo) -> Vec<LockSite> {
    let (a, b) = f.body;
    let b = b.min(t.len().saturating_sub(1));
    let mut out = Vec::new();
    for i in a..=b {
        let tok = &t[i];
        let is_acq = tok.kind == TokKind::Ident
            && matches!(tok.text.as_str(), "lock" | "read" | "write")
            && i > 0
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            && t.get(i + 2).is_some_and(|x| x.is_punct(')'));
        if !is_acq {
            continue;
        }
        // Resource: the ident right before the dot (skip a `self .`
        // prefix so `self.view.read()` names `view`).
        let resource = if i >= 2 && t[i - 2].kind == TokKind::Ident && t[i - 2].text != "self" {
            t[i - 2].text.clone()
        } else if i >= 2 && t[i - 2].is_punct(')') {
            // `shard(key).map.read()` style has the field before `)` —
            // too dynamic; fall back to the method chain's last ident.
            match (a..i).rev().find(|&k| t[k].kind == TokKind::Ident) {
                Some(k) => t[k].text.clone(),
                None => continue,
            }
        } else {
            continue;
        };
        // Is the guard bound with `let NAME = ...`? Walk back to the
        // start of the statement.
        let stmt_start = (a..i)
            .rev()
            .find(|&k| t[k].is_punct(';') || t[k].is_punct('{') || t[k].is_punct('}'))
            .map_or(a, |k| k + 1);
        // A chained call on the lock result (`.read().place_at(..)`)
        // means the guard is a temporary even under a `let` — the
        // binding captures the chained value, and the guard dies at the
        // end of the statement.
        let chained = t.get(i + 3).is_some_and(|x| x.is_punct('.'));
        let bound_name = (!chained && t.get(stmt_start).is_some_and(|x| x.is_ident("let")))
            .then(|| {
                (stmt_start + 1..i)
                    .map(|k| &t[k])
                    .find(|x| x.kind == TokKind::Ident && x.text != "mut")
                    .map(|x| x.text.clone())
            })
            .flatten();
        let live_until = match bound_name {
            Some(name) => {
                // Guard lives to the enclosing block's end or an
                // explicit `drop(name)`.
                let mut depth = 0i32;
                let mut end = b;
                for (k, tk) in t.iter().enumerate().take(b + 1).skip(i) {
                    if tk.is_punct('{') {
                        depth += 1;
                    } else if tk.is_punct('}') {
                        depth -= 1;
                        if depth < 0 {
                            end = k;
                            break;
                        }
                    } else if tk.is_ident("drop")
                        && t.get(k + 1).is_some_and(|x| x.is_punct('('))
                        && t.get(k + 2).is_some_and(|x| x.is_ident(&name))
                    {
                        end = k;
                        break;
                    }
                }
                end
            }
            None => {
                // Temporary guard: dead at the next `;` at depth 0,
                // else at the end of the enclosing block.
                let mut depth = 0i32;
                let mut end = b;
                for (k, tk) in t.iter().enumerate().take(b + 1).skip(i) {
                    if tk.is_punct('{') || tk.is_punct('(') {
                        depth += 1;
                    } else if tk.is_punct('}') || tk.is_punct(')') {
                        depth -= 1;
                        if depth < 0 {
                            end = k;
                            break;
                        }
                    } else if depth <= 0 && tk.is_punct(';') {
                        end = k;
                        break;
                    }
                }
                end
            }
        };
        out.push(LockSite {
            resource,
            at: i,
            line: tok.line,
            live_until,
        });
    }
    out
}

fn d4_lock_discipline(units: &[Unit], out: &mut Vec<Finding>) {
    let g = build_graph(units);
    // Per-fn direct facts.
    struct FnFacts {
        sites: Vec<LockSite>,
        /// (caller site token idx, callee qual)
        calls: Vec<(usize, String)>,
        is_retry_point: bool,
    }
    let mut facts: BTreeMap<&str, FnFacts> = BTreeMap::new();
    for (q, (ui, f)) in &g.fns {
        let u = &units[*ui];
        let t = &u.lexed.tokens;
        let sites = lock_sites(t, f);
        // Call sites with token positions (subset of `callees` logic,
        // position-aware).
        let mut calls = Vec::new();
        let (a, b) = f.body;
        let aliases = local_aliases(t, f);
        for i in a..=b.min(t.len().saturating_sub(1)) {
            let tok = &t[i];
            if tok.kind != TokKind::Ident || !t.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                continue;
            }
            let name = tok.text.as_str();
            if D4_RETRY_POINTS.contains(&name) {
                calls.push((i, format!("<retry:{name}>")));
                continue;
            }
            for k in resolve_call(&g, t, i, f, &aliases) {
                calls.push((i, k.to_string()));
            }
        }
        facts.insert(
            q,
            FnFacts {
                sites,
                calls,
                is_retry_point: D4_RETRY_POINTS.contains(&f.name.as_str()),
            },
        );
    }
    // Fixpoint 1: trans_locks[q] = locks acquired anywhere under q.
    let mut trans_locks: BTreeMap<&str, BTreeSet<String>> = facts
        .iter()
        .map(|(q, f)| {
            (
                *q,
                f.sites
                    .iter()
                    .map(|s| s.resource.clone())
                    .collect::<BTreeSet<_>>(),
            )
        })
        .collect();
    loop {
        let mut changed = false;
        let quals: Vec<&str> = facts.keys().copied().collect();
        for q in &quals {
            let callee_locks: Vec<String> = facts[q]
                .calls
                .iter()
                .filter_map(|(_, c)| trans_locks.get(c.as_str()))
                .flat_map(|s| s.iter().cloned())
                .collect();
            let set = trans_locks.get_mut(q).unwrap();
            for l in callee_locks {
                changed |= set.insert(l);
            }
        }
        if !changed {
            break;
        }
    }
    // Fixpoint 2: reaches_retry[q] = a retry point is reachable from q.
    let mut reaches_retry: BTreeSet<&str> = facts
        .iter()
        .filter(|(_, f)| f.is_retry_point || f.calls.iter().any(|(_, c)| c.starts_with("<retry:")))
        .map(|(q, _)| *q)
        .collect();
    loop {
        let mut changed = false;
        let quals: Vec<&str> = facts.keys().copied().collect();
        for q in &quals {
            if reaches_retry.contains(q) {
                continue;
            }
            if facts[q]
                .calls
                .iter()
                .any(|(_, c)| reaches_retry.contains(c.as_str()))
            {
                reaches_retry.insert(q);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Edges: resource A -> resource B when B is acquired (directly or
    // transitively via a call) while A's guard is live.
    let mut edges: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for (q, f) in &facts {
        let (ui, info) = g.fns[q];
        let u = &units[ui];
        for s in &f.sites {
            // Direct nesting.
            for s2 in &f.sites {
                if s2.at > s.at && s2.at <= s.live_until && s2.resource != s.resource {
                    edges
                        .entry((s.resource.clone(), s2.resource.clone()))
                        .or_insert_with(|| (q.to_string(), s2.line));
                }
            }
            // Via calls made while the guard is live.
            for (ci, callee) in &f.calls {
                if *ci <= s.at || *ci > s.live_until {
                    continue;
                }
                // Held across a retry/fault-injection point?
                if callee.starts_with("<retry:") || reaches_retry.contains(callee.as_str()) {
                    let line = u.lexed.tokens[*ci].line;
                    out.push(Finding {
                        rule: "D4",
                        file: u.path.clone(),
                        line,
                        key: format!(
                            "D4 {} {} lock-across-retry {} {}",
                            u.path,
                            info.qual,
                            s.resource,
                            callee.trim_start_matches("<retry:").trim_end_matches('>')
                        ),
                        message: format!(
                            "lock `{}` held across retry/fault-injection point `{}` in {} — \
                             backoff sleeps while holding the lock",
                            s.resource,
                            callee.trim_start_matches("<retry:").trim_end_matches('>'),
                            info.qual
                        ),
                    });
                }
                if let Some(locks) = trans_locks.get(callee.as_str()) {
                    for l in locks {
                        if *l != s.resource {
                            edges
                                .entry((s.resource.clone(), l.clone()))
                                .or_insert_with(|| (q.to_string(), u.lexed.tokens[*ci].line));
                        }
                    }
                }
            }
        }
    }
    // Cycle detection over the resource graph (DFS).
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let adj: BTreeMap<&String, Vec<&String>> = nodes
        .iter()
        .map(|n| {
            (
                *n,
                edges
                    .keys()
                    .filter(|(a, _)| a == *n)
                    .map(|(_, b)| b)
                    .collect(),
            )
        })
        .collect();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for start in &nodes {
        // Find a cycle through `start` with a simple DFS.
        let mut stack = vec![(*start, vec![(*start).clone()])];
        let mut visited: BTreeSet<&String> = BTreeSet::new();
        while let Some((n, path)) = stack.pop() {
            for m in adj.get(n).into_iter().flatten() {
                if *m == *start && path.len() > 1 {
                    let mut cyc = path.clone();
                    // Canonicalise: rotate so the smallest name leads.
                    let min = cyc.iter().min().unwrap().clone();
                    while cyc[0] != min {
                        cyc.rotate_left(1);
                    }
                    let cyc_key = cyc.join("->");
                    if reported.insert(cyc_key.clone()) {
                        // Attribute the report to the edge that closes
                        // the cycle back to `start`.
                        let (in_fn, line) = edges[&(n.clone(), (*start).clone())].clone();
                        let (ui, _) = g.fns[in_fn.as_str()];
                        out.push(Finding {
                            rule: "D4",
                            file: units[ui].path.clone(),
                            line,
                            key: format!("D4 {} lock-cycle {}", units[ui].path, cyc_key),
                            message: format!(
                                "lock-order cycle {cyc_key} (edge closed in {in_fn}); \
                                 establish a single acquisition order"
                            ),
                        });
                    }
                } else if visited.insert(m) {
                    let mut p = path.clone();
                    p.push((*m).clone());
                    stack.push((m, p));
                }
            }
        }
    }
}

// ---------------------------------------------------------------- D5

/// Files D5 scans: workspace `src/` code, minus the layers that *are*
/// the discipline's machinery — the cfg-switched sync facades
/// (`sync.rs`), the model checker (which implements the instrumented
/// primitives on raw std atomics), and the analyzer itself (whose
/// matchers name these tokens).
fn d5_scoped(path: &str) -> bool {
    path.starts_with("crates/")
        && path.contains("/src/")
        && !path.starts_with("crates/modelcheck/")
        && !path.starts_with("crates/analyzer/")
        && !path.ends_with("/sync.rs")
}

/// Crates routed through the `ech_core::sync` facade: raw `std::sync`
/// primitives here would silently escape model-checker instrumentation.
fn d5_facade_scoped(path: &str) -> bool {
    (path.starts_with("crates/core/src/") || path.starts_with("crates/cluster/src/"))
        && !path.ends_with("/sync.rs")
}

/// `std::sync` items that have a facade equivalent and are therefore
/// banned raw in facade-scoped crates (`Arc`/`mpsc` have none and stay
/// legal).
const D5_RAW_SYNC: &[&str] = &["atomic", "Mutex", "RwLock", "Condvar"];

/// Token index of the `(` opening the innermost call that contains
/// token `i`, scanning back no further than `a`.
fn enclosing_call_open(t: &[Token], a: usize, i: usize) -> Option<usize> {
    let mut depth = 0usize;
    for k in (a..i).rev() {
        if t[k].is_punct(')') {
            depth += 1;
        } else if t[k].is_punct('(') {
            if depth == 0 {
                return Some(k);
            }
            depth -= 1;
        }
    }
    None
}

/// Names bound to atomics constructed via the facade's counter helpers
/// (`counter_u64` / `counter_observed_u64`), workspace-wide: struct
/// fields (`hits: counter_u64(0)`) and locals (`let done =
/// counter_u64(0)`). The *constructor* declares the atomic's role, so
/// the classification survives renames and cross-file access — a
/// counter's `load` in one file no longer needs a `fetch_add` in the
/// same file to be recognised.
fn counter_bindings(units: &[Unit]) -> BTreeSet<&str> {
    let mut counters = BTreeSet::new();
    for u in units {
        let t = &u.lexed.tokens;
        for (i, tok) in t.iter().enumerate() {
            if tok.kind == TokKind::Ident
                && matches!(tok.text.as_str(), "counter_u64" | "counter_observed_u64")
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
                && i >= 2
                && t[i - 2].kind == TokKind::Ident
            {
                // `name: counter_u64(..)` in a struct literal (a second
                // `:` would make it a path) or `name = counter_u64(..)`.
                let is_field = t[i - 1].is_punct(':') && !(i >= 3 && t[i - 3].is_punct(':'));
                let is_binding = t[i - 1].is_punct('=');
                if is_field || is_binding {
                    counters.insert(t[i - 2].text.as_str());
                }
            }
        }
    }
    counters
}

/// D5: atomic-ordering discipline.
///
/// `Ordering::Relaxed` is the *counter* ordering: legal on
/// `fetch_add`/`fetch_sub`, and on a `load`/`store`/`compare_exchange`
/// (a tally that must stay under a bound) whose receiver was
/// constructed via the sync facade's counter helpers ([`counter_bindings`])
/// — the declared constructor, not per-file name pairing, decides what
/// is a counter. Anywhere else a relaxed access on an atomic that other
/// threads order against is a publication bug waiting to happen — use
/// Acquire/Release, or justify with `ech-allow(D5)`.
///
/// Separately, facade-scoped crates must take their primitives from the
/// `sync` facade: a raw `std::sync::{atomic, Mutex, RwLock, Condvar}`
/// path bypasses the model checker's instrumentation.
fn d5_atomic_discipline(units: &[Unit], out: &mut Vec<Finding>) {
    let counters = counter_bindings(units);
    for u in units.iter().filter(|u| d5_scoped(&u.path)) {
        let t = &u.lexed.tokens;
        let test_ranges: Vec<(usize, usize)> = u
            .parsed
            .fns
            .iter()
            .filter(|f| f.is_test)
            .map(|f| f.body)
            .collect();
        let in_test = |i: usize| test_ranges.iter().any(|&(a, b)| i >= a && i <= b);
        for (i, tok) in t.iter().enumerate() {
            if !tok.is_ident("Relaxed")
                || i < 3
                || !t[i - 1].is_punct(':')
                || !t[i - 2].is_punct(':')
                || !t[i - 3].is_ident("Ordering")
                || in_test(i)
            {
                continue;
            }
            let f = enclosing_fn(&u.parsed, i);
            let scan_from = f.map_or(0, |f| f.body.0);
            let method = enclosing_call_open(t, scan_from, i)
                .filter(|&open| open >= 1 && t[open - 1].kind == TokKind::Ident)
                .map(|open| (open, t[open - 1].text.clone()));
            let allowed = match &method {
                Some((_, m)) if m == "fetch_add" || m == "fetch_sub" => true,
                Some((open, m)) if m == "load" || m == "store" || m == "compare_exchange" => {
                    // `<recv>.load/store/compare_exchange(..,
                    // Ordering::Relaxed)` — legal when the receiver is a
                    // declared counter (snapshot reads, counter resets,
                    // bounded tallies).
                    *open >= 3
                        && t[open - 2].is_punct('.')
                        && t[open - 3].kind == TokKind::Ident
                        && counters.contains(t[open - 3].text.as_str())
                }
                _ => false,
            };
            if allowed {
                continue;
            }
            let what = method.map_or_else(|| "<expr>".to_string(), |(_, m)| m);
            let ctx = f.map_or_else(|| "<item>".to_string(), |f| f.qual.clone());
            out.push(Finding {
                rule: "D5",
                file: u.path.clone(),
                line: tok.line,
                key: format!("D5 {} {} relaxed-{}", u.path, ctx, what),
                message: format!(
                    "`Ordering::Relaxed` on `{what}` outside the counter discipline ({ctx}); \
                     non-counter atomics synchronise — use Acquire/Release orderings"
                ),
            });
        }
        if !d5_facade_scoped(&u.path) {
            continue;
        }
        for (i, tok) in t.iter().enumerate() {
            if !tok.is_ident("std")
                || !t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                || !t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                || !t.get(i + 3).is_some_and(|x| x.is_ident("sync"))
                || !t.get(i + 4).is_some_and(|x| x.is_punct(':'))
                || !t.get(i + 5).is_some_and(|x| x.is_punct(':'))
                || in_test(i)
            {
                continue;
            }
            // `std::sync::<item>` or a `std::sync::{..}` group: collect
            // the banned item names referenced.
            let mut hits: Vec<&str> = Vec::new();
            match t.get(i + 6) {
                Some(x) if x.kind == TokKind::Ident => {
                    if let Some(h) = D5_RAW_SYNC.iter().find(|b| x.is_ident(b)) {
                        hits.push(h);
                    }
                }
                Some(x) if x.is_punct('{') => {
                    let close = matching_brace(t, i + 6);
                    for tk in &t[i + 7..close] {
                        if let Some(h) = D5_RAW_SYNC.iter().find(|b| tk.is_ident(b)) {
                            hits.push(h);
                        }
                    }
                }
                _ => {}
            }
            let ctx =
                enclosing_fn(&u.parsed, i).map_or_else(|| "<item>".to_string(), |f| f.qual.clone());
            for h in hits {
                out.push(Finding {
                    rule: "D5",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D5 {} {} raw-std-sync {}", u.path, ctx, h),
                    message: format!(
                        "raw `std::sync::{h}` in facade-scoped code ({ctx}); import from the \
                         crate's `sync` module so the model checker can instrument it"
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D6

/// Header-stamp calls: these make a write version *authoritative* for
/// readers resolving the stamped object.
const D6_STAMP: &[&str] = &["record_write", "mark_clean", "restamp"];

/// D6: publish-order discipline on writer paths.
///
/// Two invariants around the RCU view swap:
///
/// 1. **stamp-before-publish** — a function (or anything it calls) must
///    not stamp an object header *before* it publishes the view that
///    makes the stamped version resolvable: a concurrent reader would
///    see a header version no replica placement can satisfy yet.
///    Stamping and publishing are both propagated transitively through
///    the call graph, so hiding the pair in helpers doesn't evade the
///    rule.
/// 2. **unpinned-cache-consult** — every `cache.place_at`/
///    `cache.place_current` consult must happen under a pinned view
///    epoch (a `load()` or `peek()` on an `ArcSwap` field or a `view_snapshot()`
///    earlier in, or inside, the consulting expression); consulting the
///    cache against an unpinned view races the next publication.
///
/// Publication and pin points are derived from the *declared field
/// type*: any `store` (`load` / `peek` for pins) whose receiver resolves
/// to a field wrapped in the facade's RCU primitive (`ArcSwap<..>`)
/// counts, whatever the field or helper is called — renaming `view` or
/// adding a second publication path needs no rule edit.
fn d6_publish_order(units: &[Unit], out: &mut Vec<Finding>) {
    let g = build_graph(units);
    // Direct event positions per fn: (token idx, event name).
    struct Events {
        stamps: Vec<(usize, String)>,
        publishes: Vec<usize>,
        calls: Vec<(usize, String)>,
    }
    let mut events: BTreeMap<&str, Events> = BTreeMap::new();
    for (q, (ui, f)) in &g.fns {
        let t = &units[*ui].lexed.tokens;
        let (a, b) = f.body;
        let b = b.min(t.len().saturating_sub(1));
        let aliases = local_aliases(t, f);
        let mut e = Events {
            stamps: Vec::new(),
            publishes: Vec::new(),
            calls: Vec::new(),
        };
        for i in a..=b {
            let tok = &t[i];
            if tok.kind != TokKind::Ident || !t.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                continue;
            }
            let name = tok.text.as_str();
            if D6_STAMP.contains(&name) && i > 0 && t[i - 1].is_punct('.') {
                e.stamps.push((i, name.to_string()));
                continue;
            }
            // A view publication: `store` on a field declared
            // with the RCU publication type (`ArcSwap<..>`). Helpers
            // that publish internally (e.g. a clone-mutate-publish
            // wrapper) need no special-casing — they become publish
            // points through the call-graph fixpoint below.
            if name == "store" && arcswap_receiver(&g, f, t, i, &aliases) {
                e.publishes.push(i);
                continue;
            }
            // Resolved calls, for transitive propagation.
            for k in resolve_call(&g, t, i, f, &aliases) {
                e.calls.push((i, k.to_string()));
            }
        }
        events.insert(q, e);
    }
    // Fixpoints: fns that stamp / publish anywhere beneath them.
    let mut stamp_fns: BTreeSet<&str> = events
        .iter()
        .filter(|(_, e)| !e.stamps.is_empty())
        .map(|(q, _)| *q)
        .collect();
    let mut publish_fns: BTreeSet<&str> = events
        .iter()
        .filter(|(_, e)| !e.publishes.is_empty())
        .map(|(q, _)| *q)
        .collect();
    loop {
        let mut changed = false;
        for (q, e) in &events {
            let calls_stamp = e.calls.iter().any(|(_, c)| stamp_fns.contains(c.as_str()));
            if calls_stamp && stamp_fns.insert(q) {
                changed = true;
            }
            let calls_publish = e
                .calls
                .iter()
                .any(|(_, c)| publish_fns.contains(c.as_str()));
            if calls_publish && publish_fns.insert(q) {
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for (q, e) in &events {
        let (ui, f) = g.fns[q];
        let u = &units[ui];
        if !u.path.starts_with("crates/cluster/src/") && !u.path.starts_with("crates/core/src/") {
            continue;
        }
        let t = &u.lexed.tokens;
        // All stamp/publish event positions, direct and via calls. A
        // call that both stamps and publishes internally is not an
        // ordered pair here — its internal order is checked at its own
        // definition.
        let mut stamps: Vec<(usize, &str)> =
            e.stamps.iter().map(|(i, n)| (*i, n.as_str())).collect();
        let mut publishes: Vec<usize> = e.publishes.clone();
        for (i, c) in &e.calls {
            let is_stamp = stamp_fns.contains(c.as_str());
            let is_publish = publish_fns.contains(c.as_str());
            if is_stamp && !is_publish {
                stamps.push((*i, c.rsplit("::").next().unwrap_or(c)));
            } else if is_publish && !is_stamp {
                publishes.push(*i);
            }
        }
        for (si, name) in &stamps {
            if publishes.iter().any(|pi| pi > si) {
                out.push(Finding {
                    rule: "D6",
                    file: u.path.clone(),
                    line: t[*si].line,
                    key: format!("D6 {} {} stamp-before-publish {}", u.path, f.qual, name),
                    message: format!(
                        "header stamp `{name}` before the view publication in {} — a reader \
                         between the two sees a header version no placement satisfies; \
                         publish the view first",
                        f.qual
                    ),
                });
            }
        }
        // Unpinned cache consults: `cache.place_*` with no view pin
        // before the consulting expression completes. A pin is a
        // `load()` or `peek()` on an `ArcSwap`-typed field or the
        // snapshot helper.
        let aliases = local_aliases(t, f);
        let pins: Vec<usize> = (f.body.0..=f.body.1.min(t.len().saturating_sub(1)))
            .filter(|&i| {
                let tok = &t[i];
                if !t.get(i + 1).is_some_and(|x| x.is_punct('(')) {
                    return false;
                }
                ((tok.is_ident("load") || tok.is_ident("peek"))
                    && arcswap_receiver(&g, f, t, i, &aliases))
                    || tok.is_ident("view_snapshot")
            })
            .collect();
        for i in f.body.0..=f.body.1.min(t.len().saturating_sub(1)) {
            let tok = &t[i];
            let is_consult = tok.kind == TokKind::Ident
                && matches!(tok.text.as_str(), "place_at" | "place_current")
                && i >= 2
                && t[i - 1].is_punct('.')
                && t[i - 2].is_ident("cache")
                && t.get(i + 1).is_some_and(|x| x.is_punct('('));
            if !is_consult {
                continue;
            }
            // The pin may sit inside the consult's own argument list
            // (`cache.place_current(&self.view.load(), ..)`), so the
            // window closes at the call's closing paren.
            let close = matching_paren(t, i + 1);
            if !pins.iter().any(|&p| p < close) {
                out.push(Finding {
                    rule: "D6",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!(
                        "D6 {} {} unpinned-cache-consult {}",
                        u.path, f.qual, tok.text
                    ),
                    message: format!(
                        "`cache.{}` without a pinned view epoch in {} — load the view once \
                         and consult the cache against that snapshot",
                        tok.text, f.qual
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D7

/// The message choke point: every data-path node I/O crosses it so the
/// per-replica breaker, the network fault fabric and the model checker's
/// message scheduler see the whole conversation.
const D7_CHOKE: &str = "Cluster::rpc";

/// The node type whose I/O surface must stay fabric-visible.
const D7_NODE: &str = "StorageNode";

/// StorageNode I/O methods that carry data-plane messages.
const D7_NODE_IO: &[&str] = &["put", "get", "remove", "restamp"];

/// D7: RPC choke-point discipline.
///
/// Any [`D7_NODE_IO`] call in the data-path call graph (the same
/// reachable set D2 scans) must be issued *through* [`D7_CHOKE`]: the
/// op closure handed to `rpc(..)` is the sanctioned direct call, and
/// its argument span is masked. A node I/O call outside that span
/// bypasses the breaker, the fault fabric and the message scheduler —
/// faults stop being injected, health stops being tracked, and the
/// model checker silently loses a message it believes it controls.
///
/// Targets resolve with the same receiver-typed machinery as D2/D4
/// (declared fields, helper return types, aliases, unique bare names);
/// an unresolvable receiver produces no finding, which is the
/// under-approximation documented in DESIGN.md §9. Reconciliation sends
/// that are *deliberately* fabric-exempt (reliable-queue removes and
/// restamps, DESIGN §8) carry `ech-allow(D7)` with a reason.
fn d7_rpc_choke_point(units: &[Unit], out: &mut Vec<Finding>) {
    let g = build_graph(units);
    let reach = d2_reachable(units, &g);
    for q in &reach {
        if *q == D7_CHOKE {
            continue;
        }
        let (ui, f) = g.fns[q];
        let u = &units[ui];
        // The discipline governs the coordinator's rpc plane; StorageNode
        // itself is the callee side of the choke point, and crates below
        // the cluster never hold a node handle.
        if !u.path.starts_with("crates/cluster/src/") || f.owner.as_deref() == Some(D7_NODE) {
            continue;
        }
        let t = &u.lexed.tokens;
        let (a, b) = f.body;
        let b = b.min(t.len().saturating_sub(1));
        let aliases = local_aliases(t, f);
        // Mask every `rpc(..)` argument span: the op closure inside it
        // is how the choke point is *used*.
        let masked: Vec<(usize, usize)> = (a..=b)
            .filter(|&i| t[i].is_ident("rpc") && t.get(i + 1).is_some_and(|x| x.is_punct('(')))
            .map(|i| (i + 1, matching_paren(t, i + 1)))
            .collect();
        for i in a..=b {
            let tok = &t[i];
            if tok.kind != TokKind::Ident
                || !D7_NODE_IO.contains(&tok.text.as_str())
                || i == 0
                || !t[i - 1].is_punct('.')
                || !t.get(i + 1).is_some_and(|x| x.is_punct('('))
                || masked.iter().any(|&(s, e)| i > s && i < e)
            {
                continue;
            }
            let want = format!("{D7_NODE}::{}", tok.text);
            if resolve_call(&g, t, i, f, &aliases)
                .iter()
                .any(|k| **k == want)
            {
                out.push(Finding {
                    rule: "D7",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D7 {} {} direct-node-{}", u.path, f.qual, tok.text),
                    message: format!(
                        "direct `StorageNode::{}` call in {} bypasses the `Cluster::rpc` \
                         choke point — the breaker, the fault fabric and the message \
                         scheduler never see this send; route it through rpc, or justify \
                         the reconciliation bypass with ech-allow(D7)",
                        tok.text, f.qual
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------- D8

/// Deadline-less retry runners: banned wherever an rpc send is in
/// reach. Every lost message burns the plan's rpc timeout on the clock,
/// so a retry loop that never consults a [`Deadline`] can stall a
/// client operation indefinitely against a dark fabric.
const D8_UNBOUNDED_RUNNERS: &[&str] = &["run", "run_with", "run_counted", "run_counted_with"];

/// D8: deadline-propagation exhaustiveness.
///
/// Three checks over the data-path call graph (the D2 reachable set):
///
/// 1. **missing-deadline** — a function that *directly* issues
///    `.rpc(..)` sends must hold an operation budget: either a
///    `Deadline` parameter threaded by value from the entry point, or a
///    fresh `op_deadline()` minted at its own scope boundary. A sender
///    with neither has unbounded exposure to rpc-timeout burns.
/// 2. **deadline-free-runner** — anywhere rpc is reachable, the retry
///    facade must be entered through its `*_deadline` runners; the
///    legacy [`D8_UNBOUNDED_RUNNERS`] never consult a budget between
///    backoffs.
/// 3. **fresh-unbounded-deadline** — minting `Deadline::unbounded()` in
///    rpc-reaching code launders an infinite budget into the plumbing
///    that exists to bound it (config-driven `None` budgets flow through
///    `Deadline::from_config`, which is the sanctioned spelling).
fn d8_deadline_propagation(units: &[Unit], out: &mut Vec<Finding>) {
    let g = build_graph(units);
    let reach = d2_reachable(units, &g);
    // Direct rpc senders: fns whose own body invokes `.rpc(..)`.
    let mut direct: BTreeSet<&str> = BTreeSet::new();
    for (q, (ui, f)) in &g.fns {
        let t = &units[*ui].lexed.tokens;
        let (a, b) = f.body;
        for i in a..=b.min(t.len().saturating_sub(1)) {
            if t[i].is_ident("rpc")
                && i > 0
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                direct.insert(q);
                break;
            }
        }
    }
    // Transitive closure: fns from which an rpc send is reachable.
    let calls: BTreeMap<&str, Vec<&str>> = g
        .fns
        .iter()
        .map(|(q, (ui, f))| (*q, callees(units, &g, *ui, f)))
        .collect();
    let mut reaches_rpc: BTreeSet<&str> = direct.clone();
    loop {
        let mut changed = false;
        for (q, cs) in &calls {
            if !reaches_rpc.contains(q) && cs.iter().any(|c| reaches_rpc.contains(c)) {
                reaches_rpc.insert(q);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for q in &reach {
        if *q == D7_CHOKE || !reaches_rpc.contains(q) {
            continue;
        }
        let (ui, f) = g.fns[q];
        let u = &units[ui];
        if !u.path.starts_with("crates/cluster/src/") {
            continue;
        }
        let t = &u.lexed.tokens;
        let (a, b) = f.body;
        let b = b.min(t.len().saturating_sub(1));
        if direct.contains(q) {
            let sig_has_deadline =
                (f.decl..a).any(|i| t.get(i).is_some_and(|x| x.is_ident("Deadline")));
            let mints_deadline = (a..=b).any(|i| {
                t[i].is_ident("op_deadline") && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            });
            if !sig_has_deadline && !mints_deadline {
                out.push(Finding {
                    rule: "D8",
                    file: u.path.clone(),
                    line: f.line,
                    key: format!("D8 {} {} missing-deadline", u.path, f.qual),
                    message: format!(
                        "{} issues rpc sends with no operation budget — accept a \
                         `Deadline` parameter by value or mint `op_deadline()` at the \
                         operation boundary, so lost-message timeout burns stay bounded",
                        f.qual
                    ),
                });
            }
        }
        for i in a..=b {
            let tok = &t[i];
            if tok.kind != TokKind::Ident {
                continue;
            }
            if D8_UNBOUNDED_RUNNERS.contains(&tok.text.as_str())
                && i > 0
                && t[i - 1].is_punct('.')
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                out.push(Finding {
                    rule: "D8",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D8 {} {} deadline-free-runner {}", u.path, f.qual, tok.text),
                    message: format!(
                        "retry runner `.{}(..)` in rpc-reaching code ({}) never consults \
                         a deadline between backoffs; use the `*_deadline` runner and \
                         thread the operation's budget",
                        tok.text, f.qual
                    ),
                });
            }
            if tok.is_ident("Deadline")
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 2).is_some_and(|x| x.is_punct(':'))
                && t.get(i + 3).is_some_and(|x| x.is_ident("unbounded"))
            {
                out.push(Finding {
                    rule: "D8",
                    file: u.path.clone(),
                    line: tok.line,
                    key: format!("D8 {} {} fresh-unbounded-deadline", u.path, f.qual),
                    message: format!(
                        "`Deadline::unbounded()` minted in rpc-reaching code ({}) — \
                         unbounded budgets must come from configuration via \
                         `Deadline::from_config`, not be constructed on the data path",
                        f.qual
                    ),
                });
            }
        }
    }
}

/// Is the method call at token `i` received by a field of `f`'s owner
/// struct whose declared type descends through `ArcSwap` — the facade's
/// RCU publication primitive? Resolves `self.<field>.<m>(..)` directly
/// or through a let-bound alias.
fn arcswap_receiver(
    g: &Graph<'_>,
    f: &FnInfo,
    t: &[Token],
    i: usize,
    aliases: &BTreeMap<String, String>,
) -> bool {
    let Some(owner) = f.owner.as_deref() else {
        return false;
    };
    receiver_field(t, i, aliases).is_some_and(|field| {
        g.wrapped
            .get(&(owner, field.as_str()))
            .is_some_and(|chain| chain.iter().any(|w| w == "ArcSwap"))
    })
}

/// Token index of the `)` matching the `(` at `open`.
fn matching_paren(t: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, tok) in t.iter().enumerate().skip(open) {
        if tok.is_punct('(') {
            depth += 1;
        } else if tok.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    t.len().saturating_sub(1)
}

// ---------------------------------------------------------------- D9

/// The checker host's sources: a mutant's replay evidence must be
/// quoted somewhere under here.
const D9_SCOPE: &str = "crates/check/src/";

/// The model-checker's scenario table: the one file D9 scans.
const D9_MODELS: &str = "crates/check/src/mc_models.rs";

/// One `Model { .. }` literal lifted out of the table's raw text.
struct D9Model {
    name: String,
    pair: Option<String>,
    /// A `mutant: Some(..)` field — the entry is a seeded mutant.
    mutant: bool,
    /// 1-based line of the literal's `name:` field.
    line: u32,
}

/// Extract the string value of `field: "…"` from a model-literal
/// block, plus the byte offset of the opening quote.
fn d9_field<'a>(block: &'a str, field: &str) -> Option<(&'a str, usize)> {
    let needle = format!("{field}: \"");
    let at = block.find(&needle)?;
    let start = at + needle.len();
    let len = block[start..].find('"')?;
    Some((&block[start..start + len], start))
}

/// Parse every `Model { .. }` literal out of the table's raw text.
/// Blocks are delimited by successive `Model {` occurrences; anything
/// without a `name: "…"` field (the struct declaration, doc prose) is
/// skipped.
fn d9_parse_models(text: &str) -> Vec<D9Model> {
    let starts: Vec<usize> = {
        let mut v = Vec::new();
        let mut from = 0usize;
        while let Some(i) = text[from..].find("Model {") {
            v.push(from + i);
            from += i + 1;
        }
        v
    };
    let mut models = Vec::new();
    for (k, &s) in starts.iter().enumerate() {
        let end = starts.get(k + 1).copied().unwrap_or(text.len());
        let block = &text[s..end];
        let Some((name, name_off)) = d9_field(block, "name") else {
            continue;
        };
        let mutant = block.contains("mutant: Some(");
        let line = 1 + text[..s + name_off].matches('\n').count() as u32;
        models.push(D9Model {
            name: name.to_string(),
            pair: d9_field(block, "pair").map(|(p, _)| p.to_string()),
            mutant,
            line,
        });
    }
    models
}

/// D9: model/mutant pairing discipline.
///
/// Every entry in the scenario table must carry a `pair` naming its
/// role-opposed counterpart: a correct-protocol model points at the
/// seeded mutant that proves its property is *checkable* (delete the
/// assertion's teeth and the mutant's expected-caught run goes red),
/// and a mutant points back at the protocol it corrupts. Pairings need
/// not be unique — several models may share one mutant — but they must
/// resolve, must not be reflexive, and must cross roles. Additionally,
/// every mutant's name must be quoted somewhere else in the checker
/// host's sources: that quote is the replay regression test pinning the
/// mutant's counterexample (a mutant nothing references is a seeded
/// bug nobody would notice going un-caught).
fn d9_model_pairing(units: &[Unit], out: &mut Vec<Finding>) {
    let Some(mu) = units.iter().find(|u| u.path == D9_MODELS) else {
        return;
    };
    let models = d9_parse_models(&mu.text);
    let roles: BTreeMap<&str, bool> = models.iter().map(|m| (m.name.as_str(), m.mutant)).collect();
    for m in &models {
        let role = if m.mutant { "mutant" } else { "model" };
        match m.pair.as_deref() {
            None => out.push(Finding {
                rule: "D9",
                file: mu.path.clone(),
                line: m.line,
                key: format!("D9 {} {} missing-pair", mu.path, m.name),
                message: format!(
                    "{role} `{}` declares no `pair` — every scenario names the \
                     role-opposed entry that keeps it honest (a model cites the \
                     mutant proving its property checkable; a mutant cites the \
                     protocol it corrupts)",
                    m.name
                ),
            }),
            Some(p) if p == m.name => out.push(Finding {
                rule: "D9",
                file: mu.path.clone(),
                line: m.line,
                key: format!("D9 {} {} self-pair", mu.path, m.name),
                message: format!(
                    "{role} `{}` pairs with itself — the pairing must cross roles \
                     to witness anything",
                    m.name
                ),
            }),
            Some(p) => match roles.get(p) {
                None => out.push(Finding {
                    rule: "D9",
                    file: mu.path.clone(),
                    line: m.line,
                    key: format!("D9 {} {} unknown-pair", mu.path, m.name),
                    message: format!(
                        "{role} `{}` pairs with `{p}`, which names no entry in the \
                         scenario table",
                        m.name
                    ),
                }),
                Some(&pm) if pm == m.mutant => out.push(Finding {
                    rule: "D9",
                    file: mu.path.clone(),
                    line: m.line,
                    key: format!("D9 {} {} role-mismatch", mu.path, m.name),
                    message: format!(
                        "{role} `{}` pairs with `{p}`, but both are {role}s — a \
                         pairing only proves something when a correct protocol \
                         faces the mutant that would break it",
                        m.name
                    ),
                }),
                Some(_) => {}
            },
        }
        if m.mutant {
            // The name may sit inside a larger literal (a scripted
            // `modelcheck --model <name>` command line), so this is a
            // substring scan; dash-separated names cannot collide with
            // identifiers.
            let referenced = units.iter().any(|u| {
                u.path != D9_MODELS
                    && u.path.starts_with(D9_SCOPE)
                    && u.text.contains(m.name.as_str())
            });
            if !referenced {
                out.push(Finding {
                    rule: "D9",
                    file: mu.path.clone(),
                    line: m.line,
                    key: format!("D9 {} {} unreferenced-mutant", mu.path, m.name),
                    message: format!(
                        "mutant `{}` is quoted nowhere else in {D9_SCOPE} — \
                         add the expected-caught replay regression test that pins \
                         its counterexample",
                        m.name
                    ),
                });
            }
        }
    }
}

// --------------------------------------------------------------- D10

/// The one place a D10 row may spell its needle.
#[derive(Debug, Clone, Copy)]
pub enum D10Except {
    /// Nowhere in scope.
    Nowhere,
    /// Only in this file.
    File(&'static str),
    /// Only as this whole word (the needle followed by no further
    /// identifier character).
    Word(&'static str),
}

/// One row of D10's table: `needle` must not appear under `scope`.
#[derive(Debug)]
pub struct D10Row {
    /// Path prefix the row scans; `crates/*/src/` means every crate's
    /// `src/`.
    pub scope: &'static str,
    /// Literal text, matched in the raw file, comments and strings
    /// included.
    pub needle: &'static str,
    /// The sanctioned spelling, if any.
    pub except: D10Except,
    /// What the ban protects.
    pub why: &'static str,
    /// What replaced the banned thing.
    pub now: &'static str,
}

/// The file holding [`D10_ROWS`]: it must spell every needle, so it is
/// exempt from all of them.
const D10_TABLE: &str = "crates/analyzer/src/rules.rs";

const ONE_DATA_PATH: &str = "seeded mutants are `Mutation` decision points in the shipped \
                             bodies, never copies of them";
const NO_PLACEMENT_CACHE: &str = "reads compute placements on the view they pin; the memo \
                                  that fronted the Algorithm-1 walk cost more than the walk";
const NO_VIEW_LOCK: &str = "the read path is lock-free: views are published as \
                            epoch-pinned snapshots, never behind an RwLock";
const NO_PLACEMENT_HARNESS: &str = "the placement-engine harness is retired: uniform hashed \
                                    engines remap about twice the ring's keys on a tail cut";
const ONE_READ_ONE_QUORUM: &str = "one read, `Cluster::get`, probes the current placement, \
                                   then the header version's, and never hedges; one quorum \
                                   acks a put at the primary plus a secondary majority";
/// Why a retired sim-only extension's names are banned, and what stands
/// in for it: the `(why, now)` of its [`retired_row`]s.
const FIXED_PRIMARIES: (&str, &str) = (
    "the paper fixes the primary count at p = ceil(n/e^2) (§III-C); the dynamic-primary \
     policy was a sim-only extension no open item read",
    "`layout::primary_count`",
);
const ONE_SIM_DRIVER: (&str, &str) = (
    "the fluid simulator has one driver, the phase workload; the closed loop was a \
     sim-only extension no open item read",
    "`ClusterSim::start_workload`",
);
const NO_RESIZE_CONTROLLERS: (&str, &str) = (
    "the paper leaves resizing decisions out of scope; the resize controllers were a \
     sim-only extension no open item read",
    "the servers a trace needs, `simulate(.., PolicyKind::PrimarySelective).servers`",
);
const PAPER_TRACES_ONLY: (&str, &str) = (
    "the paper evaluates on CC-a and CC-b (Table I); CC-c/d/e were invented siblings no \
     open item read",
    "`synth::cc_a()` / `synth::cc_b()`",
);
const FRESH_IDS_ONLY: (&str, &str) = (
    "the simulator writes fresh object ids; no code picked existing objects to rewrite \
     or read",
    "`ObjectAllocator`",
);
const TYPED_DIRTY_LOG: &str = "the dirty table is `ech-kvstore`'s typed log: a put below \
                               full power formats nothing and the drain parses nothing";

/// A crate-wide row banning a retired counter family's name or accessor.
const fn counter_row(needle: &'static str) -> D10Row {
    D10Row {
        scope: "crates/*/src/",
        needle,
        except: D10Except::Nowhere,
        why: "the live cluster counts its events in one counter set, read as one snapshot",
        now: "`Cluster::counters()` / `CounterSnapshot`",
    }
}

/// A crate-wide row banning a retired name. The retired extensions'
/// last numbers stay in EXPERIMENTS.md, "Retired extensions".
const fn retired_row(needle: &'static str, (why, now): (&'static str, &'static str)) -> D10Row {
    D10Row {
        scope: "crates/*/src/",
        needle,
        except: D10Except::Nowhere,
        why,
        now,
    }
}

/// A row banning `serde` from one library crate's `src/`.
const fn no_serde_row(scope: &'static str) -> D10Row {
    D10Row {
        scope,
        needle: "serde",
        except: D10Except::Nowhere,
        why: "nothing serializes a library type: a restarted coordinator takes the in-memory \
              view, and recovery reads the dirty table and object headers (§III-E)",
        now: "in-memory values only; `ech-check` and the benchmark write the JSON reports",
    }
}

/// What replaced the checker's own cluster builders.
const SCENARIO_BUILT: &str = "models build through `Scenario`: `Scenario::model` plus \
                              field updates, then `build().cluster`";

/// A row banning a retired name from the checker host's sources.
const fn checker_row(needle: &'static str, now: &'static str) -> D10Row {
    D10Row {
        scope: "crates/check/src/",
        needle,
        except: D10Except::Nowhere,
        why: "models are scenarios: every checker cluster is built the way the drills \
              build theirs, and a mutant names the one mode that must catch it",
        now,
    }
}

/// Retired names and patterns, each banned from the paths it lived in.
pub const D10_ROWS: &[D10Row] = &[
    D10Row {
        scope: "crates/cluster/src/",
        needle: "for_modelcheck",
        except: D10Except::Nowhere,
        why: ONE_DATA_PATH,
        now: "`Mutation` decision points (`mutation.rs`)",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "seeded_stamp_bug",
        except: D10Except::Nowhere,
        why: ONE_DATA_PATH,
        now: "`Mutation` decision points (`mutation.rs`)",
    },
    D10Row {
        scope: "crates/cluster/src/retry.rs",
        needle: "pub fn run",
        except: D10Except::Word("pub fn run_counted_deadline"),
        why: "the retry facade has exactly one runner",
        now: "`RetryPolicy::run_counted_deadline`, called through `Cluster::call`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "ech:headers",
        except: D10Except::Nowhere,
        why: "object headers live in `ech-kvstore`'s typed header table, sharded by \
              object id, not behind one string-keyed HASH",
        now: "`KvStore::header_put` / `header_get`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "encode_entry",
        except: D10Except::Nowhere,
        why: TYPED_DIRTY_LOG,
        now: "`KvStore::dirty_push` / `dirty_pop_n` on `DirtyEntry`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "decode_entry",
        except: D10Except::Nowhere,
        why: TYPED_DIRTY_LOG,
        now: "`KvStore::dirty_push` / `dirty_pop_n` on `DirtyEntry`",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "ShardedPlacementCache",
        except: D10Except::Nowhere,
        why: NO_PLACEMENT_CACHE,
        now: "`ClusterView::place_current` / `place_at` on the pinned view",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "cache.place_",
        except: D10Except::Nowhere,
        why: NO_PLACEMENT_CACHE,
        now: "`ClusterView::place_current` / `place_at` on the pinned view",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "RwLock<ClusterView>",
        except: D10Except::Nowhere,
        why: NO_VIEW_LOCK,
        now: "`ArcSwap<ClusterView>`, pinned by `load` / `peek`",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "view.read()",
        except: D10Except::Nowhere,
        why: NO_VIEW_LOCK,
        now: "`ArcSwap<ClusterView>`, pinned by `load` / `peek`",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "view.write()",
        except: D10Except::Nowhere,
        why: NO_VIEW_LOCK,
        now: "`ArcSwap<ClusterView>`, published by `store`",
    },
    D10Row {
        scope: "crates/cluster/src/",
        needle: "ech_lincheck",
        except: D10Except::File("crates/cluster/src/lincheck.rs"),
        why: "the history recorder compiles to empty shims without `--features \
              lincheck` only while one cfg-gated facade names it",
        now: "the cfg-gated facade in `lincheck.rs`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "reintegrate_step",
        except: D10Except::Nowhere,
        why: "one re-integration entry point drains one task or a batch",
        now: "`Cluster::reintegrate_batch(1)`",
    },
    counter_row("PathCounters"),
    counter_row("PathSnapshot"),
    counter_row("FaultStatsSnapshot"),
    counter_row("NetStatsSnapshot"),
    counter_row("BreakerSnapshot"),
    counter_row("fault_stats"),
    counter_row("net_stats"),
    counter_row("breaker_stats"),
    D10Row {
        scope: "crates/*/src/",
        needle: "splitmix64",
        except: D10Except::Nowhere,
        why: "one SplitMix64 mixer",
        now: "`ech_core::hash::mix64`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "resident_bytes",
        except: D10Except::Nowhere,
        why: NO_PLACEMENT_HARNESS,
        now: "the recorded numbers in EXPERIMENTS.md, \"Placement engines\"",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "xxh64",
        except: D10Except::Nowhere,
        why: "one ring hash: FNV-1a with a SplitMix64 finalizer",
        now: "`ech_core::hash::object_position` / `vnode_position`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "ReadPolicy",
        except: D10Except::Nowhere,
        why: ONE_READ_ONE_QUORUM,
        now: "`Cluster::get`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "get_with",
        except: D10Except::Nowhere,
        why: ONE_READ_ONE_QUORUM,
        now: "`Cluster::get`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "hedged_get",
        except: D10Except::Nowhere,
        why: ONE_READ_ONE_QUORUM,
        now: "`Cluster::get`",
    },
    D10Row {
        scope: "crates/*/src/",
        needle: "WriteQuorum",
        except: D10Except::Nowhere,
        why: ONE_READ_ONE_QUORUM,
        now: "the private `required_acks` in `cluster.rs`",
    },
    counter_row("hedged_reads"),
    D10Row {
        scope: "crates/*/src/",
        needle: "BENCH_placement",
        except: D10Except::Nowhere,
        why: NO_PLACEMENT_HARNESS,
        now: "the recorded numbers in EXPERIMENTS.md, \"Placement engines\"",
    },
    retired_row("WriteBalancer", FIXED_PRIMARIES),
    retired_row("relayout_fraction", FIXED_PRIMARIES),
    // Also bans `run_closed_loop`: a row of its own would report it twice.
    retired_row("closed_loop", ONE_SIM_DRIVER),
    retired_row("set_offered_load", ONE_SIM_DRIVER),
    retired_row("UniformPicker", FRESH_IDS_ONLY),
    retired_row("ZipfPicker", FRESH_IDS_ONLY),
    retired_row("ResizeController", NO_RESIZE_CONTROLLERS),
    retired_row("ReactiveController", NO_RESIZE_CONTROLLERS),
    retired_row("MovingAverageController", NO_RESIZE_CONTROLLERS),
    retired_row("TrendController", NO_RESIZE_CONTROLLERS),
    retired_row("SizerConfig", NO_RESIZE_CONTROLLERS),
    retired_row("ControllerEval", NO_RESIZE_CONTROLLERS),
    D10Row {
        scope: "crates/sim/src/",
        needle: "pub mod controller",
        except: D10Except::Nowhere,
        why: NO_RESIZE_CONTROLLERS.0,
        now: NO_RESIZE_CONTROLLERS.1,
    },
    retired_row("cc_c", PAPER_TRACES_ONLY),
    retired_row("cc_d", PAPER_TRACES_ONLY),
    retired_row("cc_e", PAPER_TRACES_ONLY),
    D10Row {
        scope: "crates/traces/src/",
        needle: "pub mod io",
        except: D10Except::Nowhere,
        why: "traces are synthesised in-process from their Table I specs; nothing read or \
              wrote a trace file",
        now: "`synth::cc_a()` / `synth::cc_b()`",
    },
    // Also bans `tiny_cluster_with`: a row of its own would report it twice.
    checker_row("tiny_cluster", SCENARIO_BUILT),
    checker_row("tiny_config", SCENARIO_BUILT),
    checker_row("faulty_quorum_cluster", SCENARIO_BUILT),
    checker_row("partitioned_quorum_cluster", SCENARIO_BUILT),
    checker_row("stale_copy_cluster", SCENARIO_BUILT),
    checker_row("msg_cluster", SCENARIO_BUILT),
    checker_row(
        "mirror_view",
        "`ClusterConfig::view` on the scenario's config",
    ),
    checker_row(
        "expect_failure",
        "`Model::mutant`: one `Mutation` and its `CaughtIn`",
    ),
    checker_row("with_faults", SCENARIO_BUILT),
    no_serde_row("crates/core/src/"),
    no_serde_row("crates/kvstore/src/"),
    no_serde_row("crates/sim/src/"),
    no_serde_row("crates/traces/src/"),
    no_serde_row("crates/workload/src/"),
];

impl D10Row {
    /// Does this row scan `path`?
    pub fn covers(&self, path: &str) -> bool {
        let in_scope = match self.scope.strip_prefix("crates/*/") {
            Some(rest) => path
                .strip_prefix("crates/")
                .and_then(|p| p.split_once('/'))
                .is_some_and(|(_, p)| p.starts_with(rest)),
            None => path.starts_with(self.scope),
        };
        in_scope && path != D10_TABLE && !matches!(self.except, D10Except::File(f) if f == path)
    }

    /// Is the occurrence at the start of `rest` the sanctioned word?
    fn sanctioned(&self, rest: &str) -> bool {
        let D10Except::Word(word) = self.except else {
            return false;
        };
        rest.strip_prefix(word)
            .is_some_and(|after| !after.starts_with(|c: char| c.is_alphanumeric() || c == '_'))
    }
}

/// D10: forbidden text by path.
///
/// Each [`D10_ROWS`] entry bans a literal from a path scope: the copied
/// mutant bodies, the second retry runner, the string header key, the
/// dirty-entry text codec, the placement cache, the locked view, the
/// one-task drain alias, the per-family counter snapshots, the second
/// SplitMix64, the second ring hash, the placement-engine harness, the
/// read policies, the write-quorum option, the dynamic primary count,
/// the closed loop, the object pickers, trace file I/O, the resize
/// controllers, the invented CC-c/d/e traces, and the checker's own
/// cluster builders and per-mode expectation flags stay gone,
/// `serde` stays out of the library crates, and one facade names the
/// history recorder. Like D9 it scans raw file text, comments included,
/// so a needle cannot hide in a doc.
fn d10_forbidden_text(units: &[Unit], out: &mut Vec<Finding>) {
    for row in D10_ROWS {
        for u in units.iter().filter(|u| row.covers(&u.path)) {
            for (at, _) in u.text.match_indices(row.needle) {
                if row.sanctioned(&u.text[at..]) {
                    continue;
                }
                out.push(Finding {
                    rule: "D10",
                    file: u.path.clone(),
                    line: 1 + u.text[..at].matches('\n').count() as u32,
                    key: format!("D10 {} {}", u.path, row.needle),
                    message: format!(
                        "`{}` is banned under {}: {} (now {})",
                        row.needle, row.scope, row.why, row.now
                    ),
                });
            }
        }
    }
}
