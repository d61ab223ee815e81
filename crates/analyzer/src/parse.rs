//! A lightweight item parser over the token stream.
//!
//! Not a grammar — a brace-depth walk that recognises the handful of
//! item shapes the rules need: `mod`/`impl`/`trait` scopes (with
//! `#[cfg(test)]`/`#[test]` detection), `fn` items with their body token
//! ranges, and `enum` items with their variant lists. Function bodies
//! are opaque to item discovery; the rules scan them token-wise.

use crate::lexer::{Lexed, TokKind, Token};

/// One parsed function item.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Enclosing `impl`/`trait` type name, if any.
    pub owner: Option<String>,
    /// `Owner::name` when owned, else just the name.
    pub qual: String,
    /// Is this test code (`#[test]`, or inside a `#[cfg(test)]` scope)?
    pub is_test: bool,
    /// Token-index range of the body, **including** both braces.
    pub body: (usize, usize),
    /// Token index of the `fn` keyword — the signature spans
    /// `decl..body.0`, so rules can scan the declared parameter and
    /// return types (e.g. D8 checks for a `Deadline` parameter).
    pub decl: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Base type of the declared return type, if any — wrapper types
    /// (`Result`, `Option`, `Arc`, references) stripped the same way
    /// struct-field types are, so one-hop receiver chains like
    /// `self.node(s)?.put(..)` can resolve `put` against the type the
    /// helper actually hands back.
    pub ret: Option<String>,
}

/// One parsed struct item with named fields.
///
/// Field types are reduced to their *base* type — smart-pointer and
/// lock wrappers (`Arc<Mutex<KvDirtyTable>>` → `KvDirtyTable`) are
/// stripped so the rules can resolve `self.<field>.<method>(..)` calls
/// against the type that actually defines the method. Container types
/// like `Vec` are kept as-is: methods on a `Vec` field belong to `Vec`,
/// not its element.
#[derive(Debug, Clone)]
pub struct StructInfo {
    /// Struct name.
    pub name: String,
    /// `(field name, base type)` pairs in declaration order.
    pub fields: Vec<(String, String)>,
    /// `(field name, wrapper chain outermost-first)` for fields whose
    /// declared type descended through `TYPE_WRAPPERS` generics —
    /// `view: ArcSwap<ClusterView>` records `("view", ["ArcSwap"])`.
    /// Unwrapped fields have no entry.
    pub wrapped: Vec<(String, Vec<String>)>,
}

/// One parsed enum item.
#[derive(Debug, Clone)]
pub struct EnumInfo {
    /// Enum name.
    pub name: String,
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Declared in test code?
    pub is_test: bool,
    /// 1-based line of the `enum` keyword.
    pub line: u32,
}

/// One parsed `impl` block.
#[derive(Debug, Clone)]
pub struct ImplInfo {
    /// Trait implemented (`impl Trait for Type`), if any.
    pub trait_name: Option<String>,
    /// The implementing type.
    pub type_name: String,
    /// Token-index range of the block body, including braces.
    pub body: (usize, usize),
}

/// Everything the rules need from one file.
#[derive(Debug, Default)]
pub struct ParsedFile {
    /// Functions (all nesting levels discoverable at item scope).
    pub fns: Vec<FnInfo>,
    /// Enums.
    pub enums: Vec<EnumInfo>,
    /// Structs with named fields.
    pub structs: Vec<StructInfo>,
    /// Impl blocks.
    pub impls: Vec<ImplInfo>,
}

#[derive(Debug, Clone)]
enum Scope {
    Mod { is_test: bool },
    Impl { type_name: String, is_test: bool },
    Other,
}

/// Find the token index of the `}` matching the `{` at `open`.
pub fn matching_brace(tokens: &[Token], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Last segment of a `::`-separated path starting at `i`; returns the
/// segment and the index just past the path.
fn path_last_segment(tokens: &[Token], mut i: usize) -> (Option<String>, usize) {
    let mut last = None;
    loop {
        // Skip a generic argument span.
        if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
            let mut depth = 0i32;
            while i < tokens.len() {
                if tokens[i].is_punct('<') {
                    depth += 1;
                } else if tokens[i].is_punct('>') {
                    depth -= 1;
                    if depth <= 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
        }
        match tokens.get(i) {
            Some(t) if t.kind == TokKind::Ident => {
                last = Some(t.text.clone());
                i += 1;
            }
            _ => break,
        }
        if tokens.get(i).is_some_and(|t| t.is_punct(':'))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        {
            i += 2;
        } else if tokens.get(i).is_some_and(|t| t.is_punct('<')) {
            // Trailing generics on the final segment: skip and stop.
            let mut depth = 0i32;
            while i < tokens.len() {
                if tokens[i].is_punct('<') {
                    depth += 1;
                } else if tokens[i].is_punct('>') {
                    depth -= 1;
                    if depth <= 0 {
                        i += 1;
                        break;
                    }
                }
                i += 1;
            }
            break;
        } else {
            break;
        }
    }
    (last, i)
}

/// Wrappers whose single generic argument is the type callers actually
/// invoke methods on (after `.lock()`/`.load()`/deref). `Vec` and maps
/// are deliberately absent: their methods are their own.
const TYPE_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option", "ArcSwap",
];

/// Wrappers additionally stripped from *return* types: callers invoke
/// methods on the success value after `?`/`unwrap`, so `Result` is
/// transparent there — while a `Result`-typed field's methods are
/// `Result`'s own.
const RET_WRAPPERS: &[&str] = &[
    "Arc", "Rc", "Box", "Mutex", "RwLock", "RefCell", "Cell", "Option", "ArcSwap", "Result",
];

/// Base type plus the wrapper chain descended through, outermost-first
/// (`Option<Mutex<T>>` → `(Some("T"), ["Option", "Mutex"])`).
fn base_type_in(t: &[Token], wrappers: &[&str]) -> (Option<String>, Vec<String>) {
    let mut chain = Vec::new();
    let mut k = 0usize;
    while k < t.len() {
        let tok = &t[k];
        if tok.kind == TokKind::Ident {
            if tok.is_ident("mut") || tok.is_ident("dyn") || tok.is_ident("impl") {
                k += 1;
                continue;
            }
            // Path prefix `std::sync::Arc<..>` — keep walking segments.
            if t.get(k + 1).is_some_and(|x| x.is_punct(':'))
                && t.get(k + 2).is_some_and(|x| x.is_punct(':'))
            {
                k += 3;
                continue;
            }
            // Wrapper with a generic argument: descend into it.
            if wrappers.contains(&tok.text.as_str())
                && t.get(k + 1).is_some_and(|x| x.is_punct('<'))
            {
                chain.push(tok.text.clone());
                k += 2;
                continue;
            }
            return (Some(tok.text.clone()), chain);
        }
        // References, lifetimes, stray angle brackets: skip.
        k += 1;
    }
    (None, chain)
}

/// Parse `{ name: Type, .. }` fields of a struct body (depth-1 walk,
/// attribute and `pub(..)` spans skipped). Returns the `(name, base)`
/// pairs plus the wrapper chains of fields that had any.
#[allow(clippy::type_complexity)]
fn struct_fields(
    t: &[Token],
    open: usize,
    close: usize,
) -> (Vec<(String, String)>, Vec<(String, Vec<String>)>) {
    let mut fields = Vec::new();
    let mut wrapped = Vec::new();
    let mut j = open + 1;
    while j < close {
        let x = &t[j];
        // Attribute span `#[...]`.
        if x.is_punct('#') && t.get(j + 1).is_some_and(|n| n.is_punct('[')) {
            let mut d = 0i32;
            let mut m = j + 1;
            while m < close {
                if t[m].is_punct('[') {
                    d += 1;
                } else if t[m].is_punct(']') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                m += 1;
            }
            j = m + 1;
            continue;
        }
        // Visibility: `pub` or `pub(crate)`.
        if x.is_ident("pub") {
            if t.get(j + 1).is_some_and(|n| n.is_punct('(')) {
                let mut d = 0i32;
                let mut m = j + 1;
                while m < close {
                    if t[m].is_punct('(') {
                        d += 1;
                    } else if t[m].is_punct(')') {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    m += 1;
                }
                j = m + 1;
            } else {
                j += 1;
            }
            continue;
        }
        // Field: `name : Type` (a second `:` would be a path, not a field).
        if x.kind == TokKind::Ident
            && t.get(j + 1).is_some_and(|n| n.is_punct(':'))
            && !t.get(j + 2).is_some_and(|n| n.is_punct(':'))
        {
            // Type runs to the `,` at this nesting depth or the close.
            let mut d = 0i32;
            let mut m = j + 2;
            while m < close {
                let y = &t[m];
                if y.is_punct('<') || y.is_punct('(') || y.is_punct('[') || y.is_punct('{') {
                    d += 1;
                } else if y.is_punct('>') || y.is_punct(')') || y.is_punct(']') || y.is_punct('}') {
                    d -= 1;
                } else if d <= 0 && y.is_punct(',') {
                    break;
                }
                m += 1;
            }
            let (base, chain) = base_type_in(&t[j + 2..m], TYPE_WRAPPERS);
            if let Some(base) = base {
                fields.push((x.text.clone(), base));
            }
            if !chain.is_empty() {
                wrapped.push((x.text.clone(), chain));
            }
            j = m + 1;
            continue;
        }
        j += 1;
    }
    (fields, wrapped)
}

/// Parse the item structure of a lexed file.
pub fn parse(lexed: &Lexed) -> ParsedFile {
    let t = &lexed.tokens;
    let mut out = ParsedFile::default();
    let mut stack: Vec<Scope> = Vec::new();
    let mut attr_test = false;
    let in_test = |stack: &[Scope]| -> bool {
        stack.iter().any(|s| {
            matches!(
                s,
                Scope::Mod { is_test: true } | Scope::Impl { is_test: true, .. }
            )
        })
    };
    let owner = |stack: &[Scope]| -> Option<String> {
        stack.iter().rev().find_map(|s| match s {
            Scope::Impl { type_name, .. } => Some(type_name.clone()),
            _ => None,
        })
    };
    let mut i = 0usize;
    while i < t.len() {
        let tok = &t[i];
        // Attributes: `#` `[` ... `]` — remember if they mention `test`.
        if tok.is_punct('#') && t.get(i + 1).is_some_and(|n| n.is_punct('[')) {
            let mut depth = 0i32;
            let mut j = i + 1;
            let mut mentions_test = false;
            while j < t.len() {
                if t[j].is_punct('[') {
                    depth += 1;
                } else if t[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                } else if t[j].is_ident("test") {
                    mentions_test = true;
                }
                j += 1;
            }
            attr_test |= mentions_test;
            i = j + 1;
            continue;
        }
        match tok.kind {
            TokKind::Ident if tok.text == "mod" => {
                // `mod name { ... }` opens a scope; `mod name;` is a
                // file-level declaration.
                let has_body = t
                    .iter()
                    .skip(i + 1)
                    .find(|x| x.is_punct('{') || x.is_punct(';'))
                    .is_some_and(|x| x.is_punct('{'));
                if has_body {
                    let open = (i..t.len()).find(|&j| t[j].is_punct('{'));
                    if let Some(open) = open {
                        stack.push(Scope::Mod {
                            is_test: attr_test || in_test(&stack),
                        });
                        attr_test = false;
                        i = open + 1;
                        continue;
                    }
                }
                attr_test = false;
                i += 1;
            }
            TokKind::Ident if tok.text == "impl" || tok.text == "trait" => {
                let is_trait_decl = tok.text == "trait";
                let Some(open) = (i..t.len()).find(|&j| t[j].is_punct('{') || t[j].is_punct(';'))
                else {
                    break;
                };
                if t[open].is_punct(';') {
                    // e.g. marker `impl Trait for T {}`-less forms.
                    attr_test = false;
                    i = open + 1;
                    continue;
                }
                let header = &t[i + 1..open];
                let (type_name, trait_name) = if is_trait_decl {
                    let (name, _) = path_last_segment(header, 0);
                    (name.unwrap_or_default(), None)
                } else {
                    // `impl [<..>] Path [for Path] [where ..]`.
                    let mut k = 0usize;
                    let (first, after) = path_last_segment(header, k);
                    k = after;
                    if header.get(k).is_some_and(|x| x.is_ident("for")) {
                        let (second, _) = path_last_segment(header, k + 1);
                        (second.unwrap_or_default(), first)
                    } else {
                        (first.unwrap_or_default(), None)
                    }
                };
                let close = matching_brace(t, open);
                out.impls.push(ImplInfo {
                    trait_name,
                    type_name: type_name.clone(),
                    body: (open, close),
                });
                stack.push(Scope::Impl {
                    type_name,
                    is_test: attr_test || in_test(&stack),
                });
                attr_test = false;
                i = open + 1;
            }
            TokKind::Ident if tok.text == "fn" => {
                let name = match t.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                // Body starts at the first `{` at zero paren/bracket
                // depth; a `;` there means a bodyless declaration. A
                // `->` / `where` at the same depth brackets the return
                // type on the way.
                let mut depth = 0i32;
                let mut j = i + 2;
                let mut open = None;
                let mut arrow: Option<usize> = None;
                let mut ret_end: Option<usize> = None;
                while j < t.len() {
                    let x = &t[j];
                    if x.is_punct('(') || x.is_punct('[') {
                        depth += 1;
                    } else if x.is_punct(')') || x.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && x.is_punct('{') {
                        open = Some(j);
                        break;
                    } else if depth == 0 && x.is_punct(';') {
                        break;
                    } else if depth == 0
                        && x.is_punct('-')
                        && t.get(j + 1).is_some_and(|n| n.is_punct('>'))
                    {
                        arrow.get_or_insert(j + 2);
                    } else if depth == 0 && x.is_ident("where") {
                        ret_end.get_or_insert(j);
                    }
                    j += 1;
                }
                let Some(open) = open else {
                    attr_test = false;
                    i = j + 1;
                    continue;
                };
                let ret = arrow
                    .and_then(|a| base_type_in(&t[a..ret_end.unwrap_or(open)], RET_WRAPPERS).0);
                let close = matching_brace(t, open);
                let own = owner(&stack);
                let qual = match &own {
                    Some(o) => format!("{o}::{name}"),
                    None => name.clone(),
                };
                out.fns.push(FnInfo {
                    name,
                    owner: own,
                    qual,
                    is_test: attr_test || in_test(&stack),
                    body: (open, close),
                    decl: i,
                    line: tok.line,
                    ret,
                });
                attr_test = false;
                // Bodies are opaque to item discovery.
                i = close + 1;
            }
            TokKind::Ident if tok.text == "struct" => {
                let name = match t.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                // Named-field structs open with `{`; tuple (`(`) and unit
                // (`;`) structs carry no resolvable fields.
                let mut j = i + 2;
                let mut open = None;
                let mut depth = 0i32;
                while j < t.len() {
                    let x = &t[j];
                    if x.is_punct('(') || x.is_punct('[') {
                        depth += 1;
                    } else if x.is_punct(')') || x.is_punct(']') {
                        depth -= 1;
                    } else if depth == 0 && x.is_punct('{') {
                        open = Some(j);
                        break;
                    } else if depth == 0 && x.is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                let Some(open) = open else {
                    out.structs.push(StructInfo {
                        name,
                        fields: Vec::new(),
                        wrapped: Vec::new(),
                    });
                    attr_test = false;
                    i = j + 1;
                    continue;
                };
                let close = matching_brace(t, open);
                let (fields, wrapped) = struct_fields(t, open, close);
                out.structs.push(StructInfo {
                    name,
                    fields,
                    wrapped,
                });
                attr_test = false;
                i = close + 1;
            }
            TokKind::Ident if tok.text == "enum" => {
                let name = match t.get(i + 1) {
                    Some(n) if n.kind == TokKind::Ident => n.text.clone(),
                    _ => {
                        i += 1;
                        continue;
                    }
                };
                let Some(open) = (i..t.len()).find(|&j| t[j].is_punct('{')) else {
                    break;
                };
                let close = matching_brace(t, open);
                // Variants are the idents at depth 1 that start a field:
                // the first token after `{` or after a depth-1 `,`,
                // skipping attribute spans.
                let mut variants = Vec::new();
                let mut depth = 0i32;
                let mut expect_variant = false;
                let mut j = open;
                while j <= close {
                    let x = &t[j];
                    if x.is_punct('{') || x.is_punct('(') || x.is_punct('[') {
                        if depth == 1 && x.is_punct('[') {
                            // attribute `#[...]` inside the enum body
                        }
                        depth += 1;
                        if depth == 1 {
                            expect_variant = true;
                        }
                    } else if x.is_punct('}') || x.is_punct(')') || x.is_punct(']') {
                        depth -= 1;
                    } else if depth == 1 && x.is_punct(',') {
                        expect_variant = true;
                    } else if depth == 1 && x.is_punct('#') {
                        // skip the attr; `[` handling above keeps depth sane
                    } else if depth == 1 && expect_variant && x.kind == TokKind::Ident {
                        variants.push(x.text.clone());
                        expect_variant = false;
                    }
                    j += 1;
                }
                out.enums.push(EnumInfo {
                    name,
                    variants,
                    is_test: attr_test || in_test(&stack),
                    line: tok.line,
                });
                attr_test = false;
                i = close + 1;
            }
            TokKind::Punct if tok.is_punct('{') => {
                stack.push(Scope::Other);
                i += 1;
            }
            TokKind::Punct if tok.is_punct('}') => {
                stack.pop();
                i += 1;
            }
            _ => {
                // Any other token at item scope consumes pending attrs
                // (e.g. derives on structs).
                if !(tok.is_ident("pub")
                    || tok.is_ident("const")
                    || tok.is_ident("unsafe")
                    || tok.is_ident("async"))
                {
                    attr_test = false;
                }
                i += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parsed(src: &str) -> ParsedFile {
        parse(&lex(src))
    }

    #[test]
    fn finds_fns_with_owners() {
        let p = parsed(
            "impl Cluster { pub fn put(&self) -> u8 { 0 } }\nfn free() {}\ntrait T { fn m(&self) { } }",
        );
        let quals: Vec<&str> = p.fns.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["Cluster::put", "free", "T::m"]);
        assert!(p.fns.iter().all(|f| !f.is_test));
    }

    #[test]
    fn trait_impl_header_is_split() {
        let p = parsed("impl Classify for NodeError { fn class(&self) {} }");
        assert_eq!(p.impls[0].trait_name.as_deref(), Some("Classify"));
        assert_eq!(p.impls[0].type_name, "NodeError");
        assert_eq!(p.fns[0].qual, "NodeError::class");
    }

    #[test]
    fn qualified_trait_paths_take_last_segment() {
        let p = parsed("impl std::fmt::Display for Thing { fn fmt(&self) {} }");
        assert_eq!(p.impls[0].trait_name.as_deref(), Some("Display"));
        assert_eq!(p.impls[0].type_name, "Thing");
    }

    #[test]
    fn cfg_test_mod_marks_fns() {
        let p = parsed(
            "fn real() {}\n#[cfg(test)]\nmod tests {\n #[test]\n fn t() { real(); }\n fn helper() {}\n}",
        );
        let by_name = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap();
        assert!(!by_name("real").is_test);
        assert!(by_name("t").is_test);
        assert!(by_name("helper").is_test, "helpers inside cfg(test) count");
    }

    #[test]
    fn enum_variants_with_payloads() {
        let p = parsed(
            "pub enum E {\n  A,\n  B { x: u8, y: u8 },\n  C(Vec<String>),\n  #[doc = \"d\"]\n  D,\n}",
        );
        assert_eq!(p.enums[0].variants, ["A", "B", "C", "D"]);
    }

    #[test]
    fn generic_fn_signatures_find_their_body() {
        let p = parsed(
            "fn g<T: Into<Vec<u8>>>(x: T) -> Result<(), String> where T: Clone { let y = [1, 2]; }",
        );
        assert_eq!(p.fns.len(), 1);
        assert_eq!(p.fns[0].name, "g");
    }

    #[test]
    fn fn_return_types_reduce_to_base() {
        let p = parsed(
            "impl Cluster {\n\
               fn node(&self, i: usize) -> Result<Arc<StorageNode>, EchError> { Err(e) }\n\
               fn dirty_mut(&mut self) -> &mut KvDirtyTable { &mut self.dirty }\n\
               fn version(&self) -> u64 where Self: Sized { 0 }\n\
               fn current(&self) -> Self { Self }\n\
               fn tick(&self) { }\n\
             }",
        );
        let ret = |n: &str| p.fns.iter().find(|f| f.name == n).unwrap().ret.as_deref();
        assert_eq!(ret("node"), Some("StorageNode"), "Result/Arc stripped");
        assert_eq!(ret("dirty_mut"), Some("KvDirtyTable"), "&mut stripped");
        assert_eq!(ret("version"), Some("u64"), "where clause ends the span");
        assert_eq!(ret("current"), Some("Self"));
        assert_eq!(ret("tick"), None, "no arrow, no return type");
    }

    #[test]
    fn struct_fields_strip_wrappers_to_base_types() {
        let p = parsed(
            "pub struct Cluster {\n\
               view: ArcSwap<ClusterView>,\n\
               pub(crate) dirty: KvDirtyTable,\n\
               engine: std::sync::Mutex<Reintegrator>,\n\
               limiter: Option<Mutex<MigrationThrottle>>,\n\
               #[allow(dead_code)]\n\
               tables: Vec<MembershipTable>,\n\
               count: u64,\n\
             }\n\
             struct Unit;\n\
             struct Tuple(u8, u16);",
        );
        assert_eq!(p.structs.len(), 3);
        let c = &p.structs[0];
        assert_eq!(c.name, "Cluster");
        let get = |n: &str| {
            c.fields
                .iter()
                .find(|(f, _)| f == n)
                .map(|(_, t)| t.as_str())
        };
        assert_eq!(get("view"), Some("ClusterView"));
        assert_eq!(get("dirty"), Some("KvDirtyTable"));
        assert_eq!(get("engine"), Some("Reintegrator"));
        assert_eq!(get("limiter"), Some("MigrationThrottle"));
        assert_eq!(get("tables"), Some("Vec"), "containers are not stripped");
        assert_eq!(get("count"), Some("u64"));
        let wrap = |n: &str| c.wrapped.iter().find(|(f, _)| f == n).map(|(_, w)| &w[..]);
        assert_eq!(wrap("view"), Some(&["ArcSwap".to_string()][..]));
        assert_eq!(wrap("engine"), Some(&["Mutex".to_string()][..]));
        assert_eq!(
            wrap("limiter"),
            Some(&["Option".to_string(), "Mutex".to_string()][..]),
            "chain is outermost-first"
        );
        assert_eq!(wrap("dirty"), None, "bare fields record no chain");
        assert_eq!(wrap("tables"), None, "containers are not wrappers");
        assert!(p.structs[1].fields.is_empty());
        assert!(p.structs[2].fields.is_empty());
    }

    #[test]
    fn impl_with_generics() {
        let p = parsed("impl<T: Clone> Wrapper<T> { fn w(&self) {} }");
        assert_eq!(p.impls[0].type_name, "Wrapper");
        assert_eq!(p.fns[0].qual, "Wrapper::w");
    }
}
