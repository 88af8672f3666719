//! Workspace-level call graph over the lexical token stream.
//!
//! Extracts every `fn` definition (with its `impl` type qualifier and body
//! token range) and every call site inside those bodies, then resolves
//! calls to definitions:
//!
//!   - qualified calls `Type::name(...)` resolve to fns named `name`
//!     defined in an `impl Type` block (falling back to free fns named
//!     `name`, then to every `name`, when no qualified match exists);
//!   - method calls `recv.name(...)` and free calls `name(...)` resolve
//!     **receiver-blind**: every definition named `name` is a candidate.
//!
//! The graph is intentionally over-approximate — receiver-blind matching
//! can add edges that no concrete type permits — which is the safe
//! direction for lints (false edges are waivable; missed edges would be
//! silent unsoundness). Definitions inside test code are excluded so a
//! lib-side call can never resolve to a test helper that happens to share
//! a name.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, TokKind};
use crate::scan::SourceFile;

/// One `fn` definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `impl` type qualifier (`UnitHandle` for
    /// `impl UnitHandle { fn advance ... }`), empty for free fns.
    pub qual: String,
    /// Index into the `files` slice the graph was built from.
    pub file: usize,
    pub line: u32,
    /// Token index range of the body: `{` .. matching `}` (inclusive).
    pub body: (usize, usize),
}

/// One call site inside a function body (or any token range).
#[derive(Debug, Clone)]
pub struct CallSite {
    pub name: String,
    /// `Type::name(...)` qualifier, empty for method/free calls.
    pub qual: String,
    /// True for `recv.name(...)` method calls (always receiver-blind).
    pub method: bool,
    pub line: u32,
}

/// Keywords and value constructors that look like calls but are not.
const NON_CALLS: &[&str] = &[
    "if", "while", "match", "return", "loop", "for", "in", "as", "let", "else", "fn", "impl",
    "move", "Some", "Ok", "Err", "None", "Box", "Rc", "RefCell", "Cell", "Vec", "String",
];

pub struct CallGraph {
    pub fns: Vec<FnDef>,
    /// Call sites per function (parallel to `fns`).
    pub calls: Vec<Vec<CallSite>>,
    by_name: BTreeMap<String, Vec<usize>>,
}

impl CallGraph {
    /// Build the graph over every non-test fn definition in `files`.
    pub fn build(files: &[SourceFile]) -> CallGraph {
        let mut fns: Vec<FnDef> = Vec::new();
        for (fi, f) in files.iter().enumerate() {
            collect_fn_defs(f, fi, &mut fns);
        }
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        for (i, d) in fns.iter().enumerate() {
            by_name.entry(d.name.clone()).or_default().push(i);
        }
        let mut calls: Vec<Vec<CallSite>> = vec![Vec::new(); fns.len()];
        for (i, d) in fns.iter().enumerate() {
            let toks = &files[d.file].lexed.toks;
            calls[i] = extract_calls(toks, d.body);
        }
        // Attribute each call to the *innermost* enclosing fn: a call whose
        // line sits inside a strictly smaller nested fn body of the same
        // file belongs to that nested fn, not the parent.
        for i in 0..fns.len() {
            let (bs, be) = fns[i].body;
            let file = fns[i].file;
            let nested: Vec<(usize, usize)> = fns
                .iter()
                .filter(|d| d.file == file && d.body.0 > bs && d.body.1 < be)
                .map(|d| d.body)
                .collect();
            if nested.is_empty() {
                continue;
            }
            let toks = &files[file].lexed.toks;
            let nested_lines: BTreeSet<u32> = nested
                .iter()
                .flat_map(|&(s, e)| {
                    let lo = toks[s].line;
                    let hi = toks[e.min(toks.len() - 1)].line;
                    (lo..=hi).collect::<Vec<u32>>()
                })
                .collect();
            calls[i].retain(|c| !nested_lines.contains(&c.line));
        }

        CallGraph {
            fns,
            calls,
            by_name,
        }
    }

    /// Definitions a call site resolves to.
    pub fn resolve(&self, site: &CallSite) -> Vec<usize> {
        resolve_site(&self.fns, &self.by_name, site)
    }
}

fn resolve_site(
    fns: &[FnDef],
    by_name: &BTreeMap<String, Vec<usize>>,
    site: &CallSite,
) -> Vec<usize> {
    let Some(cands) = by_name.get(&site.name) else {
        return Vec::new();
    };
    if !site.method && !site.qual.is_empty() {
        let qualified: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].qual == site.qual)
            .collect();
        if !qualified.is_empty() {
            return qualified;
        }
        // Crate-path calls (`rp_sim::metric_key(...)`): fall back to free
        // fns of that name before going fully receiver-blind.
        let free: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| fns[i].qual.is_empty())
            .collect();
        if !free.is_empty() {
            return free;
        }
    }
    cands.clone()
}

/// Scan `file` for fn definitions outside test code, tracking `impl`
/// blocks for type qualifiers.
fn collect_fn_defs(file: &SourceFile, file_idx: usize, out: &mut Vec<FnDef>) {
    let t = &file.lexed.toks;
    // impl scopes: (type name, body token range).
    let mut impls: Vec<(String, (usize, usize))> = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if t[i].is("impl") {
            if let Some((name, body)) = parse_impl_header(t, i) {
                impls.push((name, body));
            }
        }
        i += 1;
    }

    i = 0;
    while i < t.len() {
        if !t[i].is("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = t.get(i + 1).filter(|x| x.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        if file.is_test_code(t[i].line) {
            i += 1;
            continue;
        }
        // Find the body `{`, skipping the signature (angle/paren aware);
        // `;` first means a bodyless trait method declaration.
        let mut j = i + 1;
        let mut angle = 0i32;
        let mut paren = 0i32;
        while j < t.len() {
            if t[j].is("<") {
                angle += 1;
            } else if t[j].is(">") {
                angle -= 1;
            } else if t[j].is("(") {
                paren += 1;
            } else if t[j].is(")") {
                paren -= 1;
            } else if angle <= 0 && paren == 0 && (t[j].is("{") || t[j].is(";")) {
                break;
            }
            j += 1;
        }
        if j >= t.len() || !t[j].is("{") {
            i = j;
            continue;
        }
        let open = j;
        let mut depth = 0i32;
        while j < t.len() {
            if t[j].is("{") {
                depth += 1;
            } else if t[j].is("}") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            j += 1;
        }
        let close = j.min(t.len() - 1);
        let qual = impls
            .iter()
            .filter(|(_, (s, e))| open > *s && open < *e)
            .min_by_key(|(_, (s, e))| e - s)
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        out.push(FnDef {
            name: name_tok.text.clone(),
            qual,
            file: file_idx,
            line: t[i].line,
            body: (open, close),
        });
        i += 1; // do not skip the body: nested fns get their own defs
    }
}

/// Parse `impl<...> Type<...> {` / `impl Trait for Type {` headed at `i`:
/// returns (type name, body token range).
fn parse_impl_header(t: &[Tok], i: usize) -> Option<(String, (usize, usize))> {
    let mut j = i + 1;
    let mut angle = 0i32;
    let mut idents_at_top: Vec<usize> = Vec::new();
    let mut after_for: Option<usize> = None;
    let mut saw_for = false;
    while j < t.len() && !t[j].is("{") {
        if t[j].is("<") {
            angle += 1;
        } else if t[j].is(">") {
            angle -= 1;
        } else if angle == 0 && t[j].is("for") {
            saw_for = true;
        } else if angle == 0 && t[j].kind == TokKind::Ident {
            if saw_for && after_for.is_none() {
                after_for = Some(j);
            }
            idents_at_top.push(j);
        }
        j += 1;
    }
    if j >= t.len() {
        return None;
    }
    // `impl Trait for Type` names `Type`; `impl Type` names the last
    // top-level path segment before the brace (handles `impl a::B`).
    let name_idx = after_for.or_else(|| idents_at_top.last().copied())?;
    let open = j;
    let mut depth = 0i32;
    while j < t.len() {
        if t[j].is("{") {
            depth += 1;
        } else if t[j].is("}") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    Some((t[name_idx].text.clone(), (open, j.min(t.len() - 1))))
}

/// Split a call's argument list into top-level token ranges (inclusive).
/// `open` is the index of the call's `(`. Commas nested in parens,
/// brackets, braces, or closure parameter pipes do not split.
pub fn call_args(t: &[Tok], open: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    if !t.get(open).is_some_and(|x| x.is("(")) {
        return out;
    }
    let mut depth = 1i32; // paren/bracket/brace nesting inside the call
    let mut in_pipes = false; // closure parameter list `|a, b|`
    let mut start = open + 1;
    let mut i = open + 1;
    while i < t.len() {
        let x = &t[i];
        if x.is("(") || x.is("[") || x.is("{") {
            depth += 1;
        } else if x.is(")") || x.is("]") || x.is("}") {
            depth -= 1;
            if depth == 0 {
                if i > start {
                    out.push((start, i - 1));
                }
                break;
            }
        } else if depth == 1 && x.is("|") {
            in_pipes = !in_pipes;
        } else if depth == 1 && !in_pipes && x.is(",") {
            if i > start {
                out.push((start, i - 1));
            }
            start = i + 1;
        }
        i += 1;
    }
    out
}

/// Extract call sites from tokens in `range` (inclusive bounds).
pub fn extract_calls(t: &[Tok], range: (usize, usize)) -> Vec<CallSite> {
    let (lo, hi) = range;
    let mut out = Vec::new();
    let mut i = lo;
    while i <= hi.min(t.len().saturating_sub(1)) {
        let is_call = t[i].kind == TokKind::Ident
            && t.get(i + 1).is_some_and(|x| x.is("("))
            && !NON_CALLS.contains(&t[i].text.as_str())
            && !(i >= 1 && t[i - 1].is("fn"));
        if !is_call {
            i += 1;
            continue;
        }
        let method = i >= 1 && t[i - 1].is(".");
        let qual = if !method && i >= 2 && t[i - 1].is("::") && t[i - 2].kind == TokKind::Ident {
            t[i - 2].text.clone()
        } else {
            String::new()
        };
        out.push(CallSite {
            name: t[i].text.clone(),
            qual,
            method,
            line: t[i].line,
        });
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{FileKind, SourceFile};

    fn lib(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_source(rel, FileKind::Lib, src)
    }

    fn find(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("fn {name} not found"))
    }

    #[test]
    fn method_calls_resolve_receiver_blind_across_impls() {
        let src = r#"
struct A;
struct B;
impl A {
    fn poke(&self) {}
}
impl B {
    fn poke(&self) {}
}
fn drive(a: &A) { a.poke(); }
"#;
        let files = vec![lib("x.rs", src)];
        let g = CallGraph::build(&files);
        let drive = find(&g, "drive");
        // `.poke()` is receiver-blind: both impls are candidates.
        let r = g.resolve(&g.calls[drive][0]);
        let pokes: Vec<&FnDef> = g.fns.iter().filter(|d| d.name == "poke").collect();
        assert_eq!(pokes.len(), 2);
        assert_eq!(r.len(), 2, "both poke defs resolve receiver-blind: {r:?}");
    }

    #[test]
    fn qualified_calls_resolve_to_the_named_impl_only() {
        let src = r#"
struct A;
struct B;
impl A {
    fn mk() -> A { A }
}
impl B {
    fn mk() -> B { B }
}
fn drive() { let _x = A::mk(); }
"#;
        let files = vec![lib("x.rs", src)];
        let g = CallGraph::build(&files);
        let drive = find(&g, "drive");
        let r = g.resolve(&g.calls[drive][0]);
        assert_eq!(r.len(), 1, "only A::mk resolves: {r:?}");
        assert_eq!(g.fns[r[0]].qual, "A");
    }

    #[test]
    fn trait_impls_qualify_by_the_implementing_type() {
        let src = r#"
struct A;
impl Clone for A {
    fn clone(&self) -> A { A }
}
"#;
        let files = vec![lib("x.rs", src)];
        let g = CallGraph::build(&files);
        let c = find(&g, "clone");
        assert_eq!(g.fns[c].qual, "A");
    }

    #[test]
    fn test_code_definitions_are_excluded() {
        let src = r#"
fn lib_fn() { helper(); }
#[cfg(test)]
mod tests {
    fn helper() { panic!("test-only") }
}
"#;
        let files = vec![lib("x.rs", src)];
        let g = CallGraph::build(&files);
        assert!(g.fns.iter().all(|d| d.name != "helper"));
        assert!(g.resolve(&g.calls[find(&g, "lib_fn")][0]).is_empty());
    }

    #[test]
    fn nested_fn_calls_are_not_attributed_to_the_parent() {
        let src = r#"
fn parent() {
    fn child() { deep(); }
    child();
}
fn deep() {}
"#;
        let files = vec![lib("x.rs", src)];
        let g = CallGraph::build(&files);
        let parent = find(&g, "parent");
        let names: Vec<&str> = g.calls[parent].iter().map(|c| c.name.as_str()).collect();
        assert!(names.contains(&"child"));
        assert!(
            !names.contains(&"deep"),
            "deep() belongs to child, not parent: {names:?}"
        );
        let child = find(&g, "child");
        assert!(g.calls[child].iter().any(|c| c.name == "deep"));
    }
}
