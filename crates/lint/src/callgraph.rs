//! The approximate call graph.
//!
//! Call *sites* are recognized syntactically from the token stream —
//! `name(…)` free calls, `recv.name(…)` method calls, `Qual::name(…)`
//! path calls — and resolved against the [`Symbols`] table by a
//! conservative cascade:
//!
//! 1. a path qualifier that names a known impl type or a workspace crate
//!    narrows the candidate set to that type / crate;
//! 2. otherwise a unique same-file definition wins;
//! 3. otherwise a unique same-crate definition wins;
//! 4. otherwise a globally unique definition wins;
//! 5. otherwise the call is left **unresolved**.
//!
//! The posture is deliberately false-negative (DESIGN.md §17): an
//! unresolved call contributes no edge, so reachability-based rules can
//! miss paths that flow through trait objects, closures, or ambiguous
//! names — but every edge that *is* in the graph corresponds to a real
//! syntactic call whose target heuristic had exactly one answer.

use std::collections::BTreeMap;

use crate::lexer::{balanced, Kind, Token};
use crate::symbols::{FnDef, Symbols};
use crate::workspace::Workspace;

/// One syntactic call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the caller in `Symbols::fns`.
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Path qualifier (`Qual::name`), if any — the last identifier
    /// before the `::`.
    pub qualifier: Option<String>,
    /// True for `recv.name(…)` method-call syntax.
    pub is_method: bool,
    /// Receiver token range (indices into the file's token stream) for
    /// method calls: the primary expression the `.` hangs off.
    pub receiver: Option<(usize, usize)>,
    /// Token index of the callee-name token.
    pub name_tok: usize,
    /// Argument token ranges, one `(start, end)` (exclusive) per
    /// top-level comma-separated argument.
    pub args: Vec<(usize, usize)>,
    /// 1-based source line of the callee name.
    pub line: u32,
    /// Resolved target: index into `Symbols::fns`, if the cascade found
    /// exactly one.
    pub target: Option<usize>,
}

/// The call graph for one workspace: every recognized call site, plus
/// an adjacency list over resolved edges.
pub struct CallGraph {
    /// All call sites, grouped in caller order.
    pub sites: Vec<CallSite>,
    /// `edges[f]` = indices (into `Symbols::fns`) of resolved callees of
    /// fn `f`, sorted and deduplicated.
    pub edges: Vec<Vec<usize>>,
    /// Count of call sites the cascade could not resolve.
    pub unresolved: usize,
}

impl CallGraph {
    /// Builds the graph for `ws` over the given symbol table.
    pub fn build(ws: &Workspace, syms: &Symbols) -> CallGraph {
        let mut sites = Vec::new();
        for (fi, fun) in syms.fns.iter().enumerate() {
            let Some((open, close)) = fun.body else {
                continue;
            };
            let toks = &ws.files[fun.file].scan.tokens;
            // Bodies of fns nested inside this one belong to the nested
            // fn, not to us.
            let nested: Vec<(usize, usize)> = syms
                .fns
                .iter()
                .filter(|g| g.file == fun.file)
                .filter_map(|g| g.body)
                .filter(|&(o, c)| o > open && c < close)
                .collect();
            collect_sites(toks, fi, open + 1, close, &nested, &mut sites);
        }
        let mut unresolved = 0usize;
        let mut edges = vec![Vec::new(); syms.fns.len()];
        for site in &mut sites {
            site.target = resolve(site, syms);
            match site.target {
                Some(t) => edges[site.caller].push(t),
                None => unresolved += 1,
            }
        }
        for e in &mut edges {
            e.sort_unstable();
            e.dedup();
        }
        CallGraph {
            sites,
            edges,
            unresolved,
        }
    }

    /// Call sites belonging to caller `f`.
    pub fn sites_of(&self, f: usize) -> impl Iterator<Item = &CallSite> {
        self.sites.iter().filter(move |s| s.caller == f)
    }

    /// Stable JSON rendering of the resolved graph: one key per defined
    /// fn (qualified id, sorted), each with its sorted callee-id list,
    /// plus a summary object. Line numbers are deliberately omitted so
    /// the `results/callgraph.json` snapshot only drifts when the call
    /// structure does.
    pub fn to_json(&self, syms: &Symbols) -> String {
        let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (fi, fun) in syms.fns.iter().enumerate() {
            let mut callees: Vec<String> = self.edges[fi]
                .iter()
                .map(|&t| syms.fns[t].qualified())
                .collect();
            callees.sort();
            callees.dedup();
            // Duplicate qualified ids (e.g. two trait impls the table
            // collapsed) merge their edge lists.
            map.entry(fun.qualified()).or_default().extend(callees);
        }
        let mut s = String::from("{\n  \"functions\": {\n");
        let n = map.len();
        for (i, (id, mut callees)) in map.into_iter().enumerate() {
            callees.sort();
            callees.dedup();
            s.push_str("    \"");
            s.push_str(&esc(&id));
            s.push_str("\": [");
            for (j, c) in callees.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push('"');
                s.push_str(&esc(c));
                s.push('"');
            }
            s.push(']');
            if i + 1 < n {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  },\n  \"summary\": {");
        s.push_str(&format!(
            "\"functions\": {}, \"call_sites\": {}, \"resolved\": {}, \"unresolved\": {}",
            syms.fns.len(),
            self.sites.len(),
            self.sites.len() - self.unresolved,
            self.unresolved
        ));
        s.push_str("}\n}\n");
        s
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Keywords that look like `kw(…)` but are not calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "fn"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "async"
            | "await"
            | "unsafe"
            | "impl"
            | "dyn"
            | "where"
            | "as"
            | "in"
            | "pub"
            | "use"
            | "mod"
            | "struct"
            | "enum"
            | "trait"
            | "type"
            | "const"
            | "static"
    )
}

/// Scan tokens `[start, end)` of one fn body for call sites, skipping
/// the `skip` sub-ranges (nested fn bodies).
fn collect_sites(
    t: &[Token],
    caller: usize,
    start: usize,
    end: usize,
    skip: &[(usize, usize)],
    out: &mut Vec<CallSite>,
) {
    let mut i = start;
    while i < end {
        if let Some(&(_, close)) = skip.iter().find(|&&(o, c)| o <= i && i <= c) {
            i = close + 1;
            continue;
        }
        let tok = &t[i];
        if tok.kind != Kind::Ident || is_keyword(&tok.text) {
            i += 1;
            continue;
        }
        // Macro invocation `name!(…)` — never a fn call.
        if t.get(i + 1).is_some_and(|x| x.is_punct('!')) {
            i += 1;
            continue;
        }
        // The token after the name (possibly past a turbofish) must be `(`.
        let mut after = i + 1;
        if t.get(after).is_some_and(|x| x.is_punct(':'))
            && t.get(after + 1).is_some_and(|x| x.is_punct(':'))
            && t.get(after + 2).is_some_and(|x| x.is_punct('<'))
        {
            // Turbofish `name::<T>(…)`: skip to matching `>`.
            let mut depth = 0i32;
            let mut j = after + 2;
            while j < end {
                if t[j].is_punct('<') {
                    depth += 1;
                } else if t[j].is_punct('>') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            after = j + 1;
        }
        if !t.get(after).is_some_and(|x| x.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(close) = balanced(t, after, '(', ')') else {
            i += 1;
            continue;
        };
        // Classify by what precedes the name.
        let prev = i.checked_sub(1).map(|p| &t[p]);
        let mut is_method = false;
        let mut qualifier = None;
        let mut receiver = None;
        match prev {
            Some(p) if p.is_punct('.') => {
                is_method = true;
                receiver = receiver_range(t, i - 1, start);
            }
            Some(p) if p.is_punct(':') => {
                // `Qual::name(` — take the last ident before the `::`.
                if i >= 3 && t[i - 2].is_punct(':') && t[i - 3].kind == Kind::Ident {
                    qualifier = Some(t[i - 3].text.clone());
                } else {
                    // `::name(` or `<T as X>::name(` — unknown qualifier;
                    // leave it unresolvable rather than guess.
                    qualifier = Some(String::new());
                }
            }
            Some(p) if p.is_ident("fn") => {
                // A nested fn definition, not a call.
                i = after + 1;
                continue;
            }
            _ => {}
        }
        let args = split_args(t, after, close);
        out.push(CallSite {
            caller,
            name: tok.text.clone(),
            qualifier,
            is_method,
            receiver,
            name_tok: i,
            args,
            line: tok.line,
            target: None,
        });
        // Arguments may themselves contain calls: keep scanning from
        // just inside the parens.
        i += 1;
    }
}

/// Argument ranges of a call whose `(` is at `open` and `)` at `close`.
fn split_args(t: &[Token], open: usize, close: usize) -> Vec<(usize, usize)> {
    if open + 1 == close {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = open + 1;
    for (j, x) in t.iter().enumerate().take(close).skip(open + 1) {
        if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
            depth += 1;
        } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
            depth -= 1;
        } else if x.is_punct('<') {
            angle += 1;
        } else if x.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if x.is_punct(',') && depth == 0 && angle == 0 {
            if start < j {
                out.push((start, j));
            }
            start = j + 1;
        }
    }
    if start < close {
        out.push((start, close));
    }
    out
}

/// The receiver expression of a method call: walk left from the `.` at
/// `dot` over one postfix chain (`a.b[0].c()?` etc.), stopping at an
/// operator or statement boundary. Returns a token range.
fn receiver_range(t: &[Token], dot: usize, floor: usize) -> Option<(usize, usize)> {
    let mut i = dot;
    while i > floor {
        let p = &t[i - 1];
        if p.kind == Kind::Ident && !is_keyword(&p.text) {
            i -= 1;
            continue;
        }
        if p.is_punct(')') || p.is_punct(']') {
            // Matching open bracket: walk back.
            let (openc, closec) = if p.is_punct(')') {
                ('(', ')')
            } else {
                ('[', ']')
            };
            let mut depth = 0i32;
            let mut j = i - 1;
            loop {
                if t[j].is_punct(closec) {
                    depth += 1;
                } else if t[j].is_punct(openc) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == floor {
                    return None;
                }
                j -= 1;
            }
            i = j;
            continue;
        }
        if p.is_punct('.') || p.is_punct('?') {
            i -= 1;
            continue;
        }
        if p.is_punct(':') && i >= 2 && t[i - 2].is_punct(':') {
            i -= 2;
            continue;
        }
        break;
    }
    if i == dot {
        None
    } else {
        Some((i, dot))
    }
}

/// Map a crate-path qualifier (`avq_codec`) to its directory
/// (`crates/codec/`). The workspace convention is `avq_<dir>`.
fn crate_qualifier_dir(q: &str) -> Option<String> {
    let dir = q.strip_prefix("avq_")?;
    Some(format!("crates/{dir}/"))
}

/// The resolution cascade described in the module docs.
fn resolve(site: &CallSite, syms: &Symbols) -> Option<usize> {
    let candidates: Vec<(usize, &FnDef)> = syms.by_name(&site.name).collect();
    if candidates.is_empty() {
        return None;
    }
    let caller = &syms.fns[site.caller];

    // Qualified path call: `Type::name(…)` or `avq_crate::name(…)`.
    if let Some(q) = &site.qualifier {
        if q.is_empty() {
            return None;
        }
        let by_type: Vec<usize> = candidates
            .iter()
            .filter(|(_, f)| f.impl_type.as_deref() == Some(q.as_str()))
            .map(|(i, _)| *i)
            .collect();
        if let [one] = by_type[..] {
            return Some(one);
        }
        if by_type.len() > 1 {
            return None;
        }
        if let Some(dir) = crate_qualifier_dir(q) {
            let by_crate: Vec<usize> = candidates
                .iter()
                .filter(|(_, f)| f.crate_dir == dir && f.impl_type.is_none())
                .map(|(i, _)| *i)
                .collect();
            if let [one] = by_crate[..] {
                return Some(one);
            }
        }
        return None;
    }

    // Method calls only match defs with a receiver; free calls only
    // match defs without one (associated fns called via `Self::` land
    // in the qualified branch).
    let shaped: Vec<(usize, &FnDef)> = candidates
        .into_iter()
        .filter(|(_, f)| f.has_self == site.is_method)
        .collect();
    // `self.name(…)` prefers the caller's own impl block.
    if site.is_method {
        if let Some(own) = caller.impl_type.as_deref() {
            let same_impl: Vec<usize> = shaped
                .iter()
                .filter(|(_, f)| {
                    f.impl_type.as_deref() == Some(own) && f.crate_dir == caller.crate_dir
                })
                .map(|(i, _)| *i)
                .collect();
            if let [one] = same_impl[..] {
                return Some(one);
            }
        }
    }
    let same_file: Vec<usize> = shaped
        .iter()
        .filter(|(_, f)| f.file == caller.file)
        .map(|(i, _)| *i)
        .collect();
    if let [one] = same_file[..] {
        return Some(one);
    }
    if same_file.len() > 1 {
        return None;
    }
    let same_crate: Vec<usize> = shaped
        .iter()
        .filter(|(_, f)| f.crate_dir == caller.crate_dir)
        .map(|(i, _)| *i)
        .collect();
    if let [one] = same_crate[..] {
        return Some(one);
    }
    if same_crate.len() > 1 {
        return None;
    }
    if let [(one, _)] = shaped[..] {
        return Some(one);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::workspace::{SourceFile, Workspace};

    fn ws_of(files: &[(&str, &str)]) -> Workspace {
        Workspace {
            files: files
                .iter()
                .map(|(rel, src)| SourceFile {
                    rel: rel.to_string(),
                    scan: scan(src),
                })
                .collect(),
            members: Vec::new(),
            root: std::path::PathBuf::from("."),
        }
    }

    fn graph(files: &[(&str, &str)]) -> (Workspace, Symbols, CallGraph) {
        let ws = ws_of(files);
        let syms = Symbols::build(&ws);
        let cg = CallGraph::build(&ws, &syms);
        (ws, syms, cg)
    }

    fn edge(syms: &Symbols, cg: &CallGraph, from: &str, to: &str) -> bool {
        let f = syms.by_name(from).next().unwrap().0;
        let t = syms.by_name(to).next().unwrap().0;
        cg.edges[f].contains(&t)
    }

    #[test]
    fn free_method_and_qualified_calls_resolve() {
        let (_, syms, cg) = graph(&[(
            "crates/db/src/a.rs",
            "struct S;\n\
             impl S { fn m(&self) { helper(1); } }\n\
             fn helper(x: u32) -> u32 { x }\n\
             fn top(s: &S) { s.m(); S::assoc(); }\n\
             impl S { fn assoc() {} }",
        )]);
        assert!(edge(&syms, &cg, "m", "helper"));
        assert!(edge(&syms, &cg, "top", "m"));
        assert!(edge(&syms, &cg, "top", "assoc"));
    }

    #[test]
    fn cross_crate_qualified_and_ambiguity() {
        let (_, syms, cg) = graph(&[
            (
                "crates/db/src/a.rs",
                "fn caller() { avq_codec::decode(); ambiguous(); }",
            ),
            (
                "crates/codec/src/lib.rs",
                "pub fn decode() {}\npub fn ambiguous() {}",
            ),
            ("crates/wal/src/lib.rs", "pub fn ambiguous() {}"),
        ]);
        assert!(edge(&syms, &cg, "caller", "decode"));
        // `ambiguous` has two global candidates and no local one: no edge.
        let caller = syms.by_name("caller").next().unwrap().0;
        assert_eq!(cg.edges[caller].len(), 1);
        assert_eq!(cg.unresolved, 1);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let (_, syms, cg) = graph(&[(
            "crates/db/src/a.rs",
            "fn f() { println!(\"x\"); if true { g(); } return; }\nfn g() {}",
        )]);
        let f = syms.by_name("f").next().unwrap().0;
        assert_eq!(cg.edges[f].len(), 1);
        assert!(edge(&syms, &cg, "f", "g"));
    }

    #[test]
    fn turbofish_and_args() {
        let (_, syms, cg) = graph(&[(
            "crates/db/src/a.rs",
            "fn f() { g::<u32>(1, h(2)); }\nfn g<T>(a: T, b: u32) {}\nfn h(x: u32) -> u32 { x }",
        )]);
        assert!(edge(&syms, &cg, "f", "g"));
        assert!(edge(&syms, &cg, "f", "h"));
        let site = cg.sites.iter().find(|s| s.name == "g").unwrap();
        assert_eq!(site.args.len(), 2);
    }

    #[test]
    fn json_shape_is_stable() {
        let (_, syms, cg) = graph(&[("crates/db/src/a.rs", "fn a() { b(); }\nfn b() {}")]);
        let j = cg.to_json(&syms);
        assert!(j.contains("\"crates/db/src/a.rs::a\": [\"crates/db/src/a.rs::b\"]"));
        assert!(
            j.contains("\"functions\": 2, \"call_sites\": 1, \"resolved\": 1, \"unresolved\": 0")
        );
    }
}
