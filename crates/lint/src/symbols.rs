//! The workspace symbol table: every function and method definition in
//! the scanned sources, with enough shape — receiver type, parameter
//! list, visibility, body extent — for the call-graph and dataflow
//! layers to reason across files.
//!
//! This is *not* name resolution as rustc does it. Items are recognized
//! from the token stream by local syntax only: an `impl` block gives its
//! methods a receiver type (the last identifier of the implemented type
//! path), a `fn` gives a name, a parameter list, and a brace-balanced
//! body range. Anything the heuristics cannot classify is simply not in
//! the table — the documented false-negative posture (DESIGN.md §17):
//! downstream rules may miss facts about code the table cannot see, but
//! they never invent facts about code it can.

use crate::lexer::{balanced, Kind, Token};
use crate::workspace::Workspace;

/// One parsed parameter: its binding name and its type, as normalized
/// token text (single spaces between tokens).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The bound identifier (`bytes`), or `self` for receivers.
    pub name: String,
    /// Normalized type text (`& [ u8 ]`); empty for receivers.
    pub ty: String,
}

/// One function or method definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Index into `Workspace::files`.
    pub file: usize,
    /// Path of the defining file, relative to the workspace root.
    pub rel: String,
    /// Crate directory prefix (`crates/db/`), for same-crate resolution.
    pub crate_dir: String,
    /// Function name.
    pub name: String,
    /// Receiver type from the enclosing `impl` block, if any.
    pub impl_type: Option<String>,
    /// Declared `pub` (any flavour). Not consumed by a rule yet, but
    /// part of the table's contract (and asserted by the unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub is_pub: bool,
    /// Takes a `self` receiver.
    pub has_self: bool,
    /// Parameters, receiver first when present.
    pub params: Vec<Param>,
    /// Token range of the body: indices into the file's token stream,
    /// `[open_brace, close_brace]` inclusive. `None` for bodiless trait
    /// method declarations.
    pub body: Option<(usize, usize)>,
}

impl FnDef {
    /// `file.rs::Type::name` / `file.rs::name` — the stable id used in
    /// the emitted call graph.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.rel, t, self.name),
            None => format!("{}::{}", self.rel, self.name),
        }
    }
}

/// The symbol table for one scanned workspace.
pub struct Symbols {
    /// Every recognized fn, in (file, token-position) order.
    pub fns: Vec<FnDef>,
}

impl Symbols {
    /// Builds the table from every file in `ws`.
    pub fn build(ws: &Workspace) -> Symbols {
        let mut fns = Vec::new();
        for (idx, f) in ws.files.iter().enumerate() {
            let crate_dir = crate_dir_of(&f.rel);
            collect_fns(idx, &f.rel, &crate_dir, &f.scan.tokens, &mut fns);
        }
        Symbols { fns }
    }

    /// All definitions with the given name.
    pub fn by_name<'a, 'n: 'a>(
        &'a self,
        name: &'n str,
    ) -> impl Iterator<Item = (usize, &'a FnDef)> + 'a {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.name == name)
    }

    /// The innermost fn whose body contains token index `tok` of file
    /// `file`, if any. Used to attribute a token (an `Ordering::` literal,
    /// a lock acquisition) to its enclosing function.
    pub fn enclosing(&self, file: usize, tok: usize) -> Option<&FnDef> {
        self.fns
            .iter()
            .filter(|f| {
                f.file == file
                    && f.body
                        .is_some_and(|(open, close)| open <= tok && tok <= close)
            })
            .min_by_key(|f| {
                let (open, close) = f.body.unwrap_or((0, usize::MAX));
                close - open
            })
    }
}

/// `crates/<name>/` prefix of a relative path (or nested shim dir).
pub fn crate_dir_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some(a), Some(b)) if a == "crates" => format!("{a}/{b}/"),
        _ => String::new(),
    }
}

/// One `impl`/`struct` region: token extent plus the subject type name.
pub struct Region {
    /// Opening-brace token index.
    pub open: usize,
    /// Closing-brace token index.
    pub close: usize,
    /// Subject type name.
    pub type_name: String,
}

/// Scan the token stream of one file for `fn` items, attributing each to
/// the innermost enclosing `impl` block.
fn collect_fns(file: usize, rel: &str, crate_dir: &str, t: &[Token], out: &mut Vec<FnDef>) {
    let impls = collect_regions(t, "impl");
    let mut i = 0usize;
    while i < t.len() {
        if !t[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = t.get(i + 1).filter(|n| n.kind == Kind::Ident) else {
            i += 1;
            continue;
        };
        // Visibility: look back past generics-free qualifiers.
        let is_pub = lookback_pub(t, i);
        // Parameter list: first `(` after the name (skipping generics).
        let mut j = i + 2;
        if t.get(j).is_some_and(|x| x.is_punct('<')) {
            j = match skip_angle(t, j) {
                Some(e) => e + 1,
                None => {
                    i += 1;
                    continue;
                }
            };
        }
        if !t.get(j).is_some_and(|x| x.is_punct('(')) {
            i += 1;
            continue;
        }
        let Some(params_end) = balanced(t, j, '(', ')') else {
            i += 1;
            continue;
        };
        let params = parse_params(&t[j + 1..params_end]);
        let has_self = params.first().is_some_and(|p| p.name == "self");
        // Body: the first `{` before any `;` (a `;` first means a trait
        // method declaration without a default body).
        let mut k = params_end + 1;
        let mut body = None;
        while let Some(tok) = t.get(k) {
            if tok.is_punct(';') {
                break;
            }
            if tok.is_punct('{') {
                if let Some(close) = balanced(t, k, '{', '}') {
                    body = Some((k, close));
                }
                break;
            }
            k += 1;
        }
        let impl_type = impls
            .iter()
            .filter(|r| r.open <= i && i <= r.close)
            .min_by_key(|r| r.close - r.open)
            .map(|r| r.type_name.clone());
        out.push(FnDef {
            file,
            rel: rel.to_string(),
            crate_dir: crate_dir.to_string(),
            name: name_tok.text.clone(),
            impl_type,
            is_pub,
            has_self,
            params,
            body,
        });
        // Continue scanning *inside* the body too (nested fns).
        i = match body {
            Some((open, _)) => open + 1,
            None => k + 1,
        };
    }
}

/// All `impl …` (or `struct …`) brace regions with their subject type:
/// the last identifier of the type path before the opening brace (after
/// `for`, when present, so trait impls attribute to the implementing
/// type).
pub fn collect_regions(t: &[Token], keyword: &str) -> Vec<Region> {
    let mut out = Vec::new();
    for (i, tok) in t.iter().enumerate() {
        if !tok.is_ident(keyword) {
            continue;
        }
        // Walk to the opening brace, remembering identifiers; `for`
        // resets the subject (trait impls), `where` ends it.
        let mut subject = String::new();
        let mut in_where = false;
        let mut j = i + 1;
        let mut open = None;
        while let Some(x) = t.get(j) {
            if x.is_punct('{') {
                open = Some(j);
                break;
            }
            if x.is_punct(';') {
                break;
            }
            if x.is_ident("for") {
                subject.clear();
                in_where = false;
            } else if x.is_ident("where") {
                in_where = true;
            } else if x.kind == Kind::Ident && !in_where {
                subject = x.text.clone();
            }
            j += 1;
        }
        let (Some(open), false) = (open, subject.is_empty()) else {
            continue;
        };
        if let Some(close) = balanced(t, open, '{', '}') {
            out.push(Region {
                open,
                close,
                type_name: subject,
            });
        }
    }
    out
}

/// Is the `fn` at index `i` preceded by a `pub` qualifier (possibly
/// `pub(crate)` / `pub(super)`), skipping `const`/`unsafe`/`async`/`extern`?
fn lookback_pub(t: &[Token], mut i: usize) -> bool {
    while i > 0 {
        i -= 1;
        let tok = &t[i];
        if tok.is_ident("pub") {
            return true;
        }
        let skippable = tok.is_punct(')')
            || tok.is_punct('(')
            || (tok.kind == Kind::Ident
                && matches!(
                    tok.text.as_str(),
                    "const" | "unsafe" | "async" | "extern" | "crate" | "super" | "in"
                ))
            || tok.kind == Kind::Str; // extern "C"
        if !skippable {
            return false;
        }
    }
    false
}

/// Skip a generics group starting at the `<` at `i`; returns the index
/// of the matching `>`.
fn skip_angle(t: &[Token], i: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, tok) in t.iter().enumerate().skip(i) {
        if tok.is_punct('<') {
            depth += 1;
        } else if tok.is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Split a parameter-list token slice at top-level commas and parse each
/// parameter into (pattern name, type text).
fn parse_params(group: &[Token]) -> Vec<Param> {
    let mut params = Vec::new();
    for part in split_top_level(group, ',') {
        if part.is_empty() {
            continue;
        }
        // Receiver forms: `self`, `&self`, `&mut self`, `&'a self`,
        // `mut self`, `self: Arc<Self>`.
        if part
            .iter()
            .take(4)
            .any(|x| x.is_ident("self") && x.kind == Kind::Ident)
        {
            params.push(Param {
                name: "self".into(),
                ty: joined(part),
            });
            continue;
        }
        let Some(colon) = top_level_pos(part, ':') else {
            continue;
        };
        // Pattern: last identifier before the colon (`mut bytes` → bytes).
        let name = part[..colon]
            .iter()
            .rev()
            .find(|x| x.kind == Kind::Ident && !x.is_ident("mut") && !x.is_ident("ref"))
            .map(|x| x.text.clone())
            .unwrap_or_default();
        params.push(Param {
            name,
            ty: joined(&part[colon + 1..]),
        });
    }
    params
}

/// Token texts joined with single spaces.
pub fn joined(toks: &[Token]) -> String {
    let mut s = String::new();
    for (i, t) in toks.iter().enumerate() {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(&t.text);
    }
    s
}

/// Split `group` at top-level occurrences of punctuation `sep`
/// (bracket-aware, including angle brackets for generics).
pub fn split_top_level(group: &[Token], sep: char) -> Vec<&[Token]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut angle = 0i32;
    let mut start = 0usize;
    for (j, t) in group.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct(sep) && depth == 0 && angle == 0 {
            out.push(&group[start..j]);
            start = j + 1;
        }
    }
    out.push(&group[start..]);
    out
}

/// Position of the first top-level occurrence of punct `c` in `group`.
fn top_level_pos(group: &[Token], c: char) -> Option<usize> {
    let mut depth = 0i32;
    let mut angle = 0i32;
    for (j, t) in group.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct('<') {
            angle += 1;
        } else if t.is_punct('>') {
            angle = (angle - 1).max(0);
        } else if t.is_punct(c) && depth == 0 && angle == 0 {
            return Some(j);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn table(src: &str) -> Vec<FnDef> {
        let s = scan(src);
        let mut out = Vec::new();
        collect_fns(0, "crates/x/src/a.rs", "crates/x/", &s.tokens, &mut out);
        out
    }

    #[test]
    fn free_and_method_fns() {
        let fns = table(
            "pub fn free(a: u32, b: &[u8]) -> u32 { a }\n\
             struct S;\n\
             impl S {\n  pub(crate) fn m(&self, n: usize) {}\n  fn p() {}\n}\n\
             impl Clone for S { fn clone(&self) -> S { S } }",
        );
        assert_eq!(fns.len(), 4);
        assert_eq!(fns[0].name, "free");
        assert!(fns[0].is_pub && !fns[0].has_self);
        assert_eq!(fns[0].params[1].ty, "& [ u8 ]");
        assert_eq!(fns[1].qualified(), "crates/x/src/a.rs::S::m");
        assert!(fns[1].is_pub && fns[1].has_self);
        assert!(!fns[2].is_pub);
        assert_eq!(fns[3].impl_type.as_deref(), Some("S"));
    }

    #[test]
    fn generic_fns_and_nested_bodies() {
        let fns = table("fn outer<T: Clone>(x: T) -> T {\n  fn inner(y: u32) -> u32 { y }\n  x\n}");
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "outer");
        assert_eq!(fns[1].name, "inner");
        let (o, c) = fns[0].body.unwrap();
        let (io, ic) = fns[1].body.unwrap();
        assert!(o < io && ic < c);
    }

    #[test]
    fn trait_decls_have_no_body() {
        let fns = table("trait T { fn required(&self); fn provided(&self) -> u32 { 1 } }");
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }
}
