//! AVQ-L009 — lock discipline.
//!
//! Proves four properties against the declared lock hierarchy
//! (`config::LOCKS`, mirrored in the DESIGN.md §17 table, two-way
//! checked): every `Mutex`/`RwLock` struct field is in the inventory;
//! nested acquisitions strictly increase in rank; no decode/IO/fsync
//! call runs while a guard is held; and production code has no `Condvar`
//! (field or wait).
//!
//! Guard tracking is per-function and syntactic: a guard counts as
//! *held* only when bound by a plain `let` whose initializer ends right
//! after the `lock()/read()/write()` (plus `expect`/`unwrap`/`?`)
//! chain — `let n = self.slots.lock().expect("…").len();` is a
//! temporary, not a hold. The documented false-negative posture.

use std::collections::{BTreeMap, BTreeSet};

use super::Finding;
use crate::config::{self, LOCKS};
use crate::lexer::{balanced, Kind, Token};
use crate::symbols::{collect_regions, Symbols};
use crate::workspace::{design_section, named_table_rows, Workspace};

/// Run AVQ-L009 over the workspace.
pub fn check(ws: &Workspace, syms: &Symbols, out: &mut Vec<Finding>) {
    for (fidx, file) in ws.files.iter().enumerate() {
        let t = &file.scan.tokens;
        check_condvar_waits(&file.rel, t, out);
        check_struct_fields(&file.rel, t, out);
        let file_locks: BTreeMap<&str, u32> = LOCKS
            .iter()
            .filter(|r| r.file == file.rel)
            .map(|r| (r.field, r.rank))
            .collect();
        for f in syms.fns.iter().filter(|f| f.file == fidx) {
            if let Some(body) = f.body {
                simulate(&file.rel, t, body, &file_locks, out);
            }
        }
    }
    check_unused_rows(ws, out);
    check_design_table(ws, out);
}

/// `Condvar` waits (`.wait(` / `.wait_timeout(` / `.wait_while(`) have no
/// place in production code.
fn check_condvar_waits(rel: &str, t: &[Token], out: &mut Vec<Finding>) {
    for i in 1..t.len() {
        if t[i].kind == Kind::Ident
            && matches!(t[i].text.as_str(), "wait" | "wait_timeout" | "wait_while")
            && t[i - 1].is_punct('.')
            && t.get(i + 1).is_some_and(|x| x.is_punct('('))
        {
            out.push(Finding {
                file: rel.to_string(),
                line: t[i].line,
                rule: "AVQ-L009".into(),
                message: format!("condvar `{}` — no `Condvar` in production code", t[i].text),
            });
        }
    }
}

/// Every `Mutex`/`RwLock` struct field must be an inventory row; a
/// `Condvar` field is a finding wherever it is.
fn check_struct_fields(rel: &str, t: &[Token], out: &mut Vec<Finding>) {
    for region in collect_regions(t, "struct") {
        let mut depth = 0i32;
        let mut angle = 0i32;
        let mut i = region.open + 1;
        while i < region.close {
            let tok = &t[i];
            if tok.is_punct('(') || tok.is_punct('[') || tok.is_punct('{') {
                depth += 1;
            } else if tok.is_punct(')') || tok.is_punct(']') || tok.is_punct('}') {
                depth -= 1;
            } else if tok.is_punct('<') {
                angle += 1;
            } else if tok.is_punct('>') {
                angle = (angle - 1).max(0);
            } else if depth == 0
                && angle == 0
                && tok.kind == Kind::Ident
                && t.get(i + 1).is_some_and(|x| x.is_punct(':'))
                && !t.get(i + 2).is_some_and(|x| x.is_punct(':'))
            {
                // Field `tok.text`: type runs to the next top-level comma.
                let mut j = i + 2;
                let (mut d2, mut a2) = (0i32, 0i32);
                let mut ty_idents: Vec<&str> = Vec::new();
                while j < region.close {
                    let x = &t[j];
                    if x.is_punct('(') || x.is_punct('[') || x.is_punct('{') {
                        d2 += 1;
                    } else if x.is_punct(')') || x.is_punct(']') || x.is_punct('}') {
                        d2 -= 1;
                    } else if x.is_punct('<') {
                        a2 += 1;
                    } else if x.is_punct('>') {
                        a2 = (a2 - 1).max(0);
                    } else if x.is_punct(',') && d2 == 0 && a2 == 0 {
                        break;
                    } else if x.kind == Kind::Ident {
                        ty_idents.push(&x.text);
                    }
                    j += 1;
                }
                let is_lock = ty_idents.iter().any(|s| *s == "Mutex" || *s == "RwLock");
                let is_cv = ty_idents.contains(&"Condvar");
                if is_lock && !LOCKS.iter().any(|r| r.file == rel && r.field == tok.text) {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: tok.line,
                        rule: "AVQ-L009".into(),
                        message: format!(
                            "lock field `{}` is not in the lock-hierarchy inventory (config::LOCKS + DESIGN.md §17) — assign it a rank",
                            tok.text
                        ),
                    });
                }
                if is_cv {
                    out.push(Finding {
                        file: rel.to_string(),
                        line: tok.line,
                        rule: "AVQ-L009".into(),
                        message: format!(
                            "`Condvar` field `{}` — no `Condvar` in production code",
                            tok.text
                        ),
                    });
                }
                i = j;
                continue;
            }
            i += 1;
        }
    }
}

/// One held guard during the per-function walk.
struct Held {
    rank: u32,
    field: String,
    depth: i32,
    binding: String,
}

/// Walk one fn body tracking held guards; flag rank inversions and
/// blocking calls under a guard.
fn simulate(
    rel: &str,
    t: &[Token],
    body: (usize, usize),
    file_locks: &BTreeMap<&str, u32>,
    out: &mut Vec<Finding>,
) {
    let (open, close) = body;
    let mut depth = 1i32; // the body brace itself
    let mut held: Vec<Held> = Vec::new();
    let mut i = open + 1;
    while i < close {
        let tok = &t[i];
        if tok.is_punct('{') {
            depth += 1;
        } else if tok.is_punct('}') {
            depth -= 1;
            held.retain(|h| h.depth <= depth);
        } else if tok.kind == Kind::Ident {
            if let Some(&rank) = file_locks.get(tok.text.as_str()) {
                if is_acquire(t, i) {
                    for h in &held {
                        if rank <= h.rank {
                            out.push(Finding {
                                file: rel.to_string(),
                                line: tok.line,
                                rule: "AVQ-L009".into(),
                                message: format!(
                                    "lock-order inversion: acquiring `{}` (rank {rank}) while `{}` (rank {}) is held — ranks must strictly increase",
                                    tok.text, h.field, h.rank
                                ),
                            });
                        }
                    }
                    if let Some(binding) = let_bound_hold(t, i) {
                        held.push(Held {
                            rank,
                            field: tok.text.clone(),
                            depth,
                            binding,
                        });
                    }
                }
            } else if tok.is_ident("drop")
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
                && t.get(i + 3).is_some_and(|x| x.is_punct(')'))
            {
                // `drop(guard)` releases an explicitly named guard early.
                if let Some(name) = t.get(i + 2).filter(|x| x.kind == Kind::Ident) {
                    held.retain(|h| h.binding != name.text);
                }
            } else if !held.is_empty()
                && config::BLOCKING_CALLS.contains(&tok.text.as_str())
                && t.get(i + 1).is_some_and(|x| x.is_punct('('))
            {
                let h = held.last().expect("held is non-empty");
                out.push(Finding {
                    file: rel.to_string(),
                    line: tok.line,
                    rule: "AVQ-L009".into(),
                    message: format!(
                        "`{}` called while guard on `{}` (rank {}) is held — decode/IO/fsync must not run under a lock",
                        tok.text, h.field, h.rank
                    ),
                });
            }
        }
        i += 1;
    }
}

/// Is token `i` (a lock field ident) followed by `.lock(` / `.read(` /
/// `.write(`?
fn is_acquire(t: &[Token], i: usize) -> bool {
    t.get(i + 1).is_some_and(|x| x.is_punct('.'))
        && t.get(i + 2).is_some_and(|x| {
            x.kind == Kind::Ident && matches!(x.text.as_str(), "lock" | "read" | "write")
        })
        && t.get(i + 3).is_some_and(|x| x.is_punct('('))
}

/// Does the acquisition at field-ident `i` bind a guard that outlives
/// the statement — i.e. the statement starts with `let` and the
/// initializer ends (`;`) right after the `lock()` +
/// `expect`/`unwrap`/`?` chain? Returns the bound name (for `drop`
/// tracking) when it does.
fn let_bound_hold(t: &[Token], i: usize) -> Option<String> {
    // Statement start: first token after the previous `;` / `{` / `}`.
    let mut b = i;
    while b > 0 {
        let x = &t[b - 1];
        if x.is_punct(';') || x.is_punct('{') || x.is_punct('}') {
            break;
        }
        b -= 1;
    }
    if !t.get(b).is_some_and(|x| x.is_ident("let")) {
        return None;
    }
    let mut n = b + 1;
    while t.get(n).is_some_and(|x| x.is_ident("mut")) {
        n += 1;
    }
    let binding = t
        .get(n)
        .filter(|x| x.kind == Kind::Ident)
        .map(|x| x.text.clone())?;
    // Chain end: close of `lock(…)`, then optional `.expect(…)` /
    // `.unwrap()` / `?` links, then `;`.
    let mut c = balanced(t, i + 3, '(', ')')?;
    loop {
        if t.get(c + 1).is_some_and(|x| x.is_punct('?')) {
            c += 1;
            continue;
        }
        if t.get(c + 1).is_some_and(|x| x.is_punct('.'))
            && t.get(c + 2)
                .is_some_and(|x| x.is_ident("expect") || x.is_ident("unwrap"))
            && t.get(c + 3).is_some_and(|x| x.is_punct('('))
        {
            match balanced(t, c + 3, '(', ')') {
                Some(e) => {
                    c = e;
                    continue;
                }
                None => return None,
            }
        }
        break;
    }
    t.get(c + 1)
        .is_some_and(|x| x.is_punct(';'))
        .then_some(binding)
}

/// Inventory rows whose file is in the workspace but whose field never
/// appears in it are stale.
fn check_unused_rows(ws: &Workspace, out: &mut Vec<Finding>) {
    for row in LOCKS {
        let Some(file) = ws.files.iter().find(|f| f.rel == row.file) else {
            continue; // fixture trees carry only a slice of the inventory
        };
        let present = file
            .scan
            .tokens
            .iter()
            .any(|x| x.kind == Kind::Ident && x.text == row.field);
        if !present {
            out.push(Finding {
                file: row.file.to_string(),
                line: 1,
                rule: "AVQ-L009".into(),
                message: format!(
                    "stale inventory row: lock field `{}` ({}) no longer appears in this file — drop it from config::LOCKS and DESIGN.md §17",
                    row.field, row.label
                ),
            });
        }
    }
}

/// Two-way check of config::LOCKS against the DESIGN.md §17 table
/// (columns `file`, `field`, `rank`). Skipped when the tree has no
/// DESIGN.md (fixtures).
fn check_design_table(ws: &Workspace, out: &mut Vec<Finding>) {
    if !ws.root.join("DESIGN.md").is_file() {
        return;
    }
    let push = |out: &mut Vec<Finding>, message: String| {
        out.push(Finding {
            file: "DESIGN.md".into(),
            line: 1,
            rule: "AVQ-L009".into(),
            message,
        });
    };
    let Some(section) = design_section(&ws.root, 17) else {
        push(
            out,
            "DESIGN.md §17 (static analysis) is missing — the lock-hierarchy table lives there"
                .into(),
        );
        return;
    };
    let doc: BTreeSet<(String, String, String)> = named_table_rows(&section, "rank")
        .into_iter()
        .filter(|r| r.len() >= 3)
        .map(|r| (r[0].clone(), r[1].clone(), r[2].clone()))
        .collect();
    let code: BTreeSet<(String, String, String)> = LOCKS
        .iter()
        .map(|r| (r.file.to_string(), r.field.to_string(), r.rank.to_string()))
        .collect();
    for (file, field, rank) in code.difference(&doc) {
        push(
            out,
            format!(
                "lock `{field}` ({file}, rank {rank}) is in config::LOCKS but not in the §17 table"
            ),
        );
    }
    for (file, field, rank) in doc.difference(&code) {
        push(
            out,
            format!(
                "§17 table row `{field}` ({file}, rank {rank}) has no matching config::LOCKS entry"
            ),
        );
    }
}
