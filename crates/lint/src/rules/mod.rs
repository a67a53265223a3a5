//! The rule engine: two project-native token rules over the scanned
//! workspace, plus waiver resolution.
//!
//! Rules first collect *candidate* findings; resolution then matches
//! each candidate against the `// lint:` directives of its file — a
//! matching waiver suppresses the finding and is recorded in the waiver
//! summary, an unmatched candidate becomes a reported finding, and any
//! directive that waived nothing (or failed to parse) is itself a
//! finding. This ordering means a stale waiver can never silently hide
//! future regressions.
//!
//! Rule ids are stable and never reused. AVQ-L001 (panic freedom),
//! AVQ-L003 (crate-root hygiene), AVQ-L005 (virtual clock) and AVQ-L006
//! (`Corrupt` sections) moved onto rustc lints, clippy lints and a
//! section type (`--explain` names where); AVQ-L007 (taint), AVQ-L008
//! (wrapper-family drift), AVQ-L009 (lock ranks) and AVQ-L010 (atomics
//! inventory) are retired.

use crate::config;
use crate::lexer::{balanced, DirectiveKind, Kind, Token};
use crate::workspace::{parse_metric_consts, SourceFile, Workspace};
use std::collections::BTreeMap;

/// One reported problem.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Rule id (`AVQ-L002`, `AVQ-L004`, or `AVQ-WAIVER` for waiver
    /// hygiene problems).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

/// One waiver that suppressed at least one finding.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Path relative to the workspace root.
    pub file: String,
    /// Line of the `// lint:` comment.
    pub line: u32,
    /// The rule it waived.
    pub rule: String,
    /// The written justification.
    pub reason: String,
}

/// The linter's complete output for one run.
pub struct Report {
    /// Findings, sorted by (file, line, rule, message).
    pub findings: Vec<Finding>,
    /// Waivers in effect, sorted by (file, line).
    pub waivers: Vec<Waiver>,
}

/// Run every rule and resolve waivers.
pub fn run(ws: &mut Workspace) -> Report {
    let mut candidates = Vec::new();
    for f in &ws.files {
        if config::in_scope(&f.rel, config::DECODE_PATHS) {
            l002_bounded_capacity(f, &mut candidates);
        }
    }
    l004_metric_names(ws, &mut candidates);
    resolve(ws, candidates)
}

/// Match candidates against directives; collect final findings and the
/// waiver summary.
fn resolve(ws: &mut Workspace, candidates: Vec<Finding>) -> Report {
    let mut findings = Vec::new();
    for c in candidates {
        let mut waived = false;
        if let Some(file) = ws.files.iter_mut().find(|f| f.rel == c.file) {
            let effective: Vec<u32> = file
                .scan
                .directives
                .iter()
                .map(|d| file.scan.effective_line(d.line))
                .collect();
            for (d, eff) in file.scan.directives.iter_mut().zip(effective) {
                let applies = d.kind == DirectiveKind::Bounded && c.rule == "AVQ-L002";
                if applies && eff == c.line {
                    d.used = true;
                    waived = true;
                    break;
                }
            }
        }
        if !waived {
            findings.push(c);
        }
    }

    let mut waivers = Vec::new();
    for f in &ws.files {
        for d in &f.scan.directives {
            match &d.kind {
                DirectiveKind::Malformed(msg) => findings.push(Finding {
                    file: f.rel.clone(),
                    line: d.line,
                    rule: "AVQ-WAIVER".into(),
                    message: msg.clone(),
                }),
                _ if !d.used => findings.push(Finding {
                    file: f.rel.clone(),
                    line: d.line,
                    rule: "AVQ-WAIVER".into(),
                    message: "unused waiver: no finding on its line to suppress".into(),
                }),
                DirectiveKind::Bounded => waivers.push(Waiver {
                    file: f.rel.clone(),
                    line: d.line,
                    rule: "AVQ-L002".into(),
                    reason: d.reason.clone(),
                }),
            }
        }
    }

    findings.sort_by(|a, b| {
        (&a.file, a.line, &a.rule, &a.message).cmp(&(&b.file, b.line, &b.rule, &b.message))
    });
    // Two hits of one rule on one line are one finding.
    findings.dedup_by(|a, b| {
        a.file == b.file && a.line == b.line && a.rule == b.rule && a.message == b.message
    });
    waivers.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Report { findings, waivers }
}

fn push(out: &mut Vec<Finding>, file: &SourceFile, line: u32, rule: &str, message: String) {
    out.push(Finding {
        file: file.rel.clone(),
        line,
        rule: rule.to_string(),
        message,
    });
}

/// AVQ-L002: allocations sized by untrusted input need a bounded waiver.
fn l002_bounded_capacity(file: &SourceFile, out: &mut Vec<Finding>) {
    let t = &file.scan.tokens;
    for (i, tok) in t.iter().enumerate() {
        if tok.is_ident("with_capacity") && t.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(end) = balanced(t, i + 1, '(', ')') {
                let args = &t[i + 2..end];
                if !(args.len() == 1 && args[0].kind == Kind::Number) {
                    push(
                        out,
                        file,
                        tok.line,
                        "AVQ-L002",
                        "`with_capacity` with a non-literal length in a decode path needs a `// lint: bounded(<why>)` waiver".to_string(),
                    );
                }
            }
        }
        if tok.is_ident("vec")
            && t.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && t.get(i + 2).is_some_and(|n| n.is_punct('['))
        {
            if let Some(end) = balanced(t, i + 2, '[', ']') {
                let group = &t[i + 3..end];
                if let Some(semi) = top_level_semicolon(group) {
                    let len = &group[semi + 1..];
                    if !(len.len() == 1 && len[0].kind == Kind::Number) {
                        push(
                            out,
                            file,
                            tok.line,
                            "AVQ-L002",
                            "`vec![_; n]` with a non-literal length in a decode path needs a `// lint: bounded(<why>)` waiver".to_string(),
                        );
                    }
                }
            }
        }
    }
}

/// Position of the first `;` at bracket depth zero within a delimiter
/// group's tokens, if any.
fn top_level_semicolon(group: &[Token]) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in group.iter().enumerate() {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if t.is_punct(';') && depth == 0 {
            return Some(j);
        }
    }
    None
}

/// Is `s` a well-formed dot-namespaced metric name (`avq.x.y`)?
fn valid_metric_name(s: &str) -> bool {
    s.starts_with("avq.")
        && s.len() > 4
        && !s.ends_with('.')
        && !s.contains("..")
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
}

/// A bare trace-attribute key: lowercase word characters, no dots (keys
/// are span-local, deliberately outside the metric namespace).
fn valid_attr_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// AVQ-L004: metric names and trace-attribute keys are declared once,
/// well-formed, unique, and referenced through constants. Attribute keys
/// are the `ATTR_`-prefixed constants.
fn l004_metric_names(ws: &Workspace, out: &mut Vec<Finding>) {
    let mut const_values: BTreeMap<String, String> = BTreeMap::new();
    let mut have_attrs = false;
    if let Some(nf) = ws.file(config::METRIC_NAME_HOME) {
        let all = parse_metric_consts(&nf.scan);
        let (attrs, consts): (Vec<_>, Vec<_>) =
            all.iter().partition(|c| c.ident.starts_with("ATTR_"));
        have_attrs = !attrs.is_empty();
        let mut seen_values: BTreeMap<&str, &str> = BTreeMap::new();
        for c in &consts {
            if !valid_metric_name(&c.value) {
                out.push(Finding {
                    file: nf.rel.clone(),
                    line: c.line,
                    rule: "AVQ-L004".into(),
                    message: format!(
                        "metric name `{}` is not dot-namespaced lowercase under `avq.`",
                        c.value
                    ),
                });
            }
            if let Some(other) = seen_values.insert(&c.value, &c.ident) {
                out.push(Finding {
                    file: nf.rel.clone(),
                    line: c.line,
                    rule: "AVQ-L004".into(),
                    message: format!(
                        "metric name `{}` is declared twice (`{}` and `{}`)",
                        c.value, other, c.ident
                    ),
                });
            }
            const_values.insert(c.ident.clone(), c.value.clone());
        }
        let mut seen_attr_values: BTreeMap<&str, &str> = BTreeMap::new();
        for c in &attrs {
            if !valid_attr_name(&c.value) {
                out.push(Finding {
                    file: nf.rel.clone(),
                    line: c.line,
                    rule: "AVQ-L004".into(),
                    message: format!(
                        "trace attribute key `{}` is not a bare lowercase word ([a-z0-9_])",
                        c.value
                    ),
                });
            }
            if let Some(other) = seen_attr_values.insert(&c.value, &c.ident) {
                out.push(Finding {
                    file: nf.rel.clone(),
                    line: c.line,
                    rule: "AVQ-L004".into(),
                    message: format!(
                        "trace attribute key `{}` is declared twice (`{}` and `{}`)",
                        c.value, other, c.ident
                    ),
                });
            }
        }
    }

    // Call-site discipline: metric names are spelled once, in names.rs.
    for f in &ws.files {
        if f.rel == config::METRIC_NAME_HOME {
            continue;
        }
        for tok in &f.scan.tokens {
            if tok.kind == Kind::Str && valid_metric_name(&tok.text) {
                push(
                    out,
                    f,
                    tok.line,
                    "AVQ-L004",
                    format!(
                        "metric-name literal \"{}\" outside `avq_obs::names` (use the constants)",
                        tok.text
                    ),
                );
            }
        }
    }

    // Same discipline for trace-attribute keys: `.attr("literal", …)` must
    // spell the key through a `names::ATTR_*` constant instead. (Span-name
    // arguments are `avq.`-namespaced, so the metric-literal ban above
    // already covers them.) Only active once `names.rs` declares an
    // `ATTR_*` constant.
    if have_attrs {
        for f in &ws.files {
            if f.rel == config::METRIC_NAME_HOME {
                continue;
            }
            let t = &f.scan.tokens;
            for (i, tok) in t.iter().enumerate() {
                let is_attr_site = tok.kind == Kind::Ident && tok.text == "attr";
                if !is_attr_site
                    || !t.get(i + 1).is_some_and(|n| n.is_punct('('))
                    || !t.get(i + 2).is_some_and(|n| n.kind == Kind::Str)
                {
                    continue;
                }
                let key = &t[i + 2];
                push(
                    out,
                    f,
                    key.line,
                    "AVQ-L004",
                    format!(
                        "trace-attribute literal \"{}\" outside `avq_obs::names` (use the `ATTR_*` constants)",
                        key.text
                    ),
                );
            }
        }
    }

    // Kind consistency: one constant, one instrument kind.
    let mut kinds: BTreeMap<String, BTreeMap<&'static str, (String, u32)>> = BTreeMap::new();
    for f in &ws.files {
        let t = &f.scan.tokens;
        for (i, tok) in t.iter().enumerate() {
            let kind = match tok.text.as_str() {
                "counter" => "counter",
                "gauge" => "gauge",
                "histogram" => "histogram",
                "span" => "span",
                _ => continue,
            };
            if tok.kind != Kind::Ident
                || !t.get(i + 1).is_some_and(|n| n.is_punct('!'))
                || !t.get(i + 2).is_some_and(|n| n.is_punct('('))
            {
                continue;
            }
            // First identifier of the argument: `names::IDENT` or `IDENT`.
            let mut j = i + 3;
            while t
                .get(j)
                .is_some_and(|x| x.is_ident("names") || x.is_punct(':'))
            {
                j += 1;
            }
            let Some(arg) = t.get(j).filter(|x| x.kind == Kind::Ident) else {
                continue;
            };
            if !const_values.contains_key(&arg.text) {
                continue;
            }
            kinds
                .entry(arg.text.clone())
                .or_default()
                .entry(kind)
                .or_insert((f.rel.clone(), arg.line));
        }
    }
    for (ident, by_kind) in &kinds {
        if by_kind.len() > 1 {
            let all: Vec<&str> = by_kind.keys().copied().collect();
            let (file, line) = by_kind.values().next_back().cloned().unwrap_or_default();
            out.push(Finding {
                file,
                line,
                rule: "AVQ-L004".into(),
                message: format!(
                    "metric `names::{ident}` is registered as more than one instrument kind ({})",
                    all.join(", ")
                ),
            });
        }
    }
}
