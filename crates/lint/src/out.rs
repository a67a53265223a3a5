//! Rendering: human-readable findings for terminals and CI logs, plus
//! a stable JSON form (`--format json`) pinned by the golden tests and
//! uploaded as a CI artifact.

use crate::docs;
use crate::rules::Report;
use std::fmt::Write as _;

/// Render the report for humans: one `file:line: rule message` per
/// finding, then the waiver summary, then a one-line verdict.
pub fn human(report: &Report) -> String {
    let mut s = String::new();
    for f in &report.findings {
        let _ = writeln!(s, "{}:{}: {} {}", f.file, f.line, f.rule, f.message);
    }
    if !report.waivers.is_empty() {
        let _ = writeln!(s, "waivers in effect:");
        for w in &report.waivers {
            let _ = writeln!(s, "  {}:{} {} — {}", w.file, w.line, w.rule, w.reason);
        }
    }
    let verdict = if report.findings.is_empty() {
        "clean"
    } else {
        "FAIL"
    };
    let _ = writeln!(
        s,
        "avq-lint: {verdict} — {} finding{}, {} waiver{}",
        report.findings.len(),
        plural(report.findings.len()),
        report.waivers.len(),
        plural(report.waivers.len()),
    );
    s
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

/// Render the report as pretty-printed JSON with a stable key order.
pub fn json(report: &Report) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"explain\": \"{}\"}}",
            esc(&f.file),
            f.line,
            esc(&f.rule),
            esc(&f.message),
            esc(docs::summary(&f.rule))
        );
    }
    if !report.findings.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"waivers\": [");
    for (i, w) in report.waivers.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"reason\": \"{}\"}}",
            esc(&w.file),
            w.line,
            esc(&w.rule),
            esc(&w.reason)
        );
    }
    if !report.waivers.is_empty() {
        s.push_str("\n  ");
    }
    let _ = write!(
        s,
        "],\n  \"summary\": {{\"findings\": {}, \"waivers\": {}}}\n}}\n",
        report.findings.len(),
        report.waivers.len()
    );
    s
}

/// Minimal JSON string escaping.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{Finding, Report, Waiver};

    #[test]
    fn json_is_stable_and_escaped() {
        let report = Report {
            findings: vec![Finding {
                file: "a.rs".into(),
                line: 3,
                rule: "AVQ-L004".into(),
                message: "say \"no\"".into(),
            }],
            waivers: vec![Waiver {
                file: "b.rs".into(),
                line: 7,
                rule: "AVQ-L002".into(),
                reason: "bounded".into(),
            }],
        };
        let j = json(&report);
        assert!(j.contains("\"say \\\"no\\\"\""));
        assert!(j.contains("\"summary\": {\"findings\": 1, \"waivers\": 1}"));
    }

    #[test]
    fn human_verdict() {
        let clean = Report {
            findings: vec![],
            waivers: vec![],
        };
        assert!(human(&clean).contains("clean — 0 findings, 0 waivers"));
    }
}
