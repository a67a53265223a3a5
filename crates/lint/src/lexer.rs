//! A hand-rolled Rust source scanner.
//!
//! The lexer turns one `.rs` file into a flat token stream with line
//! numbers, dropping everything the rules must never look at: line and
//! block comments (doc comments included), the *contents* of string and
//! char literals (kept as opaque [`Kind::Str`]/[`Kind::Char`] tokens so
//! the metric-name rule can still read literal values), and whole
//! `#[cfg(test)]` / `#[test]` item subtrees. `// lint:` waiver comments
//! are captured as [`Directive`]s before the comment is discarded.
//!
//! This is deliberately not a full Rust parser. It only needs to be
//! right about token boundaries and item extents, and the few genuinely
//! ambiguous constructs (`'a` lifetime vs. `'a'` char, raw strings,
//! nested block comments) are handled explicitly below.

use std::collections::BTreeSet;

/// What a token is, as far as the rule engine cares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (integer or float, any base, any suffix).
    Number,
    /// String literal; `text` holds the contents without quotes and
    /// without resolving escapes.
    Str,
    /// Char or byte literal; contents are never inspected.
    Char,
    /// A lifetime such as `'a`.
    Lifetime,
    /// Any single punctuation character.
    Punct,
}

/// One token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: Kind,
    /// Token text (for [`Kind::Str`], the unquoted contents).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
}

impl Token {
    /// True if this token is the given punctuation character.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == Kind::Punct && self.text.len() == c.len_utf8() && self.text.starts_with(c)
    }

    /// True if this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == Kind::Ident && self.text == s
    }
}

/// The kind of a `// lint:` waiver comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirectiveKind {
    /// `// lint: bounded(<why>)` — the AVQ-L002 capacity waiver.
    Bounded,
    /// A `// lint:` comment the parser could not understand; the message
    /// says what was wrong. Always reported as a finding.
    Malformed(String),
}

/// One parsed `// lint:` comment.
#[derive(Debug, Clone)]
pub struct Directive {
    /// 1-based line the comment appears on.
    pub line: u32,
    /// Parsed form.
    pub kind: DirectiveKind,
    /// The waiver's reason text (empty only for malformed directives).
    pub reason: String,
    /// Set by the rule engine when the directive suppressed a finding.
    pub used: bool,
}

/// The result of scanning one file.
#[derive(Debug, Default)]
pub struct Scan {
    /// Token stream with `#[cfg(test)]`/`#[test]` subtrees removed.
    pub tokens: Vec<Token>,
    /// Every `// lint:` comment in the file (test code included, so a
    /// waiver above a `#[cfg(test)]` module still counts as unused).
    pub directives: Vec<Directive>,
    /// Lines that carry at least one non-test code token. A directive on
    /// a line *not* in this set is comment-only and applies to the next
    /// line instead.
    pub code_lines: BTreeSet<u32>,
}

impl Scan {
    /// The line a directive's waiver applies to: its own line when that
    /// line has code, otherwise the line directly below the comment.
    pub fn effective_line(&self, directive_line: u32) -> u32 {
        if self.code_lines.contains(&directive_line) {
            directive_line
        } else {
            directive_line + 1
        }
    }
}

/// Scan one file into tokens plus captured `// lint:` directives.
pub fn scan(src: &str) -> Scan {
    let raw = tokenize(src);
    let mut directives = Vec::new();
    let mut tokens = Vec::new();
    for t in raw {
        match t {
            Lexed::Token(tok) => tokens.push(tok),
            Lexed::LintComment { line, text } => directives.push(parse_directive(line, &text)),
        }
    }
    let tokens = strip_test_items(tokens);
    let code_lines = tokens.iter().map(|t| t.line).collect();
    Scan {
        tokens,
        directives,
        code_lines,
    }
}

enum Lexed {
    Token(Token),
    LintComment { line: u32, text: String },
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Raw character-level pass: comments out, literals condensed.
fn tokenize(src: &str) -> Vec<Lexed> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                let start = i;
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // `///` and `//!` are doc text, never directives.
                let body = text.trim_start_matches('/');
                if !text.starts_with("///") && !text.starts_with("//!") {
                    let body = body.trim_start();
                    if let Some(rest) = body.strip_prefix("lint:") {
                        out.push(Lexed::LintComment {
                            line,
                            text: rest.trim().to_string(),
                        });
                    }
                }
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                let mut depth = 1usize;
                i += 2;
                while i < chars.len() && depth > 0 {
                    if chars[i] == '\n' {
                        line += 1;
                        i += 1;
                    } else if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            '"' => {
                let (content, ni, nl) = lex_string(&chars, i, line);
                out.push(Lexed::Token(Token {
                    kind: Kind::Str,
                    text: content,
                    line,
                }));
                i = ni;
                line = nl;
            }
            '\'' => {
                let (tok, ni) = lex_quote(&chars, i, line);
                out.push(Lexed::Token(tok));
                i = ni;
            }
            c if c.is_ascii_digit() => {
                let start = i;
                i += 1;
                while i < chars.len() {
                    let d = chars[i];
                    if is_ident_continue(d)
                        || (d == '.' && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit()))
                    {
                        i += 1;
                    } else {
                        break;
                    }
                }
                out.push(Lexed::Token(Token {
                    kind: Kind::Number,
                    text: chars[start..i].iter().collect(),
                    line,
                }));
            }
            c if is_ident_start(c) => {
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                // String-literal prefixes: r"", r#""#, b"", br""/rb"".
                let raw_hash = matches!(text.as_str(), "r" | "b" | "br" | "rb");
                if raw_hash && string_follows(&chars, i) {
                    let (content, ni, nl) = lex_prefixed_string(&chars, i, line);
                    out.push(Lexed::Token(Token {
                        kind: Kind::Str,
                        text: content,
                        line,
                    }));
                    i = ni;
                    line = nl;
                } else {
                    out.push(Lexed::Token(Token {
                        kind: Kind::Ident,
                        text,
                        line,
                    }));
                }
            }
            _ => {
                out.push(Lexed::Token(Token {
                    kind: Kind::Punct,
                    text: c.to_string(),
                    line,
                }));
                i += 1;
            }
        }
    }
    out
}

/// Does a (possibly raw) string literal start at `i` (after a prefix)?
fn string_follows(chars: &[char], mut i: usize) -> bool {
    while chars.get(i) == Some(&'#') {
        i += 1;
    }
    chars.get(i) == Some(&'"')
}

/// Lex a plain `"…"` string starting at the opening quote.
/// Returns (contents, next index, next line).
fn lex_string(chars: &[char], start: usize, mut line: u32) -> (String, usize, u32) {
    let mut i = start + 1;
    let mut content = String::new();
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                content.push('\\');
                if let Some(&e) = chars.get(i + 1) {
                    content.push(e);
                    if e == '\n' {
                        line += 1;
                    }
                }
                i += 2;
            }
            '"' => return (content, i + 1, line),
            c => {
                if c == '\n' {
                    line += 1;
                }
                content.push(c);
                i += 1;
            }
        }
    }
    (content, i, line)
}

/// Lex `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#` etc. starting just after the
/// prefix identifier. Raw strings have no escapes and end at `"` plus the
/// matching number of hashes.
fn lex_prefixed_string(chars: &[char], mut i: usize, mut line: u32) -> (String, usize, u32) {
    let mut hashes = 0usize;
    while chars.get(i) == Some(&'#') {
        hashes += 1;
        i += 1;
    }
    if hashes == 0 {
        // Byte string: ordinary escape rules.
        return lex_string(chars, i, line);
    }
    i += 1; // opening quote
    let mut content = String::new();
    while i < chars.len() {
        if chars[i] == '"'
            && chars[i + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return (content, i + 1 + hashes, line);
        }
        if chars[i] == '\n' {
            line += 1;
        }
        content.push(chars[i]);
        i += 1;
    }
    (content, i, line)
}

/// Disambiguate `'a` (lifetime) from `'a'` / `'\n'` (char literal),
/// starting at the `'`.
fn lex_quote(chars: &[char], start: usize, line: u32) -> (Token, usize) {
    let next = chars.get(start + 1).copied();
    match next {
        Some('\\') => {
            // Escaped char literal: skip the escape, find the closing quote.
            let mut i = start + 2;
            if chars.get(i).is_some() {
                i += 1; // the escaped character (or 'u' of \u{…})
            }
            while i < chars.len() && chars[i] != '\'' {
                i += 1;
            }
            (
                Token {
                    kind: Kind::Char,
                    text: String::new(),
                    line,
                },
                (i + 1).min(chars.len()),
            )
        }
        Some(c) if is_ident_start(c) => {
            let mut i = start + 1;
            while i < chars.len() && is_ident_continue(chars[i]) {
                i += 1;
            }
            if chars.get(i) == Some(&'\'') {
                // 'a' — a one-character char literal.
                (
                    Token {
                        kind: Kind::Char,
                        text: String::new(),
                        line,
                    },
                    i + 1,
                )
            } else {
                (
                    Token {
                        kind: Kind::Lifetime,
                        text: chars[start + 1..i].iter().collect(),
                        line,
                    },
                    i,
                )
            }
        }
        Some(_) => {
            // '0', ' ', '[' … — single-char literal.
            let close = if chars.get(start + 2) == Some(&'\'') {
                start + 3
            } else {
                start + 2
            };
            (
                Token {
                    kind: Kind::Char,
                    text: String::new(),
                    line,
                },
                close.min(chars.len()),
            )
        }
        None => (
            Token {
                kind: Kind::Punct,
                text: "'".to_string(),
                line,
            },
            start + 1,
        ),
    }
}

/// Parse the text after `// lint:` into a [`Directive`].
fn parse_directive(line: u32, text: &str) -> Directive {
    let malformed = |msg: &str| Directive {
        line,
        kind: DirectiveKind::Malformed(msg.to_string()),
        reason: String::new(),
        used: false,
    };
    let Some(rest) = text.strip_prefix("bounded") else {
        return malformed("unknown lint directive (expected `bounded(…)`)");
    };
    let Some(reason) = rest
        .trim_start()
        .strip_prefix('(')
        .and_then(|r| r.strip_suffix(')'))
    else {
        return malformed("bounded waiver must be `bounded(<why>)`");
    };
    let reason = reason.trim();
    if reason.is_empty() {
        return malformed("bounded waiver has an empty reason");
    }
    Directive {
        line,
        kind: DirectiveKind::Bounded,
        reason: reason.to_string(),
        used: false,
    }
}

/// Remove `#[test]` / `#[cfg(test)]` items (functions, modules, uses)
/// from the token stream, including everything inside their braces.
///
/// Heuristic: an attribute strips its item when its first identifier is
/// `test`, or is `cfg` with a `test` argument and no `not(…)` — so
/// `#[cfg_attr(not(test), …)]` and `#[cfg(not(test))]` survive.
fn strip_test_items(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let end = match balanced(&tokens, i + 1, '[', ']') {
                Some(e) => e,
                None => {
                    out.extend_from_slice(&tokens[i..]);
                    break;
                }
            };
            let idents: Vec<&str> = tokens[i + 2..end]
                .iter()
                .filter(|t| t.kind == Kind::Ident)
                .map(|t| t.text.as_str())
                .collect();
            let is_test_attr = idents.first() == Some(&"test")
                || (idents.first() == Some(&"cfg")
                    && idents.contains(&"test")
                    && !idents.contains(&"not"));
            if is_test_attr {
                i = skip_item(&tokens, end + 1);
                continue;
            }
            out.extend_from_slice(&tokens[i..=end]);
            i = end + 1;
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// Index of the matching closer for the opener at `open_idx`.
pub fn balanced(tokens: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Skip one item starting at `i` (past its attributes): any further
/// attributes, then tokens up to a top-level `;` or through a balanced
/// `{…}` block. Returns the index just past the item.
fn skip_item(tokens: &[Token], mut i: usize) -> usize {
    // Further attributes on the same item.
    while i < tokens.len()
        && tokens[i].is_punct('#')
        && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        match balanced(tokens, i + 1, '[', ']') {
            Some(e) => i = e + 1,
            None => return tokens.len(),
        }
    }
    let mut brace_depth = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('{') {
            brace_depth += 1;
        } else if t.is_punct('}') {
            brace_depth = brace_depth.saturating_sub(1);
            if brace_depth == 0 {
                return i + 1;
            }
        } else if t.is_punct(';') && brace_depth == 0 {
            return i + 1;
        }
        i += 1;
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(scan: &Scan) -> Vec<&str> {
        scan.tokens
            .iter()
            .filter(|t| t.kind == Kind::Ident)
            .map(|t| t.text.as_str())
            .collect()
    }

    #[test]
    fn comments_strings_and_chars_are_opaque() {
        let s = scan(
            "let x = \"unwrap inside\"; // unwrap in comment\nlet c = 'u'; let lt: &'a str = y;",
        );
        assert!(!idents(&s).contains(&"unwrap"));
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == Kind::Str && t.text == "unwrap inside"));
        assert!(s
            .tokens
            .iter()
            .any(|t| t.kind == Kind::Lifetime && t.text == "a"));
    }

    #[test]
    fn raw_and_byte_strings() {
        let s = scan("let a = r#\"raw \"quoted\" text\"#; let b = b\"bytes\"; let c = br#\"x\"#;");
        let strs: Vec<&str> = s
            .tokens
            .iter()
            .filter(|t| t.kind == Kind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, ["raw \"quoted\" text", "bytes", "x"]);
    }

    #[test]
    fn cfg_test_modules_are_stripped() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { x.unwrap(); }\n}\nfn also_live() {}";
        let s = scan(src);
        assert_eq!(idents(&s), ["fn", "live", "fn", "also_live"]);
    }

    #[test]
    fn cfg_not_test_survives() {
        let s = scan("#[cfg_attr(not(test), allow(dead_code))]\nfn keep() { inner(); }");
        assert!(idents(&s).contains(&"keep"));
        assert!(idents(&s).contains(&"inner"));
    }

    #[test]
    fn directive_parsing() {
        let s = scan(
            "// lint: bounded(checked above)\nlet y = 2;\n// lint: bounded()\n// lint: frobnicate(x)\nlet z = 3; // lint: bounded(same line)\n",
        );
        assert_eq!(s.directives.len(), 4);
        assert_eq!(s.directives[0].kind, DirectiveKind::Bounded);
        assert_eq!(s.directives[0].reason, "checked above");
        assert!(matches!(s.directives[1].kind, DirectiveKind::Malformed(_)));
        assert!(matches!(s.directives[2].kind, DirectiveKind::Malformed(_)));
        // Comment-only line: waiver applies to the line below.
        assert_eq!(s.effective_line(s.directives[0].line), 2);
        // A trailing waiver applies to its own line.
        assert_eq!(s.effective_line(s.directives[3].line), 5);
    }

    #[test]
    fn doc_comments_never_parse_as_directives() {
        let s = scan("/// lint: bounded(nope)\nfn f() {}\n//! lint: bounded(nope)\n");
        assert!(s.directives.is_empty());
    }
}
