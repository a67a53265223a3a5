//! Hand-rolled SQL lexer.
//!
//! Statements arrive from users, so this module is held to the same
//! discipline as the untrusted decode paths (DESIGN.md §12): every failure
//! is a typed [`SqlError`] carrying the byte offset, never a panic, and no
//! unchecked indexing. Keywords are not distinguished here — the parser
//! matches identifier text case-insensitively, which keeps the token set
//! small and lets column names shadow nothing.
//!
//! Tokens borrow their text from the statement: lexing allocates only the
//! token vector, and an identifier is copied only when the parser keeps it
//! as a name in the AST.

// Untrusted input is decoded here: a damaged byte is a typed error, never
// a panic (DESIGN.md §12). Test code is exempt through `clippy.toml`.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::allow_attributes_without_reason
)]

use crate::error::SqlError;

/// What a token is; text is a slice of the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind<'a> {
    /// An identifier (or keyword — the parser decides).
    Ident(&'a str),
    /// An unsigned integer literal.
    Number(u64),
    /// A single-quoted string literal (quotes stripped).
    Str(&'a str),
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `;`
    Semi,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `-` (signed literals)
    Minus,
}

/// One lexed token with its byte offset in the statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token.
    pub kind: TokenKind<'a>,
    /// Byte offset of the token's first character.
    pub pos: usize,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Tokenizes `input`. Returns the tokens in order; the terminating
/// position of the statement is `input.len()` (used by the parser for
/// "unexpected end of input" errors).
pub fn lex(input: &str) -> Result<Vec<Token<'_>>, SqlError> {
    let bytes = input.as_bytes();
    // A token spans at least one byte and most span more than two, so
    // this grows at most once.
    // lint: bounded(half the statement's own length, already in memory)
    let mut tokens = Vec::with_capacity(input.len() / 2 + 1);
    let mut i = 0usize;
    while let Some(&b) = bytes.get(i) {
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let pos = i;
        let kind = match b {
            b'*' => {
                i += 1;
                TokenKind::Star
            }
            b',' => {
                i += 1;
                TokenKind::Comma
            }
            b'.' => {
                i += 1;
                TokenKind::Dot
            }
            b'(' => {
                i += 1;
                TokenKind::LParen
            }
            b')' => {
                i += 1;
                TokenKind::RParen
            }
            b';' => {
                i += 1;
                TokenKind::Semi
            }
            b'=' => {
                i += 1;
                TokenKind::Eq
            }
            b'-' => {
                i += 1;
                TokenKind::Minus
            }
            b'<' => {
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                    TokenKind::Le
                } else {
                    TokenKind::Lt
                }
            }
            b'>' => {
                i += 1;
                if bytes.get(i) == Some(&b'=') {
                    i += 1;
                    TokenKind::Ge
                } else {
                    TokenKind::Gt
                }
            }
            b'\'' => {
                i += 1;
                let start = i;
                while let Some(&c) = bytes.get(i) {
                    if c == b'\'' {
                        break;
                    }
                    i += 1;
                }
                if bytes.get(i) != Some(&b'\'') {
                    return Err(SqlError::Lex {
                        pos,
                        msg: "unterminated string literal".to_owned(),
                    });
                }
                let text = input.get(start..i).unwrap_or_default();
                i += 1; // closing quote
                TokenKind::Str(text)
            }
            b'0'..=b'9' => {
                let start = i;
                while bytes.get(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                let text = input.get(start..i).unwrap_or_default();
                match text.parse::<u64>() {
                    Ok(n) => TokenKind::Number(n),
                    Err(_) => {
                        return Err(SqlError::Lex {
                            pos,
                            msg: format!("integer literal `{text}` does not fit in 64 bits"),
                        })
                    }
                }
            }
            _ if is_ident_start(b) => {
                let start = i;
                while bytes.get(i).is_some_and(|&c| is_ident_continue(c)) {
                    i += 1;
                }
                TokenKind::Ident(input.get(start..i).unwrap_or_default())
            }
            _ => {
                return Err(SqlError::Lex {
                    pos,
                    msg: format!("unexpected character `{}`", char::from(b)),
                });
            }
        };
        tokens.push(Token { kind, pos });
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(input: &str) -> Vec<TokenKind<'_>> {
        lex(input).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_a_select() {
        let toks = kinds("SELECT a, b FROM t WHERE a >= 3;");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("SELECT"),
                TokenKind::Ident("a"),
                TokenKind::Comma,
                TokenKind::Ident("b"),
                TokenKind::Ident("FROM"),
                TokenKind::Ident("t"),
                TokenKind::Ident("WHERE"),
                TokenKind::Ident("a"),
                TokenKind::Ge,
                TokenKind::Number(3),
                TokenKind::Semi,
            ]
        );
    }

    #[test]
    fn lexes_strings_and_qualified_names() {
        let toks = kinds("t.dept = 'eng'");
        assert_eq!(
            toks,
            vec![
                TokenKind::Ident("t"),
                TokenKind::Dot,
                TokenKind::Ident("dept"),
                TokenKind::Eq,
                TokenKind::Str("eng"),
            ]
        );
    }

    #[test]
    fn positions_are_byte_offsets() {
        let toks = lex("ab  <= 12").unwrap();
        let positions: Vec<usize> = toks.iter().map(|t| t.pos).collect();
        assert_eq!(positions, vec![0, 4, 7]);
    }

    #[test]
    fn unterminated_string_is_an_error() {
        let err = lex("select 'oops").unwrap_err();
        assert!(matches!(err, SqlError::Lex { pos: 7, .. }), "{err}");
    }

    #[test]
    fn oversized_number_is_an_error() {
        let err = lex("99999999999999999999999999").unwrap_err();
        assert!(matches!(err, SqlError::Lex { pos: 0, .. }), "{err}");
    }

    #[test]
    fn stray_character_is_an_error() {
        let err = lex("select @x").unwrap_err();
        assert!(matches!(err, SqlError::Lex { pos: 7, .. }), "{err}");
    }
}
