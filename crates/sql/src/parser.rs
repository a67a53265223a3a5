//! Recursive-descent parser for the AVQ SQL dialect.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! statement  := [EXPLAIN [ANALYZE]] select [';']
//! select     := SELECT projection FROM tableref
//!               (JOIN tableref ON colref '=' colref)*
//!               [WHERE pred (AND pred)*]
//!               [GROUP BY colref] [ORDER BY colref [ASC|DESC]]
//!               [LIMIT number]
//! projection := '*' | item (',' item)*
//! item       := colref | func '(' ('*' | colref) ')'
//! func       := COUNT | SUM | MIN | MAX | AVG
//! tableref   := ident [[AS] ident]
//! colref     := ident ['.' ident]
//! pred       := colref (op literal | BETWEEN literal AND literal)
//! op         := '=' | '<' | '<=' | '>' | '>='
//! literal    := ['-'] number | string
//! ```
//!
//! Input is untrusted, so the parser follows the decode-path discipline
//! (DESIGN.md §12): typed [`SqlError::Parse`] with a byte position on every
//! malformed or truncated statement, never a panic.

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

use crate::ast::{
    AggFunc, CmpOp, ColRef, JoinClause, Literal, OrderBy, Predicate, Projection, SelectItem,
    SelectStmt, Statement, TableRef,
};
use crate::error::SqlError;
use crate::lexer::{lex, Token, TokenKind};

/// Words that terminate a table alias position.
const RESERVED: &[&str] = &[
    "select", "from", "where", "and", "join", "on", "group", "order", "by", "limit", "asc", "desc",
    "between", "explain", "analyze", "as",
];

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    end: usize,
}

/// Parses one statement (a trailing `;` is allowed).
pub fn parse(input: &str) -> Result<Statement, SqlError> {
    let tokens = lex(input)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        end: input.len(),
    };
    let stmt = p.statement()?;
    if p.eat_kind(&TokenKind::Semi) {
        // trailing semicolon
    }
    if let Some(t) = p.peek() {
        return Err(SqlError::Parse {
            pos: t.pos,
            msg: format!("unexpected trailing input `{}`", describe(&t.kind)),
        });
    }
    Ok(stmt)
}

fn describe(kind: &TokenKind) -> String {
    match kind {
        TokenKind::Ident(s) => (*s).to_owned(),
        TokenKind::Number(n) => n.to_string(),
        TokenKind::Str(s) => format!("'{s}'"),
        TokenKind::Star => "*".to_owned(),
        TokenKind::Comma => ",".to_owned(),
        TokenKind::Dot => ".".to_owned(),
        TokenKind::LParen => "(".to_owned(),
        TokenKind::RParen => ")".to_owned(),
        TokenKind::Semi => ";".to_owned(),
        TokenKind::Eq => "=".to_owned(),
        TokenKind::Lt => "<".to_owned(),
        TokenKind::Le => "<=".to_owned(),
        TokenKind::Gt => ">".to_owned(),
        TokenKind::Ge => ">=".to_owned(),
        TokenKind::Minus => "-".to_owned(),
    }
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos)
    }

    fn here(&self) -> usize {
        self.peek().map_or(self.end, |t| t.pos)
    }

    fn error(&self, msg: impl Into<String>) -> SqlError {
        SqlError::Parse {
            pos: self.here(),
            msg: msg.into(),
        }
    }

    /// Consumes the next token if it is the given keyword.
    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Token {
            kind: TokenKind::Ident(s),
            ..
        }) = self.peek()
        {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected `{kw}`, found `{}`", self.found())))
        }
    }

    fn eat_kind(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek().is_some_and(|t| t.kind == *kind) {
            self.pos += 1;
            return true;
        }
        false
    }

    fn expect_kind(&mut self, kind: &TokenKind<'_>, what: &str) -> Result<(), SqlError> {
        if self.eat_kind(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found `{}`", self.found())))
        }
    }

    fn found(&self) -> String {
        self.peek()
            .map_or_else(|| "end of input".to_owned(), |t| describe(&t.kind))
    }

    /// The next identifier's text, borrowed from the statement.
    fn ident(&mut self, what: &str) -> Result<&'a str, SqlError> {
        match self.peek() {
            Some(&Token {
                kind: TokenKind::Ident(s),
                ..
            }) => {
                self.pos += 1;
                Ok(s)
            }
            _ => Err(self.error(format!("expected {what}, found `{}`", self.found()))),
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        if self.eat_kw("explain") {
            let analyze = self.eat_kw("analyze");
            let stmt = self.select()?;
            Ok(Statement::Explain { analyze, stmt })
        } else {
            Ok(Statement::Select(self.select()?))
        }
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("select")?;
        let projection = self.projection()?;
        self.expect_kw("from")?;
        let from = self.table_ref()?;
        let mut joins = Vec::new();
        while self.eat_kw("join") {
            let table = self.table_ref()?;
            self.expect_kw("on")?;
            let left = self.col_ref()?;
            self.expect_kind(&TokenKind::Eq, "`=`")?;
            let right = self.col_ref()?;
            joins.push(JoinClause { table, left, right });
        }
        let mut predicates = Vec::new();
        if self.eat_kw("where") {
            predicates.push(self.predicate()?);
            while self.eat_kw("and") {
                predicates.push(self.predicate()?);
            }
        }
        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            Some(self.col_ref()?)
        } else {
            None
        };
        let order_by = if self.eat_kw("order") {
            self.expect_kw("by")?;
            let col = self.col_ref()?;
            let desc = if self.eat_kw("desc") {
                true
            } else {
                self.eat_kw("asc");
                false
            };
            Some(OrderBy { col, desc })
        } else {
            None
        };
        let limit = if self.eat_kw("limit") {
            Some(self.number("a row count after `limit`")?)
        } else {
            None
        };
        Ok(SelectStmt {
            projection,
            from,
            joins,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn number(&mut self, what: &str) -> Result<u64, SqlError> {
        match self.peek() {
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => {
                let n = *n;
                self.pos += 1;
                Ok(n)
            }
            _ => Err(self.error(format!("expected {what}, found `{}`", self.found()))),
        }
    }

    fn projection(&mut self) -> Result<Projection, SqlError> {
        if self.eat_kind(&TokenKind::Star) {
            return Ok(Projection::Star);
        }
        let mut items = vec![self.select_item()?];
        while self.eat_kind(&TokenKind::Comma) {
            items.push(self.select_item()?);
        }
        Ok(Projection::Items(items))
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        // Lookahead: `ident (` is an aggregate call.
        let is_call = matches!(
            self.peek(),
            Some(Token {
                kind: TokenKind::Ident(_),
                ..
            })
        ) && matches!(
            self.tokens.get(self.pos + 1),
            Some(Token {
                kind: TokenKind::LParen,
                ..
            })
        );
        if is_call {
            let fn_pos = self.here();
            let name = self.ident("a function name")?;
            let funcs = [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ];
            let Some(func) = funcs
                .into_iter()
                .find(|f| name.eq_ignore_ascii_case(f.name()))
            else {
                return Err(SqlError::Parse {
                    pos: fn_pos,
                    msg: format!("unknown function `{name}` (expected count/sum/min/max/avg)"),
                });
            };
            self.expect_kind(&TokenKind::LParen, "`(`")?;
            let arg = if self.eat_kind(&TokenKind::Star) {
                if func != AggFunc::Count {
                    return Err(SqlError::Parse {
                        pos: fn_pos,
                        msg: format!("`{}(*)` is not valid; only count(*)", func.name()),
                    });
                }
                None
            } else {
                Some(self.col_ref()?)
            };
            self.expect_kind(&TokenKind::RParen, "`)`")?;
            Ok(SelectItem::Aggregate { func, arg })
        } else {
            Ok(SelectItem::Column(self.col_ref()?))
        }
    }

    fn col_ref(&mut self) -> Result<ColRef, SqlError> {
        let first = self.ident("a column name")?;
        if self.eat_kind(&TokenKind::Dot) {
            let column = self.ident("a column name after `.`")?;
            Ok(ColRef {
                table: Some(first.to_owned()),
                column: column.to_owned(),
            })
        } else {
            Ok(ColRef {
                table: None,
                column: first.to_owned(),
            })
        }
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let name = self.ident("a table name")?.to_owned();
        let alias = if self.eat_kw("as") {
            Some(self.ident("an alias after `as`")?.to_owned())
        } else {
            match self.peek() {
                Some(&Token {
                    kind: TokenKind::Ident(s),
                    ..
                }) if !RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) => {
                    self.pos += 1;
                    Some(s.to_owned())
                }
                _ => None,
            }
        };
        Ok(TableRef { name, alias })
    }

    fn literal(&mut self) -> Result<Literal, SqlError> {
        let neg = self.eat_kind(&TokenKind::Minus);
        match self.peek() {
            Some(Token {
                kind: TokenKind::Number(n),
                ..
            }) => {
                let n = i128::from(*n);
                self.pos += 1;
                Ok(Literal::Number(if neg { -n } else { n }))
            }
            Some(&Token {
                kind: TokenKind::Str(s),
                ..
            }) if !neg => {
                self.pos += 1;
                Ok(Literal::Str(s.to_owned()))
            }
            _ => Err(self.error(format!("expected a literal, found `{}`", self.found()))),
        }
    }

    fn predicate(&mut self) -> Result<Predicate, SqlError> {
        let col = self.col_ref()?;
        if self.eat_kw("between") {
            let lo = self.literal()?;
            self.expect_kw("and")?;
            let hi = self.literal()?;
            return Ok(Predicate::Between { col, lo, hi });
        }
        let op = match self.peek().map(|t| t.kind) {
            Some(TokenKind::Eq) => CmpOp::Eq,
            Some(TokenKind::Lt) => CmpOp::Lt,
            Some(TokenKind::Le) => CmpOp::Le,
            Some(TokenKind::Gt) => CmpOp::Gt,
            Some(TokenKind::Ge) => CmpOp::Ge,
            _ => {
                return Err(self.error(format!(
                    "expected a comparison operator, found `{}`",
                    self.found()
                )))
            }
        };
        self.pos += 1;
        let lit = self.literal()?;
        Ok(Predicate::Cmp { col, op, lit })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &str) -> String {
        parse(input).unwrap().to_string()
    }

    #[test]
    fn parses_star_select() {
        assert_eq!(roundtrip("SELECT * FROM people"), "select * from people");
    }

    #[test]
    fn parses_full_statement() {
        let sql = "select p.dept, count(*) from people p join orders o on p.id = o.pid \
                   where p.age >= 30 and o.qty between 1 and 5 \
                   group by p.dept order by p.dept desc limit 10";
        assert_eq!(roundtrip(sql), sql);
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert_eq!(
            roundtrip("SeLeCt A FrOm T wHeRe A = 3"),
            "select A from T where A = 3"
        );
    }

    #[test]
    fn explain_and_analyze() {
        assert_eq!(
            roundtrip("EXPLAIN SELECT * FROM t"),
            "explain select * from t"
        );
        assert_eq!(
            roundtrip("EXPLAIN ANALYZE SELECT * FROM t"),
            "explain analyze select * from t"
        );
    }

    #[test]
    fn as_alias_is_accepted_and_canonicalized() {
        assert_eq!(
            roundtrip("select * from people as p where p.age = 1"),
            "select * from people p where p.age = 1"
        );
    }

    #[test]
    fn negative_literals() {
        assert_eq!(
            roundtrip("select * from t where x >= -5"),
            "select * from t where x >= -5"
        );
    }

    #[test]
    fn trailing_semicolon_allowed() {
        assert_eq!(roundtrip("select * from t;"), "select * from t");
    }

    #[test]
    fn truncated_statement_positions() {
        let err = parse("select * from").unwrap_err();
        assert!(matches!(err, SqlError::Parse { pos: 13, .. }), "{err}");
        let err = parse("select").unwrap_err();
        assert!(matches!(err, SqlError::Parse { pos: 6, .. }), "{err}");
    }

    #[test]
    fn unknown_function_rejected() {
        let err = parse("select median(x) from t").unwrap_err();
        assert!(matches!(err, SqlError::Parse { pos: 7, .. }), "{err}");
    }

    #[test]
    fn sum_star_rejected() {
        assert!(parse("select sum(*) from t").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let err = parse("select * from t garbage extra").unwrap_err();
        // `garbage` binds as an alias; `extra` is trailing.
        assert!(matches!(err, SqlError::Parse { pos: 24, .. }), "{err}");
    }
}
