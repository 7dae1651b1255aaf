//! The query language: the XSQL-like subset of §2/§5 —
//!
//! ```text
//! SELECT r            FROM References r WHERE r.Authors.Name.Last_Name = "Chang"
//! SELECT r.Title      FROM References r WHERE r.Year = "1982" AND NOT r.Key = "Key000001"
//! SELECT r            FROM References r WHERE r.*X.Last_Name = "Chang"
//! SELECT r            FROM References r WHERE r.X1.X2.Last_Name = "Chang"
//! SELECT r            FROM References r WHERE r.Editors.Name.Last_Name = r.Authors.Name.Last_Name
//! SELECT r            FROM References r, References s WHERE r.Referred.RefKey = s.Key
//! ```
//!
//! Path steps follow the paper's conventions: `*X` matches any attribute
//! path; a bare `X`, `X1`, `X2`, … step is a single-attribute variable, and
//! a run of `n` of them matches paths of exactly length `n` (§5.3).

use std::fmt;

pub use qof_grammar::QStep;

/// A path rooted at a range variable: `r.Authors.Name.Last_Name`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QPath {
    /// The range variable.
    pub var: String,
    /// The steps after the variable.
    pub steps: Vec<QStep>,
}

/// The right-hand side of an equality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RightHand {
    /// A string constant.
    Const(String),
    /// Another path (same or different variable — a join).
    Path(QPath),
}

/// A selection condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// `path = const` or `path = path`.
    Eq(QPath, RightHand),
    /// Conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
}

/// What the query returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT r` — whole objects.
    Var(String),
    /// `SELECT r.p` — the values at a path.
    Path(QPath),
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The projection.
    pub select: Projection,
    /// `(view, variable)` pairs from the FROM clause.
    pub ranges: Vec<(String, String)>,
    /// The WHERE condition, if any.
    pub where_: Option<Cond>,
}

impl Query {
    /// The view a variable ranges over.
    pub fn view_of(&self, var: &str) -> Option<&str> {
        self.ranges.iter().find(|(_, v)| v == var).map(|(w, _)| w.as_str())
    }

    /// The variable the projection is rooted at.
    pub fn projected_var(&self) -> &str {
        match &self.select {
            Projection::Var(v) => v,
            Projection::Path(p) => &p.var,
        }
    }
}

/// A parse failure with position and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryParseError {
    /// Character offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error at {}: {}", self.at, self.message)
    }
}

impl std::error::Error for QueryParseError {}

impl fmt::Display for QPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.var)?;
        for s in &self.steps {
            match s {
                QStep::Attr(a) => write!(f, ".{a}")?,
                QStep::Star(x) => write!(f, ".*{x}")?,
                QStep::Vars(n) => {
                    for i in 0..*n {
                        write!(f, ".X{}", i + 1)?;
                    }
                }
                QStep::Plus(a) => write!(f, ".{a}+")?,
            }
        }
        Ok(())
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cond::Eq(p, RightHand::Const(c)) => write!(f, "{p} = \"{c}\""),
            Cond::Eq(p, RightHand::Path(q)) => write!(f, "{p} = {q}"),
            Cond::And(a, b) => write!(f, "({a} AND {b})"),
            Cond::Or(a, b) => write!(f, "({a} OR {b})"),
            Cond::Not(a) => write!(f, "NOT {a}"),
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.select {
            Projection::Var(v) => write!(f, "SELECT {v}")?,
            Projection::Path(p) => write!(f, "SELECT {p}")?,
        }
        write!(f, " FROM ")?;
        for (i, (view, var)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{view} {var}")?;
        }
        if let Some(w) = &self.where_ {
            write!(f, " WHERE {w}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Lexer<'a> {
    src: &'a str,
    at: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Str(String),
    Dot,
    Comma,
    Star,
    Plus,
    Eq,
    LParen,
    RParen,
    End,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Self { src, at: 0 }
    }

    fn err(&self, message: impl Into<String>) -> QueryParseError {
        QueryParseError { at: self.at, message: message.into() }
    }

    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn next_tok(&mut self) -> Result<Tok, QueryParseError> {
        while matches!(self.peek_byte(), Some(b) if (b as char).is_ascii_whitespace()) {
            self.at += 1;
        }
        let Some(b) = self.peek_byte() else { return Ok(Tok::End) };
        match b {
            b'.' => {
                self.at += 1;
                Ok(Tok::Dot)
            }
            b',' => {
                self.at += 1;
                Ok(Tok::Comma)
            }
            b'*' => {
                self.at += 1;
                Ok(Tok::Star)
            }
            b'+' => {
                self.at += 1;
                Ok(Tok::Plus)
            }
            b'=' => {
                self.at += 1;
                Ok(Tok::Eq)
            }
            b'(' => {
                self.at += 1;
                Ok(Tok::LParen)
            }
            b')' => {
                self.at += 1;
                Ok(Tok::RParen)
            }
            b'"' => {
                self.at += 1;
                let start = self.at;
                while let Some(c) = self.peek_byte() {
                    if c == b'"' {
                        let s = self.src[start..self.at].to_owned();
                        self.at += 1;
                        return Ok(Tok::Str(s));
                    }
                    self.at += 1;
                }
                Err(self.err("unterminated string literal"))
            }
            c if (c as char).is_ascii_alphanumeric() || c == b'_' => {
                let start = self.at;
                while matches!(self.peek_byte(), Some(c) if (c as char).is_ascii_alphanumeric() || c == b'_')
                {
                    self.at += 1;
                }
                Ok(Tok::Ident(self.src[start..self.at].to_owned()))
            }
            other => Err(self.err(format!("unexpected character {:?}", other as char))),
        }
    }
}

struct Parser<'a> {
    lx: Lexer<'a>,
    tok: Tok,
}

/// Whether an identifier is a single-step path variable (`X`, `X1`, `X2`, …).
fn is_path_var(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next() == Some('X') && chars.all(|c| c.is_ascii_digit())
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, QueryParseError> {
        let mut lx = Lexer::new(src);
        let tok = lx.next_tok()?;
        Ok(Self { lx, tok })
    }

    fn bump(&mut self) -> Result<Tok, QueryParseError> {
        let t = std::mem::replace(&mut self.tok, self.lx.next_tok()?);
        Ok(t)
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryParseError> {
        match self.bump()? {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.lx.err(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn at_kw(&self, kw: &str) -> bool {
        matches!(&self.tok, Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, QueryParseError> {
        match self.bump()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.lx.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn path(&mut self) -> Result<QPath, QueryParseError> {
        let var = self.ident()?;
        let mut steps = Vec::new();
        while self.tok == Tok::Dot {
            self.bump()?;
            if self.tok == Tok::Star {
                self.bump()?;
                let name = self.ident()?;
                steps.push(QStep::Star(name));
            } else {
                let name = self.ident()?;
                if self.tok == Tok::Plus {
                    self.bump()?;
                    steps.push(QStep::Plus(name));
                } else if is_path_var(&name) {
                    // Collapse runs of single-step variables.
                    if let Some(QStep::Vars(n)) = steps.last_mut() {
                        *n += 1;
                    } else {
                        steps.push(QStep::Vars(1));
                    }
                } else {
                    steps.push(QStep::Attr(name));
                }
            }
        }
        Ok(QPath { var, steps })
    }

    fn cond_primary(&mut self) -> Result<Cond, QueryParseError> {
        if self.at_kw("NOT") {
            self.bump()?;
            let inner = self.cond_primary()?;
            return Ok(Cond::Not(Box::new(inner)));
        }
        if self.tok == Tok::LParen {
            self.bump()?;
            let inner = self.cond_or()?;
            if self.bump()? != Tok::RParen {
                return Err(self.lx.err("expected )"));
            }
            return Ok(inner);
        }
        let left = self.path()?;
        if self.bump()? != Tok::Eq {
            return Err(self.lx.err("expected ="));
        }
        let right = match self.bump()? {
            Tok::Str(s) => RightHand::Const(s),
            Tok::Ident(v) => {
                // Re-parse as a path: var already consumed.
                let mut steps = Vec::new();
                while self.tok == Tok::Dot {
                    self.bump()?;
                    if self.tok == Tok::Star {
                        self.bump()?;
                        let name = self.ident()?;
                        steps.push(QStep::Star(name));
                    } else {
                        let name = self.ident()?;
                        if self.tok == Tok::Plus {
                            self.bump()?;
                            steps.push(QStep::Plus(name));
                        } else if is_path_var(&name) {
                            if let Some(QStep::Vars(n)) = steps.last_mut() {
                                *n += 1;
                            } else {
                                steps.push(QStep::Vars(1));
                            }
                        } else {
                            steps.push(QStep::Attr(name));
                        }
                    }
                }
                RightHand::Path(QPath { var: v, steps })
            }
            other => {
                return Err(self.lx.err(format!("expected constant or path, found {other:?}")))
            }
        };
        Ok(Cond::Eq(left, right))
    }

    fn cond_and(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_primary()?;
        while self.at_kw("AND") {
            self.bump()?;
            let right = self.cond_primary()?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn cond_or(&mut self) -> Result<Cond, QueryParseError> {
        let mut left = self.cond_and()?;
        while self.at_kw("OR") {
            self.bump()?;
            let right = self.cond_and()?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn query(&mut self) -> Result<Query, QueryParseError> {
        self.expect_kw("SELECT")?;
        let proj_path = self.path()?;
        let select = if proj_path.steps.is_empty() {
            Projection::Var(proj_path.var)
        } else {
            Projection::Path(proj_path)
        };
        self.expect_kw("FROM")?;
        let mut ranges = Vec::new();
        loop {
            let view = self.ident()?;
            let var = self.ident()?;
            ranges.push((view, var));
            if self.tok == Tok::Comma {
                self.bump()?;
            } else {
                break;
            }
        }
        let where_ = if self.at_kw("WHERE") {
            self.bump()?;
            Some(self.cond_or()?)
        } else {
            None
        };
        if self.tok != Tok::End {
            return Err(self.lx.err(format!("trailing input: {:?}", self.tok)));
        }
        Ok(Query { select, ranges, where_ })
    }
}

/// Parses a query string.
pub fn parse_query(src: &str) -> Result<Query, QueryParseError> {
    Parser::new(src)?.query()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_query() {
        let q =
            parse_query("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"")
                .unwrap();
        assert_eq!(q.select, Projection::Var("r".into()));
        assert_eq!(q.ranges, vec![("References".into(), "r".into())]);
        let Some(Cond::Eq(p, RightHand::Const(c))) = q.where_ else {
            panic!("expected equality");
        };
        assert_eq!(p.var, "r");
        assert_eq!(
            p.steps,
            vec![
                QStep::Attr("Authors".into()),
                QStep::Attr("Name".into()),
                QStep::Attr("Last_Name".into())
            ]
        );
        assert_eq!(c, "Chang");
    }

    #[test]
    fn star_variable() {
        let q = parse_query("SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"").unwrap();
        let Some(Cond::Eq(p, _)) = q.where_ else { panic!() };
        assert_eq!(p.steps[0], QStep::Star("X".into()));
        assert_eq!(p.steps[1], QStep::Attr("Last_Name".into()));
    }

    #[test]
    fn fixed_length_variables_collapse() {
        let q =
            parse_query("SELECT r FROM References r WHERE r.X1.X2.Last_Name = \"Chang\"").unwrap();
        let Some(Cond::Eq(p, _)) = q.where_ else { panic!() };
        assert_eq!(p.steps, vec![QStep::Vars(2), QStep::Attr("Last_Name".into())]);
    }

    #[test]
    fn boolean_structure_and_precedence() {
        let q = parse_query(
            "SELECT r FROM References r WHERE r.A = \"x\" AND r.B = \"y\" OR NOT r.C = \"z\"",
        )
        .unwrap();
        // AND binds tighter than OR.
        let Some(Cond::Or(l, r)) = q.where_ else { panic!("expected OR at top") };
        assert!(matches!(*l, Cond::And(..)));
        assert!(matches!(*r, Cond::Not(..)));
    }

    #[test]
    fn parens_override_precedence() {
        let q = parse_query(
            "SELECT r FROM References r WHERE r.A = \"x\" AND (r.B = \"y\" OR r.C = \"z\")",
        )
        .unwrap();
        let Some(Cond::And(_, r)) = q.where_ else { panic!("expected AND at top") };
        assert!(matches!(*r, Cond::Or(..)));
    }

    #[test]
    fn join_across_variables() {
        let q =
            parse_query("SELECT r FROM References r, References s WHERE r.Referred.RefKey = s.Key")
                .unwrap();
        assert_eq!(q.ranges.len(), 2);
        assert_eq!(q.view_of("s"), Some("References"));
        let Some(Cond::Eq(p, RightHand::Path(rhs))) = q.where_ else { panic!() };
        assert_eq!(p.var, "r");
        assert_eq!(rhs.var, "s");
    }

    #[test]
    fn projection_path() {
        let q = parse_query("SELECT r.Authors.Name.Last_Name FROM References r").unwrap();
        let Projection::Path(p) = q.select else { panic!() };
        assert_eq!(p.steps.len(), 3);
        assert!(q.where_.is_none());
    }

    #[test]
    fn display_round_trips() {
        let src = "SELECT r FROM References r WHERE (r.A = \"x\" AND r.*X.B = \"y\")";
        let q = parse_query(src).unwrap();
        let printed = q.to_string();
        let q2 = parse_query(&printed).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn errors_are_positioned() {
        let e = parse_query("SELECT r FROM References r WHERE r.A = ").unwrap_err();
        assert!(e.to_string().contains("parse error"));
        let e2 = parse_query("SELECT FROM References r").unwrap_err();
        assert!(e2.message.contains("expected"));
        assert!(parse_query("SELECT r FROM References r JUNK trailing").is_err());
        assert!(parse_query("SELECT r FROM References r WHERE r.A = \"unterminated").is_err());
    }

    #[test]
    fn plus_closure_step() {
        let q = parse_query("SELECT s FROM Sections s WHERE s.Section+.Head = \"intro\"").unwrap();
        let Some(Cond::Eq(p, _)) = q.where_ else { panic!() };
        assert_eq!(p.steps[0], QStep::Plus("Section".into()));
        assert_eq!(p.steps[1], QStep::Attr("Head".into()));
        assert_eq!(p.to_string(), "s.Section+.Head");
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_query("select r from References r where r.A = \"x\"").is_ok());
    }
}
