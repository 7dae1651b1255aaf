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

/// The prefix a constant selects by: a trailing `*` after at least one
/// character (PAT's lexical search, `"Ch*"`). Any other constant, `"*"`
/// included, is a word.
pub(crate) fn word_prefix(constant: &str) -> Option<&str> {
    constant.strip_suffix('*').filter(|prefix| !prefix.is_empty())
}

impl Query {
    /// The query's shape, and the selector word of each constant in the
    /// order the constants appear. The shape spells the `i`-th constant
    /// (from 1) `$i`, or `$i*` if it selects by prefix: a plan reads a
    /// constant only through that kind (§3.2). The shape's spelling keys
    /// the plan cache and is hashed into the workload fingerprint.
    pub fn shape(&self) -> (Query, Vec<String>) {
        fn walk(c: &mut Cond, words: &mut Vec<String>) {
            match c {
                Cond::Eq(_, RightHand::Const(c)) => {
                    let kind = if word_prefix(c).is_some() { "*" } else { "" };
                    let mut word = std::mem::replace(c, format!("${}{kind}", words.len() + 1));
                    word.truncate(word.len() - kind.len());
                    words.push(word);
                }
                Cond::Eq(_, RightHand::Path(_)) => {}
                Cond::And(a, b) | Cond::Or(a, b) => {
                    walk(a, words);
                    walk(b, words);
                }
                Cond::Not(a) => walk(a, words),
            }
        }
        let (mut shape, mut words) = (self.clone(), Vec::new());
        if let Some(w) = &mut shape.where_ {
            walk(w, &mut words);
        }
        (shape, words)
    }

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
            _ => {
                let c = self.src[self.at..].chars().next().expect("a byte starts a character");
                Err(self.err(format!("unexpected character {c:?}")))
            }
        }
    }
}

/// How deep a WHERE condition may nest: each `(`, each `NOT` and each
/// `AND`/`OR` link adds one level, so a flat chain of 129 terms is the
/// longest. Planning, certifying, evaluation, `Display` and drop all
/// recurse on the condition tree, so a deeper query is a parse error
/// rather than a stack overflow. At this bound the deepest stage needs
/// under 1.5 MiB of a debug build's stack (DESIGN.md §10).
pub const MAX_COND_DEPTH: usize = 128;

struct Parser<'a> {
    lx: Lexer<'a>,
    tok: Tok,
    /// Levels opened by the enclosing `(` and `NOT`.
    depth: usize,
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
        Ok(Self { lx, tok, depth: 0 })
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
        self.path_from(var)
    }

    /// The steps after a range variable that is already consumed.
    fn path_from(&mut self, var: String) -> Result<QPath, QueryParseError> {
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

    /// `height`, the levels of a condition under the enclosing `(` and
    /// `NOT`, if the whole stays within [`MAX_COND_DEPTH`].
    fn bounded(&self, height: usize) -> Result<usize, QueryParseError> {
        if self.depth + height > MAX_COND_DEPTH {
            return Err(self
                .lx
                .err(format!("condition nests deeper than {MAX_COND_DEPTH} levels")));
        }
        Ok(height)
    }

    /// Parses the condition under a `(` or `NOT` one level down, checking
    /// the bound before recursing.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<(Cond, usize), QueryParseError>,
    ) -> Result<(Cond, usize), QueryParseError> {
        self.bounded(1)?;
        self.depth += 1;
        let inner = parse(self);
        self.depth -= 1;
        let (cond, height) = inner?;
        Ok((cond, height + 1))
    }

    /// A condition and its height in levels (0 for an equality).
    fn cond_primary(&mut self) -> Result<(Cond, usize), QueryParseError> {
        if self.at_kw("NOT") {
            self.bump()?;
            let (inner, height) = self.nested(Self::cond_primary)?;
            return Ok((Cond::Not(Box::new(inner)), height));
        }
        if self.tok == Tok::LParen {
            self.bump()?;
            let inner = self.nested(Self::cond_or)?;
            if self.bump()? != Tok::RParen {
                return Err(self.lx.err("expected )"));
            }
            return Ok(inner);
        }
        Ok((self.cond_eq()?, 0))
    }

    /// `path = "constant"` or `path = path`.
    fn cond_eq(&mut self) -> Result<Cond, QueryParseError> {
        let left = self.path()?;
        if self.bump()? != Tok::Eq {
            return Err(self.lx.err("expected ="));
        }
        let right = match self.bump()? {
            Tok::Str(s) => RightHand::Const(s),
            Tok::Ident(var) => RightHand::Path(self.path_from(var)?),
            other => {
                return Err(self.lx.err(format!("expected constant or path, found {other:?}")))
            }
        };
        Ok(Cond::Eq(left, right))
    }

    fn cond_and(&mut self) -> Result<(Cond, usize), QueryParseError> {
        let (mut left, mut height) = self.cond_primary()?;
        while self.at_kw("AND") {
            self.bump()?;
            let (right, right_height) = self.cond_primary()?;
            height = self.bounded(1 + height.max(right_height))?;
            left = Cond::And(Box::new(left), Box::new(right));
        }
        Ok((left, height))
    }

    fn cond_or(&mut self) -> Result<(Cond, usize), QueryParseError> {
        let (mut left, mut height) = self.cond_and()?;
        while self.at_kw("OR") {
            self.bump()?;
            let (right, right_height) = self.cond_and()?;
            height = self.bounded(1 + height.max(right_height))?;
            left = Cond::Or(Box::new(left), Box::new(right));
        }
        Ok((left, height))
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
            Some(self.cond_or()?.0)
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
        // A non-ASCII character is named whole, at its first byte.
        let e3 = parse_query("SELECT r FROM Référénces r").unwrap_err();
        assert_eq!(e3.message, "unexpected character 'é'");
        assert_eq!(e3.at, "SELECT r FROM R".len());
    }

    #[test]
    fn shape_spells_each_constant_by_position_and_kind() {
        let q = parse_query(
            "SELECT r FROM References r WHERE (r.A = \"Ch*\" OR NOT r.B = \"*\") \
             AND r.C = \"Ch*\" AND r.D = \"\" AND r.E = r.F",
        )
        .unwrap();
        let (shape, words) = q.shape();
        assert_eq!(
            shape.to_string(),
            "SELECT r FROM References r WHERE ((((r.A = \"$1*\" OR NOT r.B = \"$2\") \
             AND r.C = \"$3*\") AND r.D = \"$4\") AND r.E = r.F)"
        );
        assert_eq!(words, ["Ch", "*", "Ch", ""]);
        // Queries that differ only in their words share a shape; a prefix
        // and a word do not.
        let other = |c: &str| {
            let src = format!("SELECT r FROM References r WHERE r.A = \"{c}\"");
            parse_query(&src).unwrap().shape().0
        };
        assert_eq!(other("Chang"), other("Taylor series"));
        assert_eq!(other("Chang"), other("*"));
        assert_ne!(other("Chang"), other("Ch*"));
        assert_eq!(other("$1"), other("x"), "a constant that looks like a placeholder is a word");
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

    /// A query whose WHERE clause nests `leaf` `n` levels deep in one of
    /// the four ways that add a level each.
    fn nested_where(form: &str, n: usize, leaf: &str) -> String {
        let cond = match form {
            "(" => format!("{}{leaf}{}", "(".repeat(n), ")".repeat(n)),
            "NOT" => format!("{}{leaf}", "NOT ".repeat(n)),
            link => vec![leaf; n + 1].join(&format!(" {link} ")),
        };
        format!("SELECT r FROM References r WHERE {cond}")
    }

    #[test]
    fn deep_conditions_are_a_parse_error() {
        for (form, n) in [("(", 10_000), ("NOT", 10_000), ("AND", 20_000), ("OR", 20_000)] {
            let e = parse_query(&nested_where(form, n, "r.A = \"x\"")).unwrap_err();
            assert!(e.message.contains(&format!("deeper than {MAX_COND_DEPTH}")), "{form}: {e}");
            assert!(e.at > 0, "{form}: {e}");
        }
        // Each level counts once, whichever form opens it.
        let half = MAX_COND_DEPTH / 2;
        let mixed = |cond: &str| {
            let cond = format!("{}{cond}{}", "NOT (".repeat(half), ")".repeat(half));
            parse_query(&format!("SELECT r FROM References r WHERE {cond}"))
        };
        assert!(mixed("r.A = \"x\"").is_ok());
        assert!(mixed("r.A = \"x\" AND r.B = \"y\"").is_err());
    }

    /// A query exactly at the bound goes through every stage that recurses
    /// on the condition, on a 2 MiB thread (the default test stack, and
    /// debug frames are the large ones); one level more is a parse error.
    #[test]
    fn a_query_at_the_depth_bound_runs_on_a_small_stack() {
        use qof_corpus::bibtex;
        let (text, truth) = bibtex::generate(&bibtex::BibtexConfig::with_refs(20));
        // The leaf asks for a year the corpus has, so every form answers.
        let leaf = format!("r.Year = \"{}\"", truth.refs[0].year);
        let corpus = qof_text::Corpus::from_text(&text);
        let db =
            crate::FileDatabase::build(corpus, bibtex::schema(), qof_grammar::IndexSpec::full())
                .unwrap();
        let want = db.query(&nested_where("AND", 0, &leaf)).unwrap().values;
        assert!(!want.is_empty());
        std::thread::scope(|scope| {
            for form in ["(", "NOT", "AND", "OR"] {
                let db = &db;
                let (want, leaf) = (&want, &leaf);
                let run = move || {
                    let src = nested_where(form, MAX_COND_DEPTH, leaf);
                    let query = parse_query(&src).unwrap();
                    assert!(query.to_string().starts_with("SELECT r FROM References r WHERE"));
                    db.plan(&src).unwrap();
                    let got = db.query(&src).unwrap().values;
                    // An even run of NOTs cancels out.
                    assert_eq!(&got, want, "{form}");
                    let deeper = nested_where(form, MAX_COND_DEPTH + 1, leaf);
                    assert!(
                        matches!(db.query(&deeper), Err(crate::QueryError::Syntax(_))),
                        "{form}"
                    );
                };
                std::thread::Builder::new().stack_size(2 << 20).spawn_scoped(scope, run).unwrap();
            }
        });
    }
}
