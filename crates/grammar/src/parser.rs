//! A backtracking recursive-descent parser for structuring-schema grammars —
//! the role Yacc plays in the paper's prototype ([AJ74]). Produces parse
//! trees whose nodes carry exact byte spans, which is what region extraction
//! and value building consume. Counts bytes scanned so the harness can
//! report how much file text each strategy touches.

use crate::{Grammar, RuleBody, SymbolId, Term, TokenPattern};
use qof_text::{Pos, Span};
use std::fmt;

/// A node of the parse tree: a symbol, its span and its children.
///
/// Token nodes have trimmed spans (no surrounding whitespace), so leaf
/// regions like `Last_Name` coincide exactly with word-index spans.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseNode {
    /// The grammar symbol this node derives.
    pub symbol: SymbolId,
    /// Byte span of the derived text.
    pub span: Span,
    /// Child nodes in derivation order (literals omitted).
    pub children: Vec<ParseNode>,
}

impl ParseNode {
    /// Number of nodes in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self.children.iter().map(ParseNode::node_count).sum::<usize>()
    }

    /// Depth-first pre-order walk.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a ParseNode)) {
        f(self);
        for c in &self.children {
            c.walk(f);
        }
    }
}

/// A parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position of the failure.
    pub at: Pos,
    /// What the parser expected.
    pub expected: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: expected {}", self.at, self.expected)
    }
}

impl std::error::Error for ParseError {}

/// Scan-volume counters for one parser.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Bytes of file text consumed by successful parses.
    pub bytes_scanned: u64,
    /// Parse-tree nodes produced.
    pub nodes_built: u64,
}

/// The parser. Borrow the corpus text and a grammar; call
/// [`Parser::parse_root`] for a whole span or [`Parser::parse_symbol`] for a
/// candidate region located by the index.
pub struct Parser<'a> {
    grammar: &'a Grammar,
    text: &'a str,
    stats: std::cell::Cell<ParseStats>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the full corpus text.
    pub fn new(grammar: &'a Grammar, text: &'a str) -> Self {
        Self { grammar, text, stats: std::cell::Cell::new(ParseStats::default()) }
    }

    /// Accumulated scan statistics.
    pub fn stats(&self) -> ParseStats {
        self.stats.get()
    }

    /// Parses the grammar root across `span` (must consume it entirely,
    /// modulo trailing whitespace).
    pub fn parse_root(&self, span: Span) -> Result<ParseNode, ParseError> {
        self.parse_symbol(self.grammar.root(), span)
    }

    /// Parses `symbol` across `span` — used to parse the candidate regions
    /// located by an inclusion expression (§6.2). The span must be consumed
    /// entirely (modulo whitespace when the grammar skips it).
    pub fn parse_symbol(&self, symbol: SymbolId, span: Span) -> Result<ParseNode, ParseError> {
        let (node, mut at) = self.parse_at(symbol, span.start, span.end)?;
        at = self.skip_ws(at, span.end);
        if at != span.end {
            return Err(ParseError {
                at,
                expected: format!("end of {} region", self.grammar.name(symbol)),
            });
        }
        let mut s = self.stats.get();
        s.bytes_scanned += u64::from(span.end - span.start);
        s.nodes_built += node.node_count() as u64;
        self.stats.set(s);
        Ok(node)
    }

    fn skip_ws(&self, mut at: Pos, limit: Pos) -> Pos {
        if !self.grammar.skips_whitespace() {
            return at;
        }
        let bytes = self.text.as_bytes();
        while at < limit && (bytes[at as usize] as char).is_ascii_whitespace() {
            at += 1;
        }
        at
    }

    /// Parses `symbol` starting at `at`, not reading past `limit`.
    /// Returns the node and the position after it.
    fn parse_at(
        &self,
        symbol: SymbolId,
        at: Pos,
        limit: Pos,
    ) -> Result<(ParseNode, Pos), ParseError> {
        let rule = self.grammar.rule(symbol);
        match &rule.body {
            RuleBody::Token(p) => self.parse_token(symbol, p, at, limit),
            RuleBody::Seq(terms) => {
                let start = self.skip_ws(at, limit);
                let mut cur = start;
                let mut children = Vec::with_capacity(
                    terms.iter().filter(|t| matches!(t, Term::NonTerm(_))).count(),
                );
                for term in terms {
                    cur = self.skip_ws(cur, limit);
                    match term {
                        Term::Lit(l) => {
                            cur = self.expect_lit(l, cur, limit)?;
                        }
                        Term::NonTerm(s) => {
                            let (child, next) = self.parse_at(*s, cur, limit)?;
                            children.push(child);
                            cur = next;
                        }
                    }
                }
                let span = start..cur;
                Ok((ParseNode { symbol, span, children }, cur))
            }
            RuleBody::Repeat { item, sep, open, close } => {
                let start = self.skip_ws(at, limit);
                let mut cur = start;
                if let Some(open) = open {
                    cur = self.expect_lit(open, cur, limit)?;
                }
                let mut children = Vec::new();
                let mut end = cur;
                loop {
                    let probe = if children.is_empty() {
                        cur
                    } else if let Some(sep) = sep {
                        // Separators are matched exactly, at the raw position
                        // after the previous item (they often carry their own
                        // surrounding whitespace, e.g. `" and "`). A missing
                        // separator ends every repetition, so probing for it
                        // builds no error.
                        match self.match_lit(sep, cur, limit) {
                            Some(p) => p,
                            None => break,
                        }
                    } else {
                        cur
                    };
                    match self.parse_at(*item, probe, limit) {
                        Ok((child, next)) => {
                            end = child.span.end;
                            children.push(child);
                            cur = next;
                        }
                        Err(_) => break,
                    }
                }
                if let Some(close) = close {
                    let ws = self.skip_ws(cur, limit);
                    cur = self.expect_lit(close, ws, limit)?;
                    end = cur;
                }
                // Without delimiters, an empty repetition derives the empty
                // string at `start`; with them the span covers the brackets.
                let span = if open.is_some() || close.is_some() {
                    start..cur
                } else {
                    start..end.max(start)
                };
                Ok((ParseNode { symbol, span, children }, cur))
            }
            RuleBody::Choice(alts) => {
                let mut furthest: Option<ParseError> = None;
                for alt in alts {
                    match self.parse_at(*alt, at, limit) {
                        Ok((child, next)) => {
                            let span = child.span.clone();
                            return Ok((ParseNode { symbol, span, children: vec![child] }, next));
                        }
                        Err(e) => {
                            if furthest.as_ref().is_none_or(|f| e.at > f.at) {
                                furthest = Some(e);
                            }
                        }
                    }
                }
                Err(furthest.unwrap_or(ParseError {
                    at,
                    expected: format!("one alternative of {}", self.grammar.name(symbol)),
                }))
            }
        }
    }

    fn expect_lit(&self, lit: &str, at: Pos, limit: Pos) -> Result<Pos, ParseError> {
        self.match_lit(lit, at, limit)
            .ok_or_else(|| ParseError { at, expected: format!("literal {lit:?}") })
    }

    /// The position after `lit` if the text at `at` starts with it.
    fn match_lit(&self, lit: &str, at: Pos, limit: Pos) -> Option<Pos> {
        let end = at as usize + lit.len();
        (end <= limit as usize && &self.text.as_bytes()[at as usize..end] == lit.as_bytes())
            .then_some(end as Pos)
    }

    fn parse_token(
        &self,
        symbol: SymbolId,
        pattern: &TokenPattern,
        at: Pos,
        limit: Pos,
    ) -> Result<(ParseNode, Pos), ParseError> {
        let start = self.skip_ws(at, limit);
        let bytes = self.text.as_bytes();
        let s = start as usize;
        let lim = limit as usize;
        let is_word = |c: u8| c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' || c == b'-';
        let end: usize = match pattern {
            TokenPattern::Word => {
                let mut e = s;
                if e < lim && (bytes[e].is_ascii_alphanumeric()) {
                    e += 1;
                    while e < lim && is_word(bytes[e]) {
                        e += 1;
                    }
                }
                e
            }
            TokenPattern::Number => {
                let mut e = s;
                while e < lim && bytes[e].is_ascii_digit() {
                    e += 1;
                }
                e
            }
            TokenPattern::Initials => {
                // One or more `X.` groups separated by single spaces.
                let mut e = s;
                loop {
                    if e + 1 < lim && bytes[e].is_ascii_uppercase() && bytes[e + 1] == b'.' {
                        e += 2;
                        if e < lim
                            && bytes[e] == b' '
                            && e + 2 < lim
                            && bytes[e + 1].is_ascii_uppercase()
                            && bytes[e + 2] == b'.'
                        {
                            e += 1; // consume the space and continue
                            continue;
                        }
                        break;
                    }
                    break;
                }
                e
            }
            TokenPattern::Until(stops) => {
                let mut e = s;
                while e < lim && !stops.as_bytes().contains(&bytes[e]) {
                    e += 1;
                }
                // Trim trailing whitespace out of the token span.
                while e > s && (bytes[e - 1] as char).is_ascii_whitespace() {
                    e -= 1;
                }
                e
            }
            TokenPattern::Line => {
                let mut e = s;
                while e < lim && bytes[e] != b'\n' {
                    e += 1;
                }
                e
            }
        };
        if end == s {
            return Err(ParseError {
                at: start,
                expected: format!("{} token ({pattern:?})", self.grammar.name(symbol)),
            });
        }
        Ok((ParseNode { symbol, span: start..end as Pos, children: Vec::new() }, end as Pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{lit, nt, ValueBuilder};

    fn list_grammar() -> Grammar {
        Grammar::builder("S")
            .repeat("S", "Item", None, ValueBuilder::Set)
            .seq("Item", [lit("("), nt("Word"), lit(")")], ValueBuilder::TupleAuto)
            .token("Word", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    #[test]
    fn parses_repetition_with_spans() {
        let g = list_grammar();
        let text = "(alpha) (beta)";
        let p = Parser::new(&g, text);
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        assert_eq!(tree.children.len(), 2);
        let w0 = &tree.children[0].children[0];
        assert_eq!(&text[w0.span.start as usize..w0.span.end as usize], "alpha");
        let w1 = &tree.children[1].children[0];
        assert_eq!(&text[w1.span.start as usize..w1.span.end as usize], "beta");
        assert_eq!(tree.node_count(), 5);
        assert!(p.stats().bytes_scanned >= text.len() as u64);
    }

    #[test]
    fn trailing_garbage_fails() {
        let g = list_grammar();
        let text = "(alpha) junk";
        let p = Parser::new(&g, text);
        let err = p.parse_root(0..text.len() as Pos).unwrap_err();
        assert!(err.to_string().contains("expected end of S region"));
    }

    #[test]
    fn separator_repetition() {
        let g = Grammar::builder("Names")
            .repeat("Names", "Name", Some(" and "), ValueBuilder::Set)
            .token("Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "Chang and Corliss and Griewank";
        let p = Parser::new(&g, text);
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        assert_eq!(tree.children.len(), 3);
        assert_eq!(tree.span, 0..text.len() as Pos);
    }

    #[test]
    fn choice_takes_first_matching_alternative() {
        let g = Grammar::builder("V")
            .choice("V", &["Num", "Word"], ValueBuilder::Child)
            .token("Num", TokenPattern::Number, ValueBuilder::AtomInt)
            .token("Word", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let p1 = Parser::new(&g, "123");
        let t1 = p1.parse_root(0..3).unwrap();
        assert_eq!(t1.children[0].symbol, g.symbol("Num").unwrap());
        let p2 = Parser::new(&g, "abc");
        let t2 = p2.parse_root(0..3).unwrap();
        assert_eq!(t2.children[0].symbol, g.symbol("Word").unwrap());
        // Choice node inherits the child's span.
        assert_eq!(t2.span, t2.children[0].span);
    }

    #[test]
    fn until_pattern_trims_trailing_whitespace() {
        let g = Grammar::builder("T")
            .seq("T", [lit("\""), nt("Body"), lit("\"")], ValueBuilder::Child)
            .token("Body", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "\"Solving Equations \"";
        let p = Parser::new(&g, text);
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        let body = &tree.children[0];
        assert_eq!(&text[body.span.start as usize..body.span.end as usize], "Solving Equations");
    }

    #[test]
    fn initials_pattern() {
        let g = Grammar::builder("N")
            .seq("N", [nt("First_Name"), nt("Last_Name")], ValueBuilder::TupleAuto)
            .token("First_Name", TokenPattern::Initials, ValueBuilder::Atom)
            .token("Last_Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "G. F. Corliss";
        let p = Parser::new(&g, text);
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        let first = &tree.children[0];
        let last = &tree.children[1];
        assert_eq!(&text[first.span.start as usize..first.span.end as usize], "G. F.");
        assert_eq!(&text[last.span.start as usize..last.span.end as usize], "Corliss");
    }

    #[test]
    fn parse_symbol_on_subregion() {
        let g = list_grammar();
        let text = "xx (alpha) yy";
        let p = Parser::new(&g, text);
        let item = g.symbol("Item").unwrap();
        let node = p.parse_symbol(item, 3..10).unwrap();
        assert_eq!(node.span, 3..10);
    }

    #[test]
    fn empty_repetition_is_ok() {
        let g = list_grammar();
        let p = Parser::new(&g, "");
        let tree = p.parse_root(0..0).unwrap();
        assert!(tree.children.is_empty());
    }

    #[test]
    fn number_token() {
        let g = Grammar::builder("Y")
            .token("Y", TokenPattern::Number, ValueBuilder::AtomInt)
            .build()
            .unwrap();
        let p = Parser::new(&g, "1982");
        assert!(p.parse_root(0..4).is_ok());
        let p2 = Parser::new(&g, "year");
        assert!(p2.parse_root(0..4).is_err());
    }

    #[test]
    fn line_token_stops_at_newline() {
        let g = Grammar::builder("L")
            .token("L", TokenPattern::Line, ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "first line";
        let p = Parser::new(&g, text);
        let t = p.parse_root(0..text.len() as Pos).unwrap();
        assert_eq!(t.span, 0..10);
    }

    #[test]
    fn walk_visits_preorder() {
        let g = list_grammar();
        let text = "(a) (b)";
        let p = Parser::new(&g, text);
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        let mut names = Vec::new();
        tree.walk(&mut |n| names.push(g.name(n.symbol).to_owned()));
        assert_eq!(names, ["S", "Item", "Word", "Item", "Word"]);
    }
}
