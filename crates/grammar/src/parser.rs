//! A backtracking recursive-descent parser for structuring-schema grammars —
//! the role Yacc plays in the paper's prototype ([AJ74]).
//!
//! One walk recognizes the text and reports each derivation node to a
//! [`Sink`], in pre-order on entry and post-order on exit, with the node's
//! exact byte span. The sinks do the real work: region extraction
//! ([`RegionSink`](crate::RegionSink)), value building
//! ([`ValueSink`](crate::ValueSink)), a recorded [`Tape`] for replays, and
//! the [`ParseNode`] tree the public tree API returns. Backtracking leaves
//! no trace in a sink: before each alternative and each repetition item
//! the walk takes a [`Sink::mark`], and a failed attempt
//! [rolls back](Sink::rollback) to it. [`Parser::parse_indexed`] parses
//! a region the index holds and stops after the last field its sink
//! keeps. Counts the bytes each walk read and the nodes it recognized, so
//! the harness can report how much file text each strategy touches.

use crate::{Grammar, RuleBody, SymbolId, Term, TokenPattern};
use qof_text::{Pos, Span};
use std::fmt;

/// Receives the derivation nodes a [`Parser`] recognizes.
///
/// Every node is announced by [`Sink::enter`] before its children and
/// closed by [`Sink::leave`] after them. An attempt that fails may leave
/// nodes entered but never left; the parser then rolls the sink back to the
/// mark it took before the attempt, and the sink must forget everything it
/// received since.
pub trait Sink {
    /// A checkpoint: cheap to take, since the parser takes one per
    /// alternative and per repetition item.
    type Mark: Copy;

    /// A node of `symbol` starts.
    fn enter(&mut self, symbol: SymbolId);

    /// The node entered last and not yet left ends; it covers `span`.
    fn leave(&mut self, symbol: SymbolId, span: Span);

    /// The current state.
    fn mark(&self) -> Self::Mark;

    /// Forgets everything received since `mark`.
    fn rollback(&mut self, mark: Self::Mark);

    /// A whole parse succeeded: no rollback will reach before this point.
    fn commit(&mut self) {}

    /// Whether a node of `symbol` entered now, under the open node, would
    /// leave anything in the sink. [`Parser::parse_indexed`] asks about
    /// the children of its root and skips the suffix after the last one
    /// kept, so a sink answering `false` must keep nothing of that node.
    fn keeps(&self, symbol: SymbolId) -> bool {
        let _ = symbol;
        true
    }
}

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

    /// Reports this subtree to a sink, as the parser reported it.
    pub fn replay<S: Sink>(&self, sink: &mut S) {
        sink.enter(self.symbol);
        for c in &self.children {
            c.replay(sink);
        }
        sink.leave(self.symbol, self.span.clone());
    }
}

/// The sink behind the tree API: builds [`ParseNode`]s.
#[derive(Default)]
struct TreeSink {
    /// Open nodes, outermost first; each collects its finished children.
    open: Vec<ParseNode>,
    done: Option<ParseNode>,
}

impl Sink for TreeSink {
    type Mark = (usize, usize);

    fn enter(&mut self, symbol: SymbolId) {
        self.open.push(ParseNode { symbol, span: 0..0, children: Vec::new() });
    }

    fn leave(&mut self, _: SymbolId, span: Span) {
        let mut node = self.open.pop().expect("leave matches an enter");
        node.span = span;
        match self.open.last_mut() {
            Some(parent) => parent.children.push(node),
            None => self.done = Some(node),
        }
    }

    fn mark(&self) -> (usize, usize) {
        (self.open.len(), self.open.last().map_or(0, |n| n.children.len()))
    }

    fn rollback(&mut self, (open, children): (usize, usize)) {
        self.open.truncate(open);
        match self.open.last_mut() {
            Some(top) => top.children.truncate(children),
            None => self.done = None,
        }
    }
}

/// A parse recorded as its enter and leave events: a flat vector instead
/// of a tree, so nodes can be replayed into other sinks, nested ones
/// included, without building a [`ParseNode`] per node.
#[derive(Debug, Default)]
pub struct Tape {
    events: Vec<Event>,
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Enter(SymbolId),
    Leave(SymbolId, Pos, Pos),
}

impl Sink for Tape {
    type Mark = usize;

    fn enter(&mut self, symbol: SymbolId) {
        self.events.push(Event::Enter(symbol));
    }

    fn leave(&mut self, symbol: SymbolId, span: Span) {
        self.events.push(Event::Leave(symbol, span.start, span.end));
    }

    fn mark(&self) -> usize {
        self.events.len()
    }

    fn rollback(&mut self, mark: usize) {
        self.events.truncate(mark);
    }
}

impl Tape {
    /// An empty tape.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forgets the recording.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Replays the subtree of every recorded node of `symbol` into `sink`,
    /// in pre-order (a node before the nodes nested in it), and calls
    /// `each` after each one.
    pub fn replay_each<S: Sink>(
        &self,
        symbol: SymbolId,
        sink: &mut S,
        mut each: impl FnMut(&mut S),
    ) {
        for (i, e) in self.events.iter().enumerate() {
            if !matches!(e, Event::Enter(s) if *s == symbol) {
                continue;
            }
            let mut depth = 0usize;
            for e in &self.events[i..] {
                match *e {
                    Event::Enter(s) => {
                        depth += 1;
                        sink.enter(s);
                    }
                    Event::Leave(s, start, end) => {
                        depth -= 1;
                        sink.leave(s, start..end);
                        if depth == 0 {
                            break;
                        }
                    }
                }
            }
            each(sink);
        }
    }
}

/// A parse failure. The expected text is formatted only when the error is
/// displayed.
#[derive(Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte position of the failure.
    pub at: Pos,
    expected: Expected,
}

/// What the parser expected where it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Expected {
    EndOf(String),
    AlternativeOf(String),
    Literal(String),
    Token(String, TokenPattern),
}

impl fmt::Display for Expected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expected::EndOf(name) => write!(f, "end of {name} region"),
            Expected::AlternativeOf(name) => write!(f, "one alternative of {name}"),
            Expected::Literal(lit) => write!(f, "literal {lit:?}"),
            Expected::Token(name, pattern) => write!(f, "{name} token ({pattern:?})"),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: expected {}", self.at, self.expected)
    }
}

impl fmt::Debug for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParseError")
            .field("at", &self.at)
            .field("expected", &self.expected.to_string())
            .finish()
    }
}

impl std::error::Error for ParseError {}

/// Scan-volume counters for one parser.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParseStats {
    /// Bytes of file text consumed by successful parses.
    pub bytes_scanned: u64,
    /// Derivation nodes recognized by successful parses.
    pub nodes_built: u64,
}

/// The parser. Borrow the corpus text and a grammar; call
/// [`Parser::parse_into`] to report a span to a sink, or
/// [`Parser::parse_root`] / [`Parser::parse_symbol`] for a tree.
pub struct Parser<'a> {
    grammar: &'a Grammar,
    text: &'a str,
    base: Pos,
    stats: std::cell::Cell<ParseStats>,
}

impl<'a> Parser<'a> {
    /// Creates a parser over the full corpus text.
    pub fn new(grammar: &'a Grammar, text: &'a str) -> Self {
        Self::with_base(grammar, text, 0)
    }

    /// Creates a parser over `text` placed at offset `base` of a larger
    /// text (a file about to be appended to a corpus): spans passed in,
    /// spans reported and error positions are all in the larger text.
    pub fn with_base(grammar: &'a Grammar, text: &'a str, base: Pos) -> Self {
        Self { grammar, text, base, stats: std::cell::Cell::new(ParseStats::default()) }
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

    /// Parses `symbol` across `span` into a tree.
    pub fn parse_symbol(&self, symbol: SymbolId, span: Span) -> Result<ParseNode, ParseError> {
        let mut tree = TreeSink::default();
        self.parse_into(symbol, span, &mut tree)?;
        Ok(tree.done.expect("a successful parse leaves its root"))
    }

    /// Parses `symbol` across `span`, reporting every node to `sink`. The
    /// span must be consumed entirely (modulo whitespace when the grammar
    /// skips it), so this validates every byte of it. On failure the sink
    /// is rolled back to where it was.
    ///
    /// # Panics
    /// Panics if `span` lies outside the parser's text.
    pub fn parse_into<S: Sink>(
        &self,
        symbol: SymbolId,
        span: Span,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        self.parse(symbol, span, sink, false)
    }

    /// Parses a candidate region located by an inclusion expression
    /// (§6.2): like [`Parser::parse_into`], but the caller guarantees that
    /// `span` is a region of `symbol` in the region index, so the index
    /// build has already recognized all of it. When `symbol`'s rule is a
    /// sequence whose last non-terminal the sink does not
    /// [keep](Sink::keeps), the walk stops after the last term the sink
    /// keeps and leaves the root at `span.end`: the suffix is neither read
    /// nor counted in [`ParseStats`]. A span that is no such region may
    /// then be accepted on the strength of its prefix.
    ///
    /// # Panics
    /// Panics if `span` lies outside the parser's text.
    pub fn parse_indexed<S: Sink>(
        &self,
        symbol: SymbolId,
        span: Span,
        sink: &mut S,
    ) -> Result<(), ParseError> {
        self.parse(symbol, span, sink, true)
    }

    /// The walk behind [`Parser::parse_into`] and, with `indexed`,
    /// [`Parser::parse_indexed`].
    fn parse<S: Sink>(
        &self,
        symbol: SymbolId,
        span: Span,
        sink: &mut S,
        indexed: bool,
    ) -> Result<(), ParseError> {
        let (start, limit) = (span.start.wrapping_sub(self.base), span.end.wrapping_sub(self.base));
        assert!(
            start <= limit && limit as usize <= self.text.len(),
            "span {span:?} lies outside the parser's text"
        );
        let mark = sink.mark();
        let mut walk = Walk {
            grammar: self.grammar,
            text: self.text.as_bytes(),
            base: self.base,
            skip_ws: self.grammar.skips_whitespace(),
            sink,
            nodes: 0,
            stopped_at: None,
        };
        let root = match &self.grammar.rule(symbol).body {
            RuleBody::Seq(terms) if indexed => walk.seq(symbol, terms, start, limit, true),
            _ => walk.node(symbol, start, limit),
        };
        let parsed = root.and_then(|end| {
            let end = walk.skip_ws(end, limit);
            if end == limit {
                Ok(())
            } else {
                Err(Fail { at: end, want: Want::EndOf(symbol) })
            }
        });
        let (nodes, read_to) = (walk.nodes, walk.stopped_at.unwrap_or(limit));
        match parsed {
            Ok(()) => {
                let mut s = self.stats.get();
                s.bytes_scanned += u64::from(read_to - start);
                s.nodes_built += nodes;
                self.stats.set(s);
                sink.commit();
                Ok(())
            }
            Err(fail) => {
                sink.rollback(mark);
                Err(self.error(fail))
            }
        }
    }

    /// The public error for a failure of the walk.
    fn error(&self, fail: Fail<'_>) -> ParseError {
        let name = |s: SymbolId| self.grammar.name(s).to_owned();
        let expected = match fail.want {
            Want::EndOf(s) => Expected::EndOf(name(s)),
            Want::AlternativeOf(s) => Expected::AlternativeOf(name(s)),
            Want::Literal(lit) => Expected::Literal(lit.to_owned()),
            Want::Token(s, pattern) => Expected::Token(name(s), pattern.clone()),
        };
        ParseError { at: fail.at + self.base, expected }
    }
}

/// A failure inside the walk: a position and what was wanted there, with
/// nothing allocated or formatted. Most failures are expected — a
/// repetition ends, an alternative does not apply — and are dropped.
#[derive(Clone, Copy)]
struct Fail<'a> {
    /// Offset in the parser's text.
    at: Pos,
    want: Want<'a>,
}

#[derive(Clone, Copy)]
enum Want<'a> {
    EndOf(SymbolId),
    AlternativeOf(SymbolId),
    Literal(&'a str),
    Token(SymbolId, &'a TokenPattern),
}

/// One parse: the recursive descent proper. Positions are offsets in the
/// parser's text; the sink receives them moved by `base`.
struct Walk<'p, 'a, S> {
    grammar: &'a Grammar,
    text: &'a [u8],
    base: Pos,
    skip_ws: bool,
    sink: &'p mut S,
    /// Nodes recognized so far (rolled back with the sink).
    nodes: u64,
    /// Where an indexed root stopped reading, if it skipped a suffix.
    stopped_at: Option<Pos>,
}

impl<'a, S: Sink> Walk<'_, 'a, S> {
    fn mark(&self) -> (S::Mark, u64) {
        (self.sink.mark(), self.nodes)
    }

    fn rollback(&mut self, (mark, nodes): (S::Mark, u64)) {
        self.sink.rollback(mark);
        self.nodes = nodes;
    }

    fn leave(&mut self, symbol: SymbolId, start: Pos, end: Pos) {
        self.nodes += 1;
        self.sink.leave(symbol, start + self.base..end + self.base);
    }

    fn skip_ws(&self, mut at: Pos, limit: Pos) -> Pos {
        if !self.skip_ws {
            return at;
        }
        while at < limit && self.text[at as usize].is_ascii_whitespace() {
            at += 1;
        }
        at
    }

    /// Parses `symbol` starting at `at`, not reading past `limit`, and
    /// returns the position after it (which is where its span ends).
    fn node(&mut self, symbol: SymbolId, at: Pos, limit: Pos) -> Result<Pos, Fail<'a>> {
        let grammar = self.grammar;
        match &grammar.rule(symbol).body {
            RuleBody::Token(p) => {
                let (start, end) = self.token(symbol, p, at, limit)?;
                self.sink.enter(symbol);
                self.leave(symbol, start, end);
                Ok(end)
            }
            RuleBody::Seq(terms) => self.seq(symbol, terms, at, limit, false),
            RuleBody::Repeat { item, sep, open, close } => {
                let start = self.skip_ws(at, limit);
                self.sink.enter(symbol);
                let mut cur = start;
                if let Some(open) = open {
                    cur = self.expect_lit(open, cur, limit)?;
                }
                let mut first = true;
                loop {
                    let probe = match sep {
                        // Separators are matched exactly, at the raw
                        // position after the previous item (they often
                        // carry their own surrounding whitespace, e.g.
                        // `" and "`). A missing separator ends every
                        // repetition.
                        Some(sep) if !first => match self.match_lit(sep, cur, limit) {
                            Some(p) => p,
                            None => break,
                        },
                        _ => cur,
                    };
                    let mark = self.mark();
                    match self.node(*item, probe, limit) {
                        Ok(next) => cur = next,
                        Err(_) => {
                            self.rollback(mark);
                            break;
                        }
                    }
                    first = false;
                }
                if let Some(close) = close {
                    let ws = self.skip_ws(cur, limit);
                    cur = self.expect_lit(close, ws, limit)?;
                }
                // Without delimiters, an empty repetition derives the empty
                // string at `start`; with them the span covers the
                // brackets.
                self.leave(symbol, start, cur);
                Ok(cur)
            }
            RuleBody::Choice(alts) => {
                // The choice node covers its alternative's span, which
                // starts past any whitespace whatever the alternative.
                let start = self.skip_ws(at, limit);
                self.sink.enter(symbol);
                let mut furthest: Option<Fail<'a>> = None;
                for alt in alts {
                    let mark = self.mark();
                    match self.node(*alt, at, limit) {
                        Ok(next) => {
                            self.leave(symbol, start, next);
                            return Ok(next);
                        }
                        Err(e) => {
                            self.rollback(mark);
                            if furthest.is_none_or(|f| e.at > f.at) {
                                furthest = Some(e);
                            }
                        }
                    }
                }
                Err(furthest.unwrap_or(Fail { at, want: Want::AlternativeOf(symbol) }))
            }
        }
    }

    /// Parses a sequence node of `symbol` like [`Walk::node`]. An
    /// `indexed` node is a region of the index ending at `limit`: if the
    /// sink drops its last non-terminal, the walk stops after the last
    /// term the sink keeps and leaves the node at `limit`.
    fn seq(
        &mut self,
        symbol: SymbolId,
        terms: &'a [Term],
        at: Pos,
        limit: Pos,
        indexed: bool,
    ) -> Result<Pos, Fail<'a>> {
        let start = self.skip_ws(at, limit);
        self.sink.enter(symbol);
        let walked = if indexed { self.kept_prefix(terms) } else { terms.len() };
        let mut cur = start;
        for term in &terms[..walked] {
            cur = self.skip_ws(cur, limit);
            cur = match term {
                Term::Lit(l) => self.expect_lit(l, cur, limit)?,
                Term::NonTerm(s) => self.node(*s, cur, limit)?,
            };
        }
        if walked < terms.len() {
            self.stopped_at = Some(cur);
            cur = limit;
        }
        self.leave(symbol, start, cur);
        Ok(cur)
    }

    /// How many of an indexed root's `terms` the walk reads: all of them
    /// when the sink keeps the last non-terminal, else those up to the
    /// last non-terminal it keeps.
    fn kept_prefix(&self, terms: &[Term]) -> usize {
        let kept = |t: &Term| matches!(t, Term::NonTerm(s) if self.sink.keeps(*s));
        match terms.iter().rposition(|t| matches!(t, Term::NonTerm(_))) {
            Some(last) if !kept(&terms[last]) => {
                terms[..last].iter().rposition(kept).map_or(0, |k| k + 1)
            }
            _ => terms.len(),
        }
    }

    fn expect_lit(&self, lit: &'a str, at: Pos, limit: Pos) -> Result<Pos, Fail<'a>> {
        self.match_lit(lit, at, limit).ok_or(Fail { at, want: Want::Literal(lit) })
    }

    /// The position after `lit` if the text at `at` starts with it.
    fn match_lit(&self, lit: &str, at: Pos, limit: Pos) -> Option<Pos> {
        let end = at as usize + lit.len();
        (end <= limit as usize && &self.text[at as usize..end] == lit.as_bytes())
            .then_some(end as Pos)
    }

    /// The trimmed span of a `pattern` token at `at`.
    fn token(
        &self,
        symbol: SymbolId,
        pattern: &'a TokenPattern,
        at: Pos,
        limit: Pos,
    ) -> Result<(Pos, Pos), Fail<'a>> {
        let start = self.skip_ws(at, limit);
        let bytes = self.text;
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
                while e > s && bytes[e - 1].is_ascii_whitespace() {
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
            return Err(Fail { at: start, want: Want::Token(symbol, pattern) });
        }
        Ok((start, end as Pos))
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

    /// `S → Item*`, `Item → Long | Short`; `Long` fails after its `Word`.
    fn backtracking_grammar() -> Grammar {
        Grammar::builder("S")
            .repeat("S", "Item", None, ValueBuilder::Set)
            .choice("Item", &["Long", "Short"], ValueBuilder::Child)
            .seq("Long", [lit("("), nt("Word"), lit("!"), lit(")")], ValueBuilder::TupleAuto)
            .seq("Short", [lit("("), nt("Word"), lit(")")], ValueBuilder::TupleAuto)
            .token("Word", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    #[test]
    fn failed_alternatives_leave_no_events() {
        let g = backtracking_grammar();
        let text = "(a) (b!)";
        let mut tape = Tape::new();
        let p = Parser::new(&g, text);
        p.parse_into(g.root(), 0..text.len() as Pos, &mut tape).unwrap();
        let tree = p.parse_root(0..text.len() as Pos).unwrap();
        let mut replayed = Tape::new();
        tree.replay(&mut replayed);
        assert_eq!(format!("{tape:?}"), format!("{replayed:?}"), "the tape holds the tree only");
        assert_eq!(tree.node_count(), 7);
        assert_eq!(p.stats().nodes_built, 2 * 7, "nodes of failed attempts are not counted");
    }

    #[test]
    fn a_failed_parse_rolls_the_sink_back() {
        let g = backtracking_grammar();
        let text = "(a) (b";
        let mut tape = Tape::new();
        let p = Parser::new(&g, "(z)");
        p.parse_into(g.root(), 0..3, &mut tape).unwrap();
        let recorded = format!("{tape:?}");
        let p = Parser::new(&g, text);
        let err = p.parse_into(g.root(), 0..text.len() as Pos, &mut tape).unwrap_err();
        assert_eq!(err.to_string(), "parse error at byte 4: expected end of S region");
        assert_eq!(format!("{tape:?}"), recorded);
        assert_eq!(p.stats(), ParseStats::default(), "failed parses count nothing");
    }

    #[test]
    fn error_texts_are_formatted_on_display() {
        let g = list_grammar();
        let p = Parser::new(&g, "(alpha");
        let item = g.symbol("Item").unwrap();
        let err = p.parse_symbol(item, 0..6).unwrap_err();
        assert_eq!(err.to_string(), r#"parse error at byte 6: expected literal ")""#);
        assert_eq!(format!("{err:?}"), r#"ParseError { at: 6, expected: "literal \")\"" }"#);
        let err = p.parse_symbol(item, 0..1).unwrap_err();
        assert_eq!(err.to_string(), "parse error at byte 1: expected Word token (Word)");
        let v = Grammar::builder("V").choice("V", &[], ValueBuilder::Child).build().unwrap();
        let err = Parser::new(&v, "x").parse_root(0..1).unwrap_err();
        assert_eq!(err.to_string(), "parse error at byte 0: expected one alternative of V");
    }

    #[test]
    fn a_based_parser_reports_positions_in_the_larger_text() {
        let g = list_grammar();
        let whole = "(alpha) (beta)";
        let file = "(beta)";
        let base = 8;
        let tree = Parser::new(&g, whole).parse_root(base..whole.len() as Pos).unwrap();
        let p = Parser::with_base(&g, file, base);
        assert_eq!(p.parse_root(base..base + file.len() as Pos).unwrap(), tree);
        let item = g.symbol("Item").unwrap();
        let err = p.parse_symbol(item, base..base + 3).unwrap_err();
        assert_eq!(err.at, base + 3, "the word ends the span; `)` is missing");
    }

    /// `T → ( A , B )`: a tuple whose last field is `B`.
    fn pair_grammar() -> Grammar {
        Grammar::builder("T")
            .seq("T", [lit("("), nt("A"), lit(","), nt("B"), lit(")")], ValueBuilder::TupleAuto)
            .token("A", TokenPattern::Word, ValueBuilder::Atom)
            .token("B", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    /// Parses `text` as a `T` into a value sink keeping `paths`, with
    /// `parse_into` or `parse_indexed`; returns the value and the stats.
    fn pair_value(
        text: &str,
        paths: &[Vec<&str>],
        indexed: bool,
    ) -> (Result<qof_db::Value, ParseError>, ParseStats) {
        let g = pair_grammar();
        let filter = crate::PathFilter::from_paths(paths);
        let mut db = qof_db::Database::new();
        let mut sink = crate::ValueSink::new(&g, crate::AtomText::Copied(text), &mut db, &filter);
        let p = Parser::new(&g, text);
        let span = 0..text.len() as Pos;
        let parsed = if indexed {
            p.parse_indexed(g.root(), span, &mut sink)
        } else {
            p.parse_into(g.root(), span, &mut sink)
        };
        (parsed.map(|()| sink.take().unwrap()), p.stats())
    }

    #[test]
    fn an_indexed_parse_stops_after_the_last_kept_field() {
        let text = "(ab,cd)";
        let (full, full_stats) = pair_value(text, &[vec!["A"]], false);
        let (lean, lean_stats) = pair_value(text, &[vec!["A"]], true);
        assert_eq!(full.unwrap(), lean.unwrap());
        assert_eq!(full_stats, ParseStats { bytes_scanned: 7, nodes_built: 3 });
        assert_eq!(lean_stats, ParseStats { bytes_scanned: 3, nodes_built: 2 }, "`(ab` and T, A");
        // Keeping the last field, or everything, reads every byte.
        for paths in [vec![vec!["B"]], vec![vec![]]] {
            let (value, stats) = pair_value(text, &paths, true);
            assert_eq!(value, pair_value(text, &paths, false).0);
            assert_eq!(stats.bytes_scanned, 7);
        }
        // Keeping nothing reads nothing past the root's start.
        let (_, stats) = pair_value(text, &[], true);
        assert_eq!(stats, ParseStats { bytes_scanned: 0, nodes_built: 1 });
    }

    #[test]
    fn a_malformed_suffix_fails_every_parse_that_reads_it() {
        let text = "(ab,%)";
        let (lean, _) = pair_value(text, &[vec!["A"]], true);
        assert!(lean.is_ok(), "the index vouches for the suffix an indexed parse skips");
        let (full, stats) = pair_value(text, &[vec!["A"]], false);
        assert_eq!(full.unwrap_err().to_string(), "parse error at byte 4: expected B token (Word)");
        assert_eq!(stats, ParseStats::default());
        // A sink that keeps everything (the tape, the region sink) makes
        // an indexed parse read, and validate, the whole span.
        let g = pair_grammar();
        let p = Parser::new(&g, text);
        let mut tape = Tape::new();
        assert!(p.parse_indexed(g.root(), 0..6, &mut tape).is_err());
        let mut regions = crate::RegionSink::new(&g, &crate::IndexSpec::full());
        assert!(p.parse_indexed(g.root(), 0..6, &mut regions).is_err());
        let p = Parser::new(&g, "(ab,cd)");
        p.parse_indexed(g.root(), 0..7, &mut tape).unwrap();
        assert_eq!(p.stats().bytes_scanned, 7);
    }

    #[test]
    fn the_tape_replays_nested_nodes_outer_first() {
        let g = Grammar::builder("T")
            .seq("T", [lit("("), nt("Inner"), lit(")")], ValueBuilder::TupleAuto)
            .choice("Inner", &["T", "Word"], ValueBuilder::Child)
            .token("Word", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "((x))";
        let mut tape = Tape::new();
        Parser::new(&g, text).parse_into(g.root(), 0..5, &mut tape).unwrap();
        let mut spans = Vec::new();
        let mut sink = Tape::new();
        tape.replay_each(g.root(), &mut sink, |t| {
            let Some(Event::Leave(_, start, end)) = t.events.last() else { panic!("a node") };
            spans.push((*start, *end));
            t.clear();
        });
        assert_eq!(spans, [(0, 5), (1, 4)]);
    }
}
