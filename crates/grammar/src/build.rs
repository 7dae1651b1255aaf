//! Value building: executing the `$$ := …` annotations on what the parser
//! recognizes to produce database values (§4.1), with the §6.2 *push-down*
//! that only constructs the parts of the value a query actually needs ("the
//! structuring schema can be optimized by pushing the query into the parsing
//! process, so that only objects that meet the query selection criteria are
//! built").

use crate::{Grammar, ParseNode, Rule, RuleBody, Sink, SymbolId, Term, ValueBuilder};
use qof_db::{Atom, Database, DbMark, Fields, Shape, Value};
use qof_text::Span;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A trie over attribute names describing which paths of a value a query
/// needs. `keep_all` keeps the whole subtree (e.g. `SELECT r`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathFilter {
    keep_all: bool,
    children: BTreeMap<String, PathFilter>,
}

impl PathFilter {
    /// Keep everything below this point.
    pub fn all() -> Self {
        Self { keep_all: true, children: BTreeMap::new() }
    }

    /// Keep nothing (an empty filter keeps no fields).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a filter keeping exactly the given attribute paths; the
    /// subtree below each path's last step is kept in full.
    pub fn from_paths<S: AsRef<str>>(paths: &[Vec<S>]) -> Self {
        let mut root = PathFilter::none();
        for path in paths {
            let mut cur = &mut root;
            for step in path {
                cur = cur.children.entry(step.as_ref().to_owned()).or_default();
            }
            cur.keep_all = true;
        }
        root
    }

    /// Merges another filter into this one.
    pub fn merge(&mut self, other: &PathFilter) {
        if other.keep_all {
            self.keep_all = true;
        }
        for (k, v) in &other.children {
            self.children.entry(k.clone()).or_default().merge(v);
        }
    }

    /// The sub-filter for a child attribute, if any.
    pub fn child(&self, name: &str) -> Option<&PathFilter> {
        self.children.get(name)
    }

    /// Whether a child attribute survives this filter.
    pub fn keeps(&self, name: &str) -> bool {
        self.keep_all || self.children.contains_key(name)
    }
}

/// The filter that keeps everything (the children of a `keep_all` node).
static KEEP_ALL: PathFilter = PathFilter { keep_all: true, children: BTreeMap::new() };

/// Where atoms get their text.
#[derive(Clone, Copy)]
pub enum AtomText<'t> {
    /// A shared text (the corpus): long atoms point into it, short ones
    /// copy their piece of it.
    Shared(&'t Arc<String>),
    /// A borrowed text: atoms copy their piece of it.
    Copied(&'t str),
}

impl<'t> AtomText<'t> {
    fn slice(self, span: Span) -> &'t str {
        let text = match self {
            AtomText::Shared(text) => text.as_str(),
            AtomText::Copied(text) => text,
        };
        &text[span.start as usize..span.end as usize]
    }

    fn atom(self, span: Span) -> Atom {
        match self {
            AtomText::Shared(text) => Atom::shared(text, span.start, span.end),
            AtomText::Copied(_) => Atom::from(self.slice(span)),
        }
    }
}

/// A filter node number in a [`ValueSink`]'s table: node 0 keeps
/// everything below it, and `DROP` stands for a dropped child.
const KEEPS_ALL: u32 = 0;
const DROP: u32 = u32::MAX;

/// One entry of a [`ValueSink`]'s table, for a filter node and a symbol.
#[derive(Clone, Copy)]
struct Cell {
    /// The filter node of a child of that symbol under the node, or
    /// `DROP`.
    child: u32,
    /// The layout of a tuple of that symbol built at the node, as an index
    /// in the sink's layouts; `DROP` until the first such tuple.
    layout: u32,
}

/// How a sequence rule's tuple is put together at one filter node: which
/// children come, in what order, and the shape their names make.
struct Layout {
    shape: Shape,
    /// `order[j]`: the place among the children, in the order they come,
    /// of the one whose name is the `j`th in name order.
    order: Box<[u32]>,
    /// The children's symbols, in the order they come (debug-checked).
    symbols: Box<[SymbolId]>,
}

/// The value sink: executes the `$$ := …` annotations as the parser goes,
/// building only what the [`PathFilter`] keeps (§6.2). A node the filter
/// drops is still recognized, but nothing of its subtree is allocated;
/// [`Parser::parse_indexed`](crate::Parser::parse_indexed) asks
/// [`Sink::keeps`] and does not read a candidate past its last kept field.
///
/// The filter is read from a table made when the sink is: one row per
/// filter node, one cell per symbol, so no name is looked up per node.
/// Finished values wait for their parent on one stack. A sequence rule's
/// tuple takes its fields in one exactly sized allocation, in an order
/// and under a [`Shape`] worked out once per rule and filter node; an
/// object is created when its node is left, with its value nodes counted
/// on the way. A rolled-back attempt truncates the stack and removes its
/// objects from the database.
pub struct ValueSink<'a, 'd> {
    grammar: &'a Grammar,
    text: AtomText<'a>,
    /// The filter as a table: the cell of node `n` and symbol `s` is at
    /// `n * grammar.symbol_count() + s`.
    cells: Vec<Cell>,
    /// The filter node of the root.
    root: u32,
    layouts: Vec<Layout>,
    db: &'d mut Database,
    frames: Vec<Frame<'a>>,
    /// Finished values waiting for their parent, with their symbols.
    values: Vec<(SymbolId, Value)>,
    /// Depth inside a dropped subtree (0 when building).
    skip: u32,
    /// Value nodes built so far, an object counting as one node.
    nodes: u64,
    done: Option<Value>,
}

/// A node being built.
struct Frame<'a> {
    rule: &'a Rule,
    symbol: SymbolId,
    /// The node's filter node.
    filter: u32,
    /// `values.len()` when the node was entered: its children are above.
    base: usize,
    /// `nodes` when the node was entered.
    nodes: u64,
}

/// A [`ValueSink`] checkpoint.
#[derive(Clone, Copy)]
pub struct ValueMark {
    frames: usize,
    values: usize,
    skip: u32,
    nodes: u64,
    db: DbMark,
}

impl<'a, 'd> ValueSink<'a, 'd> {
    /// A sink building values of `grammar` into `db`; below each node it
    /// is fed it keeps what `filter` keeps.
    pub fn new(
        grammar: &'a Grammar,
        text: AtomText<'a>,
        db: &'d mut Database,
        filter: &PathFilter,
    ) -> Self {
        let keep_all = Cell { child: KEEPS_ALL, layout: DROP };
        let mut cells = vec![keep_all; grammar.symbol_count()];
        let root = add_filter_node(&mut cells, grammar, filter);
        Self {
            grammar,
            text,
            cells,
            root,
            layouts: Vec::new(),
            db,
            frames: Vec::new(),
            values: Vec::new(),
            skip: 0,
            nodes: 0,
            done: None,
        }
    }

    /// The database the objects go to.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// The value of the last complete node fed to the sink.
    pub fn take(&mut self) -> Option<Value> {
        self.done.take()
    }

    fn cell(&self, filter: u32, symbol: SymbolId) -> usize {
        filter as usize * self.grammar.symbol_count() + symbol.0 as usize
    }

    /// The filter node of a new child of the open node, or `None` to drop
    /// it.
    fn child_filter(&self, symbol: SymbolId) -> Option<u32> {
        let Some(parent) = self.frames.last() else { return Some(self.root) };
        match parent.rule.builder {
            // Value-transparent: the first child takes the filter unchanged
            // (choice branches never appear in query paths).
            ValueBuilder::Child => (self.values.len() == parent.base).then_some(parent.filter),
            ValueBuilder::Atom | ValueBuilder::AtomInt => None,
            ValueBuilder::Set
            | ValueBuilder::List
            | ValueBuilder::TupleAuto
            | ValueBuilder::ObjectAuto(_) => {
                let child = self.cells[self.cell(parent.filter, symbol)].child;
                (child != DROP).then_some(child)
            }
        }
    }

    /// The layout of the tuple of a sequence node in `frame`, worked out
    /// on its first tuple.
    fn layout(&mut self, frame: &Frame<'a>, terms: &[Term]) -> usize {
        let cell = self.cell(frame.filter, frame.symbol);
        if self.cells[cell].layout == DROP {
            let grammar = self.grammar;
            let symbols: Box<[SymbolId]> = terms
                .iter()
                .filter_map(|t| match t {
                    Term::NonTerm(s) if self.cells[self.cell(frame.filter, *s)].child != DROP => {
                        Some(*s)
                    }
                    _ => None,
                })
                .collect();
            let mut order: Box<[u32]> = (0..symbols.len() as u32).collect();
            order.sort_unstable_by_key(|&i| grammar.name_rank(symbols[i as usize]));
            let names = order.iter().map(|&i| Arc::clone(grammar.field_name(symbols[i as usize])));
            let shape = Shape::new(names.collect());
            self.cells[cell].layout = self.layouts.len() as u32;
            self.layouts.push(Layout { shape, order, symbols });
        }
        self.cells[cell].layout as usize
    }

    /// The integer atom of `span`.
    fn int(&self, span: Span) -> Value {
        Value::Int(self.text.slice(span).trim().parse().unwrap_or(0))
    }

    /// A finished value goes to the open node, or is the sink's result.
    fn finish(&mut self, symbol: SymbolId, value: Value) {
        if self.frames.is_empty() {
            self.done = Some(value);
        } else {
            self.values.push((symbol, value));
        }
    }

    /// Assembles the value of the node in `frame` from its children.
    fn assemble(&mut self, frame: &Frame<'a>, span: Span) -> Value {
        let value = match (&frame.rule.builder, &frame.rule.body) {
            (ValueBuilder::Atom, _) => Value::Str(self.text.atom(span)),
            (ValueBuilder::AtomInt, _) => self.int(span),
            (ValueBuilder::Child, _) => {
                if self.values.len() > frame.base {
                    return self.values.pop().expect("a child value").1;
                }
                Value::str("")
            }
            (ValueBuilder::List, _) => {
                Value::List(self.values.drain(frame.base..).map(|(_, v)| v).collect())
            }
            (ValueBuilder::Set, _) => {
                let mut items: Vec<Value> =
                    self.values.drain(frame.base..).map(|(_, v)| v).collect();
                if !items.windows(2).all(|w| w[0] < w[1]) {
                    items.sort_unstable();
                    let nodes = &mut self.nodes;
                    items.dedup_by(|item, kept| {
                        let duplicate = item == kept;
                        if duplicate {
                            // A duplicate is no node of the set.
                            *nodes -= item.node_count() as u64;
                        }
                        duplicate
                    });
                }
                Value::Set(items)
            }
            // Only a sequence builds a tuple, and it names each
            // non-terminal once (both checked by `GrammarBuilder::build`).
            // Each one the filter keeps leaves one value, in term order:
            // its fields are the layout's.
            (ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_), RuleBody::Seq(terms)) => {
                let at = self.layout(frame, terms);
                let layout = &self.layouts[at];
                let children = &mut self.values[frame.base..];
                debug_assert!(children.iter().map(|(s, _)| *s).eq(layout.symbols.iter().copied()));
                let values = layout
                    .order
                    .iter()
                    .map(|&i| std::mem::replace(&mut children[i as usize].1, Value::Int(0)))
                    .collect();
                self.values.truncate(frame.base);
                Value::Tuple(Fields::from_shape(layout.shape.clone(), values))
            }
            (ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_), _) => {
                unreachable!("only a sequence rule builds a tuple")
            }
        };
        self.nodes += 1;
        value
    }
}

/// Adds the rows of `filter`'s nodes to a sink's table and returns the
/// node of `filter`. Every node that keeps everything is node 0.
fn add_filter_node(cells: &mut Vec<Cell>, grammar: &Grammar, filter: &PathFilter) -> u32 {
    if filter.keep_all {
        return KEEPS_ALL;
    }
    let n = grammar.symbol_count();
    let row = cells.len();
    cells.resize(row + n, Cell { child: DROP, layout: DROP });
    for (name, child) in &filter.children {
        if let Some(symbol) = grammar.symbol(name) {
            cells[row + symbol.0 as usize].child = add_filter_node(cells, grammar, child);
        }
    }
    (row / n) as u32
}

impl Sink for ValueSink<'_, '_> {
    type Mark = ValueMark;

    fn enter(&mut self, symbol: SymbolId) {
        if self.skip > 0 {
            self.skip += 1;
            return;
        }
        match self.child_filter(symbol) {
            Some(filter) => self.frames.push(Frame {
                rule: self.grammar.rule(symbol),
                symbol,
                filter,
                base: self.values.len(),
                nodes: self.nodes,
            }),
            None => self.skip = 1,
        }
    }

    fn leave(&mut self, symbol: SymbolId, span: Span) {
        if self.skip > 0 {
            self.skip -= 1;
            return;
        }
        let frame = self.frames.pop().expect("leave matches an enter");
        let mut value = self.assemble(&frame, span);
        if let ValueBuilder::ObjectAuto(class) = &frame.rule.builder {
            let nodes = self.nodes - frame.nodes;
            value = Value::Ref(self.db.new_object_counted(class, value, nodes));
            self.nodes = frame.nodes + 1;
        }
        self.finish(symbol, value);
    }

    /// An atom is built with no frame.
    fn token(&mut self, symbol: SymbolId, span: Span) {
        if self.skip > 0 || self.child_filter(symbol).is_none() {
            return;
        }
        let value = match self.grammar.rule(symbol).builder {
            ValueBuilder::Atom => Value::Str(self.text.atom(span)),
            ValueBuilder::AtomInt => self.int(span),
            _ => {
                self.enter(symbol);
                return self.leave(symbol, span);
            }
        };
        self.nodes += 1;
        self.finish(symbol, value);
    }

    fn mark(&self) -> ValueMark {
        ValueMark {
            frames: self.frames.len(),
            values: self.values.len(),
            skip: self.skip,
            nodes: self.nodes,
            db: self.db.mark(),
        }
    }

    fn keeps(&self, symbol: SymbolId) -> bool {
        if self.skip > 0 {
            return false;
        }
        match self.frames.last().map(|parent| &parent.rule.builder) {
            // Only the first child is built, which `keeps` cannot tell
            // from the symbol alone.
            None | Some(ValueBuilder::Child) => true,
            _ => self.child_filter(symbol).is_some(),
        }
    }

    fn rollback(&mut self, mark: ValueMark) {
        self.frames.truncate(mark.frames);
        self.values.truncate(mark.values);
        self.skip = mark.skip;
        self.nodes = mark.nodes;
        self.db.rollback(mark.db);
        if mark.frames == 0 {
            self.done = None;
        }
    }
}

/// Builds the full database value of a parse node.
pub fn build_value(node: &ParseNode, grammar: &Grammar, text: &str, db: &mut Database) -> Value {
    build_value_filtered(node, grammar, text, db, &KEEP_ALL)
}

/// Builds only the parts of the value on paths the filter keeps; skipped
/// tuple fields are absent, skipped set contents are empty. Construction
/// cost is observable through [`Database::stats`]. Replays the tree into a
/// [`ValueSink`].
pub fn build_value_filtered(
    node: &ParseNode,
    grammar: &Grammar,
    text: &str,
    db: &mut Database,
    filter: &PathFilter,
) -> Value {
    let mut sink = ValueSink::new(grammar, AtomText::Copied(text), db, filter);
    node.replay(&mut sink);
    sink.take().expect("a replayed tree is complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{lit, nt, TokenPattern};
    use crate::Parser;
    use qof_db::eval_path;
    use qof_db::DbStep;

    fn grammar() -> Grammar {
        Grammar::builder("Set")
            .repeat("Set", "Entry", None, ValueBuilder::Set)
            .seq(
                "Entry",
                [lit("["), nt("Key"), lit(":"), nt("Authors"), lit("|"), nt("Year"), lit("]")],
                ValueBuilder::ObjectAuto("Entry".into()),
            )
            .token("Key", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Authors", "Name", Some(","), ValueBuilder::Set)
            .token("Name", TokenPattern::Word, ValueBuilder::Atom)
            .token("Year", TokenPattern::Number, ValueBuilder::AtomInt)
            .build()
            .unwrap()
    }

    fn tree_of(text: &str, g: &Grammar) -> ParseNode {
        Parser::new(g, text).parse_root(0..text.len() as u32).unwrap()
    }

    #[test]
    fn builds_objects_sets_atoms() {
        let g = grammar();
        let text = "[k1:chang,corliss|1982][k2:milo|1993]";
        let tree = tree_of(text, &g);
        let mut db = Database::new();
        let v = build_value(&tree, &g, text, &mut db);
        // Root is a set of two object references.
        let refs = v.elements().unwrap();
        assert_eq!(refs.len(), 2);
        assert_eq!(db.extent("Entry").len(), 2);
        let e0 = db.deref(match refs[0] {
            Value::Ref(o) => o,
            _ => panic!("expected ref"),
        });
        let e0 = e0.unwrap();
        assert_eq!(e0.field("Key").unwrap().as_str(), Some("k1"));
        assert_eq!(e0.field("Year").unwrap().as_int(), Some(1982));
        assert_eq!(e0.field("Authors").unwrap().elements().unwrap().len(), 2);
    }

    #[test]
    fn field_names_are_shared() {
        let g = grammar();
        let text = "[k1:chang|1982][k2:milo|1993]";
        let tree = tree_of(text, &g);
        let mut db = Database::new();
        build_value(&tree, &g, text, &mut db);
        let names: Vec<Vec<&str>> = db
            .extent("Entry")
            .iter()
            .map(|&oid| match db.deref(oid).unwrap() {
                Value::Tuple(fields) => fields.iter().map(|(name, _)| name).collect(),
                other => panic!("expected tuple, got {other:?}"),
            })
            .collect();
        assert_eq!(names[0], ["Authors", "Key", "Year"]);
        assert_eq!(names[0], names[1]);
        for (a, b) in names[0].iter().zip(&names[1]) {
            assert!(std::ptr::eq(a.as_ptr(), b.as_ptr()), "one allocation per field name: {a}");
        }
    }

    #[test]
    fn paths_work_on_built_values() {
        let g = grammar();
        let text = "[k1:chang,corliss|1982]";
        let tree = tree_of(text, &g);
        let mut db = Database::new();
        build_value(&tree, &g, text, &mut db);
        let oid = db.extent("Entry")[0];
        let obj = Value::Ref(oid);
        let names = eval_path(&db, &obj, &[DbStep::Field("Authors".into()), DbStep::Elements]);
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn filter_skips_unneeded_fields() {
        let g = grammar();
        let text = "[k1:chang,corliss|1982]";
        let tree = tree_of(text, &g);

        let mut full_db = Database::new();
        build_value(&tree, &g, text, &mut full_db);
        let full_nodes = full_db.stats().value_nodes;

        let mut lean_db = Database::new();
        // Query only needs Entry.Key: path filter Entry -> Key.
        let filter = PathFilter::from_paths(&[vec!["Entry", "Key"]]);
        build_value_filtered(&tree, &g, text, &mut lean_db, &filter);
        let lean_nodes = lean_db.stats().value_nodes;
        assert!(
            lean_nodes < full_nodes,
            "push-down must build fewer nodes: {lean_nodes} vs {full_nodes}"
        );

        let oid = lean_db.extent("Entry")[0];
        let obj = lean_db.deref(oid).unwrap();
        assert_eq!(obj.field("Key").unwrap().as_str(), Some("k1"));
        assert!(obj.field("Authors").is_none(), "filtered field is absent");
    }

    #[test]
    fn filter_keep_all_below_last_step() {
        let g = grammar();
        let text = "[k1:chang|1982]";
        let tree = tree_of(text, &g);
        let mut db = Database::new();
        let filter = PathFilter::from_paths(&[vec!["Entry", "Authors"]]);
        build_value_filtered(&tree, &g, text, &mut db, &filter);
        let obj = db.deref(db.extent("Entry")[0]).unwrap();
        let authors = obj.field("Authors").unwrap();
        assert_eq!(authors.elements().unwrap().len(), 1);
    }

    #[test]
    fn filter_none_builds_empty_shells() {
        let g = grammar();
        let text = "[k1:chang|1982]";
        let tree = tree_of(text, &g);
        let mut db = Database::new();
        let v = build_value_filtered(&tree, &g, text, &mut db, &PathFilter::none());
        // The set itself exists but contains nothing.
        assert_eq!(v.elements().unwrap().len(), 0);
    }

    #[test]
    fn filter_merge() {
        let mut a = PathFilter::from_paths(&[vec!["Entry", "Key"]]);
        let b = PathFilter::from_paths(&[vec!["Entry", "Year"]]);
        a.merge(&b);
        assert!(a.child("Entry").unwrap().keeps("Key"));
        assert!(a.child("Entry").unwrap().keeps("Year"));
        assert!(!a.child("Entry").unwrap().keeps("Authors"));
    }

    #[test]
    fn counted_value_nodes_match_the_objects_built() {
        let g = grammar();
        // Duplicate authors collapse in the set and drop out of the count.
        let text = "[k1:chang,corliss,chang|1982][k2:milo|1993]";
        let tree = tree_of(text, &g);
        for filter in [PathFilter::all(), PathFilter::from_paths(&[vec!["Entry", "Authors"]])] {
            let mut db = Database::new();
            build_value_filtered(&tree, &g, text, &mut db, &filter);
            let nodes: usize =
                db.extent("Entry").iter().map(|o| db.deref(*o).unwrap().node_count()).sum();
            assert_eq!(db.stats().value_nodes, nodes as u64);
        }
    }

    #[test]
    fn an_ascii_stop_cuts_utf8_text_on_character_boundaries() {
        let g = Grammar::builder("S")
            .seq("S", [nt("T"), nt("U")], ValueBuilder::TupleAuto)
            .token("T", TokenPattern::Until("!".into()), ValueBuilder::Atom)
            .token("U", TokenPattern::Until("z".into()), ValueBuilder::Atom)
            .build()
            .unwrap();
        let text = "x©é!→ 𝄞";
        let v = build_value(&tree_of(text, &g), &g, text, &mut Database::new());
        assert_eq!(v, Value::tuple([("T", Value::str("x©é")), ("U", Value::str("!→ 𝄞"))]));
    }

    #[test]
    fn atoms_share_the_text_they_come_from() {
        let g = grammar();
        let key = "key_of_twenty_four_bytes";
        let text = Arc::new(format!("[{key}:chang|1982]"));
        let mut db = Database::new();
        let mut sink = ValueSink::new(&g, AtomText::Shared(&text), &mut db, &KEEP_ALL);
        Parser::new(&g, &text).parse_into(g.root(), 0..text.len() as u32, &mut sink).unwrap();
        drop(sink);
        assert_eq!(Arc::strong_count(&text), 2, "the long Key shares the text, the author not");
        let obj = db.deref(db.extent("Entry")[0]).unwrap();
        assert_eq!(obj.field("Key").unwrap().as_str(), Some(key));
        let authors = obj.field("Authors").unwrap().elements().unwrap();
        assert_eq!(authors[0].as_str(), Some("chang"));
    }
}
