//! Value building: executing the `$$ := …` annotations on what the parser
//! recognizes to produce database values (§4.1), with the §6.2 *push-down*
//! that only constructs the parts of the value a query actually needs ("the
//! structuring schema can be optimized by pushing the query into the parsing
//! process, so that only objects that meet the query selection criteria are
//! built").

use crate::{Grammar, ParseNode, Sink, SymbolId, ValueBuilder};
use qof_db::{Atom, Database, DbMark, Fields, Value};
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
    /// A shared text (the corpus): atoms point into it.
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
            AtomText::Copied(_) => Atom::from(self.slice(span).to_owned()),
        }
    }
}

/// The value sink: executes the `$$ := …` annotations as the parser goes,
/// building only what the [`PathFilter`] keeps (§6.2). A node the filter
/// drops is still recognized, but nothing of its subtree is allocated;
/// [`Parser::parse_indexed`](crate::Parser::parse_indexed) asks
/// [`Sink::keeps`] and does not read a candidate past its last kept field.
///
/// Finished values wait for their parent on one stack. A tuple sorts its
/// fields by the grammar's name ranks and takes them in one vector; an
/// object is created when its node is left, with its value nodes counted
/// on the way. A rolled-back attempt truncates the stack and removes its
/// objects from the database.
pub struct ValueSink<'a, 'd> {
    grammar: &'a Grammar,
    text: AtomText<'a>,
    filter: &'a PathFilter,
    /// Per symbol: whether `filter` keeps a field of its name, worked out
    /// once per sink so [`Sink::keeps`] looks no name up per candidate.
    kept: Vec<bool>,
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
    builder: &'a ValueBuilder,
    filter: &'a PathFilter,
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
        filter: &'a PathFilter,
    ) -> Self {
        let mut kept = vec![filter.keep_all; grammar.symbol_count()];
        for name in filter.children.keys() {
            if let Some(symbol) = grammar.symbol(name) {
                kept[symbol.0 as usize] = true;
            }
        }
        Self {
            grammar,
            text,
            filter,
            kept,
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

    /// The filter for a new child of the open node, or `None` to drop it.
    fn child_filter(&self, symbol: SymbolId) -> Option<&'a PathFilter> {
        let Some(parent) = self.frames.last() else { return Some(self.filter) };
        match parent.builder {
            // Value-transparent: the first child takes the filter unchanged
            // (choice branches never appear in query paths).
            ValueBuilder::Child => (self.values.len() == parent.base).then_some(parent.filter),
            ValueBuilder::Atom | ValueBuilder::AtomInt => None,
            ValueBuilder::Set
            | ValueBuilder::List
            | ValueBuilder::TupleAuto
            | ValueBuilder::ObjectAuto(_) => {
                if parent.filter.keep_all {
                    Some(&KEEP_ALL)
                } else {
                    parent.filter.child(self.grammar.name(symbol))
                }
            }
        }
    }

    /// Assembles the value of the node in `frame` from its children.
    fn assemble(&mut self, frame: &Frame<'a>, span: Span) -> Value {
        let value = match frame.builder {
            ValueBuilder::Atom => Value::Str(self.text.atom(span)),
            ValueBuilder::AtomInt => Value::Int(self.text.slice(span).trim().parse().unwrap_or(0)),
            ValueBuilder::Child => {
                if self.values.len() > frame.base {
                    return self.values.pop().expect("a child value").1;
                }
                Value::str("")
            }
            ValueBuilder::List => {
                Value::List(self.values.drain(frame.base..).map(|(_, v)| v).collect())
            }
            ValueBuilder::Set => {
                let mut items: Vec<Value> =
                    self.values.drain(frame.base..).map(|(_, v)| v).collect();
                if !items.windows(2).all(|w| w[0] < w[1]) {
                    items.sort();
                    let mut kept: Vec<Value> = Vec::with_capacity(items.len());
                    for item in items {
                        if kept.last() == Some(&item) {
                            // A duplicate is no node of the set.
                            self.nodes -= item.node_count() as u64;
                        } else {
                            kept.push(item);
                        }
                    }
                    items = kept;
                }
                Value::Set(items)
            }
            ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_) => {
                let grammar = self.grammar;
                let fields = &mut self.values[frame.base..];
                let rank = |(s, _): &(SymbolId, Value)| grammar.name_rank(*s);
                if !fields.windows(2).all(|w| rank(&w[0]) < rank(&w[1])) {
                    // Stable: of a name given twice, the last value wins.
                    fields.sort_by_key(rank);
                }
                let mut sorted: Vec<(Arc<str>, Value)> = Vec::with_capacity(fields.len());
                let (mut last, mut dropped) = (None, 0);
                for (symbol, value) in self.values.drain(frame.base..) {
                    if last == Some(symbol) {
                        let (_, old) = sorted.pop().expect("the field given before");
                        dropped += old.node_count() as u64;
                    }
                    sorted.push((Arc::clone(grammar.field_name(symbol)), value));
                    last = Some(symbol);
                }
                self.nodes -= dropped;
                Value::Tuple(Fields::from_sorted(sorted))
            }
        };
        self.nodes += 1;
        value
    }
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
                builder: &self.grammar.rule(symbol).builder,
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
        if let ValueBuilder::ObjectAuto(class) = frame.builder {
            let nodes = self.nodes - frame.nodes;
            value = Value::Ref(self.db.new_object_counted(class, value, nodes));
            self.nodes = frame.nodes + 1;
        }
        if self.frames.is_empty() {
            self.done = Some(value);
        } else {
            self.values.push((symbol, value));
        }
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
        let Some(parent) = self.frames.last() else { return true };
        match parent.builder {
            // Only the first child is built, which `keeps` cannot tell
            // from the symbol alone.
            ValueBuilder::Child => true,
            ValueBuilder::Atom | ValueBuilder::AtomInt => false,
            _ if std::ptr::eq(parent.filter, self.filter) => self.kept[symbol.0 as usize],
            _ => parent.filter.keeps(self.grammar.name(symbol)),
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
    fn atoms_share_the_text_they_come_from() {
        let g = grammar();
        let text = Arc::new("[k1:chang|1982]".to_owned());
        let mut db = Database::new();
        let mut sink = ValueSink::new(&g, AtomText::Shared(&text), &mut db, &KEEP_ALL);
        Parser::new(&g, &text).parse_into(g.root(), 0..text.len() as u32, &mut sink).unwrap();
        drop(sink);
        assert_eq!(Arc::strong_count(&text), 3, "Key and the author share the text");
        let obj = db.deref(db.extent("Entry")[0]).unwrap();
        assert_eq!(obj.field("Key").unwrap().as_str(), Some("k1"));
    }
}
