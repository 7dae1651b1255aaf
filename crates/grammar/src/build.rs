//! Value building: executing the `$$ := …` annotations on a parse tree to
//! produce database values (§4.1), and the §6.2 *push-down* variant that
//! only constructs the parts of the value a query actually needs ("the
//! structuring schema can be optimized by pushing the query into the parsing
//! process, so that only objects that meet the query selection criteria are
//! built").

use crate::{Grammar, ParseNode, ValueBuilder};
use qof_db::{Database, Fields, Value};
use std::collections::BTreeMap;

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

/// Builds the full database value of a parse node.
pub fn build_value(node: &ParseNode, grammar: &Grammar, text: &str, db: &mut Database) -> Value {
    build_inner(node, grammar, text, db, &PathFilter::all())
}

/// Builds only the parts of the value on paths the filter keeps; skipped
/// tuple fields are absent, skipped set contents are empty. Construction
/// cost is observable through [`Database::stats`].
pub fn build_value_filtered(
    node: &ParseNode,
    grammar: &Grammar,
    text: &str,
    db: &mut Database,
    filter: &PathFilter,
) -> Value {
    build_inner(node, grammar, text, db, filter)
}

fn build_inner(
    node: &ParseNode,
    grammar: &Grammar,
    text: &str,
    db: &mut Database,
    filter: &PathFilter,
) -> Value {
    let rule = grammar.rule(node.symbol);
    match &rule.builder {
        ValueBuilder::Atom => {
            Value::Str(text[node.span.start as usize..node.span.end as usize].to_owned())
        }
        ValueBuilder::AtomInt => {
            let s = &text[node.span.start as usize..node.span.end as usize];
            Value::Int(s.trim().parse().unwrap_or(0))
        }
        ValueBuilder::Child => {
            // Value-transparent wrapper: the filter passes through unchanged
            // (choice branches never appear in query paths).
            match node.children.first() {
                Some(c) => build_inner(c, grammar, text, db, filter),
                None => Value::Str(String::new()),
            }
        }
        ValueBuilder::Set | ValueBuilder::List => {
            let items: Vec<Value> = node
                .children
                .iter()
                .filter_map(|c| {
                    let name = grammar.name(c.symbol);
                    if filter.keep_all {
                        Some(build_inner(c, grammar, text, db, &PathFilter::all()))
                    } else {
                        filter.child(name).map(|sub| build_inner(c, grammar, text, db, sub))
                    }
                })
                .collect();
            if matches!(rule.builder, ValueBuilder::Set) {
                Value::set(items)
            } else {
                Value::List(items)
            }
        }
        ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_) => {
            let mut fields = Fields::with_capacity(node.children.len());
            for c in &node.children {
                let name = grammar.name(c.symbol);
                if filter.keep_all {
                    let value = build_inner(c, grammar, text, db, &PathFilter::all());
                    fields.insert(db.field_name(name), value);
                } else if let Some(sub) = filter.child(name) {
                    let value = build_inner(c, grammar, text, db, sub);
                    fields.insert(db.field_name(name), value);
                }
            }
            let tuple = Value::Tuple(fields);
            match &rule.builder {
                ValueBuilder::ObjectAuto(class) => Value::Ref(db.new_object(class, tuple)),
                _ => tuple,
            }
        }
    }
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
}
