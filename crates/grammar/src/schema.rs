//! The structuring schema: a grammar annotated with database programs and
//! the views it defines (§4.1). The annotations' value builders are the
//! database schema: they say which classes, tuples and sets a parse builds.

use crate::{Grammar, SymbolId};
use std::collections::BTreeMap;

/// A structuring schema: the complete specification of how a file format
/// maps into a database, plus the named views queries run against
/// (e.g. view `References` over the non-terminal `Reference`).
#[derive(Debug, Clone)]
pub struct StructuringSchema {
    /// The annotated grammar.
    pub grammar: Grammar,
    views: BTreeMap<String, String>,
}

impl StructuringSchema {
    /// Wraps a grammar with no views.
    pub fn new(grammar: Grammar) -> Self {
        Self { grammar, views: BTreeMap::new() }
    }

    /// Registers a view: queries `FROM view_name` range over the instances
    /// of `symbol` (e.g. `References` → `Reference`).
    pub fn with_view(mut self, view_name: &str, symbol: &str) -> Self {
        self.views.insert(view_name.to_owned(), symbol.to_owned());
        self
    }

    /// The non-terminal a view ranges over.
    pub fn view_symbol(&self, view: &str) -> Option<SymbolId> {
        self.views.get(view).and_then(|s| self.grammar.symbol(s))
    }

    /// The non-terminal name a view ranges over.
    pub fn view_symbol_name(&self, view: &str) -> Option<&str> {
        self.views.get(view).map(String::as_str)
    }

    /// Registered view names.
    pub fn views(&self) -> impl Iterator<Item = (&str, &str)> {
        self.views.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::ValueBuilder;
    use crate::TokenPattern;

    #[test]
    fn views_resolve_to_symbols() {
        let g = Grammar::builder("Set")
            .repeat("Set", "Entry", None, ValueBuilder::Set)
            .token("Entry", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let s = StructuringSchema::new(g).with_view("Entries", "Entry");
        assert_eq!(s.view_symbol("Entries"), s.grammar.symbol("Entry"));
        assert_eq!(s.view_symbol_name("Entries"), Some("Entry"));
        assert!(s.view_symbol("Nope").is_none());
        assert_eq!(s.views().count(), 1);
    }
}
