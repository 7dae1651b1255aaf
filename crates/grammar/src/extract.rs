//! Region extraction: turning what the parser recognizes into a
//! region-index instance.
//!
//! Under **full indexing** (§5) every non-terminal except the grammar root
//! is a region name, instantiated by all its occurrences in the parse tree.
//! Under **partial indexing** (§6) only a chosen subset is. **Selective
//! indexing** (§7: "instead of indexing all the Name regions it is better to
//! index only those that reside in some Authors region") scopes a name to
//! occurrences under a given ancestor; the scoped instance is registered
//! under the name `"Scope.Name"`.

use crate::{Grammar, ParseNode, Sink, SymbolId};
use qof_pat::{Instance, Region, RegionSet};
use qof_text::Span;
use std::collections::BTreeSet;

/// Which regions to index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexSpec {
    all: bool,
    names: BTreeSet<String>,
    scoped: BTreeSet<(String, String)>,
    word_scope: Option<String>,
}

impl IndexSpec {
    /// Index every non-terminal except the root (full indexing, §5).
    pub fn full() -> Self {
        Self { all: true, ..Self::default() }
    }

    /// Index only the given non-terminals (partial indexing, §6).
    pub fn names<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        Self { all: false, names: names.into_iter().map(Into::into).collect(), ..Self::default() }
    }

    /// Additionally index `name`, but only where it occurs inside a `scope`
    /// region (selective indexing, §7). Registered as `"scope.name"`.
    pub fn with_scoped(mut self, scope: &str, name: &str) -> Self {
        self.scoped.insert((scope.to_owned(), name.to_owned()));
        self
    }

    /// Additionally index a plain name.
    pub fn with_name(mut self, name: &str) -> Self {
        self.names.insert(name.to_owned());
        self
    }

    /// Whether a plain (unscoped) name is indexed.
    pub fn covers(&self, name: &str) -> bool {
        self.all || self.names.contains(name)
    }

    /// Whether full indexing was requested.
    pub fn is_full(&self) -> bool {
        self.all
    }

    /// The explicitly requested plain names.
    pub fn plain_names(&self) -> impl Iterator<Item = &str> {
        self.names.iter().map(String::as_str)
    }

    /// The `(scope, name)` selective entries.
    pub fn scoped_names(&self) -> impl Iterator<Item = (&str, &str)> {
        self.scoped.iter().map(|(s, n)| (s.as_str(), n.as_str()))
    }

    /// The instance key used for a scoped entry.
    pub fn scoped_key(scope: &str, name: &str) -> String {
        format!("{scope}.{name}")
    }

    /// Restricts the *word* index to occurrences inside regions of `name`
    /// (§7: "Selective indexing can also be done for words"). Queries whose
    /// word selections fall outside the scoped regions will silently match
    /// nothing — this is the user-chosen space/coverage tradeoff.
    pub fn with_word_scope(mut self, name: &str) -> Self {
        self.word_scope = Some(name.to_owned());
        self
    }

    /// The word-scope region name, if any.
    pub fn word_scope(&self) -> Option<&str> {
        self.word_scope.as_deref()
    }
}

/// The region sink: region extraction as the parser goes. Each indexed
/// node's region lands in its name's bucket when the node is left; a
/// rolled-back attempt takes its regions out again. The grammar root is
/// never indexed (following §4.2). Instances for every requested name are
/// present even when empty, so partial indexes distinguish "indexed but
/// absent" from "not indexed".
#[derive(Debug)]
pub struct RegionSink {
    names: Vec<String>,
    buckets: Vec<Vec<Region>>,
    /// Per symbol: the bucket of its plain entry, if indexed.
    plain: Vec<Option<u32>>,
    /// `(scope, name, bucket)` of every selective entry on grammar symbols.
    scoped: Vec<(SymbolId, SymbolId, u32)>,
    /// The open nodes, outermost first (kept with scoped entries only).
    open: Vec<SymbolId>,
    /// The bucket of each region pushed since the last commit, so a
    /// rollback can pop them.
    log: Vec<u32>,
}

impl RegionSink {
    /// A sink extracting the regions `spec` asks for.
    pub fn new(grammar: &Grammar, spec: &IndexSpec) -> Self {
        let mut names: Vec<String> = if spec.is_full() {
            grammar
                .symbols()
                .filter(|&(id, _)| id != grammar.root())
                .map(|(_, n)| n.to_owned())
                .collect()
        } else {
            spec.plain_names().map(str::to_owned).collect()
        };
        let mut plain = vec![None; grammar.symbol_count()];
        for (i, name) in names.iter().enumerate() {
            match grammar.symbol(name) {
                Some(id) if id != grammar.root() => plain[id.0 as usize] = Some(i as u32),
                _ => {}
            }
        }
        let mut scoped = Vec::new();
        for (scope, name) in spec.scoped_names() {
            let key = IndexSpec::scoped_key(scope, name);
            let bucket = match names.iter().position(|n| *n == key) {
                Some(i) => i as u32,
                None => {
                    names.push(key);
                    (names.len() - 1) as u32
                }
            };
            if let (Some(s), Some(n)) = (grammar.symbol(scope), grammar.symbol(name)) {
                if n != grammar.root() {
                    scoped.push((s, n, bucket));
                }
            }
        }
        Self {
            buckets: vec![Vec::new(); names.len()],
            names,
            plain,
            scoped,
            open: Vec::new(),
            log: Vec::new(),
        }
    }

    fn push(&mut self, bucket: u32, region: Region) {
        self.buckets[bucket as usize].push(region);
        self.log.push(bucket);
    }

    /// The instance of everything extracted.
    pub fn finish(self) -> Instance {
        let mut instance = Instance::new();
        for (name, mut regions) in self.names.into_iter().zip(self.buckets) {
            regions.shrink_to_fit();
            instance.insert(name, RegionSet::from_regions(regions));
        }
        instance
    }
}

impl Sink for RegionSink {
    type Mark = (usize, usize);

    fn enter(&mut self, symbol: SymbolId) {
        if !self.scoped.is_empty() {
            self.open.push(symbol);
        }
    }

    fn leave(&mut self, symbol: SymbolId, span: Span) {
        let region = Region::new(span.start, span.end);
        if let Some(bucket) = self.plain[symbol.0 as usize] {
            self.push(bucket, region);
        }
        if self.scoped.is_empty() {
            return;
        }
        // The node itself is the last open one; only its ancestors scope it.
        self.open.pop();
        for i in 0..self.scoped.len() {
            let (scope, name, bucket) = self.scoped[i];
            if name == symbol && self.open.contains(&scope) {
                self.push(bucket, region);
            }
        }
    }

    fn mark(&self) -> (usize, usize) {
        (self.log.len(), self.open.len())
    }

    fn rollback(&mut self, (log, open): (usize, usize)) {
        for bucket in self.log.drain(log..) {
            self.buckets[bucket as usize].pop();
        }
        self.open.truncate(open);
    }

    fn commit(&mut self) {
        self.log.clear();
    }
}

/// Extracts the region instance of `spec` from a parse tree, by replaying
/// it into a [`RegionSink`].
pub fn extract_regions(tree: &ParseNode, grammar: &Grammar, spec: &IndexSpec) -> Instance {
    let mut sink = RegionSink::new(grammar, spec);
    tree.replay(&mut sink);
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grammar::{lit, nt, TokenPattern, ValueBuilder};
    use crate::Parser;

    fn grammar() -> Grammar {
        Grammar::builder("Set")
            .repeat("Set", "Entry", None, ValueBuilder::Set)
            .seq(
                "Entry",
                [lit("["), nt("Authors"), lit("|"), nt("Editors"), lit("]")],
                ValueBuilder::TupleAuto,
            )
            .repeat("Authors", "AName", Some(","), ValueBuilder::Set)
            .repeat("Editors", "EName", Some(","), ValueBuilder::Set)
            .seq("AName", [nt("Name")], ValueBuilder::Child)
            .seq("EName", [nt("Name")], ValueBuilder::Child)
            .token("Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    fn parse(text: &str, g: &Grammar) -> ParseNode {
        Parser::new(g, text).parse_root(0..text.len() as u32).unwrap()
    }

    #[test]
    fn full_indexing_covers_all_but_root() {
        let g = grammar();
        let text = "[chang,corliss|griewank]";
        let tree = parse(text, &g);
        let inst = extract_regions(&tree, &g, &IndexSpec::full());
        assert!(!inst.has("Set"), "root is never indexed");
        assert_eq!(inst.get("Entry").unwrap().len(), 1);
        assert_eq!(inst.get("Name").unwrap().len(), 3);
        assert_eq!(inst.get("Authors").unwrap().len(), 1);
        assert_eq!(inst.get("Editors").unwrap().len(), 1);
    }

    #[test]
    fn partial_indexing_selects_names() {
        let g = grammar();
        let text = "[chang|corliss][griewank|chang]";
        let tree = parse(text, &g);
        let inst = extract_regions(&tree, &g, &IndexSpec::names(["Entry", "Name"]));
        assert!(inst.has("Entry"));
        assert!(inst.has("Name"));
        assert!(!inst.has("Authors"));
        assert_eq!(inst.get("Entry").unwrap().len(), 2);
        assert_eq!(inst.get("Name").unwrap().len(), 4);
    }

    #[test]
    fn scoped_indexing_restricts_to_ancestor() {
        let g = grammar();
        let text = "[chang,corliss|griewank]";
        let tree = parse(text, &g);
        let spec = IndexSpec::names(["Entry"]).with_scoped("Authors", "Name");
        let inst = extract_regions(&tree, &g, &spec);
        let scoped = inst.get("Authors.Name").unwrap();
        assert_eq!(scoped.len(), 2, "only the two author names are indexed");
        // The editor name griewank is not in the scoped index.
        let text_of = |r: &qof_pat::Region| &text[r.start as usize..r.end as usize];
        let mut names: Vec<&str> = scoped.iter().map(text_of).collect();
        names.sort();
        assert_eq!(names, ["chang", "corliss"]);
    }

    #[test]
    fn requested_names_present_even_when_empty() {
        let g = grammar();
        let tree = parse("", &g);
        let inst = extract_regions(&tree, &g, &IndexSpec::names(["Entry"]));
        assert!(inst.has("Entry"));
        assert_eq!(inst.get("Entry").unwrap().len(), 0);
    }

    #[test]
    fn instance_is_properly_nested() {
        let g = grammar();
        let text = "[chang,corliss|griewank][a|b]";
        let tree = parse(text, &g);
        let inst = extract_regions(&tree, &g, &IndexSpec::full());
        assert!(inst.forest().is_properly_nested());
    }
}
