//! The grammar model: symbols, rules, token patterns and value-builder
//! annotations.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Interned identifier of a grammar symbol (non-terminal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymbolId(pub u32);

/// A term on the right-hand side of a sequence rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Term {
    /// A non-terminal occurrence.
    NonTerm(SymbolId),
    /// A literal string that must appear in the file.
    Lit(String),
}

/// Lexical patterns for token rules (terminals).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenPattern {
    /// A single word: `[A-Za-z0-9][A-Za-z0-9_'-]*`.
    Word,
    /// A run of ASCII digits.
    Number,
    /// One or more dotted initials: `G. F.` (uppercase letter + `.`,
    /// space-separated).
    Initials,
    /// Greedy run of characters until (excluding) any of the given stop
    /// characters; trailing whitespace is trimmed out of the token span.
    Until(String),
    /// The rest of the current line (excluding the newline).
    Line,
}

/// How a parse node maps into a database value — the `$$ := …` annotation.
///
/// *Natural* structuring schemas (§4.2) name tuple fields after the child
/// non-terminals, which is what the `TupleAuto`/`ObjectAuto` builders do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValueBuilder {
    /// `$$ := ∪ $i` — the set of the children's values.
    Set,
    /// An ordered list of the children's values.
    List,
    /// `$$ := tuple(B1: $1, …, Bn: $n)` with fields named by child symbols.
    TupleAuto,
    /// `$$ := new(Class, tuple(…))` — creates an object and yields a
    /// reference to it. The class name is shared by every object built.
    ObjectAuto(Arc<str>),
    /// `$$ := $1` for a single-child rule (wrappers, choice branches).
    Child,
    /// The token text as a string atom.
    Atom,
    /// The token text parsed as an integer atom.
    AtomInt,
}

/// A rule body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuleBody {
    /// `A → t1 t2 … tn` (literals interleaved with non-terminals).
    Seq(Vec<Term>),
    /// `A → B*`, optionally separated by a literal (e.g. `" and "`) and
    /// optionally bracketed by opening/closing literals. Brackets make the
    /// repetition's region carry its own delimiters — as the paper's Authors
    /// regions do ("starting with AUTHOR= and ending with a comma") — so a
    /// one-element repetition never shares extents with its element.
    Repeat {
        /// The repeated non-terminal.
        item: SymbolId,
        /// Separator literal between items.
        sep: Option<String>,
        /// Opening literal before the first item.
        open: Option<String>,
        /// Closing literal after the last item.
        close: Option<String>,
    },
    /// `A → B1 | B2 | …`.
    Choice(Vec<SymbolId>),
    /// A terminal token.
    Token(TokenPattern),
}

/// A grammar rule: body plus value annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The rule body.
    pub body: RuleBody,
    /// The `$$ := …` annotation.
    pub builder: ValueBuilder,
}

/// Errors detected when assembling a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// A referenced non-terminal has no rule.
    MissingRule(String),
    /// Two rules were given for the same non-terminal.
    DuplicateRule(String),
    /// A non-terminal occurs twice on one right-hand side (footnote 4:
    /// natural schemas require at most one occurrence).
    RepeatedNonTerminal {
        /// The rule whose right-hand side repeats a non-terminal.
        rule: String,
        /// The repeated non-terminal.
        repeated: String,
    },
    /// The root symbol has no rule.
    MissingRoot(String),
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::MissingRule(s) => write!(f, "non-terminal `{s}` has no rule"),
            GrammarError::DuplicateRule(s) => write!(f, "duplicate rule for `{s}`"),
            GrammarError::RepeatedNonTerminal { rule, repeated } => write!(
                f,
                "non-terminal `{repeated}` occurs twice in the rule for `{rule}` \
                 (natural schemas require at most one occurrence)"
            ),
            GrammarError::MissingRoot(s) => write!(f, "root symbol `{s}` has no rule"),
        }
    }
}

impl std::error::Error for GrammarError {}

/// A validated grammar.
#[derive(Debug, Clone)]
pub struct Grammar {
    /// Symbol names, interned once: tuple fields share them.
    symbols: Vec<Arc<str>>,
    /// Each symbol's position in name order, so tuple fields sort by
    /// integer instead of by string.
    name_ranks: Vec<u32>,
    by_name: HashMap<String, SymbolId>,
    rules: Vec<Rule>,
    root: SymbolId,
    skip_ws: bool,
}

impl Grammar {
    /// Starts building a grammar with the given root symbol.
    pub fn builder(root: &str) -> GrammarBuilder {
        GrammarBuilder::new(root)
    }

    /// The root symbol.
    pub fn root(&self) -> SymbolId {
        self.root
    }

    /// Whether the parser skips ASCII whitespace between terms.
    pub fn skips_whitespace(&self) -> bool {
        self.skip_ws
    }

    /// The name of a symbol.
    pub fn name(&self, id: SymbolId) -> &str {
        &self.symbols[id.0 as usize]
    }

    /// The shared name of a symbol: the field name of the values its
    /// nodes contribute to a tuple.
    pub(crate) fn field_name(&self, id: SymbolId) -> &Arc<str> {
        &self.symbols[id.0 as usize]
    }

    /// The position of a symbol's name among all names in sorted order:
    /// `name_rank(a) < name_rank(b)` iff `name(a) < name(b)`.
    pub(crate) fn name_rank(&self, id: SymbolId) -> u32 {
        self.name_ranks[id.0 as usize]
    }

    /// Looks a symbol up by name.
    pub fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.by_name.get(name).copied()
    }

    /// The rule for a symbol.
    pub fn rule(&self, id: SymbolId) -> &Rule {
        &self.rules[id.0 as usize]
    }

    /// All symbols in insertion order.
    pub fn symbols(&self) -> impl Iterator<Item = (SymbolId, &str)> {
        self.symbols.iter().enumerate().map(|(i, s)| (SymbolId(i as u32), &**s))
    }

    /// Number of symbols.
    pub fn symbol_count(&self) -> usize {
        self.symbols.len()
    }

    /// Whether a region of `parent` can share its extents with one of its
    /// child regions (*extent collapse*): un-delimited one-element
    /// repetitions, choice nodes (always), and literal-free single-child
    /// sequences. Collapsed regions defeat the "strictly between" test of
    /// direct inclusion, which the planner's exactness analysis must respect.
    pub fn can_collapse(&self, parent: SymbolId) -> bool {
        match &self.rule(parent).body {
            RuleBody::Repeat { open, close, .. } => open.is_none() && close.is_none(),
            RuleBody::Choice(_) => true,
            RuleBody::Seq(terms) => {
                let nts = terms.iter().filter(|t| matches!(t, Term::NonTerm(_))).count();
                let has_lit = terms.iter().any(|t| matches!(t, Term::Lit(_)));
                nts == 1 && !has_lit
            }
            RuleBody::Token(_) => false,
        }
    }

    /// The non-terminals directly derivable from `id` — the right-hand-side
    /// symbols of its rule. This is what the RIG derivation of §4.2 reads:
    /// the RIG has an edge `(Ai, Aj)` iff `Aj` appears on the right side of
    /// a rule for `Ai`.
    pub fn children_of(&self, id: SymbolId) -> Vec<SymbolId> {
        match &self.rule(id).body {
            RuleBody::Seq(terms) => terms
                .iter()
                .filter_map(|t| match t {
                    Term::NonTerm(s) => Some(*s),
                    Term::Lit(_) => None,
                })
                .collect(),
            RuleBody::Repeat { item, .. } => vec![*item],
            RuleBody::Choice(alts) => alts.clone(),
            RuleBody::Token(_) => Vec::new(),
        }
    }

    /// The symbols reachable from the root by following rule right-hand
    /// sides. A symbol outside this set can never occur in a derivation, so
    /// its regions never appear in any file — static analysis flags it.
    pub fn reachable_symbols(&self) -> std::collections::BTreeSet<SymbolId> {
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![self.root()];
        while let Some(s) = stack.pop() {
            if seen.insert(s) {
                stack.extend(self.children_of(s));
            }
        }
        seen
    }

    /// The symbols that can match the **empty string**. Zero-width regions
    /// cannot be ordered in the region forest, so nullable non-terminals
    /// break the nesting analysis the optimizer relies on:
    ///
    /// * a `Repeat` with no opening/closing literal is nullable (zero
    ///   items produce nothing);
    /// * a `Seq` is nullable iff it has no literals and every child is;
    /// * a `Choice` is nullable iff some alternative is;
    /// * tokens always consume at least one character.
    pub fn nullable_symbols(&self) -> std::collections::BTreeSet<SymbolId> {
        let mut nullable = std::collections::BTreeSet::new();
        // Fixpoint: nullability only ever grows, the lattice is finite.
        loop {
            let mut changed = false;
            for (id, _) in self.symbols() {
                if nullable.contains(&id) {
                    continue;
                }
                let is_null = match &self.rule(id).body {
                    RuleBody::Repeat { open, close, .. } => open.is_none() && close.is_none(),
                    RuleBody::Seq(terms) => terms.iter().all(|t| match t {
                        Term::Lit(_) => false,
                        Term::NonTerm(s) => nullable.contains(s),
                    }),
                    RuleBody::Choice(alts) => alts.iter().any(|s| nullable.contains(s)),
                    RuleBody::Token(_) => false,
                };
                if is_null {
                    nullable.insert(id);
                    changed = true;
                }
            }
            if !changed {
                return nullable;
            }
        }
    }
}

/// Builder accumulating rules by name; `build()` interns and validates.
pub struct GrammarBuilder {
    root: String,
    rules: Vec<(String, RuleBodySpec, ValueBuilder)>,
    skip_ws: bool,
}

/// Rule bodies with symbolic (string) non-terminal references.
enum RuleBodySpec {
    Seq(Vec<TermSpec>),
    Repeat { item: String, sep: Option<String>, open: Option<String>, close: Option<String> },
    Choice(Vec<String>),
    Token(TokenPattern),
}

enum TermSpec {
    NonTerm(String),
    Lit(String),
}

/// A non-terminal reference for [`GrammarBuilder::seq`].
pub fn nt(name: &str) -> SeqTerm {
    SeqTerm(TermSpec::NonTerm(name.to_owned()))
}

/// A literal for [`GrammarBuilder::seq`].
pub fn lit(text: &str) -> SeqTerm {
    SeqTerm(TermSpec::Lit(text.to_owned()))
}

/// Opaque sequence term used by the builder API.
pub struct SeqTerm(TermSpec);

impl GrammarBuilder {
    fn new(root: &str) -> Self {
        Self { root: root.to_owned(), rules: Vec::new(), skip_ws: true }
    }

    /// Disables whitespace skipping between terms.
    pub fn exact_whitespace(mut self) -> Self {
        self.skip_ws = false;
        self
    }

    /// `head → terms…` with the given annotation.
    pub fn seq(
        mut self,
        head: &str,
        terms: impl IntoIterator<Item = SeqTerm>,
        builder: ValueBuilder,
    ) -> Self {
        self.rules.push((
            head.to_owned(),
            RuleBodySpec::Seq(terms.into_iter().map(|t| t.0).collect()),
            builder,
        ));
        self
    }

    /// `head → item*` (optionally `sep`-separated) with the annotation.
    pub fn repeat(self, head: &str, item: &str, sep: Option<&str>, builder: ValueBuilder) -> Self {
        self.repeat_delimited(head, item, sep, None, None, builder)
    }

    /// `head → open item* close`: a repetition carrying its own delimiter
    /// literals, so its region strictly contains its elements.
    pub fn repeat_delimited(
        mut self,
        head: &str,
        item: &str,
        sep: Option<&str>,
        open: Option<&str>,
        close: Option<&str>,
        builder: ValueBuilder,
    ) -> Self {
        self.rules.push((
            head.to_owned(),
            RuleBodySpec::Repeat {
                item: item.to_owned(),
                sep: sep.map(str::to_owned),
                open: open.map(str::to_owned),
                close: close.map(str::to_owned),
            },
            builder,
        ));
        self
    }

    /// `head → alt1 | alt2 | …` with the annotation (normally `Child`).
    pub fn choice(mut self, head: &str, alts: &[&str], builder: ValueBuilder) -> Self {
        self.rules.push((
            head.to_owned(),
            RuleBodySpec::Choice(alts.iter().map(|s| (*s).to_owned()).collect()),
            builder,
        ));
        self
    }

    /// `head → token` with the annotation (normally `Atom`).
    pub fn token(mut self, head: &str, pattern: TokenPattern, builder: ValueBuilder) -> Self {
        self.rules.push((head.to_owned(), RuleBodySpec::Token(pattern), builder));
        self
    }

    /// Interns symbols and validates the grammar.
    pub fn build(self) -> Result<Grammar, GrammarError> {
        let mut symbols: Vec<String> = Vec::new();
        let mut by_name: HashMap<String, SymbolId> = HashMap::new();
        let mut intern = |name: &str, symbols: &mut Vec<String>| -> SymbolId {
            if let Some(&id) = by_name.get(name) {
                return id;
            }
            let id = SymbolId(symbols.len() as u32);
            symbols.push(name.to_owned());
            by_name.insert(name.to_owned(), id);
            id
        };

        // Intern heads first (stable ids), detecting duplicates.
        let mut seen = std::collections::HashSet::new();
        for (head, _, _) in &self.rules {
            if !seen.insert(head.clone()) {
                return Err(GrammarError::DuplicateRule(head.clone()));
            }
            intern(head, &mut symbols);
        }
        if !seen.contains(&self.root) {
            return Err(GrammarError::MissingRoot(self.root));
        }

        let mut rules: Vec<Option<Rule>> = vec![None; self.rules.len()];
        for (head, spec, builder) in self.rules {
            let head_id = intern(&head, &mut symbols);
            let body = match spec {
                RuleBodySpec::Seq(terms) => {
                    let mut used = std::collections::HashSet::new();
                    let mut out = Vec::with_capacity(terms.len());
                    for t in terms {
                        out.push(match t {
                            TermSpec::NonTerm(n) => {
                                if !used.insert(n.clone()) {
                                    return Err(GrammarError::RepeatedNonTerminal {
                                        rule: head.clone(),
                                        repeated: n,
                                    });
                                }
                                Term::NonTerm(intern(&n, &mut symbols))
                            }
                            TermSpec::Lit(s) => Term::Lit(s),
                        });
                    }
                    RuleBody::Seq(out)
                }
                RuleBodySpec::Repeat { item, sep, open, close } => {
                    RuleBody::Repeat { item: intern(&item, &mut symbols), sep, open, close }
                }
                RuleBodySpec::Choice(alts) => {
                    RuleBody::Choice(alts.iter().map(|a| intern(a, &mut symbols)).collect())
                }
                RuleBodySpec::Token(p) => RuleBody::Token(p),
            };
            rules[head_id.0 as usize] = Some(Rule { body, builder });
        }

        // Every referenced symbol must have a rule.
        if rules.len() < symbols.len() {
            let missing = symbols[rules.len()].clone();
            return Err(GrammarError::MissingRule(missing));
        }
        let rules: Vec<Rule> = rules.into_iter().map(Option::unwrap).collect();
        let root = by_name[&self.root];
        let mut order: Vec<usize> = (0..symbols.len()).collect();
        order.sort_by(|&a, &b| symbols[a].cmp(&symbols[b]));
        let mut name_ranks = vec![0; symbols.len()];
        for (rank, &i) in order.iter().enumerate() {
            name_ranks[i] = rank as u32;
        }
        let symbols = symbols.into_iter().map(Arc::from).collect();
        Ok(Grammar { symbols, name_ranks, by_name, rules, root, skip_ws: self.skip_ws })
    }
}

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (id, name) in self.symbols() {
            let rule = self.rule(id);
            write!(f, "<{name}> ::= ")?;
            match &rule.body {
                RuleBody::Seq(terms) => {
                    for (i, t) in terms.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        match t {
                            Term::NonTerm(s) => write!(f, "<{}>", self.name(*s))?,
                            Term::Lit(l) => write!(f, "{l:?}")?,
                        }
                    }
                }
                RuleBody::Repeat { item, sep, open, close } => {
                    if let Some(o) = open {
                        write!(f, "{o:?} ")?;
                    }
                    write!(f, "<{}>*", self.name(*item))?;
                    if let Some(s) = sep {
                        write!(f, " sep {s:?}")?;
                    }
                    if let Some(c) = close {
                        write!(f, " {c:?}")?;
                    }
                }
                RuleBody::Choice(alts) => {
                    for (i, a) in alts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        write!(f, "<{}>", self.name(*a))?;
                    }
                }
                RuleBody::Token(p) => write!(f, "token({p:?})")?,
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Grammar {
        Grammar::builder("S")
            .repeat("S", "Item", None, ValueBuilder::Set)
            .seq("Item", [lit("("), nt("Word"), lit(")")], ValueBuilder::TupleAuto)
            .token("Word", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    #[test]
    fn builds_and_interns() {
        let g = tiny();
        assert_eq!(g.symbol_count(), 3);
        let s = g.symbol("S").unwrap();
        assert_eq!(g.root(), s);
        assert_eq!(g.name(s), "S");
        let item = g.symbol("Item").unwrap();
        assert_eq!(g.children_of(s), vec![item]);
        assert_eq!(g.children_of(item), vec![g.symbol("Word").unwrap()]);
    }

    #[test]
    fn name_ranks_follow_name_order() {
        let g = tiny();
        let mut by_rank: Vec<(u32, &str)> =
            g.symbols().map(|(id, n)| (g.name_rank(id), n)).collect();
        by_rank.sort_unstable();
        assert_eq!(by_rank.iter().map(|(_, n)| *n).collect::<Vec<_>>(), ["Item", "S", "Word"]);
        let item = g.symbol("Item").unwrap();
        assert!(std::ptr::eq(&**g.field_name(item), &**g.field_name(item)));
        assert_eq!(&**g.field_name(item), "Item");
    }

    #[test]
    fn missing_rule_detected() {
        let e =
            Grammar::builder("S").seq("S", [nt("Ghost")], ValueBuilder::Child).build().unwrap_err();
        assert_eq!(e, GrammarError::MissingRule("Ghost".into()));
    }

    #[test]
    fn duplicate_rule_detected() {
        let e = Grammar::builder("S")
            .token("S", TokenPattern::Word, ValueBuilder::Atom)
            .token("S", TokenPattern::Number, ValueBuilder::Atom)
            .build()
            .unwrap_err();
        assert_eq!(e, GrammarError::DuplicateRule("S".into()));
    }

    #[test]
    fn repeated_nonterminal_rejected() {
        let e = Grammar::builder("S")
            .seq("S", [nt("A"), nt("A")], ValueBuilder::TupleAuto)
            .token("A", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap_err();
        assert!(matches!(e, GrammarError::RepeatedNonTerminal { .. }));
    }

    #[test]
    fn missing_root_detected() {
        let e = Grammar::builder("Root")
            .token("A", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap_err();
        assert_eq!(e, GrammarError::MissingRoot("Root".into()));
    }

    #[test]
    fn display_lists_rules() {
        let g = tiny();
        let text = g.to_string();
        assert!(text.contains("<S> ::= <Item>*"));
        assert!(text.contains("<Item> ::= \"(\" <Word> \")\""));
    }

    #[test]
    fn choice_children() {
        let g = Grammar::builder("S")
            .choice("S", &["A", "B"], ValueBuilder::Child)
            .token("A", TokenPattern::Word, ValueBuilder::Atom)
            .token("B", TokenPattern::Number, ValueBuilder::AtomInt)
            .build()
            .unwrap();
        assert_eq!(g.children_of(g.root()).len(), 2);
    }
}
