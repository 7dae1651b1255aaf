//! What a view path names (§4.1, §5.1): the one resolver every reader of
//! a query path goes through.
//!
//! A path such as `r.Authors.Name.Last_Name` is a walk over the database
//! view the annotations build, so each step names what the *value* of the
//! node before it holds: a field of a `TupleAuto`/`ObjectAuto` value, the
//! items of a `Set`/`List` value. A `Child` node has no value of its own
//! (its value is its child's), so it has no field either: the steps below
//! it resolve from each choice branch, or from a sequence's first
//! non-terminal, and a path ending on it continues to the node its value
//! comes from. [`ValueSink`](crate::ValueSink) builds values by the same
//! rule. A variable step (`*X.A`, `X1..Xn.A`, `A+`) names the `A` nodes
//! its region hop reaches, and evaluates as one `DbStep::Reach` whose
//! move table follows these rules from node to node.
//!
//! [`resolve_path`] answers, once per derivation alternative, three
//! questions together: which grammar symbols the path crosses (the region
//! chain the planner projects onto the index, §5.1/§6.1), which
//! [`DbStep`]s evaluate it over a built value (the residual checks and the
//! baseline), and which field names the §6.2 push-down filter keeps.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use qof_db::{DbStep, MoveState, Moves};

use crate::{Grammar, RuleBody, SymbolId, ValueBuilder};

/// One step of a query path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum QStep {
    /// A named attribute.
    Attr(String),
    /// `*X`: any attribute path (including the empty one).
    Star(String),
    /// A run of `n` single-attribute variables (`X1.…​.Xn`).
    Vars(u32),
    /// `A+`: a transitive-closure step — the path passes through at least
    /// one `A`, at any depth (the §5.3 path *regular* expressions: "it is
    /// possible to evaluate paths with a regular expression involving a
    /// transitive closure, with just an inclusion expression").
    Plus(String),
}

/// How two consecutive skeleton names relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkOp {
    /// Parent/child in the grammar — a RIG edge (translates to `⊃d`).
    Adjacent,
    /// A `*X` variable — any derivation path (translates to `⊃`).
    Star,
    /// A transitive-closure step `A+`: like [`SkOp::Star`], to the `A`
    /// nodes themselves.
    Closure,
    /// A run of `n` single-step variables — exactly `n` regions in between.
    Exact(u32),
}

/// One derivation alternative of a query path, resolved three ways.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Skeleton {
    /// The region chain: symbol names from the view symbol (`names[0]`) to
    /// the node the path's value comes from, `Child` nodes included.
    pub names: Vec<String>,
    /// Relations; `ops[i]` connects `names[i]` and `names[i+1]`.
    pub ops: Vec<SkOp>,
    /// The steps that evaluate the path over the view's value: a variable
    /// step is one [`DbStep::Reach`] to the nodes its region hop reaches.
    pub steps: Vec<DbStep>,
    /// The push-down filter path: the names the value sink looks fields
    /// and items up by, up to the first `*X`/`X1..Xn`/`A+` connector.
    pub fields: Vec<String>,
}

impl Skeleton {
    /// Crosses `chain`'s value-transparent nodes as unnamed `⊃d` hops.
    fn cross(&mut self, grammar: &Grammar, chain: &[SymbolId]) {
        for &s in chain {
            self.names.push(grammar.name(s).to_owned());
            self.ops.push(SkOp::Adjacent);
        }
    }

    /// Whether no connector precedes the next step: its name still goes
    /// into the push-down filter.
    fn fixed(&self) -> bool {
        self.ops.iter().all(|op| *op == SkOp::Adjacent)
    }
}

/// The resolved alternatives of one query path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathSpec {
    /// All derivation alternatives (several when choice rules fork).
    pub alternatives: Vec<Skeleton>,
}

impl PathSpec {
    /// The push-down filter paths, one per alternative.
    pub fn field_paths(&self) -> impl Iterator<Item = Vec<String>> + '_ {
        self.alternatives.iter().map(|alt| alt.fields.clone())
    }

    /// Whether the path's region text is its value: every alternative ends
    /// on an `Atom` symbol. Sets, tuples and integers are built by parsing,
    /// so two such regions of one text can hold different values (a set of
    /// one tuple spans the same text as that tuple).
    pub fn text_is_value(&self, grammar: &Grammar) -> bool {
        self.alternatives.iter().all(|alt| {
            let last = alt.names.last().and_then(|n| grammar.symbol(n));
            last.is_some_and(|s| grammar.rule(s).builder == ValueBuilder::Atom)
        })
    }
}

/// Why a path does not resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The value under this symbol has no such field or item.
    NoSuchAttribute {
        /// The attribute that failed to resolve.
        attribute: String,
        /// The symbol it was looked up under.
        under: String,
    },
    /// A `*X`/`X1..Xn` variable must be followed by an attribute.
    VariableAtEnd,
    /// The referenced symbol does not exist in the grammar.
    UnknownSymbol(String),
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::NoSuchAttribute { attribute, under } => {
                write!(f, "attribute `{attribute}` does not exist under `{under}`")
            }
            PathError::VariableAtEnd => {
                write!(f, "a path variable must be followed by an attribute")
            }
            PathError::UnknownSymbol(s) => write!(f, "unknown symbol `{s}`"),
        }
    }
}

impl std::error::Error for PathError {}

/// Resolves a query path (the steps after the range variable) against the
/// grammar, starting at the view symbol.
pub fn resolve_path(
    grammar: &Grammar,
    view_symbol: &str,
    steps: &[QStep],
) -> Result<PathSpec, PathError> {
    let start = grammar
        .symbol(view_symbol)
        .ok_or_else(|| PathError::UnknownSymbol(view_symbol.to_owned()))?;
    let mut alternatives = Vec::new();
    let seed = Skeleton {
        names: vec![view_symbol.to_owned()],
        ops: Vec::new(),
        steps: Vec::new(),
        fields: Vec::new(),
    };
    walk(grammar, start, steps, seed, &mut alternatives)?;
    Ok(PathSpec { alternatives })
}

fn walk(
    grammar: &Grammar,
    sym: SymbolId,
    steps: &[QStep],
    acc: Skeleton,
    out: &mut Vec<Skeleton>,
) -> Result<(), PathError> {
    let Some((step, rest)) = steps.split_first() else {
        // The path's value is that of the node it comes from.
        for chain in value_sources(grammar, sym) {
            let mut alt = acc.clone();
            alt.cross(grammar, &chain);
            out.push(alt);
        }
        return Ok(());
    };
    match step {
        QStep::Attr(a) => {
            let mut found = false;
            for chain in value_sources(grammar, sym) {
                let source = chain.last().copied().unwrap_or(sym);
                let child = grammar.children_of(source).into_iter().find(|&c| grammar.name(c) == a);
                let Some((child, db_step)) =
                    child.and_then(|c| Some((c, step_to(grammar, source, c)?)))
                else {
                    continue;
                };
                let mut next = acc.clone();
                next.cross(grammar, &chain);
                if next.fixed() {
                    next.fields.push(a.clone());
                }
                next.names.push(a.clone());
                next.ops.push(SkOp::Adjacent);
                next.steps.push(db_step);
                walk(grammar, child, rest, next, out)?;
                found = true;
            }
            if found {
                Ok(())
            } else {
                Err(PathError::NoSuchAttribute {
                    attribute: a.clone(),
                    under: grammar.name(sym).to_owned(),
                })
            }
        }
        QStep::Star(_) | QStep::Vars(_) | QStep::Plus(_) => {
            // `A+` names its target itself; `*X` and `X1..Xn` take the
            // next attribute as theirs.
            let (a, rest, op) = match (step, rest.split_first()) {
                (QStep::Plus(a), _) => (a, rest, SkOp::Closure),
                (QStep::Vars(n), Some((QStep::Attr(a), rest))) => (a, rest, SkOp::Exact(*n)),
                (_, Some((QStep::Attr(a), rest))) => (a, rest, SkOp::Star),
                _ => return Err(PathError::VariableAtEnd),
            };
            let target = grammar.symbol(a).ok_or_else(|| PathError::UnknownSymbol(a.clone()))?;
            let depth = if let SkOp::Exact(n) = op { Some(n + 1) } else { None };
            let mut next = acc;
            next.names.push(a.clone());
            next.ops.push(op);
            next.steps.push(DbStep::Reach(Arc::new(reach(grammar, sym, target, depth)?)));
            walk(grammar, target, rest, next, out)
        }
    }
}

/// The move table of a variable step from a `start` node to the nodes
/// named `target` below it: at any depth, `start` itself included (`⊃`
/// is not strict), or, with `depth`, exactly that many regions down (`⊃^n`
/// with `n + 1`). A state is a symbol, paired with the regions crossed for
/// an exact depth, and its moves are the `Field`/`Elements` steps a fixed
/// `Attr` step takes from it, so a `Child` node counts as a region but is
/// no value hop. States that accept nothing are pruned.
///
/// A choice branch has its `Child` node's value, and a value does not
/// record which branch built it, so a target that is a branch is a
/// [`PathError::NoSuchAttribute`], as in a fixed path.
fn reach(
    grammar: &Grammar,
    start: SymbolId,
    target: SymbolId,
    depth: Option<u32>,
) -> Result<Moves, PathError> {
    let mut keys = vec![(start, 0)];
    let mut numbers = HashMap::from([((start, 0), 0)]);
    let mut states: Vec<MoveState> = Vec::new();
    while let Some(&(sym, d)) = keys.get(states.len()) {
        let at = |crossed: usize| depth.is_none_or(|n| d + crossed as u32 == n);
        let mut state = MoveState { accept: sym == target && at(0), moves: Vec::new() };
        let sources = value_sources(grammar, sym);
        for chain in &sources {
            if chain.iter().enumerate().any(|(j, &c)| c == target && at(j + 1)) {
                if sources.len() > 1 {
                    return Err(PathError::NoSuchAttribute {
                        attribute: grammar.name(target).to_owned(),
                        under: grammar.name(sym).to_owned(),
                    });
                }
                state.accept = true;
            }
            let source = chain.last().copied().unwrap_or(sym);
            let below = d + chain.len() as u32 + 1;
            if depth.is_some_and(|n| below > n) {
                continue;
            }
            for child in grammar.children_of(source) {
                let Some(hop) = step_to(grammar, source, child) else { break };
                let key = (child, if depth.is_some() { below } else { 0 });
                let to = *numbers.entry(key).or_insert_with(|| {
                    keys.push(key);
                    keys.len() - 1
                });
                if !state.moves.contains(&(hop.clone(), to)) {
                    state.moves.push((hop, to));
                }
            }
        }
        states.push(state);
    }
    // Keep the states that reach an accepting one, and renumber them.
    // Every state is reached from state 0, so none is kept when it is not.
    let mut into = vec![Vec::new(); states.len()];
    for (i, state) in states.iter().enumerate() {
        state.moves.iter().for_each(|(_, to)| into[*to].push(i));
    }
    let mut live: Vec<bool> = states.iter().map(|s| s.accept).collect();
    let mut todo: Vec<usize> = (0..states.len()).filter(|&i| live[i]).collect();
    while let Some(i) = todo.pop() {
        for &j in &into[i] {
            if !std::mem::replace(&mut live[j], true) {
                todo.push(j);
            }
        }
    }
    let kept: Vec<usize> = (0..states.len()).filter(|&i| live[i]).collect();
    let renumber = |(hop, to): &(DbStep, usize)| Some((hop.clone(), kept.binary_search(to).ok()?));
    let states = kept.iter().map(|&i| MoveState {
        accept: states[i].accept,
        moves: states[i].moves.iter().filter_map(renumber).collect(),
    });
    Ok(Moves { states: states.collect() })
}

/// The step from a value `source` builds to its `child`'s: a field of a
/// tuple, the items of a set or list; none from an atom.
fn step_to(grammar: &Grammar, source: SymbolId, child: SymbolId) -> Option<DbStep> {
    match grammar.rule(source).builder {
        ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_) => {
            Some(DbStep::Field(grammar.name(child).to_owned()))
        }
        ValueBuilder::Set | ValueBuilder::List => Some(DbStep::Elements),
        ValueBuilder::Atom | ValueBuilder::AtomInt | ValueBuilder::Child => None,
    }
}

/// The chains of `Child` nodes below `sym` down to the nodes `sym`'s value
/// comes from: one empty chain when `sym` has a value of its own, one
/// chain per choice branch, and the first non-terminal of a sequence.
fn value_sources(grammar: &Grammar, sym: SymbolId) -> Vec<Vec<SymbolId>> {
    fn descend(
        grammar: &Grammar,
        root: SymbolId,
        sym: SymbolId,
        chain: &mut Vec<SymbolId>,
        out: &mut Vec<Vec<SymbolId>>,
    ) {
        let rule = grammar.rule(sym);
        let mut from = Vec::new();
        if rule.builder == ValueBuilder::Child {
            from = grammar.children_of(sym);
            if !matches!(rule.body, RuleBody::Choice(_)) {
                from.truncate(1);
            }
        }
        if from.is_empty() {
            out.push(chain.clone());
        }
        for s in from {
            // A cycle of `Child` nodes builds no value.
            if s == root || chain.contains(&s) {
                continue;
            }
            chain.push(s);
            descend(grammar, root, s, chain, out);
            chain.pop();
        }
    }
    let mut out = Vec::new();
    descend(grammar, sym, sym, &mut Vec::new(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lit, nt, TokenPattern};

    fn bib_grammar() -> Grammar {
        Grammar::builder("Ref_Set")
            .repeat("Ref_Set", "Reference", None, ValueBuilder::Set)
            .seq(
                "Reference",
                [lit("{"), nt("Key"), nt("Authors"), nt("Editors"), lit("}")],
                ValueBuilder::ObjectAuto("Reference".into()),
            )
            .token("Key", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Authors", "Name", Some(","), ValueBuilder::Set)
            .repeat("Editors", "Name", Some(","), ValueBuilder::Set)
            .seq("Name", [nt("First_Name"), nt("Last_Name")], ValueBuilder::TupleAuto)
            .token("First_Name", TokenPattern::Initials, ValueBuilder::Atom)
            .token("Last_Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    /// `Stmt → Call | If` and `Para → <p> Text </p>`, both `Child`.
    fn child_grammar() -> Grammar {
        Grammar::builder("Body")
            .repeat("Body", "Stmt", None, ValueBuilder::Set)
            .choice("Stmt", &["Call", "If", "Para"], ValueBuilder::Child)
            .seq("Call", [lit("call"), nt("Callee")], ValueBuilder::TupleAuto)
            .token("Callee", TokenPattern::Word, ValueBuilder::Atom)
            .seq("If", [lit("if"), lit("{"), nt("Nested"), lit("}")], ValueBuilder::TupleAuto)
            .repeat("Nested", "Stmt", None, ValueBuilder::Set)
            .seq("Para", [lit("<p>"), nt("Text"), lit("</p>")], ValueBuilder::Child)
            .token("Text", TokenPattern::Until("<".into()), ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    fn attrs(v: &[&str]) -> Vec<QStep> {
        v.iter().map(|s| QStep::Attr(s.to_string())).collect()
    }

    fn field(name: &str) -> DbStep {
        DbStep::Field(name.into())
    }

    #[test]
    fn simple_path_resolves_to_single_skeleton() {
        let g = bib_grammar();
        let spec =
            resolve_path(&g, "Reference", &attrs(&["Authors", "Name", "Last_Name"])).unwrap();
        assert_eq!(spec.alternatives.len(), 1);
        let alt = &spec.alternatives[0];
        assert_eq!(alt.names, ["Reference", "Authors", "Name", "Last_Name"]);
        assert!(alt.ops.iter().all(|o| *o == SkOp::Adjacent));
        assert_eq!(alt.steps, [field("Authors"), DbStep::Elements, field("Last_Name")]);
    }

    /// The table of a path's one variable step.
    fn table(spec: &PathSpec) -> &Moves {
        match spec.alternatives[0].steps.iter().find(|s| matches!(s, DbStep::Reach(_))) {
            Some(DbStep::Reach(moves)) => moves,
            _ => panic!("no variable step in {spec:?}"),
        }
    }

    /// The accepted routes of a table, spelled as steps, up to `len` hops.
    fn routes(moves: &Moves, len: usize) -> Vec<String> {
        fn go(moves: &Moves, at: usize, len: usize, path: &mut Vec<String>, out: &mut Vec<String>) {
            if moves.states[at].accept {
                out.push(path.join("."));
            }
            if path.len() == len {
                return;
            }
            for (step, to) in &moves.states[at].moves {
                path.push(match step {
                    DbStep::Field(name) => name.clone(),
                    _ => "[]".to_owned(),
                });
                go(moves, *to, len, path, out);
                path.pop();
            }
        }
        let mut out = Vec::new();
        if !moves.states.is_empty() {
            go(moves, 0, len, &mut Vec::new(), &mut out);
        }
        out.sort();
        out
    }

    #[test]
    fn star_path_produces_star_op() {
        let g = bib_grammar();
        let spec = resolve_path(
            &g,
            "Reference",
            &[QStep::Star("X".into()), QStep::Attr("Last_Name".into())],
        )
        .unwrap();
        let alt = &spec.alternatives[0];
        assert_eq!(alt.names, ["Reference", "Last_Name"]);
        assert_eq!(alt.ops, [SkOp::Star]);
        assert_eq!(alt.steps.len(), 1, "one step for `*X.Last_Name`");
        // Only the routes the grammar nests `Last_Name` by: no `Key`.
        assert_eq!(routes(table(&spec), 9), ["Authors.[].Last_Name", "Editors.[].Last_Name"]);
        assert_eq!(table(&spec).states.len(), 5, "`Authors` and `Editors` lead to one `Name`");
    }

    #[test]
    fn vars_path_produces_exact_op() {
        let g = bib_grammar();
        let vars = |n: u32, a: &str| {
            resolve_path(&g, "Reference", &[QStep::Vars(n), QStep::Attr(a.into())]).unwrap()
        };
        let spec = vars(2, "Last_Name");
        assert_eq!(spec.alternatives[0].ops, [SkOp::Exact(2)]);
        // Two regions in between: the set and the name.
        assert_eq!(routes(table(&spec), 9), ["Authors.[].Last_Name", "Editors.[].Last_Name"]);
        assert_eq!(routes(table(&vars(1, "Name")), 9), ["Authors.[]", "Editors.[]"]);
        assert!(table(&vars(1, "Last_Name")).states.is_empty(), "no `Last_Name` at depth 2");
    }

    #[test]
    fn variable_steps_follow_grammar_routes() {
        // A set item is a target, and `A+` reaches the `A` nodes.
        let g = bib_grammar();
        let name =
            resolve_path(&g, "Reference", &[QStep::Star("X".into()), QStep::Attr("Name".into())]);
        assert_eq!(routes(table(&name.unwrap()), 9), ["Authors.[]", "Editors.[]"]);
        let plus = resolve_path(
            &g,
            "Reference",
            &[QStep::Plus("Editors".into()), QStep::Attr("Name".into())],
        )
        .unwrap();
        assert_eq!(plus.alternatives[0].steps[1..], [DbStep::Elements]);
        assert_eq!(routes(table(&plus), 9), ["Editors"]);
        // A symbol the view does not nest is reached by no route.
        let root = resolve_path(
            &g,
            "Reference",
            &[QStep::Star("X".into()), QStep::Attr("Ref_Set".into())],
        );
        assert!(table(&root.unwrap()).states.is_empty());

        // A `Child` node is a region but no value hop; a grammar cycle is a
        // table cycle; `⊃` is not strict, so `Stmt+` from a `Stmt` starts
        // there; a choice branch is no target.
        let g = child_grammar();
        let star = |from: &str, a: &str| {
            resolve_path(&g, from, &[QStep::Star("X".into()), QStep::Attr(a.into())])
        };
        assert_eq!(
            routes(table(&star("Body", "Callee").unwrap()), 6),
            ["[].Callee", "[].Nested.[].Callee", "[].Nested.[].Nested.[].Callee"]
        );
        assert_eq!(routes(table(&star("Para", "Text").unwrap()), 1), [""]);
        let stmts = resolve_path(&g, "Stmt", &[QStep::Plus("Stmt".into())]).unwrap();
        assert_eq!(routes(table(&stmts), 2), ["", "Nested.[]"]);
        let exact = |n| resolve_path(&g, "Body", &[QStep::Vars(n), QStep::Attr("Callee".into())]);
        assert_eq!(routes(table(&exact(2).unwrap()), 6), ["[].Callee"], "`Stmt` and `Call`");
        assert!(table(&exact(1).unwrap()).states.is_empty());
        for (a, under) in [("Call", "Stmt"), ("If", "Stmt"), ("Text", "Stmt")] {
            assert_eq!(
                star("Body", a).unwrap_err(),
                PathError::NoSuchAttribute { attribute: a.into(), under: under.into() }
            );
        }
    }

    #[test]
    fn a_long_exact_run_resolves_in_linear_time() {
        // Query text sets `n`; a grammar cycle gives a state per level.
        let g = child_grammar();
        let steps = [QStep::Vars(50_000), QStep::Attr("Callee".into())];
        let started = std::time::Instant::now();
        let spec = resolve_path(&g, "Body", &steps).unwrap();
        assert!(!table(&spec).states.is_empty(), "`Callee` lies under 50 000 regions");
        assert!(started.elapsed().as_secs() < 5, "{:?}", started.elapsed());
    }

    #[test]
    fn missing_attribute_errors() {
        let g = bib_grammar();
        let e = resolve_path(&g, "Reference", &attrs(&["Publisher"])).unwrap_err();
        assert_eq!(
            e,
            PathError::NoSuchAttribute { attribute: "Publisher".into(), under: "Reference".into() }
        );
        let e2 = resolve_path(&g, "Reference", &attrs(&["Authors", "Publisher"])).unwrap_err();
        assert!(matches!(e2, PathError::NoSuchAttribute { .. }));
    }

    #[test]
    fn variable_at_end_errors() {
        let g = bib_grammar();
        let e = resolve_path(&g, "Reference", &[QStep::Star("X".into())]).unwrap_err();
        assert_eq!(e, PathError::VariableAtEnd);
    }

    #[test]
    fn choice_rules_fork_alternatives() {
        let g = Grammar::builder("Top")
            .seq("Top", [nt("Entry")], ValueBuilder::TupleAuto)
            .choice("Entry", &["Book", "Article"], ValueBuilder::Child)
            .seq("Book", [lit("b"), nt("Year")], ValueBuilder::TupleAuto)
            .seq("Article", [lit("a"), nt("Year")], ValueBuilder::TupleAuto)
            .token("Year", TokenPattern::Number, ValueBuilder::Atom)
            .build()
            .unwrap();
        let spec = resolve_path(&g, "Entry", &attrs(&["Year"])).unwrap();
        let names: Vec<&[String]> = spec.alternatives.iter().map(|a| &a.names[..]).collect();
        assert_eq!(names, [["Entry", "Book", "Year"], ["Entry", "Article", "Year"]]);
        // The branch is crossed, not named: no step and no filter field.
        for alt in &spec.alternatives {
            assert_eq!(alt.steps, [field("Year")]);
            assert_eq!(alt.fields, ["Year"]);
        }
    }

    #[test]
    fn filter_paths_stop_at_connectors() {
        let g = bib_grammar();
        let full =
            resolve_path(&g, "Reference", &attrs(&["Authors", "Name", "Last_Name"])).unwrap();
        assert_eq!(full.field_paths().collect::<Vec<_>>(), [["Authors", "Name", "Last_Name"]]);
        let star = resolve_path(
            &g,
            "Reference",
            &[QStep::Star("X".into()), QStep::Attr("Last_Name".into())],
        )
        .unwrap();
        assert_eq!(star.field_paths().collect::<Vec<_>>(), [Vec::<String>::new()]);
        let plus = resolve_path(
            &g,
            "Reference",
            &[
                QStep::Attr("Authors".into()),
                QStep::Plus("Name".into()),
                QStep::Attr("Last_Name".into()),
            ],
        )
        .unwrap();
        let alt = &plus.alternatives[0];
        assert_eq!(alt.ops, [SkOp::Adjacent, SkOp::Closure, SkOp::Adjacent]);
        assert_eq!(alt.steps[0], field("Authors"));
        assert_eq!(alt.steps[2..], [field("Last_Name")]);
        assert_eq!(alt.fields, ["Authors"]);
    }

    #[test]
    fn steps_below_a_child_node_resolve_from_its_branches() {
        let g = child_grammar();
        let spec = resolve_path(&g, "Body", &attrs(&["Stmt", "Callee"])).unwrap();
        assert_eq!(spec.alternatives.len(), 1, "only `Call` has a `Callee`");
        let alt = &spec.alternatives[0];
        assert_eq!(alt.names, ["Body", "Stmt", "Call", "Callee"]);
        assert_eq!(alt.ops, [SkOp::Adjacent; 3]);
        assert_eq!(alt.steps, [DbStep::Elements, field("Callee")]);
        assert_eq!(alt.fields, ["Stmt", "Callee"], "the branch is no filter field");

        let nested = resolve_path(&g, "Body", &attrs(&["Stmt", "Nested", "Stmt"])).unwrap();
        assert_eq!(nested.alternatives.len(), 3, "the last `Stmt` continues to every branch");
        for alt in &nested.alternatives {
            assert_eq!(alt.names[..5], ["Body", "Stmt", "If", "Nested", "Stmt"]);
            assert_eq!(alt.steps, [DbStep::Elements, field("Nested"), DbStep::Elements]);
        }
        let ends: Vec<&str> = nested.alternatives.iter().map(|a| a.names[5].as_str()).collect();
        assert_eq!(ends, ["Call", "If", "Para"]);
        assert_eq!(nested.alternatives[2].names.last().map(String::as_str), Some("Text"));
    }

    #[test]
    fn a_path_never_names_a_child_node_s_branch_or_inner_symbol() {
        let g = child_grammar();
        for (path, attribute, under) in [
            (&["Stmt", "Call", "Callee"][..], "Call", "Stmt"),
            (&["Stmt", "If"][..], "If", "Stmt"),
            (&["Stmt", "Text"][..], "Text", "Stmt"),
        ] {
            assert_eq!(
                resolve_path(&g, "Body", &attrs(path)).unwrap_err(),
                PathError::NoSuchAttribute { attribute: attribute.into(), under: under.into() },
                "{path:?}"
            );
        }
        assert!(matches!(
            resolve_path(&g, "Para", &attrs(&["Text"])),
            Err(PathError::NoSuchAttribute { .. })
        ));
    }

    #[test]
    fn self_nested_grammar_paths() {
        let g = Grammar::builder("Doc")
            .seq("Doc", [lit("<d>"), nt("Sections"), lit("</d>")], ValueBuilder::Child)
            .repeat("Sections", "Section", None, ValueBuilder::Set)
            .seq(
                "Section",
                [lit("<s>"), nt("Head"), nt("Subsections"), lit("</s>")],
                ValueBuilder::ObjectAuto("Section".into()),
            )
            .token("Head", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Subsections", "Section", None, ValueBuilder::Set)
            .build()
            .unwrap();
        // Section.Subsections.Section.Head resolves through the cycle.
        let spec =
            resolve_path(&g, "Section", &attrs(&["Subsections", "Section", "Head"])).unwrap();
        assert_eq!(spec.alternatives[0].names, ["Section", "Subsections", "Section", "Head"]);
        // A `Child` root's value is its set: `Doc.Section` names an item.
        let doc = resolve_path(&g, "Doc", &attrs(&["Section", "Head"])).unwrap();
        assert_eq!(doc.alternatives[0].names, ["Doc", "Sections", "Section", "Head"]);
        assert_eq!(doc.alternatives[0].steps, [DbStep::Elements, field("Head")]);
    }
}
