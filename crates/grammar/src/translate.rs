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
//! rule.
//!
//! [`resolve_path`] answers, once per derivation alternative, three
//! questions together: which grammar symbols the path crosses (the region
//! chain the planner projects onto the index, §5.1/§6.1), which
//! [`DbStep`]s evaluate it over a built value (the residual checks and the
//! baseline), and which field names the §6.2 push-down filter keeps.

use std::fmt;

use qof_db::DbStep;

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
    /// A transitive-closure step `A+` — like [`SkOp::Star`], but the target
    /// name is not a value field (it is discriminated by the region index
    /// only; the value side uses the following attribute).
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
    /// The steps that evaluate the path over the view's value.
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
                let db_step = match grammar.rule(source).builder {
                    ValueBuilder::TupleAuto | ValueBuilder::ObjectAuto(_) => {
                        DbStep::Field(a.clone())
                    }
                    ValueBuilder::Set | ValueBuilder::List => DbStep::Elements,
                    ValueBuilder::Atom | ValueBuilder::AtomInt | ValueBuilder::Child => continue,
                };
                let Some(child) =
                    grammar.children_of(source).into_iter().find(|&c| grammar.name(c) == a)
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
        QStep::Star(_) | QStep::Vars(_) => {
            let Some(QStep::Attr(a)) = rest.first() else {
                return Err(PathError::VariableAtEnd);
            };
            let target = grammar.symbol(a).ok_or_else(|| PathError::UnknownSymbol(a.clone()))?;
            let mut next = acc;
            next.names.push(a.clone());
            next.steps.push(match step {
                QStep::Vars(n) => DbStep::Exactly(*n),
                _ => DbStep::AnyPath,
            });
            next.steps.push(DbStep::Field(a.clone()));
            next.ops.push(match step {
                QStep::Vars(n) => SkOp::Exact(*n),
                _ => SkOp::Star,
            });
            walk(grammar, target, &rest[1..], next, out)
        }
        QStep::Plus(a) => {
            // `A+`: a closure hop to the symbol itself; the remaining steps
            // continue from it. Region-wise this is plain inclusion — the
            // nested repetitions of A collapse into one ⊃ (§5.3's
            // transitive-closure claim). Value-wise it is any path: the
            // next step's field access discriminates within it.
            let target = grammar.symbol(a).ok_or_else(|| PathError::UnknownSymbol(a.clone()))?;
            let mut next = acc;
            next.names.push(a.clone());
            next.ops.push(SkOp::Closure);
            next.steps.push(DbStep::AnyPath);
            walk(grammar, target, rest, next, out)
        }
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
        assert_eq!(alt.steps, [DbStep::AnyPath, field("Last_Name")]);
    }

    #[test]
    fn vars_path_produces_exact_op() {
        let g = bib_grammar();
        let spec =
            resolve_path(&g, "Reference", &[QStep::Vars(2), QStep::Attr("Last_Name".into())])
                .unwrap();
        assert_eq!(spec.alternatives[0].ops, [SkOp::Exact(2)]);
        assert_eq!(spec.alternatives[0].steps, [DbStep::Exactly(2), field("Last_Name")]);
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
        assert_eq!(alt.steps, [field("Authors"), DbStep::AnyPath, field("Last_Name")]);
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
