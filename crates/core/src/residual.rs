//! Residual predicates: conditions compiled to database path steps, used to
//! filter parsed candidate objects (§6.2's second phase) and by the
//! standard-database baseline.
//!
//! A compiled path is the [`PathSpec`] that [`resolve_path`] gives it: the
//! steps come from the same answer as the region chain the planner lowers
//! and the push-down filter. Because a query path may resolve to several
//! derivation alternatives, a value matches when any alternative does.

use std::ops::ControlFlow;

use qof_db::{eval_path_counted, walk_path, Database, DbStep, PathCost, Value};
use qof_grammar::{resolve_path, Grammar, PathError, PathSpec};

use crate::{Cond, RightHand};

/// A condition with all paths compiled to database steps.
#[derive(Debug, Clone)]
pub enum CompiledCond {
    /// `var.path = "const"`.
    EqConst {
        /// The range variable the path roots at.
        var: String,
        /// The compiled path alternatives.
        paths: PathSpec,
        /// The constant.
        value: String,
    },
    /// `lvar.path = rvar.path` (same or different variables).
    EqPath {
        /// Left variable.
        lvar: String,
        /// Left path alternatives.
        lpaths: PathSpec,
        /// Right variable.
        rvar: String,
        /// Right path alternatives.
        rpaths: PathSpec,
    },
    /// Conjunction.
    And(Box<CompiledCond>, Box<CompiledCond>),
    /// Disjunction.
    Or(Box<CompiledCond>, Box<CompiledCond>),
    /// Negation.
    Not(Box<CompiledCond>),
}

impl CompiledCond {
    /// The push-down filter paths of every path in the condition.
    pub fn field_paths(&self, out: &mut Vec<Vec<String>>) {
        match self {
            CompiledCond::EqConst { paths, .. } => out.extend(paths.field_paths()),
            CompiledCond::EqPath { lpaths, rpaths, .. } => {
                out.extend(lpaths.field_paths());
                out.extend(rpaths.field_paths());
            }
            CompiledCond::And(a, b) | CompiledCond::Or(a, b) => {
                a.field_paths(out);
                b.field_paths(out);
            }
            CompiledCond::Not(a) => a.field_paths(out),
        }
    }
}

/// Compiles a condition; `view_symbol_of` maps a range variable to the
/// non-terminal its view ranges over.
pub fn compile_cond(
    grammar: &Grammar,
    view_symbol_of: &dyn Fn(&str) -> Option<String>,
    cond: &Cond,
) -> Result<CompiledCond, PathError> {
    let sym =
        |var: &str| view_symbol_of(var).ok_or_else(|| PathError::UnknownSymbol(var.to_owned()));
    Ok(match cond {
        Cond::Eq(p, RightHand::Const(w)) => CompiledCond::EqConst {
            var: p.var.clone(),
            paths: resolve_path(grammar, &sym(&p.var)?, &p.steps)?,
            value: w.clone(),
        },
        Cond::Eq(p, RightHand::Path(q)) => CompiledCond::EqPath {
            lvar: p.var.clone(),
            lpaths: resolve_path(grammar, &sym(&p.var)?, &p.steps)?,
            rvar: q.var.clone(),
            rpaths: resolve_path(grammar, &sym(&q.var)?, &q.steps)?,
        },
        Cond::And(a, b) => CompiledCond::And(
            Box::new(compile_cond(grammar, view_symbol_of, a)?),
            Box::new(compile_cond(grammar, view_symbol_of, b)?),
        ),
        Cond::Or(a, b) => CompiledCond::Or(
            Box::new(compile_cond(grammar, view_symbol_of, a)?),
            Box::new(compile_cond(grammar, view_symbol_of, b)?),
        ),
        Cond::Not(a) => CompiledCond::Not(Box::new(compile_cond(grammar, view_symbol_of, a)?)),
    })
}

/// The steps of a compiled path's alternatives, each once: alternatives
/// that differ only in their region chains evaluate alike.
fn distinct_steps(paths: &PathSpec) -> impl Iterator<Item = &[DbStep]> {
    let alts = &paths.alternatives;
    alts.iter()
        .enumerate()
        .filter(|(i, alt)| alts[..*i].iter().all(|a| a.steps != alt.steps))
        .map(|(_, alt)| alt.steps.as_slice())
}

/// The union of a compiled path's results over its alternatives, sorted
/// and without duplicates. `cost` counts the traversal.
pub fn path_values<'a>(
    db: &'a Database,
    value: &'a Value,
    paths: &PathSpec,
    cost: &mut PathCost,
) -> Vec<&'a Value> {
    let mut out: Vec<&Value> =
        distinct_steps(paths).flat_map(|steps| eval_path_counted(db, value, steps, cost)).collect();
    out.sort_unstable();
    out.dedup_by(|a, b| a == b);
    out
}

/// Whether a value a compiled path reaches from `value` satisfies `hit`;
/// the walk stops at the first that does.
fn reaches<'a>(
    db: &'a Database,
    value: &'a Value,
    paths: &PathSpec,
    cost: &mut PathCost,
    hit: &mut impl FnMut(&'a Value) -> bool,
) -> bool {
    distinct_steps(paths).any(|steps| {
        let mut stop = |v| if hit(v) { ControlFlow::Break(()) } else { ControlFlow::Continue(()) };
        walk_path(db, value, steps, cost, &mut stop).is_break()
    })
}

/// Whether `lpaths` from `lv` and `rpaths` from `rv` reach a common value,
/// found without collecting either side. `cost` counts the traversal.
pub(crate) fn paths_meet(
    db: &Database,
    lv: &Value,
    lpaths: &PathSpec,
    rv: &Value,
    rpaths: &PathSpec,
    cost: &mut PathCost,
) -> bool {
    let mut right = PathCost::default();
    let meet = reaches(db, lv, lpaths, cost, &mut |x| {
        reaches(db, rv, rpaths, &mut right, &mut |y| x == y)
    });
    cost.nodes_visited += right.nodes_visited;
    meet
}

/// Evaluates a compiled condition against a single binding `var = value`.
/// Paths rooted at other variables evaluate to no values.
pub fn eval_single(
    db: &Database,
    var: &str,
    value: &Value,
    cond: &CompiledCond,
    cost: &mut PathCost,
) -> bool {
    eval_pair(db, var, value, "\u{0}", value, cond, cost)
}

/// Evaluates a compiled condition against a pair of bindings. Each `=`
/// stops walking its paths at the first match. `cost` counts the
/// traversal.
pub fn eval_pair(
    db: &Database,
    v1: &str,
    a: &Value,
    v2: &str,
    b: &Value,
    cond: &CompiledCond,
    cost: &mut PathCost,
) -> bool {
    let binding = |var: &str| -> Option<&Value> {
        if var == v1 {
            Some(a)
        } else if var == v2 {
            Some(b)
        } else {
            None
        }
    };
    match cond {
        CompiledCond::EqConst { var, paths, value } => binding(var).is_some_and(|v| {
            let prefix = crate::query::word_prefix(value);
            reaches(db, v, paths, cost, &mut |x| {
                x.as_str().is_some_and(|s| match prefix {
                    Some(p) => s.starts_with(p),
                    None => s == value.as_str(),
                })
            })
        }),
        CompiledCond::EqPath { lvar, lpaths, rvar, rpaths } => {
            let (Some(lv), Some(rv)) = (binding(lvar), binding(rvar)) else {
                return false;
            };
            paths_meet(db, lv, lpaths, rv, rpaths, cost)
        }
        CompiledCond::And(x, y) => {
            eval_pair(db, v1, a, v2, b, x, cost) && eval_pair(db, v1, a, v2, b, y, cost)
        }
        CompiledCond::Or(x, y) => {
            eval_pair(db, v1, a, v2, b, x, cost) || eval_pair(db, v1, a, v2, b, y, cost)
        }
        CompiledCond::Not(x) => !eval_pair(db, v1, a, v2, b, x, cost),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use qof_grammar::{lit, nt, TokenPattern, ValueBuilder};

    fn grammar() -> Grammar {
        Grammar::builder("Set")
            .repeat("Set", "Entry", None, ValueBuilder::Set)
            .seq(
                "Entry",
                [lit("["), nt("Key"), lit(":"), nt("Authors"), lit("]")],
                ValueBuilder::ObjectAuto("Entry".into()),
            )
            .token("Key", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Authors", "Name", Some(","), ValueBuilder::Set)
            .seq("Name", [nt("Last_Name")], ValueBuilder::TupleAuto)
            .token("Last_Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap()
    }

    #[test]
    fn compiled_condition_evaluates() {
        let g = grammar();
        let q = parse_query("SELECT r FROM Entries r WHERE r.Authors.Name.Last_Name = \"Chang\"")
            .unwrap();
        let cc =
            compile_cond(&g, &|_| Some("Entry".to_owned()), q.where_.as_ref().unwrap()).unwrap();
        let db = Database::new();
        let hit = Value::tuple([
            ("Key", Value::str("k1")),
            ("Authors", Value::set([Value::tuple([("Last_Name", Value::str("Chang"))])])),
        ]);
        let miss = Value::tuple([
            ("Key", Value::str("k2")),
            ("Authors", Value::set([Value::tuple([("Last_Name", Value::str("Milo"))])])),
        ]);
        assert!(eval_single(&db, "r", &hit, &cc, &mut PathCost::default()));
        assert!(!eval_single(&db, "r", &miss, &cc, &mut PathCost::default()));
    }

    fn compiled(q: &str) -> PathSpec {
        let q = parse_query(q).unwrap();
        match compile_cond(&grammar(), &|_| Some("Entry".to_owned()), q.where_.as_ref().unwrap()) {
            Ok(CompiledCond::EqConst { paths, .. }) => paths,
            other => panic!("expected an `=` condition: {other:?}"),
        }
    }

    #[test]
    fn repeat_items_compile_to_elements() {
        let paths = compiled("SELECT r FROM Entries r WHERE r.Authors.Name.Last_Name = \"x\"");
        assert_eq!(paths.alternatives.len(), 1);
        assert_eq!(
            paths.alternatives[0].steps,
            [DbStep::Field("Authors".into()), DbStep::Elements, DbStep::Field("Last_Name".into())]
        );
    }

    #[test]
    fn star_and_vars_compile() {
        // A variable step compiles to one table step; a set item is its
        // target as a field is.
        let db = Database::new();
        let entry = |last: &str| {
            Value::tuple([
                ("Key", Value::str("k")),
                ("Authors", Value::set([Value::tuple([("Last_Name", Value::str(last))])])),
            ])
        };
        for (q, one_step) in [
            ("SELECT r FROM Entries r WHERE r.*X.Last_Name = \"Chang\"", true),
            ("SELECT r FROM Entries r WHERE r.X1.X2.Last_Name = \"Chang\"", true),
            ("SELECT r FROM Entries r WHERE r.*X.Name.Last_Name = \"Chang\"", false),
            ("SELECT r FROM Entries r WHERE r.Authors+.Name.Last_Name = \"Chang\"", false),
        ] {
            let paths = compiled(q);
            let steps = &paths.alternatives[0].steps;
            assert!(matches!(steps[0], DbStep::Reach(_)), "{q}: {steps:?}");
            assert_eq!(steps.len() == 1, one_step, "{q}: {steps:?}");
            let cc = compile_cond(
                &grammar(),
                &|_| Some("Entry".to_owned()),
                &parse_query(q).unwrap().where_.unwrap(),
            )
            .unwrap();
            assert!(eval_single(&db, "r", &entry("Chang"), &cc, &mut PathCost::default()), "{q}");
            assert!(!eval_single(&db, "r", &entry("Milo"), &cc, &mut PathCost::default()), "{q}");
        }
        let vars = compiled("SELECT r FROM Entries r WHERE r.X1.Last_Name = \"Chang\"");
        let no_route = [DbStep::Reach(Default::default())];
        assert_eq!(vars.alternatives[0].steps, no_route, "no `Last_Name` two regions down");
    }
}
