//! Path-expression evaluation over complex values. Multi-valued: a path
//! applied to a set traverses every element, as in
//! `r.Authors.Name.Last_Name` where `Authors` is a `set(Name)`.

use std::ops::ControlFlow;
use std::sync::Arc;

use crate::{Database, Value};

/// One step of a compiled database path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DbStep {
    /// Tuple field access (dereferences object references first).
    Field(String),
    /// Traverse into the elements of a set or list.
    Elements,
    /// A variable step (`*X.A`, `X1..Xn.A`, `A+`) resolved over the
    /// grammar: the values its [`Moves`] table accepts.
    Reach(Arc<Moves>),
}

/// The move table of a [`DbStep::Reach`]: a walk starts in state 0, and a
/// value reaching an accepting state is one the step reaches. The query
/// resolver builds it from the grammar, so a walk takes only the routes
/// by which the grammar nests the step's target in its start; a grammar
/// cycle is a table cycle, which ends because values are finite.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Moves {
    /// The states; no state means the step reaches nothing.
    pub states: Vec<MoveState>,
}

/// One state of a [`Moves`] table.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct MoveState {
    /// Whether the values reaching this state are the step's values.
    pub accept: bool,
    /// The `Field` and `Elements` steps out of this state, each with the
    /// state it leads to.
    pub moves: Vec<(DbStep, usize)>,
}

/// Traversal-cost counters for path evaluation, which make the OODB's cost
/// of a path observable in E7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCost {
    /// Value nodes visited during evaluation.
    pub nodes_visited: u64,
}

/// Evaluates a compiled path against a value; convenience wrapper that
/// discards cost counters.
pub fn eval_path<'a>(db: &'a Database, value: &'a Value, steps: &[DbStep]) -> Vec<&'a Value> {
    let mut cost = PathCost::default();
    eval_path_counted(db, value, steps, &mut cost)
}

/// Evaluates a compiled path, accumulating traversal costs. Paths produce
/// sets of values: what [`walk_path`] reaches, sorted, with the values
/// reached by several routes once.
pub fn eval_path_counted<'a>(
    db: &'a Database,
    value: &'a Value,
    steps: &[DbStep],
    cost: &mut PathCost,
) -> Vec<&'a Value> {
    let mut out: Vec<&'a Value> = Vec::new();
    let _ = walk_path(db, value, steps, cost, &mut |v| {
        out.push(v);
        ControlFlow::<()>::Continue(())
    });
    out.sort_unstable();
    out.dedup_by(|a, b| a == b);
    out
}

/// Walks a compiled path depth first and calls `visit` on every value it
/// reaches, with object references dereferenced; a `Break` from `visit`
/// ends the walk and is returned. Nothing is allocated, and a value reached
/// by several routes is visited once per route.
pub fn walk_path<'a, B>(
    db: &'a Database,
    value: &'a Value,
    steps: &[DbStep],
    cost: &mut PathCost,
    visit: &mut impl FnMut(&'a Value) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let value = resolve(db, value, cost);
    walk(db, value, steps, cost, visit)
}

/// [`walk_path`] from a value already resolved.
fn walk<'a, B>(
    db: &'a Database,
    v: &'a Value,
    steps: &[DbStep],
    cost: &mut PathCost,
    visit: &mut impl FnMut(&'a Value) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match steps.split_first() {
        None => visit(v),
        Some((DbStep::Reach(moves), rest)) => reach(db, v, moves, 0, rest, cost, visit),
        Some((step, rest)) => hop(db, v, step, cost, &mut |x, cost| walk(db, x, rest, cost, visit)),
    }
}

/// Walks `rest` from the values that `moves`, started in `state` at `v`,
/// accepts.
fn reach<'a, B>(
    db: &'a Database,
    v: &'a Value,
    moves: &Moves,
    state: usize,
    rest: &[DbStep],
    cost: &mut PathCost,
    visit: &mut impl FnMut(&'a Value) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let Some(at) = moves.states.get(state) else { return ControlFlow::Continue(()) };
    if at.accept {
        walk(db, v, rest, cost, visit)?;
    }
    for (step, next) in &at.moves {
        hop(db, v, step, cost, &mut |x, cost| reach(db, x, moves, *next, rest, cost, visit))?;
    }
    ControlFlow::Continue(())
}

/// Takes one `Field` or `Elements` step from `v` and calls `next` on each
/// value it lands on, resolved.
fn hop<'a, B>(
    db: &'a Database,
    v: &'a Value,
    step: &DbStep,
    cost: &mut PathCost,
    next: &mut impl FnMut(&'a Value, &mut PathCost) -> ControlFlow<B>,
) -> ControlFlow<B> {
    match (step, v) {
        // Field access on tuples. Collections are **not** transparent:
        // compiled paths make element traversal explicit with `Elements`,
        // keeping the step count aligned with the region chains of the
        // grammar (one step per region, §5.3).
        (DbStep::Field(name), Value::Tuple(m)) => match m.get(name) {
            Some(x) => next(resolve(db, x, cost), cost),
            None => ControlFlow::Continue(()),
        },
        (DbStep::Elements, Value::Set(items) | Value::List(items)) => {
            for item in items {
                next(resolve(db, item, cost), cost)?;
            }
            ControlFlow::Continue(())
        }
        // A table's moves are `Field` and `Elements` steps only.
        _ => ControlFlow::Continue(()),
    }
}

fn resolve<'a>(db: &'a Database, v: &'a Value, cost: &mut PathCost) -> &'a Value {
    cost.nodes_visited += 1;
    match v {
        Value::Ref(oid) => db.deref(*oid).unwrap_or(v),
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Value {
        Value::tuple([
            ("Key", Value::str("Corl82a")),
            (
                "Authors",
                Value::set([
                    Value::tuple([
                        ("First_Name", Value::str("G")),
                        ("Last_Name", Value::str("Corliss")),
                    ]),
                    Value::tuple([
                        ("First_Name", Value::str("Y")),
                        ("Last_Name", Value::str("Chang")),
                    ]),
                ]),
            ),
            (
                "Editors",
                Value::set([Value::tuple([
                    ("First_Name", Value::str("A")),
                    ("Last_Name", Value::str("Griewank")),
                ])]),
            ),
        ])
    }

    fn state(accept: bool, moves: &[(DbStep, usize)]) -> MoveState {
        MoveState { accept, moves: moves.to_vec() }
    }

    fn field(name: &str) -> DbStep {
        DbStep::Field(name.into())
    }

    /// `*X.Last_Name` from a reference: through `Authors` or `Editors`,
    /// then a set item, then its `Last_Name`.
    fn to_last_names() -> DbStep {
        DbStep::Reach(Arc::new(Moves {
            states: vec![
                state(false, &[(field("Authors"), 1), (field("Editors"), 1)]),
                state(false, &[(DbStep::Elements, 2)]),
                state(false, &[(field("Last_Name"), 3)]),
                state(true, &[]),
            ],
        }))
    }

    fn strs<'a>(vs: &[&'a Value]) -> Vec<&'a str> {
        let mut out: Vec<&str> = vs.iter().filter_map(|v| v.as_str()).collect();
        out.sort();
        out
    }

    #[test]
    fn field_then_elements_then_field() {
        let db = Database::new();
        let r = reference();
        let got = eval_path(&db, &r, &[field("Authors"), DbStep::Elements, field("Last_Name")]);
        assert_eq!(strs(&got), ["Chang", "Corliss"]);
    }

    #[test]
    fn fields_are_not_set_transparent() {
        // Compiled paths make element traversal explicit; a field step on a
        // set yields nothing (keeps hop counts aligned with region chains).
        let db = Database::new();
        let r = reference();
        let got = eval_path(&db, &r, &[field("Authors"), field("Last_Name")]);
        assert!(got.is_empty());
    }

    #[test]
    fn elements_step() {
        let db = Database::new();
        let r = reference();
        let got = eval_path(&db, &r, &[field("Authors"), DbStep::Elements]);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn any_path_reaches_all_last_names() {
        let db = Database::new();
        let r = reference();
        // r.*X.Last_Name — authors AND editors.
        assert_eq!(strs(&eval_path(&db, &r, &[to_last_names()])), ["Chang", "Corliss", "Griewank"]);
        // Steps after the table continue from what it accepts.
        let names = DbStep::Reach(Arc::new(Moves {
            states: vec![state(false, &[(field("Editors"), 1)]), state(true, &[])],
        }));
        let got = eval_path(&db, &r, &[names, DbStep::Elements, field("Last_Name")]);
        assert_eq!(strs(&got), ["Griewank"]);
    }

    #[test]
    fn a_reach_visits_only_its_table_s_routes() {
        let db = Database::new();
        let r = reference();
        let mut cost = PathCost::default();
        eval_path_counted(&db, &r, &[to_last_names()], &mut cost);
        // The reference, two sets, three names and their last names: no
        // `Key` and no `First_Name`.
        assert_eq!(cost.nodes_visited, 9);
        let mut none = PathCost::default();
        let empty = DbStep::Reach(Arc::new(Moves::default()));
        assert!(eval_path_counted(&db, &r, &[empty], &mut none).is_empty());
        assert_eq!(none.nodes_visited, 1, "an empty table reaches nothing");
    }

    #[test]
    fn a_table_cycle_ends_with_the_value() {
        // Sections nest in sections: `Subsections → Section → Subsections`.
        let section = |head: &str, subs: Vec<Value>| {
            Value::tuple([("Head", Value::str(head)), ("Subsections", Value::set(subs))])
        };
        let doc =
            section("a", vec![section("b", vec![section("c", vec![])]), section("d", vec![])]);
        let heads = DbStep::Reach(Arc::new(Moves {
            states: vec![
                state(false, &[(field("Head"), 1), (field("Subsections"), 2)]),
                state(true, &[]),
                state(false, &[(DbStep::Elements, 0)]),
            ],
        }));
        let db = Database::new();
        assert_eq!(strs(&eval_path(&db, &doc, &[heads])), ["a", "b", "c", "d"]);
    }

    #[test]
    fn walk_stops_at_the_first_break() {
        let db = Database::new();
        let r = reference();
        let mut seen = 0;
        let found = walk_path(&db, &r, &[to_last_names()], &mut PathCost::default(), &mut |v| {
            seen += 1;
            match v.as_str() {
                Some(name) if name.starts_with('C') => ControlFlow::Break(name),
                _ => ControlFlow::Continue(()),
            }
        });
        assert!(matches!(found, ControlFlow::Break("Chang" | "Corliss")), "{found:?}");
        assert!(seen < 3, "the walk went on after the first hit: {seen} visits");
    }

    #[test]
    fn refs_are_dereferenced() {
        let mut db = Database::new();
        let inner = db.new_object("Name", Value::tuple([("Last_Name", Value::str("Milo"))]));
        let outer = Value::tuple([("Author", Value::Ref(inner))]);
        let got = eval_path(&db, &outer, &[field("Author"), field("Last_Name")]);
        assert_eq!(strs(&got), ["Milo"]);
    }

    #[test]
    fn missing_field_yields_empty() {
        let db = Database::new();
        let r = reference();
        assert!(eval_path(&db, &r, &[field("Nope")]).is_empty());
    }
}
