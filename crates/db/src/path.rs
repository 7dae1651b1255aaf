//! Path-expression evaluation over complex values, including the `*X`
//! any-path traversal of XSQL (§5.3). Multi-valued: a path applied to a set
//! traverses every element, as in `r.Authors.Name.Last_Name` where `Authors`
//! is a `set(Name)`.

use std::ops::ControlFlow;

use crate::{Database, Value};

/// One step of a compiled database path.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DbStep {
    /// Tuple field access (dereferences object references first).
    Field(String),
    /// Traverse into the elements of a set or list.
    Elements,
    /// The `*X` variable: every value reachable by any (possibly empty)
    /// chain of field/element/reference steps.
    AnyPath,
    /// A run of `n` single-variable steps `X1.…​.Xn`: every value reachable
    /// by exactly `n` hops, where a hop is a field access or a set/list
    /// element entry (one hop per region, matching §5.3's region count).
    Exactly(u32),
}

/// Traversal-cost counters for path evaluation. The OODB pays for `*X` by
/// visiting every node ("the system has to actually traverse all possible
/// paths", §5.3); these counters make that cost observable in E7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PathCost {
    /// Value nodes visited during evaluation.
    pub nodes_visited: u64,
    /// Object dereferences performed.
    pub derefs: u64,
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
    let Some((step, rest)) = steps.split_first() else { return visit(v) };
    match step {
        // Field access on tuples. Collections are **not** transparent:
        // compiled paths make element traversal explicit with
        // `Elements`, keeping the step count aligned with the region chains
        // of the grammar (one step per region, §5.3).
        DbStep::Field(name) => {
            if let Value::Tuple(m) = resolve(db, v, cost) {
                if let Some(x) = m.get(name) {
                    return walk(db, resolve(db, x, cost), rest, cost, visit);
                }
            }
        }
        DbStep::Elements => {
            if let Value::Set(items) | Value::List(items) = resolve(db, v, cost) {
                for item in items {
                    walk(db, resolve(db, item, cost), rest, cost, visit)?;
                }
            }
        }
        DbStep::AnyPath => return reachable(db, v, rest, cost, visit),
        DbStep::Exactly(n) => return exactly_n(db, v, *n, rest, cost, visit),
    }
    ControlFlow::Continue(())
}

fn resolve<'a>(db: &'a Database, v: &'a Value, cost: &mut PathCost) -> &'a Value {
    cost.nodes_visited += 1;
    if let Value::Ref(oid) = v {
        cost.derefs += 1;
        db.deref(*oid).unwrap_or(v)
    } else {
        v
    }
}

/// Walks `rest` from every value reachable from `v`, `v` itself included:
/// the `*X` closure.
fn reachable<'a, B>(
    db: &'a Database,
    v: &'a Value,
    rest: &[DbStep],
    cost: &mut PathCost,
    visit: &mut impl FnMut(&'a Value) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let v = resolve(db, v, cost);
    walk(db, v, rest, cost, visit)?;
    match v {
        Value::Tuple(m) => {
            for x in m.values() {
                reachable(db, x, rest, cost, visit)?;
            }
        }
        Value::Set(items) | Value::List(items) => {
            for x in items {
                reachable(db, x, rest, cost, visit)?;
            }
        }
        _ => {}
    }
    ControlFlow::Continue(())
}

/// Walks `rest` from the values reachable by exactly `n` hops, where a hop
/// is a field access or a set/list element entry — mirroring the
/// one-region-per-step accounting of the region algebra's exact-nesting
/// operator (§5.3).
fn exactly_n<'a, B>(
    db: &'a Database,
    v: &'a Value,
    n: u32,
    rest: &[DbStep],
    cost: &mut PathCost,
    visit: &mut impl FnMut(&'a Value) -> ControlFlow<B>,
) -> ControlFlow<B> {
    let v = resolve(db, v, cost);
    if n == 0 {
        return walk(db, v, rest, cost, visit);
    }
    match v {
        Value::Tuple(m) => {
            for x in m.values() {
                exactly_n(db, x, n - 1, rest, cost, visit)?;
            }
        }
        Value::Set(items) | Value::List(items) => {
            for x in items {
                exactly_n(db, x, n - 1, rest, cost, visit)?;
            }
        }
        _ => {}
    }
    ControlFlow::Continue(())
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

    fn strs<'a>(vs: &[&'a Value]) -> Vec<&'a str> {
        let mut out: Vec<&str> = vs.iter().filter_map(|v| v.as_str()).collect();
        out.sort();
        out
    }

    #[test]
    fn field_then_elements_then_field() {
        let db = Database::new();
        let r = reference();
        let got = eval_path(
            &db,
            &r,
            &[DbStep::Field("Authors".into()), DbStep::Elements, DbStep::Field("Last_Name".into())],
        );
        assert_eq!(strs(&got), ["Chang", "Corliss"]);
    }

    #[test]
    fn fields_are_not_set_transparent() {
        // Compiled paths make element traversal explicit; a field step on a
        // set yields nothing (keeps hop counts aligned with region chains).
        let db = Database::new();
        let r = reference();
        let got = eval_path(
            &db,
            &r,
            &[DbStep::Field("Authors".into()), DbStep::Field("Last_Name".into())],
        );
        assert!(got.is_empty());
    }

    #[test]
    fn elements_step() {
        let db = Database::new();
        let r = reference();
        let got = eval_path(&db, &r, &[DbStep::Field("Authors".into()), DbStep::Elements]);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn any_path_reaches_all_last_names() {
        let db = Database::new();
        let r = reference();
        // r.*X.Last_Name — authors AND editors.
        let got = eval_path(&db, &r, &[DbStep::AnyPath, DbStep::Field("Last_Name".into())]);
        assert_eq!(strs(&got), ["Chang", "Corliss", "Griewank"]);
    }

    #[test]
    fn any_path_cost_visits_whole_tree() {
        let db = Database::new();
        let r = reference();
        let mut cost = PathCost::default();
        eval_path_counted(&db, &r, &[DbStep::AnyPath], &mut cost);
        assert!(cost.nodes_visited as usize >= r.node_count());
    }

    #[test]
    fn walk_stops_at_the_first_break() {
        let db = Database::new();
        let r = reference();
        let steps = [DbStep::AnyPath, DbStep::Field("Last_Name".into())];
        let mut seen = 0;
        let found = walk_path(&db, &r, &steps, &mut PathCost::default(), &mut |v| {
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
    fn exactly_n_counts_hops() {
        let db = Database::new();
        let r = reference();
        // Name tuples sit two hops away (field Authors/Editors, then element
        // entry), exactly like the two regions between Reference and Name.
        let got = eval_path(&db, &r, &[DbStep::Exactly(2), DbStep::Field("Last_Name".into())]);
        assert_eq!(strs(&got), ["Chang", "Corliss", "Griewank"]);
        // One hop lands on the field values (sets/atoms): no Last_Name there.
        let got1 = eval_path(&db, &r, &[DbStep::Exactly(1), DbStep::Field("Last_Name".into())]);
        assert!(got1.is_empty());
        // Three hops are the name atoms themselves.
        let got3 = eval_path(&db, &r, &[DbStep::Exactly(3)]);
        assert!(strs(&got3).contains(&"Chang"));
    }

    #[test]
    fn refs_are_dereferenced() {
        let mut db = Database::new();
        let inner = db.new_object("Name", Value::tuple([("Last_Name", Value::str("Milo"))]));
        let outer = Value::tuple([("Author", Value::Ref(inner))]);
        let got = eval_path(
            &db,
            &outer,
            &[DbStep::Field("Author".into()), DbStep::Field("Last_Name".into())],
        );
        assert_eq!(strs(&got), ["Milo"]);
    }

    #[test]
    fn missing_field_yields_empty() {
        let db = Database::new();
        let r = reference();
        assert!(eval_path(&db, &r, &[DbStep::Field("Nope".into())]).is_empty());
    }
}
