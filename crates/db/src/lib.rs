#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # qof-db
//!
//! A small in-memory object-oriented database, standing in for the O2 system
//! that the paper's prototype used ([BCD89]). It provides exactly what the
//! "standard database implementation" baseline needs:
//!
//! * a complex-value model ([`Value`]): atomic strings and integers, tuples,
//!   sets, lists and object references, matching the data model of the
//!   paper's structuring schemas (§4.1);
//! * a [`Database`] with named classes, object identity and class extents;
//! * object-oriented *path expressions* ([`DbStep`], [`eval_path`]) including
//!   the `*X` any-path traversal of XSQL (§5.3), with traversal-cost
//!   accounting — the paper's claim that path variables are expensive in a
//!   traditional OODBMS is measured through these counters;
//! * a hash join ([`hash_join`]) used by the select–project–join baseline.

mod path;
mod schema;
mod store;
mod value;

pub use path::{eval_path, eval_path_counted, DbStep, PathCost};
pub use schema::{validate, ClassDef, TypeDef, TypeError};
pub use store::{Database, DbMark, DbStats, Oid};
pub use value::{Atom, Fields, Value};

/// Joins two value lists on string keys extracted by the given paths,
/// returning index pairs `(i, j)` with matching keys. Build side is `left`.
pub fn hash_join(
    db: &Database,
    left: &[Value],
    left_key: &[DbStep],
    right: &[Value],
    right_key: &[DbStep],
    cost: &mut PathCost,
) -> Vec<(usize, usize)> {
    use std::collections::HashMap;
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, v) in left.iter().enumerate() {
        for k in eval_path_counted(db, v, left_key, cost) {
            if let Some(s) = k.as_str() {
                table.entry(s.to_owned()).or_default().push(i);
            }
        }
    }
    let mut out = Vec::new();
    for (j, v) in right.iter().enumerate() {
        let mut seen: Vec<usize> = Vec::new();
        for k in eval_path_counted(db, v, right_key, cost) {
            if let Some(s) = k.as_str() {
                if let Some(is) = table.get(s) {
                    for &i in is {
                        if !seen.contains(&i) {
                            seen.push(i);
                            out.push((i, j));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod join_tests {
    use super::*;

    #[test]
    fn hash_join_matches_on_string_keys() {
        let db = Database::new();
        let mk = |name: &str| Value::tuple([("Key", Value::str(name))]);
        let left = vec![mk("a"), mk("b"), mk("c")];
        let right = vec![mk("b"), mk("c"), mk("d"), mk("b")];
        let key = vec![DbStep::Field("Key".into())];
        let mut cost = PathCost::default();
        let pairs = hash_join(&db, &left, &key, &right, &key, &mut cost);
        assert_eq!(pairs, vec![(1, 0), (2, 1), (1, 3)]);
        assert!(cost.nodes_visited > 0);
    }

    #[test]
    fn hash_join_dedups_multivalued_keys() {
        let db = Database::new();
        // One left row with a set of keys that contains duplicates via join.
        let l = Value::tuple([("Ks", Value::Set(vec![Value::str("x"), Value::str("y")]))]);
        let r = Value::tuple([("Ks", Value::Set(vec![Value::str("x"), Value::str("y")]))]);
        let key = vec![DbStep::Field("Ks".into()), DbStep::Elements];
        let mut cost = PathCost::default();
        // Both key sets intersect twice, but the pair must appear once.
        let pairs = hash_join(&db, &[l], &key, &[r], &key, &mut cost);
        assert_eq!(pairs, vec![(0, 0)]);
    }
}
