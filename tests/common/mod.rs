//! Helpers shared by the integration tests.

use qof::corpus::{Rng, StdRng};
use qof::db::{Database, Value};

/// A value with every object reference replaced by its object and set
/// items in a database-independent order, so that values built into two
/// databases compare.
pub fn show(value: &Value, db: &Database) -> String {
    match value {
        Value::Ref(oid) => {
            db.deref(*oid).map_or_else(|| format!("dangling {oid:?}"), |v| show(v, db))
        }
        Value::Tuple(fields) => {
            let fields: Vec<String> =
                fields.iter().map(|(name, v)| format!("{name}: {}", show(v, db))).collect();
            format!("({})", fields.join(", "))
        }
        Value::Set(items) => {
            let mut items: Vec<String> = items.iter().map(|v| show(v, db)).collect();
            items.sort();
            format!("{{{}}}", items.join(", "))
        }
        Value::List(items) => {
            let items: Vec<String> = items.iter().map(|v| show(v, db)).collect();
            format!("[{}]", items.join(", "))
        }
        atom => format!("{atom:?}"),
    }
}

/// The sorted renderings of a result's values.
pub fn shown(values: &[Value], db: &Database) -> Vec<String> {
    let mut out: Vec<String> = values.iter().map(|v| show(v, db)).collect();
    out.sort();
    out
}

/// `steps` with a run of them replaced by a variable step: `*X` or
/// `X1..Xn` before a step, or `A+` on a step. Not every test draws paths.
#[allow(dead_code)]
pub fn with_variable(mut steps: Vec<String>, rng: &mut StdRng) -> Vec<String> {
    let Some(last) = steps.len().checked_sub(1) else { return steps };
    let from = rng.random_range(0..=last);
    let to = rng.random_range(from..=last);
    match rng.random_range(0..3) {
        0 => {
            steps.splice(from..to, ["*X".to_owned()]);
        }
        1 if to > from => {
            steps.splice(from..to, (1..=to - from).map(|i| format!("X{i}")));
        }
        _ => {
            steps[to].push('+');
            steps.drain(from..to);
        }
    }
    steps
}
