//! Helpers shared by the integration tests.

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
