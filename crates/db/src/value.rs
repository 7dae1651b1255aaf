//! The complex-value model: atoms, tuples, sets, lists and object
//! references — the types used by the structuring schemas of §4.1
//! (`tuple(...)`, `set(...)`, `string`).

use crate::Oid;
use std::fmt;
use std::sync::Arc;

/// The fields of a tuple value, kept sorted by name in one vector.
///
/// Equality, order, hashing and `Debug` output are those of a
/// `BTreeMap<String, Value>` with the same entries; a tuple costs one
/// allocation for its fields instead of one per B-tree node, and field
/// names are shared strings (see
/// [`Database::field_name`](crate::Database::field_name)).
#[derive(Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fields(Vec<(Arc<str>, Value)>);

impl Fields {
    /// No fields.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// No fields, with room for `n`.
    pub fn with_capacity(n: usize) -> Fields {
        Fields(Vec::with_capacity(n))
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(name))
    }

    /// The value of a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.0[i].1)
    }

    /// Sets a field, returning its previous value.
    pub fn insert(&mut self, name: Arc<str>, value: Value) -> Option<Value> {
        match self.position(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (name, value));
                None
            }
        }
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.0.iter().map(|(k, v)| (&**k, v))
    }

    /// Field values in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Arc<str>>> FromIterator<(K, Value)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(fields: I) -> Fields {
        let mut out = Fields::new();
        for (k, v) in fields {
            out.insert(k.into(), v);
        }
        out
    }
}

/// A database value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An atomic string.
    Str(String),
    /// An atomic integer.
    Int(i64),
    /// A tuple of named fields.
    Tuple(Fields),
    /// A set of values (stored sorted, duplicates removed).
    Set(Vec<Value>),
    /// An ordered list of values.
    List(Vec<Value>),
    /// A reference to an object in the database.
    Ref(Oid),
}

impl Value {
    /// A string atom.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// A tuple from `(field, value)` pairs.
    pub fn tuple<K: Into<Arc<str>>, I: IntoIterator<Item = (K, Value)>>(fields: I) -> Value {
        Value::Tuple(fields.into_iter().collect())
    }

    /// A set; sorts and dedups its elements.
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        v.sort();
        v.dedup();
        Value::Set(v)
    }

    /// The string contents, if this is a string atom.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer contents, if this is an integer atom.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Field lookup on tuples.
    pub fn field(&self, name: &str) -> Option<&Value> {
        match self {
            Value::Tuple(m) => m.get(name),
            _ => None,
        }
    }

    /// Elements of a set or list.
    pub fn elements(&self) -> Option<&[Value]> {
        match self {
            Value::Set(v) | Value::List(v) => Some(v),
            _ => None,
        }
    }

    /// Number of nodes in this value tree (cost/size accounting).
    pub fn node_count(&self) -> usize {
        match self {
            Value::Str(_) | Value::Int(_) | Value::Ref(_) => 1,
            Value::Tuple(m) => 1 + m.values().map(Value::node_count).sum::<usize>(),
            Value::Set(v) | Value::List(v) => 1 + v.iter().map(Value::node_count).sum::<usize>(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Tuple(m) => {
                write!(f, "tuple(")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, ")")
            }
            Value::Set(v) => {
                write!(f, "{{")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "}}")
            }
            Value::List(v) => {
                write!(f, "[")?;
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Ref(o) => write!(f, "{o}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_behave_like_a_sorted_map() {
        let mut map = std::collections::BTreeMap::new();
        let mut fields = Fields::new();
        for (k, v) in [("b", 1), ("a", 2), ("c", 3), ("a", 4)] {
            assert_eq!(
                fields.insert(k.into(), Value::Int(v)),
                map.insert(k.to_owned(), Value::Int(v))
            );
        }
        assert!(fields.iter().eq(map.iter().map(|(k, v)| (k.as_str(), v))));
        assert_eq!(format!("{fields:?}"), format!("{map:?}"));
        assert_eq!(fields.get("a"), Some(&Value::Int(4)));
        let smaller: Fields = [("a", Value::Int(4)), ("b", Value::Int(0))].into_iter().collect();
        let smaller_map: std::collections::BTreeMap<String, Value> =
            [("a".to_owned(), Value::Int(4)), ("b".to_owned(), Value::Int(0))].into();
        assert_eq!(smaller.cmp(&fields), smaller_map.cmp(&map));
        let hash = |h: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            h(&mut s);
            std::hash::Hasher::finish(&s)
        };
        use std::hash::Hash;
        assert_eq!(hash(&|s| fields.hash(s)), hash(&|s| map.hash(s)));
    }

    #[test]
    fn constructors_and_accessors() {
        let v = Value::tuple([("Year", Value::str("1982")), ("Pages", Value::Int(30))]);
        assert_eq!(v.field("Year").unwrap().as_str(), Some("1982"));
        assert_eq!(v.field("Pages").unwrap().as_int(), Some(30));
        assert!(v.field("Nope").is_none());
        assert!(v.as_str().is_none());
    }

    #[test]
    fn sets_sort_and_dedup() {
        let s = Value::set([Value::str("b"), Value::str("a"), Value::str("b")]);
        assert_eq!(s.elements().unwrap().len(), 2);
        assert_eq!(s.elements().unwrap()[0].as_str(), Some("a"));
    }

    #[test]
    fn node_count_is_recursive() {
        let v = Value::tuple([(
            "Authors",
            Value::set([
                Value::tuple([("Last_Name", Value::str("Chang"))]),
                Value::tuple([("Last_Name", Value::str("Corliss"))]),
            ]),
        )]);
        // tuple + set + 2*(tuple + str) = 6
        assert_eq!(v.node_count(), 6);
    }

    #[test]
    fn display_is_readable() {
        let v = Value::tuple([("K", Value::set([Value::Int(1), Value::Int(2)]))]);
        assert_eq!(v.to_string(), "tuple(K: {1, 2})");
    }
}
