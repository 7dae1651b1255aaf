//! The complex-value model: atoms, tuples, sets, lists and object
//! references — the types used by the structuring schemas of §4.1
//! (`tuple(...)`, `set(...)`, `string`).

use crate::Oid;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The longest text an [`Atom`] holds in place.
const INLINE: usize = 22;

/// The text of a string atom.
///
/// An atom of at most 22 bytes holds its text in place, so cloning or
/// dropping it touches no reference count. A longer atom is a range of a
/// shared string: atoms parsed from a corpus share the corpus text
/// ([`Atom::shared`]) instead of copying it, and atoms made from owned
/// strings hold their own. Equality, order, hashing, `Debug` and
/// `Display` are those of the `str` the atom covers (the first three read
/// its bytes without checking them as UTF-8 again), so an atom behaves
/// exactly as the `String` it replaces.
#[derive(Clone)]
pub struct Atom(Repr);

#[derive(Clone)]
enum Repr {
    /// The first `len` of `bytes`: UTF-8, as they were cut on `char`
    /// boundaries of a `str`.
    Inline { len: u8, bytes: [u8; INLINE] },
    /// `start..end` of a shared text.
    Shared { text: Arc<String>, start: u32, end: u32 },
}

impl Atom {
    /// The atom covering `start..end` of a shared text: a copy of it if
    /// it is short, else a share of the text.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or not on `char` boundaries.
    pub fn shared(text: &Arc<String>, start: u32, end: u32) -> Atom {
        let Some(s) = text.get(start as usize..end as usize) else {
            panic!("atom range {start}..{end}")
        };
        if s.len() > INLINE {
            return Atom(Repr::Shared { text: Arc::clone(text), start, end });
        }
        Atom::inline(s)
    }

    /// A short `s` held in place.
    fn inline(s: &str) -> Atom {
        let mut bytes = [0; INLINE];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Atom(Repr::Inline { len: s.len() as u8, bytes })
    }

    /// The atom's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => {
                std::str::from_utf8(&bytes[..usize::from(*len)]).expect("inline atoms are UTF-8")
            }
            Repr::Shared { text, start, end } => &text[*start as usize..*end as usize],
        }
    }

    /// The atom's text as bytes, with no UTF-8 check.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Repr::Shared { text, start, end } => &text.as_bytes()[*start as usize..*end as usize],
        }
    }
}

impl From<String> for Atom {
    fn from(s: String) -> Atom {
        if s.len() <= INLINE {
            return Atom::inline(&s);
        }
        let end = u32::try_from(s.len()).expect("atoms are shorter than 4 GiB");
        Atom(Repr::Shared { text: Arc::new(s), start: 0, end })
    }
}

impl From<&str> for Atom {
    fn from(s: &str) -> Atom {
        if s.len() <= INLINE {
            Atom::inline(s)
        } else {
            Atom::from(s.to_owned())
        }
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Atom {
    /// Byte order, which is `str` order.
    fn cmp(&self, other: &Atom) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Atom {
    /// What `str::hash` writes: the bytes, then `0xff`.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write(self.as_bytes());
        state.write_u8(0xff);
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The field names of a tuple, strictly ascending.
///
/// Tuples share their shape: a value builder makes one shape per grammar
/// rule and filter, and each tuple it builds holds a reference to it
/// instead of one reference per field name.
#[derive(Clone)]
pub struct Shape(Arc<Box<[Arc<str>]>>);

impl Shape {
    /// The shape with these names.
    ///
    /// # Panics
    /// Panics if the names are not strictly ascending.
    pub fn new(names: Vec<Arc<str>>) -> Shape {
        assert!(names.windows(2).all(|w| w[0] < w[1]), "field names not ascending");
        Shape(Arc::new(names.into_boxed_slice()))
    }

    /// The number of names.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the shape has no names.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

/// The fields of a tuple: a shared [`Shape`] of sorted names and one
/// value per name, in name order.
///
/// Equality, order, hashing and `Debug` output are those of a
/// `BTreeMap<String, Value>` with the same entries. A tuple costs one
/// allocation for its values and one reference count for its names; an
/// empty tuple costs neither.
#[derive(Clone, Default)]
pub struct Fields {
    /// `None` when there are no fields.
    shape: Option<Shape>,
    values: Box<[Value]>,
}

impl Fields {
    /// No fields.
    pub fn new() -> Fields {
        Fields::default()
    }

    /// The fields named by `shape`, with `values` in its name order.
    ///
    /// # Panics
    /// Panics if there are not as many values as names.
    pub fn from_shape(shape: Shape, values: Box<[Value]>) -> Fields {
        assert_eq!(shape.len(), values.len(), "one value per field name");
        Fields { shape: (!shape.is_empty()).then_some(shape), values }
    }

    /// Fields from `(name, value)` pairs whose names are strictly
    /// ascending (checked): no search, no shifting.
    pub fn from_sorted(fields: Vec<(Arc<str>, Value)>) -> Fields {
        if fields.is_empty() {
            return Fields::new();
        }
        let (names, values): (Vec<_>, Vec<_>) = fields.into_iter().unzip();
        Fields::from_shape(Shape::new(names), values.into_boxed_slice())
    }

    fn names(&self) -> &[Arc<str>] {
        self.shape.as_ref().map_or(&[], |s| &s.0)
    }

    /// Whether both have the same names, by sharing or by value.
    fn same_names(&self, other: &Fields) -> bool {
        match (&self.shape, &other.shape) {
            (Some(a), Some(b)) => Arc::ptr_eq(&a.0, &b.0) || a.0 == b.0,
            (a, b) => a.is_none() && b.is_none(),
        }
    }

    fn position(&self, name: &str) -> Result<usize, usize> {
        self.names().binary_search_by(|k| (**k).cmp(name))
    }

    /// The value of a field.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.position(name).ok().map(|i| &self.values[i])
    }

    /// Sets a field, returning its previous value. A new name makes a new
    /// shape.
    pub fn insert(&mut self, name: Arc<str>, value: Value) -> Option<Value> {
        match self.position(&name) {
            Ok(i) => Some(std::mem::replace(&mut self.values[i], value)),
            Err(i) => {
                let mut names = self.names().to_vec();
                names.insert(i, name);
                let mut values = std::mem::take(&mut self.values).into_vec();
                values.insert(i, value);
                *self = Fields::from_shape(Shape::new(names), values.into_boxed_slice());
                None
            }
        }
    }

    /// `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.names().iter().map(|k| &**k).zip(self.values.iter())
    }

    /// Field values in name order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.values.iter()
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Fields) -> bool {
        self.same_names(other) && self.values == other.values
    }
}

impl Eq for Fields {}

impl PartialOrd for Fields {
    fn partial_cmp(&self, other: &Fields) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Fields {
    /// Lexicographic over `(name, value)` pairs.
    fn cmp(&self, other: &Fields) -> Ordering {
        if self.same_names(other) {
            return self.values.cmp(&other.values);
        }
        self.iter().cmp(other.iter())
    }
}

impl Hash for Fields {
    /// What a sorted map's hash writes: the length, then each pair.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.values.len());
        for (k, v) in self.iter() {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl fmt::Debug for Fields {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Arc<str>>> FromIterator<(K, Value)> for Fields {
    fn from_iter<I: IntoIterator<Item = (K, Value)>>(fields: I) -> Fields {
        let mut fields: Vec<(Arc<str>, Value)> =
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect();
        // Stable, and of a name given twice the last value wins.
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(&mut later.1, &mut kept.1);
            }
            same
        });
        Fields::from_sorted(fields)
    }
}

/// A database value.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// An atomic string.
    Str(Atom),
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

// A value is four words, whatever it holds.
const _: () = assert!(std::mem::size_of::<Value>() == 32);

impl Value {
    /// A string atom.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(Atom::from(s.into()))
    }

    /// A tuple from `(field, value)` pairs.
    pub fn tuple<K: Into<Arc<str>>, I: IntoIterator<Item = (K, Value)>>(fields: I) -> Value {
        Value::Tuple(fields.into_iter().collect())
    }

    /// A set; sorts and dedups its elements in place (items that already
    /// arrive strictly ascending are taken as they are).
    pub fn set(items: impl IntoIterator<Item = Value>) -> Value {
        let mut v: Vec<Value> = items.into_iter().collect();
        if !v.windows(2).all(|w| w[0] < w[1]) {
            v.sort_unstable();
            v.dedup();
        }
        Value::Set(v)
    }

    /// The string contents, if this is a string atom.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
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
    fn atoms_behave_like_the_strings_they_cover() {
        let text = Arc::new("xx Chang yy".to_owned());
        let shared = Value::Str(Atom::shared(&text, 3, 8));
        let owned = Value::str("Chang");
        assert_eq!(shared, owned);
        assert_eq!(format!("{shared:?}"), format!("{:?}", Value::str("Chang")));
        assert_eq!(format!("{shared:?}"), r#"Str("Chang")"#);
        assert_eq!(shared.to_string(), owned.to_string());
        assert_eq!(shared.cmp(&Value::str("Chb")), "Chang".cmp("Chb"));
        let hash = |v: &Value| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        };
        assert_eq!(hash(&shared), hash(&owned));
        let hash_of = |h: &dyn Fn(&mut std::collections::hash_map::DefaultHasher)| {
            let mut s = std::collections::hash_map::DefaultHasher::new();
            h(&mut s);
            s.finish()
        };
        let atom = Atom::shared(&text, 3, 8);
        assert_eq!(
            hash_of(&|s| atom.hash(s)),
            hash_of(&|s| "Chang".to_owned().hash(s)),
            "an atom hashes as its String did"
        );
        assert_eq!(Arc::strong_count(&text), 1, "short atoms hold their own text");
        let long = Arc::new(format!("xx {} yy", "Chang".repeat(5)));
        let atoms = [Atom::shared(&long, 3, 28), Atom::shared(&long, 8, 28)];
        assert_eq!(atoms[0].as_str(), "Chang".repeat(5));
        assert_eq!(
            Arc::strong_count(&long),
            2,
            "a 25-byte atom shares the text, a 20-byte one not"
        );
    }

    #[test]
    fn ascending_set_items_are_kept_as_they_come() {
        let items = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(Value::set(items.clone()), Value::Set(items));
        let s = Value::set([Value::Int(2), Value::Int(1), Value::Int(2)]);
        assert_eq!(s, Value::Set(vec![Value::Int(1), Value::Int(2)]));
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
