//! The object store: classes, object identity, extents.

use crate::{Fields, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// An object identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Oid(pub u32);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.0)
    }
}

/// Load/processing statistics — the baseline's cost is dominated by how many
/// objects and value nodes it constructs (§4.1: "constructing many
/// unnecessary objects and complex values ... is time and space consuming").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Objects created.
    pub objects_created: u64,
    /// Total value nodes stored.
    pub value_nodes: u64,
}

/// The in-memory object database.
#[derive(Debug, Clone, Default)]
pub struct Database {
    objects: Vec<(String, Value)>,
    extents: BTreeMap<String, Vec<Oid>>,
    field_names: Vec<Arc<str>>,
    stats: DbStats,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an object of `class` with the given value; registers it in
    /// the class extent and returns its identity.
    pub fn new_object(&mut self, class: &str, value: Value) -> Oid {
        let oid = Oid(self.objects.len() as u32);
        self.stats.objects_created += 1;
        self.stats.value_nodes += value.node_count() as u64;
        self.objects.push((class.to_owned(), value));
        match self.extents.get_mut(class) {
            Some(extent) => extent.push(oid),
            None => {
                self.extents.insert(class.to_owned(), vec![oid]);
            }
        }
        oid
    }

    /// The shared string for a tuple field name: the tuples built into one
    /// database hold one allocation per distinct field name, not one per
    /// field.
    pub fn field_name(&mut self, name: &str) -> Arc<str> {
        if let Some(shared) = self.field_names.iter().find(|n| ***n == *name) {
            return Arc::clone(shared);
        }
        let shared: Arc<str> = name.into();
        self.field_names.push(Arc::clone(&shared));
        shared
    }

    /// The value of an object.
    pub fn deref(&self, oid: Oid) -> Option<&Value> {
        self.objects.get(oid.0 as usize).map(|(_, v)| v)
    }

    /// Moves an object's value out of the database, leaving an empty tuple
    /// in its place. The object keeps its identity, class and extent
    /// membership.
    pub fn take(&mut self, oid: Oid) -> Option<Value> {
        self.objects
            .get_mut(oid.0 as usize)
            .map(|(_, v)| std::mem::replace(v, Value::Tuple(Fields::new())))
    }

    /// The class of an object.
    pub fn class_of(&self, oid: Oid) -> Option<&str> {
        self.objects.get(oid.0 as usize).map(|(c, _)| c.as_str())
    }

    /// All objects of a class, in creation order.
    pub fn extent(&self, class: &str) -> &[Oid] {
        self.extents.get(class).map_or(&[], Vec::as_slice)
    }

    /// Class names with a non-empty extent.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(String::as_str)
    }

    /// Total number of objects.
    pub fn object_count(&self) -> usize {
        self.objects.len()
    }

    /// Creation-cost statistics.
    pub fn stats(&self) -> DbStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_get_identity_and_extent() {
        let mut db = Database::new();
        let a = db.new_object("Reference", Value::str("r1"));
        let b = db.new_object("Reference", Value::str("r2"));
        let c = db.new_object("Author", Value::str("a1"));
        assert_ne!(a, b);
        assert_eq!(db.extent("Reference"), &[a, b]);
        assert_eq!(db.extent("Author"), &[c]);
        assert!(db.extent("Editor").is_empty());
        assert_eq!(db.deref(b).unwrap().as_str(), Some("r2"));
        assert_eq!(db.class_of(c), Some("Author"));
        assert_eq!(db.object_count(), 3);
        assert_eq!(db.classes().collect::<Vec<_>>(), ["Author", "Reference"]);
    }

    #[test]
    fn stats_count_nodes() {
        let mut db = Database::new();
        db.new_object("R", Value::tuple([("A", Value::set([Value::str("x"), Value::str("y")]))]));
        let s = db.stats();
        assert_eq!(s.objects_created, 1);
        assert_eq!(s.value_nodes, 4);
    }

    #[test]
    fn field_names_are_shared() {
        let mut db = Database::new();
        let a = db.field_name("Year");
        let b = db.field_name("Year");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*db.field_name("Key"), "Key");
        assert!(!Arc::ptr_eq(&a, &db.field_name("Key")));
    }

    #[test]
    fn deref_out_of_range_is_none() {
        let db = Database::new();
        assert!(db.deref(Oid(7)).is_none());
        assert!(db.class_of(Oid(0)).is_none());
    }

    #[test]
    fn take_moves_the_value_and_keeps_the_object() {
        let mut db = Database::new();
        let a = db.new_object("R", Value::str("r1"));
        assert_eq!(db.take(a), Some(Value::str("r1")));
        assert_eq!(db.deref(a), Some(&Value::Tuple(Fields::new())));
        assert_eq!(db.class_of(a), Some("R"));
        assert_eq!(db.extent("R"), &[a]);
        assert_eq!(db.stats().objects_created, 1);
        assert!(db.take(Oid(7)).is_none());
    }
}
