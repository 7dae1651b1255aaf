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
    objects: Vec<(Arc<str>, Value)>,
    extents: BTreeMap<Arc<str>, Vec<Oid>>,
    stats: DbStats,
}

/// A point [`Database::rollback`] returns the database to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbMark {
    objects: usize,
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
        let class = match self.extents.get_key_value(class) {
            Some((shared, _)) => Arc::clone(shared),
            None => Arc::from(class),
        };
        let nodes = value.node_count() as u64;
        self.new_object_counted(&class, value, nodes)
    }

    /// [`Database::new_object`] for a builder that counted the value's
    /// `value_nodes` while building it and holds the class name shared.
    pub fn new_object_counted(&mut self, class: &Arc<str>, value: Value, value_nodes: u64) -> Oid {
        let oid = Oid(self.objects.len() as u32);
        self.stats.objects_created += 1;
        self.stats.value_nodes += value_nodes;
        self.objects.push((Arc::clone(class), value));
        match self.extents.get_mut(&**class) {
            Some(extent) => extent.push(oid),
            None => {
                self.extents.insert(Arc::clone(class), vec![oid]);
            }
        }
        oid
    }

    /// The current state, for a later [`Database::rollback`].
    pub fn mark(&self) -> DbMark {
        DbMark { objects: self.objects.len(), stats: self.stats }
    }

    /// Forgets every object created since `mark`: the objects, their
    /// extent entries and their share of the statistics.
    pub fn rollback(&mut self, mark: DbMark) {
        if self.objects.len() <= mark.objects {
            return;
        }
        for (class, _) in self.objects.drain(mark.objects..) {
            if let Some(extent) = self.extents.get_mut(&*class) {
                extent.retain(|oid| (oid.0 as usize) < mark.objects);
            }
        }
        self.extents.retain(|_, extent| !extent.is_empty());
        self.stats = mark.stats;
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
        self.objects.get(oid.0 as usize).map(|(c, _)| &**c)
    }

    /// All objects of a class, in creation order.
    pub fn extent(&self, class: &str) -> &[Oid] {
        self.extents.get(class).map_or(&[], Vec::as_slice)
    }

    /// Class names with a non-empty extent.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.extents.keys().map(|c| &**c)
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
    fn rollback_forgets_objects_extents_and_stats() {
        let mut db = Database::new();
        let a = db.new_object("R", Value::str("r1"));
        let mark = db.mark();
        let stats = db.stats();
        let class: Arc<str> = "R".into();
        db.new_object_counted(&class, Value::str("r2"), 1);
        db.new_object("S", Value::str("s1"));
        db.rollback(mark);
        assert_eq!(db.object_count(), 1);
        assert_eq!(db.extent("R"), &[a]);
        assert!(db.extent("S").is_empty());
        assert_eq!(db.classes().collect::<Vec<_>>(), ["R"]);
        assert_eq!(db.stats(), stats);
        assert_eq!(db.new_object("R", Value::str("r3")), Oid(1), "identities are reused");
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
