//! The object store: classes, object identity, extents.

use crate::{Fields, Value};
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
    /// Each object's class, as an index in `classes`, and value.
    objects: Vec<(u32, Value)>,
    /// Each class's name and extent, in the order the classes were first
    /// used; a class whose objects were all rolled back keeps its entry.
    classes: Vec<(Arc<str>, Vec<Oid>)>,
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
        let nodes = value.node_count() as u64;
        let i = self.class_index(class).unwrap_or_else(|| self.add_class(Arc::from(class)));
        self.push_object(i, value, nodes)
    }

    /// [`Database::new_object`] for a builder that counted the value's
    /// `value_nodes` while building it and holds the class name shared.
    pub fn new_object_counted(&mut self, class: &Arc<str>, value: Value, value_nodes: u64) -> Oid {
        let i = self.class_index(class).unwrap_or_else(|| self.add_class(Arc::clone(class)));
        self.push_object(i, value, value_nodes)
    }

    /// The index of a class in `classes`, by name. A database holds a few
    /// classes.
    fn class_index(&self, class: &str) -> Option<usize> {
        self.classes.iter().position(|(c, _)| **c == *class)
    }

    fn add_class(&mut self, class: Arc<str>) -> usize {
        self.classes.push((class, Vec::new()));
        self.classes.len() - 1
    }

    fn push_object(&mut self, class: usize, value: Value, value_nodes: u64) -> Oid {
        let oid = Oid(self.objects.len() as u32);
        self.stats.objects_created += 1;
        self.stats.value_nodes += value_nodes;
        self.objects.push((class as u32, value));
        self.classes[class].1.push(oid);
        oid
    }

    /// The current state, for a later [`Database::rollback`].
    pub fn mark(&self) -> DbMark {
        DbMark { objects: self.objects.len(), stats: self.stats }
    }

    /// Forgets every object created since `mark`: the objects, their
    /// extent entries and their share of the statistics. The work is in
    /// proportion to the objects forgotten, not to those kept.
    pub fn rollback(&mut self, mark: DbMark) {
        if self.objects.len() <= mark.objects {
            return;
        }
        for (class, _) in self.objects.drain(mark.objects..).rev() {
            // Oids ascend within an extent, and the newest object is undone
            // first: it is its extent's last entry.
            self.classes[class as usize].1.pop();
        }
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
        self.objects.get(oid.0 as usize).map(|&(c, _)| &*self.classes[c as usize].0)
    }

    /// All objects of a class, in creation order.
    pub fn extent(&self, class: &str) -> &[Oid] {
        self.class_index(class).map_or(&[], |i| &self.classes[i].1)
    }

    /// Class names with a non-empty extent, in name order.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        let mut names: Vec<&str> =
            self.classes.iter().filter(|(_, e)| !e.is_empty()).map(|(c, _)| &**c).collect();
        names.sort_unstable();
        names.into_iter()
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

    /// Objects spelled out, class extents, and statistics.
    type Spelled = (Vec<String>, Vec<(String, Vec<Oid>)>, DbStats);

    /// Everything a database tells about its objects, for comparing two.
    fn spelled(db: &Database) -> Spelled {
        let objects = (0..db.object_count() as u32)
            .map(|i| format!("{:?} {:?}", db.class_of(Oid(i)), db.deref(Oid(i))))
            .collect();
        let extents = db.classes().map(|c| (c.to_owned(), db.extent(c).to_vec())).collect();
        (objects, extents, db.stats())
    }

    #[test]
    fn interleaved_rollbacks_leave_what_a_rebuild_of_the_kept_objects_makes() {
        // Each round creates a few objects of several classes and keeps
        // them or rolls them back; the kept ones, created again in a fresh
        // database, must give the same objects, extents, classes and stats.
        let classes = ["R", "S", "T"];
        let (mut db, mut rebuilt) = (Database::new(), Database::new());
        for round in 0..40usize {
            let mark = db.mark();
            let made: Vec<(&str, Value)> = (0..1 + round % 4)
                .map(|k| {
                    let class = classes[(round * 7 + k) % classes.len()];
                    let value = Value::tuple([("N", Value::str(format!("{round}.{k}")))]);
                    (class, value)
                })
                .collect();
            for (class, value) in &made {
                db.new_object(class, value.clone());
            }
            if round % 3 == 1 {
                db.rollback(mark);
                assert_eq!(db.mark(), mark, "round {round}");
            } else {
                for (class, value) in made {
                    rebuilt.new_object(class, value);
                }
            }
            assert_eq!(spelled(&db), spelled(&rebuilt), "round {round}");
        }
        // A rollback to the very start empties every extent.
        let mut db = Database::new();
        let start = db.mark();
        db.new_object("R", Value::str("r"));
        db.rollback(start);
        assert_eq!(spelled(&db), spelled(&Database::new()));
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
