//! Instances of a region index (Definition 3.1's domain): a mapping from
//! region names to region sets.

use crate::{RegionSet, UniverseForest};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// An instance `I` of a region index: `I(Rᵢ)` is a set of regions for each
/// region name `Rᵢ`.
///
/// The nesting forest of the whole instance ([`Instance::forest`]) is built
/// when a direct-inclusion operator first needs it, and every later query
/// shares it. [`Instance::append`] extends a built forest in place; other
/// writes drop it. Whether each name's set is
/// [flat](RegionSet::is_flat) is decided once per write, so queries read it
/// without a scan ([`Instance::is_flat`]).
#[derive(Debug, Clone, Default)]
pub struct Instance {
    names: BTreeMap<String, RegionSet>,
    flat: BTreeSet<String>,
    forest: OnceLock<UniverseForest>,
}

/// Equality is over the indexed regions only: the flatness bits and the
/// forest are derived from them.
impl PartialEq for Instance {
    fn eq(&self, other: &Self) -> bool {
        self.names == other.names
    }
}

impl Eq for Instance {}

impl Instance {
    /// An instance with no region names.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the instance of a region name.
    pub fn insert(&mut self, name: impl Into<String>, regions: RegionSet) {
        let name = name.into();
        self.set_flat(&name, regions.is_flat());
        self.names.insert(name, regions);
        self.forest = OnceLock::new();
    }

    /// Merges another instance into this one: each of its names' regions
    /// are unioned into that name, which is created if absent. This is how
    /// `add_file` indexes a new file. A built forest survives when all of
    /// `tail` lies past the universe (the new file lands past the corpus
    /// end): it is extended in place with `tail`'s regions
    /// ([`UniverseForest::extend`]). Otherwise it is dropped.
    pub fn append(&mut self, tail: &Instance) {
        let forest = self.forest.take();
        for (name, regions) in tail.iter() {
            self.merge(name, regions.clone());
        }
        if let Some(mut forest) = forest {
            if forest.extend(&tail.universe()) {
                self.forest = OnceLock::from(forest);
            }
        }
    }

    /// Unions `regions` into `name`'s set, creating it if absent, and keeps
    /// the flatness bit; the caller decides the forest's fate.
    fn merge(&mut self, name: &str, regions: RegionSet) {
        let Some(existing) = self.names.get_mut(name) else {
            self.set_flat(name, regions.is_flat());
            self.names.insert(name.to_owned(), regions);
            return;
        };
        // Regions appended past the existing ones (a new file) are copied
        // onto the end, and leave the union flat iff both sides are and the
        // seam is: O(new), not O(all).
        let was_flat = self.flat.contains(name);
        let flat = match (existing.as_slice().last(), regions.as_slice().first()) {
            (_, None) => was_flat,
            (Some(&last), Some(&first)) if last < first => {
                existing.append_sorted(&regions);
                was_flat && last.start < first.start && last.end < first.end && regions.is_flat()
            }
            _ => {
                *existing = existing.union(&regions);
                existing.is_flat()
            }
        };
        self.set_flat(name, flat);
    }

    fn set_flat(&mut self, name: &str, flat: bool) {
        if flat {
            self.flat.insert(name.to_owned());
        } else {
            self.flat.remove(name);
        }
    }

    /// Whether `name`'s set is [flat](RegionSet::is_flat): no region of it
    /// includes another (records, fields and words; not recursive
    /// structure such as nested sections). False for unindexed names.
    pub fn is_flat(&self, name: &str) -> bool {
        self.flat.contains(name)
    }

    /// The instance of `name`, if indexed.
    pub fn get(&self, name: &str) -> Option<&RegionSet> {
        self.names.get(name)
    }

    /// Whether `name` is indexed (possibly with an empty instance).
    pub fn has(&self, name: &str) -> bool {
        self.names.contains_key(name)
    }

    /// The indexed region names, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.names.keys().map(String::as_str)
    }

    /// Iterates `(name, regions)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &RegionSet)> {
        self.names.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of indexed names.
    pub fn name_count(&self) -> usize {
        self.names.len()
    }

    /// Total number of indexed regions across all names.
    pub fn region_count(&self) -> usize {
        self.names.values().map(RegionSet::len).sum()
    }

    /// Approximate resident bytes of the region index (for the E9
    /// index-size/performance tradeoff).
    pub fn approx_bytes(&self) -> usize {
        let name_bytes: usize = self.names.keys().map(String::len).sum();
        name_bytes + self.region_count() * std::mem::size_of::<crate::Region>()
    }

    /// The union of all instances — the set of all indexed regions, which
    /// the `⊃d` betweenness test quantifies over.
    pub fn universe(&self) -> RegionSet {
        let mut all = Vec::with_capacity(self.region_count());
        for set in self.names.values() {
            all.extend_from_slice(set.as_slice());
        }
        RegionSet::from_regions(all)
    }

    /// The nesting forest of [`Instance::universe`], built on the first
    /// call and shared by every later one. [`Instance::append`] extends it
    /// in place when it can; [`Instance::insert`] and any other append drop
    /// it, and the next call rebuilds it. Concurrent first calls wait on a single
    /// build.
    pub fn forest(&self) -> &UniverseForest {
        self.forest.get_or_init(|| UniverseForest::build(&self.universe()))
    }

    /// Whether the nesting forest is built (and so shared by the next
    /// [`Instance::forest`] call).
    pub fn has_forest(&self) -> bool {
        self.forest.get().is_some()
    }

    /// Restricts the instance to the given names (partial indexing, §6).
    pub fn restrict_to<'a>(&self, keep: impl IntoIterator<Item = &'a str>) -> Instance {
        let keep: std::collections::BTreeSet<&str> = keep.into_iter().collect();
        Instance {
            names: self
                .names
                .iter()
                .filter(|(k, _)| keep.contains(k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
            flat: self.flat.iter().filter(|k| keep.contains(k.as_str())).cloned().collect(),
            forest: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Region;

    fn rs(pairs: &[(u32, u32)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    /// Appends one name's regions.
    fn append(i: &mut Instance, name: &str, regions: RegionSet) {
        let mut tail = Instance::new();
        tail.insert(name, regions);
        i.append(&tail);
    }

    #[test]
    fn insert_get_names() {
        let mut i = Instance::new();
        i.insert("Reference", rs(&[(0, 100)]));
        i.insert("Authors", rs(&[(10, 40)]));
        assert!(i.has("Reference"));
        assert!(!i.has("Editors"));
        assert_eq!(i.get("Authors").unwrap().len(), 1);
        assert_eq!(i.names().collect::<Vec<_>>(), ["Authors", "Reference"]);
        assert_eq!(i.name_count(), 2);
        assert_eq!(i.region_count(), 2);
    }

    #[test]
    fn universe_unions_and_dedups() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 10), (20, 30)]));
        i.insert("B", rs(&[(20, 30), (40, 50)]));
        let u = i.universe();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn merge_unions() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 10)]));
        append(&mut i, "A", rs(&[(20, 30)]));
        append(&mut i, "B", rs(&[(5, 6)]));
        assert_eq!(i.get("A").unwrap().len(), 2);
        assert_eq!(i.get("B").unwrap().len(), 1);
    }

    #[test]
    fn forest_is_cached_until_the_instance_changes() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 100)]));
        let first: *const UniverseForest = i.forest();
        assert!(std::ptr::eq(first, i.forest()));
        append(&mut i, "B", rs(&[(10, 20)]));
        assert_eq!(i.forest().regions(), i.universe().as_slice());
        assert_eq!(i.forest().parent_of(1), Some(0));
        i.insert("C", rs(&[(30, 40)]));
        assert_eq!(i.forest().len(), 3);
    }

    #[test]
    fn append_extends_a_built_forest_and_drops_it_otherwise() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 100), (10, 20)]));
        i.insert("B", rs(&[(30, 40)]));
        let mut tail = Instance::new();
        tail.insert("A", rs(&[(100, 200)]));
        tail.insert("C", rs(&[(120, 130)]));
        // Unbuilt: append builds nothing.
        let mut unbuilt = i.clone();
        unbuilt.append(&tail);
        assert!(!unbuilt.has_forest());
        // Built: extended in place, equal to a fresh build of the union.
        i.forest();
        i.append(&tail);
        let extended = i.forest.get().expect("the forest survives an append past the end");
        let fresh = UniverseForest::build(&i.universe());
        assert_eq!(extended.regions(), fresh.regions());
        assert_eq!(extended.parent_of(4), Some(3));
        assert_eq!(
            i.get("A").unwrap().as_slice(),
            rs(&[(0, 100), (10, 20), (100, 200)]).as_slice()
        );
        assert!(i.has("C") && !i.is_flat("A"));
        // A tail reaching back into the universe drops it.
        let mut inside = Instance::new();
        inside.insert("B", rs(&[(50, 60)]));
        i.append(&inside);
        assert!(!i.has_forest());
        assert_eq!(i.forest().len(), 6);
    }

    #[test]
    fn equality_ignores_whether_the_forest_is_built() {
        let mut built = Instance::new();
        built.insert("A", rs(&[(0, 10)]));
        let fresh = built.clone();
        built.forest();
        assert_eq!(built, fresh);
        assert_eq!(fresh, built);
        assert_eq!(built.restrict_to(["A"]), built);
    }

    #[test]
    fn flatness_is_tracked_per_write() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 10), (20, 30)]));
        i.insert("B", rs(&[(0, 10), (2, 5)]));
        assert!(i.is_flat("A") && !i.is_flat("B") && !i.is_flat("C"));
        append(&mut i, "A", rs(&[(40, 50), (60, 70)]));
        assert!(i.is_flat("A"), "appended past the end");
        append(&mut i, "A", rs(&[(65, 68)]));
        assert!(!i.is_flat("A"), "appended inside the last region");
        i.insert("A", rs(&[(0, 10), (20, 30)]));
        append(&mut i, "A", rs(&[(22, 25)]));
        assert!(!i.is_flat("A"));
        i.insert("A", rs(&[(40, 50)]));
        assert!(i.is_flat("A"));
        append(&mut i, "C", rs(&[(1, 2)]));
        assert!(i.is_flat("C"));
        let p = i.restrict_to(["A", "B"]);
        assert!(p.is_flat("A") && !p.is_flat("B") && !p.is_flat("C"));
    }

    #[test]
    fn restrict_keeps_subset() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 10)]));
        i.insert("B", rs(&[(1, 2)]));
        i.insert("C", rs(&[(3, 4)]));
        let p = i.restrict_to(["A", "C"]);
        assert!(p.has("A") && p.has("C") && !p.has("B"));
    }

    #[test]
    fn approx_bytes_positive() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 10)]));
        assert!(i.approx_bytes() > 0);
    }
}
