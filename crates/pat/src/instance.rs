//! Instances of a region index (Definition 3.1's domain): a mapping from
//! region names to region sets.

use crate::{RegionSet, UniverseForest};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

/// An instance `I` of a region index: `I(Rᵢ)` is a set of regions for each
/// region name `Rᵢ`.
///
/// The nesting forest of the whole instance ([`Instance::forest`]) is built
/// on first use and kept until the instance changes, so every query over an
/// unchanged index shares one forest. Whether each name's set is
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

    /// Merges regions into an existing name (union), creating it if absent.
    pub fn merge(&mut self, name: &str, regions: RegionSet) {
        let Some(existing) = self.names.get_mut(name) else {
            return self.insert(name, regions);
        };
        // Regions appended past the existing ones (a new file) leave the
        // union flat iff both sides are and the seam is: O(new), not O(all).
        let was_flat = self.flat.contains(name);
        let seam = match (existing.as_slice().last(), regions.as_slice().first()) {
            (_, None) => Some(was_flat),
            (None, Some(_)) => Some(regions.is_flat()),
            (Some(last), Some(first)) if last < first => Some(
                was_flat && last.start < first.start && last.end < first.end && regions.is_flat(),
            ),
            _ => None,
        };
        *existing = existing.union(&regions);
        let flat = seam.unwrap_or_else(|| existing.is_flat());
        self.set_flat(name, flat);
        self.forest = OnceLock::new();
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
    /// call and shared by every later one until [`Instance::insert`] or
    /// [`Instance::merge`] changes the instance. Concurrent first calls
    /// wait on a single build.
    pub fn forest(&self) -> &UniverseForest {
        self.forest.get_or_init(|| UniverseForest::build(&self.universe()))
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
        i.merge("A", rs(&[(20, 30)]));
        i.merge("B", rs(&[(5, 6)]));
        assert_eq!(i.get("A").unwrap().len(), 2);
        assert_eq!(i.get("B").unwrap().len(), 1);
    }

    #[test]
    fn forest_is_cached_until_the_instance_changes() {
        let mut i = Instance::new();
        i.insert("A", rs(&[(0, 100)]));
        let first: *const UniverseForest = i.forest();
        assert!(std::ptr::eq(first, i.forest()));
        i.merge("B", rs(&[(10, 20)]));
        assert_eq!(i.forest().regions(), i.universe().as_slice());
        assert_eq!(i.forest().parent_of(1), Some(0));
        i.insert("C", rs(&[(30, 40)]));
        assert_eq!(i.forest().len(), 3);
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
        i.merge("A", rs(&[(40, 50), (60, 70)]));
        assert!(i.is_flat("A"), "appended past the end");
        i.merge("A", rs(&[(65, 68)]));
        assert!(!i.is_flat("A"), "appended inside the last region");
        i.insert("A", rs(&[(0, 10), (20, 30)]));
        i.merge("A", rs(&[(22, 25)]));
        assert!(!i.is_flat("A"));
        i.insert("A", rs(&[(40, 50)]));
        assert!(i.is_flat("A"));
        i.merge("C", rs(&[(1, 2)]));
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
