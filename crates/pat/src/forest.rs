//! The *universe forest*: the nesting structure of all indexed regions.
//!
//! Direct inclusion (`⊃d`, `⊂d`) is defined relative to the whole region
//! index: `r` directly includes `s` iff `r ⊇ s` and *no other indexed
//! region lies strictly between them* (§3.1). Evaluating it needs, for a
//! region, its deepest strict enclosure among the indexed regions. When the
//! indexed regions are properly nested (always the case for regions
//! extracted from a parse tree), that structure is a forest: one stack sweep
//! builds it, and a file appended past the corpus end extends it with the
//! same sweep over the new regions only ([`UniverseForest::extend`]).
//!
//! Reads never sweep it. [`UniverseForest::strict_enclosures`] navigates:
//! a galloping predecessor probe finds each query region's place in the
//! canonical order, and parent links lead up to its enclosure, so the work
//! follows the query, not the universe (Arroyuelo et al. answer parent
//! questions over a tree index the same way).

use crate::set::gallop;
use crate::{Region, RegionSet};
use qof_text::Pos;

/// Nesting forest over the universe of indexed regions.
///
/// Resident for the lifetime of an [`Instance`](crate::Instance)'s forest
/// cache, so it keeps 12 bytes per region: the region itself and one parent
/// link.
#[derive(Debug, Clone)]
pub struct UniverseForest {
    regions: Vec<Region>,
    /// Parent index per region; [`NO_PARENT`] marks a root.
    parent: Vec<u32>,
    properly_nested: bool,
    /// The largest end among `regions` (0 when empty).
    end: Pos,
}

/// Parent link of a root region.
const NO_PARENT: u32 = u32::MAX;

impl UniverseForest {
    /// Builds the forest for `universe` (all indexed regions, deduplicated).
    pub fn build(universe: &RegionSet) -> Self {
        let mut forest =
            Self { regions: Vec::new(), parent: Vec::new(), properly_nested: true, end: 0 };
        let extended = forest.extend(universe);
        debug_assert!(extended, "an empty forest takes any universe");
        forest
    }

    /// Appends `tail` to the universe when all of it lies past the
    /// universe: its first region starts at or after every universe
    /// region's end and sorts after the last one. Such regions nest only
    /// among themselves, so one stack sweep over `tail` alone (parent links
    /// offset past the old regions) leaves the forest equal to a fresh
    /// [`build`](Self::build) of the union. Returns false, and changes
    /// nothing, when `tail` does not lie past the universe.
    pub fn extend(&mut self, tail: &RegionSet) -> bool {
        if let (Some(last), Some(first)) = (self.regions.last(), tail.as_slice().first()) {
            if !(last < first && self.end <= first.start) {
                return false;
            }
        }
        let from = self.regions.len();
        assert!(from + tail.len() < NO_PARENT as usize, "universe too large for u32 parent links");
        self.regions.extend_from_slice(tail.as_slice());
        self.parent.resize(self.regions.len(), NO_PARENT);
        let regions = &self.regions;
        let mut stack: Vec<u32> = Vec::new();
        for (i, r) in regions.iter().enumerate().skip(from) {
            while stack.last().is_some_and(|&top| regions[top as usize].end <= r.start) {
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                if regions[top as usize].end >= r.end {
                    self.parent[i] = top;
                } else {
                    // Partial overlap: the universe is not properly nested.
                    self.properly_nested = false;
                    // Best effort: the nearest stack entry that does contain r.
                    if let Some(&anc) =
                        stack.iter().rev().find(|&&k| regions[k as usize].end >= r.end)
                    {
                        self.parent[i] = anc;
                    }
                }
            }
            self.end = self.end.max(r.end);
            stack.push(i as u32);
        }
        true
    }

    /// True when no two universe regions partially overlap (nesting is a
    /// forest). Grammar-derived instances always satisfy this.
    pub fn is_properly_nested(&self) -> bool {
        self.properly_nested
    }

    /// Number of universe regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The universe regions in canonical order.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Index of `r` in the universe, if its exact extents are indexed.
    pub fn find(&self, r: &Region) -> Option<usize> {
        self.regions.binary_search(r).ok()
    }

    /// True when every member of `set` has its extents in the universe.
    pub fn covers(&self, set: &RegionSet) -> bool {
        set.iter().all(|r| self.find(r).is_some())
    }

    /// Parent (deepest strict enclosure) of universe region `idx`.
    pub fn parent_of(&self, idx: usize) -> Option<usize> {
        match self.parent[idx] {
            NO_PARENT => None,
            p => Some(p as usize),
        }
    }

    /// Ancestor of `idx` exactly `steps` parent links up.
    pub fn ancestor_at(&self, idx: usize, steps: u32) -> Option<usize> {
        let mut cur = idx;
        for _ in 0..steps {
            cur = self.parent_of(cur)?;
        }
        Some(cur)
    }

    /// For each region of `query` (in canonical order), the universe index
    /// of its deepest **strict** enclosure, or `None` when no universe
    /// region strictly contains it; plus the universe regions read.
    ///
    /// Every enclosure of `q` sorts at or before `q`, and in a properly
    /// nested universe it is an ancestor of (or is) `q`'s predecessor, the
    /// last universe region sorting at or before `q`. So each query
    /// gallops to its predecessor from the previous one's and walks up
    /// parent links to the first strict enclosure: `O(|query| · (log gap +
    /// steps))`, independent of the universe's size. Correct for arbitrary
    /// `query` sets, members of the universe or not, as long as the
    /// universe is properly nested.
    pub fn strict_enclosures(&self, query: &RegionSet) -> (Vec<Option<usize>>, usize) {
        let mut reads = 0;
        let mut next = 0;
        let out = query
            .iter()
            .map(|q| {
                next += gallop(&self.regions[next..], |u| u <= q, &mut reads);
                let mut cur = next.checked_sub(1);
                while let Some(i) = cur {
                    reads += 1;
                    if self.regions[i].strictly_includes(q) {
                        break;
                    }
                    cur = self.parent_of(i);
                }
                cur
            })
            .collect();
        (out, reads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_text::Pos;

    fn rs(pairs: &[(Pos, Pos)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    #[test]
    fn builds_parent_chain() {
        let u = rs(&[(0, 100), (10, 50), (20, 30), (60, 90), (200, 250)]);
        let f = UniverseForest::build(&u);
        assert!(f.is_properly_nested());
        let idx = |a, b| f.find(&Region::new(a, b)).unwrap();
        assert_eq!(f.parent_of(idx(0, 100)), None);
        assert_eq!(f.parent_of(idx(10, 50)), Some(idx(0, 100)));
        assert_eq!(f.parent_of(idx(20, 30)), Some(idx(10, 50)));
        assert_eq!(f.parent_of(idx(60, 90)), Some(idx(0, 100)));
        assert_eq!(f.parent_of(idx(200, 250)), None);
        assert_eq!(f.ancestor_at(idx(20, 30), 2), Some(idx(0, 100)));
        assert_eq!(f.ancestor_at(idx(20, 30), 3), None);
    }

    #[test]
    fn detects_partial_overlap() {
        let u = rs(&[(0, 10), (5, 15)]);
        let f = UniverseForest::build(&u);
        assert!(!f.is_properly_nested());
    }

    #[test]
    fn equal_end_nesting_is_proper() {
        let u = rs(&[(0, 10), (5, 10)]);
        let f = UniverseForest::build(&u);
        assert!(f.is_properly_nested());
        let inner = f.find(&Region::new(5, 10)).unwrap();
        assert_eq!(f.parent_of(inner), f.find(&Region::new(0, 10)));
    }

    /// The enclosures of `q`'s regions, as extents.
    fn enclosures(f: &UniverseForest, q: &RegionSet) -> Vec<Option<Region>> {
        f.strict_enclosures(q).0.into_iter().map(|e| e.map(|i| f.regions()[i])).collect()
    }

    #[test]
    fn strict_enclosures_for_members_and_strangers() {
        let u = rs(&[(0, 100), (10, 50), (20, 30)]);
        let f = UniverseForest::build(&u);
        // Universe members: enclosure == parent.
        let q = rs(&[(10, 50), (20, 30)]);
        assert_eq!(enclosures(&f, &q), vec![Some(Region::new(0, 100)), Some(Region::new(10, 50))]);
        // A stranger region nested below (20,30).
        let q2 = rs(&[(22, 25)]);
        assert_eq!(enclosures(&f, &q2), vec![Some(Region::new(20, 30))]);
        // A stranger with the same extents as a universe region.
        let q3 = rs(&[(20, 30)]);
        assert_eq!(enclosures(&f, &q3), vec![Some(Region::new(10, 50))]);
        // Outside everything.
        let q4 = rs(&[(500, 600)]);
        assert_eq!(enclosures(&f, &q4), vec![None]);
    }

    #[test]
    fn strict_enclosures_touching_boundaries() {
        let u = rs(&[(0, 10), (10, 20)]);
        let f = UniverseForest::build(&u);
        // Query at [10, 12): inside the second region only (half-open).
        assert_eq!(enclosures(&f, &rs(&[(10, 12)])), vec![Some(Region::new(10, 20))]);
        // Query spanning the boundary is inside neither.
        assert_eq!(enclosures(&f, &rs(&[(8, 12)])), vec![None]);
    }

    #[test]
    fn strict_enclosures_walk_up_from_a_deep_predecessor() {
        // (60, 70) follows a deep subtree; its predecessor (40, 45) is three
        // levels below its enclosure (0, 100).
        let u = rs(&[(0, 100), (10, 50), (20, 50), (40, 45), (200, 300)]);
        let f = UniverseForest::build(&u);
        let q = rs(&[(41, 42), (60, 70), (210, 220), (400, 410)]);
        assert_eq!(
            enclosures(&f, &q),
            vec![
                Some(Region::new(40, 45)),
                Some(Region::new(0, 100)),
                Some(Region::new(200, 300)),
                None
            ]
        );
        // The work follows the query: a handful of reads per region.
        assert!(f.strict_enclosures(&q).1 <= 4 * 6, "{}", f.strict_enclosures(&q).1);
    }

    #[test]
    fn extend_past_the_end_equals_a_fresh_build() {
        let head = rs(&[(0, 100), (10, 50), (50, 50)]);
        let tail = rs(&[(100, 150), (100, 100), (110, 120), (120, 130), (200, 210)]);
        let mut f = UniverseForest::build(&head);
        assert!(f.extend(&tail));
        let fresh = UniverseForest::build(&head.union(&tail));
        assert_eq!(f.regions(), fresh.regions());
        assert_eq!(f.parent, fresh.parent);
        assert!(f.is_properly_nested());
        // A partial overlap in the tail is recorded as in a fresh build.
        assert!(f.extend(&rs(&[(300, 310), (305, 320)])));
        assert!(!f.is_properly_nested());
    }

    #[test]
    fn extend_refuses_a_tail_that_does_not_lie_past() {
        let mut f = UniverseForest::build(&rs(&[(0, 100), (10, 50)]));
        for tail in [rs(&[(90, 120)]), rs(&[(50, 60)]), rs(&[(0, 100)])] {
            assert!(!f.extend(&tail), "{tail:?}");
            assert_eq!(f.len(), 2, "a refused tail changes nothing");
        }
        // An empty region at the old end sorts before a region starting there.
        let mut f = UniverseForest::build(&rs(&[(0, 10), (10, 10)]));
        assert!(!f.extend(&rs(&[(10, 20)])));
        assert!(f.extend(&rs(&[(11, 20)])));
        assert!(f.extend(&RegionSet::new()));
    }

    #[test]
    fn covers_checks_membership() {
        let u = rs(&[(0, 10), (20, 30)]);
        let f = UniverseForest::build(&u);
        assert!(f.covers(&rs(&[(0, 10)])));
        assert!(!f.covers(&rs(&[(0, 10), (1, 2)])));
        assert!(f.covers(&RegionSet::new()));
    }
}
