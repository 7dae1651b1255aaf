//! The *universe forest*: the nesting structure of all indexed regions.
//!
//! Direct inclusion (`⊃d`, `⊂d`) is defined relative to the whole region
//! index: `r` directly includes `s` iff `r ⊇ s` and *no other indexed
//! region lies strictly between them* (§3.1). Evaluating it efficiently
//! therefore needs, for any region, its deepest strict enclosure among the
//! indexed regions. When the indexed regions are properly nested (always the
//! case for regions extracted from a parse tree), that structure is a
//! forest, built here with a single stack sweep.

use crate::{Region, RegionSet};

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
}

/// Parent link of a root region.
const NO_PARENT: u32 = u32::MAX;

impl UniverseForest {
    /// Builds the forest for `universe` (all indexed regions, deduplicated).
    pub fn build(universe: &RegionSet) -> Self {
        let regions: Vec<Region> = universe.as_slice().to_vec();
        assert!(regions.len() < NO_PARENT as usize, "universe too large for u32 parent links");
        let mut parent: Vec<u32> = vec![NO_PARENT; regions.len()];
        let mut properly_nested = true;
        let mut stack: Vec<u32> = Vec::new();
        for (i, r) in regions.iter().enumerate() {
            while let Some(&top) = stack.last() {
                if regions[top as usize].end <= r.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&top) = stack.last() {
                let t = regions[top as usize];
                if t.end >= r.end {
                    parent[i] = top;
                } else {
                    // Partial overlap: the universe is not properly nested.
                    properly_nested = false;
                    // Best effort: the nearest stack entry that does contain r.
                    if let Some(&anc) =
                        stack.iter().rev().find(|&&k| regions[k as usize].end >= r.end)
                    {
                        parent[i] = anc;
                    }
                }
            }
            stack.push(i as u32);
        }
        Self { regions, parent, properly_nested }
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

    /// For each region of `query` (in canonical order), the extents of its
    /// deepest **strict** enclosure among the universe regions, or `None`
    /// when no universe region strictly contains it.
    ///
    /// Correct for arbitrary `query` sets as long as the universe is
    /// properly nested.
    pub fn strict_enclosures(&self, query: &RegionSet) -> Vec<Option<Region>> {
        let mut out = Vec::with_capacity(query.len());
        // Merged sweep: universe regions are pushed onto an open-region
        // stack; each query is answered from the stack.
        let mut stack: Vec<Region> = Vec::new();
        let mut ui = 0usize;
        for q in query {
            // Push universe regions that come before q in canonical order
            // (ties: universe first, since an equal-extents universe region
            // must be on the stack when q is answered).
            while ui < self.regions.len() && self.regions[ui] <= *q {
                let u = self.regions[ui];
                while let Some(top) = stack.last() {
                    if top.end <= u.start {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                stack.push(u);
                ui += 1;
            }
            while let Some(top) = stack.last() {
                if top.end <= q.start {
                    stack.pop();
                } else {
                    break;
                }
            }
            // Stack ends are non-increasing from bottom to top; the deepest
            // strict container is the last entry with end >= q.end that is
            // not q itself.
            let k = stack.partition_point(|r| r.end >= q.end);
            let mut ans = None;
            for j in (0..k).rev() {
                if stack[j] != *q {
                    debug_assert!(stack[j].includes(q) || !self.properly_nested);
                    ans = Some(stack[j]);
                    break;
                }
            }
            out.push(ans);
        }
        out
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

    #[test]
    fn strict_enclosures_for_members_and_strangers() {
        let u = rs(&[(0, 100), (10, 50), (20, 30)]);
        let f = UniverseForest::build(&u);
        // Universe members: enclosure == parent.
        let q = rs(&[(10, 50), (20, 30)]);
        let e = f.strict_enclosures(&q);
        assert_eq!(e, vec![Some(Region::new(0, 100)), Some(Region::new(10, 50))]);
        // A stranger region nested below (20,30).
        let q2 = rs(&[(22, 25)]);
        assert_eq!(f.strict_enclosures(&q2), vec![Some(Region::new(20, 30))]);
        // A stranger with the same extents as a universe region.
        let q3 = rs(&[(20, 30)]);
        assert_eq!(f.strict_enclosures(&q3), vec![Some(Region::new(10, 50))]);
        // Outside everything.
        let q4 = rs(&[(500, 600)]);
        assert_eq!(f.strict_enclosures(&q4), vec![None]);
    }

    #[test]
    fn strict_enclosures_touching_boundaries() {
        let u = rs(&[(0, 10), (10, 20)]);
        let f = UniverseForest::build(&u);
        // Query at [10, 12): inside the second region only (half-open).
        assert_eq!(f.strict_enclosures(&rs(&[(10, 12)])), vec![Some(Region::new(10, 20))]);
        // Query spanning the boundary is inside neither.
        assert_eq!(f.strict_enclosures(&rs(&[(8, 12)])), vec![None]);
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
