//! Sorted, duplicate-free sets of regions and the set-level operators of the
//! region algebra: `∪ ∩ −`, `ι` (innermost), `ω` (outermost), `⊃` / `⊂`
//! (inclusion) and their strict variants.
//!
//! The representation is a `Vec<Region>` in canonical sweep order (ascending
//! start, descending end at equal starts). Every operator runs in
//! `O(n + m)` or `O((n + m) log n)` over sorted inputs, mirroring the
//! set-at-a-time evaluation style of the PAT engine.

use crate::Region;
use qof_text::Pos;
use std::fmt;

/// A set of regions, ordered canonically, with no duplicates. Overlapping
/// and nested members are allowed ("no restrictions on overlaps", §3.1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct RegionSet {
    regions: Vec<Region>,
}

impl RegionSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a set from arbitrary regions: sorts canonically and dedups.
    pub fn from_regions(mut regions: Vec<Region>) -> Self {
        regions.sort_unstable();
        regions.dedup();
        Self { regions }
    }

    /// Builds a set from regions already in canonical order (debug-checked).
    pub fn from_sorted(regions: Vec<Region>) -> Self {
        debug_assert!(regions.windows(2).all(|w| w[0] < w[1]), "input not in canonical order");
        Self { regions }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// True when the set has no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// The regions in canonical order.
    pub fn as_slice(&self) -> &[Region] {
        &self.regions
    }

    /// Iterates in canonical order.
    pub fn iter(&self) -> std::slice::Iter<'_, Region> {
        self.regions.iter()
    }

    /// Membership test (binary search).
    pub fn contains(&self, r: &Region) -> bool {
        self.regions.binary_search(r).is_ok()
    }

    /// Total bytes covered, counting overlaps once (used by scan accounting).
    pub fn covered_bytes(&self) -> u64 {
        let mut total = 0u64;
        let mut covered_to: Pos = 0;
        for r in &self.regions {
            let from = r.start.max(covered_to);
            if r.end > from {
                total += u64::from(r.end - from);
                covered_to = r.end;
            }
        }
        total
    }

    /// Sum of region lengths (overlaps counted multiply).
    pub fn total_bytes(&self) -> u64 {
        self.regions.iter().map(|r| u64::from(r.len())).sum()
    }

    /// Set union.
    pub fn union(&self, other: &RegionSet) -> RegionSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.len() && j < other.len() {
            match self.regions[i].cmp(&other.regions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.regions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(other.regions[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(self.regions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.regions[i..]);
        out.extend_from_slice(&other.regions[j..]);
        RegionSet { regions: out }
    }

    /// Set intersection (regions equal as begin/end pairs).
    ///
    /// Adaptive: skewed operand sizes (|A| ≪ |B|) switch from the linear
    /// sweep to galloping (exponential) search over the larger side, so
    /// the cost is `O(min·log max)` instead of `O(min + max)` — the
    /// posting-list intersection strategy of the compressed-index
    /// literature, applied to the region algebra's `∩`.
    pub fn intersect(&self, other: &RegionSet) -> RegionSet {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        if gallop_pays_off(small.len(), large.len()) {
            let mut out = Vec::with_capacity(small.len());
            let mut lo = 0usize;
            for r in &small.regions {
                lo += gallop_to(&large.regions[lo..], r);
                if large.regions.get(lo) == Some(r) {
                    out.push(*r);
                    lo += 1;
                }
            }
            return RegionSet { regions: out };
        }
        self.intersect_sweep(other)
    }

    /// The naive linear-merge intersection — the oracle the adaptive
    /// [`intersect`](Self::intersect) is property-tested against.
    pub fn intersect_sweep(&self, other: &RegionSet) -> RegionSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.len() && j < other.len() {
            match self.regions[i].cmp(&other.regions[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(self.regions[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        RegionSet { regions: out }
    }

    /// Set difference `self − other`.
    ///
    /// Adaptive like [`intersect`](Self::intersect): when the subtrahend
    /// dwarfs `self`, each of `self`'s regions gallops into `other`
    /// instead of sweeping past its bulk. (The skew only pays off in that
    /// direction — every region of `self` is visited regardless.)
    pub fn difference(&self, other: &RegionSet) -> RegionSet {
        if gallop_pays_off(self.len(), other.len()) {
            let mut out = Vec::new();
            let mut lo = 0usize;
            for r in &self.regions {
                lo += gallop_to(&other.regions[lo..], r);
                if other.regions.get(lo) == Some(r) {
                    lo += 1;
                } else {
                    out.push(*r);
                }
            }
            return RegionSet { regions: out };
        }
        self.difference_sweep(other)
    }

    /// The naive linear-merge difference — the oracle the adaptive
    /// [`difference`](Self::difference) is property-tested against.
    pub fn difference_sweep(&self, other: &RegionSet) -> RegionSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.len() {
            if j >= other.len() {
                out.extend_from_slice(&self.regions[i..]);
                break;
            }
            match self.regions[i].cmp(&other.regions[j]) {
                std::cmp::Ordering::Less => {
                    out.push(self.regions[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        RegionSet { regions: out }
    }

    /// The paper's `R ⊃ S`: members of `self` that include at least one
    /// region of `other` (non-strict inclusion).
    pub fn including(&self, other: &RegionSet) -> RegionSet {
        self.including_impl(other, false)
    }

    /// `R ⊃ S` with *strict* inclusion (the included region must differ).
    pub fn strictly_including(&self, other: &RegionSet) -> RegionSet {
        self.including_impl(other, true)
    }

    fn including_impl(&self, other: &RegionSet, strict: bool) -> RegionSet {
        if other.is_empty() {
            return RegionSet::new();
        }
        // suffix_min_end[k] = min end among other.regions[k..].
        let n = other.len();
        let mut suffix_min_end = vec![Pos::MAX; n + 1];
        for k in (0..n).rev() {
            suffix_min_end[k] = suffix_min_end[k + 1].min(other.regions[k].end);
        }
        let starts: Vec<Pos> = other.regions.iter().map(|r| r.start).collect();
        let out = self
            .regions
            .iter()
            .filter(|r| {
                let lo = starts.partition_point(|&s| s < r.start);
                if suffix_min_end[lo] > r.end {
                    return false;
                }
                if !strict {
                    return true;
                }
                // Strict: some included region must differ from r. The only
                // region equal to r that `other` can hold is r itself. When
                // r is present at index ri, every region in [lo, ri) shares
                // r's start with a larger end (canonical order) and is never
                // included, so a distinct witness exists iff the suffix past
                // ri still reaches down to r.end — an O(1) extrema test
                // instead of a scan over equal-start pileups.
                match other.regions.binary_search(r) {
                    Err(_) => true,
                    Ok(ri) => suffix_min_end[ri + 1] <= r.end,
                }
            })
            .copied()
            .collect();
        RegionSet { regions: out }
    }

    /// The paper's `R ⊂ S`: members of `self` that are included in at least
    /// one region of `other` (non-strict).
    pub fn included_in(&self, other: &RegionSet) -> RegionSet {
        self.included_in_impl(other, false)
    }

    /// `R ⊂ S` with *strict* inclusion.
    pub fn strictly_included_in(&self, other: &RegionSet) -> RegionSet {
        self.included_in_impl(other, true)
    }

    fn included_in_impl(&self, other: &RegionSet, strict: bool) -> RegionSet {
        if other.is_empty() {
            return RegionSet::new();
        }
        // prefix_max_end[k] = max end among other.regions[..k].
        let n = other.len();
        let mut prefix_max_end = vec![0 as Pos; n + 1];
        for k in 0..n {
            prefix_max_end[k + 1] = prefix_max_end[k].max(other.regions[k].end);
        }
        let starts: Vec<Pos> = other.regions.iter().map(|r| r.start).collect();
        let out = self
            .regions
            .iter()
            .filter(|r| {
                let hi = starts.partition_point(|&s| s <= r.start);
                if prefix_max_end[hi] < r.end {
                    return false;
                }
                if !strict {
                    return true;
                }
                // Strict: a distinct container must exist. When r sits in
                // `other` at index ri, every distinct container sorts before
                // it (smaller start, or equal start with larger end), so the
                // prefix extrema array answers in O(1) — the old witness
                // scan was O(|other|) per region on equal-start pileups.
                match other.regions.binary_search(r) {
                    Err(_) => true,
                    Ok(ri) => prefix_max_end[ri] >= r.end,
                }
            })
            .copied()
            .collect();
        RegionSet { regions: out }
    }

    /// The paper's `ι(R)` (innermost): members containing no *other* member.
    pub fn innermost(&self) -> RegionSet {
        let n = self.len();
        // In canonical order, r[i] contains r[j] for j > i iff r[j].end <= r[i].end.
        let mut suffix_min_end = vec![Pos::MAX; n + 1];
        for k in (0..n).rev() {
            suffix_min_end[k] = suffix_min_end[k + 1].min(self.regions[k].end);
        }
        let out = (0..n)
            .filter(|&i| suffix_min_end[i + 1] > self.regions[i].end)
            .map(|i| self.regions[i])
            .collect();
        RegionSet { regions: out }
    }

    /// The paper's `ω(R)` (outermost): members included in no *other* member.
    pub fn outermost(&self) -> RegionSet {
        let n = self.len();
        // In canonical order, r[j] contains r[i] for j < i iff r[j].end >= r[i].end.
        let mut best: Pos = 0;
        let mut out = Vec::new();
        for i in 0..n {
            if i == 0 || best < self.regions[i].end {
                out.push(self.regions[i]);
            }
            best = best.max(self.regions[i].end);
        }
        RegionSet { regions: out }
    }
}

/// Whether galloping beats the linear sweep for operand sizes
/// `(small, large)`: the sweep touches `small + large` regions, galloping
/// roughly `small · log₂ large`, and the crossover (with comparison
/// constants folded in) sits near a 16× skew.
fn gallop_pays_off(small: usize, large: usize) -> bool {
    small > 0 && small.saturating_mul(16) < large
}

/// Index of the first region in `regions` that is `>= target`, found by
/// exponential (galloping) probe followed by a binary search within the
/// last doubling window. Returns `regions.len()` when every region is
/// smaller.
fn gallop_to(regions: &[Region], target: &Region) -> usize {
    if regions.first().is_none_or(|r| r >= target) {
        return 0;
    }
    // Invariant: regions[lo] < target <= regions[hi] (hi may be len).
    let mut step = 1usize;
    let mut lo = 0usize;
    let hi = loop {
        let probe = lo + step;
        match regions.get(probe) {
            Some(r) if r < target => {
                lo = probe;
                step <<= 1;
            }
            _ => break probe.min(regions.len()),
        }
    };
    lo + 1 + regions[lo + 1..hi].partition_point(|r| r < target)
}

impl FromIterator<Region> for RegionSet {
    fn from_iter<T: IntoIterator<Item = Region>>(iter: T) -> Self {
        Self::from_regions(iter.into_iter().collect())
    }
}

impl<'a> IntoIterator for &'a RegionSet {
    type Item = &'a Region;
    type IntoIter = std::slice::Iter<'a, Region>;
    fn into_iter(self) -> Self::IntoIter {
        self.regions.iter()
    }
}

impl fmt::Display for RegionSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.regions.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(pairs: &[(Pos, Pos)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = rs(&[(5, 10), (0, 3), (5, 10), (5, 20)]);
        assert_eq!(s.len(), 3);
        let v: Vec<_> = s.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(v, [(0, 3), (5, 20), (5, 10)]); // enclosing-first at equal start
    }

    #[test]
    fn set_operations() {
        let a = rs(&[(0, 1), (2, 3), (4, 5)]);
        let b = rs(&[(2, 3), (6, 7)]);
        assert_eq!(a.union(&b), rs(&[(0, 1), (2, 3), (4, 5), (6, 7)]));
        assert_eq!(a.intersect(&b), rs(&[(2, 3)]));
        assert_eq!(a.difference(&b), rs(&[(0, 1), (4, 5)]));
        assert_eq!(b.difference(&a), rs(&[(6, 7)]));
    }

    #[test]
    fn including_basic() {
        let refs = rs(&[(0, 100), (100, 200), (200, 300)]);
        let names = rs(&[(10, 20), (110, 120)]);
        assert_eq!(refs.including(&names), rs(&[(0, 100), (100, 200)]));
    }

    #[test]
    fn including_is_nonstrict() {
        let a = rs(&[(5, 10)]);
        let b = rs(&[(5, 10)]);
        assert_eq!(a.including(&b), rs(&[(5, 10)]));
        assert!(a.strictly_including(&b).is_empty());
    }

    #[test]
    fn strictly_including_finds_distinct_witness() {
        let a = rs(&[(5, 10)]);
        let b = rs(&[(5, 10), (6, 8)]);
        assert_eq!(a.strictly_including(&b), rs(&[(5, 10)]));
    }

    #[test]
    fn included_in_basic() {
        let names = rs(&[(10, 20), (110, 120), (500, 510)]);
        let refs = rs(&[(0, 100), (100, 200)]);
        assert_eq!(names.included_in(&refs), rs(&[(10, 20), (110, 120)]));
        assert!(rs(&[(5, 10)]).strictly_included_in(&rs(&[(5, 10)])).is_empty());
        assert_eq!(rs(&[(5, 10)]).strictly_included_in(&rs(&[(5, 10), (0, 50)])), rs(&[(5, 10)]));
    }

    #[test]
    fn included_in_boundary_touch() {
        // s ends exactly where r ends: still included.
        let a = rs(&[(5, 10)]);
        let b = rs(&[(0, 10)]);
        assert_eq!(a.included_in(&b), a);
        // s starts exactly at r.start: included.
        let c = rs(&[(0, 4)]);
        assert_eq!(c.included_in(&b), c);
    }

    #[test]
    fn innermost_outermost() {
        // Nesting: (0,100) ⊃ (10,50) ⊃ (20,30); plus a disjoint (200, 210).
        let s = rs(&[(0, 100), (10, 50), (20, 30), (200, 210)]);
        assert_eq!(s.innermost(), rs(&[(20, 30), (200, 210)]));
        assert_eq!(s.outermost(), rs(&[(0, 100), (200, 210)]));
    }

    #[test]
    fn innermost_with_overlaps() {
        // (0,10) and (5,15) overlap but neither contains the other.
        let s = rs(&[(0, 10), (5, 15)]);
        assert_eq!(s.innermost(), s);
        assert_eq!(s.outermost(), s);
    }

    #[test]
    fn innermost_equal_start() {
        let s = rs(&[(5, 20), (5, 10)]);
        assert_eq!(s.innermost(), rs(&[(5, 10)]));
        assert_eq!(s.outermost(), rs(&[(5, 20)]));
    }

    #[test]
    fn innermost_equal_end() {
        let s = rs(&[(0, 20), (10, 20)]);
        assert_eq!(s.innermost(), rs(&[(10, 20)]));
        assert_eq!(s.outermost(), rs(&[(0, 20)]));
    }

    #[test]
    fn empty_set_behaviour() {
        let e = RegionSet::new();
        let s = rs(&[(0, 5)]);
        assert!(e.union(&e).is_empty());
        assert_eq!(e.union(&s), s);
        assert!(s.including(&e).is_empty());
        assert!(s.included_in(&e).is_empty());
        assert!(e.innermost().is_empty());
        assert!(e.outermost().is_empty());
    }

    #[test]
    fn covered_bytes_counts_overlaps_once() {
        let s = rs(&[(0, 10), (5, 15), (20, 25)]);
        assert_eq!(s.covered_bytes(), 20);
        assert_eq!(s.total_bytes(), 25);
        // Nested regions: outer already covers inner.
        let t = rs(&[(0, 100), (10, 20)]);
        assert_eq!(t.covered_bytes(), 100);
    }

    /// Regression: the strict-inclusion fallback used to scan `other`
    /// linearly per region, degenerating to O(|R|·|S|) on equal-start /
    /// equal-end pileups. With N = 60 000 the old code performed ~1.8e9
    /// witness-scan steps here (minutes in a debug build); the extrema-array
    /// test keeps the whole thing O(N log N).
    #[test]
    fn strict_inclusion_pathological_pileups_stay_fast() {
        const N: Pos = 60_000;
        // Equal-start pileup: {(0, j) : 1 <= j <= N}. Every region except
        // the smallest strictly includes a shorter one.
        let pileup =
            RegionSet::from_regions((1..=N).map(|j| Region::new(0, j)).collect::<Vec<_>>());
        let incl = pileup.strictly_including(&pileup);
        assert_eq!(incl.len(), (N - 1) as usize);
        assert!(!incl.contains(&Region::new(0, 1)));
        // ... and every region except the largest is strictly included.
        let sub = pileup.strictly_included_in(&pileup);
        assert_eq!(sub.len(), (N - 1) as usize);
        assert!(!sub.contains(&Region::new(0, N)));
        // Disjoint unit regions: the non-strict prefix/suffix test passes
        // (each region includes itself), but no distinct witness exists, so
        // the old fallback scanned every preceding region before giving up.
        let units = RegionSet::from_regions(
            (0..N).map(|i| Region::new(2 * i, 2 * i + 1)).collect::<Vec<_>>(),
        );
        assert!(units.strictly_included_in(&units).is_empty());
        assert!(units.strictly_including(&units).is_empty());
    }

    #[test]
    fn strict_inclusion_matches_naive_oracle() {
        // Dense overlapping layout: cross-check both strict operators
        // against the quadratic definition.
        let mut regions = Vec::new();
        for start in 0..12u32 {
            for len in 0..6u32 {
                if (start + len) % 3 != 2 {
                    regions.push(Region::new(start, start + len + 1));
                }
            }
        }
        let set = RegionSet::from_regions(regions.clone());
        let other = RegionSet::from_regions(
            regions.iter().filter(|r| r.start % 2 == 0).copied().collect::<Vec<_>>(),
        );
        for (a, b) in [(&set, &other), (&other, &set), (&set, &set)] {
            let fast = a.strictly_including(b);
            let naive: Vec<Region> = a
                .iter()
                .filter(|r| b.iter().any(|s| s != *r && r.start <= s.start && s.end <= r.end))
                .copied()
                .collect();
            assert_eq!(fast.as_slice(), naive.as_slice());
            let fast = a.strictly_included_in(b);
            let naive: Vec<Region> = a
                .iter()
                .filter(|r| b.iter().any(|s| s != *r && s.start <= r.start && r.end <= s.end))
                .copied()
                .collect();
            assert_eq!(fast.as_slice(), naive.as_slice());
        }
    }

    #[test]
    fn contains_uses_exact_extents() {
        let s = rs(&[(3, 9)]);
        assert!(s.contains(&Region::new(3, 9)));
        assert!(!s.contains(&Region::new(3, 8)));
    }

    /// A deterministic xorshift generator — enough randomness to sweep
    /// size skews without a proptest dependency in the default build.
    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn random_set(seed: u64, n: usize, universe: u32) -> RegionSet {
        let mut s = seed | 1;
        let regions: Vec<Region> = (0..n)
            .map(|_| {
                let start = (xorshift(&mut s) % u64::from(universe)) as u32;
                let len = (xorshift(&mut s) % 9) as u32;
                Region::new(start, start + len)
            })
            .collect();
        RegionSet::from_regions(regions)
    }

    #[test]
    fn galloping_intersect_and_difference_match_the_sweep() {
        // Property: across skews from balanced to 1:4096 — spanning the
        // adaptive crossover in both directions — the galloping paths are
        // element-identical to the naive sweep, including each operand
        // order and self-application.
        let mut seed = 0x9e3779b97f4a7c15;
        for (na, nb) in
            [(0, 100), (1, 0), (1, 1), (3, 700), (25, 25), (7, 4096), (300, 300), (2000, 5)]
        {
            for round in 0..4u64 {
                let a = random_set(xorshift(&mut seed), na, 500 + (round * 37) as u32);
                let b = random_set(xorshift(&mut seed), nb, 500);
                for (x, y) in [(&a, &b), (&b, &a), (&a, &a)] {
                    assert_eq!(
                        x.intersect(y).as_slice(),
                        x.intersect_sweep(y).as_slice(),
                        "intersect {na}x{nb} round {round}"
                    );
                    assert_eq!(
                        x.difference(y).as_slice(),
                        x.difference_sweep(y).as_slice(),
                        "difference {na}x{nb} round {round}"
                    );
                }
            }
        }
    }

    #[test]
    fn gallop_to_finds_the_partition_point() {
        let set = random_set(42, 2000, 10_000);
        let regions = set.as_slice();
        let mut seed = 7u64;
        for _ in 0..200 {
            let start = (xorshift(&mut seed) % 11_000) as u32;
            let target = Region::new(start, start + (xorshift(&mut seed) % 6) as u32);
            assert_eq!(
                super::gallop_to(regions, &target),
                regions.partition_point(|r| r < &target),
                "{target}"
            );
        }
        assert_eq!(super::gallop_to(&[], &Region::new(1, 2)), 0);
    }
}
