//! Sorted, duplicate-free sets of regions and the set-level operators of the
//! region algebra: `∪ ∩ −`, `ι` (innermost), `ω` (outermost), `⊃` / `⊂`
//! (inclusion) and their strict variants.
//!
//! The representation is a `Vec<Region>` in canonical sweep order (ascending
//! start, descending end at equal starts), mirroring the set-at-a-time
//! evaluation style of the PAT engine. Every operator has a linear sweep
//! over both operands, `O(n + m)` or `O((n + m) log m)`. Past a 16× size
//! skew the binary operators drive from the small side instead and gallop
//! into the large one, so their cost follows the small side and the
//! output:
//!
//! * `∩` and `−` gallop for each small-side region, `O(min · log max)`;
//! * `A ⊃ B` with a small `B` and a [flat](RegionSet::is_flat) `A` (no
//!   member includes another) probes `A` from each `b`;
//! * `A ⊂ B` with a small `A` and a flat `B` probes `B` from each `a`;
//! * `A ⊂ B` with a small `B` of any shape scans only the members of `A`
//!   that start inside some `b`.
//!
//! Nested outer operands and unskewed pairs keep the sweep. The `*_counted`
//! forms also return the regions an operator read, the unit the engine's
//! statistics count.

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

    /// Union with `tail` when all of `tail` sorts after every member, in
    /// place and in `O(|tail|)` (debug-checked).
    pub(crate) fn append_sorted(&mut self, tail: &RegionSet) {
        debug_assert!(
            self.regions.last().zip(tail.regions.first()).is_none_or(|(l, f)| l < f),
            "tail does not sort after the set"
        );
        self.regions.extend_from_slice(&tail.regions);
    }

    /// Whether no member includes another. In canonical order that holds
    /// exactly when starts and ends both strictly ascend, so one pass over
    /// neighbours decides it. Flat sets unlock the probing inclusion
    /// kernels of [`including_counted`](Self::including_counted) and
    /// [`included_in_counted`](Self::included_in_counted).
    pub fn is_flat(&self) -> bool {
        self.regions.windows(2).all(|w| w[0].start < w[1].start && w[0].end < w[1].end)
    }

    /// Set intersection (regions equal as begin/end pairs).
    pub fn intersect(&self, other: &RegionSet) -> RegionSet {
        self.intersect_counted(other).0
    }

    /// [`intersect`](Self::intersect), plus the number of operand regions
    /// it read.
    ///
    /// Adaptive: skewed operand sizes (|A| ≪ |B|) switch from the linear
    /// sweep to galloping (exponential) search over the larger side, so
    /// the cost is `O(min·log max)` instead of `O(min + max)` — the
    /// posting-list intersection strategy of the compressed-index
    /// literature, applied to the region algebra's `∩`.
    pub fn intersect_counted(&self, other: &RegionSet) -> (RegionSet, usize) {
        let (small, large) = if self.len() <= other.len() { (self, other) } else { (other, self) };
        if gallop_pays_off(small.len(), large.len()) {
            let mut reads = small.len();
            let mut out = Vec::with_capacity(small.len());
            let mut lo = 0usize;
            for r in &small.regions {
                lo += gallop(&large.regions[lo..], |x| x < r, &mut reads);
                if large.regions.get(lo) == Some(r) {
                    out.push(*r);
                    lo += 1;
                }
            }
            return (RegionSet { regions: out }, reads);
        }
        (self.intersect_sweep(other), self.len() + other.len())
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
    pub fn difference(&self, other: &RegionSet) -> RegionSet {
        self.difference_counted(other).0
    }

    /// [`difference`](Self::difference), plus the number of operand
    /// regions it read.
    ///
    /// Adaptive like [`intersect_counted`](Self::intersect_counted): when
    /// the subtrahend dwarfs `self`, each of `self`'s regions gallops into
    /// `other` instead of sweeping past its bulk. (The skew only pays off
    /// in that direction — every region of `self` is visited regardless.)
    pub fn difference_counted(&self, other: &RegionSet) -> (RegionSet, usize) {
        if gallop_pays_off(self.len(), other.len()) {
            let mut reads = self.len();
            let mut out = Vec::new();
            let mut lo = 0usize;
            for r in &self.regions {
                lo += gallop(&other.regions[lo..], |x| x < r, &mut reads);
                if other.regions.get(lo) == Some(r) {
                    lo += 1;
                } else {
                    out.push(*r);
                }
            }
            return (RegionSet { regions: out }, reads);
        }
        (self.difference_sweep(other), self.len() + other.len())
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
        self.including_counted(other, false, false).0
    }

    /// `R ⊃ S` with *strict* inclusion (the included region must differ).
    pub fn strictly_including(&self, other: &RegionSet) -> RegionSet {
        self.including_counted(other, false, true).0
    }

    /// `self ⊃ other` (strict when `strict`), plus the number of operand
    /// regions it read. `self_flat` states that `self` is
    /// [flat](Self::is_flat); the caller knows it without a scan (an
    /// indexed name's bit, or one passed through a subset operator).
    ///
    /// A flat `self` that dwarfs `other` (past the 16× gallop crossover)
    /// is probed from the small side in `O(|other|·log|self| + output)`;
    /// otherwise the linear sweep runs.
    pub fn including_counted(
        &self,
        other: &RegionSet,
        self_flat: bool,
        strict: bool,
    ) -> (RegionSet, usize) {
        debug_assert!(!self_flat || self.is_flat(), "including: `self` is not flat");
        if self.is_empty() || other.is_empty() {
            return (RegionSet::new(), 0);
        }
        if self_flat && gallop_pays_off(other.len(), self.len()) {
            return self.including_probed(other, strict);
        }
        (self.including_sweep(other, strict), self.len() + other.len())
    }

    /// `self ⊃ other` for a flat `self`: the members containing `b` start
    /// at or before `b.start`, and since a flat set's ends ascend too,
    /// they are a contiguous run ending at the last such member. Each `b`
    /// gallops to that member and back over the run's length; the runs
    /// are merged as they arrive (their right ends never fall back by
    /// more than one), so the output is canonical without a sort.
    fn including_probed(&self, other: &RegionSet, strict: bool) -> (RegionSet, usize) {
        let a = &self.regions;
        let mut reads = other.len();
        // Disjoint, ascending half-open index runs of `a` to emit.
        let mut runs: Vec<(usize, usize)> = Vec::new();
        let mut cursor = 0usize;
        for b in &other.regions {
            cursor += gallop(&a[cursor..], |r| r.start <= b.start, &mut reads);
            let mut hi = cursor;
            // The only member equal to `b` starts where `b` does, so it can
            // only be the last candidate.
            if strict && hi > 0 && a[hi - 1] == *b {
                hi -= 1;
            }
            let mut lo = hi - gallop_back(&a[..hi], |r| r.end >= b.end, &mut reads);
            if lo == hi {
                continue;
            }
            while let Some(&(prev_lo, prev_hi)) = runs.last() {
                if prev_hi < lo {
                    break;
                }
                runs.pop();
                lo = lo.min(prev_lo);
                hi = hi.max(prev_hi);
            }
            runs.push((lo, hi));
        }
        let mut out = Vec::with_capacity(runs.iter().map(|&(lo, hi)| hi - lo).sum());
        for (lo, hi) in runs {
            out.extend_from_slice(&a[lo..hi]);
        }
        (RegionSet::from_sorted(out), reads)
    }

    /// The linear sweep behind `⊃`: any shapes, `O((n + m) log m)`.
    fn including_sweep(&self, other: &RegionSet, strict: bool) -> RegionSet {
        // suffix_min_end[k] = min end among other.regions[k..]; the
        // sentinel at n is only read behind an explicit bound check.
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
                if lo == n || suffix_min_end[lo] > r.end {
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
                    Ok(ri) => ri + 1 < n && suffix_min_end[ri + 1] <= r.end,
                }
            })
            .copied()
            .collect();
        RegionSet { regions: out }
    }

    /// The paper's `R ⊂ S`: members of `self` that are included in at least
    /// one region of `other` (non-strict).
    pub fn included_in(&self, other: &RegionSet) -> RegionSet {
        self.included_in_counted(other, false, false).0
    }

    /// `R ⊂ S` with *strict* inclusion.
    pub fn strictly_included_in(&self, other: &RegionSet) -> RegionSet {
        self.included_in_counted(other, false, true).0
    }

    /// `self ⊂ other` (strict when `strict`), plus the number of operand
    /// regions it read. `other_flat` states that `other` is
    /// [flat](Self::is_flat).
    ///
    /// Past the 16× gallop crossover the small side drives: a small `self`
    /// probes a flat `other` for each member's one candidate container,
    /// and a small `other` scans only the members of `self` that start
    /// inside one of its regions. Otherwise the linear sweep runs.
    pub fn included_in_counted(
        &self,
        other: &RegionSet,
        other_flat: bool,
        strict: bool,
    ) -> (RegionSet, usize) {
        debug_assert!(!other_flat || other.is_flat(), "included_in: `other` is not flat");
        if self.is_empty() || other.is_empty() {
            return (RegionSet::new(), 0);
        }
        if other_flat && gallop_pays_off(self.len(), other.len()) {
            return self.included_in_probed(other, strict);
        }
        if gallop_pays_off(other.len(), self.len()) {
            return self.included_in_windows(other, strict);
        }
        (self.included_in_sweep(other, strict), self.len() + other.len())
    }

    /// `self ⊂ other` for a flat `other`: among the members of `other`
    /// starting at or before `a.start`, the last has the largest end, so
    /// it is the one candidate container of `a`.
    fn included_in_probed(&self, other: &RegionSet, strict: bool) -> (RegionSet, usize) {
        let b = &other.regions;
        let mut reads = self.len();
        let mut cursor = 0usize;
        let out = self
            .regions
            .iter()
            .filter(|a| {
                cursor += gallop(&b[cursor..], |r| r.start <= a.start, &mut reads);
                // Strict: a container equal to `a` leaves no other, since
                // every earlier member of a flat set ends before it.
                cursor > 0 && b[cursor - 1].end >= a.end && !(strict && b[cursor - 1] == **a)
            })
            .copied()
            .collect();
        (RegionSet { regions: out }, reads)
    }

    /// `self ⊂ other` for a small `other` of any shape: a member of `self`
    /// inside some `w` starts in `[w.start, w.end]`, so only those windows
    /// of `self` are scanned, each member once, and tested against all of
    /// `other` with the sweep's prefix-extrema test.
    fn included_in_windows(&self, other: &RegionSet, strict: bool) -> (RegionSet, usize) {
        let a = &self.regions;
        let b = &other.regions;
        let prefix_max_end = prefix_max_end(b);
        let mut reads = b.len();
        let mut out = Vec::new();
        let mut next = 0usize; // first member of `self` not yet scanned
        let mut k = 0usize; // b[..k] start at or before the member under test
        for w in b {
            let lo = next + gallop(&a[next..], |r| r.start < w.start, &mut reads);
            let hi = lo + gallop(&a[lo..], |r| r.start <= w.end, &mut reads);
            reads += hi - lo;
            for r in &a[lo..hi] {
                while k < b.len() && b[k].start <= r.start {
                    k += 1;
                }
                if contained_by_prefix(r, k, &prefix_max_end, b, strict) {
                    out.push(*r);
                }
            }
            next = next.max(hi);
        }
        (RegionSet { regions: out }, reads)
    }

    /// The linear sweep behind `⊂`: any shapes, `O((n + m) log m)`.
    fn included_in_sweep(&self, other: &RegionSet, strict: bool) -> RegionSet {
        let b = &other.regions;
        let prefix_max_end = prefix_max_end(b);
        let out = self
            .regions
            .iter()
            .filter(|r| {
                let hi = b.partition_point(|s| s.start <= r.start);
                contained_by_prefix(r, hi, &prefix_max_end, b, strict)
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

/// The index of the first region of `regions` on which `before` fails
/// (`before` must hold on a prefix), found by an exponential probe from
/// the front followed by a binary search within the last doubling window.
/// Adds the regions it compared to `*reads`.
pub(crate) fn gallop(
    regions: &[Region],
    before: impl Fn(&Region) -> bool,
    reads: &mut usize,
) -> usize {
    // Invariant: `before` holds on regions[..lo] and fails at regions[hi]
    // (or hi == len).
    let (mut lo, mut hi, mut step) = (0usize, regions.len(), 1usize);
    while lo < hi {
        let probe = (lo + step - 1).min(hi - 1);
        *reads += 1;
        if before(&regions[probe]) {
            lo = probe + 1;
            step <<= 1;
        } else {
            hi = probe;
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *reads += 1;
        if before(&regions[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The length of the longest suffix of `regions` on which `keep` holds
/// (`keep` must hold on a suffix): [`gallop`] run from the back.
fn gallop_back(regions: &[Region], keep: impl Fn(&Region) -> bool, reads: &mut usize) -> usize {
    let n = regions.len();
    let (mut lo, mut hi, mut step) = (0usize, n, 1usize);
    while lo < hi {
        let probe = (lo + step - 1).min(hi - 1);
        *reads += 1;
        if keep(&regions[n - 1 - probe]) {
            lo = probe + 1;
            step <<= 1;
        } else {
            hi = probe;
            break;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        *reads += 1;
        if keep(&regions[n - 1 - mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// `prefix_max_end[k]` = the largest end among `regions[..k]`; entry 0
/// stands for "no region" and is never read as an end.
fn prefix_max_end(regions: &[Region]) -> Vec<Pos> {
    let mut out = vec![0 as Pos; regions.len() + 1];
    for (k, r) in regions.iter().enumerate() {
        out[k + 1] = out[k].max(r.end);
    }
    out
}

/// Whether some region of `b` contains `r` (a distinct one when
/// `strict`), given that exactly `b[..hi]` start at or before `r.start`.
fn contained_by_prefix(
    r: &Region,
    hi: usize,
    prefix_max_end: &[Pos],
    b: &[Region],
    strict: bool,
) -> bool {
    if hi == 0 || prefix_max_end[hi] < r.end {
        return false;
    }
    if !strict {
        return true;
    }
    // Strict: a distinct container must exist. When r sits in `b` at index
    // ri, every distinct container sorts before it (smaller start, or equal
    // start with larger end), so the prefix extrema array answers in O(1) —
    // the old witness scan was O(|b|) per region on equal-start pileups.
    match b.binary_search(r) {
        Err(_) => true,
        Ok(ri) => ri > 0 && prefix_max_end[ri] >= r.end,
    }
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

    /// Regressions: the `⊂` sweep's "no container yet" slot (prefix max
    /// end 0) used to pass for an empty region at offset 0.
    #[test]
    fn included_in_empty_region_at_offset_zero() {
        let zero = rs(&[(0, 0)]);
        assert!(zero.included_in(&rs(&[(5, 9)])).is_empty());
        assert!(zero.strictly_included_in(&zero).is_empty());
        assert_eq!(zero.included_in(&zero), zero);
        assert_eq!(zero.included_in(&rs(&[(0, 3)])), zero);
    }

    /// `SplitMix64`: the oracle suite's seeded generator.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One of the oracle suite's operand shapes, `n` regions long.
    fn shaped_set(shape: usize, n: usize, rng: &mut u64) -> RegionSet {
        let mut next = |m: u64| (splitmix(rng) % m) as Pos;
        let mut regions = Vec::with_capacity(n);
        let (mut start, mut end) = (0 as Pos, 0 as Pos);
        for _ in 0..n {
            match shape {
                // Flat and disjoint, touching or with gaps (records).
                0 => {
                    start = end + next(3);
                    end = start + 1 + next(6);
                }
                // Flat but overlapping: starts and ends both ascend.
                1 => {
                    start += 1 + next(3);
                    end = (end + 1).max(start + next(8));
                }
                // Nested and overlapping, empty and equal-start regions.
                2 => {
                    let at = next(4 * n as u64 + 8);
                    regions.push(Region::new(at, at + next(12)));
                    continue;
                }
                // Equal-extent pileups: many regions sharing a start or an end.
                _ => {
                    let at = next(n as u64 / 4 + 2) * 3;
                    let len = next(4);
                    regions.push(if next(2) == 0 {
                        Region::new(at, at + len)
                    } else {
                        Region::new(at.saturating_sub(len), at)
                    });
                    continue;
                }
            }
            regions.push(Region::new(start, end));
        }
        RegionSet::from_regions(regions)
    }

    /// The adaptive `⊃`/`⊂` kernels against the quadratic definitions, on
    /// flat, overlapping, nested, empty and equal-extent operands at sizes
    /// on both sides of the gallop crossover.
    #[test]
    fn inclusion_kernels_match_brute_force_oracle() {
        let sizes = [0usize, 1, 2, 7, 30, 120, 700];
        for seed in 1..=8u64 {
            let mut rng = seed;
            for &na in &sizes {
                for &nb in &sizes {
                    let (sa, sb) =
                        ((splitmix(&mut rng) % 4) as usize, (splitmix(&mut rng) % 4) as usize);
                    let a = shaped_set(sa, na, &mut rng);
                    // Share members now and then, densely or sparsely (so a
                    // small side still meets its equals), so equal extents
                    // meet across the operands.
                    let mut b = shaped_set(sb, nb, &mut rng);
                    if seed % 2 == 0 {
                        let step = if seed % 4 == 0 { 5 } else { 40 };
                        b = b.union(&RegionSet::from_regions(
                            a.iter().step_by(step).copied().collect(),
                        ));
                    }
                    let ctx = format!("seed {seed}, |A| {na} shape {sa}, |B| {nb} shape {sb}");
                    let flat = |x: &RegionSet| {
                        x.iter().enumerate().all(|(i, r)| {
                            x.iter().enumerate().all(|(j, s)| i == j || !r.includes(s))
                        })
                    };
                    assert_eq!(a.is_flat(), flat(&a), "is_flat: {ctx}");
                    for strict in [false, true] {
                        let want: Vec<Region> = a
                            .iter()
                            .filter(|r| b.iter().any(|s| r.includes(s) && !(strict && s == *r)))
                            .copied()
                            .collect();
                        let (got, _) = a.including_counted(&b, a.is_flat(), strict);
                        assert_eq!(got.as_slice(), want.as_slice(), "⊃ strict={strict}: {ctx}");
                        let (got, _) = a.including_counted(&b, false, strict);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "⊃ sweep strict={strict}: {ctx}"
                        );
                        let want: Vec<Region> = a
                            .iter()
                            .filter(|r| b.iter().any(|s| s.includes(r) && !(strict && s == *r)))
                            .copied()
                            .collect();
                        let (got, _) = a.included_in_counted(&b, b.is_flat(), strict);
                        assert_eq!(got.as_slice(), want.as_slice(), "⊂ strict={strict}: {ctx}");
                        let (got, _) = a.included_in_counted(&b, false, strict);
                        assert_eq!(
                            got.as_slice(),
                            want.as_slice(),
                            "⊂ unflat strict={strict}: {ctx}"
                        );
                    }
                }
            }
        }
    }

    /// From a small side, the probing kernels read regions in proportion
    /// to the small side (times a log), not to the large one.
    #[test]
    fn skewed_inclusion_reads_follow_the_small_side() {
        let mut rng = 11u64;
        let big = shaped_set(0, 50_000, &mut rng);
        assert!(big.is_flat());
        let few = RegionSet::from_regions(big.iter().step_by(5_000).copied().collect());
        let inner = RegionSet::from_regions(
            few.iter().map(|r| Region::new(r.start, r.start.max(r.end - 1))).collect(),
        );
        let bound = 10 * 2 * 17 * 2;
        let (swept, sweep_reads) = big.including_counted(&inner, false, false);
        assert_eq!(sweep_reads, big.len() + inner.len(), "the sweep reads both sides whole");
        let (out, reads) = big.including_counted(&inner, true, false);
        assert_eq!(out, swept);
        assert!(few.iter().all(|r| out.contains(r)));
        assert!(reads < bound, "⊃ probed read {reads}");
        let (out, reads) = inner.included_in_counted(&big, true, false);
        assert_eq!(out, inner);
        assert!(reads < bound, "⊂ probed read {reads}");
        let (out, reads) = big.included_in_counted(&few, false, false);
        assert_eq!(out, few);
        assert!(reads < bound, "⊂ windows read {reads}");
        let (_, reads) = big.intersect_counted(&few);
        assert!(reads < bound, "∩ read {reads}");
    }

    #[test]
    fn gallop_to_finds_the_partition_point() {
        let set = random_set(42, 2000, 10_000);
        let regions = set.as_slice();
        let mut seed = 7u64;
        for _ in 0..200 {
            let start = (xorshift(&mut seed) % 11_000) as u32;
            let target = Region::new(start, start + (xorshift(&mut seed) % 6) as u32);
            let mut reads = 0;
            assert_eq!(
                super::gallop(regions, |r| r < &target, &mut reads),
                regions.partition_point(|r| r < &target),
                "{target}"
            );
            assert!(reads <= 2 * 12 + 2, "{reads} reads for one probe into 2000 regions");
            assert_eq!(
                super::gallop_back(regions, |r| r >= &target, &mut reads),
                regions.len() - regions.partition_point(|r| r < &target),
                "{target}"
            );
        }
        assert_eq!(super::gallop(&[], |r| r < &Region::new(1, 2), &mut 0), 0);
        assert_eq!(super::gallop_back(&[], |r| r >= &Region::new(1, 2), &mut 0), 0);
    }
}
