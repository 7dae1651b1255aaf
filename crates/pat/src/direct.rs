//! Direct inclusion: `R ⊃d S` selects the regions of `R` that *directly*
//! include a region of `S`, i.e. with no other indexed region in between
//! (§3.1). Dually for `R ⊂d S`.
//!
//! Three implementations are provided:
//!
//! * [`direct_including`] — the production path: it navigates the universe
//!   nesting forest from the operand that holds the witnesses, in
//!   `O(|S| · (log |U| + steps) + |S| · log |R|)`; it falls back to the
//!   brute-force oracle when the universe is not properly nested or the
//!   other operand contains extents outside the universe. The `_counted`
//!   forms take that operand's membership as a known bit and return the
//!   regions read.
//! * [`direct_including_layered`] — the paper's while-loop program, verbatim
//!   (modulo the strictness of the betweenness test, which the formal
//!   definition requires): it iterates over nested layers of `R`, using only
//!   `ω`, `−`, `∪`, `⊃`, `⊂`. The paper presents it "to give intuition about
//!   the cost of this operation"; experiment E3 benchmarks exactly this cost
//!   gap. Correct for properly nested instances.
//! * [`direct_including_naive`] — a quadratic transliteration of the
//!   definition, used as the differential-testing oracle.

use crate::{Region, RegionSet, UniverseForest};

/// `R ⊃d S` relative to the indexed universe described by `forest`.
pub fn direct_including(r: &RegionSet, s: &RegionSet, forest: &UniverseForest) -> RegionSet {
    direct_including_counted(r, s, forest, forest.covers(r)).0
}

/// [`direct_including`] for a caller that knows whether every member of
/// `r` has its extents in the universe (`r_indexed`), plus the regions
/// read: enclosure probes and parent steps, and the `∩` with `r`.
pub fn direct_including_counted(
    r: &RegionSet,
    s: &RegionSet,
    forest: &UniverseForest,
    r_indexed: bool,
) -> (RegionSet, usize) {
    if !forest.is_properly_nested() || !r_indexed {
        return naive_fallback(r, s, forest, direct_including_naive);
    }
    // r ⊇d s  ⇔  r ⊇ s ∧ ¬(p(s) ⊊ r), where p(s) is the deepest strict
    // indexed enclosure of s. For r with extents in the universe this means
    // extents(r) == extents(s) or extents(r) == p(s): every other indexed
    // region strictly including s also includes p(s).
    let (enclosures, mut read) = forest.strict_enclosures(s);
    let mut targets: Vec<Region> = Vec::with_capacity(s.len() * 2);
    for (sr, p) in s.iter().zip(enclosures) {
        targets.push(*sr);
        targets.extend(p.map(|p| forest.regions()[p]));
    }
    let (out, intersected) = r.intersect_counted(&RegionSet::from_regions(targets));
    read += intersected;
    (out, read)
}

/// `R ⊂d S` relative to the indexed universe described by `forest`.
pub fn direct_included_in(r: &RegionSet, s: &RegionSet, forest: &UniverseForest) -> RegionSet {
    direct_included_in_counted(r, s, forest, forest.covers(s)).0
}

/// [`direct_included_in`] for a caller that knows whether every member of
/// `s` has its extents in the universe (`s_indexed`), plus the regions
/// read: enclosure probes and parent steps, and one membership probe of
/// `s` per tested region.
pub fn direct_included_in_counted(
    r: &RegionSet,
    s: &RegionSet,
    forest: &UniverseForest,
    s_indexed: bool,
) -> (RegionSet, usize) {
    if !forest.is_properly_nested() || !s_indexed {
        return naive_fallback(r, s, forest, direct_included_in_naive);
    }
    // x ⊂d S ⇔ ∃s ∈ S: s ⊇ x ∧ ¬(p(x) ⊊ s) ⇔ x ∈ S or p(x) ∈ S, since S
    // holds indexed extents only.
    let (enclosures, mut read) = forest.strict_enclosures(r);
    let mut hits: Vec<Region> = Vec::new();
    for (x, p) in r.iter().zip(enclosures) {
        read += 1;
        let hit = s.contains(x)
            || p.is_some_and(|p| {
                read += 1;
                s.contains(&forest.regions()[p])
            });
        if hit {
            hits.push(*x);
        }
    }
    (RegionSet::from_sorted(hits), read)
}

/// The oracle over the forest's universe, for operands the forest cannot
/// answer; it reads the universe once and every `(r, s)` pair.
fn naive_fallback(
    r: &RegionSet,
    s: &RegionSet,
    forest: &UniverseForest,
    naive: fn(&RegionSet, &RegionSet, &RegionSet) -> RegionSet,
) -> (RegionSet, usize) {
    let universe = RegionSet::from_sorted(forest.regions().to_vec());
    (naive(r, s, &universe), forest.len() + r.len() * s.len())
}

/// The paper's layered while-program for `R ⊃d S` (§3.1), using only the
/// other algebra operators. `universe` is the set of all indexed regions.
///
/// ```text
/// R_layer := ω(R); R_rest := R − R_layer; R_result := ∅;
/// while (R_layer ⊃ S) ≠ ∅ do
///   R_result := R_result ∪ (R_layer ⊃ (S − (S ⊂ (T ⊂ R_layer))));
///   R_layer := ω(R_rest); R_rest := R_rest − R_layer;
/// end
/// ```
///
/// where `T` ranges over the indexed regions and the two inner inclusion
/// tests are strict (the formal betweenness condition `r ⊐ t ⊐ s`).
pub fn direct_including_layered(r: &RegionSet, s: &RegionSet, universe: &RegionSet) -> RegionSet {
    let mut layer = r.outermost();
    let mut rest = r.difference(&layer);
    let mut result = RegionSet::new();
    while !layer.including(s).is_empty() {
        let mid = universe.strictly_included_in(&layer);
        let blocked = s.strictly_included_in(&mid);
        result = result.union(&layer.including(&s.difference(&blocked)));
        layer = rest.outermost();
        rest = rest.difference(&layer);
    }
    result
}

/// Layered program for `R ⊂d S`, the dual of [`direct_including_layered`]:
/// peels `S` layer by layer and collects the `R` regions directly included.
pub fn direct_included_in_layered(r: &RegionSet, s: &RegionSet, universe: &RegionSet) -> RegionSet {
    let mut layer = s.outermost();
    let mut rest = s.difference(&layer);
    let mut result = RegionSet::new();
    while !r.included_in(&layer).is_empty() {
        let mid = universe.strictly_included_in(&layer);
        let blocked = r.strictly_included_in(&mid);
        result = result.union(&r.difference(&blocked).included_in(&layer));
        layer = rest.outermost();
        rest = rest.difference(&layer);
    }
    result
}

/// Brute-force transliteration of the `⊃d` definition; the testing oracle.
pub fn direct_including_naive(r: &RegionSet, s: &RegionSet, universe: &RegionSet) -> RegionSet {
    r.iter()
        .filter(|x| {
            s.iter().any(|y| {
                x.includes(y)
                    && !universe.iter().any(|t| x.strictly_includes(t) && t.strictly_includes(y))
            })
        })
        .copied()
        .collect()
}

/// Brute-force transliteration of the `⊂d` definition; the testing oracle.
pub fn direct_included_in_naive(r: &RegionSet, s: &RegionSet, universe: &RegionSet) -> RegionSet {
    r.iter()
        .filter(|x| {
            s.iter().any(|y| {
                y.includes(x)
                    && !universe.iter().any(|t| y.strictly_includes(t) && t.strictly_includes(x))
            })
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_text::Pos;

    fn rs(pairs: &[(Pos, Pos)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    /// BibTeX-like universe:
    /// Reference [0,100) ⊃ Authors [10,40) ⊃ Name [12,30) ⊃ Last [20,28)
    ///                   ⊃ Editors [50,80) ⊃ Name [52,70) ⊃ Last [60,68)
    fn bib() -> (RegionSet, UniverseForest) {
        let u = rs(&[(0, 100), (10, 40), (12, 30), (20, 28), (50, 80), (52, 70), (60, 68)]);
        let f = UniverseForest::build(&u);
        (u, f)
    }

    #[test]
    fn direct_requires_no_region_in_between() {
        let (_, f) = bib();
        let reference = rs(&[(0, 100)]);
        let authors = rs(&[(10, 40)]);
        let last = rs(&[(20, 28)]);
        // Reference directly includes Authors.
        assert_eq!(direct_including(&reference, &authors, &f), reference);
        // Reference does NOT directly include Last (Authors+Name in between).
        assert!(direct_including(&reference, &last, &f).is_empty());
        // Plain inclusion does hold.
        assert_eq!(reference.including(&last), reference);
    }

    #[test]
    fn direct_included_in_mirrors() {
        let (_, f) = bib();
        let authors = rs(&[(10, 40)]);
        let name = rs(&[(12, 30), (52, 70)]);
        let reference = rs(&[(0, 100)]);
        assert_eq!(direct_included_in(&authors, &reference, &f), authors);
        assert_eq!(direct_included_in(&name, &authors, &f), rs(&[(12, 30)]));
    }

    #[test]
    fn unparented_region_is_directly_included_by_any_container() {
        // s has no strict enclosure in the universe at all.
        let u = rs(&[(10, 20)]);
        let f = UniverseForest::build(&u);
        let r = rs(&[(10, 20)]);
        let s = rs(&[(10, 20)]);
        assert_eq!(direct_including(&r, &s, &f), r);
    }

    #[test]
    fn equal_extents_are_direct() {
        // Choice rules produce distinct names with identical extents: no
        // region lies *strictly* between, so inclusion is direct.
        let u = rs(&[(0, 50), (5, 40)]);
        let f = UniverseForest::build(&u);
        let a = rs(&[(5, 40)]);
        let b = rs(&[(5, 40)]);
        assert_eq!(direct_including(&a, &b, &f), a);
        assert_eq!(direct_included_in(&a, &b, &f), a);
    }

    #[test]
    fn layered_matches_fast_on_nested_instance() {
        let (u, f) = bib();
        let r = rs(&[(0, 100), (10, 40), (12, 30), (50, 80)]);
        let s = rs(&[(20, 28), (60, 68), (12, 30)]);
        let fast = direct_including(&r, &s, &f);
        let layered = direct_including_layered(&r, &s, &u);
        let naive = direct_including_naive(&r, &s, &u);
        assert_eq!(fast, naive);
        assert_eq!(layered, naive);
    }

    #[test]
    fn included_in_layered_matches() {
        let (u, f) = bib();
        let r = rs(&[(12, 30), (20, 28), (60, 68)]);
        let s = rs(&[(10, 40), (52, 70)]);
        let fast = direct_included_in(&r, &s, &f);
        let layered = direct_included_in_layered(&r, &s, &u);
        let naive = direct_included_in_naive(&r, &s, &u);
        assert_eq!(fast, naive);
        assert_eq!(layered, naive);
    }

    #[test]
    fn deep_chain_direct_is_parent_child_only() {
        // 6-deep nesting chain.
        let pairs: Vec<(Pos, Pos)> = (0..6).map(|i| (i * 10, 200 - i * 10)).collect();
        let u = rs(&pairs);
        let f = UniverseForest::build(&u);
        for w in pairs.windows(2) {
            let outer = rs(&[w[0]]);
            let inner = rs(&[w[1]]);
            assert_eq!(direct_including(&outer, &inner, &f), outer);
        }
        // Grandparent is not direct.
        let gp = rs(&[pairs[0]]);
        let gc = rs(&[pairs[2]]);
        assert!(direct_including(&gp, &gc, &f).is_empty());
    }

    #[test]
    fn fallback_on_stranger_operands() {
        // R contains extents not in the universe: fast path falls back to
        // the oracle and stays correct.
        let u = rs(&[(0, 100), (10, 40), (20, 30)]);
        let f = UniverseForest::build(&u);
        let r = rs(&[(5, 60)]); // not indexed; sits between (0,100) and (10,40)
        let s = rs(&[(20, 30)]);
        // (5,60) ⊇ (20,30) but (10,40) lies strictly between: not direct.
        assert!(direct_including(&r, &s, &f).is_empty());
        let r2 = rs(&[(15, 35)]); // between (10,40) and (20,30): direct
        assert_eq!(direct_including(&r2, &s, &f), r2);
    }

    #[test]
    fn empty_operands() {
        let (u, f) = bib();
        let e = RegionSet::new();
        let r = rs(&[(0, 100)]);
        assert!(direct_including(&e, &r, &f).is_empty());
        assert!(direct_including(&r, &e, &f).is_empty());
        assert!(direct_including_layered(&r, &e, &u).is_empty());
        assert!(direct_included_in_layered(&e, &r, &u).is_empty());
    }
}
