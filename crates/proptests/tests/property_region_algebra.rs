//! Property tests for the region algebra: set invariants, operator
//! semantics against brute-force definitions, and agreement of the three
//! direct-inclusion implementations (fast forest, the paper's layered
//! program, and the naive oracle).

use proptest::prelude::*;
use qof::pat::{
    direct_included_in, direct_included_in_layered, direct_included_in_naive, direct_including,
    direct_including_layered, direct_including_naive, Region, RegionSet, UniverseForest,
};

/// Arbitrary region within a small coordinate space.
fn region() -> impl Strategy<Value = Region> {
    (0u32..60, 1u32..20).prop_map(|(s, l)| Region::new(s, s + l))
}

fn region_set(max: usize) -> impl Strategy<Value = RegionSet> {
    prop::collection::vec(region(), 0..max).prop_map(RegionSet::from_regions)
}

/// A properly nested universe: generated from a recursive subdivision.
fn nested_universe() -> impl Strategy<Value = RegionSet> {
    prop::collection::vec((0u32..8, 0u32..8, 1u32..5), 1..24).prop_map(|seeds| {
        // Build nested regions deterministically from seed triples: each
        // (slot, depth, len) becomes a region nested under a top segment.
        let mut regions = Vec::new();
        for (slot, depth, len) in seeds {
            let base = slot * 100;
            let start = base + depth * 10;
            let end = (base + 100).saturating_sub(depth * 10).max(start + len);
            regions.push(Region::new(start, end));
        }
        RegionSet::from_regions(regions)
    })
}

fn brute_including(r: &RegionSet, s: &RegionSet) -> RegionSet {
    r.iter().filter(|x| s.iter().any(|y| x.includes(y))).copied().collect()
}

fn brute_included(r: &RegionSet, s: &RegionSet) -> RegionSet {
    r.iter().filter(|x| s.iter().any(|y| y.includes(x))).copied().collect()
}

proptest! {
    #[test]
    fn canonical_order_invariant(rs in region_set(30)) {
        let v = rs.as_slice();
        prop_assert!(v.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
    }

    #[test]
    fn set_ops_match_btreeset_semantics(a in region_set(25), b in region_set(25)) {
        use std::collections::BTreeSet;
        let sa: BTreeSet<Region> = a.iter().copied().collect();
        let sb: BTreeSet<Region> = b.iter().copied().collect();
        let u: Vec<Region> = sa.union(&sb).copied().collect();
        let i: Vec<Region> = sa.intersection(&sb).copied().collect();
        let d: Vec<Region> = sa.difference(&sb).copied().collect();
        prop_assert_eq!(a.union(&b), RegionSet::from_regions(u));
        prop_assert_eq!(a.intersect(&b), RegionSet::from_regions(i));
        prop_assert_eq!(a.difference(&b), RegionSet::from_regions(d));
    }

    #[test]
    fn including_matches_brute_force(a in region_set(25), b in region_set(25)) {
        prop_assert_eq!(a.including(&b), brute_including(&a, &b));
        prop_assert_eq!(a.included_in(&b), brute_included(&a, &b));
    }

    #[test]
    fn strict_variants_match_brute_force(a in region_set(20), b in region_set(20)) {
        let strict_incl: RegionSet = a
            .iter()
            .filter(|x| b.iter().any(|y| x.strictly_includes(y)))
            .copied()
            .collect();
        let strict_in: RegionSet = a
            .iter()
            .filter(|x| b.iter().any(|y| y.strictly_includes(x)))
            .copied()
            .collect();
        prop_assert_eq!(a.strictly_including(&b), strict_incl);
        prop_assert_eq!(a.strictly_included_in(&b), strict_in);
    }

    #[test]
    fn innermost_outermost_match_brute_force(a in region_set(25)) {
        // Paper: ι keeps r with no OTHER member r' such that r ⊇ r'.
        let inner: RegionSet = a
            .iter()
            .filter(|x| !a.iter().any(|y| y != *x && x.includes(y)))
            .copied()
            .collect();
        let outer: RegionSet = a
            .iter()
            .filter(|x| !a.iter().any(|y| y != *x && y.includes(x)))
            .copied()
            .collect();
        prop_assert_eq!(a.innermost(), inner);
        prop_assert_eq!(a.outermost(), outer);
    }

    #[test]
    fn inclusion_ops_are_monotone(a in region_set(20), b in region_set(20), c in region_set(10)) {
        // Adding witnesses can only grow the result.
        let b2 = b.union(&c);
        let r1 = a.including(&b);
        let r2 = a.including(&b2);
        prop_assert_eq!(r1.difference(&r2).len(), 0, "⊃ monotone in its witness set");
    }

    #[test]
    fn covered_bytes_le_total(a in region_set(25)) {
        prop_assert!(a.covered_bytes() <= a.total_bytes());
    }

    #[test]
    fn direct_inclusion_three_way_agreement(u in nested_universe()) {
        let forest = UniverseForest::build(&u);
        prop_assume!(forest.is_properly_nested());
        // Operand sets drawn from the universe: every odd / even member.
        let r: RegionSet = u.iter().enumerate().filter(|(i, _)| i % 2 == 0).map(|(_, x)| *x).collect();
        let s: RegionSet = u.iter().enumerate().filter(|(i, _)| i % 2 == 1).map(|(_, x)| *x).collect();
        let fast = direct_including(&r, &s, &forest);
        let layered = direct_including_layered(&r, &s, &u);
        let naive = direct_including_naive(&r, &s, &u);
        prop_assert_eq!(&fast, &naive, "fast ⊃d disagrees with the definition");
        prop_assert_eq!(&layered, &naive, "layered ⊃d disagrees with the definition");
        let fast_in = direct_included_in(&s, &r, &forest);
        let layered_in = direct_included_in_layered(&s, &r, &u);
        let naive_in = direct_included_in_naive(&s, &r, &u);
        prop_assert_eq!(&fast_in, &naive_in);
        prop_assert_eq!(&layered_in, &naive_in);
    }

    #[test]
    fn direct_is_subset_of_plain_inclusion(u in nested_universe()) {
        let forest = UniverseForest::build(&u);
        prop_assume!(forest.is_properly_nested());
        let r: RegionSet = u.iter().enumerate().filter(|(i, _)| i % 3 != 0).map(|(_, x)| *x).collect();
        let s: RegionSet = u.iter().enumerate().filter(|(i, _)| i % 3 == 0).map(|(_, x)| *x).collect();
        let direct = direct_including(&r, &s, &forest);
        let plain = r.including(&s);
        prop_assert_eq!(direct.difference(&plain).len(), 0, "⊃d ⊆ ⊃");
    }

    #[test]
    fn forest_parents_strictly_contain(u in nested_universe()) {
        let forest = UniverseForest::build(&u);
        prop_assume!(forest.is_properly_nested());
        for (i, r) in forest.regions().iter().enumerate() {
            if let Some(p) = forest.parent_of(i) {
                let parent = forest.regions()[p];
                prop_assert!(parent.strictly_includes(r));
                prop_assert_eq!(forest.ancestor_at(i, 1), Some(p));
            }
        }
    }

    #[test]
    fn strict_enclosures_match_brute_force(u in nested_universe(), q in region_set(15)) {
        let forest = UniverseForest::build(&u);
        prop_assume!(forest.is_properly_nested());
        let got = forest.strict_enclosures(&q);
        for (region, enc) in q.iter().zip(got) {
            // Deepest strict container = the minimal-length strict container.
            let expected = u
                .iter()
                .filter(|t| t.strictly_includes(region))
                .min_by_key(|t| t.len());
            prop_assert_eq!(enc, expected.copied());
        }
    }
}
