//! Region-algebra properties: set invariants, operator semantics against
//! brute-force definitions, agreement of the three direct-inclusion
//! implementations (navigated forest, the paper's layered program and the
//! naive oracle), and the nesting forest's own contract: navigation equals
//! brute force, and extending a forest equals building it afresh.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream, so
//! the suite runs offline and the same cases run every time; a failure
//! prints the case's seed, which reproduces it alone.

use std::collections::BTreeSet;

use qof::corpus::{Rng, StdRng};
use qof::pat::{
    direct_included_in, direct_included_in_counted, direct_included_in_layered,
    direct_included_in_naive, direct_including, direct_including_counted, direct_including_layered,
    direct_including_naive, Region, RegionSet, UniverseForest,
};

/// Cases per property.
const CASES: usize = 256;

/// Runs [`CASES`] cases of `case`, each on a seed drawn from one fixed
/// stream; a failing case panics with its seed and message.
fn for_cases(name: &str, mut case: impl FnMut(&mut StdRng) -> Result<(), String>) {
    let mut seeds = StdRng::seed_from_u64(0x7e61_0a15);
    for i in 0..CASES {
        let seed = seeds.next_u64();
        if let Err(msg) = case(&mut StdRng::seed_from_u64(seed)) {
            panic!("{name}: case {i} (seed {seed:#x}) failed: {msg}");
        }
    }
}

fn check_eq<T: PartialEq + std::fmt::Debug + ?Sized>(
    got: &T,
    want: &T,
    what: &str,
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

fn check(cond: bool, what: &str) -> Result<(), String> {
    check_eq(&cond, &true, what)
}

/// A region within a small coordinate space, so draws overlap often.
fn region(rng: &mut StdRng) -> Region {
    let start = rng.random_range(0..60) as u32;
    Region::new(start, start + rng.random_range(1..20) as u32)
}

fn region_set(rng: &mut StdRng, max: usize) -> RegionSet {
    let n = rng.random_range(0..max);
    RegionSet::from_regions((0..n).map(|_| region(rng)).collect())
}

/// Properly nested regions inside `[lo, hi)`: runs of disjoint siblings,
/// each with its own subtree. A child may share its parent's extents, as
/// a choice rule's regions do.
fn nested_regions(rng: &mut StdRng, lo: u32, hi: u32, depth: usize, out: &mut Vec<Region>) {
    let mut at = lo;
    while depth > 0 && at < hi && out.len() < 48 && rng.random_range(0..4) != 0 {
        let start = at + rng.random_range(0..=((hi - at - 1) / 2) as usize) as u32;
        let end = start + 1 + rng.random_range(0..(hi - start) as usize) as u32;
        out.push(Region::new(start, end));
        nested_regions(rng, start, end, depth - 1, out);
        at = end;
    }
}

/// A properly nested universe starting at `lo`.
fn nested_universe(rng: &mut StdRng, lo: u32) -> RegionSet {
    let mut out = Vec::new();
    while out.is_empty() {
        nested_regions(rng, lo, lo + 200, 5, &mut out);
    }
    RegionSet::from_regions(out)
}

/// A random subset of `set`.
fn subset(rng: &mut StdRng, set: &RegionSet) -> RegionSet {
    set.iter().filter(|_| rng.random_range(0..2) == 0).copied().collect()
}

fn brute_including(r: &RegionSet, s: &RegionSet) -> RegionSet {
    r.iter().filter(|x| s.iter().any(|y| x.includes(y))).copied().collect()
}

fn brute_included(r: &RegionSet, s: &RegionSet) -> RegionSet {
    r.iter().filter(|x| s.iter().any(|y| y.includes(x))).copied().collect()
}

/// The deepest strict container of `q` in `u`: the shortest one, since the
/// strict containers of a region in a properly nested universe form a
/// chain.
fn brute_enclosure(u: &RegionSet, q: &Region) -> Option<Region> {
    u.iter().filter(|t| t.strictly_includes(q)).min_by_key(|t| t.len()).copied()
}

#[test]
fn canonical_order_invariant() {
    for_cases("canonical order", |rng| {
        let rs = region_set(rng, 30);
        check(rs.as_slice().windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates")
    });
}

#[test]
fn set_ops_match_btreeset_semantics() {
    for_cases("∪ ∩ −", |rng| {
        let (a, b) = (region_set(rng, 25), region_set(rng, 25));
        let sa: BTreeSet<Region> = a.iter().copied().collect();
        let sb: BTreeSet<Region> = b.iter().copied().collect();
        let set = |it: Vec<Region>| RegionSet::from_regions(it);
        check_eq(&a.union(&b), &set(sa.union(&sb).copied().collect()), "∪")?;
        check_eq(&a.intersect(&b), &set(sa.intersection(&sb).copied().collect()), "∩")?;
        check_eq(&a.difference(&b), &set(sa.difference(&sb).copied().collect()), "−")
    });
}

#[test]
fn including_matches_brute_force() {
    for_cases("⊃ ⊂", |rng| {
        let (a, b) = (region_set(rng, 25), region_set(rng, 25));
        check_eq(&a.including(&b), &brute_including(&a, &b), "⊃")?;
        check_eq(&a.included_in(&b), &brute_included(&a, &b), "⊂")
    });
}

#[test]
fn strict_variants_match_brute_force() {
    for_cases("strict ⊃ ⊂", |rng| {
        let (a, b) = (region_set(rng, 20), region_set(rng, 20));
        let strict_incl: RegionSet =
            a.iter().filter(|x| b.iter().any(|y| x.strictly_includes(y))).copied().collect();
        let strict_in: RegionSet =
            a.iter().filter(|x| b.iter().any(|y| y.strictly_includes(x))).copied().collect();
        check_eq(&a.strictly_including(&b), &strict_incl, "strict ⊃")?;
        check_eq(&a.strictly_included_in(&b), &strict_in, "strict ⊂")
    });
}

#[test]
fn innermost_outermost_match_brute_force() {
    for_cases("ι ω", |rng| {
        // Paper: ι keeps r with no OTHER member r' such that r ⊇ r'.
        let a = region_set(rng, 25);
        let inner: RegionSet =
            a.iter().filter(|x| !a.iter().any(|y| y != *x && x.includes(y))).copied().collect();
        let outer: RegionSet =
            a.iter().filter(|x| !a.iter().any(|y| y != *x && y.includes(x))).copied().collect();
        check_eq(&a.innermost(), &inner, "ι")?;
        check_eq(&a.outermost(), &outer, "ω")
    });
}

#[test]
fn inclusion_ops_are_monotone() {
    for_cases("⊃ monotone", |rng| {
        // Adding witnesses can only grow the result.
        let (a, b, c) = (region_set(rng, 20), region_set(rng, 20), region_set(rng, 10));
        let grown = a.including(&b.union(&c));
        check(a.including(&b).difference(&grown).is_empty(), "⊃ monotone in its witness set")
    });
}

#[test]
fn covered_bytes_le_total() {
    for_cases("covered bytes", |rng| {
        let a = region_set(rng, 25);
        check(a.covered_bytes() <= a.total_bytes(), "covered ≤ total")
    });
}

#[test]
fn direct_inclusion_three_way_agreement() {
    for_cases("⊃d ⊂d agreement", |rng| {
        let u = nested_universe(rng, 0);
        let forest = UniverseForest::build(&u);
        check(forest.is_properly_nested(), "the generator nests properly")?;
        let (r, s) = (subset(rng, &u), subset(rng, &u));
        let naive = direct_including_naive(&r, &s, &u);
        check_eq(&direct_including(&r, &s, &forest), &naive, "navigated ⊃d")?;
        check_eq(&direct_including_counted(&r, &s, &forest, true).0, &naive, "indexed ⊃d")?;
        check_eq(&direct_including_layered(&r, &s, &u), &naive, "layered ⊃d")?;
        let naive_in = direct_included_in_naive(&r, &s, &u);
        check_eq(&direct_included_in(&r, &s, &forest), &naive_in, "navigated ⊂d")?;
        check_eq(&direct_included_in_counted(&r, &s, &forest, true).0, &naive_in, "indexed ⊂d")?;
        check_eq(&direct_included_in_layered(&r, &s, &u), &naive_in, "layered ⊂d")?;
        // Operands with extents outside the universe take the oracle path.
        let strangers = r.union(&region_set(rng, 6));
        check_eq(
            &direct_including(&strangers, &s, &forest),
            &direct_including_naive(&strangers, &s, &u),
            "⊃d over strangers",
        )?;
        check_eq(
            &direct_included_in(&r, &strangers, &forest),
            &direct_included_in_naive(&r, &strangers, &u),
            "⊂d over strangers",
        )
    });
}

#[test]
fn direct_is_subset_of_plain_inclusion() {
    for_cases("⊃d ⊆ ⊃", |rng| {
        let u = nested_universe(rng, 0);
        let forest = UniverseForest::build(&u);
        let (r, s) = (subset(rng, &u), subset(rng, &u));
        let direct = direct_including(&r, &s, &forest);
        check(direct.difference(&r.including(&s)).is_empty(), "⊃d ⊆ ⊃")
    });
}

#[test]
fn forest_parents_strictly_contain() {
    for_cases("forest parents", |rng| {
        let u = nested_universe(rng, 0);
        let forest = UniverseForest::build(&u);
        for (i, r) in forest.regions().iter().enumerate() {
            let parent = forest.parent_of(i);
            check_eq(&parent.map(|p| forest.regions()[p]), &brute_enclosure(&u, r), "parent")?;
            if let Some(p) = parent {
                check_eq(&forest.ancestor_at(i, 1), &Some(p), "ancestor_at 1")?;
            }
        }
        Ok(())
    });
}

#[test]
fn navigated_enclosures_match_brute_force() {
    for_cases("strict enclosures", |rng| {
        let u = nested_universe(rng, 0);
        let forest = UniverseForest::build(&u);
        // Universe members and strangers, some sharing a member's extents.
        let q = subset(rng, &u).union(&region_set(rng, 15));
        let (got, reads) = forest.strict_enclosures(&q);
        for (region, enc) in q.iter().zip(got) {
            let enc = enc.map(|i| forest.regions()[i]);
            check_eq(&enc, &brute_enclosure(&u, region), &format!("enclosure of {region:?}"))?;
        }
        check(q.is_empty() || reads > 0, "navigation reads the forest")
    });
}

#[test]
fn extend_past_the_end_equals_a_fresh_build() {
    for_cases("extend", |rng| {
        let head = nested_universe(rng, 0);
        let end = head.iter().map(|r| r.end).max().unwrap();
        let gap = rng.random_range(0..3) as u32;
        let tail = nested_universe(rng, end + gap);
        let mut extended = UniverseForest::build(&head);
        check(extended.extend(&tail), "a tail past the end extends")?;
        let fresh = UniverseForest::build(&head.union(&tail));
        check_eq(&extended.regions(), &fresh.regions(), "regions")?;
        check_eq(&extended.is_properly_nested(), &fresh.is_properly_nested(), "nesting")?;
        for i in 0..fresh.len() {
            check_eq(&extended.parent_of(i), &fresh.parent_of(i), &format!("parent of {i}"))?;
        }
        // A tail starting before the universe's end is refused and changes
        // nothing, also when it sorts after the last region.
        let end = fresh.regions().iter().map(|r| r.end).max().unwrap();
        let early = RegionSet::from_regions(vec![Region::new(end - 1, end + 1)]);
        check(!extended.extend(&early), "a tail inside the universe is refused")?;
        check_eq(&extended.len(), &fresh.len(), "refused tail left the forest")
    });
}
