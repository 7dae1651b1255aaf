//! Semantic oracle for the §3.2 optimization algorithm, on random RIGs
//! (some cyclic) and random instances that satisfy them:
//!
//! * **soundness** — every normal form evaluates identically to the
//!   original chain, for selections (`⊃`) and projections (`⊂`) alike
//!   (Definition 3.2's equivalence, checked empirically);
//! * **triviality** — chains flagged by Proposition 3.3 evaluate to ∅;
//! * **certification** — every normal form the optimizer produces passes
//!   the certifier, so what the planner applies is what is checked here;
//! * **confluence, weakened** — Theorem 3.6 claims a *unique* most
//!   efficient version. With edges A→{B,F}, B→E, E→F, the chain
//!   `A ⊃d B ⊃d E ⊃d F` reduces to either `A ⊃ E ⊃ F` or `A ⊃ B ⊃ F`
//!   depending on which Proposition 3.5(b) shortening fires first. What
//!   does hold, and is tested here: rewriting in any random order ends on
//!   a form of the same cost (same length, same operator multiset) that
//!   is semantically equivalent, so the deterministic leftmost-first order
//!   loses nothing.
//!
//! Every case runs on its own seed drawn from a fixed `StdRng` stream, so
//! the suite runs offline and the same cases run every time; a failure
//! prints the case's seed, which reproduces it alone.

use std::collections::BTreeMap;

use qof::corpus::{Rng, StdRng};
use qof::pat::{direct_included_in, direct_including, Instance, Region, RegionSet, UniverseForest};
use qof::{certify, normal_forms, optimize, ChainOp, Direction, InclusionExpr, Rig};

const NAMES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// Cases per property.
const CASES: usize = 256;

/// Runs [`CASES`] cases of `case`, each on a seed drawn from one fixed
/// stream; a failing case panics with its seed and message.
fn for_cases(name: &str, mut case: impl FnMut(&mut StdRng) -> Result<(), String>) {
    let mut seeds = StdRng::seed_from_u64(0x0971_3a2e);
    for i in 0..CASES {
        let seed = seeds.next_u64();
        if let Err(msg) = case(&mut StdRng::seed_from_u64(seed)) {
            panic!("{name}: case {i} (seed {seed:#x}) failed: {msg}");
        }
    }
}

/// A random RIG: a layered graph over six names (edges go from lower to
/// higher index, so acyclic), plus an optional back edge that closes a
/// cycle.
fn random_rig(rng: &mut StdRng) -> Rig {
    let mut g = Rig::new();
    for n in NAMES {
        g.add_node(n);
    }
    for _ in 0..rng.random_range(3..12) {
        let (a, b) = (rng.random_range(0..5), rng.random_range(1..6));
        if a < b {
            g.add_edge(NAMES[a], NAMES[b]);
        }
    }
    if rng.random_range(0..2) == 0 {
        let (a, b) = (rng.random_range(1..6), rng.random_range(0..5));
        if a > b {
            g.add_edge(NAMES[a], NAMES[b]);
        }
    }
    g
}

fn rig_from(edges: &[(&str, &str)]) -> Rig {
    let mut g = Rig::new();
    for n in NAMES {
        g.add_node(n);
    }
    for (a, b) in edges {
        g.add_edge(a, b);
    }
    g
}

/// Builds an instance satisfying `rig` by top-down expansion: each region
/// spawns children only along RIG edges, strictly inside itself with gaps
/// (so extents never collapse and the instance is properly nested).
/// `pick(n)` chooses among `n` options.
fn build_instance(rig: &Rig, pick: &mut dyn FnMut(usize) -> usize) -> Instance {
    fn expand(
        rig: &Rig,
        name: &str,
        (start, end): (u32, u32),
        depth: usize,
        out: &mut BTreeMap<String, Vec<Region>>,
        pick: &mut dyn FnMut(usize) -> usize,
    ) {
        out.entry(name.to_owned()).or_default().push(Region::new(start, end));
        let succs = rig.successors(name);
        if depth >= 4 || end - start < 8 || succs.is_empty() {
            return;
        }
        // Up to two children in disjoint strict sub-spans.
        let n_children = 1 + pick(2) as u32;
        let width = (end - start - 2) / n_children;
        for k in 0..n_children {
            if width < 4 {
                break;
            }
            let child = succs[pick(succs.len())];
            let s = start + 1 + k * width;
            let e = s + width - 2;
            if e > s {
                expand(rig, child, (s, e), depth + 1, out, pick);
            }
        }
    }
    let mut regions: BTreeMap<String, Vec<Region>> = BTreeMap::new();
    let mut offset = 0u32;
    for name in NAMES {
        // Two roots per name keep instance sizes interesting.
        for _ in 0..2 {
            expand(rig, name, (offset, offset + 96), 0, &mut regions, pick);
            offset += 100;
        }
    }
    let mut inst = Instance::new();
    for (name, rs) in regions {
        inst.insert(name, RegionSet::from_regions(rs));
    }
    inst
}

fn random_instance(rig: &Rig, rng: &mut StdRng) -> Instance {
    build_instance(rig, &mut |n| rng.random_range(0..n.max(1)))
}

/// Evaluates a chain (no selector) against an instance: a selection (⊃)
/// chain returns the outermost name's regions, a projection (⊂) chain the
/// deepest name's, grouped from the right as in the paper.
fn eval_chain(expr: &InclusionExpr, inst: &Instance, forest: &UniverseForest) -> RegionSet {
    let names = expr.names();
    let ops = expr.ops();
    let empty = RegionSet::new();
    let get = |n: &str| inst.get(n).unwrap_or(&empty).clone();
    match expr.direction() {
        Direction::Including => {
            let mut acc = get(&names[names.len() - 1]);
            for i in (0..ops.len()).rev() {
                let left = get(&names[i]);
                acc = match ops[i] {
                    ChainOp::Incl => left.including(&acc),
                    ChainOp::Direct => direct_including(&left, &acc, forest),
                };
            }
            acc
        }
        Direction::IncludedIn => {
            let mut acc = get(&names[0]);
            for i in 0..ops.len() {
                let deeper = get(&names[i + 1]);
                acc = match ops[i] {
                    ChainOp::Incl => deeper.included_in(&acc),
                    ChainOp::Direct => direct_included_in(&deeper, &acc, forest),
                };
            }
            acc
        }
    }
}

/// A random walk of up to `max_hops` RIG edges from a random name.
fn random_walk(rig: &Rig, rng: &mut StdRng, max_hops: usize) -> Vec<String> {
    let mut names = vec![NAMES[rng.random_range(0..NAMES.len())].to_string()];
    for _ in 0..rng.random_range(1..=max_hops) {
        let succs = rig.successors(names.last().expect("non-empty"));
        if succs.is_empty() {
            break;
        }
        names.push(succs[rng.random_range(0..succs.len())].to_owned());
    }
    names
}

/// Every normal form of `e` certifies and evaluates like `e` on `inst`;
/// a Proposition 3.3 verdict means `e` evaluates to ∅.
fn normal_forms_agree(rig: &Rig, e: &InclusionExpr, inst: &Instance) -> Result<(), String> {
    let forest = inst.forest();
    if !forest.is_properly_nested() {
        return Err("the generated instance is not properly nested".into());
    }
    let before = eval_chain(e, inst, forest);
    for form in normal_forms(e, rig) {
        if !certify(e, rig, &form).all_certified() {
            return Err(format!("normal form `{}` of `{e}` does not certify", form.expr));
        }
        if form.trivially_empty {
            if !before.is_empty() {
                return Err(format!("Prop 3.3 flagged the non-empty `{e}` over {rig:?}"));
            }
        } else if eval_chain(&form.expr, inst, forest) != before {
            return Err(format!("`{e}` and `{}` disagree on an instance of {rig:?}", form.expr));
        }
    }
    Ok(())
}

#[test]
fn optimizer_preserves_semantics() {
    for_cases("selection semantics", |rng| {
        let rig = random_rig(rng);
        let names = random_walk(&rig, rng, 3);
        if names.len() < 2 {
            return Ok(());
        }
        let inst = random_instance(&rig, rng);
        normal_forms_agree(
            &rig,
            &InclusionExpr::all_direct(Direction::Including, names, None),
            &inst,
        )
    });
}

#[test]
fn optimizer_preserves_projection_semantics() {
    // §5.2: projections use ⊂/⊂d chains; the optimizer treats them
    // symmetrically, and the rewrites must preserve the *deep* result.
    for_cases("projection semantics", |rng| {
        let rig = random_rig(rng);
        let names = random_walk(&rig, rng, 3);
        if names.len() < 2 {
            return Ok(());
        }
        let inst = random_instance(&rig, rng);
        normal_forms_agree(
            &rig,
            &InclusionExpr::all_direct(Direction::IncludedIn, names, None),
            &inst,
        )
    });
}

#[test]
fn optimizer_never_grows_cost() {
    for_cases("cost", |rng| {
        let rig = random_rig(rng);
        let names = random_walk(&rig, rng, 4);
        if names.len() < 2 {
            return Ok(());
        }
        let e = InclusionExpr::all_direct(Direction::Including, names, None);
        let opt = optimize(&e, &rig);
        if opt.expr.names().len() > e.names().len() || opt.expr.direct_ops() > e.direct_ops() {
            return Err(format!("`{e}` grew into `{}`", opt.expr));
        }
        Ok(())
    });
}

/// Applies licensed Proposition 3.5 rewrites to `e` in the order `order`
/// picks until none applies, and returns the normal form reached.
fn reduce_in_order(
    rig: &Rig,
    e: &InclusionExpr,
    order: &mut dyn FnMut(usize) -> usize,
) -> InclusionExpr {
    let mut ns: Vec<String> = e.names().to_vec();
    let mut ops: Vec<ChainOp> = e.ops().to_vec();
    for _ in 0..200 {
        // Applicable rewrites, as (is_weaken, hop).
        let mut apps: Vec<(bool, usize)> = Vec::new();
        for i in 0..ops.len() {
            let rightmost = i + 1 == ns.len() - 1;
            if ops[i] == ChainOp::Direct
                && (rig.only_path_edge(&ns[i], &ns[i + 1])
                    || rightmost && rig.all_paths_start_with_edge(&ns[i], &ns[i + 1]))
            {
                apps.push((true, i));
            }
            if i + 1 < ops.len()
                && ops[i] == ChainOp::Incl
                && ops[i + 1] == ChainOp::Incl
                && ns[i] != ns[i + 2]
                && rig.all_paths_pass_through(&ns[i], &ns[i + 2], &ns[i + 1])
            {
                apps.push((false, i));
            }
        }
        if apps.is_empty() {
            break;
        }
        match apps[order(apps.len())] {
            (true, i) => ops[i] = ChainOp::Incl,
            (false, i) => {
                ns.remove(i + 1);
                ops.remove(i);
            }
        }
    }
    InclusionExpr::including(ns, ops, None)
}

/// A random-order normal form of `e` costs what the canonical one costs
/// and agrees with it on `inst`.
fn random_order_agrees(
    rig: &Rig,
    e: &InclusionExpr,
    random_order: &InclusionExpr,
    inst: &Instance,
) -> Result<(), String> {
    let fixed_order = optimize(e, rig).expr;
    if random_order.names().len() != fixed_order.names().len()
        || random_order.direct_ops() != fixed_order.direct_ops()
    {
        return Err(format!(
            "normal forms of `{e}` differ in cost: `{random_order}` vs `{fixed_order}`"
        ));
    }
    let forest = inst.forest();
    if eval_chain(random_order, inst, forest) != eval_chain(&fixed_order, inst, forest) {
        return Err(format!("normal forms `{random_order}` and `{fixed_order}` disagree"));
    }
    Ok(())
}

#[test]
fn cost_equal_normal_forms() {
    for_cases("random-order normal forms", |rng| {
        let rig = random_rig(rng);
        let names = random_walk(&rig, rng, 4);
        if names.len() < 2 {
            return Ok(());
        }
        let e = InclusionExpr::all_direct(Direction::Including, names, None);
        if optimize(&e, &rig).trivially_empty {
            return Ok(());
        }
        let random_order = reduce_in_order(&rig, &e, &mut |n| rng.random_range(0..n));
        let inst = random_instance(&rig, rng);
        random_order_agrees(&rig, &e, &random_order, &inst)
    });
}

/// Once found by the randomized search: the Theorem 3.6 counterexample
/// chain, reduced in the order that reaches the other normal form.
#[test]
fn regression_counterexample_in_a_random_order() {
    let rig = rig_from(&[("A", "B"), ("A", "F"), ("B", "E"), ("E", "F")]);
    let e = InclusionExpr::all_direct(
        Direction::Including,
        ["A", "B", "E", "F"].map(String::from).to_vec(),
        None,
    );
    let mut order = [0usize, 157, 0, 19].into_iter().chain(std::iter::repeat(0));
    let random_order = reduce_in_order(&rig, &e, &mut |n| order.next().unwrap_or(0) % n);
    let inst = build_instance(&rig, &mut |_| 0);
    random_order_agrees(&rig, &e, &random_order, &inst).unwrap();
    normal_forms_agree(&rig, &e, &inst).unwrap();
}

/// Once found by the randomized search: a direct hop into a self-nested
/// name (E → F → E), in both directions.
#[test]
fn regression_direct_hop_into_a_cycle() {
    let rig = rig_from(&[("A", "E"), ("E", "F"), ("F", "E")]);
    let inst = build_instance(&rig, &mut |_| 0);
    for dir in [Direction::Including, Direction::IncludedIn] {
        let e = InclusionExpr::all_direct(dir, vec!["A".into(), "E".into()], None);
        normal_forms_agree(&rig, &e, &inst).unwrap();
    }
}

/// The paper's "works for ⊂/⊂d as well" (§5.2) needs the endpoint rule
/// dualized. With A → E and E self-nested (E → D → E), `E ⊂d A` must NOT
/// weaken to `E ⊂ A`: the former returns only the E regions directly
/// inside an A, the latter adds every nested E.
#[test]
fn projection_endpoint_weakening_is_dualized() {
    let rig = rig_from(&[("A", "E"), ("E", "D"), ("D", "E")]);
    let e = InclusionExpr::all_direct(Direction::IncludedIn, vec!["A".into(), "E".into()], None);
    assert_eq!(optimize(&e, &rig).expr.to_string(), "E ⊂d A", "must keep ⊂d");
    // The selection direction does weaken (the A-side result is the same
    // either way).
    let sel = InclusionExpr::all_direct(Direction::Including, vec!["A".into(), "E".into()], None);
    assert_eq!(optimize(&sel, &rig).expr.to_string(), "A ⊃ E");
}

/// The concrete Theorem 3.6 counterexample.
#[test]
fn theorem_3_6_counterexample_is_cost_equal() {
    let rig = rig_from(&[("A", "B"), ("A", "F"), ("B", "E"), ("E", "F")]);
    let e = InclusionExpr::all_direct(
        Direction::Including,
        ["A", "B", "E", "F"].map(String::from).to_vec(),
        None,
    );
    // Leftmost-first drops B: A ⊃ E ⊃ F.
    assert_eq!(optimize(&e, &rig).expr.to_string(), "A ⊃ E ⊃ F");
    // The alternative normal form A ⊃ B ⊃ F is irreducible too: a path
    // A→F avoids B (the direct edge), and one avoids E.
    assert!(!rig.all_paths_pass_through("A", "F", "B"));
    assert!(!rig.all_paths_pass_through("A", "F", "E"));
    let forms = normal_forms(&e, &rig);
    let spelled: Vec<String> = forms.iter().map(|f| f.expr.to_string()).collect();
    assert_eq!(spelled, ["A ⊃ E ⊃ F", "A ⊃ B ⊃ F"]);
    let cost = |e: &InclusionExpr| (e.ops().len(), e.direct_ops());
    assert_eq!(cost(&forms[0].expr), cost(&forms[1].expr));

    // A linear chain reduces to one normal form.
    let rig = rig_from(&[("A", "B"), ("B", "C")]);
    let e = InclusionExpr::all_direct(
        Direction::Including,
        ["A", "B", "C"].map(String::from).to_vec(),
        None,
    );
    let forms: Vec<String> = normal_forms(&e, &rig).iter().map(|f| f.expr.to_string()).collect();
    assert_eq!(forms, ["A ⊃ C"]);
}
