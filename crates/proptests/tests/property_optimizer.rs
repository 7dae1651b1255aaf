//! Property tests for the §3.2 optimization algorithm:
//!
//! * **soundness** — the optimized expression evaluates identically to the
//!   original on every generated instance satisfying the RIG (Definition
//!   3.2's equivalence, checked empirically);
//! * **triviality** — expressions flagged by Proposition 3.3 evaluate to ∅;
//! * **confluence, weakened** — Theorem 3.6 claims a *unique* most
//!   efficient version via the finite Church–Rosser property. Property
//!   testing found a counterexample (recorded in
//!   `cost_equal_normal_forms`): with edges A→{B,F}, B→E, E→F, the chain
//!   `A ⊃d B ⊃d E ⊃d F` reduces to either `A ⊃ E ⊃ F` or `A ⊃ B ⊃ F`
//!   depending on which Proposition 3.5(b) shortening fires first — two
//!   distinct irreducible forms. What *does* hold, and is tested here: all
//!   normal forms are semantically equivalent and have identical cost
//!   (same length, same operator multiset), so the implementation's
//!   deterministic leftmost-first order loses nothing.

use proptest::prelude::*;
use qof::pat::{direct_included_in, direct_including, Instance, RegionSet, UniverseForest};
use qof::{optimize, ChainOp, Direction, InclusionExpr, Rig};

const NAMES: [&str; 6] = ["A", "B", "C", "D", "E", "F"];

/// A random RIG: a layered graph over six names (edges go from lower to
/// higher index → acyclic), plus an optional back edge to create a cycle.
fn rig_strategy() -> impl Strategy<Value = Rig> {
    (
        prop::collection::vec((0usize..5, 1usize..6), 3..12),
        prop::option::of((1usize..6, 0usize..5)),
    )
        .prop_map(|(edges, back)| {
            let mut g = Rig::new();
            for n in NAMES {
                g.add_node(n);
            }
            for (a, b) in edges {
                if a < b {
                    g.add_edge(NAMES[a], NAMES[b]);
                }
            }
            if let Some((a, b)) = back {
                if a > b {
                    g.add_edge(NAMES[a], NAMES[b]);
                }
            }
            g
        })
}

/// Builds an instance satisfying `rig` by top-down expansion: each region
/// spawns children only along RIG edges, strictly inside itself with gaps
/// (so extents never collapse and the instance is properly nested).
fn build_instance(rig: &Rig, choices: &[u8]) -> Instance {
    let mut inst = Instance::new();
    let mut next_choice = 0usize;
    let mut pick = |n: usize| -> usize {
        let c = choices.get(next_choice).copied().unwrap_or(0) as usize;
        next_choice += 1;
        c % n.max(1)
    };
    // Each top-level name gets a few roots; expansion depth ≤ 4.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        rig: &Rig,
        name: &str,
        start: u32,
        end: u32,
        depth: usize,
        inst: &mut Instance,
        pick: &mut dyn FnMut(usize) -> usize,
    ) {
        let mut region = Instance::new();
        region.insert(name, RegionSet::from_regions(vec![qof::pat::Region::new(start, end)]));
        inst.append(&region);
        if depth >= 4 || end - start < 8 {
            return;
        }
        let succs = rig.successors(name);
        if succs.is_empty() {
            return;
        }
        // Up to two children in disjoint strict sub-spans.
        let n_children = 1 + pick(2);
        let width = (end - start - 2) / n_children as u32;
        for k in 0..n_children {
            if width < 4 {
                break;
            }
            let child = succs[pick(succs.len())];
            let s = start + 1 + k as u32 * width;
            let e = s + width - 2;
            if e > s {
                expand(rig, child, s, e, depth + 1, inst, pick);
            }
        }
    }
    let mut offset = 0u32;
    for name in NAMES {
        // Two roots per name keep instance sizes interesting.
        for _ in 0..2 {
            expand(rig, name, offset, offset + 96, 0, &mut inst, &mut pick);
            offset += 100;
        }
    }
    inst
}

/// Evaluates a projection (⊂) chain against an instance: the result is the
/// deepest name's regions, right-grouped as in the paper.
fn eval_proj_chain(expr: &InclusionExpr, inst: &Instance, forest: &UniverseForest) -> RegionSet {
    let names = expr.names();
    let ops = expr.ops();
    let empty = RegionSet::new();
    let get = |n: &str| inst.get(n).unwrap_or(&empty).clone();
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

/// Evaluates an inclusion chain (no selector) against an instance.
fn eval_chain(expr: &InclusionExpr, inst: &Instance, forest: &UniverseForest) -> RegionSet {
    let names = expr.names();
    let ops = expr.ops();
    let empty = RegionSet::new();
    let get = |n: &str| inst.get(n).unwrap_or(&empty).clone();
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

/// A random walk of RIG edges starting anywhere, as chain names.
fn random_walk(rig: &Rig, start: usize, picks: &[u8]) -> Vec<String> {
    let mut names = vec![NAMES[start % NAMES.len()].to_string()];
    for &p in picks {
        let succs = rig.successors(names.last().expect("non-empty"));
        if succs.is_empty() {
            break;
        }
        names.push(succs[p as usize % succs.len()].to_owned());
    }
    names
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn optimizer_preserves_semantics(
        rig in rig_strategy(),
        choices in prop::collection::vec(any::<u8>(), 64),
        start in 0usize..6,
        picks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        let names = random_walk(&rig, start, &picks);
        prop_assume!(names.len() >= 2);
        let inst = build_instance(&rig, &choices);
        let forest = inst.forest();
        prop_assert!(forest.is_properly_nested());

        let e1 = InclusionExpr::all_direct(Direction::Including, names.clone(), None);
        let opt = optimize(&e1, &rig);
        let before = eval_chain(&e1, &inst, forest);
        if opt.trivially_empty {
            prop_assert!(before.is_empty(), "Prop 3.3 flagged a non-empty expression {e1}");
        } else {
            let after = eval_chain(&opt.expr, &inst, forest);
            prop_assert_eq!(
                before, after,
                "{} and {} disagree on a satisfying instance", e1, opt.expr
            );
        }
    }

    #[test]
    fn optimizer_preserves_projection_semantics(
        rig in rig_strategy(),
        choices in prop::collection::vec(any::<u8>(), 64),
        start in 0usize..6,
        picks in prop::collection::vec(any::<u8>(), 1..4),
    ) {
        // §5.2: projections use ⊂/⊂d chains; the optimizer treats them
        // symmetrically, and the rewrites must preserve the *deep* result.
        let names = random_walk(&rig, start, &picks);
        prop_assume!(names.len() >= 2);
        let inst = build_instance(&rig, &choices);
        let forest = inst.forest();
        let e1 = InclusionExpr::all_direct(Direction::IncludedIn, names.clone(), None);
        let opt = optimize(&e1, &rig);
        let before = eval_proj_chain(&e1, &inst, forest);
        if opt.trivially_empty {
            prop_assert!(before.is_empty(), "Prop 3.3 flagged non-empty projection {e1}");
        } else {
            let after = eval_proj_chain(&opt.expr, &inst, forest);
            prop_assert_eq!(
                before, after,
                "projections {} and {} disagree on a satisfying instance", e1, opt.expr
            );
        }
    }

    #[test]
    fn optimizer_never_grows_cost(
        rig in rig_strategy(),
        start in 0usize..6,
        picks in prop::collection::vec(any::<u8>(), 1..5),
    ) {
        let names = random_walk(&rig, start, &picks);
        prop_assume!(names.len() >= 2);
        let e1 = InclusionExpr::all_direct(Direction::Including, names, None);
        let opt = optimize(&e1, &rig);
        prop_assert!(opt.expr.names().len() <= e1.names().len());
        prop_assert!(opt.expr.direct_ops() <= e1.direct_ops());
    }

    #[test]
    fn cost_equal_normal_forms(
        rig in rig_strategy(),
        start in 0usize..6,
        picks in prop::collection::vec(any::<u8>(), 1..5),
        order in prop::collection::vec(any::<u8>(), 32),
        choices in prop::collection::vec(any::<u8>(), 48),
    ) {
        let names = random_walk(&rig, start, &picks);
        prop_assume!(names.len() >= 2);
        let e1 = InclusionExpr::all_direct(Direction::Including, names.clone(), None);
        prop_assume!(!optimize(&e1, &rig).trivially_empty);

        // Apply single rewrites in a random order until none applies.
        let mut ns: Vec<String> = names;
        let mut ops: Vec<ChainOp> = vec![ChainOp::Direct; ns.len() - 1];
        let mut step = 0usize;
        loop {
            // Enumerate applicable rewrites per Proposition 3.5.
            let mut apps: Vec<(bool, usize)> = Vec::new(); // (is_weaken, index)
            for i in 0..ops.len() {
                if ops[i] == ChainOp::Direct {
                    let rightmost = i + 1 == ns.len() - 1;
                    if rig.only_path_edge(&ns[i], &ns[i + 1])
                        || rightmost && rig.all_paths_start_with_edge(&ns[i], &ns[i + 1])
                    {
                        apps.push((true, i));
                    }
                }
                if i + 1 < ops.len()
                    && ops[i] == ChainOp::Incl
                    && ops[i + 1] == ChainOp::Incl
                    && rig.all_paths_pass_through(&ns[i], &ns[i + 2], &ns[i + 1])
                {
                    apps.push((false, i));
                }
            }
            if apps.is_empty() {
                break;
            }
            let pick = order.get(step).copied().unwrap_or(0) as usize % apps.len();
            step += 1;
            let (weaken, i) = apps[pick];
            if weaken {
                ops[i] = ChainOp::Incl;
            } else {
                ns.remove(i + 1);
                ops.remove(i);
            }
            prop_assert!(step < 200, "rewriting must terminate");
        }
        let random_order = InclusionExpr::including(ns, ops, None);
        let fixed_order = optimize(&e1, &rig).expr;
        // Normal forms may differ (the Theorem 3.6 counterexample), but
        // they must cost the same...
        prop_assert_eq!(
            random_order.names().len(),
            fixed_order.names().len(),
            "normal forms of different length for {}: {} vs {}",
            e1, random_order, fixed_order
        );
        prop_assert_eq!(random_order.direct_ops(), fixed_order.direct_ops());
        // ...and be semantically equivalent on satisfying instances.
        let inst = build_instance(&rig, &choices);
        let forest = inst.forest();
        prop_assert_eq!(
            eval_chain(&random_order, &inst, forest),
            eval_chain(&fixed_order, &inst, forest),
            "normal forms {} and {} disagree semantically", random_order, fixed_order
        );
    }

    /// Pinned regression: the paper's "works for ⊂/⊂d as well" (§5.2) needs
    /// the endpoint rule dualized. With A → E and E self-nested (E → D → E),
    /// `E ⊂d A` must NOT weaken to `E ⊂ A`: the former returns only the
    /// E regions directly inside an A, the latter adds every nested E.
    #[test]
    fn projection_endpoint_weakening_is_dualized(_x in 0..1i32) {
        let mut rig = Rig::new();
        rig.add_edge("A", "E");
        rig.add_edge("E", "D");
        rig.add_edge("D", "E");
        let e = InclusionExpr::all_direct(
            Direction::IncludedIn,
            vec!["A".into(), "E".into()],
            None,
        );
        let opt = optimize(&e, &rig);
        prop_assert_eq!(opt.expr.to_string(), "E ⊂d A", "must keep ⊂d");
        // The selection direction DOES weaken (the A-side result is the
        // same either way).
        let sel = InclusionExpr::all_direct(
            Direction::Including,
            vec!["A".into(), "E".into()],
            None,
        );
        prop_assert_eq!(optimize(&sel, &rig).expr.to_string(), "A ⊃ E");
    }

    /// The concrete Theorem 3.6 counterexample, pinned as a regression test.
    #[test]
    fn theorem_3_6_counterexample_is_cost_equal(_x in 0..1i32) {
        let mut rig = Rig::new();
        rig.add_edge("A", "B");
        rig.add_edge("A", "F");
        rig.add_edge("B", "E");
        rig.add_edge("E", "F");
        let e = InclusionExpr::all_direct(
            Direction::Including,
            vec!["A".into(), "B".into(), "E".into(), "F".into()],
            None,
        );
        let opt = optimize(&e, &rig).expr;
        // Leftmost-first drops B: A ⊃ E ⊃ F.
        prop_assert_eq!(opt.to_string(), "A ⊃ E ⊃ F");
        // The alternative normal form A ⊃ B ⊃ F is irreducible too: every
        // path A→F does NOT pass through B (the direct edge exists).
        prop_assert!(!rig.all_paths_pass_through("A", "F", "B"));
        prop_assert!(!rig.all_paths_pass_through("A", "F", "E"));
    }
}
