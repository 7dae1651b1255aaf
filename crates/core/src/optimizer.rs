//! The optimization algorithm of §3.2: given an inclusion expression and a
//! RIG, compute the unique most efficient equivalent expression
//! (Theorem 3.6).
//!
//! Step 1 weakens `⊃d` to `⊃` wherever Proposition 3.5(a) licenses it;
//! step 2 repeatedly shortens `Ri ⊃ Rj ⊃ Rk` to `Ri ⊃ Rk` wherever
//! Proposition 3.5(b) licenses it, until no more changes can be done.
//! Both steps are written once, on `Reduct`: [`optimize`] follows the
//! leftmost shortening each time, and [`normal_forms`] explores every
//! order, so `optimize` is always `normal_forms`' first form.
//!
//! The paper claims (Theorem 3.6, via Sethi's finite Church–Rosser theorem)
//! that the normal form is *unique*. Property testing found a
//! counterexample — with edges `A→{B,F}, B→E, E→F` the chain
//! `A ⊃d B ⊃d E ⊃d F` reduces to either `A ⊃ E ⊃ F` or `A ⊃ B ⊃ F`
//! depending on which shortening fires first. All normal forms observed are
//! semantically equivalent and cost-identical (see
//! `tests/optimizer_properties.rs`), so this implementation simply applies
//! rewrites leftmost-first for a canonical, deterministic result.
//!
//! Projection chains (`⊂`/`⊂d`) are handled identically: the chain is kept
//! in container order internally, which makes the two directions symmetric.

use crate::{ChainOp, Direction, InclusionExpr, Rig};

/// The structural identity of a rewrite: which Proposition 3.5 step fired,
/// and at which hop of the chain as it stood before the step. A chain may
/// repeat a name pair (self-nested grammars), so only the position
/// locates the hop; the certifier ([`crate::certify`]) re-checks each step
/// exactly there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewriteKind {
    /// Proposition 3.5(a): hop `at`, `names[at] ⊃d names[at + 1]`,
    /// weakened to `⊃`.
    Weaken {
        /// The weakened hop.
        at: usize,
    },
    /// Proposition 3.5(b): `names[at] ⊃ names[at + 1] ⊃ names[at + 2]`
    /// shortened to `names[at] ⊃ names[at + 2]`.
    Shorten {
        /// The first of the two merged hops.
        at: usize,
    },
}

impl RewriteKind {
    /// The proposition that licenses the step: `3.5(a)` or `3.5(b)`.
    pub fn proposition(self) -> &'static str {
        match self {
            RewriteKind::Weaken { .. } => "3.5(a)",
            RewriteKind::Shorten { .. } => "3.5(b)",
        }
    }
}

/// One applied rewrite, for EXPLAIN output, the examples, and the
/// certifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// What was rewritten, structurally.
    pub kind: RewriteKind,
    /// Human-readable description of the rewrite and its justification.
    pub description: String,
    /// The expression after this rewrite.
    pub result: String,
}

/// The result of optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Optimized {
    /// The most efficient equivalent expression.
    pub expr: InclusionExpr,
    /// Whether Proposition 3.3 proved the expression always empty.
    pub trivially_empty: bool,
    /// The rewrites applied, in order.
    pub trace: Vec<Rewrite>,
}

/// Proposition 3.3: the expression's result is empty for **every** instance
/// satisfying the RIG iff (i) some `Ri ⊃d Rj` has no edge `(Ri, Rj)`, or
/// (ii) some `Ri ⊃ Rj` has no path from `Ri` to `Rj`.
pub fn is_trivially_empty(expr: &InclusionExpr, rig: &Rig) -> bool {
    let names = expr.names();
    for (i, op) in expr.ops().iter().enumerate() {
        let (a, b) = (&names[i], &names[i + 1]);
        let dead = match op {
            ChainOp::Direct => !rig.has_edge(a, b),
            ChainOp::Incl => !rig.has_path(a, b),
        };
        if dead {
            return true;
        }
    }
    false
}

/// The §3.2 optimization algorithm (leftmost-first, see the module docs on
/// uniqueness). Runs in time polynomial in the chain length (each graph
/// predicate is one or two reachability queries).
pub fn optimize(expr: &InclusionExpr, rig: &Rig) -> Optimized {
    if is_trivially_empty(expr, rig) {
        return empty_verdict(expr);
    }
    let mut r = Reduct::weakened(expr, rig);
    loop {
        let Some(at) = r.shortenings(rig).next() else { break };
        r.shorten(expr, at);
    }
    r.finish(expr)
}

/// The Proposition 3.3 verdict: the expression unchanged, flagged empty.
fn empty_verdict(expr: &InclusionExpr) -> Optimized {
    Optimized { expr: expr.clone(), trivially_empty: true, trace: Vec::new() }
}

/// Proposition 3.5(a)'s side condition at hop `i`, with the human-readable
/// justification: the edge is the only path, or the hop touches the
/// chain's existential endpoint. For selection (⊃) chains that endpoint is
/// the deepest (rightmost) element and the rule is "every path starts with
/// the edge"; for projection (⊂) chains the result is the *deepest* set,
/// so the dual applies at the outermost end: "every path ends with the
/// edge" (the paper's §5.2 symmetry claim needs this dualization —
/// property testing caught the literal rule producing wrong projections on
/// self-nested regions).
pub(crate) fn weaken_why(rig: &Rig, dir: Direction, names: &[String], i: usize) -> Option<String> {
    let (a, b) = (&names[i], &names[i + 1]);
    if rig.only_path_edge(a, b) {
        return Some(format!("({a}, {b}) is the only path from {a} to {b}"));
    }
    let endpoint_ok = match dir {
        Direction::Including => i + 1 == names.len() - 1 && rig.all_paths_start_with_edge(a, b),
        Direction::IncludedIn => i == 0 && rig.all_paths_end_with_edge(a, b),
    };
    if endpoint_ok {
        let rule = match dir {
            Direction::Including => "starts",
            Direction::IncludedIn => "ends",
        };
        return Some(format!("endpoint hop and every path from {a} to {b} {rule} with the edge"));
    }
    None
}

/// A chain part-way through the §3.2 reduction, with the rewrites that
/// produced it.
#[derive(Clone)]
struct Reduct {
    names: Vec<String>,
    ops: Vec<ChainOp>,
    trace: Vec<Rewrite>,
}

impl Reduct {
    /// Step 1: weakens every `⊃d` Proposition 3.5(a) licenses. A hop's
    /// license depends only on the names and its position, never on the
    /// other operators, so one left-to-right pass is order-independent.
    fn weakened(expr: &InclusionExpr, rig: &Rig) -> Self {
        let mut r =
            Reduct { names: expr.names().to_vec(), ops: expr.ops().to_vec(), trace: Vec::new() };
        for at in 0..r.ops.len() {
            if r.ops[at] != ChainOp::Direct {
                continue;
            }
            if let Some(why) = weaken_why(rig, expr.direction(), &r.names, at) {
                r.ops[at] = ChainOp::Incl;
                let (a, b) = (&r.names[at], &r.names[at + 1]);
                let description = format!("weaken direct inclusion {a} → {b}: {why}");
                r.record(expr, RewriteKind::Weaken { at }, description);
            }
        }
        r
    }

    /// Step 2's choices, leftmost first: the hops `at` where
    /// `names[at] ⊃ names[at + 1] ⊃ names[at + 2]` may drop its middle
    /// name because every path between the outer two passes through it
    /// (Proposition 3.5(b)), and the outer two differ: `⊃` pairs a region
    /// with itself, so `A ⊃ A` would also match at depth zero.
    fn shortenings<'r>(&'r self, rig: &'r Rig) -> impl Iterator<Item = usize> + 'r {
        (0..self.names.len().saturating_sub(2)).filter(move |&at| {
            self.ops[at] == ChainOp::Incl
                && self.ops[at + 1] == ChainOp::Incl
                && self.names[at] != self.names[at + 2]
                && rig.all_paths_pass_through(
                    &self.names[at],
                    &self.names[at + 2],
                    &self.names[at + 1],
                )
        })
    }

    /// Applies the step-2 shortening at `at` (one of [`Reduct::shortenings`]).
    fn shorten(&mut self, expr: &InclusionExpr, at: usize) {
        let m = self.names.remove(at + 1);
        self.ops.remove(at);
        let (a, b) = (&self.names[at], &self.names[at + 1]);
        let description = format!("drop {m}: every path from {a} to {b} passes through {m}");
        self.record(expr, RewriteKind::Shorten { at }, description);
    }

    fn record(&mut self, expr: &InclusionExpr, kind: RewriteKind, description: String) {
        let result = expr.with_chain(self.names.clone(), self.ops.clone()).to_string();
        self.trace.push(Rewrite { kind, description, result });
    }

    fn finish(self, expr: &InclusionExpr) -> Optimized {
        Optimized {
            expr: expr.with_chain(self.names, self.ops),
            trivially_empty: false,
            trace: self.trace,
        }
    }
}

/// Bound on the normal forms [`normal_forms`] enumerates and on the
/// intermediate reduction states it revisits — non-confluent chains are
/// rare and short, so a small cap loses nothing in practice while keeping
/// enumeration polynomial on adversarial chains (e.g. E8's length-128
/// stress chains).
const MAX_NORMAL_FORMS: usize = 16;
const MAX_REDUCTION_STATES: usize = 512;

/// Enumerates the distinct §3.2 normal forms of `expr` (bounded): step 1's
/// weakenings are order-independent and applied once, then every order of
/// step 2's shortenings is explored depth-first, deduplicating reduction
/// states. The *first* returned form is always the canonical leftmost-first
/// result of [`optimize`], trace and all; on confluent inputs (the
/// overwhelmingly common case, per Theorem 3.6) the result is that single
/// form.
pub fn normal_forms(expr: &InclusionExpr, rig: &Rig) -> Vec<Optimized> {
    if is_trivially_empty(expr, rig) {
        return vec![empty_verdict(expr)];
    }
    let mut forms: Vec<Optimized> = Vec::new();
    let mut visited: Vec<(Vec<String>, Vec<ChainOp>)> = Vec::new();
    let mut stack = vec![Reduct::weakened(expr, rig)];
    // Depth-first with choices pushed in *descending* order, so the
    // leftmost choice is popped (and its fixpoint recorded) first.
    while let Some(r) = stack.pop() {
        if visited.len() >= MAX_REDUCTION_STATES || forms.len() >= MAX_NORMAL_FORMS {
            break;
        }
        if visited.iter().any(|(n, o)| *n == r.names && *o == r.ops) {
            continue;
        }
        visited.push((r.names.clone(), r.ops.clone()));
        let choices: Vec<usize> = r.shortenings(rig).collect();
        if choices.is_empty() {
            let form = r.finish(expr);
            if !forms.iter().any(|f| f.expr == form.expr) {
                forms.push(form);
            }
            continue;
        }
        for &at in choices.iter().rev() {
            let mut next = r.clone();
            next.shorten(expr, at);
            stack.push(next);
        }
    }
    forms
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectKind;

    fn bib_rig() -> Rig {
        let mut g = Rig::new();
        g.add_edge("Reference", "Key");
        g.add_edge("Reference", "Authors");
        g.add_edge("Reference", "Title");
        g.add_edge("Reference", "Editors");
        g.add_edge("Authors", "Name");
        g.add_edge("Editors", "Name");
        g.add_edge("Name", "First_Name");
        g.add_edge("Name", "Last_Name");
        g
    }

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn paper_running_example_e1_to_e2() {
        // Reference ⊃d Authors ⊃d Name ⊃d σ_"Chang"(Last_Name)
        // must become Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name).
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let opt = optimize(&e1, &bib_rig());
        assert!(!opt.trivially_empty);
        assert_eq!(opt.expr.to_string(), "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)");
        // Three weakenings + one shortening.
        assert_eq!(opt.trace.len(), 4);
    }

    #[test]
    fn authors_test_is_not_dropped() {
        // The result keeps Authors: paths to Last_Name also run through
        // Editors, so inclusion in Authors must still be tested (the paper's
        // key point about filtering editor names).
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let opt = optimize(&e1, &bib_rig());
        assert!(opt.expr.names().iter().any(|n| n == "Authors"));
        assert!(!opt.expr.names().iter().any(|n| n == "Name"));
    }

    #[test]
    fn without_ambiguity_chain_collapses_fully() {
        // Drop the Editors route: every path to Last_Name now goes through
        // Authors and Name, so both middles vanish.
        let mut g = Rig::new();
        g.add_edge("Reference", "Authors");
        g.add_edge("Authors", "Name");
        g.add_edge("Name", "Last_Name");
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let opt = optimize(&e, &g);
        assert_eq!(opt.expr.to_string(), "Reference ⊃ σ_\"Chang\"(Last_Name)");
    }

    #[test]
    fn trivially_empty_no_edge() {
        // e3 = Reference ⊃ Title ⊃ Last_Name: no path Title → Last_Name.
        let e = InclusionExpr::including(
            names(&["Reference", "Title", "Last_Name"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            None,
        );
        assert!(is_trivially_empty(&e, &bib_rig()));
        assert!(optimize(&e, &bib_rig()).trivially_empty);
    }

    #[test]
    fn trivially_empty_direct_without_edge() {
        // Reference ⊃d Name: path exists but no edge.
        let e =
            InclusionExpr::all_direct(Direction::Including, names(&["Reference", "Name"]), None);
        assert!(is_trivially_empty(&e, &bib_rig()));
    }

    #[test]
    fn non_rightmost_direct_is_kept_when_paths_diverge() {
        // G: A →d B with a second path A → C → B, and B → D.
        // A ⊃d B ⊃d D: the (A,B) direct test cannot be weakened (two paths,
        // B not rightmost); (B,D) can if D is only reachable via the edge.
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("A", "C");
        g.add_edge("C", "B");
        g.add_edge("B", "D");
        let e = InclusionExpr::all_direct(Direction::Including, names(&["A", "B", "D"]), None);
        let opt = optimize(&e, &g);
        assert_eq!(opt.expr.to_string(), "A ⊃d B ⊃ D");
    }

    #[test]
    fn rightmost_with_multiple_paths_all_starting_with_edge() {
        // A → B plus A → B → ... : every path from A to B starts with the
        // edge (B has a self-returning route B → E → B).
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("B", "E");
        g.add_edge("E", "B");
        let e = InclusionExpr::all_direct(Direction::Including, names(&["A", "B"]), None);
        let opt = optimize(&e, &g);
        // Multiple paths A→B exist (through the cycle), but all start with
        // the edge and B is rightmost: weakened.
        assert_eq!(opt.expr.to_string(), "A ⊃ B");
    }

    #[test]
    fn projection_chain_optimizes_symmetrically() {
        // §5.2: Last_Name ⊂d Name ⊂d Authors ⊂d Reference →
        //       Last_Name ⊂ Authors ⊂ Reference.
        let e = InclusionExpr::all_direct(
            Direction::IncludedIn,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            None,
        );
        let opt = optimize(&e, &bib_rig());
        assert_eq!(opt.expr.to_string(), "Last_Name ⊂ Authors ⊂ Reference");
    }

    #[test]
    fn cyclic_rig_keeps_direct_ops() {
        // Self-nested sections: Section → Subsections → Section.
        // Section ⊃d Subsections cannot be weakened: paths through the cycle
        // exist and Subsections is rightmost, but not every path starts with
        // the edge... actually here every path Section→Subsections starts
        // with the only edge out of Section towards Subsections.
        let mut g = Rig::new();
        g.add_edge("Section", "Subsections");
        g.add_edge("Subsections", "Section");
        g.add_edge("Section", "Head");
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Section", "Subsections"]),
            None,
        );
        let opt = optimize(&e, &g);
        // Successors of Section besides Subsections: Head, which does not
        // reach Subsections. So the rightmost rule applies.
        assert_eq!(opt.expr.to_string(), "Section ⊃ Subsections");

        // But Section ⊃d Head cannot be weakened even though Head is
        // rightmost: a path Section → Subsections → Section → Head does not
        // start with the edge.
        let e2 = InclusionExpr::all_direct(Direction::Including, names(&["Section", "Head"]), None);
        let opt2 = optimize(&e2, &g);
        assert_eq!(opt2.expr.to_string(), "Section ⊃d Head");
    }

    #[test]
    fn idempotent() {
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let g = bib_rig();
        let once = optimize(&e1, &g);
        let twice = optimize(&once.expr, &g);
        assert_eq!(once.expr, twice.expr);
        assert!(twice.trace.is_empty());
    }

    #[test]
    fn two_name_chain_weakens_or_keeps() {
        let g = bib_rig();
        // Reference ⊃d Key: edge is the only path — weakened.
        let e = InclusionExpr::all_direct(Direction::Including, names(&["Reference", "Key"]), None);
        assert_eq!(optimize(&e, &g).expr.to_string(), "Reference ⊃ Key");
    }

    #[test]
    fn selector_is_preserved_through_rewrites() {
        let g = bib_rig();
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Authors", "Name", "Last_Name"]),
            Some((SelectKind::Contains, "Chang".into())),
        );
        let opt = optimize(&e, &g);
        assert_eq!(opt.expr.to_string(), "Authors ⊃ σ∋\"Chang\"(Last_Name)");
        assert_eq!(opt.expr.selector().map(|(k, _)| k), Some(SelectKind::Contains));
    }

    #[test]
    fn trace_describes_rewrites() {
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let opt = optimize(&e1, &bib_rig());
        assert!(opt.trace.iter().any(|r| r.description.contains("drop Name")));
        assert!(opt.trace.iter().any(|r| r.description.contains("weaken direct inclusion")));
    }

    /// The documented non-confluent RIG: edges `A→{B,F}, B→E, E→F`.
    fn non_confluent_rig() -> Rig {
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("A", "F");
        g.add_edge("B", "E");
        g.add_edge("E", "F");
        g
    }

    #[test]
    fn normal_forms_enumerates_both_reducts_of_the_counterexample() {
        let g = non_confluent_rig();
        let e = InclusionExpr::all_direct(Direction::Including, names(&["A", "B", "E", "F"]), None);
        let forms = normal_forms(&e, &g);
        let spelled: Vec<String> = forms.iter().map(|f| f.expr.to_string()).collect();
        assert_eq!(forms.len(), 2, "expected exactly two normal forms, got {spelled:?}");
        // The first form is always optimize()'s canonical leftmost-first
        // result, trace and all.
        let canonical = optimize(&e, &g);
        assert_eq!(forms[0].expr, canonical.expr);
        assert_eq!(forms[0].trace, canonical.trace);
        assert!(spelled.contains(&"A ⊃ E ⊃ F".to_string()));
        assert!(spelled.contains(&"A ⊃ B ⊃ F".to_string()));
    }

    #[test]
    fn normal_forms_is_singleton_on_confluent_inputs() {
        let e1 = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        let forms = normal_forms(&e1, &bib_rig());
        assert_eq!(forms.len(), 1);
        let canonical = optimize(&e1, &bib_rig());
        assert_eq!(forms[0].expr, canonical.expr);
        assert_eq!(forms[0].trace, canonical.trace);
    }

    #[test]
    fn normal_forms_short_circuits_trivially_empty() {
        let e = InclusionExpr::including(
            names(&["Reference", "Title", "Last_Name"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            None,
        );
        let forms = normal_forms(&e, &bib_rig());
        assert_eq!(forms.len(), 1);
        assert!(forms[0].trivially_empty);
    }
}
