//! The rewrite certifier: the one replay of the optimizer's trace.
//!
//! The optimizer's output is *checked, not trusted*. [`certify`] starts
//! from the original chain and re-applies every recorded
//! [`Rewrite`](crate::Rewrite) at its hop. Each step must (1) apply to the
//! current chain there — a `⊃d` to weaken, two `⊃` hops to shorten — and
//! (2) meet the Proposition 3.5 side condition it claims, and the replay
//! as a whole must (3) land exactly on the optimizer's output. A
//! Proposition 3.3 `∅` verdict is certified by the per-hop dead-edge test,
//! the structural ground truth, and carries no steps.
//!
//! No abstract state is compared: a RIG-only state has no cardinality,
//! and a sound rewrite preserves the concrete result, so the replay's
//! structural checks are the whole verdict. The planner marks each
//! `PlanRewrite` certified or not from it, `qof check` reports a refused
//! step as `QOF110`, and a run whose steps do not all certify stays
//! unoptimized.

use crate::analyze::{Code, Diagnostic, Severity};
use crate::optimizer::{is_trivially_empty, weaken_why, Optimized, RewriteKind};
use crate::{ChainOp, InclusionExpr, Rig};

/// The certifier's verdict on one optimized chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyResult {
    /// One verdict per entry of the optimizer trace, in order: the step
    /// applied at its hop and Proposition 3.5 licenses it there. The
    /// replay stops at the first step that does not apply, so that step
    /// and every later one are `false`.
    pub steps: Vec<bool>,
    /// Whether the replay landed exactly on the optimized chain. For a
    /// Proposition 3.3 `∅` verdict, nothing is replayed: whether the
    /// per-hop dead-edge test agrees with it and it carries no rewrites.
    pub lands: bool,
}

impl CertifyResult {
    /// Whether every step is certified and the replay reproduced the
    /// optimizer's output.
    pub fn all_certified(&self) -> bool {
        self.lands && self.steps.iter().all(|&s| s)
    }
}

/// Replays `out`, the optimizer's verdict on `original` over `rig`, step
/// by step at each recorded hop. See the module docs for the checks.
pub fn certify(original: &InclusionExpr, rig: &Rig, out: &Optimized) -> CertifyResult {
    let empty = is_trivially_empty(original, rig);
    if empty || out.trivially_empty {
        let lands = empty == out.trivially_empty && out.trace.is_empty();
        return CertifyResult { steps: vec![false; out.trace.len()], lands };
    }
    let mut names: Vec<String> = original.names().to_vec();
    let mut ops: Vec<ChainOp> = original.ops().to_vec();
    let mut steps = Vec::with_capacity(out.trace.len());
    for rw in &out.trace {
        let licensed = match rw.kind {
            RewriteKind::Weaken { at } => {
                if ops.get(at) != Some(&ChainOp::Direct) {
                    break;
                }
                ops[at] = ChainOp::Incl;
                weaken_why(rig, original.direction(), &names, at).is_some()
            }
            RewriteKind::Shorten { at } => {
                let incl = |i: usize| ops.get(i) == Some(&ChainOp::Incl);
                if !(incl(at) && incl(at + 1)) {
                    break;
                }
                let (a, b) = (&names[at], &names[at + 2]);
                let licensed = a != b && rig.all_paths_pass_through(a, b, &names[at + 1]);
                names.remove(at + 1);
                ops.remove(at);
                licensed
            }
        };
        steps.push(licensed);
    }
    let lands =
        steps.len() == out.trace.len() && names == out.expr.names() && ops == out.expr.ops();
    steps.resize(out.trace.len(), false);
    CertifyResult { steps, lands }
}

/// Renders an uncertified rewrite as the `QOF110` diagnostic `qof check`
/// emits — the one constructor behind both the check path and tests, so
/// the rendered shape cannot drift.
pub fn uncertified_diagnostic(proposition: &str, description: &str) -> Diagnostic {
    Diagnostic::new(
        Code::Qof110,
        Severity::Warning,
        format!("optimizer rewrite [{proposition}] `{description}` failed certification"),
    )
    .with_note(
        "replaying the optimizer trace did not confirm the step (it must apply at its hop, \
         meet its proposition's side condition and land on the optimized chain), so the \
         planner leaves this chain unoptimized",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, Direction, Rewrite};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    fn bib_rig() -> Rig {
        let mut g = Rig::new();
        g.add_edge("Reference", "Authors");
        g.add_edge("Authors", "Name");
        g.add_edge("Name", "Last_Name");
        g
    }

    fn forged(expr: InclusionExpr, kinds: &[RewriteKind]) -> Optimized {
        let trace = kinds
            .iter()
            .map(|&kind| Rewrite { kind, description: String::new(), result: String::new() })
            .collect();
        Optimized { expr, trivially_empty: false, trace }
    }

    #[test]
    fn real_optimizer_output_is_certified() {
        let g = bib_rig();
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            None,
        );
        let out = optimize(&e, &g);
        assert!(!out.trace.is_empty(), "the golden chain must rewrite");
        let cert = certify(&e, &g, &out);
        assert!(cert.all_certified(), "{cert:?}");
        assert_eq!(cert.steps.len(), out.trace.len());
    }

    #[test]
    fn trivially_empty_verdict_is_certified() {
        let mut g = Rig::new();
        g.add_edge("A", "B");
        let e = InclusionExpr::all_direct(Direction::Including, names(&["B", "A"]), None);
        let out = optimize(&e, &g);
        assert!(out.trivially_empty);
        let cert = certify(&e, &g, &out);
        assert!(cert.all_certified(), "{cert:?}");
        assert!(cert.steps.is_empty());
    }

    #[test]
    fn forged_shorten_is_not_certified() {
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        g.add_edge("A", "C"); // second path: dropping B is unsound
        let e = InclusionExpr::including(
            names(&["A", "B", "C"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            None,
        );
        let out = forged(
            e.with_chain(names(&["A", "C"]), vec![ChainOp::Incl]),
            &[RewriteKind::Shorten { at: 0 }],
        );
        let cert = certify(&e, &g, &out);
        // The step applies and the replay lands; only the license fails.
        assert_eq!(cert, CertifyResult { steps: vec![false], lands: true });
        assert!(!cert.all_certified());
    }

    #[test]
    fn a_step_that_does_not_apply_stops_the_replay() {
        // Shortening needs two `⊃` hops; `A ⊃d B ⊃d C` has none, so the
        // first step does not apply and the licensed weakening after it
        // is never replayed.
        let g = bib_rig();
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name"]),
            None,
        );
        let out = forged(
            e.with_chain(names(&["Reference", "Name"]), vec![ChainOp::Direct]),
            &[RewriteKind::Shorten { at: 0 }, RewriteKind::Weaken { at: 0 }],
        );
        let cert = certify(&e, &g, &out);
        assert_eq!(cert, CertifyResult { steps: vec![false, false], lands: false });
    }

    #[test]
    fn a_trace_that_misses_the_output_does_not_land() {
        // Every step is licensed, but the claimed output is not where
        // the trace leads.
        let g = bib_rig();
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name"]),
            None,
        );
        let mut out = optimize(&e, &g);
        assert!(certify(&e, &g, &out).all_certified());
        out.expr = e.clone();
        let cert = certify(&e, &g, &out);
        assert!(cert.steps.iter().all(|&s| s), "{cert:?}");
        assert!(!cert.lands);
    }

    #[test]
    fn forged_empty_verdict_is_not_certified() {
        let g = bib_rig();
        let e =
            InclusionExpr::including(names(&["Reference", "Authors"]), vec![ChainOp::Incl], None);
        let forged = Optimized { expr: e.clone(), trivially_empty: true, trace: Vec::new() };
        let cert = certify(&e, &g, &forged);
        assert!(!cert.all_certified());
    }
}
