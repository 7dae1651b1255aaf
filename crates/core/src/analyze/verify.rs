//! Plan self-verification (`QOF030`, `QOF031`) and the one rewrite replay.
//!
//! The optimizer's output is *checked, not trusted*: [`replay`] re-applies
//! every recorded [`Rewrite`](crate::Rewrite) at its hop, starting from the
//! original chain, re-checks the Proposition 3.5 side condition there, and
//! reports whether the replay lands on the optimized chain. It is the only
//! trace replay: [`verify_rewrites`] maps its failures to `QOF030`
//! diagnostics, and the certifier ([`crate::certify`]) turns them into
//! per-step verdicts.
//!
//! On confluence the implementation deliberately deviates from the paper:
//! property testing found RIGs where the normal form is order-dependent
//! (see the `optimizer` module docs). All observed divergent normal forms
//! are cost-identical, so a *syntactic* divergence with equal cost is a
//! `QOF031` **warning** (documenting the Theorem 3.6 counterexample),
//! while a cost divergence would be a `QOF031` **error** — and trips the
//! `debug_assertions`/`self-verify` assertion inside
//! [`optimize`](crate::optimize) itself.

use super::{Code, Diagnostic, Severity};
use crate::optimizer::{is_trivially_empty, normal_forms, weaken_why, Optimized, RewriteKind};
use crate::{ChainOp, InclusionExpr, Rig};

/// One trace step as [`replay`] found it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayStep {
    /// The step spelled against the chain it replays on, e.g.
    /// `weaken A ⊃d B at hop 0`.
    pub what: String,
    /// Whether the chain has the step's shape at its hop: a `⊃d` to
    /// weaken, or two `⊃` hops to shorten.
    pub applies: bool,
    /// Whether Proposition 3.5 licenses the step there.
    pub licensed: bool,
}

/// What replaying an optimizer trace found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Why the optimizer's Proposition 3.3 `∅` verdict is wrong, when it
    /// is: it disagrees with the per-hop dead-edge test, or an `∅` verdict
    /// carries rewrites. No step is replayed then.
    pub empty_fault: Option<String>,
    /// The replayed steps in trace order. Replay stops after the first
    /// step that does not apply, so later steps may be missing.
    pub steps: Vec<ReplayStep>,
    /// The chain the replay stopped on: after the last step replayed, or
    /// the original chain when no step was.
    pub landed: InclusionExpr,
    /// Whether the `∅` verdict holds, every step applied, and the replay
    /// landed exactly on the optimized chain.
    pub lands: bool,
}

/// Replays `out`, the optimizer's verdict on `original` over `rig`, step
/// by step at each recorded hop.
pub fn replay(original: &InclusionExpr, rig: &Rig, out: &Optimized) -> Replay {
    let empty = is_trivially_empty(original, rig);
    let empty_fault = if out.trivially_empty != empty {
        Some(format!(
            "the optimizer marked `{original}` trivially_empty={}, but Proposition 3.3 says {empty}",
            out.trivially_empty
        ))
    } else if empty && !out.trace.is_empty() {
        Some("a trivially empty expression must not also be rewritten".to_string())
    } else {
        None
    };
    if empty || out.trivially_empty {
        return Replay {
            lands: empty_fault.is_none(),
            empty_fault,
            steps: Vec::new(),
            landed: original.clone(),
        };
    }

    let mut names: Vec<String> = original.names().to_vec();
    let mut ops: Vec<ChainOp> = original.ops().to_vec();
    let mut steps = Vec::with_capacity(out.trace.len());
    for rw in &out.trace {
        let (what, applies, licensed) = match rw.kind {
            RewriteKind::Weaken { at } => {
                let applies = ops.get(at) == Some(&ChainOp::Direct);
                if applies {
                    let what = format!("weaken {} ⊃d {} at hop {at}", names[at], names[at + 1]);
                    let licensed = weaken_why(rig, original.direction(), &names, at).is_some();
                    ops[at] = ChainOp::Incl;
                    (what, true, licensed)
                } else {
                    (format!("weaken hop {at}"), false, false)
                }
            }
            RewriteKind::Shorten { at } => {
                let incl = |i: usize| ops.get(i) == Some(&ChainOp::Incl);
                if incl(at) && incl(at + 1) {
                    let (a, via, b) = (&names[at], &names[at + 1], &names[at + 2]);
                    let what = format!("drop {via} from {a} ⊃ {via} ⊃ {b} at hop {at}");
                    let licensed = a != b && rig.all_paths_pass_through(a, b, via);
                    names.remove(at + 1);
                    ops.remove(at);
                    (what, true, licensed)
                } else {
                    (format!("shorten hops {at} and {}", at + 1), false, false)
                }
            }
        };
        steps.push(ReplayStep { what, applies, licensed });
        if !applies {
            let landed = original.with_chain(names, ops);
            return Replay { empty_fault: None, steps, landed, lands: false };
        }
    }
    let lands = names == out.expr.names() && ops == out.expr.ops();
    Replay { empty_fault: None, steps, landed: original.with_chain(names, ops), lands }
}

/// Replays every rewrite in `out.trace` from `original` ([`replay`]) and
/// reports each failure as a `QOF030` error: a wrong `∅` verdict, a step
/// that does not apply at its hop, a step Proposition 3.5 does not
/// license, or a replay that misses the optimized expression.
pub fn verify_rewrites(original: &InclusionExpr, rig: &Rig, out: &Optimized) -> Vec<Diagnostic> {
    let error = |message: String| Diagnostic::new(Code::Qof030, Severity::Error, message);
    let replay = replay(original, rig, out);
    if let Some(fault) = replay.empty_fault {
        return vec![error(fault)];
    }
    let mut diags = Vec::new();
    for (step, rw) in replay.steps.iter().zip(&out.trace) {
        if !step.applies {
            diags.push(error(format!(
                "rewrite `{}` does not apply to the current chain",
                step.what
            )));
            return diags;
        }
        if !step.licensed {
            let note = match rw.kind {
                RewriteKind::Weaken { .. } => {
                    "the edge is not the only path and the hop is not a licensed endpoint hop"
                }
                RewriteKind::Shorten { .. } => {
                    "some path between the outer names avoids the dropped one, so dropping its \
                     test admits extra results"
                }
            };
            diags.push(
                error(format!(
                    "rewrite `{}` violates Proposition {}",
                    step.what,
                    rw.kind.proposition()
                ))
                .with_note(note),
            );
        }
    }
    if !replay.lands {
        diags.push(
            error(format!("the trace does not reproduce the optimized expression `{}`", out.expr))
                .with_note(format!("replay landed on `{}`", replay.landed)),
        );
    }
    diags
}

/// Probes Theorem 3.6 over every normal form of `expr` ([`normal_forms`]).
/// Divergent normal forms of equal cost are a `QOF031` warning (the
/// documented counterexample class); a cost divergence is a `QOF031`
/// error.
pub fn check_confluence(expr: &InclusionExpr, rig: &Rig) -> Vec<Diagnostic> {
    let forms = normal_forms(expr, rig);
    let [first, rest @ ..] = forms.as_slice() else { return Vec::new() };
    let cost = |e: &InclusionExpr| (e.ops().len(), e.direct_ops());
    let Some(other) =
        rest.iter().find(|f| cost(&f.expr) != cost(&first.expr)).or_else(|| rest.first())
    else {
        return Vec::new();
    };
    let (first, other) = (&first.expr, &other.expr);
    if cost(first) == cost(other) {
        vec![Diagnostic::new(
            Code::Qof031,
            Severity::Warning,
            format!(
                "normal form is order-dependent: {} normal forms, e.g. leftmost-first `{first}` \
                 and `{other}`",
                forms.len()
            ),
        )
        .with_note(
            "a known counterexample class to Theorem 3.6; the forms are cost-identical \
             and semantically equivalent, and the implementation picks leftmost-first \
             deterministically",
        )]
    } else {
        vec![Diagnostic::new(
            Code::Qof031,
            Severity::Error,
            format!(
                "normal forms diverge in cost: leftmost-first gives `{first}`, another `{other}`"
            ),
        )]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, Direction};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn clean_optimization_verifies() {
        let mut g = Rig::new();
        g.add_edge("Reference", "Authors");
        g.add_edge("Authors", "Name");
        g.add_edge("Name", "Last_Name");
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            None,
        );
        let out = optimize(&e, &g);
        assert!(verify_rewrites(&e, &g, &out).is_empty());
        assert!(check_confluence(&e, &g).is_empty());
    }

    #[test]
    fn forged_shorten_is_rejected() {
        // A trace claiming a drop that Prop 3.5(b) does not license.
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("B", "C");
        g.add_edge("A", "C"); // second path: dropping B is unsound
        let e = InclusionExpr::including(
            names(&["A", "B", "C"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            None,
        );
        let forged = Optimized {
            expr: e.with_chain(names(&["A", "C"]), vec![ChainOp::Incl]),
            trivially_empty: false,
            trace: vec![crate::Rewrite {
                kind: RewriteKind::Shorten { at: 0 },
                description: String::new(),
                result: String::new(),
            }],
        };
        let diags = verify_rewrites(&e, &g, &forged);
        assert!(diags.iter().any(|d| d.code == Code::Qof030 && d.severity == Severity::Error));
    }

    #[test]
    fn thm36_counterexample_is_cost_confluent() {
        // The documented counterexample: normal forms differ syntactically
        // but match in cost — QOF031 warning, not error.
        let mut g = Rig::new();
        g.add_edge("A", "B");
        g.add_edge("A", "F");
        g.add_edge("B", "E");
        g.add_edge("E", "F");
        let e = InclusionExpr::all_direct(Direction::Including, names(&["A", "B", "E", "F"]), None);
        let diags = check_confluence(&e, &g);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::Qof031);
        assert_eq!(diags[0].severity, Severity::Warning);
    }
}
