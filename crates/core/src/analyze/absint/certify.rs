//! The rewrite certifier: sign-off on every §3.3/§3.5 step the
//! optimizer recorded.
//!
//! The optimizer's trace is replayed step by step from the original
//! chain by [`replay`], the one trace replay. Each step must (1) apply to
//! the current chain at its recorded hop and (2) satisfy the Proposition
//! 3.5 side condition it claims, and the replay as a whole must (3) land
//! exactly on the optimizer's output. A Proposition 3.3 `∅` verdict is
//! certified by the replay's per-hop dead-edge test — the structural
//! ground truth.
//!
//! No abstract state is compared: a RIG-only state has no cardinality,
//! and a sound rewrite preserves the concrete result, so the replay's
//! structural checks are the whole verdict.
//!
//! Unlike `analyze::verify` (which turns replay failures into `QOF030`
//! diagnostics), the certifier returns a per-step verdict so the planner
//! can annotate each `PlanRewrite` as certified or not, surface `QOF110`
//! for failures, and keep a run whose steps do not all certify
//! unoptimized.

use crate::analyze::verify::replay;
use crate::analyze::{Code, Diagnostic, Severity};
use crate::optimizer::Optimized;
use crate::{InclusionExpr, Rig};

/// The verdict on one optimizer step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepCert {
    /// Whether the step passed all three checks.
    pub certified: bool,
    /// Why it failed, when it did.
    pub reason: Option<String>,
}

impl StepCert {
    fn ok() -> Self {
        StepCert { certified: true, reason: None }
    }

    fn fail(reason: impl Into<String>) -> Self {
        StepCert { certified: false, reason: Some(reason.into()) }
    }
}

/// The certifier's output for one optimized chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertifyResult {
    /// One verdict per entry of the optimizer trace, in order.
    pub steps: Vec<StepCert>,
    /// The verdict on the Proposition 3.3 `∅` conclusion, when the
    /// optimizer drew one.
    pub empty_step: Option<StepCert>,
    /// Whether the replayed trace lands exactly on the optimized chain.
    pub replay_matches: bool,
}

impl CertifyResult {
    /// Whether every step (and the `∅` verdict, if any) is certified and
    /// the replay reproduced the optimizer's output.
    pub fn all_certified(&self) -> bool {
        self.replay_matches
            && self.steps.iter().all(|s| s.certified)
            && self.empty_step.as_ref().is_none_or(|s| s.certified)
    }
}

/// Certifies `out` — the optimizer's verdict on `original` over `rig` —
/// step by step. See the module docs for the checks.
pub fn certify(original: &InclusionExpr, rig: &Rig, out: &Optimized) -> CertifyResult {
    let replay = replay(original, rig, out);
    if out.trivially_empty {
        let step = replay.empty_fault.map_or_else(StepCert::ok, StepCert::fail);
        let certified = step.certified;
        return CertifyResult {
            steps: Vec::new(),
            empty_step: Some(step),
            replay_matches: certified,
        };
    }
    let mut steps: Vec<StepCert> = replay
        .steps
        .iter()
        .zip(&out.trace)
        .map(|(step, rw)| {
            if !step.applies {
                StepCert::fail(format!("`{}` does not apply to the current chain", step.what))
            } else if !step.licensed {
                StepCert::fail(format!(
                    "`{}` violates Proposition {}",
                    step.what,
                    rw.kind.proposition()
                ))
            } else {
                StepCert::ok()
            }
        })
        .collect();
    steps.resize(out.trace.len(), StepCert::fail("the replay stopped before this step"));
    CertifyResult { steps, empty_step: None, replay_matches: replay.lands }
}

/// Renders an uncertified rewrite as the `QOF110` diagnostic `qof check`
/// emits — the one constructor behind both the check path and tests, so
/// the rendered shape cannot drift.
pub fn uncertified_diagnostic(
    proposition: &str,
    description: &str,
    reason: Option<&str>,
) -> Diagnostic {
    let mut d = Diagnostic::new(
        Code::Qof110,
        Severity::Warning,
        format!("optimizer rewrite [{proposition}] `{description}` failed certification"),
    )
    .with_note(
        "replaying the optimizer trace did not confirm the step (it must apply at its hop, \
         meet its proposition's side condition and land on the optimized chain), so the \
         planner leaves this chain unoptimized",
    );
    if let Some(r) = reason {
        d = d.with_note(r);
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{optimize, ChainOp, Direction, Rewrite, RewriteKind};

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
        assert!(cert.empty_step.is_some());
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
        let forged = Optimized {
            expr: e.with_chain(names(&["A", "C"]), vec![ChainOp::Incl]),
            trivially_empty: false,
            trace: vec![Rewrite {
                kind: RewriteKind::Shorten { at: 0 },
                description: String::new(),
                result: String::new(),
            }],
        };
        let cert = certify(&e, &g, &forged);
        assert!(!cert.all_certified());
        assert!(!cert.steps[0].certified);
        assert!(cert.steps[0].reason.as_deref().unwrap().contains("3.5(b)"));
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
