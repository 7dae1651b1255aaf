//! Abstract interpretation over the region algebra.
//!
//! Every [`RegionExpr`] node is assigned an [`AbsState`]: a **static
//! domain** (which region types the result's spans can belong to,
//! derived from the RIG's inclusion closure) and an **emptiness fact**
//! (inclusion chains contradicting the RIG's partial order, `x − x`, …).
//! Both come from the RIG alone — no index statistics — so a state
//! depends only on the expression and the RIG. The facts are *sound
//! over-approximations*: every span of the concrete result is a region of
//! a type the domain names, and a node proven `empty` evaluates to ∅ on
//! any instance consistent with the RIG (`tests/absint_properties.rs`
//! checks both).
//!
//! Two consumers sit on top:
//!
//! * the query trace's per-plan-node facts ([`AbsInterp::fact`]);
//! * [`lint_expr`](AbsInterp::lint_expr) — the `QOF1xx` lint family in
//!   `qof check` (provably-empty subexpressions, dead `∪`/`−` branches,
//!   redundant intersections, inclusion over disjoint RIG components).
//!
//! The rewrite certifier ([`certify`]), the one replay of the optimizer's
//! trace, lives here too.

mod certify;

pub use certify::{certify, uncertified_diagnostic, CertifyResult};

use super::{Code, Diagnostic, Severity};
use crate::trace::NodeFact;
use crate::Rig;
use qof_pat::RegionExpr;
use std::collections::BTreeSet;

/// The abstract state of one expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Region types the result's spans can belong to. `Some(D)` claims
    /// every span in the concrete result is a region of at least one type
    /// in `D`; `None` is ⊤ (no claim — e.g. raw word spans).
    pub domain: Option<BTreeSet<String>>,
    /// Whether the node is *proven* to evaluate to ∅.
    pub empty: bool,
    /// Human-readable evidence for the facts above.
    pub notes: Vec<String>,
}

impl AbsState {
    fn top() -> Self {
        Self::over(None)
    }

    fn over(domain: Option<BTreeSet<String>>) -> Self {
        AbsState { domain, empty: false, notes: Vec::new() }
    }

    /// A state over this one's domain, proven empty (with `note`) when
    /// this one is.
    fn narrowed(self, note: &str) -> Self {
        let st = Self::over(self.domain);
        if self.empty {
            st.mark_empty(note)
        } else {
            st
        }
    }

    fn mark_empty(mut self, note: impl Into<String>) -> Self {
        self.empty = true;
        self.notes.push(note.into());
        self
    }
}

/// The abstract interpreter: it reasons purely structurally, from a
/// [`Rig`] alone.
pub struct AbsInterp<'a> {
    rig: &'a Rig,
}

impl<'a> AbsInterp<'a> {
    /// An interpreter over `rig`.
    pub fn new(rig: &'a Rig) -> Self {
        AbsInterp { rig }
    }

    /// Whether spans of types `n` and `m` can stand in an inclusion
    /// relation per the RIG. Inclusion here is non-strict (`⊇`), so
    /// equal-span regions make the *reverse* RIG direction satisfiable
    /// too; names the RIG does not know (e.g. scoped index keys) are
    /// conservatively compatible with everything.
    fn can_relate(&self, n: &str, m: &str) -> bool {
        match (self.rig.node_id(n), self.rig.node_id(m)) {
            (Some(a), Some(b)) => a == b || self.rig.reaches(a, b) || self.rig.reaches(b, a),
            _ => true,
        }
    }

    /// Like [`Self::can_relate`] but for *direct* inclusion: only the RIG
    /// edge in the stated direction (or equal spans) qualifies.
    fn can_relate_direct(&self, outer: &str, inner: &str) -> bool {
        match (self.rig.node_id(outer), self.rig.node_id(inner)) {
            (Some(o), Some(i)) => o == i || self.rig.edge(o, i),
            _ => true,
        }
    }

    /// Keeps the names of `dom` that can relate to at least one name of
    /// `other` under `relate`; `None` (⊤) on either side passes `dom`
    /// through unchanged.
    fn filter_domain(
        mut dom: Option<BTreeSet<String>>,
        other: &Option<BTreeSet<String>>,
        mut relate: impl FnMut(&str, &str) -> bool,
    ) -> Option<BTreeSet<String>> {
        if let (Some(d), Some(o)) = (&mut dom, other) {
            d.retain(|n| o.iter().any(|m| relate(n, m)));
        }
        dom
    }

    /// Computes the abstract state of `expr` bottom-up.
    pub fn analyze(&self, expr: &RegionExpr) -> AbsState {
        use RegionExpr as E;
        match expr {
            E::Name(n) => AbsState::over(Some(std::iter::once(n.to_string()).collect())),
            E::Word(_) | E::Prefix(_) => AbsState::top(),
            E::Union(a, b) => {
                let (sa, sb) = (self.analyze(a), self.analyze(b));
                let domain = match (&sa.domain, &sb.domain) {
                    (Some(da), Some(db)) => Some(da.union(db).cloned().collect()),
                    _ => None,
                };
                let st = AbsState::over(domain);
                if sa.empty && sb.empty {
                    st.mark_empty("both union operands are provably empty")
                } else {
                    st
                }
            }
            E::Intersect(a, b) => {
                let (sa, sb) = (self.analyze(a), self.analyze(b));
                let filtered =
                    Self::filter_domain(sa.domain, &sb.domain, |n, m| self.can_relate(n, m));
                let unrelated = matches!(&filtered, Some(d) if d.is_empty());
                let st = AbsState::over(filtered);
                if sa.empty || sb.empty {
                    st.mark_empty("an intersection operand is provably empty")
                } else if unrelated {
                    st.mark_empty(
                        "the operand region types lie in unrelated RIG components, so no span \
                         can belong to both sides",
                    )
                } else {
                    st
                }
            }
            E::Difference(a, b) => {
                let st = self.analyze(a).narrowed("the left difference operand is provably empty");
                if !st.empty && a == b {
                    st.mark_empty("`x − x` is the empty set")
                } else {
                    st
                }
            }
            E::SelectEq(a, _) | E::SelectContains(a, _) => {
                self.analyze(a).narrowed("the selected set is provably empty")
            }
            E::Innermost(a) | E::Outermost(a) => {
                self.analyze(a).narrowed("the operand is provably empty")
            }
            E::Including(a, b) => self.inclusion(a, b, false, false),
            E::IncludedIn(a, b) => self.inclusion(a, b, true, false),
            E::DirectIncluding(a, b) => self.inclusion(a, b, false, true),
            E::DirectIncludedIn(a, b) => self.inclusion(a, b, true, true),
            E::NestedExactly { outer, inner, .. } => {
                let st = self.analyze(outer).narrowed("a nesting operand is provably empty");
                if !st.empty && self.analyze(inner).empty {
                    st.mark_empty("a nesting operand is provably empty")
                } else {
                    st
                }
            }
        }
    }

    /// Common transfer function for the four inclusion operators. The
    /// result is always a subset of the left operand; the left domain is
    /// filtered to the types that can relate to the right per the RIG.
    /// `contained` flips the relation direction (`⊂` keeps types *inside*
    /// the right operand), `direct` restricts it to single RIG edges.
    fn inclusion(&self, a: &RegionExpr, b: &RegionExpr, contained: bool, direct: bool) -> AbsState {
        let (sa, sb) = (self.analyze(a), self.analyze(b));
        let relate = |n: &str, m: &str| {
            let (outer, inner) = if contained { (m, n) } else { (n, m) };
            if direct {
                self.can_relate_direct(outer, inner)
            } else {
                self.can_relate(outer, inner)
            }
        };
        let filtered = Self::filter_domain(sa.domain, &sb.domain, relate);
        let unrelated = matches!(&filtered, Some(d) if d.is_empty());
        let st = AbsState::over(filtered);
        if sa.empty || sb.empty {
            st.mark_empty("an inclusion operand is provably empty")
        } else if unrelated {
            let op = match (contained, direct) {
                (false, false) => "⊃",
                (false, true) => "⊃d",
                (true, false) => "⊂",
                (true, true) => "⊂d",
            };
            st.mark_empty(format!(
                "no `{op}` relation between the operand region types is satisfiable per the RIG"
            ))
        } else {
            st
        }
    }

    /// Packages the abstract state of `expr` as a trace-schema
    /// [`NodeFact`] labelled `node`.
    pub fn fact(&self, node: impl Into<String>, expr: &RegionExpr) -> NodeFact {
        let st = self.analyze(expr);
        NodeFact {
            node: node.into(),
            domain_known: st.domain.is_some(),
            domain: st.domain.map(|d| d.into_iter().collect()).unwrap_or_default(),
            empty: st.empty,
            notes: st.notes,
        }
    }

    /// The `QOF1xx` lint pass: walks `expr` emitting diagnostics for
    /// provably-empty subexpressions (`QOF100`, at the outermost empty
    /// node only), dead `∪`/`−` branches (`QOF101`), redundant
    /// intersections (`QOF102`) and inclusions the RIG proves
    /// unsatisfiable (`QOF103`).
    pub fn lint_expr(&self, expr: &RegionExpr, out: &mut Vec<Diagnostic>) {
        use RegionExpr as E;
        let st = self.analyze(expr);
        if st.empty {
            // The planner encodes Proposition 3.3 emptiness as `x − x`;
            // that syntactic form is QOF024's territory, not a new lint.
            if matches!(expr, E::Difference(a, b) if a == b) {
                return;
            }
            let disjoint_inclusion =
                matches!(
                    expr,
                    E::Including(..)
                        | E::IncludedIn(..)
                        | E::DirectIncluding(..)
                        | E::DirectIncludedIn(..)
                ) && st.notes.iter().any(|n| n.contains("satisfiable per the RIG"));
            let mut d = if disjoint_inclusion {
                Diagnostic::new(
                    Code::Qof103,
                    Severity::Warning,
                    format!("inclusion `{expr}` relates disjoint RIG components"),
                )
            } else {
                Diagnostic::new(
                    Code::Qof100,
                    Severity::Warning,
                    format!("subexpression `{expr}` is provably empty"),
                )
            };
            for note in st.notes {
                d = d.with_note(note);
            }
            out.push(d);
            return;
        }
        match expr {
            E::Union(a, b) => {
                for (side, other) in [(a, b), (b, a)] {
                    if self.analyze(side).empty && !self.analyze(other).empty {
                        out.push(Diagnostic::new(
                            Code::Qof101,
                            Severity::Warning,
                            format!("dead `∪` branch: `{side}` is provably empty"),
                        ));
                    }
                }
                self.lint_expr(a, out);
                self.lint_expr(b, out);
            }
            E::Difference(a, b) => {
                if self.analyze(b).empty {
                    out.push(Diagnostic::new(
                        Code::Qof101,
                        Severity::Warning,
                        format!("dead `−` branch: subtracting the provably empty `{b}`"),
                    ));
                }
                self.lint_expr(a, out);
                self.lint_expr(b, out);
            }
            E::Intersect(a, b) => {
                if a == b {
                    out.push(Diagnostic::new(
                        Code::Qof102,
                        Severity::Warning,
                        format!("redundant intersection: both operands are `{a}`"),
                    ));
                }
                self.lint_expr(a, out);
                self.lint_expr(b, out);
            }
            E::Including(a, b)
            | E::IncludedIn(a, b)
            | E::DirectIncluding(a, b)
            | E::DirectIncludedIn(a, b) => {
                self.lint_expr(a, out);
                self.lint_expr(b, out);
            }
            E::NestedExactly { outer, inner, .. } => {
                self.lint_expr(outer, out);
                self.lint_expr(inner, out);
            }
            E::SelectEq(a, _) | E::SelectContains(a, _) | E::Innermost(a) | E::Outermost(a) => {
                self.lint_expr(a, out);
            }
            E::Name(_) | E::Word(_) | E::Prefix(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bib_rig() -> Rig {
        let mut g = Rig::new();
        g.add_edge("Reference", "Key");
        g.add_edge("Reference", "Authors");
        g.add_edge("Reference", "Title");
        g.add_edge("Authors", "Name");
        g.add_edge("Name", "Last_Name");
        g
    }

    #[test]
    fn name_domain_is_singleton_and_inclusion_filters_it() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let e = RegionExpr::name("Reference").including(RegionExpr::name("Last_Name"));
        let st = i.analyze(&e);
        assert_eq!(st.domain, Some(std::iter::once("Reference".to_string()).collect()));
        assert!(!st.empty);
    }

    #[test]
    fn inclusion_over_disjoint_components_is_empty() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let e = RegionExpr::name("Title").including(RegionExpr::name("Last_Name"));
        let st = i.analyze(&e);
        assert!(st.empty, "Title has no RIG path to/from Last_Name");
    }

    #[test]
    fn direct_inclusion_requires_the_edge() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let ok = RegionExpr::name("Authors").direct_including(RegionExpr::name("Name"));
        assert!(!i.analyze(&ok).empty);
        let skip = RegionExpr::name("Reference").direct_including(RegionExpr::name("Last_Name"));
        assert!(i.analyze(&skip).empty, "⊃d needs the edge, not just a path");
    }

    #[test]
    fn difference_of_equal_expressions_is_empty() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let x = RegionExpr::name("Title");
        let st = i.analyze(&x.clone().difference(x));
        assert!(st.empty);
    }

    #[test]
    fn union_domain_is_the_union_of_operand_domains() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let e = RegionExpr::name("Title").union(RegionExpr::name("Key"));
        let st = i.analyze(&e);
        assert_eq!(st.domain, Some(["Key".to_string(), "Title".to_string()].into_iter().collect()));
    }

    #[test]
    fn lints_fire_where_expected() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let mut out = Vec::new();
        // Dead union branch: one side provably empty, the other fine.
        let dead = RegionExpr::name("Title").including(RegionExpr::name("Last_Name"));
        let live = RegionExpr::name("Reference");
        i.lint_expr(&live.clone().union(dead), &mut out);
        assert!(out.iter().any(|d| d.code == Code::Qof101), "{out:?}");
        assert!(out.iter().any(|d| d.code == Code::Qof103), "{out:?}");
        out.clear();
        i.lint_expr(&live.clone().intersect(live), &mut out);
        assert_eq!(out.iter().filter(|d| d.code == Code::Qof102).count(), 1);
    }
}
