//! Abstract interpretation over the region algebra.
//!
//! Every [`RegionExpr`] node is assigned an [`AbsState`]: a **static
//! domain** (which region types the result's spans can belong to,
//! derived from the RIG's inclusion closure), a **cardinality interval**
//! (exact leaf counts from index statistics when available, `[0, ∞)`
//! otherwise), and an **emptiness fact** (`σ_w` on a word absent from
//! the index, inclusion chains contradicting the RIG's partial order,
//! `x − x`, …). The domains are *sound over-approximations*: the
//! concrete result's cardinality always lies in the interval, and a
//! node proven `empty` evaluates to ∅ on any instance consistent with
//! the RIG (`tests/absint_properties.rs` checks exactly this).
//!
//! Two consumers sit on top:
//!
//! * [`certify`](crate::analyze::absint::certify) — replays every
//!   §3.3/§3.5 rewrite the optimizer recorded (through the one trace
//!   replay, [`crate::analyze::verify::replay`]) and checks the pre/post
//!   abstract states are compatible (certified steps are annotated in
//!   `QueryTrace` and EXPLAIN; an uncertifiable step raises `QOF110` and
//!   leaves its chain unoptimized);
//! * [`lint_expr`](AbsInterp::lint_expr) — the `QOF1xx` lint family in
//!   `qof check` (provably-empty subexpressions, dead `∪`/`−` branches,
//!   redundant intersections, inclusion over disjoint RIG components).

mod certify;

pub use certify::{certify, uncertified_diagnostic, CertifyResult, StepCert};

use super::{Code, Diagnostic, Severity};
use crate::trace::NodeFact;
use crate::Rig;
use qof_pat::{Instance, RegionExpr};
use qof_text::WordIndex;
use std::collections::BTreeSet;

/// An interval `[lo, hi]` of possible result cardinalities; `hi == None`
/// means unbounded (`∞`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardInterval {
    /// Inclusive lower bound.
    pub lo: u64,
    /// Inclusive upper bound; `None` is `∞`.
    pub hi: Option<u64>,
}

impl CardInterval {
    /// The no-information interval `[0, ∞)`.
    pub fn top() -> Self {
        CardInterval { lo: 0, hi: None }
    }

    /// A singleton interval `[n, n]`.
    pub fn exact(n: u64) -> Self {
        CardInterval { lo: n, hi: Some(n) }
    }

    /// The empty-set interval `[0, 0]`.
    pub fn zero() -> Self {
        CardInterval::exact(0)
    }

    /// Whether a concrete cardinality lies in the interval.
    pub fn contains(&self, n: u64) -> bool {
        self.lo <= n && self.hi.is_none_or(|hi| n <= hi)
    }

    /// Whether two intervals share at least one value.
    pub fn overlaps(&self, other: &CardInterval) -> bool {
        self.hi.is_none_or(|hi| other.lo <= hi) && other.hi.is_none_or(|hi| self.lo <= hi)
    }

    fn min_hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (Some(x), None) | (None, Some(x)) => Some(x),
            (None, None) => None,
        }
    }

    fn add_hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.saturating_add(y)),
            _ => None,
        }
    }
}

impl std::fmt::Display for CardInterval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.hi {
            Some(hi) => write!(f, "[{}, {}]", self.lo, hi),
            None => write!(f, "[{}, ∞)", self.lo),
        }
    }
}

/// The abstract state of one expression node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbsState {
    /// Region types the result's spans can belong to. `Some(D)` claims
    /// every span in the concrete result is a region of at least one type
    /// in `D`; `None` is ⊤ (no claim — e.g. raw word spans).
    pub domain: Option<BTreeSet<String>>,
    /// Possible result cardinalities.
    pub card: CardInterval,
    /// Whether the node is *proven* to evaluate to ∅.
    pub empty: bool,
    /// Human-readable evidence for the facts above.
    pub notes: Vec<String>,
}

impl AbsState {
    fn top() -> Self {
        AbsState { domain: None, card: CardInterval::top(), empty: false, notes: Vec::new() }
    }

    /// A state over this one's domain with cardinality `card`, proven
    /// empty (with `note`) when this one is.
    fn narrowed(self, card: CardInterval, note: &str) -> Self {
        let st = AbsState { domain: self.domain, card, empty: false, notes: Vec::new() };
        if self.empty {
            st.mark_empty(note)
        } else {
            st
        }
    }

    fn mark_empty(mut self, note: impl Into<String>) -> Self {
        self.empty = true;
        self.card = CardInterval::zero();
        self.notes.push(note.into());
        self
    }

    /// Packages the state as a trace-schema [`NodeFact`] labelled `node`.
    pub(crate) fn into_fact(self, node: impl Into<String>) -> NodeFact {
        NodeFact {
            node: node.into(),
            domain_known: self.domain.is_some(),
            domain: self.domain.map(|d| d.into_iter().collect()).unwrap_or_default(),
            card_lo: self.card.lo,
            card_hi: self.card.hi,
            empty: self.empty,
            notes: self.notes,
        }
    }

    /// Whether two abstract states can describe the same concrete set —
    /// the compatibility test the rewrite certifier applies to pre/post
    /// states. The empty set inhabits every domain, so disjoint domains
    /// only conflict when both states also require a non-empty result.
    pub fn compatible(&self, other: &AbsState) -> bool {
        if !self.card.overlaps(&other.card) {
            return false;
        }
        if self.empty != other.empty && (self.card.lo > 0 || other.card.lo > 0) {
            return false;
        }
        if let (Some(a), Some(b)) = (&self.domain, &other.domain) {
            if a.is_disjoint(b) && self.card.lo > 0 && other.card.lo > 0 {
                return false;
            }
        }
        true
    }
}

/// The abstract interpreter. Constructed from a [`Rig`] alone it reasons
/// purely structurally; [`AbsInterp::with_stats`] adds index statistics
/// for exact leaf cardinalities and absent-word emptiness facts.
pub struct AbsInterp<'a> {
    rig: &'a Rig,
    instance: Option<&'a Instance>,
    words: Option<&'a WordIndex>,
}

impl<'a> AbsInterp<'a> {
    /// A purely structural interpreter: domains and RIG facts only, all
    /// cardinality intervals `[0, ∞)` at the leaves.
    pub fn new(rig: &'a Rig) -> Self {
        AbsInterp { rig, instance: None, words: None }
    }

    /// An interpreter with index statistics: `Name` leaves get exact
    /// counts from `instance`, `word(w)`/`σ_w` get `frequency(w)` bounds
    /// and absent-word emptiness facts from `words`.
    pub fn with_stats(rig: &'a Rig, instance: &'a Instance, words: &'a WordIndex) -> Self {
        AbsInterp { rig, instance: Some(instance), words: Some(words) }
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

    /// The cardinality interval of an indexed name: its exact region
    /// count with statistics, `[0, ∞)` without.
    pub(crate) fn name_card(&self, n: &str) -> CardInterval {
        self.instance.map_or_else(CardInterval::top, |inst| {
            CardInterval::exact(inst.get(n).map_or(0, qof_pat::RegionSet::len) as u64)
        })
    }

    fn leaf_name(&self, n: &str) -> AbsState {
        let st = AbsState {
            domain: Some(std::iter::once(n.to_string()).collect()),
            card: self.name_card(n),
            empty: false,
            notes: Vec::new(),
        };
        if st.card.hi == Some(0) {
            st.mark_empty(format!("the index holds no `{n}` regions"))
        } else {
            st
        }
    }

    fn word_card(&self, w: &str) -> (CardInterval, bool) {
        match self.words {
            Some(idx) => {
                let f = idx.frequency(w) as u64;
                (CardInterval::exact(f), f == 0)
            }
            None => (CardInterval::top(), false),
        }
    }

    /// Computes the abstract state of `expr` bottom-up.
    pub fn analyze(&self, expr: &RegionExpr) -> AbsState {
        use RegionExpr as E;
        match expr {
            E::Name(n) => self.leaf_name(n),
            E::Word(w) => {
                let (card, absent) = self.word_card(w);
                let st = AbsState { domain: None, card, empty: false, notes: Vec::new() };
                if absent {
                    st.mark_empty(format!("word \"{w}\" does not occur in the corpus"))
                } else {
                    st
                }
            }
            E::Prefix(_) => AbsState::top(),
            E::Union(a, b) => {
                let (sa, sb) = (self.analyze(a), self.analyze(b));
                let domain = match (&sa.domain, &sb.domain) {
                    (Some(da), Some(db)) => Some(da.union(db).cloned().collect()),
                    _ => None,
                };
                let card = CardInterval {
                    lo: sa.card.lo.max(sb.card.lo),
                    hi: CardInterval::add_hi(sa.card.hi, sb.card.hi),
                };
                let mut st = AbsState { domain, card, empty: false, notes: Vec::new() };
                if sa.empty && sb.empty {
                    st = st.mark_empty("both union operands are provably empty");
                }
                st
            }
            E::Intersect(a, b) => {
                let (sa, sb) = (self.analyze(a), self.analyze(b));
                let filtered =
                    Self::filter_domain(sa.domain, &sb.domain, |n, m| self.can_relate(n, m));
                let card = CardInterval { lo: 0, hi: CardInterval::min_hi(sa.card.hi, sb.card.hi) };
                let unrelated = matches!(&filtered, Some(d) if d.is_empty());
                let mut st = AbsState { domain: filtered, card, empty: false, notes: Vec::new() };
                if sa.empty || sb.empty {
                    st = st.mark_empty("an intersection operand is provably empty");
                } else if unrelated {
                    st = st.mark_empty(
                        "the operand region types lie in unrelated RIG components, so no span \
                         can belong to both sides",
                    );
                }
                st
            }
            E::Difference(a, b) => {
                let sa = self.analyze(a);
                let card = CardInterval { lo: 0, hi: sa.card.hi };
                let st = sa.narrowed(card, "the left difference operand is provably empty");
                if !st.empty && a == b {
                    st.mark_empty("`x − x` is the empty set")
                } else {
                    st
                }
            }
            E::SelectEq(a, w) => {
                let sa = self.analyze(a);
                let (wc, absent) = self.word_card(w);
                let card = CardInterval { lo: 0, hi: CardInterval::min_hi(sa.card.hi, wc.hi) };
                let st = sa.narrowed(card, "the selected set is provably empty");
                if !st.empty && absent {
                    st.mark_empty(format!("word \"{w}\" does not occur in the corpus"))
                } else {
                    st
                }
            }
            E::SelectContains(a, w) => {
                let sa = self.analyze(a);
                let card = CardInterval { lo: 0, hi: sa.card.hi };
                let st = sa.narrowed(card, "the selected set is provably empty");
                if !st.empty && self.words.is_some_and(|idx| !idx.contains(w)) {
                    st.mark_empty(format!("word \"{w}\" does not occur in the corpus"))
                } else {
                    st
                }
            }
            E::Innermost(a) | E::Outermost(a) => {
                let sa = self.analyze(a);
                let card = CardInterval { lo: sa.card.lo.min(1), hi: sa.card.hi };
                sa.narrowed(card, "the operand is provably empty")
            }
            E::Including(a, b) => self.inclusion(a, b, false, false),
            E::IncludedIn(a, b) => self.inclusion(a, b, true, false),
            E::DirectIncluding(a, b) => self.inclusion(a, b, false, true),
            E::DirectIncludedIn(a, b) => self.inclusion(a, b, true, true),
            E::NestedExactly { outer, inner, .. } => {
                let (so, si) = (self.analyze(outer), self.analyze(inner));
                let card = CardInterval { lo: 0, hi: so.card.hi };
                let st = so.narrowed(card, "a nesting operand is provably empty");
                if !st.empty && si.empty {
                    st.mark_empty("a nesting operand is provably empty")
                } else {
                    st
                }
            }
            E::Near { left, right, .. } => {
                let (sl, sr) = (self.analyze(left), self.analyze(right));
                let mut st = AbsState::top();
                if sl.empty || sr.empty {
                    st = st.mark_empty("a near() operand is provably empty");
                }
                st
            }
            E::SelectCountAtLeast(a, w, n) => {
                let sa = self.analyze(a);
                let card = CardInterval { lo: 0, hi: sa.card.hi };
                let st = sa.narrowed(card, "the selected set is provably empty");
                if !st.empty && *n >= 1 && self.words.is_some_and(|idx| !idx.contains(w)) {
                    st.mark_empty(format!("word \"{w}\" does not occur in the corpus"))
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
        let card = CardInterval { lo: 0, hi: sa.card.hi };
        let mut st = AbsState { domain: filtered, card, empty: false, notes: Vec::new() };
        if sa.empty || sb.empty {
            st = st.mark_empty("an inclusion operand is provably empty");
        } else if unrelated {
            let op = match (contained, direct) {
                (false, false) => "⊃",
                (false, true) => "⊃d",
                (true, false) => "⊂",
                (true, true) => "⊂d",
            };
            st = st.mark_empty(format!(
                "no `{op}` relation between the operand region types is satisfiable per the RIG"
            ));
        }
        st
    }

    /// Packages the abstract state of `expr` as a trace-schema
    /// [`NodeFact`] labelled `node`.
    pub fn fact(&self, node: impl Into<String>, expr: &RegionExpr) -> NodeFact {
        self.analyze(expr).into_fact(node)
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
            E::Near { left, right, .. } => {
                self.lint_expr(left, out);
                self.lint_expr(right, out);
            }
            E::SelectEq(a, _)
            | E::SelectContains(a, _)
            | E::SelectCountAtLeast(a, _, _)
            | E::Innermost(a)
            | E::Outermost(a) => self.lint_expr(a, out),
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
        assert_eq!(st.card, CardInterval::zero());
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
    fn union_interval_sums_and_maxes() {
        let g = bib_rig();
        let i = AbsInterp::new(&g);
        let e = RegionExpr::name("Title").union(RegionExpr::name("Key"));
        let st = i.analyze(&e);
        assert_eq!(st.card, CardInterval::top());
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

    #[test]
    fn compatible_states_tolerate_coarsening() {
        let precise = AbsState {
            domain: Some(std::iter::once("A".to_string()).collect()),
            card: CardInterval::exact(3),
            empty: false,
            notes: Vec::new(),
        };
        let coarse = AbsState::top();
        assert!(precise.compatible(&coarse));
        assert!(coarse.compatible(&precise));
        let empty = AbsState::top().mark_empty("x");
        assert!(!precise.compatible(&empty), "exact 3 vs proven ∅ must conflict");
    }
}
