//! Inclusion expressions: the restricted region expressions the translation
//! produces and the optimizer rewrites — chains `A1 o1 A2 o2 … on−1 An` where
//! each `oi` is `⊃` or `⊃d` (selection queries, §5.1) or `⊂`/`⊂d`
//! (projections, §5.2), with an optional `σ_w` on the deepest element.

use crate::SelectKind as SK;
use qof_pat::RegionExpr;
use std::fmt;

/// One chain operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainOp {
    /// Simple inclusion (`⊃` / `⊂`).
    Incl,
    /// Direct inclusion (`⊃d` / `⊂d`), "significantly more expensive".
    Direct,
}

/// Whether the chain runs container→contained (`⊃`, selections) or
/// contained→container (`⊂`, projections).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `A1 ⊃ A2 ⊃ …` — retrieve containers.
    Including,
    /// `A1 ⊂ A2 ⊂ …` — retrieve contained regions.
    IncludedIn,
}

/// The selection applied to the deepest element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SelectKind {
    /// `σ_w`: the region *is* the word/phrase.
    Eq,
    /// The region contains an occurrence of the word.
    Contains,
    /// The region is a word starting with the given prefix — PAT's lexical
    /// search, answered from the word-index vocabulary.
    Prefix,
}

/// An inclusion expression.
///
/// Internally the chain is stored in **container order** (outermost name
/// first), regardless of direction; `Display` and
/// [`InclusionExpr::to_region_expr`] restore the surface order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InclusionExpr {
    dir: Direction,
    /// Names in container order: `names[0]` is the outermost.
    names: Vec<String>,
    /// `ops[i]` connects `names[i]` (container) to `names[i+1]`.
    ops: Vec<ChainOp>,
    /// Optional selection on the deepest element.
    selector: Option<(SelectKind, String)>,
}

impl InclusionExpr {
    /// Builds a selection chain (`⊃` direction) from container order:
    /// `including(["Reference", "Authors", "Last_Name"], ops, σ)`.
    pub fn including(
        names: Vec<String>,
        ops: Vec<ChainOp>,
        selector: Option<(SelectKind, String)>,
    ) -> Self {
        assert_eq!(ops.len() + 1, names.len(), "a chain of n names has n−1 operators");
        Self { dir: Direction::Including, names, ops, selector }
    }

    /// Builds a projection chain (`⊂` direction), also given in container
    /// order (the surface syntax prints it deepest-first).
    pub fn included_in(
        names: Vec<String>,
        ops: Vec<ChainOp>,
        selector: Option<(SelectKind, String)>,
    ) -> Self {
        assert_eq!(ops.len() + 1, names.len(), "a chain of n names has n−1 operators");
        Self { dir: Direction::IncludedIn, names, ops, selector }
    }

    /// A chain with `⊃d` everywhere — the direct output of the translation
    /// before optimization.
    pub fn all_direct(
        dir: Direction,
        names: Vec<String>,
        selector: Option<(SelectKind, String)>,
    ) -> Self {
        let ops = vec![ChainOp::Direct; names.len().saturating_sub(1)];
        Self { dir, names, ops, selector }
    }

    /// The chain direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Names in container order (outermost first).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Operators in container order.
    pub fn ops(&self) -> &[ChainOp] {
        &self.ops
    }

    /// The selector, if any.
    pub fn selector(&self) -> Option<(SelectKind, &str)> {
        self.selector.as_ref().map(|(k, w)| (*k, w.as_str()))
    }

    /// Number of `⊃d`/`⊂d` operators remaining.
    pub fn direct_ops(&self) -> usize {
        self.ops.iter().filter(|o| **o == ChainOp::Direct).count()
    }

    /// Replaces the chain contents (used by the optimizer).
    pub(crate) fn with_chain(&self, names: Vec<String>, ops: Vec<ChainOp>) -> Self {
        assert_eq!(ops.len() + 1, names.len());
        Self { dir: self.dir, names, ops, selector: self.selector.clone() }
    }

    /// Lowers the chain to a [`RegionExpr`] for the PAT engine. Chains group
    /// from the right, as in the paper.
    pub fn to_region_expr(&self) -> RegionExpr {
        match self.dir {
            Direction::Including => {
                // Deepest element (last) carries the selector.
                let mut expr = self.atom(self.names.len() - 1);
                for i in (0..self.ops.len()).rev() {
                    let left = RegionExpr::name(&self.names[i]);
                    expr = match self.ops[i] {
                        ChainOp::Incl => left.including(expr),
                        ChainOp::Direct => left.direct_including(expr),
                    };
                }
                expr
            }
            Direction::IncludedIn => {
                // Surface order is deepest-first: An ⊂ An−1 ⊂ … ⊂ A1,
                // grouping from the right; the deepest element carries σ.
                if self.names.len() == 1 {
                    self.atom(0)
                } else {
                    self.included_in_fold()
                }
            }
        }
    }

    /// Right-grouped fold for ⊂ chains of length ≥ 3:
    /// `An ⊂ (An−1 ⊂ (… ⊂ A1))`.
    fn included_in_fold(&self) -> RegionExpr {
        let n = self.names.len();
        // Build the right part: A1, then A2 ⊂ A1, … in container order.
        let mut right = RegionExpr::name(&self.names[0]);
        for i in 1..n - 1 {
            let left = RegionExpr::name(&self.names[i]);
            right = match self.ops[i - 1] {
                ChainOp::Incl => left.included_in(right),
                ChainOp::Direct => left.direct_included_in(right),
            };
        }
        let deepest = self.atom(n - 1);
        match self.ops[n - 2] {
            ChainOp::Incl => deepest.included_in(right),
            ChainOp::Direct => deepest.direct_included_in(right),
        }
    }

    fn atom(&self, idx: usize) -> RegionExpr {
        let name = RegionExpr::name(&self.names[idx]);
        match &self.selector {
            Some((SK::Eq, w)) => name.select_eq(w.clone()),
            Some((SK::Contains, w)) => name.select_contains(w.clone()),
            Some((SK::Prefix, w)) => name.intersect(RegionExpr::prefix(w.clone())),
            None => name,
        }
    }
}

impl fmt::Display for InclusionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op_str = |op: ChainOp, dir: Direction| match (op, dir) {
            (ChainOp::Incl, Direction::Including) => "⊃",
            (ChainOp::Direct, Direction::Including) => "⊃d",
            (ChainOp::Incl, Direction::IncludedIn) => "⊂",
            (ChainOp::Direct, Direction::IncludedIn) => "⊂d",
        };
        let atom = |i: usize, f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if i == self.names.len() - 1 {
                match &self.selector {
                    Some((SK::Eq, w)) => return write!(f, "σ_\"{w}\"({})", self.names[i]),
                    Some((SK::Contains, w)) => return write!(f, "σ∋\"{w}\"({})", self.names[i]),
                    Some((SK::Prefix, w)) => return write!(f, "σ_\"{w}*\"({})", self.names[i]),
                    None => {}
                }
            }
            write!(f, "{}", self.names[i])
        };
        match self.dir {
            Direction::Including => {
                for i in 0..self.names.len() {
                    if i > 0 {
                        write!(f, " {} ", op_str(self.ops[i - 1], self.dir))?;
                    }
                    atom(i, f)?;
                }
            }
            Direction::IncludedIn => {
                for k in 0..self.names.len() {
                    let i = self.names.len() - 1 - k; // deepest first
                    if k > 0 {
                        write!(f, " {} ", op_str(self.ops[i], self.dir))?;
                    }
                    atom(i, f)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn displays_like_the_paper_e1() {
        // e1 = Reference ⊃d Authors ⊃d Name ⊃d σ_"Chang"(Last_Name)
        let e = InclusionExpr::all_direct(
            Direction::Including,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            Some((SelectKind::Eq, "Chang".into())),
        );
        assert_eq!(e.to_string(), "Reference ⊃d Authors ⊃d Name ⊃d σ_\"Chang\"(Last_Name)");
        assert_eq!(e.direct_ops(), 3);
    }

    #[test]
    fn displays_like_the_paper_e2() {
        // e2 = Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name)
        let e = InclusionExpr::including(
            names(&["Reference", "Authors", "Last_Name"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            Some((SelectKind::Eq, "Chang".into())),
        );
        assert_eq!(e.to_string(), "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)");
        assert_eq!(e.direct_ops(), 0);
    }

    #[test]
    fn projection_chain_displays_deepest_first() {
        // §5.2: Last_Name ⊂d Name ⊂d Authors ⊂d Reference.
        let e = InclusionExpr::all_direct(
            Direction::IncludedIn,
            names(&["Reference", "Authors", "Name", "Last_Name"]),
            None,
        );
        assert_eq!(e.to_string(), "Last_Name ⊂d Name ⊂d Authors ⊂d Reference");
    }

    #[test]
    fn region_expr_lowering_including() {
        let e = InclusionExpr::including(
            names(&["Reference", "Authors", "Last_Name"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            Some((SelectKind::Eq, "Chang".into())),
        );
        let r = e.to_region_expr();
        assert_eq!(r.to_string(), "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)");
    }

    #[test]
    fn region_expr_lowering_included_in() {
        let e = InclusionExpr::included_in(
            names(&["Reference", "Authors", "Last_Name"]),
            vec![ChainOp::Incl, ChainOp::Incl],
            None,
        );
        let r = e.to_region_expr();
        assert_eq!(r.to_string(), "Last_Name ⊂ Authors ⊂ Reference");
    }

    #[test]
    fn region_expr_two_name_included_in() {
        let e = InclusionExpr::included_in(
            names(&["Reference", "Last_Name"]),
            vec![ChainOp::Direct],
            None,
        );
        assert_eq!(e.to_region_expr().to_string(), "Last_Name ⊂d Reference");
    }

    #[test]
    fn single_name_chain() {
        let e = InclusionExpr::including(
            names(&["Reference"]),
            vec![],
            Some((SelectKind::Contains, "Chang".into())),
        );
        assert_eq!(e.to_string(), "σ∋\"Chang\"(Reference)");
        assert_eq!(e.to_region_expr().to_string(), "σ∋\"Chang\"(Reference)");
    }

    #[test]
    fn prefix_selector_display_and_lowering() {
        let e = InclusionExpr::including(
            names(&["Reference", "Last_Name"]),
            vec![ChainOp::Incl],
            Some((SelectKind::Prefix, "Ch".into())),
        );
        assert_eq!(e.to_string(), "Reference ⊃ σ_\"Ch*\"(Last_Name)");
        let r = e.to_region_expr();
        assert!(r.to_string().contains("prefix(\"Ch\")"));
    }

    #[test]
    #[should_panic(expected = "n−1 operators")]
    fn mismatched_ops_panic() {
        let _ = InclusionExpr::including(names(&["A", "B"]), vec![], None);
    }
}
