//! Region expressions — the language of §3.1:
//!
//! ```text
//! e → Rᵢ | e ∪ e | e ∩ e | e − e | σ_w(e) | ι(e) | ω(e)
//!   | e ⊃ e | e ⊂ e | e ⊃d e | e ⊂d e | (e)
//! ```
//!
//! plus the match-point primitives (`word`, `prefix`) that `σ` is built
//! from, and the exact-nesting-depth operator used to translate fixed-length
//! path variables (§5.3).

use std::fmt;

/// A region expression. Construct with the fluent builder methods, e.g.:
///
/// ```
/// use qof_pat::RegionExpr;
/// let e = RegionExpr::name("Reference")
///     .including(RegionExpr::name("Authors")
///         .including(RegionExpr::name("Last_Name").select_eq("Chang")));
/// assert_eq!(e.to_string(), "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegionExpr {
    /// The instance of a region name `Rᵢ`.
    Name(String),
    /// Occurrence spans of a word (match points with extent).
    Word(String),
    /// Occurrence spans of every word starting with a prefix (PAT's lexical
    /// search, answered from the word-index vocabulary).
    Prefix(String),
    /// `e ∪ e`.
    Union(Box<RegionExpr>, Box<RegionExpr>),
    /// `e ∩ e`.
    Intersect(Box<RegionExpr>, Box<RegionExpr>),
    /// `e − e`.
    Difference(Box<RegionExpr>, Box<RegionExpr>),
    /// `σ_w(e)`: regions that are exactly the word `w` ("a `Last_Name` region
    /// that *is* the word Chang").
    SelectEq(Box<RegionExpr>, String),
    /// Regions containing at least one occurrence of the word.
    SelectContains(Box<RegionExpr>, String),
    /// `ι(e)`: members containing no other member.
    Innermost(Box<RegionExpr>),
    /// `ω(e)`: members contained in no other member.
    Outermost(Box<RegionExpr>),
    /// `e ⊃ e`.
    Including(Box<RegionExpr>, Box<RegionExpr>),
    /// `e ⊂ e`.
    IncludedIn(Box<RegionExpr>, Box<RegionExpr>),
    /// `e ⊃d e` (direct inclusion, relative to all indexed regions).
    DirectIncluding(Box<RegionExpr>, Box<RegionExpr>),
    /// `e ⊂d e`.
    DirectIncludedIn(Box<RegionExpr>, Box<RegionExpr>),
    /// Members of `outer` that include a member of `inner` with exactly
    /// `depth` indexed regions strictly in between — the translation of the
    /// fixed-length path variables `Ai.X1.…​.Xn.Aj` of §5.3.
    NestedExactly {
        /// The outer operand.
        outer: Box<RegionExpr>,
        /// The inner operand.
        inner: Box<RegionExpr>,
        /// Exact count of indexed regions strictly between the two.
        depth: u32,
    },
}

impl RegionExpr {
    /// `Rᵢ` — the instance of a region name.
    pub fn name(n: impl Into<String>) -> Self {
        RegionExpr::Name(n.into())
    }

    /// Match points of a word.
    pub fn word(w: impl Into<String>) -> Self {
        RegionExpr::Word(w.into())
    }

    /// Match points of all words with the given prefix.
    pub fn prefix(p: impl Into<String>) -> Self {
        RegionExpr::Prefix(p.into())
    }

    /// `self ∪ other`.
    pub fn union(self, other: RegionExpr) -> Self {
        RegionExpr::Union(Box::new(self), Box::new(other))
    }

    /// `self ∩ other`.
    pub fn intersect(self, other: RegionExpr) -> Self {
        RegionExpr::Intersect(Box::new(self), Box::new(other))
    }

    /// `self − other`.
    pub fn difference(self, other: RegionExpr) -> Self {
        RegionExpr::Difference(Box::new(self), Box::new(other))
    }

    /// `σ_w(self)` — members that are exactly the word `w`.
    pub fn select_eq(self, w: impl Into<String>) -> Self {
        RegionExpr::SelectEq(Box::new(self), w.into())
    }

    /// Members containing an occurrence of `w`.
    pub fn select_contains(self, w: impl Into<String>) -> Self {
        RegionExpr::SelectContains(Box::new(self), w.into())
    }

    /// `ι(self)`.
    pub fn innermost(self) -> Self {
        RegionExpr::Innermost(Box::new(self))
    }

    /// `ω(self)`.
    pub fn outermost(self) -> Self {
        RegionExpr::Outermost(Box::new(self))
    }

    /// `self ⊃ other`.
    pub fn including(self, other: RegionExpr) -> Self {
        RegionExpr::Including(Box::new(self), Box::new(other))
    }

    /// `self ⊂ other`.
    pub fn included_in(self, other: RegionExpr) -> Self {
        RegionExpr::IncludedIn(Box::new(self), Box::new(other))
    }

    /// `self ⊃d other`.
    pub fn direct_including(self, other: RegionExpr) -> Self {
        RegionExpr::DirectIncluding(Box::new(self), Box::new(other))
    }

    /// `self ⊂d other`.
    pub fn direct_included_in(self, other: RegionExpr) -> Self {
        RegionExpr::DirectIncludedIn(Box::new(self), Box::new(other))
    }

    /// Exact-nesting-depth inclusion (fixed-length path variables).
    pub fn nested_exactly(self, inner: RegionExpr, depth: u32) -> Self {
        RegionExpr::NestedExactly { outer: Box::new(self), inner: Box::new(inner), depth }
    }

    /// Number of AST nodes (used to compare expression sizes in EXPLAIN).
    pub fn size(&self) -> usize {
        use RegionExpr::*;
        match self {
            Name(_) | Word(_) | Prefix(_) => 1,
            SelectEq(e, _) | SelectContains(e, _) | Innermost(e) | Outermost(e) => 1 + e.size(),
            Union(a, b)
            | Intersect(a, b)
            | Difference(a, b)
            | Including(a, b)
            | IncludedIn(a, b)
            | DirectIncluding(a, b)
            | DirectIncludedIn(a, b) => 1 + a.size() + b.size(),
            NestedExactly { outer, inner, .. } => 1 + outer.size() + inner.size(),
        }
    }

    /// All region names referenced by the expression.
    pub fn names(&self) -> Vec<&str> {
        fn walk<'a>(e: &'a RegionExpr, out: &mut Vec<&'a str>) {
            use RegionExpr::*;
            match e {
                Name(n) => out.push(n),
                Word(_) | Prefix(_) => {}
                SelectEq(e, _) | SelectContains(e, _) | Innermost(e) | Outermost(e) => {
                    walk(e, out);
                }
                Union(a, b)
                | Intersect(a, b)
                | Difference(a, b)
                | Including(a, b)
                | IncludedIn(a, b)
                | DirectIncluding(a, b)
                | DirectIncludedIn(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                NestedExactly { outer, inner, .. } => {
                    walk(outer, out);
                    walk(inner, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

impl fmt::Display for RegionExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The paper groups inclusion chains from the right and omits their
        // parentheses; binary set operators are parenthesized for clarity.
        use RegionExpr::*;
        match self {
            Name(n) => write!(f, "{n}"),
            Word(w) => write!(f, "word(\"{w}\")"),
            Prefix(p) => write!(f, "prefix(\"{p}\")"),
            Union(a, b) => write!(f, "({a} ∪ {b})"),
            Intersect(a, b) => write!(f, "({a} ∩ {b})"),
            Difference(a, b) => write!(f, "({a} − {b})"),
            SelectEq(e, w) => write!(f, "σ_\"{w}\"({e})"),
            SelectContains(e, w) => write!(f, "σ∋\"{w}\"({e})"),
            Innermost(e) => write!(f, "ι({e})"),
            Outermost(e) => write!(f, "ω({e})"),
            Including(a, b) => write!(f, "{} ⊃ {}", Chain(a), b),
            IncludedIn(a, b) => write!(f, "{} ⊂ {}", Chain(a), b),
            DirectIncluding(a, b) => write!(f, "{} ⊃d {}", Chain(a), b),
            DirectIncludedIn(a, b) => write!(f, "{} ⊂d {}", Chain(a), b),
            NestedExactly { outer, inner, depth } => {
                write!(f, "{} ⊃^{} {}", Chain(outer), depth, inner)
            }
        }
    }
}

/// Wraps non-atomic left operands of inclusion operators in parentheses so
/// the right-grouping convention stays unambiguous in printed plans.
struct Chain<'a>(&'a RegionExpr);

impl fmt::Display for Chain<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use RegionExpr::*;
        match self.0 {
            Including(..)
            | IncludedIn(..)
            | DirectIncluding(..)
            | DirectIncludedIn(..)
            | NestedExactly { .. } => write!(f, "({})", self.0),
            other => write!(f, "{other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_displays_like_the_paper() {
        // e2 = Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name)
        let e = RegionExpr::name("Reference").including(
            RegionExpr::name("Authors").including(RegionExpr::name("Last_Name").select_eq("Chang")),
        );
        assert_eq!(e.to_string(), "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)");
    }

    #[test]
    fn direct_chain_display() {
        let e = RegionExpr::name("Reference").direct_including(
            RegionExpr::name("Authors").direct_including(
                RegionExpr::name("Name")
                    .direct_including(RegionExpr::name("Last_Name").select_eq("Chang")),
            ),
        );
        assert_eq!(e.to_string(), "Reference ⊃d Authors ⊃d Name ⊃d σ_\"Chang\"(Last_Name)");
        assert_eq!(e.size(), 8);
    }

    #[test]
    fn left_nested_chain_gets_parens() {
        let e =
            RegionExpr::name("A").including(RegionExpr::name("B")).including(RegionExpr::name("C"));
        assert_eq!(e.to_string(), "(A ⊃ B) ⊃ C");
    }

    #[test]
    fn union_of_chains_from_the_paper() {
        // (Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name)) ∪
        // (Reference ⊃ Editors ⊃ σ_"Corliss"(Last_Name))
        let chang = RegionExpr::name("Reference").including(
            RegionExpr::name("Authors").including(RegionExpr::name("Last_Name").select_eq("Chang")),
        );
        let corliss = RegionExpr::name("Reference").including(
            RegionExpr::name("Editors")
                .including(RegionExpr::name("Last_Name").select_eq("Corliss")),
        );
        let e = chang.union(corliss);
        assert!(e.to_string().contains("∪"));
        let names = e.names();
        assert_eq!(
            names,
            ["Reference", "Authors", "Last_Name", "Reference", "Editors", "Last_Name"]
        );
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(RegionExpr::name("A").size(), 1);
        assert_eq!(RegionExpr::name("A").innermost().size(), 2);
        assert_eq!(RegionExpr::name("A").nested_exactly(RegionExpr::name("B"), 2).size(), 3);
    }
}
