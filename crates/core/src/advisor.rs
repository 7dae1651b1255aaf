//! Index selection (§7): *"to fully compute Q, it is sufficient to (i)
//! index the nonterminals mentioned in e, and (ii) for every subexpression
//! Ai ⊃d Ai+1 in e, index one non-terminal (other than Ai, Ai+1) on each
//! path from Ai to Ai+1 in the RIG of the grammar G."*
//!
//! Given a workload of queries, [`advise`] computes such a sufficient index
//! set from the expressions optimized against the *full* RIG, choosing
//! separator non-terminals greedily (most-shared first).

use std::collections::{BTreeMap, BTreeSet};

use qof_grammar::{resolve_path, SkOp, StructuringSchema};

use crate::optimizer::optimize;
use crate::{ChainOp, Cond, InclusionExpr, Projection, Query, Rig, RightHand};

/// The advisor's output.
#[derive(Debug, Clone, Default)]
pub struct Advice {
    /// Names mentioned by the optimized expressions (always required).
    pub mentioned: BTreeSet<String>,
    /// For each surviving `Ai ⊃d Aj`, the separator names chosen to guard
    /// direct inclusion, keyed by `(Ai, Aj)`.
    pub separators: BTreeMap<(String, String), BTreeSet<String>>,
    /// The recommended index set: mentioned ∪ separators ∪ view symbols.
    pub index_set: BTreeSet<String>,
    /// Human-readable notes on the decisions.
    pub notes: Vec<String>,
}

/// Computes a sufficient index set for the workload. Queries that fail to
/// translate are skipped with a note.
pub fn advise(schema: &StructuringSchema, full_rig: &Rig, queries: &[Query]) -> Advice {
    let mut advice = Advice::default();
    for q in queries {
        for (view, _) in &q.ranges {
            if let Some(sym) = schema.view_symbol_name(view) {
                advice.mentioned.insert(sym.to_owned());
            }
        }
        let mut paths: Vec<(String, Vec<crate::QStep>)> = Vec::new();
        collect_paths(q, &mut paths);
        for (var, steps) in paths {
            let Some(view) = q.view_of(&var) else { continue };
            let Some(sym) = schema.view_symbol_name(view) else { continue };
            let spec = match resolve_path(&schema.grammar, sym, &steps) {
                Ok(s) => s,
                Err(e) => {
                    advice.notes.push(format!("skipped path {var}.…: {e}"));
                    continue;
                }
            };
            for alt in &spec.alternatives {
                // The §5 expression under full indexing: ⊃d for adjacent
                // hops, ⊃ across variables; then optimized on the full RIG.
                let ops: Vec<ChainOp> = alt
                    .ops
                    .iter()
                    .map(|o| match o {
                        SkOp::Adjacent => ChainOp::Direct,
                        SkOp::Star | SkOp::Closure | SkOp::Exact(_) => ChainOp::Incl,
                    })
                    .collect();
                let e = InclusionExpr::including(alt.names.clone(), ops, None);
                let opt = optimize(&e, full_rig);
                if opt.trivially_empty {
                    advice.notes.push(format!("expression {e} is trivially empty"));
                    continue;
                }
                let names = opt.expr.names().to_vec();
                for n in &names {
                    advice.mentioned.insert(n.clone());
                }
                // Surviving ⊃d hops need separators on every RIG route.
                for (i, op) in opt.expr.ops().iter().enumerate() {
                    if *op != ChainOp::Direct {
                        continue;
                    }
                    let (a, b) = (names[i].clone(), names[i + 1].clone());
                    let seps = separators_for(full_rig, &a, &b);
                    advice
                        .separators
                        .entry((a.clone(), b.clone()))
                        .or_default()
                        .extend(seps.iter().cloned());
                    if !seps.is_empty() {
                        advice.notes.push(format!(
                            "direct inclusion {a} ⊃d {b} needs separators: {}",
                            seps.iter().cloned().collect::<Vec<_>>().join(", ")
                        ));
                    }
                }
            }
        }
    }
    advice.index_set = advice.mentioned.clone();
    for seps in advice.separators.values() {
        advice.index_set.extend(seps.iter().cloned());
    }
    advice
}

/// Chooses one non-terminal per full-RIG route `a → … → b` (beyond the bare
/// edge), greedily preferring names shared by many routes. Only nodes on
/// longer routes need indexing — the direct edge itself needs none.
fn separators_for(rig: &Rig, a: &str, b: &str) -> BTreeSet<String> {
    // Enumerate the simple routes a → b (the grammar-derived RIGs here are
    // small; routes are bounded by the node count).
    let mut routes: Vec<Vec<String>> = Vec::new();
    let mut path: Vec<String> = Vec::new();
    fn dfs(rig: &Rig, cur: &str, b: &str, path: &mut Vec<String>, out: &mut Vec<Vec<String>>) {
        if out.len() >= 64 {
            return; // enough routes to choose separators from
        }
        for next in rig.successors(cur) {
            if next == b {
                out.push(path.clone());
            } else if !path.iter().any(|p| p == next) && next != b {
                path.push(next.to_owned());
                dfs(rig, next, b, path, out);
                path.pop();
            }
        }
    }
    dfs(rig, a, b, &mut path, &mut routes);
    // Routes with intermediates need a separator each; pick greedily by
    // coverage.
    let mut uncovered: Vec<&Vec<String>> = routes.iter().filter(|r| !r.is_empty()).collect();
    let mut chosen = BTreeSet::new();
    while !uncovered.is_empty() {
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for r in &uncovered {
            for n in *r {
                *counts.entry(n.as_str()).or_insert(0) += 1;
            }
        }
        let best = counts
            .into_iter()
            .max_by_key(|(_, c)| *c)
            .map(|(n, _)| n.to_owned())
            .expect("uncovered routes have intermediates");
        uncovered.retain(|r| !r.contains(&best));
        chosen.insert(best);
    }
    chosen
}

fn collect_paths(q: &Query, out: &mut Vec<(String, Vec<crate::QStep>)>) {
    fn walk(c: &Cond, out: &mut Vec<(String, Vec<crate::QStep>)>) {
        match c {
            Cond::Eq(p, rhs) => {
                out.push((p.var.clone(), p.steps.clone()));
                if let RightHand::Path(qp) = rhs {
                    out.push((qp.var.clone(), qp.steps.clone()));
                }
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Cond::Not(a) => walk(a, out),
        }
    }
    if let Some(w) = &q.where_ {
        walk(w, out);
    }
    if let Projection::Path(p) = &q.select {
        out.push((p.var.clone(), p.steps.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};

    fn bib_schema() -> (StructuringSchema, Rig) {
        let g = Grammar::builder("Ref_Set")
            .repeat("Ref_Set", "Reference", None, ValueBuilder::Set)
            .seq(
                "Reference",
                [lit("{"), nt("Key"), nt("Authors"), nt("Editors"), lit("}")],
                ValueBuilder::ObjectAuto("Reference".into()),
            )
            .token("Key", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Authors", "Name", Some(","), ValueBuilder::Set)
            .repeat("Editors", "Name", Some(","), ValueBuilder::Set)
            .seq("Name", [nt("First_Name"), nt("Last_Name")], ValueBuilder::TupleAuto)
            .token("First_Name", TokenPattern::Initials, ValueBuilder::Atom)
            .token("Last_Name", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        let rig = Rig::from_grammar(&g);
        (StructuringSchema::new(g).with_view("References", "Reference"), rig)
    }

    #[test]
    fn author_query_needs_authors_and_no_separator() {
        let (schema, rig) = bib_schema();
        let q =
            parse_query("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"")
                .unwrap();
        let advice = advise(&schema, &rig, &[q]);
        // Optimized expression: Reference ⊃ Authors ⊃ σ(Last_Name) — all
        // hops weakened to ⊃, so no separators are required.
        assert!(advice.separators.values().all(BTreeSet::is_empty));
        assert!(advice.index_set.contains("Reference"));
        assert!(advice.index_set.contains("Authors"));
        assert!(advice.index_set.contains("Last_Name"));
        // Name and Editors are NOT needed.
        assert!(!advice.index_set.contains("Name"));
        assert!(!advice.index_set.contains("Editors"));
    }

    #[test]
    fn star_query_needs_even_less() {
        let (schema, rig) = bib_schema();
        let q = parse_query("SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"").unwrap();
        let advice = advise(&schema, &rig, &[q]);
        assert_eq!(
            advice.index_set,
            ["Reference", "Last_Name"].iter().map(ToString::to_string).collect()
        );
    }

    #[test]
    fn surviving_direct_hop_gets_separators() {
        // A grammar where A ⊃d B survives: two routes A→B (direct edge and
        // A→C→B) and B not rightmost.
        let mut rig = Rig::new();
        rig.add_edge("A", "B");
        rig.add_edge("A", "C");
        rig.add_edge("C", "B");
        rig.add_edge("B", "D");
        let seps = separators_for(&rig, "A", "B");
        assert_eq!(seps, ["C"].iter().map(ToString::to_string).collect());
    }

    #[test]
    fn workload_unions_requirements() {
        let (schema, rig) = bib_schema();
        let q1 =
            parse_query("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"")
                .unwrap();
        let q2 = parse_query("SELECT r FROM References r WHERE r.Key = \"Key1\"").unwrap();
        let advice = advise(&schema, &rig, &[q1, q2]);
        assert!(advice.index_set.contains("Key"));
        assert!(advice.index_set.contains("Authors"));
    }
}
