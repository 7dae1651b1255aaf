//! The query planner: translates a parsed query into optimized region
//! expressions over the *indexed* names (§5.1/§6.1), decides whether the
//! index computes each part exactly or as a candidate superset (§6.3), and
//! prepares the residual parse-and-filter work (§6.2).

use std::collections::BTreeSet;
use std::fmt::Write as _;

use qof_db::DbStep;
use qof_grammar::{
    resolve_path, PathError, PathFilter, PathSpec, SkOp, Skeleton, StructuringSchema,
};
use qof_pat::{fnv1a64, Instance, RegionExpr};

use crate::analyze::absint::{certify, AbsInterp};
use crate::optimizer::{optimize, Optimized};
use crate::plan_cache::{CachedChain, PlanCache};
use crate::residual::CompiledCond;
use crate::trace::NodeFact;
use crate::{ChainOp, Cond, Direction, InclusionExpr, Projection, QPath, Query, Rig, SelectKind};

#[cfg(test)]
thread_local! {
    /// Route searches ([`Planner::unique_route`]) run on this thread.
    pub(crate) static ROUTE_SEARCHES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Whether a candidate set is provably the exact answer (§6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exactness {
    /// Candidates coincide with the answer; no parsing needed to filter.
    Exact,
    /// Candidates are a superset; they must be parsed and filtered.
    Candidates,
}

/// A planned condition sub-tree. The planner picks each node's set algebra
/// from the §6.3 exactness of its children; the executor runs it as named.
#[derive(Debug, Clone)]
pub enum CondNode {
    /// Fully index-computable leaf: evaluates to view-region candidates.
    IndexOnly {
        /// The region expression producing view-region candidates.
        expr: RegionExpr,
        /// Pretty form of the (optimized) inclusion expressions.
        display: String,
        /// Whether the candidates are exact; the planner and EXPLAIN read
        /// it, the executor does not.
        exact: bool,
    },
    /// Same-variable attribute comparison (§5.2): the views whose located
    /// regions of the two paths pass `test`.
    ContentCompare {
        /// Deep regions of the left path.
        left: RegionExpr,
        /// Deep regions of the right path.
        right: RegionExpr,
        /// How the located regions are paired.
        test: CompareTest,
        /// Whether the views that pass are the answer: both chains locate
        /// their atoms exactly. Otherwise they are a superset, and parsing
        /// decides.
        exact: bool,
        /// Pretty form.
        display: String,
    },
    /// Conjunction (intersection of candidates).
    And(Box<CondNode>, Box<CondNode>),
    /// Disjunction (union of candidates).
    Or(Box<CondNode>, Box<CondNode>),
    /// Negation of an exact child: its complement within the view extent.
    Not(Box<CondNode>),
    /// Negation of a candidate child. The complement of a superset is not
    /// a superset, so every view region is a candidate; the child is kept
    /// for EXPLAIN, facts and lints but not evaluated.
    NotCandidates(Box<CondNode>),
}

/// How a content compare pairs the regions its two chains locate in a
/// view (DESIGN.md §21).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareTest {
    /// Some left and some right region have equal text, which is their
    /// value: both paths end on atoms and both chains end on the atoms'
    /// own regions. With `distinct`, the two paths provably reach
    /// different atoms, so the two regions must differ too.
    Text {
        /// Whether a region may not pair with itself.
        distinct: bool,
    },
    /// The view holds a located region from each side.
    Inclusion,
}

/// Plan for one range variable: its index filter, and what parsing must do
/// with its candidates (§6.2).
#[derive(Debug, Clone)]
pub struct VarPlan {
    /// The variable.
    pub var: String,
    /// The view name.
    pub view: String,
    /// The non-terminal the view ranges over.
    pub symbol: String,
    /// The index filter: the planned local condition, if any.
    pub cond: Option<CondNode>,
    /// The residual filter: the compiled local condition, present only
    /// when the index candidates are a superset of the answer.
    pub residual: Option<CompiledCond>,
    /// The check filter, present only when the candidates are parsed
    /// before the projection: to check the residual, to key an inexact
    /// join, or to evaluate a `SELECT r.p` on parsed values. It
    /// keeps the paths those read on this variable and no more; a
    /// `SELECT r` builds its results whole afterwards
    /// ([`ProjPlan::Objects`]).
    pub parse: Option<PathFilter>,
}

impl VarPlan {
    /// Whether the index phase computes this variable's candidates exactly
    /// (§6.3).
    pub fn exact(&self) -> bool {
        self.residual.is_none()
    }
}

/// Plan for the (single) cross-variable join.
#[derive(Debug, Clone)]
pub struct JoinPlan {
    /// Position of the left variable in [`Plan::vars`].
    pub left_var: usize,
    /// Deep regions of the left path.
    pub left: RegionExpr,
    /// Position of the right variable in [`Plan::vars`].
    pub right_var: usize,
    /// Deep regions of the right path.
    pub right: RegionExpr,
    /// The compiled left and right paths whose values, reached on the
    /// check pass's parsed candidates, key the semi-join of an inexact
    /// join; present only when the index locates either side inexactly or
    /// a path does not end on atoms.
    pub residual: Option<(PathSpec, PathSpec)>,
    /// Pretty form.
    pub display: String,
}

/// Plan for the projection: where its values come from.
#[derive(Debug, Clone)]
pub enum ProjPlan {
    /// `SELECT r`: whole objects, built from the result regions once every
    /// check has passed.
    Objects {
        /// Position of the projected variable in [`Plan::vars`].
        var: usize,
    },
    /// `SELECT r.p` of an atom whose deep regions the index locates
    /// exactly, over a view that does not nest in itself or over all of
    /// its regions: values are read from the text of those regions,
    /// nothing is parsed.
    IndexValues {
        /// Position of the projected variable in [`Plan::vars`].
        var: usize,
        /// The index-side projection chain (deep regions).
        chain: RegionExpr,
        /// Pretty form of the chain.
        display: String,
    },
    /// `SELECT r.p` evaluated on parsed objects.
    ParsedValues {
        /// Position of the projected variable in [`Plan::vars`].
        var: usize,
        /// Resolved path to evaluate on the parsed objects.
        steps: PathSpec,
        /// The index-side chain and its pretty form, when one exists (an
        /// inexact one, or an exact one to a non-atomic attribute); kept
        /// for facts and lints, not evaluated.
        chain: Option<(RegionExpr, String)>,
    },
}

impl ProjPlan {
    /// Position of the projected variable in [`Plan::vars`].
    pub fn var(&self) -> usize {
        match self {
            ProjPlan::Objects { var }
            | ProjPlan::IndexValues { var, .. }
            | ProjPlan::ParsedValues { var, .. } => *var,
        }
    }
}

/// One optimizer rewrite applied while planning, tagged with the paper
/// proposition that licensed it — the raw material of `--explain-analyze`'s
/// "optimizer rewrites" section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanRewrite {
    /// The licensing proposition: `"3.3"` (trivial emptiness), `"3.5(a)"`
    /// (⊃d weakening) or `"3.5(b)"` (chain shortening).
    pub proposition: String,
    /// Human-readable description of the rewrite and its justification.
    pub description: String,
    /// The inclusion expression after this rewrite (`∅` for 3.3).
    pub result: String,
    /// Whether the certifier signed the step off: replaying the
    /// optimizer trace, the step applies at its hop, meets its
    /// proposition's side condition, and the replay lands on the
    /// optimized chain (for 3.3, the per-hop dead-edge test agrees). A
    /// chain runs rewritten only when every one of its steps is certified.
    pub certified: bool,
}

/// The lowering the planner runs and caches for one optimizer run: every
/// recorded step goes through the certifier ([`certify`]), and `opt` is
/// applied only when all of them certify.
/// Otherwise the run keeps `original`, unoptimized, and its rewrites are
/// recorded as uncertified (`qof check` reports them as `QOF110`).
pub fn lower_run(original: &InclusionExpr, rig: &Rig, opt: Optimized) -> CachedChain {
    let cert = certify(original, rig, &opt);
    let accepted = cert.all_certified();
    let mut rewrites: Vec<PlanRewrite> = opt
        .trace
        .iter()
        .zip(&cert.steps)
        .map(|(rw, &certified)| PlanRewrite {
            proposition: rw.kind.proposition().to_owned(),
            description: rw.description.clone(),
            result: rw.result.clone(),
            certified,
        })
        .collect();
    if opt.trivially_empty {
        rewrites.push(PlanRewrite {
            proposition: "3.3".to_owned(),
            description: format!("`{original}` is provably empty: a hop has no RIG edge or path"),
            result: "∅".to_owned(),
            certified: cert.lands,
        });
    }
    CachedChain {
        expr: if accepted { opt.expr } else { original.clone() },
        rewrites,
        empty: accepted && opt.trivially_empty,
    }
}

/// A complete query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Per-variable plans, in FROM order.
    pub vars: Vec<VarPlan>,
    /// The cross-variable join, if any.
    pub join: Option<JoinPlan>,
    /// The projection.
    pub projection: ProjPlan,
    /// Every optimizer rewrite applied while lowering the query's chains,
    /// in application order.
    pub rewrites: Vec<PlanRewrite>,
    /// The plan's deterministic workload fingerprint: FNV-1a over the
    /// view symbols and every *pre-optimization* chain key the lowering
    /// consulted (the plan cache's own keys), so one fingerprint ⇔ one
    /// optimize-and-certify outcome, stable across processes. Trace
    /// schema v6 stamps it; `GET /workload` and `qof qlog analyze`
    /// aggregate under it.
    pub fingerprint: u64,
    /// This planning's own plan-cache lookups that found the chain
    /// lowered already.
    pub plan_cache_hits: u64,
    /// This planning's own plan-cache lookups that had to lower it.
    pub plan_cache_misses: u64,
}

/// What lowering a query's chains records, in planning order.
#[derive(Default)]
struct LowerLog {
    /// Every optimizer rewrite applied.
    rewrites: Vec<PlanRewrite>,
    /// Every chain key consulted (the plan cache's own keys): the
    /// workload fingerprint's material.
    keys: Vec<String>,
    /// Plan-cache lookups that hit.
    hits: u64,
    /// Plan-cache lookups that missed.
    misses: u64,
}

/// Planning failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// Path translation failed.
    Translate(PathError),
    /// The FROM clause references an unknown view.
    UnknownView(String),
    /// The view's non-terminal is not indexed, so candidates cannot be
    /// located (§6 requires at least the view regions).
    ViewNotIndexed(String),
    /// A query shape outside the supported fragment.
    Unsupported(String),
    /// An internal invariant broke during planning. Always a bug in the
    /// engine, never in the query.
    Internal(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Translate(e) => write!(f, "{e}"),
            PlanError::UnknownView(v) => write!(f, "unknown view `{v}`"),
            PlanError::ViewNotIndexed(s) => {
                write!(f, "view symbol `{s}` is not indexed; no candidate regions can be located")
            }
            PlanError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            PlanError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<PathError> for PlanError {
    fn from(e: PathError) -> Self {
        PlanError::Translate(e)
    }
}

/// The planner: borrows the schema, the instance (for the indexed names)
/// and both RIGs.
pub struct Planner<'a> {
    /// The structuring schema.
    pub schema: &'a StructuringSchema,
    /// The region-index instance (its names define the partial index).
    pub instance: &'a Instance,
    /// RIG of the fully indexed grammar.
    pub full_rig: &'a Rig,
    /// RIG of the indexed subset.
    pub partial_rig: &'a Rig,
    /// Whether the index spec covers every non-terminal (full indexing).
    pub full_indexing: bool,
    /// Memoized per-chain lowering results and route verdicts.
    pub plan_cache: &'a PlanCache,
}

/// Why a projected hop lost §6.3 exactness (surfaced by `qof check` as
/// diagnostic `QOF011`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InexactReason {
    /// More than one viable walk realizes the `⊃d` hop in the partial
    /// universe (§6.3's uniqueness condition fails).
    AmbiguousRoute,
    /// A `⊃^n` nesting count crosses a collapsible link, so forest levels
    /// do not correspond to grammar hops.
    CollapsibleDepth,
    /// A `⊃`/`⊃^n` hop over non-indexed intermediates: inclusion over the
    /// gap can neither require them nor count nesting levels.
    PartialIndexGap,
    /// The target attribute itself is not indexed; the deepest indexed
    /// name only approximates it.
    TargetNotIndexed,
    /// Both ends of a `⊃d` hop are regions of one name (a self-loop of the
    /// partial RIG, such as `Section → Section` with `Subsections` not
    /// indexed): inclusion pairs every region with itself, so the hop
    /// also matches at depth zero.
    SameName,
}

/// One hop of a query path that the index cannot answer exactly, with the
/// ambiguous edge named (§6.3's "decide exactness from the RIG alone").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InexactHop {
    /// The containing end of the hop.
    pub from: String,
    /// The contained end of the hop.
    pub to: String,
    /// Why exactness is lost.
    pub reason: InexactReason,
}

/// One projected chain: names/ops over indexed names only.
#[derive(Debug, Clone)]
struct ProjectedChain {
    names: Vec<String>,
    ops: Vec<EOp>,
    exact: bool,
    /// The hops that cost exactness, for diagnostics.
    hops: Vec<InexactHop>,
    /// Selector on the deepest element.
    selector: Option<(SelectKind, String)>,
}

/// A path's regions as the index locates them, with their pretty form.
struct Located {
    expr: RegionExpr,
    display: String,
    /// The regions are exactly the path's (§6.3).
    exact: bool,
    /// Every chain ends on the path's last symbol, so it locates a
    /// superset of that symbol's regions, not regions enclosing them.
    on_target: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EOp {
    Direct,
    Incl,
    Exact(u32),
}

impl<'a> Planner<'a> {
    /// Plans a query.
    pub fn plan(&self, q: &Query) -> Result<Plan, PlanError> {
        if q.ranges.is_empty() {
            return Err(PlanError::Unsupported("empty FROM clause".into()));
        }
        let mut vars: Vec<VarPlan> = Vec::new();
        for (view, var) in &q.ranges {
            let symbol = self
                .schema
                .view_symbol_name(view)
                .ok_or_else(|| PlanError::UnknownView(view.clone()))?
                .to_owned();
            if !self.instance.has(&symbol) {
                return Err(PlanError::ViewNotIndexed(symbol));
            }
            vars.push(VarPlan {
                var: var.clone(),
                view: view.clone(),
                symbol,
                cond: None,
                residual: None,
                parse: None,
            });
        }
        let var_index = |v: &str| {
            vars.iter()
                .position(|vp| vp.var == v)
                .ok_or_else(|| PlanError::Unsupported(format!("unknown variable `{v}`")))
        };

        // Split the WHERE into per-var conjuncts and cross-var joins.
        let mut local: Vec<Vec<Cond>> = vec![Vec::new(); vars.len()];
        let mut joins: Vec<(usize, QPath, usize, QPath)> = Vec::new();
        if let Some(w) = &q.where_ {
            for conjunct in flatten_and(w) {
                let used = vars_of(&conjunct);
                match used.len() {
                    1 => {
                        let v = used.into_iter().next().expect("one var");
                        local[var_index(&v)?].push(conjunct);
                    }
                    2 => match conjunct {
                        Cond::Eq(p, crate::RightHand::Path(qp)) => {
                            joins.push((var_index(&p.var)?, p, var_index(&qp.var)?, qp));
                        }
                        other => {
                            return Err(PlanError::Unsupported(format!(
                                "cross-variable condition `{other}` must be a top-level equality"
                            )))
                        }
                    },
                    n => {
                        return Err(PlanError::Unsupported(format!("condition uses {n} variables")))
                    }
                }
            }
        }
        if joins.len() > 1 {
            return Err(PlanError::Unsupported(
                "at most one cross-variable join is supported".into(),
            ));
        }
        if vars.len() > 2 {
            return Err(PlanError::Unsupported("at most two range variables".into()));
        }
        if vars.len() == 2 && joins.is_empty() {
            return Err(PlanError::Unsupported(
                "two range variables require a join condition".into(),
            ));
        }
        let proj_var = match &q.select {
            Projection::Var(v) => var_index(v)?,
            Projection::Path(p) => var_index(&p.var)?,
        };

        // Plan per-var conditions, collecting push-down filter paths and
        // what the lowering records along the way.
        let mut log = LowerLog::default();
        let mut filters: Vec<PathFilter> = Vec::new();
        for (vp, conds) in vars.iter_mut().zip(local) {
            let mut field_paths: Vec<Vec<String>> = Vec::new();
            let mut compiled: Option<CompiledCond> = None;
            for c in &conds {
                let (node, cond) = self.plan_cond(c, &vp.symbol, &mut log)?;
                cond.field_paths(&mut field_paths);
                vp.cond = Some(match vp.cond.take() {
                    Some(prev) => CondNode::And(Box::new(prev), Box::new(node)),
                    None => node,
                });
                compiled = Some(match compiled {
                    Some(prev) => CompiledCond::And(Box::new(prev), Box::new(cond)),
                    None => cond,
                });
            }
            // Inexact candidates are parsed and re-checked against the
            // whole local condition (§6.2).
            if vp.cond.as_ref().is_some_and(|c| !c.exact()) {
                vp.residual = compiled;
            }
            filters.push(PathFilter::from_paths(&field_paths));
        }

        // Plan the join.
        let join = match joins.into_iter().next() {
            None => None,
            Some((li, p, ri, qp)) => {
                let (lsym, rsym) = (&vars[li].symbol, &vars[ri].symbol);
                let lspec = resolve_path(&self.schema.grammar, lsym, &p.steps)?;
                let rspec = resolve_path(&self.schema.grammar, rsym, &qp.steps)?;
                let l = self.deep_expr(&lspec, &mut log)?;
                let r = self.deep_expr(&rspec, &mut log)?;
                // An exact join keys its sides by region text, which is
                // the value of atoms only.
                let g = &self.schema.grammar;
                let exact = l.exact && r.exact && lspec.text_is_value(g) && rspec.text_is_value(g);
                // Extend the push-down filters with the join paths.
                for (i, spec) in [(li, &lspec), (ri, &rspec)] {
                    let mut f = PathFilter::from_paths(&spec.field_paths().collect::<Vec<_>>());
                    f.merge(&filters[i]);
                    filters[i] = f;
                }
                let residual = (!exact).then_some((lspec, rspec));
                Some(JoinPlan {
                    left_var: li,
                    left: l.expr,
                    right_var: ri,
                    right: r.expr,
                    residual,
                    display: format!("join on content: [{}] = [{}]", l.display, r.display),
                })
            }
        };

        // Plan the projection.
        let projection = match &q.select {
            // SELECT r builds whole objects, of its results only.
            Projection::Var(_) => ProjPlan::Objects { var: proj_var },
            Projection::Path(p) => {
                let symbol = &vars[proj_var].symbol;
                let spec = resolve_path(&self.schema.grammar, symbol, &p.steps)?;
                let mut f = PathFilter::from_paths(&spec.field_paths().collect::<Vec<_>>());
                f.merge(&filters[proj_var]);
                filters[proj_var] = f;
                // Only an atom's region text is its value. And the chain
                // collects the items inside a result at any depth, so a
                // self-nested view whose results are some of its regions
                // would also collect the items of the views nested in them.
                let atoms = spec.text_is_value(&self.schema.grammar);
                let every_region = vars[proj_var].cond.is_none() && join.is_none();
                let from_index = atoms && (every_region || !self.full_rig.on_cycle(symbol));
                match self.deep_expr(&spec, &mut log).ok() {
                    Some(Located { expr: chain, display, exact: true, .. }) if from_index => {
                        ProjPlan::IndexValues { var: proj_var, chain, display }
                    }
                    parsed => ProjPlan::ParsedValues {
                        var: proj_var,
                        steps: spec,
                        chain: parsed.map(|l| (l.expr, l.display)),
                    },
                }
            }
        };

        // What the check pass parses (§6.2). Inexact candidates, both sides
        // of an inexact join, and the projected variable of a `SELECT r.p`
        // evaluated on parsed values are parsed with the push-down filter:
        // the paths their checks and projection read.
        let join_inexact = join.as_ref().is_some_and(|j| j.residual.is_some());
        let parses_projection = matches!(projection, ProjPlan::ParsedValues { .. });
        for (i, (vp, filter)) in vars.iter_mut().zip(filters).enumerate() {
            let needed = !vp.exact() || join_inexact || (parses_projection && i == proj_var);
            vp.parse = needed.then_some(filter);
        }

        // The workload fingerprint. A single-chain plan (the common
        // shape) hashes exactly its chain key — the same key the plan
        // cache memoizes under. Multi-chain plans hash all keys in
        // planning order; a bare scan hashes the view symbols (so scans of
        // different views differ). All material is deterministic spelling
        // — the hash is identical across processes for the same query
        // shape.
        let fingerprint = match log.keys.as_slice() {
            [single] => fnv1a64(single.as_bytes()),
            keys => {
                let mut material = String::from("plan");
                for vp in &vars {
                    let _ = write!(material, "|var:{}", vp.symbol);
                }
                for key in keys {
                    let _ = write!(material, "|chain:{key}");
                }
                fnv1a64(material.as_bytes())
            }
        };
        Ok(Plan {
            vars,
            join,
            projection,
            rewrites: log.rewrites,
            fingerprint,
            plan_cache_hits: log.hits,
            plan_cache_misses: log.misses,
        })
    }

    /// Plans a single-variable condition, and compiles it for the
    /// residual check from the same resolved paths.
    fn plan_cond(
        &self,
        cond: &Cond,
        view_symbol: &str,
        log: &mut LowerLog,
    ) -> Result<(CondNode, CompiledCond), PlanError> {
        let resolve = |p: &QPath| resolve_path(&self.schema.grammar, view_symbol, &p.steps);
        let mut sub = |c: &Cond| self.plan_cond(c, view_symbol, log);
        Ok(match cond {
            Cond::Eq(p, crate::RightHand::Const(w)) => {
                let paths = resolve(p)?;
                // A trailing `*` in the constant selects by word prefix —
                // PAT's lexical search (`r.Last_Name = "Ch*"`).
                let selector = match w.strip_suffix('*') {
                    Some(prefix) if !prefix.is_empty() => (SelectKind::Prefix, prefix.to_owned()),
                    _ => (SelectKind::Eq, w.to_owned()),
                };
                // The candidate view regions, union over alternatives.
                let Located { expr, display, exact, .. } =
                    self.locate(&paths, Direction::Including, Some(&selector), log)?;
                let compiled =
                    CompiledCond::EqConst { var: p.var.clone(), paths, value: w.clone() };
                (CondNode::IndexOnly { expr, display, exact }, compiled)
            }
            Cond::Eq(p, crate::RightHand::Path(qp)) => {
                let (lpaths, rpaths) = (resolve(p)?, resolve(qp)?);
                let l = self.deep_expr(&lpaths, log)?;
                let r = self.deep_expr(&rpaths, log)?;
                // Texts are values only for atoms, and an equal pair is
                // necessary only where both chains locate a superset of the
                // atoms' own regions, along fixed paths or exactly (§21).
                let g = &self.schema.grammar;
                let by_text = lpaths.text_is_value(g)
                    && rpaths.text_is_value(g)
                    && l.on_target
                    && r.on_target
                    && (l.exact && r.exact || is_fixed(&lpaths) && is_fixed(&rpaths));
                let test = if by_text {
                    CompareTest::Text { distinct: reach_different_nodes(&lpaths, &rpaths) }
                } else {
                    CompareTest::Inclusion
                };
                let node = CondNode::ContentCompare {
                    test,
                    exact: by_text && l.exact && r.exact,
                    display: format!("content([{}]) = content([{}])", l.display, r.display),
                    left: l.expr,
                    right: r.expr,
                };
                let (lvar, rvar) = (p.var.clone(), qp.var.clone());
                (node, CompiledCond::EqPath { lvar, lpaths, rvar, rpaths })
            }
            Cond::And(a, b) => {
                let ((na, ca), (nb, cb)) = (sub(a)?, sub(b)?);
                (
                    CondNode::And(Box::new(na), Box::new(nb)),
                    CompiledCond::And(Box::new(ca), Box::new(cb)),
                )
            }
            Cond::Or(a, b) => {
                let ((na, ca), (nb, cb)) = (sub(a)?, sub(b)?);
                (
                    CondNode::Or(Box::new(na), Box::new(nb)),
                    CompiledCond::Or(Box::new(ca), Box::new(cb)),
                )
            }
            Cond::Not(a) => {
                let (child, compiled) = sub(a)?;
                let child = Box::new(child);
                let node = if child.exact() {
                    CondNode::Not(child)
                } else {
                    CondNode::NotCandidates(child)
                };
                (node, CompiledCond::Not(Box::new(compiled)))
            }
        })
    }

    /// Builds the expression producing the **deep attribute regions** of a
    /// path (for projections and content joins), union over alternatives.
    fn deep_expr(&self, spec: &PathSpec, log: &mut LowerLog) -> Result<Located, PlanError> {
        self.locate(spec, Direction::IncludedIn, None, log)
    }

    /// Projects every alternative of a path onto the indexed names, lowers
    /// it, and unions the results.
    fn locate(
        &self,
        spec: &PathSpec,
        dir: Direction,
        selector: Option<&(SelectKind, String)>,
        log: &mut LowerLog,
    ) -> Result<Located, PlanError> {
        let (mut exprs, mut displays) = (Vec::new(), Vec::new());
        let (mut exact, mut on_target) = (true, true);
        for alt in &spec.alternatives {
            let chain = self.project_chain(alt, selector.cloned());
            on_target &= chain.hops.iter().all(|h| h.reason != InexactReason::TargetNotIndexed);
            let (expr, display, chain_exact) = self.lower_chain(&chain, dir, log);
            exprs.push(expr);
            displays.push(display);
            exact &= chain_exact;
        }
        let expr = exprs
            .into_iter()
            .reduce(RegionExpr::union)
            .ok_or_else(|| PlanError::Internal("path resolved to no alternatives".into()))?;
        Ok(Located { expr, display: displays.join("  ∪  "), exact, on_target })
    }

    /// §6.1: projects a skeleton onto the indexed names, computing the
    /// connecting operators and the §6.3 exactness.
    fn project_chain(
        &self,
        alt: &Skeleton,
        selector: Option<(SelectKind, String)>,
    ) -> ProjectedChain {
        let mut names: Vec<String> = vec![alt.names[0].clone()];
        let mut ops: Vec<EOp> = Vec::new();
        let mut exact = true;
        let mut hops: Vec<InexactHop> = Vec::new();

        // Pending relation accumulated while dropping non-indexed names.
        let mut pending: Option<EOp> = None;
        let mut dropped_since_last = false;
        for (i, op) in alt.ops.iter().enumerate() {
            let next_name = &alt.names[i + 1];
            let step = match op {
                SkOp::Adjacent => EOp::Direct,
                SkOp::Star | SkOp::Closure => EOp::Incl,
                SkOp::Exact(n) => EOp::Exact(*n),
            };
            pending = Some(merge_eop(pending, step));
            // Scoped-index substitution (§7): an unindexed name may still be
            // indexed under an ancestor scope appearing earlier on the path.
            let scoped = alt.names[..=i]
                .iter()
                .rev()
                .map(|anc| qof_grammar::IndexSpec::scoped_key(anc, next_name))
                .find(|key| self.instance.has(key));
            let plain = self.instance.has(next_name);
            if plain || scoped.is_some() {
                let kept = if plain { next_name.clone() } else { scoped.expect("checked") };
                let op = pending.take().expect("an op precedes every kept name");
                // Exactness: a Direct hop must match a unique route through
                // the non-indexed names (§6.3); a degraded Exact is a
                // superset; Star is exact by its own semantics.
                match op {
                    EOp::Direct => {
                        // §6.3's uniqueness test runs even under full
                        // indexing: extent collapse can make an indexed
                        // intermediate transparent, so a second viable
                        // route (e.g. through a statement cycle) breaks
                        // exactness regardless of what is indexed.
                        let prev = names.last().expect("chain starts with the view symbol");
                        let route_from = strip_scope(prev);
                        let unique = self.plan_cache.route(route_from, next_name, || {
                            self.unique_route(route_from, next_name)
                        });
                        let reason = if *prev == kept {
                            Some(InexactReason::SameName)
                        } else {
                            (!unique).then_some(InexactReason::AmbiguousRoute)
                        };
                        if let Some(reason) = reason {
                            exact = false;
                            hops.push(InexactHop {
                                from: route_from.to_owned(),
                                to: next_name.clone(),
                                reason,
                            });
                        }
                        ops.push(EOp::Direct);
                    }
                    op => {
                        // Over dropped names, `⊃` also takes regions
                        // outside them and counts no levels. And the
                        // forest counts *extents*, so a collapsible link
                        // on a viable walk can erase a level and skew the
                        // `⊃^n` count even under full indexing.
                        let prev = strip_scope(names.last().expect("non-empty")).to_owned();
                        let reason = match op {
                            _ if dropped_since_last || (!self.full_indexing && op != EOp::Incl) => {
                                Some(InexactReason::PartialIndexGap)
                            }
                            EOp::Exact(n) if !self.exact_depth_reliable(&prev, next_name, n) => {
                                Some(InexactReason::CollapsibleDepth)
                            }
                            _ => None,
                        };
                        match reason {
                            Some(reason) => {
                                exact = false;
                                hops.push(InexactHop { from: prev, to: next_name.clone(), reason });
                                ops.push(EOp::Incl);
                            }
                            None => ops.push(op),
                        }
                    }
                }
                names.push(kept);
                dropped_since_last = false;
            } else {
                dropped_since_last = true;
            }
        }
        if pending.is_some() {
            // The target attribute itself is not indexed: the deepest kept
            // name approximates it; a word selector weakens to "contains".
            exact = false;
            hops.push(InexactHop {
                from: strip_scope(names.last().expect("chain is non-empty")).to_owned(),
                to: alt.names.last().expect("chain is non-empty").clone(),
                reason: InexactReason::TargetNotIndexed,
            });
            let selector = selector.map(|(_, w)| (SelectKind::Contains, w));
            return ProjectedChain { names, ops, exact, hops, selector };
        }
        ProjectedChain { names, ops, exact, hops, selector }
    }

    /// Inexactness analysis of one query path, for `qof check` (QOF011):
    /// the hops that cost §6.3 exactness, across all derivation
    /// alternatives, with the ambiguous edge named.
    pub(crate) fn path_inexact_hops(
        &self,
        view_symbol: &str,
        steps: &[crate::QStep],
    ) -> Result<Vec<InexactHop>, PathError> {
        let spec = resolve_path(&self.schema.grammar, view_symbol, steps)?;
        let mut hops: Vec<InexactHop> = Vec::new();
        for alt in &spec.alternatives {
            for hop in self.project_chain(alt, None).hops {
                if !hops.contains(&hop) {
                    hops.push(hop);
                }
            }
        }
        Ok(hops)
    }

    /// Optimizes the Direct/Incl runs of a projected chain against the
    /// partial RIG and lowers it to a region expression, recording every
    /// rewrite the optimizer fired.
    fn lower_chain(
        &self,
        chain: &ProjectedChain,
        dir: Direction,
        log: &mut LowerLog,
    ) -> (RegionExpr, String, bool) {
        // Split at Exact ops; optimize each run as an InclusionExpr. The
        // algebra has no `⊂^n`: deep regions take `⊂` and are a superset.
        let deep = dir == Direction::IncludedIn;
        let exact =
            chain.exact && !(deep && chain.ops.iter().any(|op| matches!(op, EOp::Exact(_))));
        let mut runs: Vec<(Vec<String>, Vec<ChainOp>)> = Vec::new();
        let mut links: Vec<u32> = Vec::new();
        let mut cur_names = vec![chain.names[0].clone()];
        let mut cur_ops: Vec<ChainOp> = Vec::new();
        for (i, op) in chain.ops.iter().enumerate() {
            match op {
                EOp::Direct => {
                    cur_ops.push(ChainOp::Direct);
                    cur_names.push(chain.names[i + 1].clone());
                }
                EOp::Exact(n) if !deep => {
                    runs.push((std::mem::take(&mut cur_names), std::mem::take(&mut cur_ops)));
                    links.push(*n);
                    cur_names = vec![chain.names[i + 1].clone()];
                }
                EOp::Incl | EOp::Exact(_) => {
                    cur_ops.push(ChainOp::Incl);
                    cur_names.push(chain.names[i + 1].clone());
                }
            }
        }
        runs.push((cur_names, cur_ops));

        let mut optimized_runs: Vec<InclusionExpr> = Vec::new();
        let mut empty = false;
        for (k, (names, ops)) in runs.into_iter().enumerate() {
            let selector = if k == links.len() { chain.selector.clone() } else { None };
            let ie = match dir {
                Direction::Including => InclusionExpr::including(names, ops, selector),
                Direction::IncludedIn => InclusionExpr::included_in(names, ops, selector),
            };
            // The chain key (the plan cache's own key) doubles as the
            // workload-fingerprint material.
            let key = PlanCache::chain_key(&ie);
            log.keys.push(key.clone());
            // Scoped keys are not RIG nodes; skip optimization for runs
            // containing them (they are already short).
            let has_scoped = ie.names().iter().any(|n| n.contains('.'));
            if has_scoped {
                optimized_runs.push(ie);
                continue;
            }
            // The plan cache memoizes the whole optimize-and-certify
            // outcome per chain shape; both read only the chain and the
            // partial RIG, so a hit is always byte-identical to what a
            // fresh lowering would produce.
            if let Some(cached) = self.plan_cache.get(&key) {
                log.hits += 1;
                log.rewrites.extend(cached.rewrites);
                empty |= cached.empty;
                optimized_runs.push(cached.expr);
                continue;
            }
            log.misses += 1;
            let lowered = lower_run(&ie, self.partial_rig, optimize(&ie, self.partial_rig));
            self.plan_cache.insert(key, lowered.clone());
            log.rewrites.extend(lowered.rewrites);
            empty |= lowered.empty;
            optimized_runs.push(lowered.expr);
        }

        // Reassemble: fold runs right-to-left with NestedExactly links.
        let mut display = String::new();
        for (k, run) in optimized_runs.iter().enumerate() {
            if k > 0 {
                let _ = write!(display, " ⊃^{} ", links[k - 1]);
            }
            let _ = write!(display, "{run}");
        }
        if empty {
            display.push_str("  [provably empty]");
        }
        let mut iter = optimized_runs.into_iter().rev();
        let expr = match iter.next() {
            Some(first) if !empty => {
                let mut expr = first.to_region_expr();
                for run in iter {
                    // run ⊃^n expr: nest under the run's deepest name.
                    let n = links.pop().unwrap_or(0);
                    let run_expr = run.to_region_expr();
                    expr = graft_nested(run_expr, expr, n);
                }
                expr
            }
            // Provably empty (or a degenerate run-less chain):
            // ∅ as name − name on the head (always empty, cheap).
            _ => {
                let head = RegionExpr::name(&chain.names[0]);
                head.clone().difference(head)
            }
        };
        (expr, display, exact)
    }

    /// §6.3's uniqueness condition, extended for *extent collapse*.
    ///
    /// The partial-universe `⊃d` hop from `a` to `b` is exact iff exactly
    /// one walk `a → … → b` in the full RIG is **viable**, where a walk is
    /// viable iff every *indexed* intermediate `w` on it fails to block the
    /// direct-inclusion test — which happens exactly when all links from
    /// `a` up to `w` are collapsible (`w`'s region can share extents with
    /// `a`'s) or all links from `w` down to `b` are collapsible
    /// ([`Grammar::can_collapse`](qof_grammar::Grammar::can_collapse)).
    ///
    /// Viability is recognized by a deterministic three-phase automaton
    /// over the walk's nodes — Head (still inside the collapsible prefix
    /// run), Middle (indexed nodes forbidden), Tail (every node must be
    /// collapsible to the end) — so distinct viable walks correspond
    /// one-to-one to accepting paths in the RIG × phase product graph.
    /// The test counts those paths (capped at 2); a product cycle that can
    /// still reach acceptance means unboundedly many viable walks.
    /// Nesting-count reliability for a `⊃^n` link (variable paths like
    /// `s.X1.X2.Attr`). `NestedExactly` counts forest *levels* between the
    /// endpoints, and the forest stores extents: a region whose parent can
    /// collapse ([`Grammar::can_collapse`](qof_grammar::Grammar::can_collapse))
    /// may share its parent's extent and occupy the same forest node,
    /// erasing a level. The count is reliable only if no `a → … → b` walk
    /// with exactly `n` intermediates contains such a link.
    fn exact_depth_reliable(&self, a: &str, b: &str, n: u32) -> bool {
        let grammar = &self.schema.grammar;
        let collapsible = |p: &str| grammar.symbol(p).is_some_and(|sym| grammar.can_collapse(sym));
        // Bounded DFS for a *bad* walk: exactly n+1 edges ending at `b`
        // with at least one collapsible parent along the way.
        fn bad_walk(
            g: &Rig,
            cur: &str,
            b: &str,
            edges_left: u32,
            tainted: bool,
            collapsible: &dyn Fn(&str) -> bool,
        ) -> bool {
            if edges_left == 0 {
                return cur == b && tainted;
            }
            let t = tainted || collapsible(cur);
            g.successors(cur).iter().any(|&m| bad_walk(g, m, b, edges_left - 1, t, collapsible))
        }
        !bad_walk(self.full_rig, a, b, n + 1, false, &collapsible)
    }

    fn unique_route(&self, a: &str, b: &str) -> bool {
        #[cfg(test)]
        ROUTE_SEARCHES.with(|n| n.set(n.get() + 1));
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        enum Phase {
            Head,
            Middle,
            Tail,
        }
        let g = self.full_rig;
        let grammar = &self.schema.grammar;
        let collapsible = |p: &str| grammar.symbol(p).is_some_and(|sym| grammar.can_collapse(sym));
        let is_indexed = |n: &str| self.instance.has(n);
        let step = |phase: Phase, n: &str| -> Option<Phase> {
            match phase {
                // All nodes consumed so far (including `a`) were collapsible:
                // `n` is head-OK regardless of indexing; the run continues
                // only if `n` itself collapses.
                Phase::Head => Some(if collapsible(n) { Phase::Head } else { Phase::Middle }),
                // Past the head run: indexed nodes must start the tail run.
                Phase::Middle => {
                    if !is_indexed(n) {
                        Some(Phase::Middle)
                    } else if collapsible(n) {
                        Some(Phase::Tail)
                    } else {
                        None
                    }
                }
                // Inside the tail run: everything must collapse down to `b`.
                Phase::Tail => collapsible(n).then_some(Phase::Tail),
            }
        };
        let start_phase = if collapsible(a) { Phase::Head } else { Phase::Middle };

        // can_accept: from (node, phase), can some walk reach `b`?
        // Fixpoint over the finite product graph.
        use std::collections::HashMap;
        let nodes: Vec<&str> = g.node_names().collect();
        let phases = [Phase::Head, Phase::Middle, Phase::Tail];
        let mut accept: HashMap<(&str, Phase), bool> = HashMap::new();
        for &n in &nodes {
            for &p in &phases {
                accept.insert((n, p), false);
            }
        }
        loop {
            let mut changed = false;
            for &n in &nodes {
                for &p in &phases {
                    if accept[&(n, p)] {
                        continue;
                    }
                    let reaches = g.successors(n).iter().any(|&m| {
                        m == b
                            || step(p, m)
                                .is_some_and(|p2| accept.get(&(m, p2)).copied().unwrap_or(false))
                    });
                    if reaches {
                        accept.insert((n, p), true);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Count accepting product paths from (a, start_phase), capped at 2.
        // Walks may pass through `b` and reach it again, so arriving at `b`
        // both accepts and (when a transition exists) continues.
        fn dfs<'x>(
            g: &'x Rig,
            b: &str,
            cur: (&'x str, Phase),
            step: &dyn Fn(Phase, &str) -> Option<Phase>,
            accept: &std::collections::HashMap<(&'x str, Phase), bool>,
            on_path: &mut Vec<(&'x str, Phase)>,
            count: &mut u32,
        ) {
            if *count >= 2 {
                return;
            }
            for next in g.successors(cur.0) {
                if next == b {
                    *count += 1;
                    if *count >= 2 {
                        return;
                    }
                }
                let Some(p2) = step(cur.1, next) else { continue };
                let state = (next, p2);
                if on_path.contains(&state) {
                    // A product cycle: if acceptance is still reachable,
                    // pumping it yields unboundedly many viable walks.
                    if accept.get(&state).copied().unwrap_or(false) {
                        *count = 2;
                        return;
                    }
                    continue;
                }
                if !accept.get(&state).copied().unwrap_or(false) {
                    continue;
                }
                on_path.push(state);
                dfs(g, b, state, step, accept, on_path, count);
                on_path.pop();
                if *count >= 2 {
                    return;
                }
            }
        }
        let mut count = 0;
        let mut on_path = vec![(a, start_phase)];
        dfs(g, b, (a, start_phase), &step, &accept, &mut on_path, &mut count);
        count == 1
    }
}

/// Replaces the deepest leaf of `outer_expr` — built from a chain, so its
/// rightmost operand — by `NestedExactly { deepest, inner, n }`.
fn graft_nested(outer_expr: RegionExpr, inner: RegionExpr, n: u32) -> RegionExpr {
    use RegionExpr::*;
    match outer_expr {
        Name(s) => RegionExpr::Name(s).nested_exactly(inner, n),
        Including(a, b) => Including(a, Box::new(graft_nested(*b, inner, n))),
        DirectIncluding(a, b) => DirectIncluding(a, Box::new(graft_nested(*b, inner, n))),
        SelectEq(e, w) => SelectEq(Box::new(graft_nested(*e, inner, n)), w),
        SelectContains(e, w) => SelectContains(Box::new(graft_nested(*e, inner, n)), w),
        other => other.nested_exactly(inner, n),
    }
}

fn merge_eop(pending: Option<EOp>, next: EOp) -> EOp {
    match pending {
        None => next,
        // Once any star/exact gap is crossed, only plain inclusion remains
        // sound; consecutive adjacents while dropping stay Direct.
        Some(EOp::Direct) => match next {
            EOp::Direct => EOp::Direct,
            EOp::Incl | EOp::Exact(_) => EOp::Incl,
        },
        Some(EOp::Incl) => EOp::Incl,
        Some(EOp::Exact(n)) => match next {
            // An Exact link absorbs following adjacents into a longer gap
            // only when nothing else was dropped; approximating with the
            // count is unsound, so widen to Incl.
            EOp::Direct => EOp::Exact(n),
            _ => EOp::Incl,
        },
    }
}

/// A field or item step: not `*X`, `X1…Xn` or `A+`.
fn fixed_step(step: &DbStep) -> bool {
    !matches!(step, DbStep::Reach(_))
}

/// Whether every alternative of a path takes fixed steps only.
fn is_fixed(spec: &PathSpec) -> bool {
    spec.alternatives.iter().all(|alt| alt.steps.iter().all(fixed_step))
}

/// Whether two paths provably reach different nodes of a view's value: in
/// every pair of alternatives, fixed steps agree up to one where both take
/// a field, by different names. A view's value is a tree, so one sequence
/// of steps from the root reaches a node.
fn reach_different_nodes(left: &PathSpec, right: &PathSpec) -> bool {
    left.alternatives.iter().all(|a| {
        right.alternatives.iter().all(|b| {
            let first = a.steps.iter().zip(&b.steps).find(|(x, y)| x != y || !fixed_step(x));
            matches!(first, Some((DbStep::Field(_), DbStep::Field(_))))
        })
    })
}

fn strip_scope(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// Flattens top-level conjunctions.
fn flatten_and(c: &Cond) -> Vec<Cond> {
    match c {
        Cond::And(a, b) => {
            let mut out = flatten_and(a);
            out.extend(flatten_and(b));
            out
        }
        other => vec![other.clone()],
    }
}

/// The variables a condition mentions.
fn vars_of(c: &Cond) -> BTreeSet<String> {
    fn walk(c: &Cond, out: &mut BTreeSet<String>) {
        match c {
            Cond::Eq(p, rhs) => {
                out.insert(p.var.clone());
                if let crate::RightHand::Path(q) = rhs {
                    out.insert(q.var.clone());
                }
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Cond::Not(a) => walk(a, out),
        }
    }
    let mut out = BTreeSet::new();
    walk(c, &mut out);
    out
}

impl Plan {
    /// Whether the whole plan is answered exactly by the index phase
    /// (§6.3): every variable's candidates and the join are exact.
    pub fn exactness(&self) -> Exactness {
        if self.vars.iter().all(VarPlan::exact)
            && self.join.as_ref().is_none_or(|j| j.residual.is_none())
        {
            Exactness::Exact
        } else {
            Exactness::Candidates
        }
    }

    /// Pretty multi-line description of the plan (EXPLAIN).
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for vp in &self.vars {
            let _ = writeln!(out, "var {} : view {} over <{}>", vp.var, vp.view, vp.symbol);
            if let Some(c) = &vp.cond {
                describe_cond(c, 1, &mut out);
            } else {
                let _ = writeln!(out, "  candidates: all <{}> regions", vp.symbol);
            }
        }
        if let Some(j) = &self.join {
            let _ = writeln!(
                out,
                "join {} ⋈ {}: {} [{}]",
                self.vars[j.left_var].var,
                self.vars[j.right_var].var,
                j.display,
                if j.residual.is_none() { "exact" } else { "candidates" }
            );
        }
        let var = &self.vars[self.projection.var()].var;
        let _ = match &self.projection {
            ProjPlan::Objects { .. } => writeln!(out, "project: objects of {var}"),
            ProjPlan::IndexValues { display, .. } => {
                writeln!(out, "project: values of {var} via index [{display}] [exact]")
            }
            ProjPlan::ParsedValues { .. } => {
                writeln!(out, "project: values of {var} via parsed objects")
            }
        };
        if !self.rewrites.is_empty() {
            let certified = self.rewrites.iter().filter(|r| r.certified).count();
            let _ = writeln!(
                out,
                "optimizer: {} rewrite(s), {certified} certified",
                self.rewrites.len()
            );
        }
        out
    }

    /// Every region expression of the plan, with its pretty form where the
    /// plan keeps one: condition leaves (both sides of a content compare,
    /// negated children included), both join sides, and the index-side
    /// projection chain. Trace facts and the `QOF1xx` lints walk this list.
    pub(crate) fn region_exprs(&self) -> Vec<(Option<&str>, &RegionExpr)> {
        fn walk<'p>(c: &'p CondNode, out: &mut Vec<(Option<&'p str>, &'p RegionExpr)>) {
            match c {
                CondNode::IndexOnly { expr, display, .. } => out.push((Some(display), expr)),
                CondNode::ContentCompare { left, right, .. } => {
                    out.push((None, left));
                    out.push((None, right));
                }
                CondNode::And(a, b) | CondNode::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                CondNode::Not(a) | CondNode::NotCandidates(a) => walk(a, out),
            }
        }
        let mut out = Vec::new();
        for c in self.vars.iter().filter_map(|vp| vp.cond.as_ref()) {
            walk(c, &mut out);
        }
        if let Some(j) = &self.join {
            out.push((None, &j.left));
            out.push((None, &j.right));
        }
        match &self.projection {
            ProjPlan::IndexValues { chain, display, .. }
            | ProjPlan::ParsedValues { chain: Some((chain, display)), .. } => {
                out.push((Some(display), chain));
            }
            ProjPlan::Objects { .. } | ProjPlan::ParsedValues { chain: None, .. } => {}
        }
        out
    }

    /// The abstract interpreter's verdict on every region expression
    /// ([`Plan::region_exprs`]): trace schema v3's `facts` array. It
    /// reads the plan and the interpreter's RIG only.
    pub fn facts(&self, interp: &AbsInterp<'_>) -> Vec<NodeFact> {
        self.region_exprs()
            .into_iter()
            .map(|(display, expr)| {
                interp.fact(display.map_or_else(|| expr.to_string(), str::to_owned), expr)
            })
            .collect()
    }
}

impl CondNode {
    /// Whether the candidates this node yields are the exact answer (§6.3).
    fn exact(&self) -> bool {
        match self {
            CondNode::IndexOnly { exact, .. } | CondNode::ContentCompare { exact, .. } => *exact,
            CondNode::Not(_) => true,
            CondNode::NotCandidates(_) => false,
            CondNode::And(a, b) | CondNode::Or(a, b) => a.exact() && b.exact(),
        }
    }
}

fn describe_cond(c: &CondNode, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth);
    match c {
        CondNode::IndexOnly { display, exact, .. } => {
            let _ = writeln!(
                out,
                "{pad}index: {display} [{}]",
                if *exact { "exact" } else { "candidates" }
            );
        }
        CondNode::ContentCompare { display, test, exact, .. } => {
            let test = match test {
                CompareTest::Text { distinct: false } => "text",
                CompareTest::Text { distinct: true } => "text of distinct regions",
                CompareTest::Inclusion => "inclusion",
            };
            let exactness = if *exact { "exact" } else { "candidates" };
            let _ = writeln!(out, "{pad}{display}, paired by {test} [{exactness}]");
        }
        CondNode::And(a, b) => {
            let _ = writeln!(out, "{pad}AND");
            describe_cond(a, depth + 1, out);
            describe_cond(b, depth + 1, out);
        }
        CondNode::Or(a, b) => {
            let _ = writeln!(out, "{pad}OR");
            describe_cond(a, depth + 1, out);
            describe_cond(b, depth + 1, out);
        }
        CondNode::Not(a) => {
            let _ = writeln!(out, "{pad}NOT");
            describe_cond(a, depth + 1, out);
        }
        CondNode::NotCandidates(a) => {
            let _ = writeln!(out, "{pad}NOT [candidates: all view regions]");
            describe_cond(a, depth + 1, out);
        }
    }
}
