//! Query lints (`QOF011`, `QOF020`–`QOF026`, `QOF1xx`).
//!
//! Everything here is decided **statically**: from the query text, the
//! structuring schema, the RIG, and (when a planner is supplied) the index
//! spec — no file content is ever read. With a planner, the abstract
//! interpreter additionally lints the *planned* region expressions
//! (`QOF100`–`QOF103`) and surfaces any rewrite the certifier refused to
//! sign off (`QOF110`); `QOF104` flags closures over non-cyclic RIG
//! names.

use super::absint::AbsInterp;
use super::{did_you_mean, locate, Code, Diagnostic, Severity};
use crate::optimizer::optimize;
use crate::plan::{InexactReason, Plan, PlanError, Planner};
use crate::translate::{resolve_path, SkOp, Skeleton, TranslateError};
use crate::{
    parse_query, ChainOp, Cond, Direction, InclusionExpr, Projection, QPath, QStep, Query, Rig,
    RightHand,
};
use qof_db::TypeDef;
use qof_grammar::StructuringSchema;

/// Statically checks one query against a schema and its RIG. With a
/// [`Planner`] (i.e. an index spec), also checks index-dependent facts:
/// §6.3 exactness (`QOF011`) and view indexing (`QOF026`).
///
/// Prefer [`FileDatabase::check`](crate::FileDatabase::check), which
/// supplies the planner for you.
pub fn check_query(
    schema: &StructuringSchema,
    full_rig: &Rig,
    planner: Option<&Planner<'_>>,
    src: &str,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();

    // QOF020: syntax. Nothing else can be checked if parsing fails.
    let q = match parse_query(src) {
        Ok(q) => q,
        Err(e) => {
            let at = e.at.min(src.len());
            out.push(
                Diagnostic::new(Code::Qof020, Severity::Error, e.message)
                    .with_span(super::Span { start: at, end: at + 1 }),
            );
            return out;
        }
    };

    // QOF021: views. Unknown views suppress path checks for their vars.
    let grammar = &schema.grammar;
    let mut symbols: Vec<(String, String)> = Vec::new(); // (var, view symbol)
    for (view, var) in &q.ranges {
        match schema.view_symbol_name(view) {
            Some(sym) => symbols.push((var.clone(), sym.to_owned())),
            None => {
                let mut d = Diagnostic::new(
                    Code::Qof021,
                    Severity::Error,
                    format!("unknown view `{view}`"),
                );
                if let Some(span) = locate(src, view) {
                    d = d.with_span(span);
                }
                let views: Vec<&str> = schema.views().map(|(v, _)| v).collect();
                if let Some(s) = did_you_mean(view, views.iter().copied()) {
                    d = d.with_note(format!("did you mean `{s}`?"));
                }
                out.push(d);
            }
        }
    }

    let mut empty_paths: Vec<String> = Vec::new();
    for path in paths_of(&q) {
        let Some((_, symbol)) = symbols.iter().find(|(v, _)| *v == path.var) else {
            continue; // unknown view (reported) or unknown variable (QOF020 domain)
        };
        match resolve_path(grammar, symbol, &path.steps) {
            Err(e) => out.push(translate_diag(grammar, symbol, &path, &e, src)),
            Ok(spec) => {
                if check_trivially_empty(full_rig, &path, &spec.alternatives, src, &mut out) {
                    empty_paths.push(path.to_string());
                } else {
                    check_star_suggestion(full_rig, symbol, &path, src, &mut out);
                    check_acyclic_closure(full_rig, &path, &spec.alternatives, src, &mut out);
                }
            }
        }
    }

    check_types(schema, &q, src, &mut out);

    if let Some(planner) = planner {
        check_with_planner(planner, &q, &symbols, &empty_paths, src, &mut out);
    }

    out
}

/// Collects every path the query mentions (projection, conditions, joins).
fn paths_of(q: &Query) -> Vec<QPath> {
    fn walk(c: &Cond, out: &mut Vec<QPath>) {
        match c {
            Cond::Eq(p, rh) => {
                out.push(p.clone());
                if let RightHand::Path(qp) = rh {
                    out.push(qp.clone());
                }
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk(a, out);
                walk(b, out);
            }
            Cond::Not(a) => walk(a, out),
        }
    }
    let mut out = Vec::new();
    if let Projection::Path(p) = &q.select {
        out.push(p.clone());
    }
    if let Some(w) = &q.where_ {
        walk(w, &mut out);
    }
    out
}

/// QOF020/QOF022 from a translation failure, with did-you-mean.
fn translate_diag(
    grammar: &qof_grammar::Grammar,
    symbol: &str,
    path: &QPath,
    e: &TranslateError,
    src: &str,
) -> Diagnostic {
    match e {
        TranslateError::NoSuchAttribute { attribute, under } => {
            let mut d = Diagnostic::new(
                Code::Qof022,
                Severity::Error,
                format!("no attribute `{attribute}` under `{under}`"),
            );
            if let Some(span) = locate(src, attribute) {
                d = d.with_span(span);
            }
            if let Some(u) = grammar.symbol(under) {
                let mut cands: Vec<&str> = Vec::new();
                let mut stack = grammar.children_of(u);
                let mut seen = std::collections::BTreeSet::new();
                while let Some(s) = stack.pop() {
                    if seen.insert(s) {
                        cands.push(grammar.name(s));
                        stack.extend(grammar.children_of(s));
                    }
                }
                if let Some(s) = did_you_mean(attribute, cands.iter().copied()) {
                    d = d.with_note(format!("did you mean `{s}`?"));
                }
            }
            d
        }
        TranslateError::UnknownSymbol(s) => {
            let mut d = Diagnostic::new(
                Code::Qof022,
                Severity::Error,
                format!("unknown symbol `{s}` in path `{path}`"),
            );
            if let Some(span) = locate(src, s) {
                d = d.with_span(span);
            }
            if let Some(sugg) = did_you_mean(s, grammar.symbols().map(|(_, n)| n)) {
                d = d.with_note(format!("did you mean `{sugg}`?"));
            }
            d
        }
        TranslateError::VariableAtEnd => {
            let mut d = Diagnostic::new(
                Code::Qof020,
                Severity::Error,
                format!(
                    "path `{path}` ends in a variable; a variable must be followed by an attribute"
                ),
            );
            if let Some(span) = locate(src, &path.var) {
                d = d.with_span(span);
            }
            d
        }
        TranslateError::UnknownView(v) => {
            // Normally caught at the FROM clause; keep a fallback.
            Diagnostic::new(Code::Qof021, Severity::Error, format!("unknown view `{v}`"))
        }
    }
    .with_note(format!("path resolved against view symbol `{symbol}`"))
}

/// QOF024 — Proposition 3.3, checked **pre-optimizer** on the full RIG:
/// the path is empty on every instance iff every derivation alternative
/// has a dead hop. The witnessing hop goes into the notes. Returns whether
/// the path was reported, so follow-up lints can stay quiet about it.
fn check_trivially_empty(
    rig: &Rig,
    path: &QPath,
    alternatives: &[Skeleton],
    src: &str,
    out: &mut Vec<Diagnostic>,
) -> bool {
    let mut witnesses = Vec::new();
    for alt in alternatives {
        match dead_hop(rig, alt) {
            Some(w) => witnesses.push(w),
            None => return false, // one live derivation ⇒ not trivially empty
        }
    }
    let Some(first) = witnesses.first() else { return false };
    let mut d = Diagnostic::new(
        Code::Qof024,
        Severity::Warning,
        format!("path `{path}` is trivially empty (Proposition 3.3)"),
    )
    .with_note(first.clone());
    for extra in witnesses.iter().skip(1) {
        if extra != first {
            d = d.with_note(format!("another derivation is also dead: {extra}"));
        }
    }
    d = d.with_note("the result is empty on every file satisfying the schema; the engine will not touch the index");
    if let Some(name) = path.steps.iter().rev().find_map(|s| match s {
        QStep::Attr(a) => Some(a.as_str()),
        _ => None,
    }) {
        if let Some(span) = locate(src, name) {
            d = d.with_span(span);
        }
    }
    out.push(d);
    true
}

/// The first dead hop of a skeleton under Proposition 3.3, described.
fn dead_hop(rig: &Rig, alt: &Skeleton) -> Option<String> {
    for (i, op) in alt.ops.iter().enumerate() {
        let (a, b) = (&alt.names[i], &alt.names[i + 1]);
        let witness = match op {
            SkOp::Adjacent if !rig.has_edge(a, b) => {
                Some(format!("the RIG has no edge `{a} → {b}`"))
            }
            SkOp::Star | SkOp::Closure if !rig.has_path(a, b) => {
                Some(format!("the RIG has no path from `{a}` to `{b}`"))
            }
            SkOp::Exact(n) if !has_walk(rig, a, b, *n + 1) => {
                Some(format!("the RIG has no walk of exactly {} edges from `{a}` to `{b}`", *n + 1))
            }
            _ => None,
        };
        if witness.is_some() {
            return witness;
        }
    }
    None
}

/// Whether the RIG has a walk of exactly `edges` edges from `a` to `b`.
fn has_walk(rig: &Rig, a: &str, b: &str, edges: u32) -> bool {
    if edges == 0 {
        return a == b;
    }
    rig.successors(a).iter().any(|&m| has_walk(rig, m, b, edges - 1))
}

/// QOF025 — §5.3: a fixed path whose optimizer normal form is the single
/// inclusion `view ⊃ target` selects exactly the regions `*X.target`
/// selects. The star form expresses that single inclusion directly — one
/// index operation, no reliance on the rewrite engine.
fn check_star_suggestion(
    rig: &Rig,
    view_symbol: &str,
    path: &QPath,
    src: &str,
    out: &mut Vec<Diagnostic>,
) {
    let attrs: Vec<&str> = path
        .steps
        .iter()
        .map(|s| match s {
            QStep::Attr(a) => Some(a.as_str()),
            _ => None,
        })
        .collect::<Option<_>>()
        .unwrap_or_default();
    // Only plain fixed paths with at least one intermediate hop.
    if attrs.len() != path.steps.len() || attrs.len() < 2 {
        return;
    }
    // The pre-optimizer chain the planner would build under full indexing.
    let mut names: Vec<String> = vec![view_symbol.to_owned()];
    names.extend(attrs.iter().map(|s| (*s).to_owned()));
    let chain = InclusionExpr::all_direct(Direction::Including, names, None);
    let opt = optimize(&chain, rig);
    if opt.trivially_empty {
        return; // QOF024 territory
    }
    if opt.expr.names().len() == 2 && opt.expr.ops() == [ChainOp::Incl] {
        let target = *attrs.last().expect("non-empty");
        let mut d = Diagnostic::new(
            Code::Qof025,
            Severity::Help,
            format!("fixed path `{path}` can be written `{}.*X.{target}` (§5.3)", path.var),
        )
        .with_note(format!(
            "the RIG proves every `{target}` under `{view_symbol}` lies on this path, so \
             `*X` selects the same regions with a single inclusion operation, \
             independent of the rewrite engine"
        ));
        if let Some(span) = locate(src, target) {
            d = d.with_span(span);
        }
        out.push(d);
    }
}

/// QOF104 — a closure step (`A+`) over a name on no RIG cycle: `A` can
/// never nest within itself, so the closure collapses to a single level
/// and the `+` is misleading (pre-wiring for path regular expressions).
fn check_acyclic_closure(
    rig: &Rig,
    path: &QPath,
    alternatives: &[Skeleton],
    src: &str,
    out: &mut Vec<Diagnostic>,
) {
    let mut flagged: Vec<&str> = Vec::new();
    for alt in alternatives {
        for (i, op) in alt.ops.iter().enumerate() {
            let target = alt.names[i + 1].as_str();
            if *op == SkOp::Closure && !rig.on_cycle(target) && !flagged.contains(&target) {
                flagged.push(target);
                let mut d = Diagnostic::new(
                    Code::Qof104,
                    Severity::Help,
                    format!("closure `{target}+` in `{path}` ranges over a non-cyclic RIG name"),
                )
                .with_note(format!(
                    "the RIG has no cycle through `{target}`, so `{target}` regions never nest \
                     within each other and `{target}+` matches exactly one level"
                ));
                if let Some(span) = locate(src, target) {
                    d = d.with_span(span);
                }
                out.push(d);
            }
        }
    }
}

/// QOF023 — type mismatches on comparisons, via `qof_db::schema`.
fn check_types(schema: &StructuringSchema, q: &Query, src: &str, out: &mut Vec<Diagnostic>) {
    let Some(w) = &q.where_ else { return };
    fn walk(schema: &StructuringSchema, q: &Query, c: &Cond, src: &str, out: &mut Vec<Diagnostic>) {
        match c {
            Cond::Eq(p, RightHand::Const(word)) => {
                let Some(TypeDef::Int) = terminal_type(schema, q, p) else { return };
                let numeric = {
                    let w = word.strip_suffix('*').unwrap_or(word);
                    !w.is_empty() && w.bytes().all(|b| b.is_ascii_digit())
                };
                if !numeric {
                    let mut d = Diagnostic::new(
                        Code::Qof023,
                        Severity::Warning,
                        format!(
                            "comparing integer attribute `{p}` with non-numeric string \"{word}\""
                        ),
                    )
                    .with_note("the comparison is textual and can never match an integer token");
                    if let Some(span) = locate(src, word) {
                        d = d.with_span(span);
                    }
                    out.push(d);
                }
            }
            Cond::Eq(p, RightHand::Path(qp)) => {
                let (lt, rt) = (terminal_type(schema, q, p), terminal_type(schema, q, qp));
                if let (Some(l), Some(r)) = (lt, rt) {
                    if l != r {
                        let mut d = Diagnostic::new(
                            Code::Qof023,
                            Severity::Warning,
                            format!(
                                "comparing `{p}` ({}) with `{qp}` ({}): the types differ",
                                type_name(&l),
                                type_name(&r)
                            ),
                        )
                        .with_note("content equality across types never holds");
                        if let Some(span) = locate(src, &p.var) {
                            d = d.with_span(span);
                        }
                        out.push(d);
                    }
                }
            }
            Cond::And(a, b) | Cond::Or(a, b) => {
                walk(schema, q, a, src, out);
                walk(schema, q, b, src, out);
            }
            Cond::Not(a) => walk(schema, q, a, src, out),
        }
    }
    walk(schema, q, w, src, out);
}

fn type_name(t: &TypeDef) -> &'static str {
    match t {
        TypeDef::Str => "string",
        TypeDef::Int => "integer",
        TypeDef::Set(_) => "set",
        TypeDef::List(_) => "list",
        TypeDef::Tuple(_) => "tuple",
        TypeDef::Class(_) => "object",
        TypeDef::Union(_) => "union",
    }
}

/// The atomic type a path lands on, following the class annotations of the
/// database schema (§4.1). Variables (`*X`, `X1`) defeat static typing;
/// the walk gives up and the comparison goes unchecked.
fn terminal_type(schema: &StructuringSchema, q: &Query, p: &QPath) -> Option<TypeDef> {
    let view = q.view_of(&p.var)?;
    let symbol = schema.view_symbol_name(view)?;
    let class = schema.classes.iter().find(|c| c.name == symbol)?;
    let mut ty = class.ty.clone();
    for step in &p.steps {
        let QStep::Attr(name) = step else { return None };
        ty = strip_containers(schema, ty)?;
        let TypeDef::Tuple(fields) = ty else { return None };
        ty = fields.get(name)?.clone();
    }
    match strip_containers(schema, ty)? {
        t @ (TypeDef::Str | TypeDef::Int) => Some(t),
        _ => None,
    }
}

/// Dereferences sets, lists and class references down to the element type.
fn strip_containers(schema: &StructuringSchema, mut ty: TypeDef) -> Option<TypeDef> {
    loop {
        ty = match ty {
            TypeDef::Set(t) | TypeDef::List(t) => *t,
            TypeDef::Class(c) => schema.classes.iter().find(|k| k.name == c)?.ty.clone(),
            other => return Some(other),
        };
    }
}

/// The planner-dependent checks: `QOF026` (view not indexed), `QOF011`
/// (§6.3 inexact hops, with the ambiguous edge named), the abstract
/// interpreter's `QOF100`–`QOF103` lints over the planned region
/// expressions, and `QOF110` for rewrites the certifier refused.
fn check_with_planner(
    planner: &Planner<'_>,
    q: &Query,
    symbols: &[(String, String)],
    empty_paths: &[String],
    src: &str,
    out: &mut Vec<Diagnostic>,
) {
    match planner.plan(q) {
        Err(PlanError::ViewNotIndexed(sym)) => {
            out.push(
                Diagnostic::new(
                    Code::Qof026,
                    Severity::Error,
                    format!("view symbol `{sym}` is not indexed"),
                )
                .with_note(
                    "§6 requires at least the view's regions in the index to locate candidates",
                ),
            );
            return;
        }
        Err(_) => {} // reported through the path/type lints above
        Ok(plan) => check_plan_absint(planner, &plan, empty_paths, out),
    }
    let mut seen: Vec<crate::plan::InexactHop> = Vec::new();
    for path in paths_of(q) {
        let Some((_, symbol)) = symbols.iter().find(|(v, _)| *v == path.var) else { continue };
        if empty_paths.contains(&path.to_string()) {
            continue; // already QOF024: exactness of an empty result is moot
        }
        let Ok(hops) = planner.path_inexact_hops(symbol, &path.steps) else { continue };
        for hop in hops {
            if seen.contains(&hop) {
                continue;
            }
            let why = match hop.reason {
                InexactReason::AmbiguousRoute => format!(
                    "more than one viable walk realizes `{} ⊃d {}` in the partial universe, \
                     so the direct-inclusion test admits false positives",
                    hop.from, hop.to
                ),
                InexactReason::CollapsibleDepth => format!(
                    "a collapsible region between `{}` and `{}` can share extents with its \
                     parent, so forest levels do not count grammar hops",
                    hop.from, hop.to
                ),
                InexactReason::PartialIndexGap => format!(
                    "intermediates between `{}` and `{}` are not indexed, so the nesting \
                     count cannot be taken on the partial forest",
                    hop.from, hop.to
                ),
                InexactReason::TargetNotIndexed => format!(
                    "`{}` itself is not indexed; its nearest indexed ancestor `{}` only \
                     approximates it",
                    hop.to, hop.from
                ),
                InexactReason::SameName => format!(
                    "both ends of `{0} ⊃d {0}` are `{0}` regions, and inclusion also pairs \
                     each region with itself",
                    hop.from
                ),
            };
            let mut d = Diagnostic::new(
                Code::Qof011,
                Severity::Warning,
                format!("the index cannot answer hop `{} → {}` exactly (§6.3)", hop.from, hop.to),
            )
            .with_note(why)
            .with_note("candidate regions will be parsed to filter false positives (§6.2)");
            if let Some(span) = locate(src, &hop.to).or_else(|| locate(src, &hop.from)) {
                d = d.with_span(span);
            }
            out.push(d);
            seen.push(hop);
        }
    }
}

/// The abstract-interpretation leg of the planner checks: `QOF110` for
/// every rewrite the certifier refused, then the `QOF100`–`QOF103` lints
/// over each region expression the plan evaluates. The interpreter runs
/// RIG-only here — `qof check` plans against a synthetic sample corpus
/// whose index statistics would be misleading as evidence.
fn check_plan_absint(
    planner: &Planner<'_>,
    plan: &Plan,
    empty_paths: &[String],
    out: &mut Vec<Diagnostic>,
) {
    for rw in &plan.rewrites {
        if !rw.certified {
            out.push(super::absint::uncertified_diagnostic(&rw.proposition, &rw.description, None));
        }
    }
    // A path already reported as trivially empty (QOF024) plans to the ∅
    // encoding; its subtree needs no second emptiness report.
    if !empty_paths.is_empty() {
        return;
    }
    let interp = AbsInterp::new(planner.partial_rig);
    for (_, expr) in plan.region_exprs() {
        interp.lint_expr(expr, out);
    }
}
