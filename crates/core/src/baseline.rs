//! The "standard database implementation" baseline the paper compares
//! against (§4.1): *"parse the file using the structuring schema, construct
//! the objects/tuples, and load them into the database, and then evaluate
//! the query on the database. This technique will obviously lead to scanning
//! and parsing the whole file."*
//!
//! Two variants are provided:
//!
//! * [`BaselineMode::FullLoad`] — the naive pipeline: build every object.
//! * [`BaselineMode::ReducedLoad`] — the \[ACM93\] optimization the paper
//!   cites: the query is pushed into loading so only objects on needed
//!   paths are constructed; the whole file is still scanned and parsed.

use qof_db::{Database, PathCost, Value};
use qof_grammar::{
    resolve_path, AtomText, ParseStats, Parser, PathFilter, PathSpec, StructuringSchema, SymbolId,
    Tape, ValueSink,
};
use qof_text::Corpus;

use crate::residual::{compile_cond, eval_pair, eval_single, path_values, CompiledCond};
use crate::{parse_query, Projection, Query, QueryError};

/// Which baseline pipeline to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMode {
    /// Parse the whole corpus and build every object.
    FullLoad,
    /// Parse the whole corpus but build only objects on query paths.
    ReducedLoad,
}

/// Cost summary of a baseline run.
#[derive(Debug, Clone, Default)]
pub struct BaselineStats {
    /// Parsing work (always the whole corpus).
    pub parse: ParseStats,
    /// Objects and value nodes constructed.
    pub db: qof_db::DbStats,
    /// Path-traversal work during predicate evaluation.
    pub path: PathCost,
    /// Extent size scanned.
    pub scanned_objects: usize,
    /// Result count.
    pub results: usize,
}

/// The result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Result values (objects or projected atoms).
    pub values: Vec<Value>,
    /// The loaded database.
    pub db: Database,
    /// Cost counters.
    pub stats: BaselineStats,
}

/// Runs a query through the standard-database pipeline.
pub fn run_baseline(
    corpus: &Corpus,
    schema: &StructuringSchema,
    src: &str,
    mode: BaselineMode,
) -> Result<BaselineResult, QueryError> {
    let q = parse_query(src)?;
    run_baseline_ast(corpus, schema, &q, mode)
}

/// Runs an already-parsed query through the standard-database pipeline.
pub fn run_baseline_ast(
    corpus: &Corpus,
    schema: &StructuringSchema,
    q: &Query,
    mode: BaselineMode,
) -> Result<BaselineResult, QueryError> {
    if q.ranges.len() > 2 {
        return Err(QueryError::Plan("at most two range variables".into()));
    }
    // All views in this query share one load when they coincide.
    let mut extents: Vec<(String, SymbolId, Vec<Value>)> = Vec::new();
    for (view, _) in &q.ranges {
        if extents.iter().any(|(v, _, _)| v == view) {
            continue;
        }
        let sym = schema
            .view_symbol(view)
            .ok_or_else(|| QueryError::Plan(format!("unknown view `{view}`")))?;
        extents.push((view.clone(), sym, Vec::new()));
    }
    // Resolve the condition and projection paths (qof_grammar::resolve_path).
    let view_symbol_of = |var: &str| -> Option<String> {
        q.view_of(var).and_then(|view| schema.view_symbol_name(view)).map(str::to_owned)
    };
    let compiled_where: Option<CompiledCond> = match &q.where_ {
        None => None,
        Some(c) => Some(
            compile_cond(&schema.grammar, &view_symbol_of, c)
                .map_err(|e| QueryError::Plan(e.to_string()))?,
        ),
    };
    let proj_steps: Option<PathSpec> = match &q.select {
        Projection::Var(_) => None,
        Projection::Path(p) => Some(
            resolve_path(
                &schema.grammar,
                &view_symbol_of(&p.var)
                    .ok_or_else(|| QueryError::Plan(format!("unknown variable `{}`", p.var)))?,
                &p.steps,
            )
            .map_err(|e| QueryError::Plan(e.to_string()))?,
        ),
    };

    // The push-down filter for ReducedLoad: every path the query mentions.
    let filter = match (mode, &proj_steps) {
        (BaselineMode::ReducedLoad, Some(proj)) => {
            let mut paths: Vec<Vec<String>> = proj.field_paths().collect();
            if let Some(c) = &compiled_where {
                c.field_paths(&mut paths);
            }
            PathFilter::from_paths(&paths)
        }
        _ => PathFilter::all(),
    };

    // Load phase: parse every file, build the (possibly filtered) values of
    // the view symbol's occurrences.
    let mut db = Database::new();
    let parser = Parser::new(&schema.grammar, corpus.text());
    // Each file is parsed once onto a tape; every view occurrence (nested
    // ones too, each on its own) is then replayed into the value sink.
    let mut tape = Tape::new();
    let text = AtomText::Shared(corpus.shared_text());
    for file in corpus.files() {
        tape.clear();
        parser
            .parse_into(schema.grammar.root(), file.span.clone(), &mut tape)
            .map_err(QueryError::CandidateParse)?;
        for (_, sym, values) in &mut extents {
            let mut sink = ValueSink::new(&schema.grammar, text, &mut db, &filter);
            tape.replay_each(*sym, &mut sink, |sink| values.extend(sink.take()));
        }
    }

    let mut stats = BaselineStats {
        parse: parser.stats(),
        scanned_objects: extents.iter().map(|(_, _, v)| v.len()).sum(),
        ..BaselineStats::default()
    };

    // Evaluate.
    let extent_of = |var: &str| -> Option<&[Value]> {
        let view = q.view_of(var)?;
        extents.iter().find(|(v, _, _)| v == view).map(|(_, _, vals)| vals.as_slice())
    };

    let proj_var = q.projected_var();
    let mut values: Vec<Value> = Vec::new();
    let mut results = 0usize;
    match q.ranges.len() {
        1 => {
            let var = &q.ranges[0].1;
            let extent = extent_of(var).unwrap_or(&[]);
            for v in extent {
                let keep = match &compiled_where {
                    None => true,
                    Some(c) => eval_single(&db, var, v, c, &mut stats.path),
                };
                if keep {
                    results += 1;
                    project(&db, v, &q.select, &proj_steps, &mut values, &mut stats.path);
                }
            }
        }
        2 => {
            // Nested evaluation with the cross-var equality as the join.
            let (v1, v2) = (&q.ranges[0].1, &q.ranges[1].1);
            let e1: Vec<Value> = extent_of(v1).unwrap_or(&[]).to_vec();
            let e2: Vec<Value> = extent_of(v2).unwrap_or(&[]).to_vec();
            let Some(w) = &compiled_where else {
                return Err(QueryError::Plan(
                    "two range variables require a join condition".into(),
                ));
            };
            // Collect matching bindings first; SELECT returns a set, so the
            // projected variable's bindings are deduplicated (an object may
            // participate in several join pairs).
            let mut matched: Vec<&Value> = Vec::new();
            for a in &e1 {
                for b in &e2 {
                    if eval_pair(&db, v1, a, v2, b, w, &mut stats.path) {
                        results += 1;
                        matched.push(if proj_var == *v1 { a } else { b });
                    }
                }
            }
            matched.sort_unstable();
            matched.dedup_by(|x, y| x == y);
            for m in matched {
                project(&db, m, &q.select, &proj_steps, &mut values, &mut stats.path);
            }
        }
        _ => return Err(QueryError::Plan("empty FROM clause".into())),
    }
    if matches!(q.select, Projection::Path(_)) {
        values.sort();
        values.dedup();
    }

    stats.db = db.stats();
    stats.results = results;
    Ok(BaselineResult { values, db, stats })
}

fn project(
    db: &Database,
    v: &Value,
    select: &Projection,
    steps: &Option<PathSpec>,
    out: &mut Vec<Value>,
    cost: &mut PathCost,
) {
    match select {
        Projection::Var(_) => match v {
            Value::Ref(oid) => out.push(db.deref(*oid).cloned().unwrap_or_else(|| v.clone())),
            other => out.push(other.clone()),
        },
        Projection::Path(_) => {
            if let Some(paths) = steps {
                for hit in path_values(db, v, paths, cost) {
                    out.push(hit.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Baseline correctness is exercised end-to-end in the integration
    // tests, which compare it against the index executor and the corpus
    // ground truths. Here: what the reduced load builds.
    fn fields_built(q: &str) -> Vec<String> {
        let corpus = Corpus::from_text("[k1:chang,milo|x][k2:corliss|y]");
        let res = run_baseline(&corpus, &test_schema(), q, BaselineMode::ReducedLoad).unwrap();
        let object = res.db.deref(res.db.extent("Entry")[0]).unwrap();
        let Value::Tuple(fields) = object else { panic!("an Entry is a tuple: {object:?}") };
        fields.iter().map(|(name, _)| name.to_owned()).collect()
    }

    #[test]
    fn reduced_filter_keeps_query_paths() {
        let q = "SELECT r.Key FROM Entries r WHERE r.Names.Name = \"chang\"";
        assert_eq!(fields_built(q), ["Key", "Names"]);
    }

    #[test]
    fn select_star_keeps_everything() {
        assert_eq!(fields_built("SELECT r FROM Entries r"), ["Key", "Names", "Other"]);
    }

    fn test_schema() -> StructuringSchema {
        use qof_grammar::{lit, nt, Grammar, TokenPattern, ValueBuilder};
        let g = Grammar::builder("S")
            .repeat("S", "Entry", None, ValueBuilder::Set)
            .seq(
                "Entry",
                [lit("["), nt("Key"), lit(":"), nt("Names"), lit("|"), nt("Other"), lit("]")],
                ValueBuilder::ObjectAuto("Entry".into()),
            )
            .token("Key", TokenPattern::Word, ValueBuilder::Atom)
            .repeat("Names", "Name", Some(","), ValueBuilder::Set)
            .token("Name", TokenPattern::Word, ValueBuilder::Atom)
            .token("Other", TokenPattern::Word, ValueBuilder::Atom)
            .build()
            .unwrap();
        StructuringSchema::new(g).with_view("Entries", "Entry")
    }
}
