//! The executor: builds a [`FileDatabase`] over a corpus (parse once,
//! extract the configured indices — the service the text system provides),
//! then runs planned queries: index phase → optional content join →
//! check (candidate parsing with push-down, residual filtering) →
//! projection, which builds whole objects for the results only.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qof_db::{Atom, Database, DbStats, PathCost, Value};
use qof_grammar::{
    AtomText, IndexSpec, ParseError, ParseStats, Parser, PathFilter, PathSpec, RegionSink, Sink,
    StructuringSchema, SymbolId, ValueSink,
};
use qof_pat::{
    Engine, EvalError, EvalStats, Instance, MetricsRegistry, OpTrace, Region, RegionSet, TraceSink,
    WorkloadObs, WorkloadTable,
};
use qof_text::{Corpus, Pos, WordIndex};

use crate::analyze::absint::AbsInterp;
use crate::plan::{CompareTest, CondNode, Exactness, JoinPlan, Plan, PlanError, Planner, ProjPlan};
use crate::plan_cache::{PlanCache, PlanCacheStats};
use crate::qofx::{self, QofxError};
use crate::residual::{eval_single, path_values};
use crate::trace::{ExecTrace, PhaseTrace, QueryTrace};
use crate::{parse_query, QueryParseError, Rig};

/// Errors while building a [`FileDatabase`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A file failed to parse under the structuring schema.
    Parse {
        /// Name of the offending file.
        file: String,
        /// The parser error.
        error: ParseError,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Parse { file, error } => write!(f, "cannot index `{file}`: {error}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Errors while answering a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query text failed to parse.
    Syntax(QueryParseError),
    /// Planning failed.
    Plan(String),
    /// Region-expression evaluation failed.
    Eval(EvalError),
    /// A candidate region failed to parse (index/file out of sync).
    CandidateParse(ParseError),
    /// An internal invariant broke between planning and execution. Always
    /// a bug in the engine, never in the query — reported as an error
    /// instead of panicking so a bad query can never take the process down.
    Internal(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Syntax(e) => write!(f, "{e}"),
            QueryError::Plan(e) => write!(f, "{e}"),
            QueryError::Eval(e) => write!(f, "{e}"),
            QueryError::CandidateParse(e) => write!(f, "candidate region: {e}"),
            QueryError::Internal(e) => write!(f, "internal error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<QueryParseError> for QueryError {
    fn from(e: QueryParseError) -> Self {
        QueryError::Syntax(e)
    }
}

impl From<PlanError> for QueryError {
    fn from(e: PlanError) -> Self {
        QueryError::Plan(e.to_string())
    }
}

impl From<EvalError> for QueryError {
    fn from(e: EvalError) -> Self {
        QueryError::Eval(e)
    }
}

/// Cost summary of one query run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Region-algebra work.
    pub eval: EvalStats,
    /// Parsing work (candidates + result materialization).
    pub parse: ParseStats,
    /// Database construction work.
    pub db: DbStats,
    /// Text bytes read for content joins and index-side projections.
    pub content_bytes: u64,
    /// Candidate view regions entering the check pass, summed over the
    /// variables: after an exact join's semi-join, before an inexact one's.
    pub candidates: usize,
    /// Result count.
    pub results: usize,
    /// Whether the index phase alone computed the exact answer (§6.3).
    pub exact_index: bool,
}

impl RunStats {
    /// Total file bytes touched (parse + content reads).
    pub fn bytes_touched(&self) -> u64 {
        self.parse.bytes_scanned + self.content_bytes
    }
}

/// The result of a query.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Matched regions of the projected variable.
    pub regions: RegionSet,
    /// Materialized values (objects for `SELECT r`, atoms for `SELECT r.p`).
    pub values: Vec<Value>,
    /// The object database holding any materialized objects. The objects
    /// a `SELECT r` projects are moved out of it into `values`; their
    /// slots hold empty tuples. Objects nested inside them stay here.
    pub db: Database,
    /// EXPLAIN text of the executed plan.
    pub explain: String,
    /// Cost counters.
    pub stats: RunStats,
}

/// A queryable view of a corpus: word index + region indices + schema.
pub struct FileDatabase {
    corpus: Corpus,
    words: WordIndex,
    schema: StructuringSchema,
    spec: IndexSpec,
    instance: Instance,
    full_rig: Rig,
    partial_rig: Rig,
    plan_cache: PlanCache,
    metrics: MetricsRegistry,
    query_counter: AtomicU64,
    workload: WorkloadTable,
}

/// Builds the word index for `corpus`, honoring the spec's §7 selective
/// word-indexing scope (only occurrences inside the scoped regions are
/// indexed when a scope is set).
fn build_word_index(corpus: &Corpus, spec: &IndexSpec, instance: &Instance) -> WordIndex {
    match spec.word_scope() {
        None => WordIndex::build(corpus),
        Some(scope) => {
            let spans = instance
                .get(scope)
                .map(|set| set.iter().map(qof_pat::Region::span).collect())
                .unwrap_or_default();
            qof_text::WordIndexBuilder::new().scoped_to(spans).build(corpus)
        }
    }
}

/// Where the time of a [`FileDatabase::build`] went.
#[derive(Debug, Clone, Copy)]
pub struct BuildPhases {
    /// Parsing every file and extracting the spec's regions.
    pub region_sweep: Duration,
    /// Tokenizing the corpus into the word index.
    pub word_index: Duration,
}

impl FileDatabase {
    /// Parses every file of the corpus with the schema's grammar, extracts
    /// the regions requested by `spec`, and builds the word index.
    pub fn build(
        corpus: Corpus,
        schema: StructuringSchema,
        spec: IndexSpec,
    ) -> Result<Self, BuildError> {
        Self::build_timed(corpus, schema, spec).map(|(db, _)| db)
    }

    /// [`FileDatabase::build`], also reporting how long each phase took.
    pub fn build_timed(
        corpus: Corpus,
        schema: StructuringSchema,
        spec: IndexSpec,
    ) -> Result<(Self, BuildPhases), BuildError> {
        let started = Instant::now();
        let instance = {
            let mut regions = RegionSink::new(&schema.grammar, &spec);
            let parser = Parser::new(&schema.grammar, corpus.text());
            for file in corpus.files() {
                parser
                    .parse_into(schema.grammar.root(), file.span.clone(), &mut regions)
                    .map_err(|error| BuildError::Parse { file: file.name.clone(), error })?;
            }
            regions.finish()
        };
        let swept = Instant::now();
        let words = build_word_index(&corpus, &spec, &instance);
        let phases = BuildPhases { region_sweep: swept - started, word_index: swept.elapsed() };
        Ok((Self::from_parts(corpus, words, schema, spec, instance), phases))
    }

    /// Assembles a database from its indexed parts, deriving the RIGs from
    /// the grammar and the spec, and publishes the index-footprint gauges.
    fn from_parts(
        corpus: Corpus,
        words: WordIndex,
        schema: StructuringSchema,
        spec: IndexSpec,
        instance: Instance,
    ) -> Self {
        let full_rig = Rig::from_grammar(&schema.grammar);
        let indexed: std::collections::BTreeSet<String> =
            spec.instance_names(&schema.grammar).into_iter().filter(|n| !n.contains('.')).collect();
        let partial_rig = full_rig.partial(&indexed);
        let db = Self {
            corpus,
            words,
            schema,
            spec,
            instance,
            full_rig,
            partial_rig,
            plan_cache: PlanCache::new(),
            metrics: MetricsRegistry::new(),
            query_counter: AtomicU64::new(0),
            workload: WorkloadTable::new(),
        };
        db.publish_index_stats();
        db
    }

    /// Writes the database to a `.qofx` index file: corpus, delta-coded
    /// word index, region indices and the index spec, checksummed (see
    /// [`crate::qofx`] for the layout). The structuring schema is *not*
    /// stored — [`FileDatabase::open`] takes it again. Returns the file
    /// size in bytes.
    pub fn persist(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<u64> {
        qofx::write_qofx(path.as_ref(), &self.corpus, &self.words, &self.instance, &self.spec)
    }

    /// Reopens a persisted database from a `.qofx` file without re-parsing
    /// or re-tokenizing anything: the file is read once, checksummed, and
    /// every section is decoded and checked from that buffer, the word
    /// index into the same [`WordIndex`] `build` makes. `schema` must be
    /// the schema the database was built with (it is deliberately not
    /// persisted — it is named configuration, not derived data). A file
    /// whose region names are not the ones its spec builds under `schema`
    /// is corrupt: planning reads the spec, while the engine reads the
    /// regions.
    pub fn open(
        path: impl AsRef<std::path::Path>,
        schema: StructuringSchema,
    ) -> Result<Self, QofxError> {
        let qofx::QofxContents { corpus, words, instance, spec } = qofx::read_qofx(path.as_ref())?;
        let mut expected = spec.instance_names(&schema.grammar);
        expected.sort();
        if !instance.names().eq(expected.iter().map(String::as_str)) {
            let found: Vec<&str> = instance.names().collect();
            return Err(QofxError::Corrupt(format!(
                "REGN names [{}] are not the names the index spec builds: [{}]",
                found.join(", "),
                expected.join(", ")
            )));
        }
        Ok(Self::from_parts(corpus, words, schema, spec, instance))
    }

    /// [`FileDatabase::open`], falling back to `rebuild` when the file is
    /// missing, unreadable or corrupt. Returns the database plus the open
    /// error that forced a rebuild (`None` when the file opened cleanly) —
    /// callers log it; a corrupt index is worth a warning, not a crash.
    pub fn open_or_rebuild<F>(
        path: impl AsRef<std::path::Path>,
        schema: StructuringSchema,
        rebuild: F,
    ) -> Result<(Self, Option<QofxError>), BuildError>
    where
        F: FnOnce(StructuringSchema) -> Result<Self, BuildError>,
    {
        match Self::open(path, schema.clone()) {
            Ok(db) => Ok((db, None)),
            Err(why) => Ok((rebuild(schema)?, Some(why))),
        }
    }

    /// The registry this database records its queries and index footprint
    /// into.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Draws the next query ID from this database's sequence (1, 2, …).
    /// [`FileDatabase::query`] and [`FileDatabase::query_traced`] draw
    /// automatically; callers that
    /// must log failures under the same ID space (the query server) draw
    /// explicitly and pass the ID to [`FileDatabase::query_traced_with_id`].
    pub fn allocate_query_id(&self) -> u64 {
        self.query_counter.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The workload-analytics table: per-fingerprint heavy hitters fed by
    /// every successful query, library calls included (see
    /// [`qof_pat::WorkloadTable`]).
    pub fn workload(&self) -> &WorkloadTable {
        &self.workload
    }

    /// Counters and gauges of the memoized plan cache.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Incrementally indexes another file: appends it to the corpus, parses
    /// it, appends its regions and extends the word index. Existing offsets
    /// stay valid (the new file's span lies past all previous text), so a
    /// nesting forest already built is extended in place rather than
    /// dropped ([`Instance::append`]). The RIGs depend only on the grammar
    /// and the spec, so every plan cached before the call stays valid.
    pub fn add_file(&mut self, name: impl Into<String>, contents: &str) -> Result<(), BuildError> {
        let name = name.into();
        // Parse the file on its own text, at the offset it will land on,
        // so a malformed file leaves the database untouched; only then
        // append it to the corpus.
        let base = self.corpus.next_file_start();
        let file_instance = {
            let grammar = &self.schema.grammar;
            let mut regions = RegionSink::new(grammar, &self.spec);
            Parser::with_base(grammar, contents, base)
                .parse_into(grammar.root(), base..base + contents.len() as Pos, &mut regions)
                .map_err(|error| BuildError::Parse { file: name.clone(), error })?;
            regions.finish()
        };
        let id = self.corpus.push_file(name, contents);
        let span = self.corpus.file(id).expect("just pushed").span.clone();
        self.instance.append(&file_instance);
        // A selectively-built word index (§7) must learn the new file's
        // scoped regions before the append, or the scope filter would drop
        // every new occurrence.
        if let Some(scope_name) = self.spec.word_scope() {
            if let Some(set) = file_instance.get(scope_name) {
                self.words.extend_scope(set.iter().map(qof_pat::Region::span));
            }
        }
        self.words.append_span(&self.corpus, span);
        self.publish_index_stats();
        Ok(())
    }

    /// The indexed corpus.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The structuring schema.
    pub fn schema(&self) -> &StructuringSchema {
        &self.schema
    }

    /// The region-index instance.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// The word index.
    pub fn word_index(&self) -> &WordIndex {
        &self.words
    }

    /// Resident bytes of the word index (dictionary and posting lists).
    pub fn index_bytes(&self) -> u64 {
        self.words.stats().approx_bytes as u64
    }

    /// Publishes the index-footprint gauges (`qof_index_bytes`,
    /// `qof_corpus_bytes`) into this database's metrics registry.
    fn publish_index_stats(&self) {
        self.metrics.record_index_bytes(self.index_bytes(), u64::from(self.corpus.len()));
    }

    /// The index specification this database was built with.
    pub fn index_spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// The RIG of the fully indexed grammar (§4.2).
    pub fn full_rig(&self) -> &Rig {
        &self.full_rig
    }

    /// The RIG of the indexed subset (§6.1).
    pub fn partial_rig(&self) -> &Rig {
        &self.partial_rig
    }

    fn planner(&self) -> Planner<'_> {
        Planner {
            schema: &self.schema,
            instance: &self.instance,
            full_rig: &self.full_rig,
            partial_rig: &self.partial_rig,
            full_indexing: self.spec.is_full(),
            plan_cache: &self.plan_cache,
        }
    }

    /// Statically checks a query against this database's schema, RIG and
    /// index spec — **without executing anything**. Returns the structured
    /// diagnostics of the [`analyze`](crate::analyze) subsystem: syntax
    /// errors, unknown views/attributes with suggestions, type mismatches,
    /// Proposition 3.3 trivially-empty paths with the witnessing RIG
    /// evidence, §5.3 star-path suggestions, and §6.3 exactness losses of
    /// the partial index with the ambiguous edge named.
    pub fn check(&self, src: &str) -> Vec<crate::analyze::Diagnostic> {
        crate::analyze::check_query(&self.schema, &self.full_rig, Some(&self.planner()), src)
    }

    /// Plans a query without running it.
    pub fn plan(&self, src: &str) -> Result<Plan, QueryError> {
        let q = parse_query(src)?;
        Ok(self.planner().plan(&q)?)
    }

    /// EXPLAIN: the plan description.
    pub fn explain(&self, src: &str) -> Result<String, QueryError> {
        Ok(self.plan(src)?.describe())
    }

    /// Parses, plans and runs a query. Every query is accounted: it draws
    /// a query ID and feeds this database's [`MetricsRegistry`] and the
    /// [`workload`](FileDatabase::workload) table.
    /// This is exactly [`FileDatabase::query_traced`] with the trace
    /// dropped.
    pub fn query(&self, src: &str) -> Result<QueryResult, QueryError> {
        self.run(src, self.allocate_query_id()).map(|(result, _)| result)
    }

    /// [`FileDatabase::query`], also returning the run's [`QueryTrace`]:
    /// the optimizer rewrites that fired during planning, per-phase wall
    /// times, the engine's operator tree (with per-operator timings,
    /// cardinalities and memo outcomes) and this run's plan-cache hit/miss
    /// delta. The trace's query ID comes from the database's sequence.
    pub fn query_traced(&self, src: &str) -> Result<(QueryResult, QueryTrace), QueryError> {
        self.run(src, self.allocate_query_id())
    }

    /// [`FileDatabase::query_traced`] with a caller-assigned query ID
    /// (drawn from [`FileDatabase::allocate_query_id`]), so a failing query
    /// can still be logged under the ID it consumed.
    pub fn query_traced_with_id(
        &self,
        src: &str,
        id: u64,
    ) -> Result<(QueryResult, QueryTrace), QueryError> {
        self.run(src, id)
    }

    /// The one query path: parse, plan and execute with the trace always
    /// on, then record the run once — metrics and workload table. A failed
    /// query counts as an error and records nothing else.
    fn run(&self, src: &str, id: u64) -> Result<(QueryResult, QueryTrace), QueryError> {
        let started = Instant::now();
        let mut tr = ExecTrace::default();
        let run = self.plan_and_execute(src, started, &mut tr);
        let total_nanos = elapsed_nanos(started);
        let (plan, result) = match run {
            Ok(done) => done,
            Err(e) => {
                self.metrics.record_query(total_nanos, false);
                return Err(e);
            }
        };
        // Renumber the span tree pre-order so span ids are unique and
        // stable within one trace.
        renumber_spans(&mut tr.ops, &mut 1);
        let trace = QueryTrace {
            id,
            fingerprint: plan.fingerprint,
            query: src.to_owned(),
            plan: result.explain.clone(),
            facts: tr.facts,
            rewrites: plan.rewrites,
            phases: tr.phases,
            ops: tr.ops,
            plan_cache_hits: plan.plan_cache_hits,
            plan_cache_misses: plan.plan_cache_misses,
            total_nanos,
            bytes_touched: result.stats.bytes_touched(),
            candidates: result.stats.candidates,
            results: result.stats.results,
            exact_index: result.stats.exact_index,
        };
        self.metrics.record_query(total_nanos, true);
        self.metrics.record_plan_cache_delta(trace.plan_cache_hits, trace.plan_cache_misses);
        self.metrics.record_phases(trace.phases.iter().map(|p| (p.name, p.nanos)));
        self.metrics.record_op_trace(&trace.ops);
        self.workload.observe(&WorkloadObs {
            fingerprint: trace.fingerprint,
            exemplar: src,
            nanos: total_nanos,
            bytes: trace.bytes_touched,
            plan_cache_hits: trace.plan_cache_hits,
            plan_cache_misses: trace.plan_cache_misses,
        });
        Ok((result, trace))
    }

    /// Parses, plans and executes `src`, filling `tr` with the run's
    /// phases, static facts, operator tree and plan-cache delta.
    fn plan_and_execute(
        &self,
        src: &str,
        started: Instant,
        tr: &mut ExecTrace,
    ) -> Result<(Plan, QueryResult), QueryError> {
        let q = parse_query(src)?;
        let parsed = elapsed_nanos(started);
        let plan = self.planner().plan(&q)?;
        // The plan's static facts are part of planning, so the `plan`
        // phase times them.
        tr.facts = plan.facts(&AbsInterp::new(&self.partial_rig));
        let planned = elapsed_nanos(started);
        tr.phases.push(PhaseTrace { name: "parse", start_nanos: 0, nanos: parsed });
        tr.phases.push(PhaseTrace {
            name: "plan",
            start_nanos: parsed,
            nanos: planned.saturating_sub(parsed),
        });
        let result = self.execute_inner(&plan, started, tr)?;
        Ok((plan, result))
    }

    /// Runs only the index side of a query, phases 1 and 2: the candidate
    /// regions of the projected variable, narrowed by an exact join, and
    /// whether they are the answer (§6.3). No file text is parsed — this
    /// is the measure used by the index-vs-database experiments.
    pub fn query_regions(&self, src: &str) -> Result<(RegionSet, bool, RunStats), QueryError> {
        let q = parse_query(src)?;
        let plan = self.planner().plan(&q)?;
        let engine = self.engine();
        let mut stats = RunStats::default();
        let mut candidates = self.eval_phase1(&plan, &engine, &mut stats)?;
        if let Some(j) = &plan.join {
            self.join_located(&engine, j, &mut candidates, &mut stats.content_bytes)?;
        }
        let regions = candidates.swap_remove(plan.projection.var());
        let exact = plan.exactness() == Exactness::Exact;
        stats.eval.absorb(&engine.stats());
        stats.candidates = regions.len();
        stats.results = regions.len();
        stats.exact_index = exact;
        Ok((regions, exact, stats))
    }

    /// The grammar symbol of a view the plan ranges over.
    fn view_symbol(&self, symbol: &str) -> Result<SymbolId, QueryError> {
        self.schema.grammar.symbol(symbol).ok_or_else(|| {
            QueryError::Internal(format!("view symbol `{symbol}` vanished from the grammar"))
        })
    }

    fn engine(&self) -> Engine<'_> {
        Engine::new(&self.corpus, &self.words, &self.instance)
    }

    /// Evaluates a planned condition to its candidate view regions.
    fn eval_cond(
        &self,
        engine: &Engine<'_>,
        node: &CondNode,
        view: &RegionSet,
        content_bytes: &mut u64,
    ) -> Result<RegionSet, QueryError> {
        match node {
            CondNode::IndexOnly { expr, .. } => Ok(engine.eval(expr)?.intersect(view)),
            CondNode::ContentCompare { left, right, test, .. } => {
                // One memo for both sides: what they share, or a whole side
                // compared with itself, is evaluated once.
                let sides = engine.eval_all(&[left, right])?;
                let right = (left != right).then_some(&sides[1]);
                Ok(compare_views(&self.corpus, view, &sides[0], right, *test, content_bytes))
            }
            CondNode::And(a, b) => Ok(self
                .eval_cond(engine, a, view, content_bytes)?
                .intersect(&self.eval_cond(engine, b, view, content_bytes)?)),
            CondNode::Or(a, b) => Ok(self
                .eval_cond(engine, a, view, content_bytes)?
                .union(&self.eval_cond(engine, b, view, content_bytes)?)),
            CondNode::Not(a) => {
                Ok(view.difference(&self.eval_cond(engine, a, view, content_bytes)?))
            }
            CondNode::NotCandidates(_) => Ok(view.clone()),
        }
    }

    /// Phase 1 of execution: per-variable candidate regions through the
    /// index.
    fn eval_phase1(
        &self,
        plan: &Plan,
        engine: &Engine<'_>,
        stats: &mut RunStats,
    ) -> Result<Vec<RegionSet>, QueryError> {
        let empty = RegionSet::new();
        plan.vars
            .iter()
            .map(|vp| {
                let view = self.instance.get(&vp.symbol).unwrap_or(&empty);
                match &vp.cond {
                    None => Ok(view.clone()),
                    Some(c) => self.eval_cond(engine, c, view, &mut stats.content_bytes),
                }
            })
            .collect()
    }

    /// Phase 2 of execution: an exact join semi-joins each side on the
    /// text of the atom regions its path locates in the candidates, which
    /// is the atoms' value. It returns those keys, so that phase 3b can
    /// semi-join the survivors of the check pass again. An inexact join
    /// waits for the check pass (`None`): a set's text carries its order
    /// and separators, and an inexact chain may locate a region that
    /// encloses the attribute rather than the attribute itself.
    fn join_located(
        &self,
        engine: &Engine<'_>,
        j: &JoinPlan,
        candidates: &mut [RegionSet],
        content_bytes: &mut u64,
    ) -> Result<Option<[Keyed<&str>; 2]>, QueryError> {
        if j.residual.is_some() {
            return Ok(None);
        }
        let mut located = |var: usize, expr| -> Result<Keyed<&str>, QueryError> {
            let view = &candidates[var];
            let mut keys = Vec::new();
            for_each_in_container(view, &engine.eval(expr)?, |ci, item| {
                *content_bytes += u64::from(item.len());
                keys.push((view.as_slice()[ci], self.corpus.slice(item.span())));
            });
            Ok(keys)
        };
        let keys = [located(j.left_var, &j.left)?, located(j.right_var, &j.right)?];
        [candidates[j.left_var], candidates[j.right_var]] = semi_join(&keys[0], &keys[1]);
        Ok(Some(keys))
    }

    /// The executor proper: it runs the plan record as it stands, timing
    /// every phase and evaluating with a trace sink attached. `tr`
    /// receives the phase and operator traces of the run after the phases
    /// already in it.
    fn execute_inner(
        &self,
        plan: &Plan,
        origin: Instant,
        tr: &mut ExecTrace,
    ) -> Result<QueryResult, QueryError> {
        // One monotonic origin for the whole query: the sink and every
        // phase stamp offset from it, so all spans of a query share a
        // single timeline (what the Perfetto export relies on).
        let sink = TraceSink::with_origin(origin);
        let mut stats = RunStats::default();
        let mut end_phase = |name, start_nanos: u64| {
            let nanos = elapsed_nanos(origin).saturating_sub(start_nanos);
            tr.phases.push(PhaseTrace { name, start_nanos, nanos });
        };

        // Phase 1: per-variable candidates through the index. Engine set-up
        // is O(1); a `⊃d`, `⊂d` or `⊃^n` operator fetches the nesting forest,
        // and the first one since build or open builds it inside its span.
        let phase_started = elapsed_nanos(origin);
        let engine = self.engine().with_trace(&sink);
        let mut candidates = self.eval_phase1(plan, &engine, &mut stats)?;
        end_phase("index-candidates", phase_started);

        // Phase 2: an exact cross-variable join narrows both sides by the
        // located texts.
        let phase_started = elapsed_nanos(origin);
        let mut located = None;
        if let Some(j) = &plan.join {
            located = self.join_located(&engine, j, &mut candidates, &mut stats.content_bytes)?;
        }
        end_phase("content-join", phase_started);
        stats.candidates = candidates.iter().map(RegionSet::len).sum();
        stats.exact_index = plan.exactness() == Exactness::Exact;

        // Phase 3, check: parse the candidates the plan names as far as
        // their checks read (the plan's check filter), keeping those that
        // pass their residual. A rejected candidate is rolled back, so it
        // leaves no object behind.
        let phase_started = elapsed_nanos(origin);
        let mut db = Database::new();
        let grammar = &self.schema.grammar;
        let parser = Parser::new(grammar, self.corpus.text());
        let text = AtomText::Shared(self.corpus.shared_text());
        // objects[var]: the surviving candidates and their checked values,
        // in region order.
        let mut objects: Vec<Vec<(Region, Value)>> = vec![Vec::new(); plan.vars.len()];
        for (i, vp) in plan.vars.iter().enumerate() {
            let Some(filter) = &vp.parse else { continue };
            let sym = self.view_symbol(&vp.symbol)?;
            let mut sink = ValueSink::new(grammar, text, &mut db, filter);
            objects[i] = parse_regions(&parser, sym, &candidates[i], &mut sink, |db, value| {
                vp.residual.as_ref().is_none_or(|cond| {
                    eval_single(db, &vp.var, value, cond, &mut PathCost::default())
                })
            })?;
            candidates[i] = regions_of(&objects[i]);
        }

        // Phase 3b: the join semi-joins the survivors. An inexact join keys
        // them by the values their join paths reach on the checked values;
        // an exact one whose check rejected candidates by their located
        // texts again.
        if let Some(j) = &plan.join {
            let (li, ri) = (j.left_var, j.right_var);
            let narrowed = match (&j.residual, &located) {
                (Some((lspec, rspec)), _) => Some(semi_join(
                    &reached_keys(&db, &objects[li], lspec),
                    &reached_keys(&db, &objects[ri], rspec),
                )),
                (None, Some([l, r])) if plan.vars.iter().any(|vp| vp.residual.is_some()) => Some(
                    semi_join(&keys_within(l, &candidates[li]), &keys_within(r, &candidates[ri])),
                ),
                _ => None,
            };
            if let Some(sides) = narrowed {
                [candidates[li], candidates[ri]] = sides;
            }
        }
        end_phase("parse-filter", phase_started);

        // Phase 4: projection.
        let phase_started = elapsed_nanos(origin);
        let var = plan.projection.var();
        let mut result_regions = candidates.swap_remove(var);
        let mut values: Vec<Value> = Vec::new();
        match &plan.projection {
            ProjPlan::Objects { .. } => {
                // Build: the results parse whole into a database of their
                // own, which replaces the check pass's. The result's
                // regions are read off the objects built, as phase 3 reads
                // its survivors; DESIGN.md §20 says why that matters to the
                // next query. Each object then moves out of the database:
                // a result holds one copy of its objects, not two.
                let sym = self.view_symbol(&plan.vars[var].symbol)?;
                let mut built = Database::new();
                let all = PathFilter::all();
                let mut sink = ValueSink::new(grammar, text, &mut built, &all);
                objects[var] =
                    parse_regions(&parser, sym, &result_regions, &mut sink, |_, _| true)?;
                result_regions = regions_of(&objects[var]);
                for (_, v) in std::mem::take(&mut objects[var]) {
                    values.push(deref_top(&mut built, v));
                }
                db = built;
            }
            ProjPlan::IndexValues { chain, .. } => {
                // Only items inside a result are projected, so the chain
                // may start from those alone (`eval_within`).
                let deep = engine.eval_within(chain, &result_regions)?;
                for (_, item) in group_by_container(&result_regions, &deep) {
                    stats.content_bytes += u64::from(item.len());
                    let text = self.corpus.shared_text();
                    values.push(Value::Str(Atom::shared(text, item.start, item.end)));
                }
            }
            ProjPlan::ParsedValues { steps, .. } => {
                for v in result_regions.iter().filter_map(|r| value_at(&objects[var], r)) {
                    values.extend(
                        path_values(&db, v, steps, &mut PathCost::default()).into_iter().cloned(),
                    );
                }
            }
        }
        if !matches!(plan.projection, ProjPlan::Objects { .. }) {
            values.sort();
            values.dedup();
        }
        stats.eval.absorb(&engine.stats());
        stats.parse = parser.stats();
        stats.db = db.stats();
        stats.results = result_regions.len();
        let result =
            QueryResult { regions: result_regions, values, db, explain: plan.describe(), stats };
        // The run's scratch state goes inside the last phase, so the
        // phases account for the whole execution.
        drop(objects);
        drop(engine);
        end_phase("projection", phase_started);
        tr.ops = sink.take();
        Ok(result)
    }
}

/// Monotonic elapsed time in nanoseconds, saturating at `u64::MAX`.
fn elapsed_nanos(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renumbers a span forest pre-order, continuing from `next` — used to
/// replace the per-sink span ids with ids unique across a whole query.
fn renumber_spans(ops: &mut [OpTrace], next: &mut u64) {
    for op in ops {
        op.span_id = *next;
        *next += 1;
        renumber_spans(&mut op.children, next);
    }
}

/// Parses the candidate `region` of `sym` into `sink` and returns its
/// value. Candidates are regions of `sym`, which the index build
/// recognized: the parse may stop at the last field the sink keeps.
fn parse_candidate(
    parser: &Parser<'_>,
    sym: SymbolId,
    region: &Region,
    sink: &mut ValueSink<'_, '_>,
) -> Result<Value, QueryError> {
    parser.parse_indexed(sym, region.span(), sink).map_err(QueryError::CandidateParse)?;
    sink.take().ok_or_else(|| QueryError::Internal("a candidate parse built no value".to_owned()))
}

/// Parses each of `regions`, candidates of `sym`, into `sink`, and keeps
/// those that `keep` accepts, with their values, in region order. A
/// rejected candidate is rolled back: it leaves no object behind.
fn parse_regions(
    parser: &Parser<'_>,
    sym: SymbolId,
    regions: &RegionSet,
    sink: &mut ValueSink<'_, '_>,
    mut keep: impl FnMut(&Database, &Value) -> bool,
) -> Result<Vec<(Region, Value)>, QueryError> {
    let mut kept = Vec::new();
    for region in regions {
        let mark = sink.mark();
        let value = parse_candidate(parser, sym, region, sink)?;
        if keep(sink.db(), &value) {
            kept.push((*region, value));
        } else {
            sink.rollback(mark);
        }
    }
    Ok(kept)
}

/// The regions of a variable's parsed candidates.
fn regions_of(objects: &[(Region, Value)]) -> RegionSet {
    RegionSet::from_sorted(objects.iter().map(|(r, _)| *r).collect())
}

/// The value of `region` among a variable's survivors (in region order).
fn value_at<'v>(objects: &'v [(Region, Value)], region: &Region) -> Option<&'v Value> {
    objects.binary_search_by(|(r, _)| r.cmp(region)).ok().map(|i| &objects[i].1)
}

/// Dereferences a top-level object reference, moving the object's value
/// out of the database (see [`Database::take`]).
fn deref_top(db: &mut Database, v: Value) -> Value {
    match v {
        Value::Ref(oid) => db.take(oid).unwrap_or(v),
        other => other,
    }
}

/// A join side's candidates, each once per key it holds.
type Keyed<K> = Vec<(Region, K)>;

/// Each checked candidate with every value `spec` reaches from it.
fn reached_keys<'v>(
    db: &'v Database,
    objects: &'v [(Region, Value)],
    spec: &PathSpec,
) -> Keyed<&'v Value> {
    let reached = |(r, v): &'v (Region, Value)| {
        path_values(db, v, spec, &mut PathCost::default()).into_iter().map(move |k| (*r, k))
    };
    objects.iter().flat_map(reached).collect()
}

/// The keyed candidates that are among `kept`.
fn keys_within<K: Copy>(keys: &[(Region, K)], kept: &RegionSet) -> Keyed<K> {
    keys.iter().filter(|(r, _)| kept.contains(r)).copied().collect()
}

/// A two-variable join as one semi-join per side: the candidates of each
/// side that hold a key some candidate of the other side holds. Joining
/// both sides against the other's unnarrowed keys reaches the fixpoint at
/// once, since a key two candidates share keeps both.
fn semi_join<K: std::hash::Hash + Eq>(
    left: &[(Region, K)],
    right: &[(Region, K)],
) -> [RegionSet; 2] {
    let keep = |side: &[(Region, K)], other: &[(Region, K)]| {
        let keys: HashSet<&K> = other.iter().map(|(_, k)| k).collect();
        let kept = side.iter().filter(|(_, k)| keys.contains(k)).map(|(r, _)| *r).collect();
        RegionSet::from_regions(kept)
    };
    [keep(left, right), keep(right, left)]
}

/// The views whose located regions pass a content compare's `test`
/// (DESIGN.md §21). `right` is `None` when both sides are one expression,
/// whose regions then stand on both sides. Each region is keyed by the
/// view holding it; for the text test a view's regions are sorted by text,
/// so that equal texts lie side by side. An empty region may pair with
/// itself, since two empty atoms can share it.
fn compare_views(
    corpus: &Corpus,
    view: &RegionSet,
    left: &RegionSet,
    right: Option<&RegionSet>,
    test: CompareTest,
    content_bytes: &mut u64,
) -> RegionSet {
    let bytes = corpus.text().as_bytes();
    let text = |r: &Region| &bytes[r.start as usize..r.end as usize];
    // (view, located region, sides it stands on: 1 left, 2 right)
    let mut keyed = Vec::with_capacity(left.len() + right.map_or(0, RegionSet::len));
    let sides = [(left, if right.is_some() { 1 } else { 3 })].into_iter();
    for (set, side) in sides.chain(right.map(|r| (r, 2))) {
        for_each_in_container(view, set, |ci, item| keyed.push((view.as_slice()[ci], item, side)));
    }
    // Items come in region order, so the views interleave only where they
    // nest; then a stable sort groups each view's regions.
    if !keyed.is_sorted_by_key(|e| e.0) {
        keyed.sort_by_key(|e| e.0);
    }
    let both = |run: &[(Region, Region, u8)]| run.iter().fold(0, |acc, e| acc | e.2) == 3;
    let mut hits = Vec::new();
    for in_view in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
        let CompareTest::Text { distinct } = test else {
            if both(in_view) {
                hits.push(in_view[0].0);
            }
            continue;
        };
        *content_bytes += in_view.iter().map(|e| u64::from(e.1.len())).sum::<u64>();
        in_view.sort_unstable_by(|a, b| text(&a.1).cmp(text(&b.1)));
        if in_view.chunk_by(|a, b| text(&a.1) == text(&b.1)).any(|run| {
            let first = run[0].1;
            both(run) && (!distinct || first.is_empty() || run.iter().any(|e| e.1 != first))
        }) {
            hits.push(in_view[0].0);
        }
    }
    RegionSet::from_sorted(hits)
}

/// Pairs `(container index, item)` for every item lying inside a container.
/// Containers may nest (self-nested views); an item maps to each container
/// that includes it.
fn group_by_container(containers: &RegionSet, items: &RegionSet) -> Vec<(usize, Region)> {
    let mut out = Vec::new();
    for_each_in_container(containers, items, |c, item| out.push((c, item)));
    out
}

/// Calls `f(container index, item)` for every item lying inside a
/// container, in item order: one sweep with a stack of open containers.
fn for_each_in_container(
    containers: &RegionSet,
    items: &RegionSet,
    mut f: impl FnMut(usize, Region),
) {
    let cs = containers.as_slice();
    let mut stack: Vec<usize> = Vec::new();
    let mut ci = 0usize;
    for item in items {
        while ci < cs.len() && cs[ci] <= *item {
            while let Some(&top) = stack.last() {
                if cs[top].end <= cs[ci].start {
                    stack.pop();
                } else {
                    break;
                }
            }
            stack.push(ci);
            ci += 1;
        }
        while let Some(&top) = stack.last() {
            if cs[top].end <= item.start {
                stack.pop();
            } else {
                break;
            }
        }
        for &c in &stack {
            if cs[c].includes(item) {
                f(c, *item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn rs(pairs: &[(u32, u32)]) -> RegionSet {
        RegionSet::from_regions(pairs.iter().map(|&(a, b)| Region::new(a, b)).collect())
    }

    #[test]
    fn group_by_container_disjoint() {
        let containers = rs(&[(0, 10), (20, 30), (40, 50)]);
        let items = rs(&[(2, 4), (22, 24), (26, 28), (60, 62)]);
        let got = group_by_container(&containers, &items);
        assert_eq!(
            got,
            vec![(0, Region::new(2, 4)), (1, Region::new(22, 24)), (1, Region::new(26, 28))]
        );
    }

    #[test]
    fn group_by_container_nested_containers() {
        // Self-nested views: an item belongs to every enclosing container.
        let containers = rs(&[(0, 100), (10, 50)]);
        let items = rs(&[(20, 25), (60, 65)]);
        let got = group_by_container(&containers, &items);
        let outer = containers.as_slice().iter().position(|r| *r == Region::new(0, 100)).unwrap();
        let inner = containers.as_slice().iter().position(|r| *r == Region::new(10, 50)).unwrap();
        assert!(got.contains(&(outer, Region::new(20, 25))));
        assert!(got.contains(&(inner, Region::new(20, 25))));
        assert!(got.contains(&(outer, Region::new(60, 65))));
        assert!(!got.contains(&(inner, Region::new(60, 65))));
    }

    #[test]
    fn group_by_container_boundary() {
        let containers = rs(&[(0, 10)]);
        // Touching the end is included; crossing is not.
        let items = rs(&[(5, 10), (8, 12)]);
        let got = group_by_container(&containers, &items);
        assert_eq!(got, vec![(0, Region::new(5, 10))]);
    }

    #[test]
    fn a_region_pairs_with_itself_only_when_the_paths_may_meet() {
        // Two views: the first holds "xx" once, the second twice.
        let corpus = Corpus::from_text("[xx yy] [xx xx]");
        let view = rs(&[(0, 7), (8, 15)]);
        let names = rs(&[(1, 3), (4, 6), (9, 11), (12, 14)]);
        let pass = |left: &RegionSet, right: Option<&RegionSet>, test: CompareTest| {
            let mut bytes = 0;
            (compare_views(&corpus, &view, left, right, test, &mut bytes), bytes)
        };
        let (text, distinct) =
            (CompareTest::Text { distinct: false }, CompareTest::Text { distinct: true });
        // Paths that reach different atoms need two regions of one text:
        // the first view's only equal pair is "xx" with itself. Shared
        // sides read each region once.
        let second = rs(&[(8, 15)]);
        assert_eq!(pass(&names, None, distinct), (second.clone(), 8));
        assert_eq!(pass(&names, Some(&names), distinct), (second.clone(), 16));
        // Identical paths may meet in one atom: every view with a region.
        assert_eq!(pass(&names, None, text).0, view);
        assert_eq!(pass(&names, Some(&names), text).0, view);
        // One region per side: "xx" pairs in the second view only, where
        // the two sides locate different regions.
        let (left, right) = (rs(&[(1, 3), (9, 11)]), rs(&[(1, 3), (12, 14)]));
        assert_eq!(pass(&left, Some(&right), distinct).0, second);
        // Inclusion keeps every view that locates a region on each side,
        // and reads no text.
        assert_eq!(pass(&left, Some(&right), CompareTest::Inclusion), (view.clone(), 0));
        // Two empty atoms can share a region, so an empty one pairs with
        // itself even for disjoint paths.
        assert_eq!(pass(&rs(&[(2, 2)]), None, distinct).0, rs(&[(0, 7)]));
    }

    #[test]
    fn deref_top_resolves_refs() {
        let mut db = Database::new();
        let oid = db.new_object("C", Value::str("payload"));
        assert_eq!(deref_top(&mut db, Value::Ref(oid)).as_str(), Some("payload"));
        assert_eq!(deref_top(&mut db, Value::str("plain")).as_str(), Some("plain"));
        // The object's value moved out; a dangling reference stays as is.
        assert_eq!(db.deref(oid), Some(&Value::tuple::<String, _>([])));
        let dangling = Value::Ref(qof_db::Oid(9));
        assert_eq!(deref_top(&mut db, dangling.clone()), dangling);
    }

    #[test]
    fn runstats_bytes_touched_sums() {
        let mut s = RunStats::default();
        s.parse.bytes_scanned = 10;
        s.content_bytes = 5;
        assert_eq!(s.bytes_touched(), 15);
    }

    // -- integration tests over generated multi-file corpora ---------------

    use qof_corpus::bibtex::{self, BibtexConfig};
    use qof_grammar::IndexSpec;
    use qof_pat::{RegionExpr, UniverseForest};

    /// A corpus of `files` bibtex files with distinct seeds.
    fn multi_file_corpus(files: usize, refs_per_file: usize) -> Corpus {
        let mut b = qof_text::CorpusBuilder::new();
        for i in 0..files {
            let cfg = BibtexConfig {
                n_refs: refs_per_file,
                seed: 1000 + i as u64,
                name_pool: 8,
                ..Default::default()
            };
            let (text, _) = bibtex::generate(&cfg);
            b.add_file(format!("f{i}.bib"), &text);
        }
        b.build()
    }

    const QUERIES: &[&str] = &[
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\"",
        "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"Chang\" \
         AND r.Year = \"1982\"",
        "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \"Chang\" \
         OR r.Authors.Name.Last_Name = \"Tompa\"",
    ];

    fn assert_same_results(a: &QueryResult, b: &QueryResult, q: &str) {
        assert_eq!(a.regions, b.regions, "regions differ for {q}");
        assert_eq!(a.values, b.values, "values differ for {q}");
        assert_eq!(a.stats.exact_index, b.stats.exact_index, "exactness differs for {q}");
    }

    /// The test a same-variable compare runs, from the plan: text where
    /// both chains end on the atoms' own regions along fixed paths,
    /// inclusion where a chain ends above the atom or a path has a
    /// variable step and the index is inexact.
    #[test]
    fn a_compare_pairs_by_text_only_where_the_chains_reach_the_atoms() {
        let corpus = multi_file_corpus(1, 30);
        let editor_author = "r.Editors.Name.Last_Name = r.Authors.Name.Last_Name";
        let cases: &[(&[&str], &str, CompareTest, bool)] = &[
            (&[], editor_author, CompareTest::Text { distinct: true }, true),
            (
                &["Reference", "Last_Name"],
                editor_author,
                CompareTest::Text { distinct: true },
                false,
            ),
            (
                &["Reference", "Last_Name"],
                "r.Authors.Name.Last_Name = r.Authors.Name.Last_Name",
                CompareTest::Text { distinct: false },
                false,
            ),
            (
                &["Reference", "Last_Name"],
                "r.Authors.Name.First_Name = r.Authors.Name.Last_Name",
                CompareTest::Inclusion,
                false,
            ),
            (&["Reference", "Name"], editor_author, CompareTest::Inclusion, false),
            (
                &["Reference", "Last_Name"],
                "r.*X.Last_Name = r.Authors.Name.Last_Name",
                CompareTest::Inclusion,
                false,
            ),
            (
                &[],
                "r.*X.Last_Name = r.Authors.Name.Last_Name",
                CompareTest::Text { distinct: false },
                true,
            ),
        ];
        for &(names, cond, want, want_exact) in cases {
            let spec = if names.is_empty() {
                IndexSpec::full()
            } else {
                IndexSpec::names(names.iter().copied())
            };
            let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec).unwrap();
            let q = format!("SELECT r FROM References r WHERE {cond}");
            let plan = db.plan(&q).unwrap();
            let Some(CondNode::ContentCompare { test, exact, .. }) = &plan.vars[0].cond else {
                panic!("{q} on {names:?}: {:?}", plan.vars[0].cond);
            };
            assert_eq!((*test, *exact), (want, want_exact), "{q} on {names:?}");
            let named = match want {
                CompareTest::Text { distinct: false } => "text",
                CompareTest::Text { distinct: true } => "text of distinct regions",
                CompareTest::Inclusion => "inclusion",
            };
            let exactness = if want_exact { "exact" } else { "candidates" };
            assert!(plan.describe().contains(&format!(", paired by {named} [{exactness}]")));
            // Whatever the test, the answer is the full index's.
            let full = FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full());
            assert_eq!(db.query(&q).unwrap().values, full.unwrap().query(&q).unwrap().values);
        }
    }

    /// A `SELECT r` whose candidates the index only approximates: the
    /// check pass parses them as far as the residual reads and rolls back
    /// those it rejects; the build pass parses the results whole.
    #[test]
    fn check_then_build_keeps_the_objects_of_results_only() {
        let corpus = multi_file_corpus(2, 40);
        let q = "SELECT r FROM References r WHERE r.Editors.Name.Last_Name = \
                 r.Authors.Name.Last_Name";
        let spec = IndexSpec::names(["Reference", "Last_Name"]);
        let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec).unwrap();
        let plan = db.plan(q).unwrap();
        assert!(plan.vars[0].residual.is_some(), "the partial index only approximates {q}");
        let filter = plan.vars[0].parse.as_ref().expect("inexact candidates are checked");
        let res = db.query(q).unwrap();
        let (candidates, _, _) = db.query_regions(q).unwrap();
        assert!(!res.regions.is_empty(), "{q} has answers");
        assert!(res.regions.len() < candidates.len(), "the residual rejects some candidates");

        // The result's database holds the objects of the results and
        // nothing else, and `RunStats::db` counts it: as many value nodes
        // as an exact plan builds for the same answer.
        let full = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let exact = full.query(q).unwrap();
        assert_eq!((&res.regions, &res.values), (&exact.regions, &exact.values));
        assert_eq!(res.db.object_count(), res.regions.len());
        assert_eq!(res.db.extent("Reference").len(), res.regions.len());
        assert_eq!(res.stats.db, res.db.stats());
        assert_eq!(res.stats.db, exact.stats.db);

        // `RunStats::parse` counts both passes: every candidate as far as
        // the check filter reads, then every result whole.
        let grammar = &db.schema().grammar;
        let sym = grammar.symbol("Reference").unwrap();
        let parser = Parser::new(grammar, db.corpus().text());
        let mut scratch = Database::new();
        let text = AtomText::Shared(db.corpus().shared_text());
        let mut sink = ValueSink::new(grammar, text, &mut scratch, filter);
        for region in &candidates {
            parse_candidate(&parser, sym, region, &mut sink).unwrap();
        }
        let checked = parser.stats().bytes_scanned;
        let whole: u64 = res.regions.iter().map(|r| u64::from(r.len())).sum();
        assert!(checked < candidates.iter().map(|r| u64::from(r.len())).sum::<u64>());
        assert_eq!(res.stats.parse.bytes_scanned, checked + whole);

        // A `SELECT r.p` keeps its one pass, whose database is the
        // result's: the candidates the residual rejects were rolled back.
        let keys = db.query(&q.replacen("SELECT r ", "SELECT r.Key ", 1)).unwrap();
        assert_eq!(keys.regions, res.regions);
        assert_eq!(keys.db.object_count(), res.regions.len());
        assert_eq!(keys.stats.db, keys.db.stats());
        assert_eq!(keys.stats.parse.bytes_scanned, checked);
    }

    /// An inexact two-variable join parses each candidate once, in the
    /// check pass, and semi-joins the checked values; only its results
    /// are parsed again, whole.
    #[test]
    fn an_inexact_join_parses_each_candidate_once() {
        let corpus = multi_file_corpus(1, 200);
        let q = "SELECT r FROM References r, References s \
                 WHERE r.Authors.Name.Last_Name = s.Editors.Name.Last_Name";
        let spec = IndexSpec::names(["Reference", "Last_Name"]);
        let db = FileDatabase::build(corpus.clone(), bibtex::schema(), spec).unwrap();
        let plan = db.plan(q).unwrap();
        assert!(plan.join.as_ref().is_some_and(|j| j.residual.is_some()), "{q} is inexact");
        let res = db.query(q).unwrap();
        assert_eq!(res.stats.content_bytes, 0, "no text is read outside the parse");
        // Neither side has a condition: both enter the check pass whole.
        let view = db.instance().get("Reference").unwrap();
        assert_eq!(res.stats.candidates, 2 * view.len());
        let bytes = |set: &RegionSet| set.iter().map(|r| u64::from(r.len())).sum::<u64>();
        assert!(res.stats.parse.bytes_scanned <= 2 * bytes(view) + bytes(&res.regions));
        let full = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let exact = full.query(q).unwrap();
        assert!(!exact.regions.is_empty());
        assert_eq!((&res.regions, &res.values), (&exact.regions, &exact.values));
    }

    #[test]
    fn traced_query_matches_untraced_and_fills_the_trace() {
        let corpus = multi_file_corpus(3, 20);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let q = QUERIES[0];
        let plain = db.query(q).unwrap();
        let (traced, trace) = db.query_traced(q).unwrap();
        assert_same_results(&plain, &traced, q);
        assert_eq!(trace.query, q);
        assert_eq!(trace.plan, plain.explain);
        assert_eq!(trace.results, plain.regions.len());
        assert_eq!(trace.candidates, plain.stats.candidates);
        let names: Vec<&str> = trace.phases.iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            ["parse", "plan", "index-candidates", "content-join", "parse-filter", "projection"]
        );
        assert!(trace.op_node_count() > 0, "the engine must record operator nodes");
        assert!(
            trace.rewrites.iter().any(|r| r.proposition == "3.5(b)"),
            "chain shortening must be recorded for {q}: {:?}",
            trace.rewrites
        );
        assert!(trace.total_nanos > 0);
        // The JSON surface carries the real thing, not just fixtures.
        use qof_pat::json::{get_arr, get_str, get_u64, Json};
        let doc = Json::parse(&trace.to_json()).unwrap();
        let obj = doc.as_obj().unwrap();
        assert_eq!(get_str(obj, "plan").unwrap(), trace.plan);
        assert_eq!(get_arr(obj, "phases").unwrap().len(), names.len());
        assert_eq!(get_arr(obj, "ops").unwrap().len(), trace.ops.len());
        assert_eq!(get_u64(obj, "results").unwrap(), trace.results as u64);
    }

    #[test]
    fn traced_query_feeds_injected_metrics() {
        let corpus = multi_file_corpus(2, 10);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let metrics = db.metrics();
        let (_, trace) = db.query_traced(QUERIES[1]).unwrap();
        let (_, trace2) = db.query_traced(QUERIES[1]).unwrap();
        // The database's own registry sees exactly its work.
        let after = metrics.snapshot();
        assert_eq!(after.queries, 2);
        assert_eq!(after.query_errors, 0);
        assert_eq!(after.plan_cache_misses, trace.plan_cache_misses + trace2.plan_cache_misses);
        assert_eq!(after.plan_cache_hits, trace.plan_cache_hits + trace2.plan_cache_hits);
        assert_eq!(after.query_latency.count(), 2);
        assert!(!after.op_latency.is_empty());
        // Query IDs come from the database's own sequence.
        assert_eq!(trace.id, 1);
        assert_eq!(trace2.id, 2);
        // A failing query still counts, as an error.
        assert!(db.query_traced("SELEC nope").is_err());
        let errs = metrics.snapshot();
        assert_eq!(errs.queries, 3);
        assert_eq!(errs.query_errors, 1);
    }

    #[test]
    fn library_query_is_accounted_exactly_once() {
        // `query` runs the accounted path: one success advances the query
        // counter, every phase histogram, the plan-cache counters and the
        // workload table once each; a failure advances the error counter
        // and nothing else.
        let corpus = multi_file_corpus(2, 10);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let metrics = db.metrics();
        db.query(QUERIES[0]).unwrap();
        let snap = metrics.snapshot();
        assert_eq!((snap.queries, snap.query_errors), (1, 0));
        assert_eq!(snap.query_latency.count(), 1);
        type Counts = std::collections::BTreeMap<String, u64>;
        let phase_counts = |snap: &qof_pat::MetricsSnapshot| -> Counts {
            snap.phase_latency.iter().map(|(name, h)| (name.clone(), h.count())).collect()
        };
        let want: Counts =
            ["parse", "plan", "index-candidates", "content-join", "parse-filter", "projection"]
                .into_iter()
                .map(|name| (name.to_owned(), 1))
                .collect();
        assert_eq!(phase_counts(&snap), want, "each phase counted once");
        let pc = db.plan_cache_stats();
        assert_eq!((snap.plan_cache_hits, snap.plan_cache_misses), (pc.hits, pc.misses));
        assert_eq!((pc.hits, pc.misses), (0, 1), "one chain, one miss");
        assert_eq!(db.workload().total_hits(), 1);
        let entries = db.workload().snapshot();
        assert_eq!(entries.len(), 1);
        assert_eq!((entries[0].hits, entries[0].plan_cache_misses), (1, 1));

        assert!(db.query("SELEC nope").is_err());
        let snap = metrics.snapshot();
        assert_eq!((snap.queries, snap.query_errors), (2, 1));
        assert_eq!((snap.plan_cache_hits, snap.plan_cache_misses), (0, 1));
        assert_eq!(phase_counts(&snap), want, "a failure advances no phase");
        assert_eq!(db.workload().total_hits(), 1, "failures are not folded");
        assert_eq!(db.workload().snapshot(), entries, "a failure changes no entry");
    }

    #[test]
    fn assembled_traces_satisfy_span_invariants() {
        // Children nest in parents, siblings are sequential, span ids are a
        // pre-order renumbering, phases tile the window, spans fit in
        // total_nanos.
        fn check_nesting(ops: &[OpTrace]) {
            for op in ops {
                let end = op.start_nanos + op.nanos;
                for child in &op.children {
                    assert!(child.start_nanos >= op.start_nanos, "child precedes parent");
                    assert!(child.start_nanos + child.nanos <= end, "child escapes parent");
                }
                for pair in op.children.windows(2) {
                    assert!(
                        pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos,
                        "sibling spans overlap"
                    );
                }
                check_nesting(&op.children);
            }
        }
        fn collect_ids(ops: &[OpTrace], out: &mut Vec<u64>) {
            for op in ops {
                out.push(op.span_id);
                collect_ids(&op.children, out);
            }
        }
        fn check(trace: &QueryTrace) {
            check_nesting(&trace.ops);
            let mut ids = Vec::new();
            collect_ids(&trace.ops, &mut ids);
            let expect: Vec<u64> = (1..=ids.len() as u64).collect();
            assert_eq!(ids, expect, "span ids are a pre-order renumbering");
            for pair in trace.phases.windows(2) {
                assert!(pair[0].start_nanos + pair[0].nanos <= pair[1].start_nanos);
            }
            let phase_sum: u64 = trace.phases.iter().map(|p| p.nanos).sum();
            assert!(phase_sum <= trace.total_nanos, "phase sum exceeds total");
            fn max_end(ops: &[OpTrace]) -> u64 {
                ops.iter()
                    .map(|op| (op.start_nanos + op.nanos).max(max_end(&op.children)))
                    .max()
                    .unwrap_or(0)
            }
            assert!(max_end(&trace.ops) <= trace.total_nanos, "span end exceeds total");
        }
        let corpus = multi_file_corpus(4, 10);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        // Each query twice: the second run takes the plan-cache hit path.
        for q in QUERIES.iter().chain(QUERIES) {
            let (_, trace) = db.query_traced(q).unwrap();
            assert!(!trace.ops.is_empty(), "the engine traces its operators");
            check(&trace);
        }
    }

    #[test]
    fn plan_cache_hit_records_each_counter_exactly_once() {
        // Audit pin: the plan-cache-hit path shares most of the miss path's
        // bookkeeping, so any counter recorded on both branches would show
        // up here as a doubled value.
        fn computed_ops(ops: &[OpTrace], n: &mut u64) {
            for op in ops {
                if op.source == qof_pat::CacheSource::Computed {
                    *n += 1;
                }
                computed_ops(&op.children, n);
            }
        }
        let corpus = multi_file_corpus(2, 10);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let metrics = db.metrics();
        let (_, miss) = db.query_traced(QUERIES[0]).unwrap();
        let (_, hit) = db.query_traced(QUERIES[0]).unwrap();
        assert_eq!((miss.plan_cache_misses, miss.plan_cache_hits), (1, 0));
        assert_eq!((hit.plan_cache_misses, hit.plan_cache_hits), (0, 1));
        let snap = metrics.snapshot();
        assert_eq!(snap.queries, 2);
        assert_eq!(snap.query_errors, 0);
        assert_eq!(snap.query_latency.count(), 2);
        assert_eq!(snap.plan_cache_misses, 1, "exactly one miss recorded");
        assert_eq!(snap.plan_cache_hits, 1, "exactly one hit recorded");
        let mut expect = 0;
        for t in [&miss, &hit] {
            computed_ops(&t.ops, &mut expect);
        }
        let recorded: u64 = snap.op_latency.values().map(qof_pat::Histogram::count).sum();
        assert_eq!(recorded, expect, "one op_latency sample per computed operator");
    }

    // -- plan cache ------------------------------------------------------------

    #[test]
    fn concurrent_queries_count_only_their_own_plan_cache_lookups() {
        // Four threads plan at once: a barrier starts every round of
        // queries together. Each trace counts the lookups its own planning
        // made, so the traces sum to the cache's counters, and the metrics
        // registry, which sums the traces, agrees.
        const THREADS: usize = 4;
        const ROUNDS: usize = 200;
        let db = FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), IndexSpec::full())
            .unwrap();
        let before = db.plan_cache_stats();
        let barrier = std::sync::Barrier::new(THREADS);
        let counted: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (db, barrier) = (&db, &barrier);
                    scope.spawn(move || {
                        let (mut hits, mut misses) = (0, 0);
                        for i in 0..ROUNDS {
                            // 300 distinct names: some lookups hit, some miss.
                            let q = format!(
                                "SELECT r.Key FROM References r \
                                 WHERE r.Authors.Name.Last_Name = \"Chang{}\"",
                                (t * ROUNDS + i) % 300
                            );
                            barrier.wait();
                            let (_, trace) = db.query_traced(&q).unwrap();
                            hits += trace.plan_cache_hits;
                            misses += trace.plan_cache_misses;
                        }
                        (hits, misses)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let (hits, misses) = counted.iter().fold((0, 0), |(h, m), &(a, b)| (h + a, m + b));
        let after = db.plan_cache_stats();
        let delta = (after.hits - before.hits, after.misses - before.misses);
        // A selection chain and a projection chain per query.
        assert_eq!(hits + misses, 2 * (THREADS * ROUNDS) as u64);
        assert_eq!((hits, misses), delta, "summed trace counts against the cache's own");
        let snap = db.metrics().snapshot();
        assert_eq!((snap.plan_cache_hits, snap.plan_cache_misses), delta);
    }

    #[test]
    fn plan_cache_hit_is_byte_identical_to_a_fresh_optimize() {
        let corpus = multi_file_corpus(3, 20);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let q = QUERIES[1];
        let (r1, t1) = db.query_traced(q).unwrap();
        assert!(t1.plan_cache_misses > 0, "first run must miss the plan cache");
        assert_eq!(t1.plan_cache_hits, 0);
        let (r2, t2) = db.query_traced(q).unwrap();
        assert!(t2.plan_cache_hits > 0, "second run must hit the plan cache");
        assert_eq!(t2.plan_cache_misses, 0);
        // The cached lowering reproduces the fresh one byte for byte:
        // same plan text, same recorded rewrites, same results.
        assert_eq!(t1.plan, t2.plan);
        assert_eq!(t1.rewrites, t2.rewrites);
        assert_eq!(t1.facts, t2.facts);
        assert_same_results(&r1, &r2, q);
        let pc = db.plan_cache_stats();
        assert_eq!(pc.hits, t2.plan_cache_hits);
        assert_eq!(pc.misses, t1.plan_cache_misses);
        assert!(pc.entries > 0);
    }

    #[test]
    fn facts_and_plans_depend_on_the_query_and_rig_only() {
        // Two databases over one schema and index spec that differ only in
        // corpus: `Key000030` occurs in the larger one alone.
        let db = |n| {
            let (text, _) = bibtex::generate(&BibtexConfig::with_refs(n));
            FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), IndexSpec::full())
                .unwrap()
        };
        let (small, large) = (db(8), db(40));
        assert_eq!(small.word_index().frequency("Key000030"), 0);
        assert!(large.word_index().frequency("Key000030") > 0);
        let absent = "SELECT r FROM References r WHERE r.Key = \"Key000030\"";
        for q in QUERIES.iter().chain([&absent]) {
            let (_, ts) = small.query_traced(q).unwrap();
            let (_, tl) = large.query_traced(q).unwrap();
            assert!(!ts.facts.is_empty(), "{q}");
            assert_eq!(ts.facts, tl.facts, "{q}");
            assert_eq!(ts.plan, tl.plan, "{q}");
        }
    }

    /// Runs `queries` on `db`, grows it by `extra` with `add_file`, and
    /// checks that every query then plans from the cache — no miss, no
    /// route search — into the plan, rewrites and answers of a fresh
    /// build of the grown corpus.
    fn cached_plans_survive_add_file(
        mut db: FileDatabase,
        extra: &str,
        queries: &[String],
        spec: &IndexSpec,
    ) {
        for q in queries {
            db.query(q).unwrap();
        }
        let entries = db.plan_cache_stats().entries;
        assert!(entries > 0, "`query` populates the plan cache");
        db.add_file("extra", extra).unwrap();
        assert_eq!(db.plan_cache_stats().entries, entries, "add_file keeps every lowering");
        let fresh =
            FileDatabase::build(db.corpus().clone(), db.schema().clone(), spec.clone()).unwrap();
        let searches = || crate::plan::ROUTE_SEARCHES.with(std::cell::Cell::get);
        for q in queries {
            let before = searches();
            let (got, trace) = db.query_traced(q).unwrap();
            assert_eq!(searches(), before, "{q}: a route verdict was searched again");
            assert!(trace.plan_cache_hits > 0, "{q}: no hit after add_file");
            assert_eq!(trace.plan_cache_misses, 0, "{q}");
            let (want, fresh_trace) = fresh.query_traced(q).unwrap();
            assert_eq!(trace.plan, fresh_trace.plan, "{q}");
            assert_eq!(trace.rewrites, fresh_trace.rewrites, "{q}");
            assert_same_results(&got, &want, q);
        }
    }

    #[test]
    fn a_plan_cached_before_add_file_is_a_hit_after_it() {
        let cfg = BibtexConfig { n_refs: 20, name_pool: 8, ..Default::default() };
        let (text, _) = bibtex::generate(&cfg);
        let (extra, _) = bibtex::generate(&BibtexConfig { n_refs: 10, seed: 9, ..cfg });
        let queries: Vec<String> = QUERIES.iter().map(ToString::to_string).collect();
        let partial = IndexSpec::names(["Reference", "Key", "Authors", "Last_Name"]);
        for spec in [IndexSpec::full(), partial] {
            let db = FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec.clone())
                .unwrap();
            cached_plans_survive_add_file(db, &extra, &queries, &spec);
        }
        // sgml keeps `⊃d` and needs route verdicts.
        let (corpus, head) = sgml_corpus(1, 4);
        let (extra, _) = sgml_corpus(1, 3);
        let extra = extra.text().to_owned();
        let spec = IndexSpec::full();
        let db = FileDatabase::build(corpus, qof_corpus::sgml::schema(), spec.clone()).unwrap();
        let q = nested_head_query(&head);
        assert!(db.plan(&q).unwrap().describe().contains("⊃d"), "the sgml plan keeps ⊃d");
        cached_plans_survive_add_file(db, &extra, &[q], &spec);
    }

    /// A corpus of `files` SGML documents with self-nested sections, and
    /// the longest heading of a nested section in the first one: the
    /// constant of a query whose plan keeps `⊃d`.
    fn sgml_corpus(files: u64, top_sections: usize) -> (Corpus, String) {
        use qof_corpus::sgml;
        let mut b = qof_text::CorpusBuilder::new();
        let mut head = String::new();
        for seed in 0..files {
            let cfg = sgml::SgmlConfig {
                top_sections,
                max_depth: 4,
                subsections: (1, 3),
                paragraphs: (1, 2),
                para_words: 4,
                seed,
            };
            let (text, truth) = sgml::generate(&cfg);
            if seed == 0 {
                let nested = truth.sections.iter().filter(|s| s.depth > 0);
                head = nested.max_by_key(|s| s.head.len()).expect("a nested section").head.clone();
            }
            b.add_file(format!("d{seed}.sgml"), &text);
        }
        (b.build(), head)
    }

    fn nested_head_query(head: &str) -> String {
        format!("SELECT s FROM Sections s WHERE s.Subsections.Section.Head = \"{head}\"")
    }

    #[test]
    fn queries_share_one_forest_per_index() {
        let db = FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), IndexSpec::full())
            .unwrap();
        for q in QUERIES {
            db.query(q).unwrap();
        }
        assert!(!db.instance().has_forest(), "lookups without ⊃d built the forest");
        let (corpus, head) = sgml_corpus(2, 4);
        let db =
            FileDatabase::build(corpus, qof_corpus::sgml::schema(), IndexSpec::full()).unwrap();
        let q = nested_head_query(&head);
        assert!(!db.query(&q).unwrap().values.is_empty());
        assert!(db.instance().has_forest(), "⊃d fetches the forest");
        let first: *const UniverseForest = db.instance().forest();
        db.query(&q).unwrap();
        assert!(std::ptr::eq(first, db.instance().forest()), "the second query rebuilt the forest");
    }

    /// The index work of a selective `⊃d` chain follows its matches: eight
    /// times the sections, none of them matching, charge the same regions.
    #[test]
    fn selective_direct_inclusion_work_does_not_grow_with_the_corpus() {
        let run = |files| {
            let (corpus, head) = sgml_corpus(files, 12);
            let db =
                FileDatabase::build(corpus, qof_corpus::sgml::schema(), IndexSpec::full()).unwrap();
            let result = db.query(&nested_head_query(&head)).unwrap();
            (result, db.instance().get("Section").unwrap().len())
        };
        let ((a, sections_a), (b, sections_b)) = (run(1), run(8));
        assert!(sections_b >= 8 * sections_a * 3 / 4, "{sections_a} → {sections_b} sections");
        assert!(!a.values.is_empty());
        assert_eq!(a.values, b.values);
        assert!(a.stats.eval.ops("⊃d") > 0);
        let (ra, rb) = (a.stats.eval.regions_consumed, b.stats.eval.regions_consumed);
        assert_eq!(ra, rb, "regions consumed grew from {ra} to {rb} with the corpus");
    }

    #[test]
    fn add_file_indexes_as_a_fresh_build_and_a_malformed_file_changes_nothing() {
        let (text, _) =
            bibtex::generate(&BibtexConfig { n_refs: 10, seed: 77, ..Default::default() });
        let scoped = IndexSpec::names(["Reference", "Last_Name"]).with_scoped("Editors", "Name");
        for spec in [IndexSpec::full(), scoped] {
            let mut db =
                FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), spec.clone())
                    .unwrap();
            let (corpus, instance) = (db.corpus().clone(), db.instance().clone());
            let err = db.add_file("broken.bib", &text[..text.len() / 2]).unwrap_err();
            assert!(err.to_string().contains("broken.bib"));
            assert_eq!(db.corpus(), &corpus, "a rejected file leaves the corpus as it was");
            assert_eq!(db.instance(), &instance);
            // The clone above shared the text; once it is gone the text
            // grows in place.
            drop(corpus);
            let before = std::sync::Arc::as_ptr(db.corpus().shared_text());
            db.add_file("late.bib", &text).unwrap();
            assert_eq!(
                std::sync::Arc::as_ptr(db.corpus().shared_text()),
                before,
                "an unshared corpus copied"
            );
            let fresh = FileDatabase::build(db.corpus().clone(), bibtex::schema(), spec).unwrap();
            assert_eq!(db.instance(), fresh.instance());
        }
    }

    #[test]
    fn results_keep_the_text_they_were_built_from_across_add_file() {
        let mut db =
            FileDatabase::build(multi_file_corpus(1, 10), bibtex::schema(), IndexSpec::full())
                .unwrap();
        let held = db.query("SELECT r.Key FROM References r").unwrap();
        let keys: Vec<String> = held.values.iter().map(ToString::to_string).collect();
        let (text, _) =
            bibtex::generate(&BibtexConfig { n_refs: 5, seed: 3, ..Default::default() });
        db.add_file("late.bib", &text).unwrap();
        assert_eq!(held.values.iter().map(ToString::to_string).collect::<Vec<_>>(), keys);
        assert_eq!(db.query("SELECT r.Key FROM References r").unwrap().stats.results, 15);
    }

    #[test]
    fn add_file_extends_a_built_forest_to_the_fresh_build() {
        let (text, _) = bibtex::generate(&BibtexConfig {
            n_refs: 10,
            seed: 77,
            name_pool: 8,
            ..Default::default()
        });
        let partial = IndexSpec::names(["Reference", "Authors", "Name", "Last_Name"]);
        for spec in [IndexSpec::full(), partial] {
            let mut db =
                FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), spec).unwrap();
            // Build the forest before the write, so the write extends it.
            db.instance().forest();
            db.add_file("late.bib", &text).unwrap();
            assert!(db.instance().has_forest(), "add_file dropped the forest");
            let fresh = UniverseForest::build(&db.instance().universe());
            let cached = db.instance().forest();
            assert_eq!(cached.regions(), fresh.regions());
            assert_eq!(cached.is_properly_nested(), fresh.is_properly_nested());
            for i in 0..fresh.len() {
                assert_eq!(cached.parent_of(i), fresh.parent_of(i), "parent of region {i}");
            }
        }
    }

    #[test]
    fn a_rejected_add_file_leaves_a_built_forest_unchanged() {
        let mut db =
            FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), IndexSpec::full())
                .unwrap();
        let (text, _) = bibtex::generate(&BibtexConfig { n_refs: 10, ..Default::default() });
        let built: *const UniverseForest = db.instance().forest();
        let regions = db.instance().forest().regions().to_vec();
        db.add_file("broken.bib", &text[..text.len() / 2]).unwrap_err();
        assert!(std::ptr::eq(built, db.instance().forest()), "the forest was rebuilt");
        assert_eq!(db.instance().forest().regions(), regions);
    }

    #[test]
    fn direct_inclusion_after_add_file_matches_a_fresh_build() {
        let mut db =
            FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), IndexSpec::full())
                .unwrap();
        // A forest built before the write is extended by it.
        db.instance().forest();
        let (text, _) = bibtex::generate(&BibtexConfig {
            n_refs: 10,
            seed: 77,
            name_pool: 8,
            ..Default::default()
        });
        db.add_file("late.bib", &text).unwrap();
        let late_start = db.corpus().files().last().unwrap().span.start;
        // Every Authors region directly includes a Name; none directly
        // includes a Last_Name, since Name lies between. A forest missing
        // the new file's regions sees nothing between them there and
        // drops the new file's Authors from the difference.
        let expr =
            RegionExpr::name("Authors").direct_including(RegionExpr::name("Name")).difference(
                RegionExpr::name("Authors").direct_including(RegionExpr::name("Last_Name")),
            );
        let grown = Engine::new(db.corpus(), db.word_index(), db.instance()).eval(&expr).unwrap();
        assert!(grown.iter().any(|r| r.start >= late_start), "no answer from the new file");
        let fresh =
            FileDatabase::build(db.corpus().clone(), bibtex::schema(), IndexSpec::full()).unwrap();
        let want =
            Engine::new(fresh.corpus(), fresh.word_index(), fresh.instance()).eval(&expr).unwrap();
        assert_eq!(grown, want);
    }

    #[test]
    fn add_file_extends_scoped_word_index() {
        // Regression: `append_span` used to index every token of an
        // appended file even when the word index was built with a §7
        // scope, silently bloating the index past its contract.
        let cfg = BibtexConfig { n_refs: 40, name_pool: 8, ..Default::default() };
        let (text, _) = bibtex::generate(&cfg);
        let spec = IndexSpec::full().with_word_scope("Last_Name");
        let mut db =
            FileDatabase::build(Corpus::from_text(&text), bibtex::schema(), spec.clone()).unwrap();
        let before = db.word_index().postings();

        let cfg2 = BibtexConfig { n_refs: 40, seed: 77, name_pool: 8, ..Default::default() };
        let (text2, truth2) = bibtex::generate(&cfg2);
        db.add_file("extra.bib", &text2).unwrap();

        // Names from the new file are findable…
        let some_last = &truth2.refs[0].authors[0].1;
        let q =
            format!("SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"{some_last}\"");
        assert!(!db.query(&q).unwrap().regions.is_empty());

        // …but the index only grew by scoped occurrences: rebuild from
        // scratch and compare sizes.
        let mut both = qof_text::CorpusBuilder::new();
        both.add_file("base.bib", &text);
        both.add_file("extra.bib", &text2);
        let rebuilt = FileDatabase::build(both.build(), bibtex::schema(), spec).unwrap();
        let after = db.word_index().postings();
        assert_eq!(after, rebuilt.word_index().postings());
        assert!(after > before, "the scoped index must still grow");
    }

    #[test]
    fn build_honors_word_scope() {
        // The build indexes only the word occurrences inside the spec's
        // §7 scope regions, across every file of the corpus.
        let corpus = multi_file_corpus(4, 15);
        let spec = IndexSpec::full().with_word_scope("Last_Name");
        let scoped = FileDatabase::build(corpus.clone(), bibtex::schema(), spec).unwrap();
        let full = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        assert!(scoped.word_index().is_scoped());
        let spans = scoped.instance().get("Last_Name").unwrap().iter().map(Region::span).collect();
        let direct = qof_text::WordIndexBuilder::new().scoped_to(spans).build(scoped.corpus());
        assert_eq!(
            scoped.word_index().postings(),
            direct.postings(),
            "build must produce the scoped word index"
        );
        assert!(scoped.word_index().postings() < full.word_index().postings());
    }

    // -- .qofx persistence --------------------------------------------------

    /// A unique temp path per test (process id + name keeps parallel test
    /// binaries from colliding).
    fn temp_qofx(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("qof-test-{}-{name}.qofx", std::process::id()));
        p
    }

    #[test]
    fn persist_and_open_round_trips_every_query() {
        let corpus = multi_file_corpus(4, 25);
        let built = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let path = temp_qofx("roundtrip");
        let bytes = built.persist(&path).unwrap();
        assert_eq!(bytes, std::fs::metadata(&path).unwrap().len());
        // The container embeds the corpus text (that is what makes reopen
        // O(1)); the *index* part — everything beyond the text — should
        // not outweigh what it indexes.
        let overhead = bytes - u64::from(built.corpus().len());
        assert!(
            overhead < u64::from(built.corpus().len()),
            "index overhead ({overhead} B) larger than corpus ({} B)",
            built.corpus().len()
        );
        let opened = FileDatabase::open(&path, bibtex::schema()).unwrap();
        let metrics = opened.metrics();
        // The reopened word index is the built one: same resident bytes,
        // published as the one index gauge.
        assert_eq!(opened.index_bytes(), built.index_bytes());
        assert_eq!(metrics.snapshot().index_bytes, Some(opened.index_bytes()));
        assert_eq!(metrics.snapshot().corpus_bytes, u64::from(opened.corpus().len()));
        assert_eq!(opened.corpus().text(), built.corpus().text());
        assert_eq!(opened.instance(), built.instance());
        assert_eq!(opened.index_spec(), built.index_spec());
        assert_eq!(opened.word_index().postings(), built.word_index().postings());
        for q in QUERIES {
            let a = built.query(q).unwrap();
            let b = opened.query(q).unwrap();
            assert_same_results(&a, &b, q);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_and_open_preserves_scoped_word_index() {
        let corpus = multi_file_corpus(2, 12);
        let spec = IndexSpec::full().with_word_scope("Author");
        let built = FileDatabase::build(corpus, bibtex::schema(), spec).unwrap();
        assert!(built.word_index().is_scoped());
        let path = temp_qofx("scoped");
        built.persist(&path).unwrap();
        let opened = FileDatabase::open(&path, bibtex::schema()).unwrap();
        assert!(opened.word_index().is_scoped());
        assert_eq!(opened.index_spec().word_scope(), Some("Author"));
        assert_eq!(opened.word_index().postings(), built.word_index().postings());
        for q in QUERIES {
            let a = built.query(q);
            let b = opened.query(q);
            match (a, b) {
                (Ok(a), Ok(b)) => assert_same_results(&a, &b, q),
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "error parity for {q}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flips_anywhere_are_rejected_by_the_checksum() {
        let corpus = multi_file_corpus(1, 8);
        let built = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let path = temp_qofx("bitflip");
        built.persist(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        // Flip one bit at a spread of offsets covering header, corpus,
        // word, region and spec sections.
        for i in 0..16 {
            let pos = i * clean.len() / 16;
            let mut bad = clean.clone();
            bad[pos] ^= 1 << (i % 8);
            if bad == clean {
                continue;
            }
            std::fs::write(&path, &bad).unwrap();
            let err = FileDatabase::open(&path, bibtex::schema())
                .err()
                .unwrap_or_else(|| panic!("bit flip at {pos} must not open cleanly"));
            // Magic/version corruption reports as such; anything else must
            // be the checksum (the first validation to see the body).
            match err {
                QofxError::BadMagic | QofxError::UnsupportedVersion(_) => assert!(pos < 8),
                QofxError::ChecksumMismatch { .. } => {}
                other => panic!("bit flip at {pos}: unexpected error {other}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_files_are_rejected_cleanly() {
        let corpus = multi_file_corpus(1, 8);
        let built = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let path = temp_qofx("truncate");
        built.persist(&path).unwrap();
        let clean = std::fs::read(&path).unwrap();
        for keep in [0, 3, 4, 24, 87, 88, clean.len() / 2, clean.len() - 1] {
            std::fs::write(&path, &clean[..keep]).unwrap();
            assert!(
                FileDatabase::open(&path, bibtex::schema()).is_err(),
                "truncation to {keep} bytes must not open"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Rewrites the `name` regions of `built`'s `.qofx` file with `craft`
    /// and a valid checksum, and opens the result.
    fn open_crafted(
        built: &FileDatabase,
        tag: &str,
        name: &str,
        craft: impl FnOnce(&mut Vec<Region>),
    ) -> Result<FileDatabase, QofxError> {
        let path = temp_qofx(tag);
        built.persist(&path).unwrap();
        let parts = qofx::read_qofx(&path).unwrap();
        let mut instance = parts.instance.clone();
        let mut regions = instance.get(name).unwrap().as_slice().to_vec();
        craft(&mut regions);
        instance.insert(name, RegionSet::from_sorted(regions));
        qofx::write_qofx(&path, &parts.corpus, &parts.words, &instance, &parts.spec).unwrap();
        let opened = FileDatabase::open(&path, built.schema().clone());
        std::fs::remove_file(&path).ok();
        opened
    }

    #[test]
    fn open_rejects_region_names_the_spec_does_not_build() {
        // The planner reads the spec's names (the partial RIG, the route
        // verdicts); the engine reads the file's regions. Where the two
        // disagree, the first `add_file` indexes a missing name in the new
        // file only, and chains through it then lose the old files'
        // answers.
        let spec = IndexSpec::names(["Reference", "Key", "Authors", "Last_Name"]);
        let built =
            FileDatabase::build(multi_file_corpus(2, 10), bibtex::schema(), spec.clone()).unwrap();
        let path = temp_qofx("regn-names");
        built.persist(&path).unwrap();
        let parts = qofx::read_qofx(&path).unwrap();
        let mut without = Instance::new();
        for (name, set) in parts.instance.iter().filter(|(name, _)| *name != "Authors") {
            without.insert(name, set.clone());
        }
        let mut extra = parts.instance.clone();
        extra.insert("Year", RegionSet::new());
        for (what, instance) in [("a missing name", without), ("an extra name", extra)] {
            qofx::write_qofx(&path, &parts.corpus, &parts.words, &instance, &parts.spec).unwrap();
            match FileDatabase::open(&path, bibtex::schema()) {
                Err(QofxError::Corrupt(why)) => assert!(why.contains("REGN names"), "{why}"),
                other => panic!("{what} opened: {:?}", other.err()),
            }
        }
        // The clean file opens, and grows like a fresh build.
        built.persist(&path).unwrap();
        let mut opened = FileDatabase::open(&path, bibtex::schema()).unwrap();
        std::fs::remove_file(&path).ok();
        let (text, _) = bibtex::generate(&BibtexConfig {
            n_refs: 10,
            seed: 5,
            name_pool: 8,
            ..Default::default()
        });
        opened.add_file("late.bib", &text).unwrap();
        let fresh = FileDatabase::build(opened.corpus().clone(), bibtex::schema(), spec).unwrap();
        for q in QUERIES {
            assert_same_results(&opened.query(q).unwrap(), &fresh.query(q).unwrap(), q);
        }
    }

    #[test]
    fn checksum_valid_postings_past_the_text_are_rejected() {
        // One more `Chang` posting, two bytes before the end of the text:
        // the word it places would run past the corpus.
        let built =
            FileDatabase::build(multi_file_corpus(1, 20), bibtex::schema(), IndexSpec::full())
                .unwrap();
        let path = temp_qofx("posting-past-end");
        built.persist(&path).unwrap();
        let parts = qofx::read_qofx(&path).unwrap();
        let mut lists: HashMap<String, Vec<Pos>> =
            parts.words.iter().map(|(w, p)| (w.to_owned(), p.to_vec())).collect();
        lists.get_mut("Chang").unwrap().push(parts.corpus.len() - 2);
        let words = WordIndex::from_lists(lists, None);
        qofx::write_qofx(&path, &parts.corpus, &words, &parts.instance, &parts.spec).unwrap();
        match FileDatabase::open(&path, bibtex::schema()) {
            Err(QofxError::Corrupt(why)) => assert!(why.contains("runs past"), "{why}"),
            other => panic!("a posting past the text must not open: {:?}", other.err()),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_valid_regions_past_the_text_or_inside_a_character_are_rejected() {
        // The last `Reference` region's length rewritten to 16383: a
        // query parsing it would read past the corpus text.
        let built =
            FileDatabase::build(multi_file_corpus(1, 20), bibtex::schema(), IndexSpec::full())
                .unwrap();
        let len = built.corpus().len();
        let opened = open_crafted(&built, "past-end", "Reference", |regions| {
            let last = regions.last_mut().unwrap();
            last.end = last.start + 16383;
            assert!(last.end > len);
        });
        match opened {
            Err(QofxError::Corrupt(why)) => assert!(why.contains("of Reference"), "{why}"),
            other => panic!("a region past the text must not open: {:?}", other.err()),
        }

        // A region ending inside the two bytes of `é`.
        use qof_grammar::{lit, nt, Grammar, TokenPattern, ValueBuilder};
        let g = Grammar::builder("Doc")
            .repeat("Doc", "Item", None, ValueBuilder::Set)
            .seq("Item", [lit("\""), nt("Body"), lit("\"")], ValueBuilder::TupleAuto)
            .token("Body", TokenPattern::Until("\"".into()), ValueBuilder::Atom)
            .build()
            .unwrap();
        let schema = StructuringSchema::new(g).with_view("Items", "Item");
        let built =
            FileDatabase::build(Corpus::from_text("\"é\""), schema, IndexSpec::full()).unwrap();
        assert_eq!(built.instance().get("Body").unwrap().as_slice(), [Region::new(1, 3)]);
        match open_crafted(&built, "split-char", "Body", |regions| regions[0].end = 2) {
            Err(QofxError::Corrupt(why)) => assert!(why.contains("splits a character"), "{why}"),
            other => panic!("a region splitting a character must not open: {:?}", other.err()),
        }
    }

    #[test]
    fn open_or_rebuild_falls_back_on_corruption() {
        let corpus = multi_file_corpus(1, 8);
        let built =
            FileDatabase::build(corpus.clone(), bibtex::schema(), IndexSpec::full()).unwrap();
        let path = temp_qofx("fallback");
        built.persist(&path).unwrap();
        // Clean file: opens, no error reported.
        let (db, why) = FileDatabase::open_or_rebuild(&path, bibtex::schema(), |_| {
            panic!("must not rebuild when the file is clean")
        })
        .unwrap();
        assert!(why.is_none());
        assert_eq!(db.index_bytes(), built.index_bytes());
        // Corrupt file: rebuilds, reports why.
        let mut bad = std::fs::read(&path).unwrap();
        let mid = bad.len() / 2;
        bad[mid] ^= 0xff;
        std::fs::write(&path, &bad).unwrap();
        let (db, why) = FileDatabase::open_or_rebuild(&path, bibtex::schema(), |schema| {
            FileDatabase::build(corpus.clone(), schema, IndexSpec::full())
        })
        .unwrap();
        assert!(matches!(why, Some(QofxError::ChecksumMismatch { .. })), "got {why:?}");
        for q in QUERIES {
            let a = built.query(q).unwrap();
            let b = db.query(q).unwrap();
            assert_same_results(&a, &b, q);
        }
        std::fs::remove_file(&path).ok();
    }

    // -- output-sensitive inclusion -----------------------------------------

    #[test]
    fn a_cached_plan_runs_no_route_search() {
        let corpus = multi_file_corpus(3, 20);
        let db = FileDatabase::build(corpus, bibtex::schema(), IndexSpec::full()).unwrap();
        let searches = || crate::plan::ROUTE_SEARCHES.with(std::cell::Cell::get);
        let mut first_searches = 0;
        for q in QUERIES {
            let parsed = parse_query(q).unwrap();
            let before = searches();
            let first = db.planner().plan(&parsed).unwrap();
            first_searches += searches() - before;
            let before = searches();
            let again = db.planner().plan(&parsed).unwrap();
            assert_eq!(searches(), before, "{q}: the second plan searched routes again");
            // The memo changes no plan: a planner without it agrees.
            let cold = PlanCache::new();
            let fresh = Planner { plan_cache: &cold, ..db.planner() }.plan(&parsed).unwrap();
            for other in [&again, &fresh] {
                assert_eq!(other.describe(), first.describe(), "{q}");
                assert_eq!(other.fingerprint, first.fingerprint, "{q}");
            }
        }
        assert!(first_searches > 0, "the direct hops of the first plans need route searches");
    }

    /// Pairs of `(container, item)` a projection reads, restricted or not,
    /// for `within` taken as the containers.
    fn projected_pairs(
        db: &FileDatabase,
        chain: &RegionExpr,
        within: &RegionSet,
    ) -> [Vec<(usize, Region)>; 2] {
        let engine = db.engine();
        let whole = engine.eval(chain).unwrap();
        let restricted = engine.eval_within(chain, within).unwrap();
        assert!(restricted.iter().all(|r| whole.contains(r)), "`eval_within` left `eval`");
        [group_by_container(within, &whole), group_by_container(within, &restricted)]
    }

    /// `eval_within` + `group_by_container` equals `eval` +
    /// `group_by_container` for projection chains over BibTeX and over
    /// self-nested SGML sections, with assorted subsets of the view as the
    /// containers.
    #[test]
    fn restricted_projection_equals_the_whole_projection() {
        use qof_corpus::sgml;
        let bib =
            FileDatabase::build(multi_file_corpus(3, 30), bibtex::schema(), IndexSpec::full())
                .unwrap();
        let cfg = sgml::SgmlConfig {
            top_sections: 6,
            max_depth: 4,
            subsections: (1, 3),
            seed: 9,
            ..Default::default()
        };
        let nested = FileDatabase::build(
            Corpus::from_text(&sgml::generate(&cfg).0),
            sgml::schema(),
            IndexSpec::full(),
        )
        .unwrap();
        let cases: [(&FileDatabase, &[&str]); 2] = [
            (
                &bib,
                &[
                    "SELECT r.Key FROM References r",
                    "SELECT r.Authors.Name.Last_Name FROM References r",
                    "SELECT r.*X.Last_Name FROM References r",
                    "SELECT r.Editors.Name FROM References r",
                ],
            ),
            (
                &nested,
                &[
                    "SELECT s.Head FROM Sections s",
                    "SELECT s.Subsections.Section.Head FROM Sections s",
                    "SELECT s.*X.Head FROM Sections s",
                    "SELECT s.Section+.Head FROM Sections s",
                ],
            ),
        ];
        let mut rng = 0x5eed_u64;
        for (db, queries) in cases {
            for q in queries {
                let plan = db.plan(q).unwrap();
                let (ProjPlan::IndexValues { chain, .. }
                | ProjPlan::ParsedValues { chain: Some((chain, _)), .. }) = &plan.projection
                else {
                    panic!("{q}: no index-side projection chain");
                };
                let view = db.instance().get(&plan.vars[0].symbol).unwrap();
                for step in [1usize, 2, 7, 40] {
                    for offset in [0usize, 1, 3] {
                        rng =
                            rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                        let skip = offset + (rng >> 60) as usize;
                        let within = RegionSet::from_regions(
                            view.iter().skip(skip).step_by(step).copied().collect(),
                        );
                        let [whole, restricted] = projected_pairs(db, chain, &within);
                        assert_eq!(
                            restricted, whole,
                            "{q} over every {step}th view region from {skip}"
                        );
                    }
                }
            }
        }
    }

    /// The work of a selective index-only lookup follows its matches: a
    /// corpus grown eightfold by references that cannot match reads
    /// about as many regions as the original.
    #[test]
    fn selective_lookup_work_does_not_grow_with_the_corpus() {
        let name = qof_corpus::LAST_NAMES[qof_corpus::LAST_NAMES.len() - 1];
        let refs = |seed: u64, n_refs: usize, name_pool: usize| {
            let cfg = BibtexConfig { n_refs, seed, name_pool, ..Default::default() };
            bibtex::generate(&cfg).0
        };
        let corpus = |extra_files: u64| {
            let mut b = qof_text::CorpusBuilder::new();
            b.add_file("a.bib", &refs(1, 800, qof_corpus::LAST_NAMES.len()));
            // 800-reference files over a name pool that lacks `name`.
            for i in 0..extra_files {
                b.add_file(format!("b{i}.bib"), &refs(100 + i, 800, 8));
            }
            b.build()
        };
        let q =
            format!("SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"{name}\"");
        let run = |extra_files| {
            let db = FileDatabase::build(corpus(extra_files), bibtex::schema(), IndexSpec::full())
                .unwrap();
            db.query(&q).unwrap()
        };
        let (a, b) = (run(0), run(7));
        assert!(!a.values.is_empty(), "`{name}` must occur in corpus A");
        assert_eq!(a.values, b.values);
        let (ra, rb) = (a.stats.eval.regions_consumed, b.stats.eval.regions_consumed);
        assert!(rb * 2 <= ra * 3, "regions consumed grew from {ra} to {rb} with the corpus");
    }
}
