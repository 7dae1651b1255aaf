//! `EXPLAIN ANALYZE` for the whole pipeline: a [`QueryTrace`] records what
//! one query run actually did — the plan, the optimizer rewrites that fired
//! (tagged with the licensing proposition: 3.3, 3.5(a), 3.5(b)), per-phase
//! wall times, and the operator tree from the engine ([`OpTrace`]) with
//! timings, cardinalities and memo outcomes.
//!
//! Two renderers live here: [`QueryTrace::render`], the rustc-style pretty
//! tree behind `qof query --explain-analyze`, and [`QueryTrace::to_json`],
//! dependency-free versioned JSON (`--trace-json`, consumed by the bench
//! harness and CI).

use std::fmt::Write as _;

use qof_pat::json::escape;
use qof_pat::{CacheSource, OpTrace};

use crate::plan::PlanRewrite;

/// Version stamp of the `--trace-json` format. Bump when a field changes
/// meaning; consumers (bench harness, CI smoke job) check it.
///
/// History: v2 added `id`, the per-database query sequence number that the
/// query server uses to correlate responses, query-log lines and
/// flight-recorder entries. v3 added the abstract interpreter: `facts`
/// (per-plan-node [`NodeFact`]s) and a `certified` flag on every rewrite
/// (the certifier's verdict). v4 added cardinality estimates: `estimates`
/// (per-variable estimated-vs-actual candidate cardinalities) and the
/// `plan_cache_hits`/`plan_cache_misses` pair
/// recording how much planning work this run reused. v5 made the trace a
/// true span tree: every op node carries `span_id` (unique in the trace)
/// and `start_nanos` (its start offset on the query's shared monotonic
/// timeline), and phases carry `start_nanos` too — enough to
/// export the run as Chrome `trace_event` JSON
/// ([`trace_to_perfetto`](crate::perfetto::trace_to_perfetto)). v6 added
/// workload analytics: `fingerprint` (the plan's deterministic FNV-1a
/// fingerprint, serialized as a fixed-width 16-hex string — the
/// aggregation key of `GET /workload` and `qof qlog analyze`) and
/// `bytes_touched` (parse-phase bytes scanned plus content bytes read).
/// v7 removed the shard-parallel index phase and the cross-query
/// subexpression cache, and with them the `shards`, `cache_hits` and
/// `cache_misses` keys; every other field is unchanged. The `parse` and
/// `plan` phases came later within v7: phase names are values, not keys,
/// so no consumer's parsing changes. v8 removed the statistics half of
/// the abstract interpreter: no `estimates` key, and facts carry no
/// `card_lo`/`card_hi` — a fact is a static domain and an emptiness
/// verdict from the RIG alone, so it depends only on the plan and the
/// RIG. Facts no longer report a word absent from the corpus (the
/// phase-1 candidate count still shows it). v9 removed the
/// `plan_cache_hits`/`plan_cache_misses` pair: a lookup's hit or miss
/// belongs to the plan cache, which counts every lookup
/// (`qof_plan_cache_*_total`), and the `plan` phase times planning.
pub const TRACE_SCHEMA_VERSION: u64 = 9;

/// The abstract interpreter's verdict on one plan node (trace schema v3):
/// a static domain and an emptiness fact, as computed from the RIG by
/// [`AbsInterp`](crate::analyze::absint::AbsInterp).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeFact {
    /// The plan node's display label.
    pub node: String,
    /// Region types the node's spans can belong to; meaningful only when
    /// `domain_known` is true.
    pub domain: Vec<String>,
    /// Whether `domain` is a real claim (`false` means ⊤: raw word or
    /// position spans with no region type).
    pub domain_known: bool,
    /// Whether the node is proven to evaluate to ∅.
    pub empty: bool,
    /// Human-readable evidence.
    pub notes: Vec<String>,
}

/// Wall time of one executor phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTrace {
    /// Phase name (`parse`, `plan`, `index-candidates`, `content-join`,
    /// `parse-filter`, `projection`). `index-candidates` includes the
    /// O(1) engine set-up and, on the first `⊃d`, `⊂d` or `⊃^n` query
    /// since the index was built or opened, the nesting-forest build
    /// inside that operator's span. `parse-filter` is the check pass:
    /// candidates parsed as far as their checks read, residuals, and the
    /// join re-check. `projection` includes the build pass, which parses
    /// the results of a `SELECT r` whole.
    pub name: &'static str,
    /// Start offset on the query's timeline, nanoseconds since the query
    /// began (schema v5). Phases are timed back-to-back against one
    /// clock, so each phase ends no later than the next one starts.
    pub start_nanos: u64,
    /// Inclusive wall time, nanoseconds.
    pub nanos: u64,
}

/// Everything one traced query run recorded, across optimizer, engine and
/// executor.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryTrace {
    /// Query sequence number, unique per [`FileDatabase`] instance and
    /// assigned in execution order starting from 1. The query server uses
    /// it to correlate a response with its query-log line and
    /// flight-recorder entry.
    ///
    /// [`FileDatabase`]: crate::FileDatabase
    pub id: u64,
    /// The plan's deterministic fingerprint (schema v6): FNV-1a over the
    /// normalized chain spellings the plan cache keys on, identical
    /// across processes for the same query shape. 0 means "not stamped".
    pub fingerprint: u64,
    /// The query source text.
    pub query: String,
    /// The EXPLAIN text of the executed plan.
    pub plan: String,
    /// Optimizer rewrites applied during planning, in order.
    pub rewrites: Vec<PlanRewrite>,
    /// Per-plan-node abstract facts (schema v3).
    pub facts: Vec<NodeFact>,
    /// Executor phases with wall times, in execution order.
    pub phases: Vec<PhaseTrace>,
    /// Operator trace of the engine.
    pub ops: Vec<OpTrace>,
    /// End-to-end wall time, nanoseconds.
    pub total_nanos: u64,
    /// Bytes the run touched (schema v6): parse-phase bytes scanned plus
    /// content bytes read by conditions, joins and projections.
    pub bytes_touched: u64,
    /// Candidate view regions considered.
    pub candidates: usize,
    /// Result count.
    pub results: usize,
    /// Whether the index phase alone computed the exact answer (§6.3).
    pub exact_index: bool,
}

/// Scratch space the executor fills while running a query (crate-internal;
/// the query path assembles the public [`QueryTrace`] from it).
#[derive(Debug, Default)]
pub(crate) struct ExecTrace {
    pub(crate) phases: Vec<PhaseTrace>,
    pub(crate) ops: Vec<OpTrace>,
    pub(crate) facts: Vec<NodeFact>,
}

impl QueryTrace {
    /// Total operator-trace nodes.
    pub fn op_node_count(&self) -> usize {
        self.ops.iter().map(OpTrace::node_count).sum()
    }

    /// The rustc-style pretty tree shown by `qof query --explain-analyze`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "query: {}", self.query);
        if self.id != 0 {
            let _ = writeln!(out, "id: {}", self.id);
        }
        if self.fingerprint != 0 {
            let _ = writeln!(out, "fingerprint: {:016x}", self.fingerprint);
        }
        let _ = writeln!(out, "plan:");
        for line in self.plan.lines() {
            let _ = writeln!(out, "  │ {line}");
        }
        let _ = writeln!(out, "optimizer rewrites: {}", self.rewrites.len());
        for rw in &self.rewrites {
            let mark = if rw.certified { "✓ certified" } else { "✗ NOT certified" };
            let _ = writeln!(out, "  [{}] {}  {mark}", rw.proposition, rw.description);
            let _ = writeln!(out, "        ⇒ {}", rw.result);
        }
        if !self.facts.is_empty() {
            let _ = writeln!(out, "static facts:");
            for fact in &self.facts {
                let domain = if fact.domain_known {
                    format!("{{{}}}", fact.domain.join(", "))
                } else {
                    "⊤".to_string()
                };
                let empty = if fact.empty { "  ∅" } else { "" };
                let _ = writeln!(out, "  {}: domain {domain}{empty}", fact.node);
                for note in &fact.notes {
                    let _ = writeln!(out, "      note: {note}");
                }
            }
        }
        let _ = writeln!(out, "phases:");
        for ph in &self.phases {
            let _ = writeln!(out, "  {:<18} {:>10}", ph.name, fmt_nanos(ph.nanos));
        }
        let _ = writeln!(out, "operators:");
        for (i, root) in self.ops.iter().enumerate() {
            render_op(root, "  ", i + 1 == self.ops.len(), &mut out);
        }
        let _ = writeln!(
            out,
            "totals: {} candidates, {} results [{}], {}",
            self.candidates,
            self.results,
            if self.exact_index { "exact" } else { "candidates" },
            fmt_nanos(self.total_nanos)
        );
        out
    }

    /// Serializes the trace to its versioned JSON form (`--trace-json`).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push('{');
        let _ = write!(s, "\"schema_version\":{TRACE_SCHEMA_VERSION}");
        let _ = write!(s, ",\"id\":{}", self.id);
        // 16-hex string, not a number: JSON consumers (python CI folds,
        // jq) would round a u64 past 2^53.
        let _ = write!(s, ",\"fingerprint\":\"{:016x}\"", self.fingerprint);
        let _ = write!(s, ",\"query\":\"{}\"", escape(&self.query));
        let _ = write!(s, ",\"plan\":\"{}\"", escape(&self.plan));
        s.push_str(",\"rewrites\":[");
        for (i, rw) in self.rewrites.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"proposition\":\"{}\",\"description\":\"{}\",\"result\":\"{}\",\
                 \"certified\":{}}}",
                escape(&rw.proposition),
                escape(&rw.description),
                escape(&rw.result),
                rw.certified
            );
        }
        s.push_str("],\"facts\":[");
        for (i, fact) in self.facts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"node\":\"{}\",\"domain\":[", escape(&fact.node));
            for (j, name) in fact.domain.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", escape(name));
            }
            let _ = write!(
                s,
                "],\"domain_known\":{},\"empty\":{},\"notes\":[",
                fact.domain_known, fact.empty
            );
            for (j, note) in fact.notes.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\"", escape(note));
            }
            s.push_str("]}");
        }
        s.push_str("],\"phases\":[");
        for (i, ph) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"start_nanos\":{},\"nanos\":{}}}",
                escape(ph.name),
                ph.start_nanos,
                ph.nanos
            );
        }
        s.push_str("],\"ops\":");
        ops_to_json(&self.ops, &mut s);
        let _ = write!(s, ",\"total_nanos\":{}", self.total_nanos);
        let _ = write!(s, ",\"bytes_touched\":{}", self.bytes_touched);
        let _ = write!(s, ",\"candidates\":{},\"results\":{}", self.candidates, self.results);
        let _ = write!(s, ",\"exact_index\":{}", self.exact_index);
        s.push('}');
        s
    }
}

/// One operator line of the pretty tree:
/// `⊃  in=5 out=1  1.2µs  [12 probes] (memo)`.
fn render_op(node: &OpTrace, prefix: &str, is_last: bool, out: &mut String) {
    let branch = if is_last { "└─ " } else { "├─ " };
    let mut line = node.op.to_owned();
    if !node.detail.is_empty() {
        let _ = write!(line, " {}", node.detail);
    }
    let _ = write!(line, "  in={} out={}  {}", node.input, node.output, fmt_nanos(node.nanos));
    if node.bytes > 0 {
        let _ = write!(line, "  {} B scanned", node.bytes);
    }
    if node.probes > 0 {
        let _ = write!(line, "  {} probes", node.probes);
    }
    match node.source {
        CacheSource::Computed => {}
        CacheSource::LocalMemo => line.push_str("  (memo hit)"),
    }
    let _ = writeln!(out, "{prefix}{branch}{line}");
    let child_prefix = format!("{prefix}{}", if is_last { "   " } else { "│  " });
    for (i, c) in node.children.iter().enumerate() {
        render_op(c, &child_prefix, i + 1 == node.children.len(), out);
    }
}

/// `1234` → `"1.2µs"`: a human-scaled duration, for the pretty trace
/// renderer and `qof stats`.
#[allow(clippy::cast_precision_loss)]
pub fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

// ---------------------------------------------------------------------------
// JSON writing (mirrors crates/bench/src/report.rs: no serde in this tree).
// ---------------------------------------------------------------------------

fn ops_to_json(ops: &[OpTrace], s: &mut String) {
    s.push('[');
    for (i, op) in ops.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"span_id\":{},\"op\":\"{}\",\"detail\":\"{}\",\"input\":{},\"output\":{},\
             \"start_nanos\":{},\"nanos\":{},\"bytes\":{},\"probes\":{},\"source\":\"{}\",\
             \"children\":",
            op.span_id,
            escape(op.op),
            escape(&op.detail),
            op.input,
            op.output,
            op.start_nanos,
            op.nanos,
            op.bytes,
            op.probes,
            op.source.label()
        );
        ops_to_json(&op.children, s);
        s.push('}');
    }
    s.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_pat::json::{get, get_arr, get_str, get_u64, Json};

    #[test]
    fn esc_handles_specials() {
        // The trace writers escape with the shared escaper.
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("⊃d"), "⊃d");
        let parsed = Json::parse("\"a\\u0041⊃\"").unwrap();
        assert_eq!(parsed, Json::Str("aA⊃".into()));
    }

    fn sample() -> QueryTrace {
        let leaf = OpTrace {
            span_id: 2,
            start_nanos: 110,
            op: "name",
            detail: "Reference".into(),
            output: 2,
            nanos: 120,
            ..OpTrace::default()
        };
        let root = OpTrace {
            span_id: 1,
            start_nanos: 100,
            op: "⊃",
            input: 3,
            output: 1,
            nanos: 900,
            bytes: 15,
            probes: 1,
            children: vec![
                leaf.clone(),
                OpTrace { span_id: 3, start_nanos: 240, source: CacheSource::LocalMemo, ..leaf },
            ],
            ..OpTrace::default()
        };
        QueryTrace {
            id: 7,
            fingerprint: 0xdead_beef_0042_0007,
            query: "SELECT r FROM References r WHERE r.Year = \"1982\"".into(),
            plan: "var r : view References over <Reference>\n  index: …\n".into(),
            rewrites: vec![PlanRewrite {
                proposition: "3.5(b)".into(),
                description: "drop Name: every path passes through Name".into(),
                result: "Reference ⊃ Authors ⊃ σ_\"Chang\"(Last_Name)".into(),
                certified: true,
            }],
            facts: vec![
                NodeFact {
                    node: "Reference ⊃ Authors".into(),
                    domain: vec!["Reference".into()],
                    domain_known: true,
                    empty: false,
                    notes: Vec::new(),
                },
                NodeFact {
                    node: "σ_\"zzz\"(Year ⊃ Title)".into(),
                    domain: Vec::new(),
                    domain_known: false,
                    empty: true,
                    notes: vec!["the selected set is provably empty".into()],
                },
            ],
            phases: vec![
                PhaseTrace { name: "index-candidates", start_nanos: 0, nanos: 1_500 },
                PhaseTrace { name: "projection", start_nanos: 1_500, nanos: 2_000_000 },
            ],
            ops: vec![root],
            total_nanos: 2_100_000,
            bytes_touched: 4_096,
            candidates: 5,
            results: 1,
            exact_index: true,
        }
    }

    #[test]
    fn json_round_trips() {
        // Every field reads back through the shared JSON reader as written.
        let trace = sample();
        let doc = Json::parse(&trace.to_json()).expect("own output parses");
        let obj = doc.as_obj().unwrap();
        let num = |o: &[(String, Json)], k: &str| get_u64(o, k).unwrap();
        let item = |k: &str, i: usize| get_arr(obj, k).unwrap()[i].as_obj().unwrap().to_vec();
        assert_eq!(num(obj, "schema_version"), TRACE_SCHEMA_VERSION);
        assert_eq!(num(obj, "id"), 7);
        assert_eq!(get_str(obj, "fingerprint").unwrap(), "deadbeef00420007");
        assert_eq!(get_str(obj, "query").unwrap(), trace.query);
        assert_eq!(get_str(obj, "plan").unwrap(), trace.plan);
        let rewrite = item("rewrites", 0);
        assert_eq!(get_str(&rewrite, "result").unwrap(), trace.rewrites[0].result);
        assert_eq!(get(&rewrite, "certified").unwrap(), &Json::Bool(true));
        let (known, top) = (item("facts", 0), item("facts", 1));
        assert_eq!(get_arr(&known, "domain").unwrap()[0].as_str(), Some("Reference"));
        assert_eq!(get(&known, "domain_known").unwrap(), &Json::Bool(true));
        assert_eq!(get(&top, "domain_known").unwrap(), &Json::Bool(false));
        assert_eq!(get(&top, "empty").unwrap(), &Json::Bool(true));
        assert_eq!(get_arr(&top, "notes").unwrap()[0].as_str(), Some(&*trace.facts[1].notes[0]));
        // v8: no cardinality anywhere; v9: no plan-cache counts.
        assert!(get(&known, "card_lo").is_err() && get(&known, "card_hi").is_err());
        assert!(get(obj, "estimates").is_err());
        assert!(get(obj, "plan_cache_hits").is_err() && get(obj, "plan_cache_misses").is_err());
        let phase = item("phases", 1);
        assert_eq!(get_str(&phase, "name").unwrap(), "projection");
        assert_eq!((num(&phase, "start_nanos"), num(&phase, "nanos")), (1_500, 2_000_000));
        let root = item("ops", 0);
        assert_eq!((num(&root, "span_id"), num(&root, "bytes"), num(&root, "probes")), (1, 15, 1));
        let children = get_arr(&root, "children").unwrap();
        let memo = children[1].as_obj().unwrap();
        assert_eq!(get_str(memo, "source").unwrap(), "memo");
        assert_eq!((num(memo, "span_id"), num(memo, "start_nanos")), (3, 240));
        for (key, want) in [
            ("total_nanos", 2_100_000),
            ("bytes_touched", 4_096),
            ("candidates", 5),
            ("results", 1),
        ] {
            assert_eq!(num(obj, key), want, "{key}");
        }
        assert_eq!(get(obj, "exact_index").unwrap(), &Json::Bool(true));
    }

    #[test]
    fn render_shows_all_sections() {
        let text = sample().render();
        assert!(text.contains("query: SELECT r"));
        assert!(text.contains("id: 7"));
        assert!(text.contains("fingerprint: deadbeef00420007"));
        assert!(text.contains("optimizer rewrites: 1"));
        assert!(text.contains("[3.5(b)] drop Name"));
        assert!(text.contains("✓ certified"));
        assert!(text.contains("static facts:"));
        assert!(text.contains("Reference ⊃ Authors: domain {Reference}\n"));
        assert!(text.contains("domain ⊤  ∅"));
        assert!(text.contains("note: the selected set"));
        assert!(!text.contains("card") && !text.contains("estimate"));
        assert!(text.contains("index-candidates"));
        assert!(text.contains("└─ ⊃  in=3 out=1"));
        assert!(text.contains("(memo hit)"));
        assert!(!text.contains("plan cache"));
        assert!(text.contains("totals: 5 candidates, 1 results [exact], 2.10ms"));
    }

    #[test]
    fn op_node_count_covers_the_whole_tree() {
        // The root plus its two children (one of them a memo hit).
        assert_eq!(sample().op_node_count(), 3);
        assert_eq!(QueryTrace::default().op_node_count(), 0);
    }

    #[test]
    fn fmt_nanos_scales() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_000_000), "2.00ms");
        assert_eq!(fmt_nanos(3_210_000_000), "3.21s");
    }
}
