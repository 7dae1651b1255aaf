//! Chrome `trace_event` export: turns a [`QueryTrace`] span tree into JSON
//! that opens directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing` — no dependencies, no SDK, just the documented JSON
//! format.
//!
//! Mapping:
//!
//! * each query is a *process* (`pid` = query id) named after its query
//!   text via `process_name` metadata events;
//! * executor phases render on thread 1 ("phases") and the engine's
//!   operator spans on thread 2 ("engine") — each is a single-threaded
//!   span stack, so the begin/end events of one thread always nest
//!   properly;
//! * every span is a matched `B`/`E` duration-event pair (what the CI
//!   validator checks), with operator attributes (span id, cardinalities,
//!   bytes scanned, probes, memo source) in `args`;
//! * timestamps are microseconds (the format's unit) on the query's own
//!   timeline: every op and phase carries an offset
//!   from one shared origin, so no clock reconstruction happens here.
//!
//! [`traces_to_perfetto`] exports a whole serve window (the flight
//! recorder's rings): one process per query, each on its own timeline.

use std::fmt::Write as _;

use qof_pat::OpTrace;

use crate::trace::QueryTrace;
use qof_pat::json::escape;

/// Thread id carrying the executor phases.
const TID_PHASES: u64 = 1;
/// Thread id carrying the engine's operator spans.
const TID_ENGINE: u64 = 2;

/// Nanosecond offset → the format's microsecond timestamp, exactly
/// (`1234` ns → `"1.234"`), without routing through `f64`.
fn ts_micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Emits one `{"ph":"M", …}` metadata event.
fn metadata_event(out: &mut String, pid: u64, tid: u64, what: &str, name: &str) {
    let _ = write!(
        out,
        "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape(name)
    );
}

/// Emits the matched `B`/`E` pair for one span interval.
#[allow(clippy::too_many_arguments)] // every field of a trace_event line, flat like the format
fn begin_end(
    out: &mut String,
    pid: u64,
    tid: u64,
    cat: &str,
    name: &str,
    start_nanos: u64,
    nanos: u64,
    args: &str,
    body: impl FnOnce(&mut String),
) {
    let _ = write!(
        out,
        ",{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{},\"pid\":{pid},\
         \"tid\":{tid},\"args\":{{{args}}}}}",
        escape(name),
        ts_micros(start_nanos)
    );
    body(out);
    let _ = write!(
        out,
        ",{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"E\",\"ts\":{},\"pid\":{pid},\
         \"tid\":{tid}}}",
        escape(name),
        ts_micros(start_nanos.saturating_add(nanos))
    );
}

/// Emits one operator span and, nested between its `B` and `E`, its
/// children — the span tree becomes a properly nested event stack.
fn op_events(out: &mut String, pid: u64, tid: u64, node: &OpTrace) {
    let name = if node.detail.is_empty() {
        node.op.to_owned()
    } else {
        format!("{} {}", node.op, node.detail)
    };
    let args = format!(
        "\"span_id\":{},\"input\":{},\"output\":{},\"bytes\":{},\"probes\":{},\"source\":\"{}\"",
        node.span_id,
        node.input,
        node.output,
        node.bytes,
        node.probes,
        node.source.label()
    );
    begin_end(out, pid, tid, "op", &name, node.start_nanos, node.nanos, &args, |out| {
        for child in &node.children {
            op_events(out, pid, tid, child);
        }
    });
}

/// Writes one trace's events (metadata + spans) into `out`, assuming the
/// cursor sits right after a `[` or a previous event. The first event
/// written here is a metadata event with no leading comma iff `first`.
fn write_trace(out: &mut String, trace: &QueryTrace, first: bool) {
    let pid = if trace.id == 0 { 1 } else { trace.id };
    if !first {
        out.push(',');
    }
    let title = if trace.id == 0 {
        format!("query: {}", trace.query)
    } else {
        format!("query {}: {}", trace.id, trace.query)
    };
    metadata_event(out, pid, 0, "process_name", &title);
    out.push(',');
    metadata_event(out, pid, TID_PHASES, "thread_name", "phases");
    out.push(',');
    metadata_event(out, pid, TID_ENGINE, "thread_name", "engine");
    // The whole query as one enclosing span on the phase thread, then the
    // phases back-to-back inside it.
    begin_end(out, pid, TID_PHASES, "query", "query", 0, trace.total_nanos, "", |out| {
        for phase in &trace.phases {
            begin_end(
                out,
                pid,
                TID_PHASES,
                "phase",
                phase.name,
                phase.start_nanos,
                phase.nanos,
                "",
                |_| {},
            );
        }
    });
    for op in &trace.ops {
        op_events(out, pid, TID_ENGINE, op);
    }
}

/// Exports one traced query as a Chrome `trace_event` JSON document.
pub fn trace_to_perfetto(trace: &QueryTrace) -> String {
    traces_to_perfetto(std::slice::from_ref(trace))
}

/// Exports several traced queries (a flight-recorder window) as one
/// document: one process per query, each on its own timeline starting at
/// t=0 — Perfetto's process tracks keep them apart.
pub fn traces_to_perfetto(traces: &[QueryTrace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, trace) in traces.iter().enumerate() {
        write_trace(&mut out, trace, i == 0);
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use qof_pat::json::{get_arr, get_str, get_u64, Json};
    use qof_pat::{CacheSource, TraceSink};

    use super::*;
    use crate::trace::PhaseTrace;

    /// A trace whose spans were stamped by a real sink, so the intervals
    /// obey the nesting invariants the exporter relies on.
    fn stamped_trace() -> QueryTrace {
        let sink = TraceSink::new();
        sink.enter(); // ⊃
        sink.enter(); // name Reference
        sink.exit(OpTrace { op: "name", detail: "Reference".into(), ..OpTrace::default() });
        sink.leaf(OpTrace {
            op: "σ",
            detail: "\"1982\"".into(),
            source: CacheSource::LocalMemo,
            ..OpTrace::default()
        });
        sink.exit(OpTrace { op: "⊃", output: 1, ..OpTrace::default() });
        let ops = sink.take();
        let end = ops[0].end_nanos();
        QueryTrace {
            id: 7,
            query: "SELECT r FROM References r".into(),
            phases: vec![
                PhaseTrace { name: "index-candidates", start_nanos: 0, nanos: end },
                PhaseTrace { name: "projection", start_nanos: end, nanos: 10 },
            ],
            ops,
            total_nanos: end + 10,
            ..QueryTrace::default()
        }
    }

    /// Replays the event list through a per-(pid,tid) stack: every `E`
    /// must close the innermost open `B` of its thread, and within one
    /// thread timestamps never regress.
    fn check_matched_pairs(events: &[Json]) {
        use std::collections::HashMap;
        let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
        let mut clocks: HashMap<(u64, u64), f64> = HashMap::new();
        for ev in events {
            let obj = ev.as_obj().unwrap();
            let ph = get_str(obj, "ph").unwrap();
            if ph == "M" {
                continue;
            }
            let key = (get_u64(obj, "pid").unwrap(), get_u64(obj, "tid").unwrap());
            let ts = qof_pat::json::get_f64(obj, "ts").unwrap();
            let clock = clocks.entry(key).or_insert(0.0);
            assert!(ts >= *clock, "timestamp regressed on {key:?}: {ts} < {clock}");
            *clock = ts;
            let name = get_str(obj, "name").unwrap();
            match ph.as_str() {
                "B" => stacks.entry(key).or_default().push(name),
                "E" => {
                    let open = stacks.get_mut(&key).and_then(Vec::pop);
                    assert_eq!(open.as_deref(), Some(name.as_str()), "unmatched E on {key:?}");
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        for (key, stack) in stacks {
            assert!(stack.is_empty(), "unclosed spans on {key:?}: {stack:?}");
        }
    }

    #[test]
    fn export_is_wellformed_with_matched_pairs() {
        let json = trace_to_perfetto(&stamped_trace());
        let doc = Json::parse(&json).expect("export parses");
        let obj = doc.as_obj().unwrap();
        let events = get_arr(obj, "traceEvents").unwrap();
        // Metadata: process name + 2 thread names (phases, engine).
        let metas: Vec<_> =
            events.iter().filter(|e| get_str(e.as_obj().unwrap(), "ph").unwrap() == "M").collect();
        assert_eq!(metas.len(), 3, "{json}");
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("query 7: SELECT r"));
        // Span events: query + 2 phases + 3 ops on the engine thread, each
        // a B/E pair.
        let begins =
            events.iter().filter(|e| get_str(e.as_obj().unwrap(), "ph").unwrap() == "B").count();
        let ends =
            events.iter().filter(|e| get_str(e.as_obj().unwrap(), "ph").unwrap() == "E").count();
        assert_eq!(begins, 6, "{json}");
        assert_eq!(begins, ends);
        check_matched_pairs(events);
        // Operator attributes ride along.
        assert!(json.contains("\"source\":\"memo\""), "{json}");
        assert!(json.contains("\"name\":\"σ \\\"1982\\\"\""), "{json}");
    }

    #[test]
    fn window_export_separates_queries_by_pid() {
        let mut a = stamped_trace();
        a.id = 1;
        let mut b = stamped_trace();
        b.id = 2;
        let json = traces_to_perfetto(&[a, b]);
        let doc = Json::parse(&json).expect("export parses");
        let events = get_arr(doc.as_obj().unwrap(), "traceEvents").unwrap();
        let pids: std::collections::BTreeSet<u64> =
            events.iter().map(|e| get_u64(e.as_obj().unwrap(), "pid").unwrap()).collect();
        assert_eq!(pids.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        check_matched_pairs(events);
    }

    #[test]
    fn timestamps_are_exact_microseconds() {
        assert_eq!(ts_micros(0), "0.000");
        assert_eq!(ts_micros(1_234), "1.234");
        assert_eq!(ts_micros(1_000_007), "1000.007");
    }
}
