//! The flight recorder: a bounded in-memory ring of recent query traces,
//! plus a second ring that retains slow queries even after they scroll out
//! of the recent window. `POST /query` records every successful query's
//! trace, next to its query-log line; `GET /flight-recorder` drains it.

use std::collections::VecDeque;
use std::sync::Mutex;

use qof_core::QueryTrace;

/// Bounded trace retention for a long-running server.
pub struct FlightRecorder {
    capacity: usize,
    slow_nanos: u64,
    inner: Mutex<Rings>,
}

#[derive(Default)]
struct Rings {
    recent: VecDeque<QueryTrace>,
    slow: VecDeque<QueryTrace>,
}

impl FlightRecorder {
    /// A recorder keeping the last `capacity` traces and, separately, the
    /// last `capacity` traces slower than `slow_nanos` (so one burst of
    /// fast queries cannot evict the evidence of a slow one).
    pub fn new(capacity: usize, slow_nanos: u64) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            slow_nanos,
            inner: Mutex::new(Rings::default()),
        }
    }

    /// The slow-query threshold in nanoseconds.
    pub fn slow_nanos(&self) -> u64 {
        self.slow_nanos
    }

    /// Records one completed trace (both rings are bounded; the oldest
    /// entry falls out).
    pub fn record(&self, trace: &QueryTrace) {
        let mut rings = self.inner.lock().expect("recorder lock");
        if rings.recent.len() == self.capacity {
            rings.recent.pop_front();
        }
        rings.recent.push_back(trace.clone());
        if trace.total_nanos >= self.slow_nanos {
            if rings.slow.len() == self.capacity {
                rings.slow.pop_front();
            }
            rings.slow.push_back(trace.clone());
        }
    }

    /// Query IDs currently held in the recent ring, oldest first.
    pub fn recent_ids(&self) -> Vec<u64> {
        self.inner.lock().expect("recorder lock").recent.iter().map(|t| t.id).collect()
    }

    /// Looks a retained trace up by query ID — the recent ring first, then
    /// the slow ring (where a slow trace survives after scrolling out).
    pub fn find(&self, id: u64) -> Option<QueryTrace> {
        let rings = self.inner.lock().expect("recorder lock");
        rings
            .recent
            .iter()
            .find(|t| t.id == id)
            .or_else(|| rings.slow.iter().find(|t| t.id == id))
            .cloned()
    }

    /// Every retained trace, deduplicated across the two rings (a slow
    /// trace sits in both while recent) and ordered by query ID — the
    /// serve window the Perfetto export covers.
    pub fn window(&self) -> Vec<QueryTrace> {
        let rings = self.inner.lock().expect("recorder lock");
        let mut out: Vec<QueryTrace> = Vec::with_capacity(rings.recent.len() + rings.slow.len());
        for t in rings.recent.iter().chain(rings.slow.iter()) {
            if !out.iter().any(|have| have.id == t.id) {
                out.push(t.clone());
            }
        }
        out.sort_by_key(|t| t.id);
        out
    }

    /// Number of traces in the recent ring.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder lock").recent.len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `GET /flight-recorder` document: configuration plus both rings
    /// as full [`QueryTrace`] JSON, oldest first.
    pub fn to_json(&self) -> String {
        let rings = self.inner.lock().expect("recorder lock");
        let mut out = format!(
            "{{\"capacity\":{},\"slow_threshold_nanos\":{},\"recent\":[",
            self.capacity, self.slow_nanos
        );
        for (i, t) in rings.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"slow\":[");
        for (i, t) in rings.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, total_nanos: u64) -> QueryTrace {
        QueryTrace { id, total_nanos, query: format!("q{id}"), ..Default::default() }
    }

    #[test]
    fn recent_ring_is_bounded_and_ordered() {
        let rec = FlightRecorder::new(3, u64::MAX);
        for id in 1..=5 {
            rec.record(&trace(id, 10));
        }
        assert_eq!(rec.recent_ids(), vec![3, 4, 5]);
        assert_eq!(rec.len(), 3);
    }

    #[test]
    fn slow_ring_survives_fast_bursts() {
        let rec = FlightRecorder::new(2, 1_000);
        rec.record(&trace(1, 5_000)); // slow
        rec.record(&trace(2, 10));
        rec.record(&trace(3, 10)); // evicts 1 from recent
        assert_eq!(rec.recent_ids(), vec![2, 3]);
        let json = rec.to_json();
        let slow = json.split("\"slow\":").nth(1).unwrap();
        assert!(slow.contains("\"id\":1"), "slow ring still holds the slow trace: {slow}");
    }

    #[test]
    fn find_searches_both_rings_and_window_dedups() {
        let rec = FlightRecorder::new(2, 1_000);
        rec.record(&trace(1, 5_000)); // slow
        rec.record(&trace(2, 10));
        rec.record(&trace(3, 10)); // evicts 1 from recent
        assert_eq!(rec.find(1).map(|t| t.total_nanos), Some(5_000), "found via the slow ring");
        assert_eq!(rec.find(3).map(|t| t.total_nanos), Some(10));
        assert!(rec.find(99).is_none());
        let ids: Vec<u64> = rec.window().iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3], "slow survivor + recent, deduplicated");
    }

    #[test]
    fn json_document_round_trips_traces() {
        let rec = FlightRecorder::new(4, 1_000);
        rec.record(&trace(7, 2_000));
        let json = rec.to_json();
        assert!(json.starts_with("{\"capacity\":4,\"slow_threshold_nanos\":1000,"));
        // Both rings hold the trace, and the document parses as a whole.
        use crate::test_json::{get_arr, get_str, get_u64, Json};
        let doc = Json::parse(&json).unwrap();
        let obj = doc.as_obj().unwrap();
        for ring in ["recent", "slow"] {
            let traces = get_arr(obj, ring).unwrap();
            assert_eq!(traces.len(), 1, "{ring}");
            let t = traces[0].as_obj().unwrap();
            assert_eq!((get_u64(t, "id").unwrap(), get_u64(t, "total_nanos").unwrap()), (7, 2_000));
            assert_eq!(get_str(t, "query").unwrap(), "q7");
        }
    }
}
