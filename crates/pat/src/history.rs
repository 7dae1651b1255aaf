//! Time-series metrics history: a fixed-size ring of periodic,
//! delta-encoded snapshots of the [`MetricsRegistry`] counters and the
//! query-latency histogram.
//!
//! Monotonic counters answer "how many so far"; they cannot answer "what
//! happened at 14:32" or "is p95 degrading". The history ring closes that
//! gap without an external scraper: a ticker (the server's snapshot
//! thread, or `qof stats --history` sampling inline) calls
//! [`MetricsRegistry::record_history_sample`] at a fixed interval, and the
//! ring stores the *delta* since the previous sample — interval counters
//! plus an interval latency [`Histogram`] — so rates and
//! quantiles-over-time fall out of simple sums. Memory is bounded by
//! construction: `capacity × sizeof(HistorySample)` (§ DESIGN.md 14 does
//! the sizing math; the default ring holds 10 minutes at one sample per
//! second in well under 256 KiB).
//!
//! [`MetricsRegistry`]: crate::MetricsRegistry

use std::collections::VecDeque;
use std::sync::Mutex;

use crate::trace::{Histogram, MetricsSnapshot};

/// Default number of samples the ring keeps: 10 minutes at the default
/// one-second sampling interval.
pub const DEFAULT_HISTORY_CAPACITY: usize = 600;

/// One delta-encoded history sample: what happened during the interval
/// `[ts_ms − dur_ms, ts_ms]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistorySample {
    /// Wall-clock timestamp of the sample, milliseconds since the Unix
    /// epoch (stamped by the caller — the registry keeps no clock).
    pub ts_ms: u64,
    /// Interval this sample covers, milliseconds (0 for the first sample
    /// after a reset, which anchors the timeline without covering time).
    pub dur_ms: u64,
    /// Queries executed during the interval.
    pub queries: u64,
    /// Queries that errored during the interval.
    pub query_errors: u64,
    /// Plan-cache hits during the interval.
    pub plan_cache_hits: u64,
    /// Plan-cache misses during the interval.
    pub plan_cache_misses: u64,
    /// Latency histogram of the queries recorded during the interval.
    pub latency: Histogram,
}

/// An aggregate over a trailing window of [`HistorySample`]s: interval
/// deltas summed and interval histograms merged, so QPS / error rate /
/// p95-over-the-window are one method call away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistoryWindow {
    /// Samples aggregated.
    pub samples: usize,
    /// Wall-clock time covered, milliseconds (sum of sample intervals).
    pub dur_ms: u64,
    /// Queries executed in the window.
    pub queries: u64,
    /// Queries that errored in the window.
    pub query_errors: u64,
    /// Plan-cache hits in the window.
    pub plan_cache_hits: u64,
    /// Plan-cache misses in the window.
    pub plan_cache_misses: u64,
    /// Merged latency histogram of the window.
    pub latency: Histogram,
}

impl HistoryWindow {
    /// Queries per second over the window (0 when the window covers no
    /// time).
    pub fn qps(&self) -> f64 {
        if self.dur_ms == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.queries as f64 / (self.dur_ms as f64 / 1_000.0)
            }
        }
    }

    /// Fraction of the window's queries that errored (0 when idle).
    pub fn error_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.query_errors as f64 / self.queries as f64
            }
        }
    }

    /// Fraction of the window's queries slower than `threshold_nanos`
    /// (bucket-granular, like [`Histogram::count_over`]; 0 when idle).
    pub fn slow_rate(&self, threshold_nanos: u64) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.latency.count_over(threshold_nanos) as f64 / self.latency.count().max(1) as f64
            }
        }
    }
}

/// The bounded ring of [`HistorySample`]s plus the cumulative baseline the
/// next delta is computed against. One mutex guards both — sampling is a
/// once-per-interval event, never on the query hot path.
#[derive(Debug)]
pub struct MetricsHistory {
    capacity: usize,
    inner: Mutex<HistoryInner>,
}

#[derive(Debug, Default)]
struct HistoryInner {
    samples: VecDeque<HistorySample>,
    /// Cumulative counter values at the previous sample (the delta base).
    base: Option<MetricsSnapshot>,
    last_ts_ms: u64,
}

impl Default for MetricsHistory {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_HISTORY_CAPACITY)
    }
}

impl MetricsHistory {
    /// A ring holding at most `capacity` samples (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), inner: Mutex::new(HistoryInner::default()) }
    }

    /// Maximum samples the ring retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("history lock poisoned").samples.len()
    }

    /// Whether the ring holds no samples yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records the delta between `snapshot` and the previous sample's
    /// cumulative baseline, stamped `ts_ms`. The oldest sample is dropped
    /// once the ring is full. Counters that moved backwards (a registry
    /// reset between samples) re-anchor: the current cumulative values are
    /// taken as the delta.
    pub fn record(&self, ts_ms: u64, snapshot: MetricsSnapshot) {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        let dur_ms = if inner.base.is_some() { ts_ms.saturating_sub(inner.last_ts_ms) } else { 0 };
        let sample = match &inner.base {
            Some(base) if base.queries <= snapshot.queries => HistorySample {
                ts_ms,
                dur_ms,
                queries: snapshot.queries - base.queries,
                query_errors: snapshot.query_errors.saturating_sub(base.query_errors),
                plan_cache_hits: snapshot.plan_cache_hits.saturating_sub(base.plan_cache_hits),
                plan_cache_misses: snapshot
                    .plan_cache_misses
                    .saturating_sub(base.plan_cache_misses),
                latency: snapshot.query_latency.diff(&base.query_latency),
            },
            // First sample, or the registry was reset: anchor on the
            // current cumulative values.
            _ => HistorySample {
                ts_ms,
                dur_ms,
                queries: snapshot.queries,
                query_errors: snapshot.query_errors,
                plan_cache_hits: snapshot.plan_cache_hits,
                plan_cache_misses: snapshot.plan_cache_misses,
                latency: snapshot.query_latency.clone(),
            },
        };
        if inner.samples.len() == self.capacity {
            inner.samples.pop_front();
        }
        inner.samples.push_back(sample);
        inner.base = Some(snapshot);
        inner.last_ts_ms = ts_ms;
    }

    /// The samples whose timestamp falls inside the trailing window
    /// `(now_ms − window_ms, now_ms]`, oldest first. `window_ms == 0`
    /// returns everything retained.
    pub fn samples(&self, window_ms: u64, now_ms: u64) -> Vec<HistorySample> {
        let cutoff = if window_ms == 0 { 0 } else { now_ms.saturating_sub(window_ms) };
        let inner = self.inner.lock().expect("history lock poisoned");
        inner.samples.iter().filter(|s| s.ts_ms > cutoff || window_ms == 0).cloned().collect()
    }

    /// Aggregates the trailing window into one [`HistoryWindow`].
    pub fn window(&self, window_ms: u64, now_ms: u64) -> HistoryWindow {
        let mut agg = HistoryWindow::default();
        for s in self.samples(window_ms, now_ms) {
            agg.samples += 1;
            agg.dur_ms += s.dur_ms;
            agg.queries += s.queries;
            agg.query_errors += s.query_errors;
            agg.plan_cache_hits += s.plan_cache_hits;
            agg.plan_cache_misses += s.plan_cache_misses;
            agg.latency.merge(&s.latency);
        }
        agg
    }

    /// Drops every sample and the delta baseline.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("history lock poisoned");
        inner.samples.clear();
        inner.base = None;
        inner.last_ts_ms = 0;
    }

    /// Resident bytes of a full ring (capacity × sample size) — the number
    /// bench `a4` reports as the history footprint.
    pub fn approx_max_bytes(&self) -> usize {
        self.capacity * std::mem::size_of::<HistorySample>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn samples_are_deltas_not_cumulative() {
        let reg = MetricsRegistry::new();
        reg.record_query(1_000, true);
        reg.record_query(2_000, true);
        reg.record_history_sample(1_000);
        reg.record_query(4_000, false);
        reg.record_history_sample(2_000);
        let samples = reg.history().samples(0, 2_000);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].queries, 2);
        assert_eq!(samples[0].dur_ms, 0, "first sample anchors the timeline");
        assert_eq!(samples[1].queries, 1);
        assert_eq!(samples[1].query_errors, 1);
        assert_eq!(samples[1].dur_ms, 1_000);
        assert_eq!(samples[1].latency.count(), 1);
        assert_eq!(samples[1].latency.sum(), 4_000);
    }

    #[test]
    fn ring_is_bounded_and_window_filters_by_time() {
        let history = MetricsHistory::with_capacity(3);
        let reg = MetricsRegistry::new();
        for i in 1..=5u64 {
            reg.record_query(1_000, true);
            history.record(i * 1_000, reg.snapshot());
        }
        assert_eq!(history.len(), 3);
        let all = history.samples(0, 5_000);
        assert_eq!(all.first().map(|s| s.ts_ms), Some(3_000));
        // A 2-second trailing window at t=5s keeps ts ∈ {4000, 5000}.
        let w = history.window(2_000, 5_000);
        assert_eq!(w.samples, 2);
        assert_eq!(w.queries, 2);
        assert_eq!(w.dur_ms, 2_000);
        assert!((w.qps() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reset_reanchors_instead_of_underflowing() {
        let reg = MetricsRegistry::new();
        reg.record_query(1_000, true);
        reg.record_history_sample(1_000);
        reg.reset();
        reg.record_query(2_000, true);
        reg.record_history_sample(2_000);
        let samples = reg.history().samples(0, 2_000);
        // History was cleared by reset; the post-reset sample re-anchors.
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].queries, 1);
    }

    #[test]
    fn window_rates() {
        let mut w = HistoryWindow {
            samples: 1,
            dur_ms: 2_000,
            queries: 10,
            query_errors: 1,
            ..HistoryWindow::default()
        };
        for _ in 0..9 {
            w.latency.record(1_000);
        }
        w.latency.record(1 << 20);
        assert!((w.qps() - 5.0).abs() < 1e-9);
        assert!((w.error_rate() - 0.1).abs() < 1e-9);
        assert!((w.slow_rate(1 << 12) - 0.1).abs() < 1e-9);
        assert!(HistoryWindow::default().qps().abs() < 1e-9);
        assert!(HistoryWindow::default().error_rate().abs() < 1e-9);
    }

    #[test]
    fn footprint_is_bounded_by_capacity() {
        let history = MetricsHistory::with_capacity(600);
        // The DESIGN.md §14 sizing claim: a 10-minute ring stays small.
        assert!(history.approx_max_bytes() < 512 * 1024, "{}", history.approx_max_bytes());
    }
}
