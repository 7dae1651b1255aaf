//! The plan cache: one plan per query shape.
//!
//! The paper's optimizer (§3.2) works from syntax alone: Theorem 3.6 fixes
//! the most efficient inclusion expression from the RIG, with no
//! statistics involved. A query's plan therefore depends on its constants
//! only through their selector kinds (word or `*` prefix), and on the
//! partial RIG and the indexed names, which do not change while a database
//! lives (`add_file` appends regions under the same names). So the cache
//! keys a plan on the spelling of the query's shape
//! ([`Query::shape`](crate::Query::shape)), and a query server replaying a
//! workload plans each shape once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::plan::Plan;

/// Default entry cap of a [`PlanCache`]. Distinct query shapes per
/// workload are few, so a small cache holds the entire working set of a
/// server.
pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 1024;

/// Counters and gauges of a [`PlanCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped by the FIFO cap.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    map: HashMap<String, Arc<Plan>>,
    order: VecDeque<String>,
}

/// A bounded FIFO cache of shape plans, keyed on the shape's spelling. An
/// entry never goes stale: planning reads only the query and the index
/// spec's RIG and names.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    max_entries: usize,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_PLAN_CACHE_ENTRIES)
    }
}

impl PlanCache {
    /// A cache with the default entry cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// A cache holding at most `max_entries` shapes (clamped to ≥ 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_entries: max_entries.max(1),
        }
    }

    /// Looks up a shape, counting the outcome.
    pub fn get(&self, key: &str) -> Option<Arc<Plan>> {
        let inner = self.inner.lock().expect("plan cache poisoned");
        let found = inner.map.get(key).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Inserts a shape's plan, evicting oldest-first past the cap.
    pub fn insert(&self, key: String, plan: Arc<Plan>) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if inner.map.insert(key.clone(), plan).is_none() {
            inner.order.push_back(key);
        }
        while inner.map.len() > self.max_entries {
            let Some(oldest) = inner.order.pop_front() else { break };
            if inner.map.remove(&oldest).is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Current counters and gauges.
    pub fn stats(&self) -> PlanCacheStats {
        let inner = self.inner.lock().expect("plan cache poisoned");
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ProjPlan;

    fn plan(fingerprint: u64) -> Arc<Plan> {
        let projection = ProjPlan::Objects { var: 0 };
        Arc::new(Plan {
            vars: Vec::new(),
            join: None,
            projection,
            rewrites: Vec::new(),
            fingerprint,
        })
    }

    #[test]
    fn plan_cache_roundtrip_counts_and_evicts() {
        let cache = PlanCache::with_capacity(2);
        assert!(cache.get("k1").is_none());
        cache.insert("k1".into(), plan(1));
        cache.insert("k2".into(), plan(2));
        assert_eq!(cache.get("k1").unwrap().fingerprint, 1);
        cache.insert("k3".into(), plan(3));
        assert!(cache.get("k1").is_none(), "k1 was oldest; evicted");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1));
        assert_eq!(stats.entries, 2);
    }
}
