//! The plan cache: memoized per-chain lowerings and §6.3 route verdicts.
//!
//! The paper's optimizer (§3.2) works from syntax alone: Theorem 3.6 fixes
//! the most efficient inclusion expression from the RIG, with no
//! statistics involved. A chain's lowering (optimize + certify) therefore
//! depends only on the chain and the partial RIG, and a route verdict only
//! on the grammar and the indexed name set. Neither changes while a
//! database lives (`add_file` appends regions under the same names), so a
//! query server replaying a workload plans each shape once.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::plan::PlanRewrite;
use crate::InclusionExpr;

/// Default entry cap of a [`PlanCache`]. Distinct chain shapes per
/// workload are few (one per query path run), so a small cache holds the
/// entire working set of a server.
pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 1024;

/// The memoized result of lowering one optimizer run: the chosen
/// expression, the certified rewrite records, and whether the run was
/// accepted as provably empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedChain {
    /// The lowered (optimized, certified) inclusion expression.
    pub expr: InclusionExpr,
    /// The rewrite records the planner would re-derive, in order.
    pub rewrites: Vec<PlanRewrite>,
    /// Whether the run is accepted trivially empty (Proposition 3.3).
    pub empty: bool,
}

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
    map: HashMap<String, CachedChain>,
    order: VecDeque<String>,
}

/// A bounded FIFO cache of per-chain lowering results, keyed on the
/// chain's region-expression spelling (callers build the key with
/// [`PlanCache::chain_key`]). An entry never goes stale: the lowering
/// reads only the chain and the partial RIG, which is fixed by the
/// database's index spec.
///
/// Beside the lowerings it keeps the planner's §6.3 route verdicts
/// ([`PlanCache::route`]), which the planner needs before it can form a
/// chain key, so that a cached plan runs no route search.
#[derive(Debug)]
pub struct PlanCache {
    inner: Mutex<PlanCacheInner>,
    /// Route verdicts by hop: `routes[from][to]`.
    routes: Mutex<HashMap<String, HashMap<String, bool>>>,
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

    /// A cache holding at most `max_entries` chains (clamped to ≥ 1).
    pub fn with_capacity(max_entries: usize) -> Self {
        PlanCache {
            inner: Mutex::new(PlanCacheInner::default()),
            routes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            max_entries: max_entries.max(1),
        }
    }

    /// The cache key of one lowering: the chain's region-expression
    /// spelling. A chain has one spelling: its hops are `⊃`/`⊂` (direct
    /// or not) in chain order, and its only other operator is a prefix
    /// selector's `Name ∩ Prefix`.
    pub fn chain_key(expr: &InclusionExpr) -> String {
        expr.to_region_expr().to_string()
    }

    /// The planner's §6.3 uniqueness verdict for the hop `from → to`,
    /// running `search` only on its first request. A verdict depends on
    /// the grammar and the indexed names alone, and neither changes.
    pub fn route(&self, from: &str, to: &str, search: impl FnOnce() -> bool) -> bool {
        let known = self
            .routes
            .lock()
            .expect("plan cache poisoned")
            .get(from)
            .and_then(|tos| tos.get(to))
            .copied();
        if let Some(verdict) = known {
            return verdict;
        }
        let verdict = search();
        self.routes
            .lock()
            .expect("plan cache poisoned")
            .entry(from.to_owned())
            .or_default()
            .insert(to.to_owned(), verdict);
        verdict
    }

    /// Looks up a chain, counting the outcome.
    pub fn get(&self, key: &str) -> Option<CachedChain> {
        let inner = self.inner.lock().expect("plan cache poisoned");
        match inner.map.get(key) {
            Some(chain) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(chain.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a lowering result, evicting oldest-first past the cap.
    pub fn insert(&self, key: String, chain: CachedChain) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        if inner.map.insert(key.clone(), chain).is_none() {
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
    use crate::ChainOp;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    fn chain(v: &[&str]) -> InclusionExpr {
        let ops = vec![ChainOp::Incl; v.len() - 1];
        InclusionExpr::including(names(v), ops, None)
    }

    #[test]
    fn plan_cache_roundtrip_counts_and_evicts() {
        let cache = PlanCache::with_capacity(2);
        let entry = |tag: &str| CachedChain {
            expr: chain(&["A", tag]),
            rewrites: Vec::new(),
            empty: false,
        };
        assert!(cache.get("k1").is_none());
        cache.insert("k1".into(), entry("B"));
        cache.insert("k2".into(), entry("C"));
        assert_eq!(cache.get("k1").unwrap().expr, chain(&["A", "B"]));
        cache.insert("k3".into(), entry("D"));
        assert!(cache.get("k1").is_none(), "k1 was oldest; evicted");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 1));
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn chain_key_is_the_normalized_chain_spelling() {
        let e = chain(&["A", "B"]);
        assert_eq!(PlanCache::chain_key(&e), "A ⊃ B");
        assert_eq!(PlanCache::chain_key(&e), PlanCache::chain_key(&chain(&["A", "B"])));
        let direct = InclusionExpr::including(names(&["A", "B"]), vec![ChainOp::Direct], None);
        assert_ne!(PlanCache::chain_key(&e), PlanCache::chain_key(&direct));
    }
}
