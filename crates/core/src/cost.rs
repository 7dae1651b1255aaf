//! Statistics-driven cost estimation and plan caching.
//!
//! The paper's optimizer (§3.2) is purely syntactic: it rewrites toward a
//! normal form licensed by the RIG alone. But the normal form is not always
//! unique (see [`crate::optimizer`]'s counterexample), and when several
//! certified-equivalent forms exist, they differ in *work*: each retained
//! middle name costs a merge pass over its region set. This module supplies
//! the missing half — index statistics gathered at build time
//! ([`StatsStore`]), a cost model over inclusion chains
//! ([`StatsStore::estimate_chain`]), and a [`PlanCache`] that memoizes the
//! optimize-and-certify work per lowered chain so a query server replaying
//! the same workload plans each shape once per statistics epoch.
//!
//! Cost unit: *regions consumed*, the same currency the engine's
//! [`EvalStats`](qof_pat::EvalStats) counters report, plus a discounted
//! bytes-scanned term for selector hops that force text reads downstream.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qof_pat::{CardObservations, Instance, OpTrace};
use qof_text::WordIndex;

use crate::plan::PlanRewrite;
use crate::trace::QueryTrace;
use crate::{ChainOp, InclusionExpr, Rig};

/// Default entry cap of a [`PlanCache`]. Distinct chain shapes per
/// workload are few (one per query path run), so a small cache holds the
/// entire working set of a server.
pub const DEFAULT_PLAN_CACHE_ENTRIES: usize = 1024;

/// Minimum observations of an operator before its observed mean output is
/// blended into the static estimate (guards against one unlucky query
/// skewing the model).
const MIN_CALIBRATION_OBS: u64 = 16;

/// Minimum observations of an operator *under one fingerprint* before the
/// per-fingerprint mean outranks the global blend. Lower than
/// [`MIN_CALIBRATION_OBS`]: within one query shape the samples are far
/// less noisy than across the whole workload.
const MIN_FP_CALIBRATION_OBS: u64 = 4;

/// Maximum fingerprints the per-fingerprint calibration map tracks —
/// matches the workload table's top-K, and bounds memory the same way.
const MAX_FP_CALIBRATION_ENTRIES: usize = 64;

/// Weight of one scanned text byte relative to one consumed region in the
/// scalar cost (scanning is streaming; region merging does comparisons).
const BYTE_WEIGHT: f64 = 0.01;

/// Extra per-region factor charged to a *direct* inclusion hop: `⊃d`
/// consults the nesting forest for parenthood instead of a plain ordered
/// merge.
const DIRECT_PENALTY: f64 = 2.0;

/// Comparison-cost factor of a galloping (exponential-search) probe
/// relative to one linear-sweep step — the constant behind the engine's
/// 16× skew crossover in `RegionSet::intersect`/`difference`.
const GALLOP_FACTOR: f64 = 4.0;

/// The cost of merging two sorted region sets of sizes `a` and `b`, as
/// the engine actually executes it: the linear sweep touches `a + b`
/// regions, but past a 16× size skew the engine drives from the small
/// side and gallops through the big one, touching about `min · log₂ max`
/// instead. That holds for `∩` and `−`, and for `⊃`/`⊂` whenever the
/// operand the kernel probes is flat (records and fields, not recursive
/// structure) or, for `⊂`, the right side is the small one. The estimator
/// takes whichever is cheaper, so plan ranking rewards skewed
/// (gallop-friendly) operand pairs.
fn merge_cost(a: f64, b: f64) -> f64 {
    let (small, large) = if a <= b { (a, b) } else { (b, a) };
    let sweep = small + large;
    let gallop = GALLOP_FACTOR * small * large.max(2.0).log2();
    sweep.min(gallop)
}

/// A cost breakdown for one inclusion chain, in the engine's own counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostEstimate {
    /// Estimated regions consumed as operator inputs across the chain.
    pub regions_consumed: f64,
    /// Estimated text bytes the candidates force downstream phases to
    /// read (candidate parsing is proportional to surviving bytes).
    pub bytes_scanned: f64,
    /// Estimated output cardinality of the whole chain.
    pub output_card: f64,
}

impl CostEstimate {
    /// Collapses the breakdown to one comparable scalar.
    pub fn scalar(&self) -> f64 {
        self.regions_consumed + BYTE_WEIGHT * self.bytes_scanned
    }
}

/// Per-name index statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct NameStats {
    regions: u64,
    /// Mean region length in bytes.
    mean_bytes: f64,
}

/// Index statistics gathered at build time and refreshed from query
/// traces: per-nonterminal region counts and mean extents, per-word
/// posting counts (selectivities), RIG fan-out, and a running record of
/// observed operator output cardinalities
/// ([`CardObservations`]) that calibrates the static model.
///
/// The `epoch` advances whenever the underlying index changes
/// (`add_file`); consumers that memoize per-epoch results (the
/// [`PlanCache`]) must invalidate on a bump.
#[derive(Debug, Default)]
pub struct StatsStore {
    epoch: u64,
    names: BTreeMap<String, NameStats>,
    total_regions: u64,
    word_freqs: BTreeMap<String, u64>,
    total_postings: u64,
    fan_out: BTreeMap<String, usize>,
    observations: Mutex<CardObservations>,
    /// Per-fingerprint operator observations (trace schema v6): hot query
    /// shapes calibrate independently of the global blend. Bounded at
    /// [`MAX_FP_CALIBRATION_ENTRIES`]; the least-observed fingerprint is
    /// evicted on overflow.
    per_fp: Mutex<BTreeMap<u64, CardObservations>>,
}

impl StatsStore {
    /// An empty store (epoch 0): every estimate degrades to a neutral
    /// constant, so cost ranking becomes a no-op tie.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gathers statistics from a freshly built index.
    pub fn from_index(instance: &Instance, words: &WordIndex, rig: &Rig) -> Self {
        let mut store = StatsStore::new();
        store.refresh_from_index(instance, words, rig);
        store
    }

    /// Re-gathers the index-derived statistics (after `add_file`) and
    /// advances the epoch. Observed operator cardinalities survive the
    /// refresh: they describe the workload, not the corpus.
    pub fn refresh_from_index(&mut self, instance: &Instance, words: &WordIndex, rig: &Rig) {
        self.names.clear();
        self.total_regions = 0;
        for (name, set) in instance.iter() {
            let count = set.len() as u64;
            let bytes: u64 = set.iter().map(|r| u64::from(r.len())).sum();
            #[allow(clippy::cast_precision_loss)]
            let mean_bytes = if count == 0 { 0.0 } else { bytes as f64 / count as f64 };
            self.names.insert(name.to_owned(), NameStats { regions: count, mean_bytes });
            self.total_regions += count;
        }
        self.word_freqs.clear();
        self.total_postings = 0;
        for (word, positions) in words.iter() {
            let f = positions.len() as u64;
            self.word_freqs.insert(word.to_owned(), f);
            self.total_postings += f;
        }
        self.fan_out.clear();
        for node in rig.nodes() {
            self.fan_out.insert(node.to_owned(), rig.successors(node).len());
        }
        self.epoch += 1;
    }

    /// The statistics epoch: 0 for an empty store, bumped by every
    /// [`StatsStore::refresh_from_index`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Indexed regions of `name` (0 when unknown).
    pub fn region_count(&self, name: &str) -> u64 {
        self.names.get(name).map_or(0, |s| s.regions)
    }

    /// Total regions across all indexed names.
    pub fn total_regions(&self) -> u64 {
        self.total_regions
    }

    /// Posting count of `word` (0 when absent from the corpus).
    pub fn word_frequency(&self, word: &str) -> u64 {
        self.word_freqs.get(word).copied().unwrap_or(0)
    }

    /// Fraction of all postings carrying `word` — the classic selectivity.
    #[allow(clippy::cast_precision_loss)]
    pub fn word_selectivity(&self, word: &str) -> f64 {
        if self.total_postings == 0 {
            0.0
        } else {
            self.word_frequency(word) as f64 / self.total_postings as f64
        }
    }

    /// RIG fan-out (successor count) of `name`.
    pub fn fan_out(&self, name: &str) -> usize {
        self.fan_out.get(name).copied().unwrap_or(0)
    }

    /// Feeds one completed query trace back into the model: every operator
    /// node's observed output cardinality accumulates into the
    /// per-operator running means, globally and under the trace's
    /// fingerprint (v6), so hot shapes build their own calibration
    /// independent of the global blend. Fingerprint 0 means "not stamped"
    /// and feeds the global means only.
    pub fn observe_trace(&self, trace: &QueryTrace) {
        fn walk(
            ops: &[OpTrace],
            global: &mut CardObservations,
            mut shape: Option<&mut CardObservations>,
        ) {
            for op in ops {
                global.observe(op.op, op.output as u64);
                if let Some(shape) = shape.as_deref_mut() {
                    shape.observe(op.op, op.output as u64);
                }
                walk(&op.children, global, shape.as_deref_mut());
            }
        }
        let mut global = self.observations.lock().expect("stats observations poisoned");
        let mut map = self.per_fp.lock().expect("per-fp observations poisoned");
        let shape = (trace.fingerprint != 0).then(|| {
            if !map.contains_key(&trace.fingerprint) && map.len() >= MAX_FP_CALIBRATION_ENTRIES {
                // Evict the least-observed fingerprint (lowest key on
                // ties — deterministic).
                if let Some(victim) =
                    map.iter().min_by_key(|(fp, o)| (o.total(), **fp)).map(|(fp, _)| *fp)
                {
                    map.remove(&victim);
                }
            }
            map.entry(trace.fingerprint).or_default()
        });
        walk(&trace.ops, &mut global, shape);
    }

    /// A snapshot of the accumulated operator observations.
    pub fn observations(&self) -> CardObservations {
        self.observations.lock().expect("stats observations poisoned").clone()
    }

    /// A snapshot of the observations accumulated under `fingerprint`,
    /// `None` until a trace with that fingerprint has been observed (or
    /// after eviction by the bounded map).
    pub fn fp_observations(&self, fingerprint: u64) -> Option<CardObservations> {
        self.per_fp.lock().expect("per-fp observations poisoned").get(&fingerprint).cloned()
    }

    /// Blends a static per-hop output estimate with the observed mean for
    /// the operator once enough observations exist.
    fn calibrated(&self, op: &str, structural: f64) -> f64 {
        let obs = self.observations.lock().expect("stats observations poisoned");
        match obs.mean(op) {
            Some(mean) if obs.count(op) >= MIN_CALIBRATION_OBS => (structural + mean) / 2.0,
            _ => structural,
        }
    }

    /// [`StatsStore::calibrated`], preferring the per-fingerprint mean
    /// when the shape has enough of its own history (trace schema v6's
    /// feedback loop). `fingerprint` 0 always falls through to the global
    /// blend.
    fn calibrated_fp(&self, fingerprint: u64, op: &str, structural: f64) -> f64 {
        if fingerprint != 0 {
            let map = self.per_fp.lock().expect("per-fp observations poisoned");
            if let Some(obs) = map.get(&fingerprint) {
                if obs.count(op) >= MIN_FP_CALIBRATION_OBS {
                    if let Some(mean) = obs.mean(op) {
                        return (structural + mean) / 2.0;
                    }
                }
            }
        }
        self.calibrated(op, structural)
    }

    /// Estimates the work of evaluating one inclusion chain bottom-up
    /// (deepest name first, the engine's own order). Each `⊃` hop is a
    /// merge over both operand sets; each `⊃d` hop additionally walks the
    /// nesting forest ([`DIRECT_PENALTY`]); a selector shrinks the deepest
    /// set by the word's posting count.
    #[allow(clippy::cast_precision_loss)]
    pub fn estimate_chain(&self, expr: &InclusionExpr) -> CostEstimate {
        self.estimate_chain_fp(expr, 0)
    }

    /// [`StatsStore::estimate_chain`] with per-fingerprint calibration:
    /// once `fingerprint` has accumulated its own operator history, the
    /// shape's means replace the workload-wide blend. `fingerprint` 0
    /// behaves exactly like [`StatsStore::estimate_chain`].
    #[allow(clippy::cast_precision_loss)]
    pub fn estimate_chain_fp(&self, expr: &InclusionExpr, fingerprint: u64) -> CostEstimate {
        let names = expr.names();
        let ops = expr.ops();
        let deepest = names.last().map(String::as_str).unwrap_or_default();
        let deep_count = self.region_count(deepest) as f64;
        let mut consumed = 0.0;
        // Selector: σ_w probes the word index and intersects with the
        // deepest name's regions.
        let mut cur = match expr.selector() {
            Some((_, word)) => {
                let freq = self.word_frequency(word) as f64;
                consumed += merge_cost(deep_count, freq);
                self.calibrated_fp(fingerprint, "σ", freq.min(deep_count))
            }
            None => deep_count,
        };
        // Hops from the deepest name outward.
        for i in (0..ops.len()).rev() {
            let outer = self.region_count(&names[i]) as f64;
            let hop = merge_cost(outer, cur);
            match ops[i] {
                ChainOp::Incl => {
                    consumed += hop;
                    cur = self.calibrated_fp(fingerprint, "⊃", outer.min(cur));
                }
                ChainOp::Direct => {
                    consumed += hop * DIRECT_PENALTY;
                    cur = self.calibrated_fp(fingerprint, "⊃d", outer.min(cur));
                }
            }
        }
        let head = names.first().map(String::as_str).unwrap_or_default();
        let head_bytes = self.names.get(head).map_or(0.0, |s| s.mean_bytes);
        CostEstimate {
            regions_consumed: consumed,
            bytes_scanned: cur * head_bytes,
            output_card: cur,
        }
    }

    /// The scalar plan-ranking cost of a chain — what
    /// [`optimize_costed`](crate::optimize_costed) minimizes over the
    /// enumerated normal forms.
    pub fn estimate_cost(&self, expr: &InclusionExpr) -> f64 {
        self.estimate_chain(expr).scalar()
    }

    /// The scalar cost with per-fingerprint calibration — what the
    /// planner's cost-ranked lowering minimizes for a known chain shape.
    pub fn estimate_cost_fp(&self, expr: &InclusionExpr, fingerprint: u64) -> f64 {
        self.estimate_chain_fp(expr, fingerprint).scalar()
    }
}

/// The memoized result of lowering one optimizer run: the chosen
/// expression, the certified rewrite records, and whether the run was
/// accepted as provably empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedChain {
    /// The lowered (cost-ranked, certified) inclusion expression.
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
    /// The statistics epoch the resident entries belong to.
    pub epoch: u64,
}

#[derive(Debug, Default)]
struct PlanCacheInner {
    map: HashMap<String, CachedChain>,
    order: VecDeque<String>,
}

/// A bounded FIFO cache of per-chain lowering results, keyed on the
/// chain's normalized region-expression spelling (callers build the key
/// with [`PlanCache::chain_key`]). Entries belong to one statistics epoch:
/// [`PlanCache::bump_epoch`] clears them all, so a stale plan can never
/// outlive the index state it was ranked against.
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
    epoch: AtomicU64,
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
            epoch: AtomicU64::new(0),
            max_entries: max_entries.max(1),
        }
    }

    /// The canonical cache key of one lowering: the chain's *normalized*
    /// region-expression spelling (so commutative re-spellings share an
    /// entry).
    pub fn chain_key(expr: &InclusionExpr) -> String {
        expr.to_region_expr().normalized().to_string()
    }

    /// The epoch the resident entries belong to.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// Invalidates every entry and advances the epoch — called when the
    /// index (and therefore the statistics a ranking was based on)
    /// changes. Counters survive: they describe the process lifetime.
    pub fn bump_epoch(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.order.clear();
        self.routes.lock().expect("plan cache poisoned").clear();
        self.epoch.fetch_add(1, Ordering::Relaxed);
    }

    /// The planner's §6.3 uniqueness verdict for the hop `from → to`,
    /// running `search` only on the first request of the epoch. A verdict
    /// depends on the grammar and the indexed names alone, which change
    /// only with the index, and so only with the epoch.
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
            epoch: self.epoch.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry without advancing the epoch (used when execution
    /// options change under the same index). Route verdicts stay: they
    /// depend on the index alone.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("plan cache poisoned");
        inner.map.clear();
        inner.order.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, SelectKind};

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(ToString::to_string).collect()
    }

    fn chain(v: &[&str]) -> InclusionExpr {
        let ops = vec![ChainOp::Incl; v.len() - 1];
        InclusionExpr::including(names(v), ops, None)
    }

    fn store_with(counts: &[(&str, u64)]) -> StatsStore {
        let mut store = StatsStore::new();
        for &(name, regions) in counts {
            store.names.insert(name.to_owned(), NameStats { regions, mean_bytes: 10.0 });
            store.total_regions += regions;
        }
        store.epoch = 1;
        store
    }

    #[test]
    fn empty_store_ranks_everything_equal() {
        let store = StatsStore::new();
        assert_eq!(store.epoch(), 0);
        let a = store.estimate_cost(&chain(&["A", "B", "C"]));
        let b = store.estimate_cost(&chain(&["A", "X", "C"]));
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn bigger_middle_sets_cost_more() {
        let store = store_with(&[("A", 10), ("B", 1000), ("E", 5), ("F", 50)]);
        let via_b = store.estimate_cost(&chain(&["A", "B", "F"]));
        let via_e = store.estimate_cost(&chain(&["A", "E", "F"]));
        assert!(via_e < via_b, "the small middle set must win: via_e={via_e} via_b={via_b}");
    }

    #[test]
    fn direct_hops_cost_more_than_weak_hops() {
        let store = store_with(&[("A", 100), ("B", 100)]);
        let weak = InclusionExpr::including(names(&["A", "B"]), vec![ChainOp::Incl], None);
        let direct = InclusionExpr::all_direct(Direction::Including, names(&["A", "B"]), None);
        assert!(store.estimate_cost(&direct) > store.estimate_cost(&weak));
    }

    #[test]
    fn selector_uses_word_frequency() {
        let mut store = store_with(&[("A", 100), ("B", 1000)]);
        store.word_freqs.insert("rare".into(), 2);
        store.word_freqs.insert("common".into(), 500);
        store.total_postings = 502;
        let sel = |w: &str| {
            InclusionExpr::including(
                names(&["A", "B"]),
                vec![ChainOp::Incl],
                Some((SelectKind::Eq, w.into())),
            )
        };
        let rare = store.estimate_chain(&sel("rare"));
        let common = store.estimate_chain(&sel("common"));
        assert!(rare.output_card < common.output_card);
        assert!(rare.scalar() < common.scalar());
        assert!((store.word_selectivity("rare") - 2.0 / 502.0).abs() < 1e-12);
    }

    #[test]
    fn observations_calibrate_estimates_after_enough_traces() {
        let store = store_with(&[("A", 100), ("B", 100)]);
        let e = chain(&["A", "B"]);
        let before = store.estimate_chain(&e).output_card;
        {
            let mut obs = store.observations.lock().unwrap();
            for _ in 0..MIN_CALIBRATION_OBS {
                obs.observe("⊃", 10);
            }
        }
        let after = store.estimate_chain(&e).output_card;
        assert!((before - 100.0).abs() < 1e-9);
        assert!((after - 55.0).abs() < 1e-9, "blend of 100 structural and 10 observed");
    }

    #[test]
    fn per_fingerprint_calibration_beats_global_blend() {
        let store = store_with(&[("A", 100), ("B", 100)]);
        let e = chain(&["A", "B"]);
        // Global blend: heavily skewed by a noisy mixed workload.
        {
            let mut obs = store.observations.lock().unwrap();
            for _ in 0..MIN_CALIBRATION_OBS {
                obs.observe("⊃", 90);
            }
        }
        // One hot shape consistently produces 10 — feed it through the
        // public trace path so eviction and bounding are exercised too.
        let fp = 0xfeed;
        for _ in 0..MIN_FP_CALIBRATION_OBS {
            let trace = QueryTrace {
                fingerprint: fp,
                ops: vec![OpTrace { op: "⊃", output: 10, ..OpTrace::default() }],
                ..QueryTrace::default()
            };
            store.observe_trace(&trace);
        }
        let global = store.estimate_chain(&e).output_card;
        let shaped = store.estimate_chain_fp(&e, fp).output_card;
        // The fingerprinted traces feed the global pool too: 16 obs of 90
        // plus 4 of 10 average to 74, blended with the structural 100.
        assert!((global - 87.0).abs() < 1e-9, "blend of 100 structural and 74 observed");
        assert!((shaped - 55.0).abs() < 1e-9, "blend of 100 structural and 10 per-fp observed");
        // Unknown and zero fingerprints fall back to the global blend.
        assert!((store.estimate_chain_fp(&e, 0x9999).output_card - global).abs() < 1e-9);
        assert!((store.estimate_chain_fp(&e, 0).output_card - global).abs() < 1e-9);
        let obs = store.fp_observations(fp).expect("fingerprint observed");
        assert_eq!(obs.count("⊃"), MIN_FP_CALIBRATION_OBS);
    }

    #[test]
    fn per_fingerprint_map_is_bounded() {
        let store = StatsStore::new();
        let trace_for = |fp: u64, n: usize| QueryTrace {
            fingerprint: fp,
            ops: vec![OpTrace { op: "⊃", output: 5, ..OpTrace::default() }; n],
            ..QueryTrace::default()
        };
        // A heavy fingerprint, then a full sweep of one-shot shapes.
        store.observe_trace(&trace_for(1, 8));
        for fp in 2..=(MAX_FP_CALIBRATION_ENTRIES as u64 + 8) {
            store.observe_trace(&trace_for(fp, 1));
        }
        let map = store.per_fp.lock().unwrap();
        assert!(map.len() <= MAX_FP_CALIBRATION_ENTRIES, "map stays bounded: {}", map.len());
        assert!(map.contains_key(&1), "the heavy fingerprint survives eviction");
        drop(map);
        // Fingerprint 0 is never tracked.
        store.observe_trace(&trace_for(0, 3));
        assert!(store.fp_observations(0).is_none());
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
    fn bump_epoch_clears_entries_but_not_counters() {
        let cache = PlanCache::new();
        cache.insert(
            "k".into(),
            CachedChain { expr: chain(&["A", "B"]), rewrites: Vec::new(), empty: false },
        );
        assert!(cache.get("k").is_some());
        cache.bump_epoch();
        assert_eq!(cache.epoch(), 1);
        assert!(cache.get("k").is_none());
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn chain_key_is_the_normalized_chain_spelling() {
        let e = chain(&["A", "B"]);
        assert_eq!(PlanCache::chain_key(&e), e.to_region_expr().normalized().to_string());
        assert_eq!(PlanCache::chain_key(&e), PlanCache::chain_key(&chain(&["A", "B"])));
        let direct = InclusionExpr::including(names(&["A", "B"]), vec![ChainOp::Direct], None);
        assert_ne!(PlanCache::chain_key(&e), PlanCache::chain_key(&direct));
    }
}
