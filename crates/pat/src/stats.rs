//! Cost accounting for region-expression evaluation. The paper's efficiency
//! arguments (§6, §7) are about *how much data must be scanned*; the engine
//! therefore counts index work and text bytes touched, and the benchmark
//! harness reports these counters next to wall-clock times.

use std::collections::BTreeMap;
use std::fmt;

/// Counters accumulated while evaluating region expressions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of operator applications, per operator symbol.
    pub op_counts: BTreeMap<&'static str, u64>,
    /// Total regions produced by all operator applications.
    pub regions_produced: u64,
    /// Total regions consumed as operator inputs.
    pub regions_consumed: u64,
    /// Word-index lookups performed.
    pub word_probes: u64,
    /// Match points retrieved from the word index.
    pub match_points: u64,
    /// Bytes of file text actually read (σ never reads text; parsing of
    /// candidate regions, recorded by higher layers, does).
    pub bytes_scanned: u64,
}

impl EvalStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one application of operator `op` with the given input and
    /// output cardinalities.
    pub fn record_op(&mut self, op: &'static str, consumed: usize, produced: usize) {
        *self.op_counts.entry(op).or_insert(0) += 1;
        self.regions_consumed += consumed as u64;
        self.regions_produced += produced as u64;
    }

    /// Records a word-index probe that yielded `points` match points.
    pub fn record_word_probe(&mut self, points: usize) {
        self.word_probes += 1;
        self.match_points += points as u64;
    }

    /// Records `n` bytes of file text read.
    pub fn record_scan(&mut self, n: u64) {
        self.bytes_scanned += n;
    }

    /// Total operator applications.
    pub fn total_ops(&self) -> u64 {
        self.op_counts.values().sum()
    }

    /// Number of applications of a specific operator.
    pub fn ops(&self, op: &str) -> u64 {
        self.op_counts.get(op).copied().unwrap_or(0)
    }

    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        for (k, v) in &other.op_counts {
            *self.op_counts.entry(k).or_insert(0) += v;
        }
        self.regions_produced += other.regions_produced;
        self.regions_consumed += other.regions_consumed;
        self.word_probes += other.word_probes;
        self.match_points += other.match_points;
        self.bytes_scanned += other.bytes_scanned;
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ops={} regions(in={}, out={}) word_probes={} match_points={} bytes_scanned={}",
            self.total_ops(),
            self.regions_consumed,
            self.regions_produced,
            self.word_probes,
            self.match_points,
            self.bytes_scanned
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_totals() {
        let mut s = EvalStats::new();
        s.record_op("⊃", 10, 3);
        s.record_op("⊃", 5, 1);
        s.record_op("σ", 3, 2);
        s.record_word_probe(7);
        s.record_scan(100);
        assert_eq!(s.total_ops(), 3);
        assert_eq!(s.ops("⊃"), 2);
        assert_eq!(s.ops("∪"), 0);
        assert_eq!(s.regions_consumed, 18);
        assert_eq!(s.regions_produced, 6);
        assert_eq!(s.word_probes, 1);
        assert_eq!(s.match_points, 7);
        assert_eq!(s.bytes_scanned, 100);
    }

    #[test]
    fn absorb_merges() {
        let mut a = EvalStats::new();
        a.record_op("⊃", 1, 1);
        let mut b = EvalStats::new();
        b.record_op("⊃", 2, 2);
        b.record_op("∩", 4, 1);
        b.record_scan(5);
        a.absorb(&b);
        assert_eq!(a.ops("⊃"), 2);
        assert_eq!(a.ops("∩"), 1);
        assert_eq!(a.bytes_scanned, 5);
        assert_eq!(a.regions_consumed, 7);
    }

    #[test]
    fn display_is_one_line() {
        let s = EvalStats::new();
        let text = s.to_string();
        assert!(text.contains("ops=0"));
        assert!(!text.contains('\n'));
    }
}
