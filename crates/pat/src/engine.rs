//! The evaluation engine: evaluates [`RegionExpr`]s against a corpus, its
//! word index and a region-index instance — the role the PAT engine plays in
//! the paper ("evaluate these expressions efficiently using the engine of an
//! indexing system").

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Deref;
use std::rc::Rc;

use qof_text::{words, Corpus, Pos, WordIndex};

use crate::{
    direct_included_in_counted, direct_including_counted, CacheSource, EvalStats, Instance,
    OpTrace, Region, RegionExpr, RegionSet, TraceSink, UniverseForest,
};

/// Errors raised during evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The expression references a region name that is not indexed.
    UnknownName(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownName(n) => write!(f, "region name `{n}` is not indexed"),
        }
    }
}

impl std::error::Error for EvalError {}

/// An operand during one evaluation: an indexed name's set, borrowed from
/// the instance, or a computed set shared by the memo and its consumers.
/// Neither is copied until [`Engine::eval`] hands a result out. `flat`
/// records that no member includes another ([`RegionSet::is_flat`]), known
/// without a scan: indexed names carry the instance's bit, and an operator
/// whose output is a subset of its left operand passes that bit on.
/// `indexed` records that every member has its extents in the universe,
/// so the direct-inclusion kernels skip their membership scan: true for
/// names, kept by those same subset operators and by `∪` of two indexed
/// operands.
#[derive(Clone)]
struct Operand<'a> {
    set: Shared<'a>,
    flat: bool,
    indexed: bool,
}

#[derive(Clone)]
enum Shared<'a> {
    Indexed(&'a RegionSet),
    Computed(Rc<RegionSet>),
}

impl Deref for Operand<'_> {
    type Target = RegionSet;

    fn deref(&self) -> &RegionSet {
        match &self.set {
            Shared::Indexed(set) => set,
            Shared::Computed(set) => set,
        }
    }
}

impl Operand<'_> {
    fn computed(set: RegionSet, flat: bool, indexed: bool) -> Self {
        Operand { set: Shared::Computed(Rc::new(set)), flat, indexed }
    }

    /// The owned set; copies only an indexed set or one still shared.
    fn into_set(self) -> RegionSet {
        match self.set {
            Shared::Indexed(set) => set.clone(),
            Shared::Computed(set) => Rc::try_unwrap(set).unwrap_or_else(|set| (*set).clone()),
        }
    }
}

/// The per-call memo of common subexpressions, keyed by the expression
/// nodes of the call's own input.
type Memo<'e, 'a> = HashMap<&'e RegionExpr, Operand<'a>>;

/// Evaluator over one corpus + word index + region-index instance.
///
/// Evaluation is *set-at-a-time*: every operator maps whole region sets, and
/// identical subexpressions within one `eval` call are computed once (the
/// common-subexpression sharing suggested in §5.2). All work is counted into
/// [`EvalStats`], which higher layers read to report scan-volume tradeoffs.
pub struct Engine<'a> {
    corpus: &'a Corpus,
    words: &'a WordIndex,
    instance: &'a Instance,
    stats: RefCell<EvalStats>,
    share: std::cell::Cell<bool>,
    /// Operator trace sink. Every `FileDatabase` query attaches one; an
    /// engine built without one records no spans.
    trace: Option<&'a TraceSink>,
}

impl<'a> Engine<'a> {
    /// Builds an engine over `instance` in O(1). The engine holds no
    /// nesting forest: `⊃d`, `⊂d` and `⊃^n` fetch the instance's shared one
    /// ([`Instance::forest`]) when they run, so only a query with such an
    /// operator can pay for building it.
    pub fn new(corpus: &'a Corpus, words: &'a WordIndex, instance: &'a Instance) -> Self {
        Self {
            corpus,
            words,
            instance,
            stats: RefCell::new(EvalStats::new()),
            share: std::cell::Cell::new(true),
            trace: None,
        }
    }

    /// Attaches an operator trace sink: every subsequent evaluation records
    /// one [`OpTrace`] node per operator application (timings, input/output
    /// cardinalities, bytes scanned, cache outcomes). Detach by rebuilding
    /// the engine.
    pub fn with_trace(mut self, sink: &'a TraceSink) -> Self {
        self.trace = Some(sink);
        self
    }

    /// The corpus under evaluation.
    pub fn corpus(&self) -> &Corpus {
        self.corpus
    }

    /// The region-index instance.
    pub fn instance(&self) -> &Instance {
        self.instance
    }

    /// The instance's universe nesting forest, built here if no caller has
    /// needed it since the instance last changed.
    pub fn forest(&self) -> &'a UniverseForest {
        self.instance.forest()
    }

    /// Accumulated statistics since construction or the last reset.
    pub fn stats(&self) -> EvalStats {
        self.stats.borrow().clone()
    }

    /// Clears the statistics counters.
    pub fn reset_stats(&self) {
        *self.stats.borrow_mut() = EvalStats::new();
    }

    /// Evaluates `expr`, sharing identical subexpressions.
    pub fn eval(&self, expr: &RegionExpr) -> Result<RegionSet, EvalError> {
        let mut memo = Memo::new();
        let out = self.eval_memo(expr, &mut memo)?;
        drop(memo);
        Ok(out.into_set())
    }

    /// Evaluates several expressions through one memo, so subexpressions
    /// they share are evaluated once (§5.2: "find common subexpressions …
    /// and evaluate them once").
    pub fn eval_all(&self, exprs: &[&RegionExpr]) -> Result<Vec<RegionSet>, EvalError> {
        let mut memo = Memo::new();
        let outs =
            exprs.iter().map(|e| self.eval_memo(e, &mut memo)).collect::<Result<Vec<_>, _>>()?;
        drop(memo);
        Ok(outs.into_iter().map(Operand::into_set).collect())
    }

    /// [`Engine::eval`] for a caller that needs only the result regions
    /// lying inside some member of `within` (a projection over a query's
    /// answers). The result holds every such region of `eval(expr)` and
    /// nothing outside `eval(expr)`.
    ///
    /// When `expr` is built from names by `∪` and by `⊂`/`⊂d` with the
    /// filtered set on the left, every operator keeps a subset of its left
    /// side and decides each region on its own. So the leaf names can be
    /// cut down first to the regions inside `within`, and the work follows
    /// `within` instead of the index. A leaf name that also appears on a
    /// right-hand side would change that operand too; such expressions,
    /// and every other shape, are evaluated whole.
    pub fn eval_within(
        &self,
        expr: &RegionExpr,
        within: &RegionSet,
    ) -> Result<RegionSet, EvalError> {
        let (mut leaves, mut operands) = (Vec::new(), Vec::new());
        if !filter_spine(expr, &mut leaves, &mut operands)
            || operands.iter().flat_map(|o| o.names()).any(|n| leaves.iter().any(|(l, _)| *l == n))
        {
            return self.eval(expr);
        }
        let mut memo = Memo::new();
        let within_flat = within.is_flat();
        for (name, leaf) in leaves {
            if memo.contains_key(leaf) {
                continue;
            }
            let set = self.name_set(name)?;
            if let Some(sink) = self.trace {
                sink.enter();
            }
            let (inside, read) = set.included_in_counted(within, within_flat, false);
            self.stats.borrow_mut().record_op("⊂", read, inside.len());
            if let Some(sink) = self.trace {
                sink.exit_with(|children| OpTrace {
                    op: "⊂",
                    detail: format!("{name} within {} regions", within.len()),
                    input: set.len() + within.len(),
                    output: inside.len(),
                    source: CacheSource::Computed,
                    children,
                    ..OpTrace::default()
                });
            }
            memo.insert(leaf, Operand::computed(inside, self.instance.is_flat(name), true));
        }
        let out = self.eval_memo(expr, &mut memo)?;
        drop(memo);
        Ok(out.into_set())
    }

    /// Evaluates `expr` *without* common-subexpression sharing — the
    /// ablation partner of [`Engine::eval`] for measuring what §5.2's
    /// sharing buys.
    pub fn eval_unshared(&self, expr: &RegionExpr) -> Result<RegionSet, EvalError> {
        self.share.set(false);
        let result = self.eval(expr);
        self.share.set(true);
        result
    }

    /// Evaluates `expr` through the memo. With a trace sink attached,
    /// every operator application is timed and filed into it — memo hits
    /// as childless leaves, computed nodes as spans whose children are the
    /// operand evaluations.
    fn eval_memo<'e>(
        &self,
        expr: &'e RegionExpr,
        cache: &mut Memo<'e, 'a>,
    ) -> Result<Operand<'a>, EvalError> {
        if self.share.get() {
            if let Some(hit) = cache.get(expr) {
                if let Some(sink) = self.trace {
                    let (op, detail) = op_parts(expr);
                    sink.leaf(OpTrace {
                        op,
                        detail,
                        output: hit.len(),
                        source: CacheSource::LocalMemo,
                        ..OpTrace::default()
                    });
                }
                return Ok(hit.clone());
            }
        }
        // The sink stamps the span's start/duration and id itself
        // (`enter`/`exit_with`), so the engine keeps no clock of its own.
        let span = self.trace.map(|sink| {
            sink.enter();
            (sink, self.scan_counters())
        });
        let result = self.eval_uncached(expr, cache);
        if let Some((sink, (bytes0, probes0))) = span {
            let (bytes1, probes1) = self.scan_counters();
            let (op, detail) = op_parts(expr);
            let output = result.as_ref().map_or(0, |set| set.len());
            sink.exit_with(|children| OpTrace {
                op,
                detail,
                input: children.iter().map(|c| c.output).sum(),
                output,
                bytes: bytes1 - bytes0,
                probes: probes1 - probes0,
                source: CacheSource::Computed,
                children,
                ..OpTrace::default()
            });
        }
        let result = result?;
        if self.share.get() {
            cache.insert(expr, result.clone());
        }
        Ok(result)
    }

    /// Text bytes scanned and word-index probes so far.
    fn scan_counters(&self) -> (u64, u64) {
        let s = self.stats.borrow();
        (s.bytes_scanned, s.word_probes)
    }

    /// Occurrence spans of a constant, computed index-only. A constant that
    /// is a single indexed word is one probe; anything else — a phrase
    /// ("point algorithm"), a date ("1994-05-12"), an address
    /// ("milo@example.org") — is decomposed into its word runs, and the
    /// word-index positions must line up at the offsets the constant
    /// dictates (the alignment PAT's proximity search would verify).
    fn word_spans(&self, w: &str) -> RegionSet {
        // Word runs of the constant with their offsets.
        let runs: Vec<(Pos, &str)> = words(w, 0).map(|t| (t.span.start, t.text)).collect();
        let Some(&(first_off, first)) = runs.first() else {
            return RegionSet::new();
        };
        if runs.len() == 1 && first_off == 0 && first.len() == w.len() {
            let positions = self.words.positions(w);
            self.stats.borrow_mut().record_word_probe(positions.len());
            let len = w.len() as Pos;
            return RegionSet::from_sorted(
                positions.iter().map(|&p| Region::new(p, p + len)).collect(),
            );
        }
        let firsts = self.words.positions(first);
        // Fetch each later run's posting list once, outside the candidate
        // loop.
        let rest: Vec<(Pos, &[Pos])> =
            runs[1..].iter().map(|&(off, word)| (off, self.words.positions(word))).collect();
        let probes = firsts.len() + rest.len();
        let mut verify_bytes = 0u64;
        let text = self.corpus.text();
        let hits: Vec<Region> = firsts
            .iter()
            .filter_map(|&p| p.checked_sub(first_off))
            .filter(|&base| {
                rest.iter().all(|&(off, list)| list.binary_search(&(base + off)).is_ok())
            })
            .filter(|&base| {
                // Alignment fixes the word runs but not the separator
                // characters; verify the aligned span (PAT would compare the
                // sistring at `base`). Counted as scanned bytes.
                verify_bytes += w.len() as u64;
                text.get(base as usize..).is_some_and(|rest| rest.starts_with(w))
            })
            .map(|base| Region::new(base, base + w.len() as Pos))
            .collect();
        let mut stats = self.stats.borrow_mut();
        stats.record_word_probe(probes);
        stats.record_scan(verify_bytes);
        drop(stats);
        RegionSet::from_regions(hits)
    }

    /// Prefix match points, found by scanning the word-index vocabulary;
    /// each span covers the whole matching word.
    fn prefix_spans(&self, prefix: &str) -> RegionSet {
        let mut spans = Vec::new();
        let mut probes = 0usize;
        for (word, positions) in self.words.iter().filter(|(word, _)| word.starts_with(prefix)) {
            probes += positions.len();
            let len = word.len() as Pos;
            spans.extend(positions.iter().map(|&p| Region::new(p, p + len)));
        }
        self.stats.borrow_mut().record_word_probe(probes);
        RegionSet::from_regions(spans)
    }

    fn name_set(&self, n: &str) -> Result<&'a RegionSet, EvalError> {
        let instance: &'a Instance = self.instance;
        instance.get(n).ok_or_else(|| EvalError::UnknownName(n.to_owned()))
    }

    fn eval_uncached<'e>(
        &self,
        expr: &'e RegionExpr,
        cache: &mut Memo<'e, 'a>,
    ) -> Result<Operand<'a>, EvalError> {
        use RegionExpr::*;
        let record = |op: &'static str, consumed: usize, out: &RegionSet| {
            self.stats.borrow_mut().record_op(op, consumed, out.len());
        };
        // Operators whose output is a subset of their left operand keep its
        // flatness and indexedness; `ι` and `ω` outputs are flat by
        // definition.
        let (out, flat, indexed) = match expr {
            Name(n) => {
                let s = self.name_set(n)?;
                record("name", 0, s);
                let flat = self.instance.is_flat(n);
                return Ok(Operand { set: Shared::Indexed(s), flat, indexed: true });
            }
            Word(w) => {
                let s = self.word_spans(w);
                record("word", 0, &s);
                // Distinct occurrences of one constant share its length.
                (s, true, false)
            }
            Prefix(p) => {
                let s = self.prefix_spans(p);
                record("prefix", 0, &s);
                (s, false, false)
            }
            Union(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let out = x.union(&y);
                record("∪", x.len() + y.len(), &out);
                (out, false, x.indexed && y.indexed)
            }
            Intersect(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = x.intersect_counted(&y);
                record("∩", read, &out);
                (out, x.flat || y.flat, x.indexed || y.indexed)
            }
            Difference(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = x.difference_counted(&y);
                record("−", read, &out);
                (out, x.flat, x.indexed)
            }
            SelectEq(e, w) => {
                let x = self.eval_memo(e, cache)?;
                let occ = self.word_spans(w);
                let (out, read) = x.intersect_counted(&occ);
                record("σ", read, &out);
                (out, true, x.indexed)
            }
            SelectContains(e, w) => {
                let x = self.eval_memo(e, cache)?;
                let occ = self.word_spans(w);
                let (out, read) = x.including_counted(&occ, x.flat, false);
                record("σ∋", read, &out);
                (out, x.flat, x.indexed)
            }
            Innermost(e) => {
                let x = self.eval_memo(e, cache)?;
                let out = x.innermost();
                record("ι", x.len(), &out);
                (out, true, x.indexed)
            }
            Outermost(e) => {
                let x = self.eval_memo(e, cache)?;
                let out = x.outermost();
                record("ω", x.len(), &out);
                (out, true, x.indexed)
            }
            Including(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = x.including_counted(&y, x.flat, false);
                record("⊃", read, &out);
                (out, x.flat, x.indexed)
            }
            IncludedIn(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = x.included_in_counted(&y, y.flat, false);
                record("⊂", read, &out);
                (out, x.flat, x.indexed)
            }
            DirectIncluding(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = direct_including_counted(&x, &y, self.forest(), x.indexed);
                record("⊃d", read, &out);
                (out, x.flat, x.indexed)
            }
            DirectIncludedIn(a, b) => {
                let (x, y) = (self.eval_memo(a, cache)?, self.eval_memo(b, cache)?);
                let (out, read) = direct_included_in_counted(&x, &y, self.forest(), y.indexed);
                record("⊂d", read, &out);
                (out, x.flat, x.indexed)
            }
            NestedExactly { outer, inner, depth } => {
                let (x, y) = (self.eval_memo(outer, cache)?, self.eval_memo(inner, cache)?);
                let (out, read) = self.nested_exactly(&x, &y, *depth);
                record("⊃^n", read, &out);
                (out, x.flat, x.indexed)
            }
        };
        Ok(Operand::computed(out, flat, indexed))
    }

    /// Members of `outer` that include a member of `inner` with exactly
    /// `depth` indexed regions strictly in between, plus the regions read
    /// (enclosure probes, parent steps and the `∩` with `outer`). Exact
    /// when `outer`'s extents are indexed (always true for translated
    /// queries).
    fn nested_exactly(
        &self,
        outer: &RegionSet,
        inner: &RegionSet,
        depth: u32,
    ) -> (RegionSet, usize) {
        let forest = self.forest();
        let (enclosures, mut read) = forest.strict_enclosures(inner);
        // Walk `depth` more strict enclosures up from the first one.
        let candidates: Vec<Region> = enclosures
            .into_iter()
            .flatten()
            .filter_map(|p| {
                read += depth as usize;
                forest.ancestor_at(p, depth).map(|anc| forest.regions()[anc])
            })
            .collect();
        let (out, intersected) = outer.intersect_counted(&RegionSet::from_regions(candidates));
        (out, read + intersected)
    }
}

/// Collects the name leaves and the right-hand operands of `expr` when it
/// is built from names by `∪`, `⊂` and `⊂d` with the filtered set on the
/// left; false for any other shape.
fn filter_spine<'e>(
    expr: &'e RegionExpr,
    leaves: &mut Vec<(&'e str, &'e RegionExpr)>,
    operands: &mut Vec<&'e RegionExpr>,
) -> bool {
    use RegionExpr::*;
    match expr {
        Name(n) => {
            leaves.push((n, expr));
            true
        }
        Union(a, b) => filter_spine(a, leaves, operands) && filter_spine(b, leaves, operands),
        IncludedIn(a, b) | DirectIncludedIn(a, b) => {
            operands.push(b);
            filter_spine(a, leaves, operands)
        }
        _ => false,
    }
}

/// Operator label + argument for a traced node. Labels match the keys used
/// by [`EvalStats::record_op`] so traces and stats aggregate on the same
/// vocabulary.
fn op_parts(expr: &RegionExpr) -> (&'static str, String) {
    use RegionExpr::*;
    match expr {
        Name(n) => ("name", n.clone()),
        Word(w) => ("word", format!("\"{w}\"")),
        Prefix(p) => ("prefix", format!("\"{p}*\"")),
        Union(..) => ("∪", String::new()),
        Intersect(..) => ("∩", String::new()),
        Difference(..) => ("−", String::new()),
        SelectEq(_, w) => ("σ", format!("\"{w}\"")),
        SelectContains(_, w) => ("σ∋", format!("\"{w}\"")),
        Innermost(_) => ("ι", String::new()),
        Outermost(_) => ("ω", String::new()),
        Including(..) => ("⊃", String::new()),
        IncludedIn(..) => ("⊂", String::new()),
        DirectIncluding(..) => ("⊃d", String::new()),
        DirectIncludedIn(..) => ("⊂d", String::new()),
        NestedExactly { depth, .. } => ("⊃^n", format!("depth {depth}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{direct_included_in_naive, direct_including_naive};

    /// A miniature BibTeX-like corpus with a hand-built instance:
    ///
    /// ```text
    /// AUTHOR = Chang . EDITOR = Corliss . AUTHOR = Corliss .
    /// ```
    /// Reference1 = [0, 34), Reference2 = [35, 53) (second "reference")
    fn fixture() -> (Corpus, WordIndex, Instance) {
        //          0         1         2         3         4         5
        //          0123456789012345678901234567890123456789012345678901
        let text = "AUTHOR = Chang . EDITOR = Corliss AUTHOR = Corliss .";
        let corpus = Corpus::from_text(text);
        let words = WordIndex::build(&corpus);
        let mut inst = Instance::new();
        // Two "references": one holding an author+editor, one an author.
        inst.insert(
            "Reference",
            RegionSet::from_regions(vec![Region::new(0, 33), Region::new(34, 52)]),
        );
        inst.insert(
            "Authors",
            RegionSet::from_regions(vec![Region::new(0, 15), Region::new(34, 51)]),
        );
        inst.insert("Editors", RegionSet::from_regions(vec![Region::new(17, 33)]));
        inst.insert(
            "Last_Name",
            RegionSet::from_regions(vec![
                Region::new(9, 14),  // Chang
                Region::new(26, 33), // Corliss (editor)
                Region::new(43, 50), // Corliss (author)
            ]),
        );
        (corpus, words, inst)
    }

    #[test]
    fn engines_share_the_instance_forest() {
        let (c, w, i) = fixture();
        let a = Engine::new(&c, &w, &i);
        let b = Engine::new(&c, &w, &i);
        assert!(std::ptr::eq(a.forest(), b.forest()));
        assert!(std::ptr::eq(a.forest(), i.forest()));
    }

    #[test]
    fn only_forest_operators_build_the_forest() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let authors = || RegionExpr::name("Authors");
        eng.eval(&RegionExpr::name("Reference").including(authors())).unwrap();
        assert!(!i.has_forest(), "set-up and ⊃ need no forest");
        eng.eval(&RegionExpr::name("Reference").direct_including(authors())).unwrap();
        assert!(i.has_forest());
    }

    #[test]
    fn direct_inclusion_answers_for_unindexed_operands_too() {
        // A phrase span is no indexed extent: the kernels must not take it
        // for a universe member (its `indexed` bit stays false). It
        // directly includes the author Corliss, but the editor Corliss only
        // through Editors.
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let universe = i.universe();
        let last = || RegionExpr::name("Last_Name");
        let phrase = || RegionExpr::word("EDITOR = Corliss AUTHOR = Corliss");
        let either = || RegionExpr::name("Authors").union(RegionExpr::name("Editors"));
        let mixed = || either().union(phrase());
        for (r, s) in [(either(), last()), (phrase(), last()), (mixed(), last())] {
            let want =
                direct_including_naive(&eng.eval(&r).unwrap(), &eng.eval(&s).unwrap(), &universe);
            assert_eq!(eng.eval(&r.clone().direct_including(s)).unwrap(), want, "{r:?} ⊃d");
        }
        for (r, s) in [(last(), either()), (last(), phrase()), (last(), mixed())] {
            let want =
                direct_included_in_naive(&eng.eval(&r).unwrap(), &eng.eval(&s).unwrap(), &universe);
            assert_eq!(eng.eval(&r.direct_included_in(s.clone())).unwrap(), want, "⊂d {s:?}");
        }
        let author_corliss = RegionSet::from_regions(vec![Region::new(43, 50)]);
        assert_eq!(eng.eval(&last().direct_included_in(phrase())).unwrap(), author_corliss);
        assert_eq!(
            eng.eval(&phrase().direct_including(last())).unwrap(),
            eng.eval(&phrase()).unwrap()
        );
    }

    #[test]
    fn word_spans_have_word_length() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let s = eng.eval(&RegionExpr::word("Chang")).unwrap();
        assert_eq!(s.as_slice(), &[Region::new(9, 14)]);
        let s = eng.eval(&RegionExpr::word("Corliss")).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn select_eq_matches_exact_regions() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let e = RegionExpr::name("Last_Name").select_eq("Chang");
        let s = eng.eval(&e).unwrap();
        assert_eq!(s.as_slice(), &[Region::new(9, 14)]);
    }

    #[test]
    fn paper_query_authors_chang() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        // Reference ⊃ Authors ⊃ σ_"Chang"(Last_Name)
        let e = RegionExpr::name("Reference").including(
            RegionExpr::name("Authors").including(RegionExpr::name("Last_Name").select_eq("Chang")),
        );
        let s = eng.eval(&e).unwrap();
        assert_eq!(s.as_slice(), &[Region::new(0, 33)]);
        // Corliss as *author* matches only the second reference.
        let e2 = RegionExpr::name("Reference").including(
            RegionExpr::name("Authors")
                .including(RegionExpr::name("Last_Name").select_eq("Corliss")),
        );
        let s2 = eng.eval(&e2).unwrap();
        assert_eq!(s2.as_slice(), &[Region::new(34, 52)]);
    }

    #[test]
    fn eval_within_keeps_the_regions_inside() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let first = RegionSet::from_regions(vec![Region::new(0, 33)]);
        let spine = RegionExpr::name("Last_Name").included_in(RegionExpr::name("Authors"));
        assert_eq!(eng.eval(&spine).unwrap().len(), 2);
        assert_eq!(eng.eval_within(&spine, &first).unwrap().as_slice(), &[Region::new(9, 14)]);
        // A union of spines restricts every leaf.
        let both = spine
            .union(RegionExpr::name("Last_Name").direct_included_in(RegionExpr::name("Editors")));
        assert_eq!(
            eng.eval_within(&both, &first).unwrap().as_slice(),
            &[Region::new(9, 14), Region::new(26, 33)]
        );
        // Other shapes, and a leaf that is also a right-hand operand, are
        // evaluated whole.
        let authors = || RegionExpr::name("Authors");
        for whole in [
            authors().including(RegionExpr::name("Last_Name")),
            authors().included_in(authors().union(RegionExpr::name("Reference"))),
        ] {
            assert_eq!(eng.eval_within(&whole, &first).unwrap(), eng.eval(&whole).unwrap());
        }
    }

    #[test]
    fn without_authors_test_both_references_match() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        // Dropping the Authors test (partial indexing): Corliss matches both.
        let e = RegionExpr::name("Reference")
            .including(RegionExpr::name("Last_Name").select_eq("Corliss"));
        let s = eng.eval(&e).unwrap();
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn select_contains_vs_eq() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let eq = eng.eval(&RegionExpr::name("Authors").select_eq("Chang")).unwrap();
        assert!(eq.is_empty(), "no Authors region IS the word Chang");
        let contains = eng.eval(&RegionExpr::name("Authors").select_contains("Chang")).unwrap();
        assert_eq!(contains.as_slice(), &[Region::new(0, 15)]);
    }

    #[test]
    fn direct_including_through_engine() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        // Reference ⊃d Last_Name fails where Authors/Editors intervene.
        let e = RegionExpr::name("Reference").direct_including(RegionExpr::name("Last_Name"));
        let s = eng.eval(&e).unwrap();
        assert!(s.is_empty());
        let e2 = RegionExpr::name("Authors").direct_including(RegionExpr::name("Last_Name"));
        let s2 = eng.eval(&e2).unwrap();
        assert_eq!(s2.len(), 2);
    }

    #[test]
    fn unknown_name_errors() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let err = eng.eval(&RegionExpr::name("Nope")).unwrap_err();
        assert_eq!(err, EvalError::UnknownName("Nope".into()));
        assert!(err.to_string().contains("Nope"));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let e = RegionExpr::name("Reference")
            .including(RegionExpr::name("Last_Name").select_eq("Chang"));
        eng.eval(&e).unwrap();
        let s = eng.stats();
        assert_eq!(s.ops("⊃"), 1);
        assert_eq!(s.ops("σ"), 1);
        assert_eq!(s.word_probes, 1);
        eng.reset_stats();
        assert_eq!(eng.stats().total_ops(), 0);
    }

    #[test]
    fn unshared_evaluation_repeats_work() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let sub = RegionExpr::name("Last_Name").select_eq("Corliss");
        let e = RegionExpr::name("Authors")
            .including(sub.clone())
            .union(RegionExpr::name("Editors").including(sub));
        let shared = eng.eval(&e).unwrap();
        let ops_shared = eng.stats().ops("σ");
        eng.reset_stats();
        let unshared = eng.eval_unshared(&e).unwrap();
        assert_eq!(shared, unshared, "sharing must not change results");
        assert_eq!(ops_shared, 1);
        assert_eq!(eng.stats().ops("σ"), 2, "without sharing, σ runs twice");
    }

    #[test]
    fn common_subexpressions_evaluate_once() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let sub = RegionExpr::name("Last_Name").select_eq("Corliss");
        let e = RegionExpr::name("Authors")
            .including(sub.clone())
            .union(RegionExpr::name("Editors").including(sub));
        eng.eval(&e).unwrap();
        // σ evaluated once despite two occurrences.
        assert_eq!(eng.stats().ops("σ"), 1);
    }

    #[test]
    fn union_intersect_difference_through_engine() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let a = RegionExpr::name("Authors");
        let b = RegionExpr::name("Editors");
        assert_eq!(eng.eval(&a.clone().union(b.clone())).unwrap().len(), 3);
        assert_eq!(eng.eval(&a.clone().intersect(b.clone())).unwrap().len(), 0);
        assert_eq!(eng.eval(&a.clone().difference(b)).unwrap().len(), 2);
        assert_eq!(eng.eval(&a.clone().difference(a)).unwrap().len(), 0);
    }

    #[test]
    fn innermost_outermost_through_engine() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let all = RegionExpr::name("Reference").union(RegionExpr::name("Last_Name"));
        let inner = eng.eval(&all.clone().innermost()).unwrap();
        assert_eq!(inner.len(), 3); // the three last names
        let outer = eng.eval(&all.outermost()).unwrap();
        assert_eq!(outer.len(), 2); // the two references
    }

    #[test]
    fn prefix_without_suffix_array_scans_vocabulary() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        let s = eng.eval(&RegionExpr::prefix("Cor")).unwrap();
        // Each hit spans the whole matching word.
        assert_eq!(s.as_slice(), &[Region::new(26, 33), Region::new(43, 50)]);
    }

    #[test]
    fn phrase_select_is_index_only() {
        let text = "KEYWORDS = point algorithm; Taylor series";
        let corpus = Corpus::from_text(text);
        let words = WordIndex::build(&corpus);
        let mut inst = Instance::new();
        // The Keyword regions: "point algorithm" and "Taylor series".
        inst.insert(
            "Keyword",
            RegionSet::from_regions(vec![Region::new(11, 26), Region::new(28, 41)]),
        );
        let eng = Engine::new(&corpus, &words, &inst);
        let hit = eng.eval(&RegionExpr::name("Keyword").select_eq("point algorithm")).unwrap();
        assert_eq!(hit.as_slice(), &[Region::new(11, 26)]);
        let miss = eng.eval(&RegionExpr::name("Keyword").select_eq("point series")).unwrap();
        assert!(miss.is_empty());
        // Alignment resolves through the word index; only the final
        // separator verification touches text (one constant-length check
        // per aligned candidate).
        assert!(eng.stats().bytes_scanned <= 2 * "point algorithm".len() as u64);
    }

    #[test]
    fn traced_eval_matches_untraced_and_records_tree() {
        let (c, w, i) = fixture();
        let e = RegionExpr::name("Reference").including(
            RegionExpr::name("Authors").including(RegionExpr::name("Last_Name").select_eq("Chang")),
        );
        let plain = Engine::new(&c, &w, &i).eval(&e).unwrap();
        let sink = TraceSink::new();
        let eng = Engine::new(&c, &w, &i).with_trace(&sink);
        let traced = eng.eval(&e).unwrap();
        assert_eq!(plain, traced, "tracing must not change results");
        let roots = sink.take();
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.op, "⊃");
        assert_eq!(root.output, traced.len());
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.input, root.children.iter().map(|ch| ch.output).sum::<usize>());
        // No repeated subexpressions here, so every node is computed and the
        // tree has exactly one node per recorded operator application.
        assert_eq!(root.node_count() as u64, eng.stats().total_ops());
        // The σ node sits under Authors ⊃ …; its probe shows up in the trace.
        let mut sigma_probes = 0;
        root.walk(&mut |n| {
            if n.op == "σ" {
                sigma_probes = n.probes;
                assert_eq!(n.detail, "\"Chang\"");
            }
        });
        assert_eq!(sigma_probes, 1, "σ probes the word index once");
        assert!(root.probes >= 1, "parent totals include child probes");
    }

    #[test]
    fn traced_memo_hits_become_leaves() {
        let (c, w, i) = fixture();
        let sub = RegionExpr::name("Last_Name").select_eq("Corliss");
        let e = RegionExpr::name("Authors")
            .including(sub.clone())
            .union(RegionExpr::name("Editors").including(sub));
        let sink = TraceSink::new();
        let eng = Engine::new(&c, &w, &i).with_trace(&sink);
        let traced = eng.eval(&e).unwrap();
        assert_eq!(traced, Engine::new(&c, &w, &i).eval(&e).unwrap());
        let roots = sink.take();
        let mut memo_hits = Vec::new();
        roots[0].walk(&mut |n| {
            if n.source == CacheSource::LocalMemo {
                memo_hits.push((n.op, n.output));
            }
        });
        // The second σ occurrence is served by the memo: a childless leaf
        // whose output still reports the set's true cardinality (both
        // Corliss regions — the editor's and the author's).
        assert_eq!(memo_hits, vec![("σ", 2)]);
        // One extra tree node (the memo leaf) relative to computed ops.
        assert_eq!(roots[0].node_count() as u64, eng.stats().total_ops() + 1);
    }

    #[test]
    fn nested_exactly_counts_levels() {
        let (c, w, i) = fixture();
        let eng = Engine::new(&c, &w, &i);
        // Reference ⊃^1 Last_Name: exactly one indexed region (Authors or
        // Editors) between — true for both references.
        let e = RegionExpr::name("Reference").nested_exactly(RegionExpr::name("Last_Name"), 1);
        assert_eq!(eng.eval(&e).unwrap().len(), 2);
        // Depth 0: Reference directly above Last_Name — never.
        let e0 = RegionExpr::name("Reference").nested_exactly(RegionExpr::name("Last_Name"), 0);
        assert!(eng.eval(&e0).unwrap().is_empty());
        // Authors ⊃^0 Last_Name — direct, both author groups.
        let ea = RegionExpr::name("Authors").nested_exactly(RegionExpr::name("Last_Name"), 0);
        assert_eq!(eng.eval(&ea).unwrap().len(), 2);
    }
}
