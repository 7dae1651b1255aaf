//! Program source files — "programs" are on the paper's list of
//! semi-structured sources, and querying software-engineering data was one
//! of the Hy+ system's applications (§1). A toy imperative language whose
//! `if` blocks nest statements recursively, giving the RIG a cycle:
//!
//! ```text
//! fn parse_header () {
//! call tokenize
//! if {
//! call emit_error
//! }
//! }
//! ```

use crate::rng::{Rng, StdRng};
use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};
use std::fmt::Write as _;

use crate::vocab::WORDS;

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct CodeConfig {
    /// Number of functions.
    pub n_functions: usize,
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of statements per block.
    pub stmts: (usize, usize),
    /// Maximum `if` nesting depth.
    pub max_depth: usize,
    /// Probability (0–100) that a statement is an `if` block.
    pub if_percent: u32,
}

impl Default for CodeConfig {
    fn default() -> Self {
        Self { n_functions: 30, seed: 5, stmts: (1, 4), max_depth: 2, if_percent: 25 }
    }
}

/// Ground truth for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionTruth {
    /// The function name.
    pub name: String,
    /// Callees of top-level call statements.
    pub direct_calls: Vec<String>,
    /// Callees at any nesting depth.
    pub all_calls: Vec<String>,
}

/// Ground truth for a source file.
#[derive(Debug, Clone, Default)]
pub struct CodeTruth {
    /// Functions in file order.
    pub functions: Vec<FunctionTruth>,
}

impl CodeTruth {
    /// Names of functions with a *direct* call to `callee`.
    pub fn direct_callers(&self, callee: &str) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.direct_calls.iter().any(|c| c == callee))
            .map(|f| f.name.as_str())
            .collect()
    }

    /// Names of functions calling `callee` at any depth.
    pub fn all_callers(&self, callee: &str) -> Vec<&str> {
        self.functions
            .iter()
            .filter(|f| f.all_calls.iter().any(|c| c == callee))
            .map(|f| f.name.as_str())
            .collect()
    }
}

fn fn_name(i: usize) -> String {
    format!("{}_{}", WORDS[i % WORDS.len()], i)
}

fn gen_block(
    rng: &mut StdRng,
    cfg: &CodeConfig,
    depth: usize,
    out: &mut String,
    direct: &mut Vec<String>,
    all: &mut Vec<String>,
) {
    let n = rng.random_range(cfg.stmts.0..=cfg.stmts.1.max(cfg.stmts.0));
    for _ in 0..n {
        let nested = depth < cfg.max_depth && rng.random_range(0..100) < cfg.if_percent as usize;
        if nested {
            out.push_str("if {\n");
            gen_block(rng, cfg, depth + 1, out, &mut Vec::new(), all);
            out.push_str("}\n");
        } else {
            let callee = fn_name(rng.random_range(0..cfg.n_functions.max(1)));
            let _ = writeln!(out, "call {callee}");
            if depth == 0 {
                direct.push(callee.clone());
            }
            all.push(callee);
        }
    }
}

/// Generates a source file and its ground truth.
pub fn generate(cfg: &CodeConfig) -> (String, CodeTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = String::new();
    let mut truth = CodeTruth::default();
    for i in 0..cfg.n_functions {
        let name = fn_name(i);
        let _ = writeln!(out, "fn {name} () {{");
        let mut direct = Vec::new();
        let mut all = Vec::new();
        gen_block(&mut rng, cfg, 0, &mut out, &mut direct, &mut all);
        out.push_str("}\n");
        // `all` collects calls in generation order; nested calls recorded
        // through the shared accumulator.
        truth.functions.push(FunctionTruth { name, direct_calls: direct, all_calls: all });
    }
    (out, truth)
}

/// The structuring schema for source files, view `Functions` over
/// `Function`. `If → Nested → Stmt → If` closes a RIG cycle.
pub fn schema() -> StructuringSchema {
    let grammar = Grammar::builder("Program")
        .repeat("Program", "Function", None, ValueBuilder::Set)
        .seq(
            "Function",
            [lit("fn"), nt("FnName"), lit("()"), lit("{"), nt("Body"), lit("}")],
            ValueBuilder::ObjectAuto("Function".into()),
        )
        .token("FnName", TokenPattern::Word, ValueBuilder::Atom)
        .repeat("Body", "Stmt", None, ValueBuilder::Set)
        .choice("Stmt", &["Call", "If"], ValueBuilder::Child)
        .seq("Call", [lit("call"), nt("Callee")], ValueBuilder::TupleAuto)
        .token("Callee", TokenPattern::Word, ValueBuilder::Atom)
        .seq("If", [lit("if"), lit("{"), nt("Nested"), lit("}")], ValueBuilder::TupleAuto)
        .repeat("Nested", "Stmt", None, ValueBuilder::Set)
        .build()
        .expect("the code grammar is well-formed");
    StructuringSchema::new(grammar).with_view("Functions", "Function")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_grammar::Parser;

    #[test]
    fn generates_and_parses() {
        let (text, truth) = generate(&CodeConfig::default());
        let s = schema();
        let tree = Parser::new(&s.grammar, &text).parse_root(0..text.len() as u32).unwrap();
        assert_eq!(tree.children.len(), truth.functions.len());
    }

    #[test]
    fn rig_has_statement_cycle() {
        let s = schema();
        // If → Nested → Stmt → If through the choice.
        let root = s.grammar.symbol("If").unwrap();
        let _ = root;
        let rig_children = s.grammar.children_of(s.grammar.symbol("Stmt").unwrap());
        assert_eq!(rig_children.len(), 2);
    }

    #[test]
    fn truth_call_queries() {
        let cfg = CodeConfig { n_functions: 40, ..Default::default() };
        let (_, truth) = generate(&cfg);
        let callee = truth
            .functions
            .iter()
            .flat_map(|f| f.all_calls.iter())
            .next()
            .expect("some call exists")
            .clone();
        assert!(!truth.all_callers(&callee).is_empty());
        assert!(truth.direct_callers(&callee).len() <= truth.all_callers(&callee).len());
    }

    #[test]
    fn nested_ifs_appear() {
        let cfg = CodeConfig { n_functions: 60, if_percent: 60, ..Default::default() };
        let (text, _) = generate(&cfg);
        assert!(text.contains("if {"), "config must produce if blocks");
    }

    #[test]
    fn deterministic() {
        let cfg = CodeConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}
