//! The depth-first path walker (`qof::db::walk_path`, which `eval_path`
//! collects, sorts and deduplicates) against a copy of the per-step
//! frontier evaluator it replaced, on the objects of all five schemas.
//!
//! Step sequences are drawn at random from `Field`, `Elements` and `Reach`
//! over a random move table (cycles included); a `Field` step mostly names
//! a field of a tuple the steps before it reach. Both evaluators must
//! reach the same set of values, and a walk stopped at its first hit must
//! agree with a search of the whole set. The answers are compared as they
//! are, not against what a path should mean: where a random table reaches
//! values no grammar would route to, both evaluators must still agree.
//!
//! Every case runs on its own seed; a failure prints it.

use std::ops::ControlFlow;

use qof::baseline::{run_baseline, BaselineMode};
use qof::corpus::{bibtex, code, logs, mail, sgml, Rng, StdRng};
use std::sync::Arc;

use qof::db::{eval_path, walk_path, Database, DbStep, MoveState, Moves, PathCost, Value};
use qof::grammar::StructuringSchema;
use qof::text::Corpus;

/// Step sequences per schema.
const CASES: usize = 600;

/// Every schema with a small seeded corpus over it.
fn corpora() -> Vec<(StructuringSchema, String)> {
    vec![
        (bibtex::schema(), bibtex::generate(&bibtex::BibtexConfig::with_refs(12)).0),
        (
            sgml::schema(),
            sgml::generate(&sgml::SgmlConfig { top_sections: 6, ..Default::default() }).0,
        ),
        (
            code::schema(),
            code::generate(&code::CodeConfig { n_functions: 10, ..Default::default() }).0,
        ),
        (
            logs::schema(),
            logs::generate(&logs::LogConfig { n_sessions: 8, ..Default::default() }).0,
        ),
        (
            mail::schema(),
            mail::generate(&mail::MailConfig { n_messages: 8, ..Default::default() }).0,
        ),
    ]
}

/// Every value below `v`, `v` included, with references resolved.
fn every_value<'a>(db: &'a Database, v: &'a Value, out: &mut Vec<&'a Value>) {
    let v = resolve(db, v);
    out.push(v);
    let below: Vec<&Value> = match v {
        Value::Tuple(fields) => fields.values().collect(),
        Value::Set(items) | Value::List(items) => items.iter().collect(),
        _ => Vec::new(),
    };
    below.into_iter().for_each(|x| every_value(db, x, out));
}

fn resolve<'a>(db: &'a Database, v: &'a Value) -> &'a Value {
    match v {
        Value::Ref(oid) => db.deref(*oid).unwrap_or(v),
        other => other,
    }
}

/// The evaluator the walker replaced: one frontier per step, sorted and
/// deduplicated after each. A table step runs as a work list of (value,
/// state) pairs.
fn frontier<'a>(db: &'a Database, value: &'a Value, steps: &[DbStep]) -> Vec<&'a Value> {
    fn hop<'a>(db: &'a Database, v: &'a Value, step: &DbStep, out: &mut Vec<&'a Value>) {
        match (step, resolve(db, v)) {
            (DbStep::Field(name), Value::Tuple(fields)) => {
                out.extend(fields.get(name).map(|x| resolve(db, x)));
            }
            (DbStep::Elements, Value::Set(items) | Value::List(items)) => {
                out.extend(items.iter().map(|x| resolve(db, x)));
            }
            _ => {}
        }
    }
    let mut front = vec![resolve(db, value)];
    for step in steps {
        let mut next = Vec::new();
        for v in front {
            let DbStep::Reach(moves) = step else {
                hop(db, v, step, &mut next);
                continue;
            };
            let mut todo = vec![(v, 0)];
            while let Some((x, at)) = todo.pop() {
                let Some(state) = moves.states.get(at) else { continue };
                if state.accept {
                    next.push(x);
                }
                for (step, to) in &state.moves {
                    let mut landed = Vec::new();
                    hop(db, x, step, &mut landed);
                    todo.extend(landed.into_iter().map(|y| (y, *to)));
                }
            }
        }
        next.sort_unstable();
        next.dedup_by(|a, b| a == b);
        front = next;
    }
    front
}

/// A move table of one to four states over `names`, cycles allowed.
fn random_table(names: &[&str], rng: &mut StdRng) -> DbStep {
    let n = rng.random_range(1..5);
    let states = (0..n)
        .map(|_| MoveState {
            accept: rng.random_range(0..2) == 0,
            moves: (0..rng.random_range(0..4))
                .map(|_| {
                    let step = match rng.random_range(0..3) {
                        0 => DbStep::Elements,
                        _ => DbStep::Field(names[rng.random_range(0..names.len())].into()),
                    };
                    (step, rng.random_range(0..n))
                })
                .collect(),
        })
        .collect();
    DbStep::Reach(Arc::new(Moves { states }))
}

/// The field names of the tuples among `values`.
fn field_names<'a>(values: &[&'a Value]) -> Vec<&'a str> {
    let mut names: Vec<&str> = values
        .iter()
        .filter_map(|v| match v {
            Value::Tuple(fields) => Some(fields.iter().map(|(name, _)| name)),
            _ => None,
        })
        .flatten()
        .collect();
    names.sort_unstable();
    names.dedup();
    names
}

/// One to five random steps from `root`: mostly one that leads on from
/// the values the steps before it reach, sometimes any step.
fn random_steps(db: &Database, root: &Value, names: &[&str], rng: &mut StdRng) -> Vec<DbStep> {
    let mut steps = Vec::new();
    for _ in 0..rng.random_range(1..6) {
        let reached = frontier(db, root, &steps);
        let fields = field_names(&reached);
        let sets = reached.iter().any(|v| matches!(v, Value::Set(_) | Value::List(_)));
        let step = match rng.random_range(0..10) {
            0..=5 if sets && (fields.is_empty() || rng.random_range(0..2) == 0) => DbStep::Elements,
            0..=5 if !fields.is_empty() => {
                DbStep::Field(fields[rng.random_range(0..fields.len())].into())
            }
            0..=6 => DbStep::Elements,
            7 | 8 => random_table(names, rng),
            _ => DbStep::Field(names[rng.random_range(0..names.len())].into()),
        };
        steps.push(step);
    }
    steps
}

#[test]
fn the_walker_reaches_what_the_frontier_evaluator_reaches() {
    let mut seeds = StdRng::seed_from_u64(0x3a1c_e7e5);
    let (mut reached, mut stopped) = (0usize, 0usize);
    for (schema, text) in corpora() {
        let (view, _) = schema.views().next().expect("a view");
        let q = format!("SELECT v FROM {view} v");
        let loaded = run_baseline(&Corpus::from_text(&text), &schema, &q, BaselineMode::FullLoad)
            .expect("the baseline loads every corpus");
        let db = &loaded.db;
        // Every object, as a reference (the walk dereferences it) and as
        // the value itself.
        let mut roots: Vec<Value> = Vec::new();
        for class in db.classes() {
            for &oid in db.extent(class) {
                roots.push(Value::Ref(oid));
                roots.extend(db.deref(oid).cloned());
            }
        }
        let all = Value::Set(roots.clone());
        let mut every = Vec::new();
        every_value(db, &all, &mut every);
        let names = field_names(&every);
        for i in 0..CASES {
            let seed = seeds.next_u64();
            let rng = &mut StdRng::seed_from_u64(seed);
            let root = &roots[rng.random_range(0..roots.len())];
            let steps = random_steps(db, root, &names, rng);
            let at = format!("{view}, case {i} (seed {seed:#x}): {steps:?} from {root}");

            let want = frontier(db, root, &steps);
            let got = eval_path(db, root, &steps);
            assert_eq!(got, want, "{at}");
            reached += usize::from(!want.is_empty());

            // A walk stopped at the first string finds one exactly when
            // the whole set holds one.
            let first =
                walk_path(db, root, &steps, &mut PathCost::default(), &mut |v| match v.as_str() {
                    Some(s) => ControlFlow::Break(s),
                    None => ControlFlow::Continue(()),
                });
            let any = want.iter().find_map(|v| v.as_str());
            match (first, any) {
                (ControlFlow::Break(s), Some(_)) => {
                    assert!(want.iter().any(|v| v.as_str() == Some(s)), "{at}: stopped at {s:?}");
                    stopped += 1;
                }
                (ControlFlow::Continue(()), None) => {}
                (first, any) => panic!("{at}: the walk gave {first:?}, the set holds {any:?}"),
            }
        }
    }
    // The draws must exercise both: paths that reach something, and walks
    // that stop early.
    let cases = CASES * 5;
    assert!(reached * 4 >= cases, "only {reached} of {cases} step sequences reached a value");
    assert!(stopped * 8 >= cases, "only {stopped} of {cases} walks stopped at a string");
}
