//! The value model against plain strings and sorted maps.
//!
//! `Value` keeps short atoms in place and long ones as ranges of a shared
//! text, and a tuple keeps its names in a shape shared with other tuples.
//! None of that may show: seeded random values, built every way the code
//! builds them (owned and shared atoms of 0–40 bytes with multi-byte
//! characters around the 22-byte edge, tuples from a shared shape, from
//! `Value::tuple` and from `Fields::insert`, tuples a value sink built,
//! sets, lists and references), must agree with a model of `String`s and
//! `BTreeMap<String, _>`s on `==`, `cmp`, `DefaultHasher` hashes, `Debug`
//! and `Display`.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use qof::corpus::{Rng, StdRng};
use qof::db::{Atom, Database, Fields, Oid, Shape, Value};
use qof::grammar::{lit, nt, AtomText, Grammar, Parser, PathFilter, TokenPattern, ValueBuilder};

/// What a value means: `Value` with every sharing taken out. Its derived
/// traits are those `Value` must have.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Model {
    Str(String),
    Int(i64),
    Tuple(BTreeMap<String, Model>),
    Set(Vec<Model>),
    List(Vec<Model>),
    Ref(Oid),
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let items = |f: &mut fmt::Formatter<'_>, items: &[Model]| {
            let items: Vec<String> = items.iter().map(Model::to_string).collect();
            f.write_str(&items.join(", "))
        };
        match self {
            Model::Str(s) => write!(f, "{s:?}"),
            Model::Int(i) => write!(f, "{i}"),
            Model::Tuple(m) => {
                let fields: Vec<String> = m.iter().map(|(k, v)| format!("{k}: {v}")).collect();
                write!(f, "tuple({})", fields.join(", "))
            }
            Model::Set(v) => {
                f.write_str("{")?;
                items(f, v)?;
                f.write_str("}")
            }
            Model::List(v) => {
                f.write_str("[")?;
                items(f, v)?;
                f.write_str("]")
            }
            Model::Ref(o) => write!(f, "{o}"),
        }
    }
}

/// Characters of one to four bytes.
const CHARS: [&str; 12] = ["a", "K", "7", " ", "-", "é", "©", "ß", "→", "€", "𝄞", "😀"];
const NAMES: [&str; 6] = ["Authors", "Key", "Last_Name", "Title", "Year", "Z"];

struct Gen {
    rng: StdRng,
    /// Strings drawn before, drawn again so that equal atoms of different
    /// makes meet.
    seen: Vec<String>,
    /// One shape per name set, shared by the tuples built from it.
    shapes: BTreeMap<Vec<String>, Shape>,
}

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.rng.random_range(0..n)
    }

    /// A string of up to `max` bytes, often one of 19–25 bytes.
    fn string(&mut self) -> String {
        if !self.seen.is_empty() && self.below(3) == 0 {
            let i = self.below(self.seen.len());
            return self.seen[i].clone();
        }
        let max = if self.below(2) == 0 { 19 + self.below(7) } else { self.below(41) };
        let mut s = String::new();
        loop {
            let c = CHARS[self.below(CHARS.len())];
            if s.len() + c.len() > max {
                break;
            }
            s.push_str(c);
        }
        self.seen.push(s.clone());
        s
    }

    /// An atom of `s`: owned, or a range of a longer shared text.
    fn atom(&mut self, s: &str) -> Atom {
        match self.below(3) {
            0 => Atom::from(s.to_owned()),
            1 => Atom::from(s),
            _ => {
                let prefix = CHARS[self.below(CHARS.len())].repeat(self.below(3));
                let suffix = CHARS[self.below(CHARS.len())].repeat(self.below(30));
                let text = Arc::new(format!("{prefix}{s}{suffix}"));
                let start = prefix.len() as u32;
                Atom::shared(&text, start, start + s.len() as u32)
            }
        }
    }

    fn value(&mut self, depth: usize) -> (Value, Model) {
        match self.below(if depth == 0 { 3 } else { 7 }) {
            0 | 1 => {
                let s = self.string();
                (Value::Str(self.atom(&s)), Model::Str(s))
            }
            2 => match self.below(2) {
                0 => {
                    let i = self.below(5) as i64 - 2;
                    (Value::Int(i), Model::Int(i))
                }
                _ => {
                    let o = Oid(self.below(4) as u32);
                    (Value::Ref(o), Model::Ref(o))
                }
            },
            3 | 4 => self.tuple(depth),
            5 => {
                let (values, models) = self.values(depth);
                let mut models = models;
                models.sort();
                models.dedup();
                (Value::set(values), Model::Set(models))
            }
            _ => {
                let (values, models) = self.values(depth);
                (Value::List(values), Model::List(models))
            }
        }
    }

    fn values(&mut self, depth: usize) -> (Vec<Value>, Vec<Model>) {
        (0..self.below(4)).map(|_| self.value(depth - 1)).unzip()
    }

    /// A tuple of up to four fields, some names given twice.
    fn tuple(&mut self, depth: usize) -> (Value, Model) {
        let pairs: Vec<(&str, (Value, Model))> =
            (0..self.below(5)).map(|_| (NAMES[self.below(4)], self.value(depth - 1))).collect();
        let mut model = BTreeMap::new();
        for (name, (_, m)) in &pairs {
            model.insert((*name).to_owned(), m.clone());
        }
        let value = match self.below(3) {
            0 => Value::tuple(pairs.into_iter().map(|(k, (v, _))| (k, v))),
            1 => {
                let mut fields = Fields::new();
                for (k, (v, _)) in pairs {
                    fields.insert(k.into(), v);
                }
                Value::Tuple(fields)
            }
            _ => {
                // As a value sink builds them: the last value of a name,
                // in name order, under a shape shared per name set.
                let mut last = BTreeMap::new();
                for (k, (v, _)) in pairs {
                    last.insert(k, v);
                }
                let names: Vec<String> = last.keys().map(|k| (*k).to_owned()).collect();
                let shape = self
                    .shapes
                    .entry(names.clone())
                    .or_insert_with(|| {
                        Shape::new(names.iter().map(|n| n.as_str().into()).collect())
                    })
                    .clone();
                Value::Tuple(Fields::from_shape(shape, last.into_values().collect()))
            }
        };
        (value, Model::Tuple(model))
    }
}

fn hash_of(v: &impl Hash) -> u64 {
    let mut s = DefaultHasher::new();
    v.hash(&mut s);
    s.finish()
}

/// Checks every pair of `pool` against the model.
fn check(pool: &[(Value, Model)]) {
    for (v, m) in pool {
        assert_eq!(format!("{v:?}"), format!("{m:?}"));
        assert_eq!(v.to_string(), m.to_string(), "{m:?}");
        assert_eq!(hash_of(v), hash_of(m), "{m:?}");
    }
    for (a, ma) in pool {
        for (b, mb) in pool {
            assert_eq!(a == b, ma == mb, "{ma:?} == {mb:?}");
            assert_eq!(a.cmp(b), ma.cmp(mb), "{ma:?} cmp {mb:?}");
            assert_eq!(a.partial_cmp(b), ma.partial_cmp(mb));
        }
    }
}

#[test]
fn random_values_agree_with_strings_and_sorted_maps() {
    for seed in 0..8 {
        let mut g =
            Gen { rng: StdRng::seed_from_u64(seed), seen: Vec::new(), shapes: BTreeMap::new() };
        let pool: Vec<(Value, Model)> = (0..120).map(|_| g.value(3)).collect();
        check(&pool);
    }
}

#[test]
fn atoms_around_the_inline_edge_agree_with_their_strings() {
    // Every length from 0 to 40 bytes, cut from texts of one- to
    // four-byte characters so that some end inside a character's reach
    // of the 22-byte edge.
    let mut pool = Vec::new();
    for c in CHARS {
        let text = Arc::new(c.repeat(44));
        for len in (0..=40).filter(|n| n % c.len() == 0) {
            let s = c.repeat(len / c.len());
            for start in [0, c.len() as u32] {
                let shared = Atom::shared(&text, start, start + len as u32);
                pool.push((Value::Str(shared), Model::Str(s.clone())));
            }
            pool.push((Value::str(s.as_str()), Model::Str(s)));
        }
    }
    check(&pool);
}

#[test]
fn tuples_a_value_sink_builds_agree_with_sorted_maps() {
    // `Item`'s fields come in the order B, A; the sink puts them in name
    // order under one shape for every item.
    let g = Grammar::builder("S")
        .repeat("S", "Item", None, ValueBuilder::Set)
        .seq("Item", [lit("("), nt("B"), lit(","), nt("A"), lit(")")], ValueBuilder::TupleAuto)
        .token("A", TokenPattern::Until(")".into()), ValueBuilder::Atom)
        .token("B", TokenPattern::Until(",".into()), ValueBuilder::Atom)
        .build()
        .unwrap();
    let mut gen = Gen { rng: StdRng::seed_from_u64(7), seen: Vec::new(), shapes: BTreeMap::new() };
    let mut text = String::new();
    let mut items = Vec::new();
    for _ in 0..60 {
        let (a, b) = (gen.string().trim().to_owned(), gen.string().trim().to_owned());
        if a.is_empty() || b.is_empty() {
            continue;
        }
        text.push_str(&format!("({b},{a}) "));
        let fields = [("A".to_owned(), Model::Str(a)), ("B".to_owned(), Model::Str(b))];
        items.push(Model::Tuple(fields.into()));
    }
    items.sort();
    items.dedup();
    let text = Arc::new(text);
    for filter in
        [PathFilter::all(), PathFilter::from_paths(&[vec!["Item", "A"], vec!["Item", "B"]])]
    {
        let mut db = Database::new();
        let mut sink = qof::grammar::ValueSink::new(&g, AtomText::Shared(&text), &mut db, &filter);
        let parser = Parser::new(&g, &text);
        parser.parse_into(g.root(), 0..text.len() as u32, &mut sink).unwrap();
        let built = sink.take().unwrap();
        let Value::Set(built) = built else { panic!("a set") };
        let pool: Vec<(Value, Model)> = built.into_iter().zip(items.iter().cloned()).collect();
        assert_eq!(pool.len(), items.len());
        check(&pool);
    }
}
