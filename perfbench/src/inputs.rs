//! Seeded inputs: BibTeX file texts and query streams, all drawn from
//! `qof-corpus` under the workload seed.

use qof_corpus::bibtex::{self, BibtexConfig};
use qof_corpus::{Rng, StdRng, LAST_NAMES};
use qof_text::{Corpus, CorpusBuilder};

/// Generated files: `(name, text)`.
pub type Files = Vec<(String, String)>;

/// `count` BibTeX files of `refs` references each, every file from its own
/// seed drawn from `rng`.
pub fn bibtex_files(rng: &mut StdRng, prefix: &str, count: usize, refs: usize) -> Files {
    (0..count)
        .map(|i| {
            let cfg = BibtexConfig { n_refs: refs, seed: rng.next_u64(), ..Default::default() };
            (format!("{prefix}{i:03}.bib"), bibtex::generate(&cfg).0)
        })
        .collect()
}

pub fn corpus(files: &Files) -> Corpus {
    let mut b = CorpusBuilder::new();
    for (name, text) in files {
        b.add_file(name.clone(), text);
    }
    b.build()
}

/// Lookups between two that [`Mix::checked`] picks. The baseline parses the
/// whole corpus for each text (~0.15 s on the read corpus), so checking all
/// ~180 texts took longer than the load; with three forms per name, a step
/// of seven still checks every form.
const CHECK_STEP: usize = 7;

/// One distinct query text and the word constants it looks up.
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub constants: Vec<String>,
}

/// The distinct query texts of a workload; streams index into `queries`.
pub struct Mix {
    pub queries: Vec<Query>,
    /// Lookup forms, each a list of indices into `queries`.
    forms: Vec<Vec<usize>>,
    joins: Vec<usize>,
    /// One query in every `join_every` is a content join (0: none).
    join_every: usize,
}

impl Mix {
    /// Selective lookups over all last names in three forms: an author
    /// point query projecting the key from the index, an author-and-year
    /// query, and the star path through authors and editors.
    pub fn lookups(rng: &mut StdRng) -> Mix {
        let mut queries = Vec::new();
        let mut forms = vec![Vec::new(), Vec::new(), Vec::new()];
        for name in LAST_NAMES {
            let year = (1970 + rng.random_range(0..25)).to_string();
            let texts = [
                format!(
                    "SELECT r.Key FROM References r WHERE r.Authors.Name.Last_Name = \"{name}\""
                ),
                format!(
                    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = \"{name}\" \
                     AND r.Year = \"{year}\""
                ),
                format!("SELECT r FROM References r WHERE r.*X.Last_Name = \"{name}\""),
            ];
            for (form, text) in texts.into_iter().enumerate() {
                let constants = if form == 1 {
                    vec![(*name).to_owned(), year.clone()]
                } else {
                    vec![(*name).to_owned()]
                };
                forms[form].push(queries.len());
                queries.push(Query { text, constants });
            }
        }
        Mix { queries, forms, joins: Vec::new(), join_every: 0 }
    }

    /// The lookups plus one content join in every `join_every` queries:
    /// references with an author who also edited them, written both ways
    /// round. Both read the whole corpus, so every join costs the same.
    pub fn with_joins(mut self, join_every: usize) -> Mix {
        for (left, right) in [("Editors", "Authors"), ("Authors", "Editors")] {
            self.joins.push(self.queries.len());
            self.queries.push(Query {
                text: format!(
                    "SELECT r FROM References r WHERE \
                     r.{left}.Name.Last_Name = r.{right}.Name.Last_Name"
                ),
                constants: Vec::new(),
            });
        }
        self.join_every = join_every;
        self
    }

    /// The texts a run compares with the database baseline: every content
    /// join and every [`CHECK_STEP`]-th lookup from an offset drawn from
    /// `seed`, so that seeds between them check every text.
    pub fn checked(&self, seed: u64) -> Vec<usize> {
        let offset = StdRng::seed_from_u64(seed).random_range(0..CHECK_STEP);
        let lookups = (0..self.queries.len()).filter(|i| !self.joins.contains(i));
        let mut out = self.joins.clone();
        out.extend(lookups.skip(offset).step_by(CHECK_STEP));
        out
    }

    /// A stream over this mix. The lookup forms take turns, and so do the
    /// joins, so every run holds them in the same proportions. Within a
    /// form the texts come in rounds, each a seeded permutation of all of
    /// them, so every run also holds each text nearly equally often: drawn
    /// independently, each came up 4.4 ± 2 times in a 25-second `lookup`
    /// run, and which ones came up more moved the run's p50. The order
    /// within a round and the position of the join within its block are
    /// seeded.
    pub fn stream(&self, seed: u64) -> Stream<'_> {
        Stream {
            mix: self,
            rng: StdRng::seed_from_u64(seed),
            n: 0,
            lookups: 0,
            joins: 0,
            join_at: 0,
            rounds: vec![Vec::new(); self.forms.len()],
        }
    }
}

/// An endless seeded sequence of indices into [`Mix::queries`].
pub struct Stream<'a> {
    mix: &'a Mix,
    rng: StdRng,
    n: usize,
    lookups: usize,
    joins: usize,
    join_at: usize,
    /// Per lookup form, the texts still to come in its current round.
    rounds: Vec<Vec<usize>>,
}

impl Iterator for Stream<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let every = self.mix.join_every;
        let slot = if every > 0 { self.n % every } else { 1 };
        if every > 0 && slot == 0 {
            self.join_at = self.rng.random_range(0..every);
        }
        self.n += 1;
        if every > 0 && slot == self.join_at {
            self.joins += 1;
            return Some(self.mix.joins[self.joins % self.mix.joins.len()]);
        }
        let form = self.lookups % self.mix.forms.len();
        self.lookups += 1;
        let round = &mut self.rounds[form];
        if round.is_empty() {
            round.clone_from(&self.mix.forms[form]);
            for i in (1..round.len()).rev() {
                round.swap(i, self.rng.random_range(0..=i));
            }
        }
        round.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_under_a_seed_and_keep_the_join_share() {
        let mix = Mix::lookups(&mut StdRng::seed_from_u64(1)).with_joins(5);
        assert_eq!(mix.queries.len(), 3 * LAST_NAMES.len() + mix.joins.len());
        let a: Vec<usize> = mix.stream(7).take(500).collect();
        let b: Vec<usize> = mix.stream(7).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, mix.stream(8).take(500).collect::<Vec<_>>());
        let joins = a.iter().filter(|i| mix.joins.contains(i)).count();
        assert_eq!(joins, 100, "exactly one join in every block of five");
        let lookups = Mix::lookups(&mut StdRng::seed_from_u64(1));
        assert!(lookups.stream(3).take(300).all(|i| !lookups.queries[i].text.contains("Editors")));
    }

    #[test]
    fn each_round_holds_every_lookup_once() {
        let mix = Mix::lookups(&mut StdRng::seed_from_u64(1));
        let n = mix.queries.len();
        let mut seen = vec![0; n];
        for i in mix.stream(4).take(2 * n) {
            seen[i] += 1;
        }
        assert!(seen.iter().all(|&c| c == 2), "two rounds hold each text twice");
        let a: Vec<usize> = mix.stream(4).take(n).collect();
        assert_ne!(a, mix.stream(5).take(n).collect::<Vec<_>>());
    }

    #[test]
    fn checked_texts_hold_every_join_and_seeds_cover_every_lookup() {
        let mix = Mix::lookups(&mut StdRng::seed_from_u64(1)).with_joins(20);
        let checked = mix.checked(5);
        assert!(mix.joins.iter().all(|j| checked.contains(j)));
        assert!(checked.len() <= mix.joins.len() + mix.queries.len() / CHECK_STEP + 1);
        let mut seen = vec![false; mix.queries.len()];
        for seed in 0..200 {
            for i in mix.checked(seed) {
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
