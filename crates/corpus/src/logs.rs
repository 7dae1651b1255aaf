//! Server log files — "log files" are on the paper's list of semi-structured
//! sources. Sessions wrap request lines, giving two levels of structure:
//!
//! ```text
//! BEGIN s000001 user chang
//! GET /docs/index 200
//! POST /api/save 500
//! END
//! ```

use crate::rng::{Rng, StdRng};
use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};
use std::fmt::Write as _;

use crate::vocab::{LAST_NAMES, WORDS};

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct LogConfig {
    /// Number of sessions.
    pub n_sessions: usize,
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of requests per session.
    pub requests: (usize, usize),
    /// Number of distinct users.
    pub n_users: usize,
    /// Probability (0–100) that a request fails with status 500.
    pub error_percent: u32,
}

impl Default for LogConfig {
    fn default() -> Self {
        Self { n_sessions: 40, seed: 11, requests: (1, 6), n_users: 8, error_percent: 10 }
    }
}

/// Ground truth for one session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionTruth {
    /// Session id.
    pub id: String,
    /// The user.
    pub user: String,
    /// `(method, path, status)` per request.
    pub requests: Vec<(String, String, String)>,
}

/// Ground truth for a log file.
#[derive(Debug, Clone, Default)]
pub struct LogTruth {
    /// Sessions in file order.
    pub sessions: Vec<SessionTruth>,
}

impl LogTruth {
    /// Ids of sessions belonging to `user`.
    pub fn sessions_of(&self, user: &str) -> Vec<&str> {
        self.sessions.iter().filter(|s| s.user == user).map(|s| s.id.as_str()).collect()
    }

    /// Ids of sessions containing a request with the given status.
    pub fn sessions_with_status(&self, status: &str) -> Vec<&str> {
        self.sessions
            .iter()
            .filter(|s| s.requests.iter().any(|(_, _, st)| st == status))
            .map(|s| s.id.as_str())
            .collect()
    }
}

/// Generates a log file and its ground truth.
pub fn generate(cfg: &LogConfig) -> (String, LogTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let methods = ["GET", "POST", "PUT", "DELETE"];
    let mut out = String::new();
    let mut truth = LogTruth::default();
    for i in 0..cfg.n_sessions {
        let id = format!("s{i:06}");
        let user =
            LAST_NAMES[rng.random_range(0..cfg.n_users.clamp(1, LAST_NAMES.len()))].to_lowercase();
        let _ = writeln!(out, "BEGIN {id} user {user}");
        let n_req = rng.random_range(cfg.requests.0..=cfg.requests.1.max(cfg.requests.0));
        let mut requests = Vec::new();
        for _ in 0..n_req {
            let m = methods[rng.random_range(0..methods.len())].to_owned();
            let path = format!(
                "/{}/{}",
                WORDS[rng.random_range(0..WORDS.len())],
                WORDS[rng.random_range(0..WORDS.len())]
            );
            let status =
                if rng.random_range(0..100) < cfg.error_percent as usize { "500" } else { "200" }
                    .to_owned();
            let _ = writeln!(out, "{m} {path} {status}");
            requests.push((m, path, status));
        }
        let _ = writeln!(out, "END");
        truth.sessions.push(SessionTruth { id, user, requests });
    }
    (out, truth)
}

/// The structuring schema for log files, view `Sessions` over `Session`.
pub fn schema() -> StructuringSchema {
    let grammar = Grammar::builder("Log")
        .repeat("Log", "Session", None, ValueBuilder::Set)
        .seq(
            "Session",
            [lit("BEGIN"), nt("SessionId"), lit("user"), nt("User"), nt("Requests"), lit("END")],
            ValueBuilder::ObjectAuto("Session".into()),
        )
        .token("SessionId", TokenPattern::Word, ValueBuilder::Atom)
        .token("User", TokenPattern::Word, ValueBuilder::Atom)
        .repeat("Requests", "Request", None, ValueBuilder::Set)
        .seq("Request", [nt("Method"), nt("Path"), nt("Status")], ValueBuilder::TupleAuto)
        .token("Method", TokenPattern::Word, ValueBuilder::Atom)
        .token("Path", TokenPattern::Until(" \n".into()), ValueBuilder::Atom)
        .token("Status", TokenPattern::Number, ValueBuilder::Atom)
        .build()
        .expect("the log grammar is well-formed");
    StructuringSchema::new(grammar).with_view("Sessions", "Session")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_grammar::Parser;

    #[test]
    fn generates_and_parses() {
        let (text, truth) = generate(&LogConfig::default());
        let s = schema();
        let tree = Parser::new(&s.grammar, &text).parse_root(0..text.len() as u32).unwrap();
        assert_eq!(tree.children.len(), truth.sessions.len());
    }

    #[test]
    fn error_sessions_exist_at_default_rate() {
        let (_, truth) = generate(&LogConfig { n_sessions: 200, ..Default::default() });
        assert!(!truth.sessions_with_status("500").is_empty());
        assert!(truth.sessions_with_status("500").len() < 200);
    }

    #[test]
    fn user_query_truth() {
        let (_, truth) = generate(&LogConfig::default());
        let u = truth.sessions[0].user.clone();
        assert!(truth.sessions_of(&u).contains(&truth.sessions[0].id.as_str()));
    }

    #[test]
    fn zero_error_rate_generates_no_500s() {
        let (_, truth) = generate(&LogConfig { error_percent: 0, ..Default::default() });
        assert!(truth.sessions_with_status("500").is_empty());
    }

    #[test]
    fn deterministic() {
        let cfg = LogConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}
