//! Mailbox files — e-mail is one of the semi-structured sources the paper's
//! introduction lists. A simple mbox-like format: header fields followed by
//! a body terminated by a lone `.`.

use crate::rng::{Rng, StdRng};
use qof_grammar::{lit, nt, Grammar, StructuringSchema, TokenPattern, ValueBuilder};
use std::fmt::Write as _;

use crate::vocab::{lorem, LAST_NAMES};

/// Generator knobs.
#[derive(Debug, Clone)]
pub struct MailConfig {
    /// Number of messages.
    pub n_messages: usize,
    /// RNG seed.
    pub seed: u64,
    /// Inclusive range of recipients per message.
    pub recipients: (usize, usize),
    /// Words per body.
    pub body_words: usize,
    /// Number of distinct users.
    pub n_users: usize,
}

impl Default for MailConfig {
    fn default() -> Self {
        Self { n_messages: 50, seed: 7, recipients: (1, 3), body_words: 30, n_users: 12 }
    }
}

/// Ground truth for one message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MessageTruth {
    /// Sender address.
    pub sender: String,
    /// Recipient addresses.
    pub to: Vec<String>,
    /// Subject line.
    pub subject: String,
    /// Date string `1994-MM-DD`.
    pub date: String,
}

/// Ground truth for a mailbox.
#[derive(Debug, Clone, Default)]
pub struct MailTruth {
    /// Messages in file order.
    pub messages: Vec<MessageTruth>,
}

impl MailTruth {
    /// Indices of messages sent by `addr`.
    pub fn from_sender(&self, addr: &str) -> Vec<usize> {
        self.messages.iter().enumerate().filter(|(_, m)| m.sender == addr).map(|(i, _)| i).collect()
    }

    /// Indices of messages addressed to `addr`.
    pub fn to_recipient(&self, addr: &str) -> Vec<usize> {
        self.messages
            .iter()
            .enumerate()
            .filter(|(_, m)| m.to.iter().any(|t| t == addr))
            .map(|(i, _)| i)
            .collect()
    }
}

fn user(i: usize) -> String {
    let name = LAST_NAMES[i % LAST_NAMES.len()].to_lowercase();
    format!("{name}@example.org")
}

/// Generates a mailbox file and its ground truth.
pub fn generate(cfg: &MailConfig) -> (String, MailTruth) {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let users = cfg.n_users.max(2);
    let mut out = String::new();
    let mut truth = MailTruth::default();
    for _ in 0..cfg.n_messages {
        let sender = user(rng.random_range(0..users));
        let n_to = rng.random_range(cfg.recipients.0..=cfg.recipients.1.max(cfg.recipients.0));
        let mut to: Vec<String> = Vec::new();
        let mut attempts = 0;
        while to.len() < n_to && attempts < 50 {
            attempts += 1;
            let r = user(rng.random_range(0..users));
            if r != sender && !to.contains(&r) {
                to.push(r);
            }
        }
        let subj_len = 2 + rng.random_range(0..4);
        let subject = lorem(&mut rng, subj_len);
        let date = format!("1994-{:02}-{:02}", rng.random_range(1..=12), rng.random_range(1..=28));
        let body = lorem(&mut rng, cfg.body_words);
        let _ = write!(
            out,
            "From {sender}\nSubject: {subject}\nDate: {date}\nTo: {}\nBody: {body}\n.\n",
            to.join(", ")
        );
        truth.messages.push(MessageTruth { sender, to, subject, date });
    }
    (out, truth)
}

/// The structuring schema for mailbox files, view `Messages` over `Message`.
pub fn schema() -> StructuringSchema {
    let grammar = Grammar::builder("Mbox")
        .repeat("Mbox", "Message", None, ValueBuilder::Set)
        .seq(
            "Message",
            [
                lit("From "),
                nt("Sender"),
                lit("Subject:"),
                nt("Subject"),
                lit("Date:"),
                nt("Date"),
                lit("To:"),
                nt("Recipients"),
                lit("Body:"),
                nt("Body"),
                lit("."),
            ],
            ValueBuilder::ObjectAuto("Message".into()),
        )
        .token("Sender", TokenPattern::Line, ValueBuilder::Atom)
        .token("Subject", TokenPattern::Line, ValueBuilder::Atom)
        .token("Date", TokenPattern::Line, ValueBuilder::Atom)
        .repeat("Recipients", "Addr", Some(", "), ValueBuilder::Set)
        .token("Addr", TokenPattern::Until(",\n".into()), ValueBuilder::Atom)
        .token("Body", TokenPattern::Until(".".into()), ValueBuilder::Atom)
        .build()
        .expect("the mail grammar is well-formed");
    StructuringSchema::new(grammar).with_view("Messages", "Message")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qof_grammar::Parser;

    #[test]
    fn generates_and_parses() {
        let (text, truth) = generate(&MailConfig::default());
        let s = schema();
        let tree = Parser::new(&s.grammar, &text).parse_root(0..text.len() as u32).unwrap();
        assert_eq!(tree.children.len(), truth.messages.len());
    }

    #[test]
    fn truth_indices_match_text_order() {
        let (text, truth) = generate(&MailConfig { n_messages: 10, ..Default::default() });
        let froms: Vec<&str> =
            text.lines().filter(|l| l.starts_with("From ")).map(|l| &l[5..]).collect();
        assert_eq!(froms.len(), 10);
        for (i, m) in truth.messages.iter().enumerate() {
            assert_eq!(froms[i], m.sender);
        }
    }

    #[test]
    fn sender_and_recipient_queries() {
        let cfg = MailConfig { n_messages: 100, n_users: 4, ..Default::default() };
        let (_, truth) = generate(&cfg);
        let anyone = truth.messages[0].sender.clone();
        assert!(!truth.from_sender(&anyone).is_empty());
        let rcpt = truth.messages[0].to[0].clone();
        assert!(!truth.to_recipient(&rcpt).is_empty());
    }

    #[test]
    fn deterministic() {
        let cfg = MailConfig::default();
        assert_eq!(generate(&cfg).0, generate(&cfg).0);
    }
}
