//! Static analysis: `qof check`.
//!
//! Everything the paper decides *without touching the file* surfaces here
//! as structured diagnostics with stable `QOF0xx` codes: Proposition 3.3
//! (trivially empty expressions), §6.3 (exactness of a partial index),
//! §5.3 (`*X` paths are cheaper than fixed paths), plus schema- and
//! RIG-level sanity lints, the abstract interpreter's `QOF1xx` lints, and
//! `QOF110` for an optimizer rewrite the certifier refuses (its replay,
//! [`absint::certify`], re-checks the Proposition 3.5 side conditions).
//!
//! The three entry points are [`check_schema`], [`check_index`] and
//! [`check_query`] (the latter also available as
//! [`FileDatabase::check`](crate::FileDatabase::check)); each returns
//! [`Diagnostic`] values renderable in rustc style via
//! [`Diagnostic::render`].

pub mod absint;
mod query;
mod schema;

pub use query::check_query;
pub use schema::{check_index, check_schema};

use std::fmt;

/// Stable diagnostic codes. The numeric ranges group the checks:
/// `QOF00x` schema, `QOF01x` RIG/index, `QOF02x` query, `QOF1xx`
/// abstract interpretation (static domains, emptiness facts) and the
/// rewrite certifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Code {
    /// Non-terminal unreachable from the grammar root.
    Qof001,
    /// Nullable rule: the non-terminal can match the empty string, so its
    /// zero-width regions break region nesting.
    Qof002,
    /// View over a symbol the grammar does not define.
    Qof004,
    /// Indexed region name unreachable from the root in the RIG.
    Qof010,
    /// Partial index makes a query hop inexact (§6.3).
    Qof011,
    /// Query syntax error.
    Qof020,
    /// Unknown view in the FROM clause.
    Qof021,
    /// Unknown class/attribute name in a path.
    Qof022,
    /// Type mismatch in a comparison.
    Qof023,
    /// Trivially empty inclusion expression (Proposition 3.3).
    Qof024,
    /// Fixed path more expensive than the equivalent `*X` path (§5.3).
    Qof025,
    /// The view's non-terminal is not indexed.
    Qof026,
    /// Subexpression proven empty by the abstract interpreter.
    Qof100,
    /// Dead branch of a `∪`/`−`: one operand is provably empty.
    Qof101,
    /// Redundant intersection: both operands are the same expression.
    Qof102,
    /// Inclusion over disjoint RIG components: the operand domains admit
    /// no containment per the RIG.
    Qof103,
    /// Closure (`+`) requested over a region type on no RIG cycle, so the
    /// closure can never add a second level.
    Qof104,
    /// Optimizer rewrite the certifier could not certify.
    Qof110,
}

impl Code {
    /// The stable `QOF0xx` string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::Qof001 => "QOF001",
            Code::Qof002 => "QOF002",
            Code::Qof004 => "QOF004",
            Code::Qof010 => "QOF010",
            Code::Qof011 => "QOF011",
            Code::Qof020 => "QOF020",
            Code::Qof021 => "QOF021",
            Code::Qof022 => "QOF022",
            Code::Qof023 => "QOF023",
            Code::Qof024 => "QOF024",
            Code::Qof025 => "QOF025",
            Code::Qof026 => "QOF026",
            Code::Qof100 => "QOF100",
            Code::Qof101 => "QOF101",
            Code::Qof102 => "QOF102",
            Code::Qof103 => "QOF103",
            Code::Qof104 => "QOF104",
            Code::Qof110 => "QOF110",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A provable mistake: the query cannot run or cannot mean what was
    /// written.
    Error,
    /// Legal but almost certainly not intended, or a correctness hazard.
    Warning,
    /// A suggestion (e.g. a cheaper equivalent form).
    Help,
}

impl Severity {
    /// The stable lowercase label (`error`/`warning`/`help`), shared by
    /// the rustc-style renderer and the `--json` output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Help => "help",
        }
    }

    fn label(self) -> &'static str {
        self.as_str()
    }
}

/// A byte range into the checked source (query text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start byte offset, inclusive.
    pub start: usize,
    /// End byte offset, exclusive.
    pub end: usize,
}

/// One finding of the static analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// How serious it is.
    pub severity: Severity,
    /// Where in the checked source, when the finding is source-anchored.
    pub span: Option<Span>,
    /// The primary message.
    pub message: String,
    /// Supporting evidence (e.g. the witnessing RIG edge for QOF024).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Builds a diagnostic with no span and no notes.
    pub fn new(code: Code, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic { code, severity, span: None, message: message.into(), notes: Vec::new() }
    }

    /// Attaches a source span.
    #[must_use]
    pub fn with_span(mut self, span: Span) -> Self {
        self.span = Some(span);
        self
    }

    /// Appends a note.
    #[must_use]
    pub fn with_note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic in rustc style. Passing the checked source
    /// adds the quoted line with a caret underline when the diagnostic has
    /// a span:
    ///
    /// ```text
    /// error[QOF024]: path `r.Title.Last_Name` is trivially empty (Proposition 3.3)
    ///  --> query:1:35
    ///   |
    /// 1 | SELECT r FROM References r WHERE r.Title.Last_Name = "Chang"
    ///   |                                   ^^^^^^^^^^^^^^^^
    ///   = note: the RIG has no path from `Title` to `Last_Name`
    /// ```
    pub fn render(&self, source: Option<&str>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{}[{}]: {}", self.severity.label(), self.code, self.message);
        if let (Some(span), Some(src)) = (self.span, source) {
            let start = span.start.min(src.len());
            let line_no = src[..start].bytes().filter(|&b| b == b'\n').count() + 1;
            let line_start = src[..start].rfind('\n').map_or(0, |i| i + 1);
            let line_end = src[start..].find('\n').map_or(src.len(), |i| start + i);
            let col = start - line_start + 1;
            let line: Vec<char> = src[line_start..line_end].chars().collect();
            // The span in characters. A long line is quoted around it:
            // QUOTE_CONTEXT characters either side of its first
            // QUOTE_CONTEXT, each cut marked `…`.
            let at = src[line_start..start].chars().count();
            let rest = src[start..line_end].char_indices();
            let width = rest.take_while(|&(i, _)| start + i < span.end).count().max(1);
            let (from, to) = if line.len() <= 3 * QUOTE_CONTEXT {
                (0, line.len())
            } else {
                let to = at + width.min(QUOTE_CONTEXT) + QUOTE_CONTEXT;
                (at.saturating_sub(QUOTE_CONTEXT), to.min(line.len()))
            };
            let quoted: String = line[from..to].iter().collect();
            let cut = |cut: bool| if cut { "…" } else { "" };
            let gutter = line_no.to_string().len();
            let _ = writeln!(out, "{:gutter$}--> query:{line_no}:{col}", "");
            let _ = writeln!(out, "{:gutter$} |", "");
            let _ = writeln!(out, "{line_no} | {}{quoted}{}", cut(from > 0), cut(to < line.len()));
            let pad = usize::from(from > 0) + at - from;
            let carets = "^".repeat(width.min(to.saturating_sub(at)).max(1));
            let _ = writeln!(out, "{:gutter$} | {:pad$}{carets}", "", "");
        }
        for note in &self.notes {
            let _ = writeln!(out, "  = note: {note}");
        }
        out
    }

    /// Serializes the diagnostic as one JSON object — the machine-readable
    /// twin of [`Diagnostic::render`], sharing the same data model. The
    /// `span` key is omitted when the finding is not source-anchored.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let esc = qof_pat::json::escape;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"message\":\"{}\"",
            self.code,
            self.severity.as_str(),
            esc(&self.message)
        );
        if let Some(span) = self.span {
            let _ = write!(out, ",\"span\":{{\"start\":{},\"end\":{}}}", span.start, span.end);
        }
        out.push_str(",\"notes\":[");
        for (i, note) in self.notes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\"", esc(note));
        }
        out.push_str("]}");
        out
    }
}

/// Characters of a long source line that a rendered diagnostic quotes on
/// each side of its span, and of the span itself.
const QUOTE_CONTEXT: usize = 40;

/// Renders a batch of diagnostics against one source, separated by blank
/// lines, with a closing summary count.
pub fn render_all(diags: &[Diagnostic], source: Option<&str>) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render(source));
        out.push('\n');
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
    out.push_str(&format!("{errors} error(s), {warnings} warning(s)\n"));
    out
}

/// Levenshtein edit distance, for did-you-mean suggestions.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The closest candidate within an edit-distance budget scaled to the
/// name's length (the rustc heuristic: short names tolerate one edit).
pub(crate) fn did_you_mean<'a>(
    name: &str,
    candidates: impl IntoIterator<Item = &'a str>,
) -> Option<&'a str> {
    let budget = (name.chars().count() / 3).max(2);
    candidates
        .into_iter()
        .map(|c| (edit_distance(name, c), c))
        .filter(|&(d, _)| d <= budget)
        .min_by_key(|&(d, c)| (d, c.len()))
        .map(|(_, c)| c)
}

/// Locates `name` in `src` as a whole identifier (bounded by
/// non-identifier characters), for span-anchoring diagnostics without
/// threading positions through the AST.
pub(crate) fn locate(src: &str, name: &str) -> Option<Span> {
    if name.is_empty() {
        return None;
    }
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(i) = src[from..].find(name) {
        let start = from + i;
        let end = start + name.len();
        let left_ok = start == 0 || !is_ident(src.as_bytes()[start - 1]);
        let right_ok = end == src.len() || !is_ident(src.as_bytes()[end]);
        if left_ok && right_ok {
            return Some(Span { start, end });
        }
        from = start + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(Code::Qof024.as_str(), "QOF024");
        assert_eq!(Code::Qof011.to_string(), "QOF011");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("Year", "Year"), 0);
    }

    #[test]
    fn did_you_mean_respects_budget() {
        assert_eq!(did_you_mean("Yaer", ["Year", "Title"]), Some("Year"));
        assert_eq!(did_you_mean("Zzz", ["Year", "Title"]), None);
    }

    #[test]
    fn locate_matches_whole_identifiers() {
        let src = "SELECT r FROM References r WHERE r.Year = \"1982\"";
        let span = locate(src, "Year").unwrap();
        assert_eq!(&src[span.start..span.end], "Year");
        // `r` must match the variable, not the `r` inside `References`.
        let span = locate(src, "r").unwrap();
        assert_eq!(span.start, 7);
    }

    #[test]
    fn render_with_span_quotes_the_line() {
        let src = "SELECT r FROM Refs r";
        let d = Diagnostic::new(Code::Qof021, Severity::Error, "unknown view `Refs`")
            .with_span(locate(src, "Refs").unwrap())
            .with_note("did you mean `References`?");
        let text = d.render(Some(src));
        assert!(text.contains("error[QOF021]"), "{text}");
        assert!(text.contains("--> query:1:15"), "{text}");
        assert!(text.contains("^^^^"), "{text}");
        assert!(text.contains("= note: did you mean"), "{text}");
    }
}
