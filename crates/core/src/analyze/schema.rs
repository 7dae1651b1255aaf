//! Schema and index lints (`QOF001`, `QOF002`, `QOF004`, `QOF010`).

use super::{Code, Diagnostic, Severity};
use qof_grammar::{IndexSpec, StructuringSchema};
use std::collections::BTreeSet;

/// Lints a structuring schema without any file or index:
///
/// * `QOF001` — non-terminals unreachable from the root (dead rules);
/// * `QOF002` — nullable non-terminals whose zero-width regions break the
///   region-forest nesting the optimizer relies on;
/// * `QOF004` — views over symbols the grammar does not define.
pub fn check_schema(schema: &StructuringSchema) -> Vec<Diagnostic> {
    let grammar = &schema.grammar;
    let mut out = Vec::new();

    for (view, symbol) in schema.views() {
        if grammar.symbol(symbol).is_none() {
            let d = Diagnostic::new(
                Code::Qof004,
                Severity::Error,
                format!("view `{view}` ranges over `{symbol}`, which the grammar does not define"),
            )
            .with_note("every view must name a grammar non-terminal (§4.1)");
            out.push(match super::did_you_mean(symbol, grammar.symbols().map(|(_, n)| n)) {
                Some(s) => d.with_note(format!("did you mean `{s}`?")),
                None => d,
            });
        }
    }

    let reachable = grammar.reachable_symbols();
    for (id, name) in grammar.symbols() {
        if !reachable.contains(&id) {
            out.push(
                Diagnostic::new(
                    Code::Qof001,
                    Severity::Warning,
                    format!("non-terminal `{name}` is unreachable from the root"),
                )
                .with_note("its regions can never occur in a parsed file, so querying or indexing it is dead weight"),
            );
        }
    }

    for id in grammar.nullable_symbols() {
        if !reachable.contains(&id) {
            continue; // already reported as QOF001
        }
        let name = grammar.name(id);
        out.push(
            Diagnostic::new(
                Code::Qof002,
                Severity::Warning,
                format!("non-terminal `{name}` can match the empty string"),
            )
            .with_note(
                "zero-width regions cannot be ordered in the region forest, so nesting tests \
                 on them are unreliable; delimit the rule (e.g. bracket the repetition)",
            ),
        );
    }

    out
}

/// Lints an index specification against a schema (`QOF010`): indexed names
/// that are not grammar symbols, or that no derivation from the root ever
/// produces — either way the index bucket can never serve a query path.
pub fn check_index(schema: &StructuringSchema, spec: &IndexSpec) -> Vec<Diagnostic> {
    let grammar = &schema.grammar;
    let mut out = Vec::new();
    if spec.is_full() {
        return out;
    }
    let reachable: BTreeSet<&str> =
        grammar.reachable_symbols().into_iter().map(|id| grammar.name(id)).collect();
    for name in spec.plain_names() {
        if grammar.symbol(name).is_none() {
            let d = Diagnostic::new(
                Code::Qof010,
                Severity::Error,
                format!("indexed name `{name}` is not a grammar symbol"),
            );
            out.push(match super::did_you_mean(name, grammar.symbols().map(|(_, n)| n)) {
                Some(s) => d.with_note(format!("did you mean `{s}`?")),
                None => d,
            });
        } else if !reachable.contains(name) {
            out.push(
                Diagnostic::new(
                    Code::Qof010,
                    Severity::Warning,
                    format!("indexed region `{name}` is unreachable from the grammar root"),
                )
                .with_note("no derivation produces it, so its index bucket stays empty"),
            );
        }
    }
    out
}
