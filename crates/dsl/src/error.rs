//! Error type shared by the lexer, parser, and validator.

use std::error::Error;
use std::fmt;

use crate::span::Span;

/// An error produced while lexing, parsing, or validating a DSL program.
///
/// The error carries the phase it arose in, a human-readable message, and
/// the [`Span`] of the offending source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DslError {
    phase: Phase,
    message: String,
    span: Span,
}

/// Which stage of the front end rejected the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Tokenization failed (e.g. an illegal character).
    Lex,
    /// The token stream did not match the grammar.
    Parse,
    /// The program is grammatical but semantically invalid.
    Validate,
}

impl DslError {
    /// Creates a lexical error.
    pub(crate) fn lex(message: impl Into<String>, span: Span) -> Self {
        DslError { phase: Phase::Lex, message: message.into(), span }
    }

    /// Creates a syntax error.
    pub fn parse(message: impl Into<String>, span: Span) -> Self {
        DslError { phase: Phase::Parse, message: message.into(), span }
    }

    /// Creates a semantic-validation error.
    pub(crate) fn validate(message: impl Into<String>, span: Span) -> Self {
        DslError { phase: Phase::Validate, message: message.into(), span }
    }

    /// The source span the diagnostic points at.
    pub fn span(&self) -> Span {
        self.span
    }
}

impl fmt::Display for DslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex error",
            Phase::Parse => "parse error",
            Phase::Validate => "validation error",
        };
        write!(f, "{} at {}: {}", phase, self.span, self.message)
    }
}

impl Error for DslError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_phase_and_location() {
        let e = DslError::parse("expected `;`", Span::new(3, 4, 2, 1));
        assert_eq!(e.to_string(), "parse error at 2:1: expected `;`");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DslError>();
    }
}
