//! Error types shared by the core crate.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while building, parsing, or transforming automata.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// An STE id referenced a state that does not exist.
    UnknownState(String),
    /// An automaton failed a structural validity check.
    InvalidAutomaton(String),
    /// A regular expression failed to parse; the offset is in bytes.
    RegexSyntax { offset: usize, message: String },
    /// A regular expression expanded past the configured state budget.
    RegexTooLarge { limit: usize },
    /// A regex, XML or JSON input nests deeper than its parser's fixed
    /// depth limit. Reported instead of recursing until the stack
    /// overflows, which would abort the process.
    NestingTooDeep { limit: usize },
    /// An ANML document failed to parse.
    AnmlSyntax { line: usize, message: String },
    /// An MNRL document failed to parse.
    MnrlSyntax { offset: usize, message: String },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownState(id) => write!(f, "unknown state id `{id}`"),
            Error::InvalidAutomaton(msg) => write!(f, "invalid automaton: {msg}"),
            Error::RegexSyntax { offset, message } => {
                write!(f, "regex syntax error at byte {offset}: {message}")
            }
            Error::RegexTooLarge { limit } => {
                write!(f, "regex expansion exceeds the state budget of {limit}")
            }
            Error::NestingTooDeep { limit } => {
                write!(f, "input nests deeper than the limit of {limit}")
            }
            Error::AnmlSyntax { line, message } => {
                write!(f, "ANML parse error at line {line}: {message}")
            }
            Error::MnrlSyntax { offset, message } => {
                write!(f, "MNRL parse error at byte {offset}: {message}")
            }
        }
    }
}

impl StdError for Error {}

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let err = Error::UnknownState("q42".into());
        assert_eq!(err.to_string(), "unknown state id `q42`");
        let err = Error::RegexSyntax {
            offset: 3,
            message: "unbalanced parenthesis".into(),
        };
        assert!(err.to_string().contains("byte 3"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
