//! Error type for the transformation pipeline.

use crate::xml::XmlError;
use mscope_db::{ColumnType, DbError};
use std::error::Error;
use std::fmt;

/// Errors from any stage of mScopeDataTransformer.
#[derive(Debug)]
pub enum TransformError {
    /// A pattern is statically malformed (empty token, adjacent wildcards,
    /// duplicate capture, …) — found by [`Pattern::validate`](crate::Pattern::validate).
    BadPattern {
        /// Rendered pattern template.
        pattern: String,
        /// Which static rule it violates.
        rule: &'static str,
        /// Human-readable explanation.
        reason: String,
    },
    /// A parsing declaration fails static validation
    /// ([`declare::validate`](crate::declare::validate)) — the pipeline
    /// refuses to run it rather than fail mid-load.
    BadDeclaration {
        /// Which static rule it violates.
        rule: &'static str,
        /// The declaration (or pattern within it) at fault.
        subject: String,
        /// Human-readable explanation.
        reason: String,
    },
    /// A log line survived the filters but matched no instruction.
    UnparsedLine {
        /// File being parsed.
        file: String,
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
    },
    /// A file named in a declaration is missing from the log store.
    MissingFile(String),
    /// XML stage failure.
    Xml(XmlError),
    /// Schema inference failure (ambiguous annotation).
    SchemaInference(String),
    /// A cell could not be read as its column's type.
    BadCell {
        /// Destination table.
        table: String,
        /// Column name.
        column: String,
        /// Raw text.
        value: String,
        /// Column type.
        expected: ColumnType,
    },
    /// Warehouse error.
    Db(DbError),
}

impl fmt::Display for TransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransformError::BadPattern {
                pattern,
                rule,
                reason,
            } => {
                write!(f, "invalid pattern `{pattern}` [{rule}]: {reason}")
            }
            TransformError::BadDeclaration {
                rule,
                subject,
                reason,
            } => {
                write!(f, "invalid declaration {subject} [{rule}]: {reason}")
            }
            TransformError::UnparsedLine {
                file,
                line_no,
                line,
            } => {
                write!(f, "unparsed line {line_no} of `{file}`: {line:?}")
            }
            TransformError::MissingFile(p) => write!(f, "declared log file `{p}` not found"),
            TransformError::Xml(e) => write!(f, "{e}"),
            TransformError::SchemaInference(m) => write!(f, "schema inference failed: {m}"),
            TransformError::BadCell {
                table,
                column,
                value,
                expected,
            } => write!(
                f,
                "cell {value:?} of `{table}`.`{column}` is not a valid {expected}"
            ),
            TransformError::Db(e) => write!(f, "{e}"),
        }
    }
}

impl Error for TransformError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TransformError::Xml(e) => Some(e),
            TransformError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<XmlError> for TransformError {
    fn from(e: XmlError) -> Self {
        TransformError::Xml(e)
    }
}

impl From<DbError> for TransformError {
    fn from(e: DbError) -> Self {
        TransformError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = TransformError::UnparsedLine {
            file: "a.log".into(),
            line_no: 7,
            line: "junk".into(),
        };
        assert!(e.to_string().contains("line 7"));
        assert!(TransformError::MissingFile("x".into())
            .to_string()
            .contains("x"));
        let e = TransformError::BadCell {
            table: "t".into(),
            column: "c".into(),
            value: "zz".into(),
            expected: ColumnType::Int,
        };
        assert!(e.to_string().contains("zz"));
    }

    #[test]
    fn error_trait_and_source() {
        fn is_err<E: Error + Send + Sync + 'static>(_: &E) {}
        let e = TransformError::Db(DbError::NoSuchTable("x".into()));
        is_err(&e);
        assert!(e.source().is_some());
        assert!(TransformError::MissingFile("p".into()).source().is_none());
    }
}
