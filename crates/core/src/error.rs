//! Error type for the milliScope facade.

use mscope_db::DbError;
use mscope_transform::TransformError;
use std::error::Error;
use std::fmt;

/// Errors from experiment orchestration, ingestion, or analysis queries.
#[derive(Debug)]
pub enum CoreError {
    /// The system configuration failed validation.
    Config(String),
    /// Log transformation / loading failed.
    Transform(TransformError),
    /// Warehouse query failed.
    Db(DbError),
    /// An analysis step failed (missing table/column, empty data, …).
    Analysis(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(m) => write!(f, "invalid configuration: {m}"),
            CoreError::Transform(e) => write!(f, "{e}"),
            CoreError::Db(e) => write!(f, "{e}"),
            CoreError::Analysis(m) => write!(f, "analysis failed: {m}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Transform(e) => Some(e),
            CoreError::Db(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransformError> for CoreError {
    fn from(e: TransformError) -> Self {
        CoreError::Transform(e)
    }
}

impl From<DbError> for CoreError {
    fn from(e: DbError) -> Self {
        CoreError::Db(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = CoreError::Config("zero users".into());
        assert!(e.to_string().contains("zero users"));
        assert!(e.source().is_none());
        let e = CoreError::Db(DbError::NoSuchTable("x".into()));
        assert!(e.source().is_some());
        fn assert_err<E: Error + Send + Sync + 'static>(_: &E) {}
        assert_err(&e);
    }
}
