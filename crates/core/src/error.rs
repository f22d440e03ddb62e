//! The crate-wide error type.

use haec_columnar::value::DataType;
use haec_energy::units::Joules;
use std::fmt;

/// Errors surfaced by the database facade.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The referenced table does not exist.
    NoSuchTable(
        /// Table name.
        String,
    ),
    /// A table with this name already exists.
    TableExists(
        /// Table name.
        String,
    ),
    /// The referenced column does not exist.
    NoSuchColumn {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// A value did not match the column type.
    TypeMismatch {
        /// Column name.
        column: String,
        /// The column's type.
        expected: DataType,
    },
    /// A strict-schema table rejected an unknown or missing field.
    SchemaViolation(
        /// Human-readable reason.
        String,
    ),
    /// The referenced index does not exist.
    NoSuchIndex {
        /// Table name.
        table: String,
        /// Column name.
        column: String,
    },
    /// Query execution failed in the engine.
    Exec(
        /// The execution-layer message.
        String,
    ),
    /// The query is malformed (e.g. aggregate without value column).
    BadQuery(
        /// Human-readable reason.
        String,
    ),
    /// The query was cancelled (explicitly or by deadline) before it
    /// completed. The engine stops within one morsel of the signal and
    /// bills the bytes it already touched — `partial_energy` is that
    /// honest partial charge, already applied to the meter.
    Cancelled {
        /// Energy consumed by the work done before the cancel landed.
        partial_energy: Joules,
    },
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::NoSuchTable(t) => write!(f, "no such table {t:?}"),
            DbError::TableExists(t) => write!(f, "table {t:?} already exists"),
            DbError::NoSuchColumn { table, column } => {
                write!(f, "no column {column:?} in table {table:?}")
            }
            DbError::TypeMismatch { column, expected } => {
                write!(f, "column {column:?} expects {expected}")
            }
            DbError::SchemaViolation(msg) => write!(f, "schema violation: {msg}"),
            DbError::NoSuchIndex { table, column } => {
                write!(f, "no index on {table:?}.{column:?}")
            }
            DbError::Exec(msg) => write!(f, "execution failed: {msg}"),
            DbError::BadQuery(msg) => write!(f, "bad query: {msg}"),
            DbError::Cancelled { partial_energy } => {
                write!(f, "query cancelled after spending {partial_energy}")
            }
        }
    }
}

impl std::error::Error for DbError {}

/// Crate-wide result alias.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(format!("{}", DbError::NoSuchTable("t".into())), "no such table \"t\"");
        assert!(format!("{}", DbError::TypeMismatch { column: "c".into(), expected: DataType::Int64 })
            .contains("int64"));
        assert!(format!("{}", DbError::SchemaViolation("x".into())).contains("x"));
    }
}
