//! Record batches: equal-length named columns, the unit the vectorized
//! engine consumes ("morsels" are row-ranges of a chunk).

use crate::column::Column;
use crate::value::{DataType, Value};
use std::fmt;

/// Error constructing or extending a [`Chunk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChunkError {
    /// Columns have differing lengths.
    RaggedColumns {
        /// The length of the first column.
        expected: usize,
        /// The offending column's name.
        column: String,
        /// The offending column's length.
        found: usize,
    },
    /// A column name appears twice.
    DuplicateColumn(
        /// The duplicated name.
        String,
    ),
    /// A referenced column does not exist.
    NoSuchColumn(
        /// The missing name.
        String,
    ),
}

impl fmt::Display for ChunkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChunkError::RaggedColumns { expected, column, found } => {
                write!(f, "column {column:?} has {found} rows, expected {expected}")
            }
            ChunkError::DuplicateColumn(name) => write!(f, "duplicate column {name:?}"),
            ChunkError::NoSuchColumn(name) => write!(f, "no such column {name:?}"),
        }
    }
}

impl std::error::Error for ChunkError {}

/// An immutable-schema batch of equal-length columns.
///
/// ```
/// use haec_columnar::chunk::Chunk;
/// use haec_columnar::column::Column;
/// let chunk = Chunk::new(vec![
///     ("id".into(), (0i64..4).collect::<Vec<_>>().into_iter().collect::<Column>()),
///     ("price".into(), vec![9.5f64, 1.0, 2.0, 3.25].into_iter().collect::<Column>()),
/// ]).unwrap();
/// assert_eq!(chunk.rows(), 4);
/// assert_eq!(chunk.column("price").unwrap().data_type().to_string(), "float64");
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Chunk {
    columns: Vec<(String, Column)>,
    rows: usize,
}

impl Chunk {
    /// Builds a chunk from named columns.
    ///
    /// # Errors
    ///
    /// Returns [`ChunkError::RaggedColumns`] if lengths differ and
    /// [`ChunkError::DuplicateColumn`] on name collisions.
    pub fn new(columns: Vec<(String, Column)>) -> Result<Self, ChunkError> {
        let rows = columns.first().map_or(0, |(_, c)| c.len());
        for (name, col) in &columns {
            if col.len() != rows {
                return Err(ChunkError::RaggedColumns {
                    expected: rows,
                    column: name.clone(),
                    found: col.len(),
                });
            }
        }
        for (i, (name, _)) in columns.iter().enumerate() {
            if columns[..i].iter().any(|(n, _)| n == name) {
                return Err(ChunkError::DuplicateColumn(name.clone()));
            }
        }
        Ok(Chunk { columns, rows })
    }

    /// An empty, zero-column chunk.
    pub fn empty() -> Self {
        Chunk { columns: Vec::new(), rows: 0 }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.columns.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> Option<&Column> {
        self.columns.get(idx).map(|(_, c)| c)
    }

    /// Iterates over `(name, column)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> + '_ {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// The `(name, type)` schema of this chunk.
    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.columns.iter().map(|(n, c)| (n.clone(), c.data_type())).collect()
    }

    /// One row as values (for debugging / result rendering).
    pub fn row(&self, i: usize) -> Option<Vec<Value>> {
        if i >= self.rows {
            return None;
        }
        Some(self.columns.iter().map(|(_, c)| c.get(i).expect("within bounds")).collect())
    }

    /// Gathers `positions` rows from all columns into a new chunk.
    ///
    /// String columns gather **code-to-code** (see [`Column::gather`]):
    /// the output dictionary holds each distinct gathered value once, so
    /// gathering N rows never hashes N strings.
    ///
    /// # Panics
    ///
    /// Panics if a position is out of bounds.
    pub fn gather(&self, positions: &[usize]) -> Chunk {
        Chunk {
            columns: self.columns.iter().map(|(n, c)| (n.clone(), c.gather(positions))).collect(),
            rows: positions.len(),
        }
    }

    /// Total approximate footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.columns.iter().map(|(_, c)| c.size_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dict::DictColumn;

    fn sample() -> Chunk {
        Chunk::new(vec![
            ("id".into(), (0i64..5).collect::<Vec<_>>().into_iter().collect()),
            ("grp".into(), Column::Str(DictColumn::from_iter(["a", "b", "a", "b", "c"]))),
        ])
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let c = sample();
        assert_eq!(c.rows(), 5);
        assert_eq!(c.width(), 2);
        assert_eq!(c.names(), vec!["id", "grp"]);
        assert!(c.column("id").is_some());
        assert!(c.column_at(1).is_some());
        assert!(c.column_at(2).is_none());
    }

    #[test]
    fn schema_and_rows() {
        let c = sample();
        let schema = c.schema();
        assert_eq!(schema[0], ("id".to_string(), DataType::Int64));
        assert_eq!(schema[1], ("grp".to_string(), DataType::Str));
        let row = c.row(2).unwrap();
        assert_eq!(row, vec![Value::Int(2), Value::from("a")]);
        assert!(c.row(5).is_none());
    }

    #[test]
    fn ragged_rejected() {
        let err = Chunk::new(vec![
            ("a".into(), vec![1i64].into_iter().collect()),
            ("b".into(), vec![1i64, 2].into_iter().collect()),
        ])
        .unwrap_err();
        assert!(matches!(err, ChunkError::RaggedColumns { .. }));
        assert!(format!("{err}").contains("expected 1"));
    }

    #[test]
    fn duplicate_rejected() {
        let err = Chunk::new(vec![
            ("a".into(), vec![1i64].into_iter().collect()),
            ("a".into(), vec![2i64].into_iter().collect()),
        ])
        .unwrap_err();
        assert_eq!(err, ChunkError::DuplicateColumn("a".into()));
    }

    #[test]
    fn gather_rows() {
        let c = sample();
        let g = c.gather(&[4, 0]);
        assert_eq!(g.rows(), 2);
        assert_eq!(g.row(0).unwrap(), vec![Value::Int(4), Value::from("c")]);
        assert_eq!(g.row(1).unwrap(), vec![Value::Int(0), Value::from("a")]);
        // Code-to-code: the gathered string column's dictionary holds
        // only the touched values.
        assert_eq!(g.column("grp").unwrap().as_str().unwrap().dict_size(), 2);
    }

    #[test]
    fn empty_chunk() {
        let c = Chunk::empty();
        assert_eq!(c.rows(), 0);
        assert_eq!(c.width(), 0);
        assert_eq!(c.size_bytes(), 0);
    }
}
