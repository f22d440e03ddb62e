//! Flexible schema: "data comes first, schema comes second" (§II).
//!
//! A [`TableSchema`] either enforces a declared column set
//! ([`SchemaMode::Strict`], the classical plan-design-load workflow) or
//! evolves as records arrive ([`SchemaMode::Flexible`]): unseen fields
//! add columns on the fly, missing fields become nulls. Experiment E13
//! compares load-to-query time and evolution cost between the modes.

use crate::error::{DbError, DbResult};
use haec_columnar::value::{DataType, Value};
use std::fmt;

/// Schema enforcement mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SchemaMode {
    /// Fixed columns; unknown or missing fields are errors.
    Strict,
    /// Columns appear as data arrives; missing fields are null.
    Flexible,
}

impl fmt::Display for SchemaMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaMode::Strict => f.write_str("strict"),
            SchemaMode::Flexible => f.write_str("flexible"),
        }
    }
}

/// One record at the ingestion boundary: named values.
///
/// ```
/// use haecdb::schema::Record;
/// let r = Record::new().with("id", 1i64).with("name", "x");
/// assert_eq!(r.len(), 2);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Record {
    fields: Vec<(String, Value)>,
}

impl Record {
    /// Creates an empty record.
    pub fn new() -> Self {
        Record::default()
    }

    /// Adds a field (builder style).
    pub fn with(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.push((name.into(), value.into()));
        self
    }

    /// Adds a field in place.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.fields.push((name.into(), value.into()));
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Returns `true` if the record has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks a field up by name.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Iterates over `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> + '_ {
        self.fields.iter().map(|(n, v)| (n.as_str(), v))
    }
}

/// A record checked against a schema ([`TableSchema::check`]).
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Checked<'r> {
    /// The value to store per column — the schema's columns, then
    /// `new_columns` — borrowed from the record (`Value::Null` for
    /// missing fields).
    pub(crate) values: Vec<&'r Value>,
    /// The columns a flexible schema has to grow for this record.
    pub(crate) new_columns: Vec<(String, DataType)>,
}

/// A table's column layout plus its enforcement mode.
#[derive(Clone, Debug, PartialEq)]
pub struct TableSchema {
    mode: SchemaMode,
    columns: Vec<(String, DataType)>,
    /// How many columns were added after creation (schema drift metric).
    evolved: usize,
    /// Declared physical sort key: `merge()` rebuilds main segments
    /// globally ordered by this column (string keys sort by dictionary
    /// code, not collation — see `Table::merge`).
    sort_key: Option<String>,
}

impl TableSchema {
    /// A strict schema with the given columns.
    pub fn strict(columns: Vec<(String, DataType)>) -> Self {
        TableSchema { mode: SchemaMode::Strict, columns, evolved: 0, sort_key: None }
    }

    /// An empty flexible schema.
    pub fn flexible() -> Self {
        TableSchema { mode: SchemaMode::Flexible, columns: Vec::new(), evolved: 0, sort_key: None }
    }

    /// Declares `column` as the physical sort key. The column must
    /// exist and be `Int64` or `Str`; `merge()` then produces sorted
    /// runs and the planner treats the layout as a costed property.
    ///
    /// # Panics
    ///
    /// Panics if the column is missing or is a float column (floats
    /// have no total order the engine's zone maps understand). Use
    /// [`Database::create_table_sorted`](crate::Database::create_table_sorted)
    /// for a fallible variant.
    #[must_use]
    pub fn with_sort_key(mut self, column: &str) -> Self {
        let dtype = self
            .columns
            .iter()
            .find(|(n, _)| n == column)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("sort key {column:?} is not a schema column"));
        assert!(
            matches!(dtype, DataType::Int64 | DataType::Str),
            "sort key {column:?} must be Int64 or Str, got {dtype:?}"
        );
        self.sort_key = Some(column.to_string());
        self
    }

    /// The declared sort key, if any.
    pub fn sort_key(&self) -> Option<&str> {
        self.sort_key.as_deref()
    }

    /// The enforcement mode.
    pub fn mode(&self) -> SchemaMode {
        self.mode
    }

    /// The column layout.
    pub fn columns(&self) -> &[(String, DataType)] {
        &self.columns
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    /// Columns added after creation.
    pub fn evolved_columns(&self) -> usize {
        self.evolved
    }

    /// Position of a column.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|(n, _)| n == name)
    }

    /// Validates `record` against the schema, evolving it when the mode
    /// allows. Returns, per schema column (post-evolution order), the
    /// value to store, borrowed from the record (`Value::Null` for
    /// missing fields). The whole record is checked **before** the
    /// schema changes: a rejected record leaves the schema exactly as it
    /// was.
    ///
    /// # Errors
    ///
    /// In strict mode: unknown fields, missing fields and type
    /// mismatches are [`DbError`]s. In flexible mode only type
    /// mismatches on existing columns fail; a field whose first
    /// appearance is null is an error too (its type cannot be
    /// inferred).
    pub fn admit<'r>(&mut self, record: &'r Record) -> DbResult<Vec<&'r Value>> {
        let checked = self.check(record)?;
        self.evolve(checked.new_columns);
        Ok(checked.values)
    }

    /// The read-only half of [`TableSchema::admit`]: the values to store
    /// per column — this schema's columns, then the columns a flexible
    /// schema has to grow for this record, which are returned beside
    /// them for [`TableSchema::evolve`].
    pub(crate) fn check<'r>(&self, record: &'r Record) -> DbResult<Checked<'r>> {
        match self.check_in_order(record) {
            Some(values) => Ok(Checked { values: values?, new_columns: Vec::new() }),
            None => self.check_any_order(record),
        }
    }

    /// The fast path of [`TableSchema::check`], for the shape of every
    /// bulk load: the record names the schema's columns in schema order,
    /// none of them null — one name comparison and one type check per
    /// cell. `None` for any other record, which
    /// [`TableSchema::check_any_order`] answers; where both apply they
    /// agree on values and errors.
    fn check_in_order<'r>(&self, record: &'r Record) -> Option<DbResult<Vec<&'r Value>>> {
        let in_order = record.fields.len() == self.columns.len()
            && record
                .fields
                .iter()
                .zip(&self.columns)
                .all(|((field, value), (name, _))| field == name && !value.is_null());
        in_order.then(|| {
            // A sized push loop: collecting into `Result<Vec<_>, _>` has no
            // size hint and measured ≈ 60 ns per six-field row slower.
            let mut values = Vec::with_capacity(self.columns.len());
            for ((_, value), (name, dtype)) in record.fields.iter().zip(&self.columns) {
                check_type(name, *dtype, value)?;
                values.push(value);
            }
            Ok(values)
        })
    }

    /// [`TableSchema::check`] for fields in any order, missing, extra,
    /// duplicated (the first occurrence counts) or null.
    fn check_any_order<'r>(&self, record: &'r Record) -> DbResult<Checked<'r>> {
        // Unknown fields.
        let mut new_columns: Vec<(String, DataType)> = Vec::new();
        for (name, value) in record.iter() {
            if self.position(name).is_none() && !new_columns.iter().any(|(n, _)| n == name) {
                match self.mode {
                    SchemaMode::Strict => {
                        return Err(DbError::SchemaViolation(format!("unknown field {name:?}")))
                    }
                    SchemaMode::Flexible => {
                        let dtype = value.data_type().ok_or_else(|| {
                            DbError::SchemaViolation(format!(
                                "cannot infer type of new field {name:?} from null"
                            ))
                        })?;
                        new_columns.push((name.to_string(), dtype));
                    }
                }
            }
        }
        // Assemble per-column values, checking types.
        static NULL: Value = Value::Null;
        let mut values = Vec::with_capacity(self.columns.len() + new_columns.len());
        for (name, dtype) in self.columns.iter().chain(&new_columns) {
            match record.get(name) {
                None if self.mode == SchemaMode::Strict => {
                    return Err(DbError::SchemaViolation(format!("missing field {name:?}")));
                }
                None | Some(Value::Null) => values.push(&NULL),
                Some(v) => {
                    check_type(name, *dtype, v)?;
                    values.push(v);
                }
            }
        }
        Ok(Checked { values, new_columns })
    }

    /// Appends the columns [`TableSchema::check`] found missing.
    pub(crate) fn evolve(&mut self, new_columns: Vec<(String, DataType)>) {
        self.evolved += new_columns.len();
        self.columns.extend(new_columns);
    }
}

/// A non-null `value` fits a column of type `dtype` (integers widen to
/// floats).
fn check_type(name: &str, dtype: DataType, value: &Value) -> DbResult<()> {
    let ok = matches!(
        (dtype, value),
        (DataType::Int64, Value::Int(_))
            | (DataType::Float64, Value::Float(_) | Value::Int(_))
            | (DataType::Str, Value::Str(_))
    );
    if ok {
        Ok(())
    } else {
        Err(DbError::TypeMismatch { column: name.to_string(), expected: dtype })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builder() {
        let r = Record::new().with("a", 1i64).with("b", 2.5).with("c", "x");
        assert_eq!(r.len(), 3);
        assert_eq!(r.get("a"), Some(&Value::Int(1)));
        assert_eq!(r.get("zz"), None);
        assert!(!r.is_empty());
        assert!(Record::new().is_empty());
    }

    #[test]
    fn strict_accepts_exact_match() {
        let mut s = TableSchema::strict(vec![("id".into(), DataType::Int64), ("name".into(), DataType::Str)]);
        let r = Record::new().with("id", 1i64).with("name", "a");
        let vals = s.admit(&r).unwrap();
        assert_eq!(vals, vec![&Value::Int(1), &Value::from("a")]);
        assert_eq!(s.evolved_columns(), 0);
    }

    #[test]
    fn strict_rejects_unknown_and_missing() {
        let mut s = TableSchema::strict(vec![("id".into(), DataType::Int64)]);
        let err = s.admit(&Record::new().with("id", 1i64).with("extra", 2i64)).unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)));
        let err = s.admit(&Record::new()).unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)));
    }

    #[test]
    fn strict_rejects_wrong_type() {
        let mut s = TableSchema::strict(vec![("id".into(), DataType::Int64)]);
        let err = s.admit(&Record::new().with("id", "oops")).unwrap_err();
        assert_eq!(err, DbError::TypeMismatch { column: "id".into(), expected: DataType::Int64 });
    }

    #[test]
    fn flexible_evolves() {
        let mut s = TableSchema::flexible();
        assert_eq!(s.width(), 0);
        let r1 = Record::new().with("a", 1i64);
        let v1 = s.admit(&r1).unwrap();
        assert_eq!(v1, vec![&Value::Int(1)]);
        // Second record adds a column; first column missing → null.
        let r2 = Record::new().with("b", "x");
        let v2 = s.admit(&r2).unwrap();
        assert_eq!(v2, vec![&Value::Null, &Value::from("x")]);
        assert_eq!(s.width(), 2);
        assert_eq!(s.evolved_columns(), 2);
    }

    #[test]
    fn flexible_rejects_type_drift() {
        let mut s = TableSchema::flexible();
        s.admit(&Record::new().with("a", 1i64)).unwrap();
        let err = s.admit(&Record::new().with("a", "now a string")).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch { .. }));
    }

    #[test]
    fn flexible_rejects_null_first_appearance() {
        let mut s = TableSchema::flexible();
        let r = Record::new().with("a", Value::Null);
        assert!(matches!(s.admit(&r).unwrap_err(), DbError::SchemaViolation(_)));
    }

    #[test]
    fn int_widens_to_float() {
        let mut s = TableSchema::strict(vec![("p".into(), DataType::Float64)]);
        let r = Record::new().with("p", 3i64);
        let v = s.admit(&r).unwrap();
        assert_eq!(v, vec![&Value::Int(3)]); // stored value keeps its form; column coerces
    }

    #[test]
    fn rejected_record_leaves_the_schema_untouched() {
        // The unknown field comes first: it must not be added before the
        // rest of the record has been type-checked.
        let mut s = TableSchema::flexible();
        s.admit(&Record::new().with("a", 1i64)).unwrap();
        let before = s.clone();
        let err = s.admit(&Record::new().with("b", 2i64).with("a", "x")).unwrap_err();
        assert_eq!(err, DbError::TypeMismatch { column: "a".into(), expected: DataType::Int64 });
        assert_eq!(s, before, "no column, no drift count");
        let err = s.admit(&Record::new().with("b", 2i64).with("c", Value::Null)).unwrap_err();
        assert!(matches!(err, DbError::SchemaViolation(_)));
        assert_eq!(s, before);
    }

    /// `admit` as it was before it borrowed its values and grew a fast
    /// path — run on a copy, so that a rejected record changes nothing
    /// (the one behaviour the rewrite fixed on purpose).
    fn admit_reference(schema: &TableSchema, record: &Record) -> DbResult<(Vec<Value>, TableSchema)> {
        let mut s = schema.clone();
        for (name, value) in record.iter() {
            if s.position(name).is_none() {
                match s.mode {
                    SchemaMode::Strict => {
                        return Err(DbError::SchemaViolation(format!("unknown field {name:?}")))
                    }
                    SchemaMode::Flexible => {
                        let dtype = value.data_type().ok_or_else(|| {
                            DbError::SchemaViolation(format!(
                                "cannot infer type of new field {name:?} from null"
                            ))
                        })?;
                        s.columns.push((name.to_string(), dtype));
                        s.evolved += 1;
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(s.columns.len());
        for (name, dtype) in &s.columns {
            match record.get(name) {
                None | Some(Value::Null) => {
                    if s.mode == SchemaMode::Strict && record.get(name).is_none() {
                        return Err(DbError::SchemaViolation(format!("missing field {name:?}")));
                    }
                    out.push(Value::Null);
                }
                Some(v) => {
                    let ok = matches!(
                        (dtype, v),
                        (DataType::Int64, Value::Int(_))
                            | (DataType::Float64, Value::Float(_) | Value::Int(_))
                            | (DataType::Str, Value::Str(_))
                    );
                    if !ok {
                        return Err(DbError::TypeMismatch { column: name.clone(), expected: *dtype });
                    }
                    out.push(v.clone());
                }
            }
        }
        Ok((out, s))
    }

    const NAMES: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    const TYPES: [DataType; 3] = [DataType::Int64, DataType::Float64, DataType::Str];

    fn value_of(kind: u8, seed: usize) -> Value {
        match kind {
            0 => Value::Int(seed as i64 - 2),
            1 => Value::Float(seed as f64 / 2.0),
            2 => Value::from(NAMES[seed % NAMES.len()]),
            _ => Value::Null,
        }
    }

    proptest::proptest! {
        /// The in-order fast path, the general path and the old `admit`
        /// agree on values, errors and evolution — over permuted,
        /// missing, extra, duplicated, null and Int-into-Float64 fields,
        /// strict and flexible.
        #[test]
        fn admit_paths_agree_with_the_old_semantics(
            flexible in proptest::prelude::any::<bool>(),
            width in 0usize..5,
            types in proptest::collection::vec(0usize..3, 4),
            // Half the records start as the schema's own fields in schema
            // order (the fast path's shape) before the edits below.
            in_order in proptest::prelude::any::<bool>(),
            edits in proptest::collection::vec((0usize..6, 0u8..4, 0usize..8), 0..4),
            cut in 0usize..8,
        ) {
            let columns: Vec<(String, DataType)> =
                (0..width).map(|i| (NAMES[i].to_string(), TYPES[types[i]])).collect();
            let mode = if flexible { SchemaMode::Flexible } else { SchemaMode::Strict };
            let schema = TableSchema { mode, columns, evolved: 0, sort_key: None };
            let mut record = Record::new();
            if in_order {
                for (i, (name, dtype)) in schema.columns.iter().enumerate() {
                    // An integer into a float column rides the fast path too.
                    let kind = match dtype {
                        DataType::Int64 => 0,
                        DataType::Float64 => (i % 2) as u8,
                        DataType::Str => 2,
                    };
                    record.set(name.as_str(), value_of(kind, i));
                }
            }
            for (at, (name, kind, seed)) in edits.iter().enumerate() {
                // Appended (extra, duplicated, retyped, null fields) …
                record.set(NAMES[*name], value_of(*kind, *seed));
                // … or moved to the front (a permutation; a duplicate that
                // now wins over the original).
                if (at + seed) % 2 == 0 {
                    record.fields.rotate_right(1);
                }
            }
            if cut < record.fields.len() && !in_order {
                record.fields.remove(cut); // a missing field
            }

            let general = schema.check_any_order(&record);
            let reference = admit_reference(&schema, &record);
            match (&general, &reference) {
                (Ok(checked), Ok((want, evolved))) => {
                    proptest::prop_assert_eq!(&checked.values, &want.iter().collect::<Vec<_>>());
                    let mut grown = schema.clone();
                    grown.evolve(checked.new_columns.clone());
                    proptest::prop_assert_eq!(&grown, evolved);
                }
                (Err(got), Err(want)) => proptest::prop_assert_eq!(got, want),
                _ => proptest::prop_assert!(false, "general {general:?} vs reference {reference:?}"),
            }
            if let Some(fast) = schema.check_in_order(&record) {
                let fast = fast.map(|values| Checked { values, new_columns: Vec::new() });
                proptest::prop_assert_eq!(fast, general.clone());
            }
            // And the public entry: evolves on success only.
            let mut admitted = schema.clone();
            match (admitted.admit(&record), reference) {
                (Ok(_), Ok((_, evolved))) => proptest::prop_assert_eq!(admitted, evolved),
                (Err(_), Err(_)) => proptest::prop_assert_eq!(admitted, schema),
                _ => proptest::prop_assert!(false, "admit disagrees with the reference"),
            }
        }
    }

    #[test]
    fn position_lookup() {
        let s = TableSchema::strict(vec![("a".into(), DataType::Int64), ("b".into(), DataType::Str)]);
        assert_eq!(s.position("b"), Some(1));
        assert_eq!(s.position("zz"), None);
        assert_eq!(s.columns().len(), 2);
    }

    #[test]
    fn mode_display() {
        assert_eq!(format!("{}", SchemaMode::Flexible), "flexible");
    }
}
