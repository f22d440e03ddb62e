//! Typed in-memory columns and their statistics.

use crate::dict::DictColumn;
use crate::value::{DataType, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Error returned when a value of the wrong type is appended to a column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeMismatchError {
    /// The column's type.
    pub expected: DataType,
    /// The offending value's type (`None` = null).
    pub found: Option<DataType>,
}

impl fmt::Display for TypeMismatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.found {
            Some(t) => write!(f, "expected {} value, found {}", self.expected, t),
            None => write!(f, "expected {} value, found null", self.expected),
        }
    }
}

impl std::error::Error for TypeMismatchError {}

/// A typed, densely stored column.
///
/// ```
/// use haec_columnar::column::Column;
/// use haec_columnar::value::{DataType, Value};
/// let mut c = Column::new(DataType::Int64);
/// c.push(Value::Int(7)).unwrap();
/// assert_eq!(c.len(), 1);
/// assert_eq!(c.get(0), Some(Value::Int(7)));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Dictionary-encoded strings.
    Str(DictColumn),
}

impl Column {
    /// Creates an empty integer column.
    fn new_int64() -> Self {
        Column::Int64(Vec::new())
    }

    /// Creates an empty float column.
    fn new_float64() -> Self {
        Column::Float64(Vec::new())
    }

    /// Creates an empty string column.
    fn new_str() -> Self {
        Column::Str(DictColumn::new())
    }

    /// Creates an empty column of the given type.
    pub fn new(dtype: DataType) -> Self {
        match dtype {
            DataType::Int64 => Column::new_int64(),
            DataType::Float64 => Column::new_float64(),
            DataType::Str => Column::new_str(),
        }
    }

    /// The column's logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int64(_) => DataType::Int64,
            Column::Float64(_) => DataType::Float64,
            Column::Str(_) => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int64(v) => v.len(),
            Column::Float64(v) => v.len(),
            Column::Str(d) => d.len(),
        }
    }

    /// Returns `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value.
    ///
    /// Nulls are materialized as the type's default sentinel (`0`, `0.0`,
    /// `""`): the flexible-schema layer above records null positions in a
    /// separate bitmap and the dense storage stays branch-free.
    ///
    /// # Errors
    ///
    /// Returns [`TypeMismatchError`] if the value has a different type.
    pub fn push(&mut self, value: Value) -> Result<(), TypeMismatchError> {
        match (self, &value) {
            (Column::Int64(v), Value::Int(x)) => v.push(*x),
            (Column::Float64(v), Value::Float(x)) => v.push(*x),
            (Column::Float64(v), Value::Int(x)) => v.push(*x as f64),
            (Column::Str(d), Value::Str(s)) => {
                d.push(s);
            }
            (Column::Int64(v), Value::Null) => v.push(0),
            (Column::Float64(v), Value::Null) => v.push(0.0),
            (Column::Str(d), Value::Null) => {
                d.push("");
            }
            (col, v) => return Err(TypeMismatchError { expected: col.data_type(), found: v.data_type() }),
        }
        Ok(())
    }

    /// The value at row `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<Value> {
        match self {
            Column::Int64(v) => v.get(i).map(|&x| Value::Int(x)),
            Column::Float64(v) => v.get(i).map(|&x| Value::Float(x)),
            Column::Str(d) => d.get(i).map(|s| Value::Str(s.to_string())),
        }
    }

    /// Borrowed view of the integer data.
    pub fn as_int64(&self) -> Option<&[i64]> {
        match self {
            Column::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed view of the float data.
    pub fn as_float64(&self) -> Option<&[f64]> {
        match self {
            Column::Float64(v) => Some(v),
            _ => None,
        }
    }

    /// Borrowed view of the dictionary column.
    pub fn as_str(&self) -> Option<&DictColumn> {
        match self {
            Column::Str(d) => Some(d),
            _ => None,
        }
    }

    /// Approximate heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        match self {
            Column::Int64(v) => v.len() * 8,
            Column::Float64(v) => v.len() * 8,
            Column::Str(d) => d.size_bytes(),
        }
    }

    /// Gathers the rows selected by ascending `positions` into a new
    /// column (the materialization step after a filter).
    ///
    /// # Panics
    ///
    /// Panics if any position is out of bounds.
    pub fn gather(&self, positions: &[usize]) -> Column {
        match self {
            Column::Int64(v) => Column::Int64(positions.iter().map(|&i| v[i]).collect()),
            Column::Float64(v) => Column::Float64(positions.iter().map(|&i| v[i]).collect()),
            Column::Str(d) => {
                // Code-to-code: each distinct source code decodes into
                // the output dictionary once; repeats are O(1) remap
                // hits, never string hashes (see `DictColumn::from_codes`).
                // A gather far smaller than the dictionary keys a small
                // map by source code instead of allocating (and zeroing)
                // an O(dictionary) remap table.
                let mut dict: Vec<String> = Vec::new();
                let codes: Vec<u32> = if positions.len() * 8 < d.dict_size() {
                    let mut remap: HashMap<u32, u32> = HashMap::with_capacity(positions.len());
                    positions
                        .iter()
                        .map(|&i| {
                            let c = d.codes()[i];
                            *remap.entry(c).or_insert_with(|| {
                                dict.push(d.decode(c).expect("code in dict").to_string());
                                (dict.len() - 1) as u32
                            })
                        })
                        .collect()
                } else {
                    let mut remap: Vec<Option<u32>> = vec![None; d.dict_size()];
                    positions
                        .iter()
                        .map(|&i| {
                            let c = d.codes()[i] as usize;
                            *remap[c].get_or_insert_with(|| {
                                dict.push(d.decode(c as u32).expect("code in dict").to_string());
                                (dict.len() - 1) as u32
                            })
                        })
                        .collect()
                };
                Column::Str(DictColumn::from_codes(dict, codes))
            }
        }
    }

    /// Computes column statistics (a full pass; the catalog caches them).
    pub fn stats(&self) -> ColumnStats {
        match self {
            Column::Int64(v) => {
                let min = v.iter().copied().min();
                let max = v.iter().copied().max();
                ColumnStats {
                    rows: v.len(),
                    min: min.map(Value::Int),
                    max: max.map(Value::Int),
                    distinct: estimate_distinct_ints(v),
                }
            }
            Column::Float64(v) => {
                let min = v.iter().copied().fold(f64::INFINITY, f64::min);
                let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                ColumnStats {
                    rows: v.len(),
                    min: (!v.is_empty()).then_some(Value::Float(min)),
                    max: (!v.is_empty()).then_some(Value::Float(max)),
                    distinct: estimate_distinct_floats(v),
                }
            }
            Column::Str(d) => {
                let min = d.iter().min().map(|s| Value::Str(s.to_string()));
                let max = d.iter().max().map(|s| Value::Str(s.to_string()));
                ColumnStats { rows: d.len(), min, max, distinct: d.dict_size() as u64 }
            }
        }
    }
}

impl FromIterator<i64> for Column {
    fn from_iter<I: IntoIterator<Item = i64>>(iter: I) -> Self {
        Column::Int64(iter.into_iter().collect())
    }
}

impl FromIterator<f64> for Column {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Column::Float64(iter.into_iter().collect())
    }
}

/// Summary statistics the optimizer consumes.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnStats {
    /// Number of rows.
    pub rows: usize,
    /// Smallest value (`None` if empty).
    pub min: Option<Value>,
    /// Largest value (`None` if empty).
    pub max: Option<Value>,
    /// (Estimated) number of distinct values.
    pub distinct: u64,
}

impl ColumnStats {
    /// Estimated selectivity of `col = literal` under uniformity.
    pub fn eq_selectivity(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            1.0 / self.distinct as f64
        }
    }

    /// Estimated selectivity of `col < x` for an integer literal using
    /// the min/max range (linear interpolation).
    pub fn lt_selectivity(&self, x: i64) -> f64 {
        match (&self.min, &self.max) {
            (Some(Value::Int(lo)), Some(Value::Int(hi))) if hi > lo => {
                ((x - lo) as f64 / (hi - lo + 1) as f64).clamp(0.0, 1.0)
            }
            _ => 0.5,
        }
    }
}

const DISTINCT_SAMPLE: usize = 8192;

fn estimate_distinct_ints(v: &[i64]) -> u64 {
    if v.len() <= DISTINCT_SAMPLE {
        return v.iter().collect::<HashSet<_>>().len() as u64;
    }
    // Sample-based first-order jackknife estimate.
    let step = v.len() / DISTINCT_SAMPLE;
    let sample: Vec<i64> = v.iter().step_by(step).copied().collect();
    let d = sample.iter().collect::<HashSet<_>>().len() as f64;
    let scale = v.len() as f64 / sample.len() as f64;
    ((d * scale.sqrt()).min(v.len() as f64)) as u64
}

fn estimate_distinct_floats(v: &[f64]) -> u64 {
    let take = v.len().min(DISTINCT_SAMPLE);
    let d = v[..take].iter().map(|f| f.to_bits()).collect::<HashSet<_>>().len();
    if v.len() <= DISTINCT_SAMPLE {
        d as u64
    } else {
        ((d as f64) * (v.len() as f64 / take as f64).sqrt()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_each_type() {
        let mut i = Column::new_int64();
        i.push(Value::Int(1)).unwrap();
        i.push(Value::Null).unwrap();
        assert_eq!(i.get(0), Some(Value::Int(1)));
        assert_eq!(i.get(1), Some(Value::Int(0)), "null sentinel");

        let mut f = Column::new_float64();
        f.push(Value::Float(2.5)).unwrap();
        f.push(Value::Int(2)).unwrap(); // widening accepted
        assert_eq!(f.get(1), Some(Value::Float(2.0)));

        let mut s = Column::new_str();
        s.push(Value::from("x")).unwrap();
        assert_eq!(s.get(0), Some(Value::from("x")));
    }

    #[test]
    fn push_type_mismatch() {
        let mut i = Column::new_int64();
        let err = i.push(Value::from("nope")).unwrap_err();
        assert_eq!(err.expected, DataType::Int64);
        assert_eq!(err.found, Some(DataType::Str));
        assert!(format!("{err}").contains("expected int64"));
    }

    #[test]
    fn constructors_match_type() {
        for t in [DataType::Int64, DataType::Float64, DataType::Str] {
            assert_eq!(Column::new(t).data_type(), t);
        }
    }

    #[test]
    fn gather_selects_rows() {
        let c: Column = vec![10i64, 20, 30, 40].into_iter().collect();
        let g = c.gather(&[0, 2, 3]);
        assert_eq!(g.as_int64().unwrap(), &[10, 30, 40]);

        let s = Column::Str(DictColumn::from_iter(["a", "b", "c"]));
        let g = s.gather(&[2, 0]);
        assert_eq!(g.as_str().unwrap().iter().collect::<Vec<_>>(), vec!["c", "a"]);
    }

    #[test]
    fn gather_str_dedups_output_dictionary() {
        // Duplicate gathers share one dictionary entry (code-to-code),
        // and untouched source values never reach the output dictionary.
        let s = Column::Str(DictColumn::from_iter(["a", "b", "c", "b"]));
        let g = s.gather(&[1, 3, 1]);
        let d = g.as_str().unwrap();
        assert_eq!(d.iter().collect::<Vec<_>>(), vec!["b", "b", "b"]);
        assert_eq!(d.dict_size(), 1);
        // Tiny gather from a high-NDV column: the small-map branch gives
        // the same result without an O(dictionary) remap table.
        let values: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let wide = Column::Str(values.iter().map(String::as_str).collect());
        let g = wide.gather(&[7, 123, 7]);
        let d = g.as_str().unwrap();
        assert_eq!(d.iter().collect::<Vec<_>>(), vec!["v7", "v123", "v7"]);
        assert_eq!(d.dict_size(), 2);
    }

    #[test]
    fn stats_int() {
        let c: Column = vec![5i64, 1, 5, 9].into_iter().collect();
        let s = c.stats();
        assert_eq!(s.rows, 4);
        assert_eq!(s.min, Some(Value::Int(1)));
        assert_eq!(s.max, Some(Value::Int(9)));
        assert_eq!(s.distinct, 3);
    }

    #[test]
    fn stats_float_and_str() {
        let f: Column = vec![1.0f64, 2.0, 2.0].into_iter().collect();
        let s = f.stats();
        assert_eq!(s.min, Some(Value::Float(1.0)));
        assert_eq!(s.distinct, 2);

        let c = Column::Str(DictColumn::from_iter(["b", "a", "b"]));
        let s = c.stats();
        assert_eq!(s.min, Some(Value::from("a")));
        assert_eq!(s.max, Some(Value::from("b")));
        assert_eq!(s.distinct, 2);
    }

    #[test]
    fn stats_empty() {
        let c = Column::new_int64();
        let s = c.stats();
        assert_eq!(s.rows, 0);
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
        assert_eq!(s.eq_selectivity(), 0.0);
    }

    #[test]
    fn distinct_estimate_large() {
        // 100k rows cycling through 100 values: estimate should be far
        // below the row count and within an order of magnitude of 100.
        let v: Vec<i64> = (0..100_000).map(|i| i % 100).collect();
        let d = estimate_distinct_ints(&v);
        assert!((50..=10_000).contains(&d), "estimate {d}");
    }

    #[test]
    fn selectivity_estimates() {
        let c: Column = (0i64..100).collect::<Vec<_>>().into_iter().collect();
        let s = c.stats();
        assert!((s.eq_selectivity() - 0.01).abs() < 1e-9);
        assert!((s.lt_selectivity(50) - 0.5).abs() < 0.02);
        assert_eq!(s.lt_selectivity(-5), 0.0);
        assert_eq!(s.lt_selectivity(500), 1.0);
    }

    #[test]
    fn size_bytes_scales() {
        let c: Column = (0i64..1000).collect::<Vec<_>>().into_iter().collect();
        assert_eq!(c.size_bytes(), 8000);
    }
}
