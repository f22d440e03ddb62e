//! Planner-facing catalog: table and column statistics.

/// Statistics of one column as the optimizer sees them.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnMeta {
    /// Column name.
    pub name: String,
    /// Number of distinct values.
    pub ndv: u64,
    /// Minimum value (integer domain).
    pub min: i64,
    /// Maximum value.
    pub max: i64,
    /// Whether a secondary index exists on this column.
    pub indexed: bool,
}

impl ColumnMeta {
    /// Selectivity of `= literal` under uniformity.
    pub fn eq_selectivity(&self) -> f64 {
        if self.ndv == 0 {
            0.0
        } else {
            1.0 / self.ndv as f64
        }
    }

    /// Selectivity of `< x` by range interpolation.
    pub fn lt_selectivity(&self, x: i64) -> f64 {
        if self.max <= self.min {
            return 0.5;
        }
        ((x - self.min) as f64 / (self.max - self.min + 1) as f64).clamp(0.0, 1.0)
    }
}

/// Statistics of one table.
#[derive(Clone, Debug, PartialEq)]
pub struct TableMeta {
    /// Table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Bytes per row (all columns, uncompressed).
    pub row_bytes: u64,
    /// Column statistics.
    pub columns: Vec<ColumnMeta>,
}

impl TableMeta {
    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Option<&ColumnMeta> {
        self.columns.iter().find(|c| c.name == name)
    }

    /// Total table size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.rows * self.row_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_selectivities() {
        let col = ColumnMeta { name: "a".into(), ndv: 100, min: 0, max: 999, indexed: false };
        assert!((col.eq_selectivity() - 0.01).abs() < 1e-12);
        assert!((col.lt_selectivity(500) - 0.5).abs() < 0.01);
        assert_eq!(col.lt_selectivity(-5), 0.0);
        assert_eq!(col.lt_selectivity(5000), 1.0);
        let empty = ColumnMeta { name: "e".into(), ndv: 0, min: 0, max: 0, indexed: false };
        assert_eq!(empty.eq_selectivity(), 0.0);
        assert_eq!(empty.lt_selectivity(0), 0.5);
    }

    #[test]
    fn table_size() {
        let t = TableMeta { name: "t".into(), rows: 100, row_bytes: 32, columns: vec![] };
        assert_eq!(t.size_bytes(), 3200);
    }
}
