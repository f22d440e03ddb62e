//! Dictionary-encoded string columns.
//!
//! Strings are stored once in an order-preserving-insertion dictionary;
//! the column itself is a vector of `u32` codes, so scans, joins and
//! group-bys on strings run at integer speed — the standard column-store
//! design the paper's in-memory premise builds on.

use std::collections::HashMap;
use std::fmt;

/// A string column as (dictionary, codes).
///
/// ```
/// use haec_columnar::dict::DictColumn;
/// let mut c = DictColumn::new();
/// c.push("de");
/// c.push("us");
/// c.push("de");
/// assert_eq!(c.len(), 3);
/// assert_eq!(c.dict_size(), 2);
/// assert_eq!(c.get(2), Some("de"));
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct DictColumn {
    dict: Vec<String>,
    lookup: HashMap<String, u32>,
    codes: Vec<u32>,
    /// Running total of dictionary-entry payload bytes, so
    /// [`DictColumn::avg_entry_bytes`] (the planner's projection-cost
    /// input) is O(1) instead of a full dictionary walk per query.
    entry_bytes: usize,
}

impl DictColumn {
    /// Creates an empty column.
    pub fn new() -> Self {
        DictColumn::default()
    }

    /// Appends a value, interning it if unseen. Returns its code.
    pub fn push(&mut self, value: &str) -> u32 {
        let code = self.intern(value);
        self.codes.push(code);
        code
    }

    /// Interns `value` without appending a row; returns its code.
    pub fn intern(&mut self, value: &str) -> u32 {
        if let Some(&c) = self.lookup.get(value) {
            return c;
        }
        let c = u32::try_from(self.dict.len()).expect("dictionary exceeds u32 codes");
        self.dict.push(value.to_string());
        self.lookup.insert(value.to_string(), c);
        self.entry_bytes += value.len();
        c
    }

    /// The code for `value` if it was ever interned.
    pub fn code_of(&self, value: &str) -> Option<u32> {
        self.lookup.get(value).copied()
    }

    /// The string for a code.
    pub fn decode(&self, code: u32) -> Option<&str> {
        self.dict.get(code as usize).map(String::as_str)
    }

    /// The value at row `i`.
    pub fn get(&self, i: usize) -> Option<&str> {
        self.codes.get(i).and_then(|&c| self.decode(c))
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Returns `true` if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct values interned.
    pub fn dict_size(&self) -> usize {
        self.dict.len()
    }

    /// Iterates the distinct interned values in code order.
    pub fn iter_dict(&self) -> impl Iterator<Item = &str> + '_ {
        self.dict.iter().map(String::as_str)
    }

    /// Appends a row by an **already-interned** code — the code-to-code
    /// fast path positional gathers use: no per-row string hashing.
    ///
    /// # Panics
    ///
    /// Panics if `code` was never interned.
    pub fn push_code(&mut self, code: u32) {
        assert!((code as usize) < self.dict.len(), "code {code} not interned");
        self.codes.push(code);
    }

    /// Builds a column directly from an already-deduplicated dictionary
    /// and a vector of row codes — the cheap codes-to-client
    /// construction path projections use: O(codes) moves plus one
    /// lookup-table insert per **distinct** value; no per-row string
    /// hashing ever happens.
    ///
    /// ```
    /// use haec_columnar::dict::DictColumn;
    /// let c = DictColumn::from_codes(vec!["de".into(), "us".into()], vec![0, 1, 0, 0]);
    /// assert_eq!(c.len(), 4);
    /// assert_eq!(c.dict_size(), 2);
    /// assert_eq!(c.get(3), Some("de"));
    /// assert_eq!(c.code_of("us"), Some(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `dict` holds duplicates (that would break the
    /// `decode`/`code_of` round trip). Out-of-range codes are a logic
    /// error checked in debug builds only — validating them costs a
    /// full extra pass over the code vector, which the gather hot paths
    /// constructing codes in-range by construction must not pay.
    pub fn from_codes(dict: Vec<String>, codes: Vec<u32>) -> Self {
        let mut lookup = HashMap::with_capacity(dict.len());
        for (i, s) in dict.iter().enumerate() {
            let prev = lookup.insert(s.clone(), i as u32);
            assert!(prev.is_none(), "duplicate dictionary entry {s:?}");
        }
        debug_assert!(codes.iter().all(|&c| (c as usize) < dict.len()), "code not interned");
        let entry_bytes = dict.iter().map(String::len).sum();
        DictColumn { dict, lookup, codes, entry_bytes }
    }

    /// For every distinct value of `self` (in code order), the code
    /// `target` assigns that value, or `None` if `target` never interned
    /// it — the one-off dictionary remap that lets equi-joins and
    /// gathers translate between two code spaces in O(dictionary)
    /// lookups, never O(rows).
    pub fn codes_in(&self, target: &DictColumn) -> Vec<Option<u32>> {
        self.dict.iter().map(|s| target.code_of(s)).collect()
    }

    /// The raw code vector (the integer view scans operate on).
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Iterates over the row values.
    pub fn iter(&self) -> impl Iterator<Item = &str> + '_ {
        self.codes.iter().map(|&c| self.dict[c as usize].as_str())
    }

    /// Mean payload length of a dictionary entry in bytes (0 when
    /// empty) — O(1), maintained at intern time; the planner's
    /// projection costing reads this per query, so it must never walk
    /// the dictionary.
    pub fn avg_entry_bytes(&self) -> usize {
        if self.dict.is_empty() {
            0
        } else {
            self.entry_bytes / self.dict.len()
        }
    }

    /// Approximate heap footprint in bytes (codes + dictionary strings).
    pub fn size_bytes(&self) -> usize {
        let codes = self.codes.len() * std::mem::size_of::<u32>();
        codes + self.entry_bytes + self.dict.len() * std::mem::size_of::<String>()
    }
}

impl fmt::Debug for DictColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DictColumn({} rows, {} distinct)", self.codes.len(), self.dict.len())
    }
}

impl<S: AsRef<str>> FromIterator<S> for DictColumn {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let mut c = DictColumn::new();
        for v in iter {
            c.push(v.as_ref());
        }
        c
    }
}

impl<'a> Extend<&'a str> for DictColumn {
    fn extend<I: IntoIterator<Item = &'a str>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get() {
        let mut c = DictColumn::new();
        assert!(c.is_empty());
        c.push("a");
        c.push("b");
        c.push("a");
        assert_eq!(c.len(), 3);
        assert_eq!(c.dict_size(), 2);
        assert_eq!(c.get(0), Some("a"));
        assert_eq!(c.get(1), Some("b"));
        assert_eq!(c.get(2), Some("a"));
        assert_eq!(c.get(3), None);
    }

    #[test]
    fn codes_are_stable() {
        let mut c = DictColumn::new();
        let a1 = c.push("x");
        let b = c.push("y");
        let a2 = c.push("x");
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
        assert_eq!(c.codes(), &[a1, b, a1]);
    }

    #[test]
    fn code_of_and_decode() {
        let c: DictColumn = ["p", "q"].into_iter().collect();
        let p = c.code_of("p").unwrap();
        assert_eq!(c.decode(p), Some("p"));
        assert_eq!(c.code_of("zz"), None);
        assert_eq!(c.decode(99), None);
    }

    #[test]
    fn iter_round_trip() {
        let values = ["de", "us", "fr", "de", "de"];
        let c = DictColumn::from_iter(values);
        let out: Vec<&str> = c.iter().collect();
        assert_eq!(out, values);
    }

    #[test]
    fn extend_appends() {
        let mut c = DictColumn::new();
        c.extend(["a", "b"]);
        c.extend(["b", "c"]);
        assert_eq!(c.len(), 4);
        assert_eq!(c.dict_size(), 3);
    }

    #[test]
    fn avg_entry_bytes_tracks_interning() {
        let mut c = DictColumn::new();
        assert_eq!(c.avg_entry_bytes(), 0, "empty dictionary");
        c.push("ab");
        c.push("ab");
        c.push("abcd");
        assert_eq!(c.avg_entry_bytes(), 3, "mean of {{ab, abcd}}, repeats free");
    }

    #[test]
    fn size_accounts_for_dedup() {
        let mut many_distinct = DictColumn::new();
        let mut few_distinct = DictColumn::new();
        for i in 0..1000 {
            many_distinct.push(&format!("value-{i}"));
            few_distinct.push(&format!("value-{}", i % 4));
        }
        assert!(few_distinct.size_bytes() < many_distinct.size_bytes() / 2);
    }

    #[test]
    fn push_code_skips_hashing_path() {
        let mut c = DictColumn::from_iter(["a", "b"]);
        c.push_code(0);
        assert_eq!(c.get(2), Some("a"));
        assert_eq!(c.len(), 3);
        assert_eq!(c.dict_size(), 2);
    }

    #[test]
    #[should_panic(expected = "not interned")]
    fn push_code_rejects_unknown() {
        DictColumn::new().push_code(0);
    }

    #[test]
    fn from_codes_builds_without_row_hashing() {
        let c = DictColumn::from_codes(vec!["x".into(), "y".into()], vec![1, 0, 1, 1]);
        let got: Vec<&str> = c.iter().collect();
        assert_eq!(got, vec!["y", "x", "y", "y"]);
        // The lookup table is fully built: code_of and intern see the
        // existing entries.
        assert_eq!(c.code_of("y"), Some(1));
        assert_eq!(c.avg_entry_bytes(), 1);
        let mut c = c;
        assert_eq!(c.intern("x"), 0, "existing entry, no new code");
        // Empty construction is fine.
        assert!(DictColumn::from_codes(Vec::new(), Vec::new()).is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not interned")]
    fn from_codes_rejects_out_of_range() {
        DictColumn::from_codes(vec!["a".into()], vec![0, 1]);
    }

    #[test]
    #[should_panic(expected = "duplicate dictionary entry")]
    fn from_codes_rejects_duplicate_entries() {
        DictColumn::from_codes(vec!["a".into(), "a".into()], vec![0]);
    }

    #[test]
    fn codes_in_translates_code_spaces() {
        let a = DictColumn::from_iter(["x", "y", "z"]);
        let b = DictColumn::from_iter(["z", "x"]);
        let remap = a.codes_in(&b);
        assert_eq!(remap, vec![Some(1), None, Some(0)]);
        assert_eq!(b.codes_in(&a), vec![Some(2), Some(0)]);
        assert!(DictColumn::new().codes_in(&a).is_empty());
    }

    #[test]
    fn debug_format() {
        let c = DictColumn::from_iter(["a", "a"]);
        assert_eq!(format!("{c:?}"), "DictColumn(2 rows, 1 distinct)");
    }
}
