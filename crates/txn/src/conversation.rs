//! Database conversations: long-lived, application-private branches of
//! the database (paper §IV.A).
//!
//! A conversation forks a snapshot, accumulates local writes that
//! "exist beyond the scope of a single application transaction", can be
//! shared/inspected, and is eventually merged back — or abandoned —
//! under an explicit conflict policy. This frees the engine from
//! maintaining a single point of truth for every application, which is
//! precisely the relaxation the paper asks applications to accept.

use crate::mvcc::{CommitError, Key, RowValue, TxnManager};
use crate::oracle::Timestamp;
use std::collections::HashMap;
use std::fmt;

/// How conflicts are resolved when a conversation merges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum MergePolicy {
    /// Fail the merge if the base changed under any written key.
    #[default]
    Abort,
    /// The conversation's value wins on conflicts.
    Ours,
    /// The main database's value wins on conflicts (conflicting keys are
    /// dropped from the merge).
    Theirs,
}

impl fmt::Display for MergePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MergePolicy::Abort => "abort",
            MergePolicy::Ours => "ours",
            MergePolicy::Theirs => "theirs",
        };
        f.write_str(s)
    }
}

/// Outcome of a successful merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeReport {
    /// Keys written back to the main database.
    pub applied: usize,
    /// Keys dropped because the main database won (policy `Theirs`).
    pub dropped: usize,
    /// The commit timestamp of the merge transaction (`None` if nothing
    /// was applied).
    pub commit_ts: Option<Timestamp>,
}

/// Why a merge failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MergeError {
    /// Policy [`MergePolicy::Abort`] and the base changed under `key`.
    Conflict(
        /// The first conflicting key.
        Key,
    ),
    /// The final commit failed (a concurrent writer raced the merge).
    Commit(
        /// The underlying commit error.
        CommitError,
    ),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Conflict(k) => write!(f, "merge conflict on key {k}"),
            MergeError::Commit(e) => write!(f, "merge commit failed: {e}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// An application-private branch of the database.
///
/// ```
/// use haec_txn::conversation::{Conversation, MergePolicy};
/// use haec_txn::mvcc::{CcScheme, TxnManager};
///
/// let db = TxnManager::new(CcScheme::SnapshotIsolation);
/// let mut conv = Conversation::fork(&db, "planning-session");
/// conv.put(1, 42);
/// assert_eq!(conv.get(&db, 1), Some(42));       // visible inside
/// assert_eq!(db.read_latest(1), None);          // invisible outside
/// let report = conv.merge(&db, MergePolicy::Abort).unwrap();
/// assert_eq!(report.applied, 1);
/// assert_eq!(db.read_latest(1), Some(42));      // published
/// ```
#[derive(Debug)]
pub struct Conversation {
    name: String,
    base: Timestamp,
    /// Local overlay; `None` marks a deletion... which the i64 store
    /// models as a tombstone write of the default value.
    overlay: HashMap<Key, RowValue>,
    /// Base versions observed for written keys (for conflict detection).
    observed: HashMap<Key, Option<Timestamp>>,
}

impl Conversation {
    /// Forks a new conversation off the current database state.
    pub fn fork(db: &TxnManager, name: impl Into<String>) -> Self {
        Conversation {
            name: name.into(),
            base: db.begin().start_ts(),
            overlay: HashMap::new(),
            observed: HashMap::new(),
        }
    }

    /// The conversation's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Writes into the conversation (invisible to the main database).
    pub fn put(&mut self, key: Key, value: RowValue) {
        self.overlay.insert(key, value);
    }

    /// Reads through the overlay, falling back to the fork snapshot.
    pub fn get(&mut self, db: &TxnManager, key: Key) -> Option<RowValue> {
        if let Some(&v) = self.overlay.get(&key) {
            return Some(v);
        }
        let read = db.read_at(key, self.base);
        self.observed.insert(key, read.map(|(_, ts)| ts));
        read.map(|(v, _)| v)
    }

    /// Merges the overlay back into the main database under `policy`.
    ///
    /// # Errors
    ///
    /// [`MergeError::Conflict`] under [`MergePolicy::Abort`] if any
    /// written key changed in the main database since the fork;
    /// [`MergeError::Commit`] if the final commit loses a race.
    pub fn merge(self, db: &TxnManager, policy: MergePolicy) -> Result<MergeReport, MergeError> {
        // Detect which written keys changed under us.
        let mut conflicting: Vec<Key> = Vec::new();
        for key in self.overlay.keys() {
            let base_version = db.read_at(*key, self.base).map(|(_, ts)| ts);
            let now_version = db.read_at(*key, Timestamp(u64::MAX - 1)).map(|(_, ts)| ts);
            if base_version != now_version {
                conflicting.push(*key);
            }
        }
        conflicting.sort_unstable();

        let mut dropped = 0usize;
        let mut txn = db.begin();
        match policy {
            MergePolicy::Abort => {
                if let Some(&k) = conflicting.first() {
                    return Err(MergeError::Conflict(k));
                }
                for (k, v) in &self.overlay {
                    txn.write(*k, *v);
                }
            }
            MergePolicy::Ours => {
                for (k, v) in &self.overlay {
                    txn.write(*k, *v);
                }
            }
            MergePolicy::Theirs => {
                for (k, v) in &self.overlay {
                    if conflicting.binary_search(k).is_ok() {
                        dropped += 1;
                    } else {
                        txn.write(*k, *v);
                    }
                }
            }
        }
        let applied = self.overlay.len() - dropped;
        if applied == 0 {
            return Ok(MergeReport { applied: 0, dropped, commit_ts: None });
        }
        match db.commit(txn) {
            Ok(ts) => Ok(MergeReport { applied, dropped, commit_ts: Some(ts) }),
            Err(e) => Err(MergeError::Commit(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::CcScheme;

    fn db_with(key: Key, value: RowValue) -> TxnManager {
        let db = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut t = db.begin();
        t.write(key, value);
        db.commit(t).unwrap();
        db
    }

    #[test]
    fn isolation_until_merge() {
        let db = db_with(1, 10);
        let mut conv = Conversation::fork(&db, "c");
        conv.put(1, 99);
        conv.put(2, 50);
        assert_eq!(conv.get(&db, 1), Some(99));
        assert_eq!(db.read_latest(1), Some(10));
        assert_eq!(db.read_latest(2), None);
        let report = conv.merge(&db, MergePolicy::Abort).unwrap();
        assert_eq!(report.applied, 2);
        assert_eq!(report.dropped, 0);
        assert!(report.commit_ts.is_some());
        assert_eq!(db.read_latest(1), Some(99));
        assert_eq!(db.read_latest(2), Some(50));
    }

    #[test]
    fn reads_are_frozen_at_fork() {
        let db = db_with(1, 10);
        let mut conv = Conversation::fork(&db, "c");
        // Main database moves on.
        let mut t = db.begin();
        t.write(1, 11);
        db.commit(t).unwrap();
        // Conversation still sees the fork-time value.
        assert_eq!(conv.get(&db, 1), Some(10));
    }

    #[test]
    fn abort_policy_detects_conflict() {
        let db = db_with(1, 10);
        let mut conv = Conversation::fork(&db, "c");
        conv.put(1, 99);
        let mut t = db.begin();
        t.write(1, 11);
        db.commit(t).unwrap();
        let err = conv.merge(&db, MergePolicy::Abort).unwrap_err();
        assert_eq!(err, MergeError::Conflict(1));
        assert_eq!(db.read_latest(1), Some(11), "database untouched");
    }

    #[test]
    fn ours_policy_overwrites() {
        let db = db_with(1, 10);
        let mut conv = Conversation::fork(&db, "c");
        conv.put(1, 99);
        let mut t = db.begin();
        t.write(1, 11);
        db.commit(t).unwrap();
        let report = conv.merge(&db, MergePolicy::Ours).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(db.read_latest(1), Some(99));
    }

    #[test]
    fn theirs_policy_drops_conflicts() {
        let db = db_with(1, 10);
        let mut conv = Conversation::fork(&db, "c");
        conv.put(1, 99); // will conflict
        conv.put(2, 42); // clean
        let mut t = db.begin();
        t.write(1, 11);
        db.commit(t).unwrap();
        let report = conv.merge(&db, MergePolicy::Theirs).unwrap();
        assert_eq!(report.applied, 1);
        assert_eq!(report.dropped, 1);
        assert_eq!(db.read_latest(1), Some(11), "theirs kept");
        assert_eq!(db.read_latest(2), Some(42), "clean write applied");
    }

    #[test]
    fn empty_merge_is_noop() {
        let db = db_with(1, 10);
        let conv = Conversation::fork(&db, "c");
        let report = conv.merge(&db, MergePolicy::Abort).unwrap();
        assert_eq!(report.applied, 0);
        assert_eq!(report.commit_ts, None);
    }

    #[test]
    fn new_key_conflict_detected() {
        // Conflict on a key that did not exist at fork time.
        let db = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut conv = Conversation::fork(&db, "c");
        conv.put(7, 1);
        let mut t = db.begin();
        t.write(7, 2);
        db.commit(t).unwrap();
        let err = conv.merge(&db, MergePolicy::Abort).unwrap_err();
        assert_eq!(err, MergeError::Conflict(7));
    }

    #[test]
    fn two_conversations_independent() {
        let db = db_with(1, 0);
        let mut a = Conversation::fork(&db, "a");
        let mut b = Conversation::fork(&db, "b");
        a.put(1, 100);
        b.put(2, 200);
        assert_eq!(a.get(&db, 2), None);
        assert_eq!(b.get(&db, 1), Some(0));
        a.merge(&db, MergePolicy::Abort).unwrap();
        b.merge(&db, MergePolicy::Abort).unwrap();
        assert_eq!(db.read_latest(1), Some(100));
        assert_eq!(db.read_latest(2), Some(200));
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", MergePolicy::Ours), "ours");
        assert!(format!("{}", MergeError::Conflict(1)).contains("key 1"));
    }
}
