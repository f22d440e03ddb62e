//! Multi-version concurrency control with pluggable validation, after
//! the main-memory designs the paper cites (Larson et al., "High-
//! Performance Concurrency Control Mechanisms for Main-Memory
//! Databases").
//!
//! Three schemes share one versioned store:
//!
//! * [`CcScheme::SnapshotIsolation`] — readers never block; writers
//!   validate write-write conflicts at commit (first committer wins).
//! * [`CcScheme::SerializableOcc`] — snapshot isolation plus read-set
//!   validation at commit (backward OCC), the software analogue of the
//!   optimistic hardware transactions (TSX) the paper welcomes.
//! * [`CcScheme::TwoPhaseLocking`] — no-wait 2PL over per-key locks, the
//!   "traditional locks and latches" baseline.

use crate::oracle::{Timestamp, TimestampOracle};
use parking_lot::{Mutex, RwLock};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Row key type of the store.
pub type Key = i64;
/// Row value type of the store.
pub type RowValue = i64;

/// Concurrency-control scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcScheme {
    /// MVCC with write-write validation only.
    SnapshotIsolation,
    /// MVCC with read and write validation (serializable).
    SerializableOcc,
    /// No-wait two-phase locking.
    TwoPhaseLocking,
}

impl fmt::Display for CcScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CcScheme::SnapshotIsolation => "si",
            CcScheme::SerializableOcc => "occ",
            CcScheme::TwoPhaseLocking => "2pl",
        };
        f.write_str(s)
    }
}

/// Why a commit failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitError {
    /// Another transaction committed a write to this key first.
    WriteConflict(
        /// The conflicting key.
        Key,
    ),
    /// A key in the read set changed since the snapshot (OCC only).
    ReadValidation(
        /// The invalidated key.
        Key,
    ),
    /// A lock could not be acquired (2PL no-wait).
    LockConflict(
        /// The contended key.
        Key,
    ),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::WriteConflict(k) => write!(f, "write-write conflict on key {k}"),
            CommitError::ReadValidation(k) => write!(f, "read validation failed on key {k}"),
            CommitError::LockConflict(k) => write!(f, "lock conflict on key {k}"),
        }
    }
}

impl std::error::Error for CommitError {}

#[derive(Clone, Copy, Debug)]
struct Version {
    value: RowValue,
    begin: Timestamp,
    end: Timestamp,
}

#[derive(Default)]
struct LockState {
    readers: u32,
    writer: bool,
}

/// The versioned key-value store plus transaction machinery.
///
/// ```
/// use haec_txn::mvcc::{CcScheme, TxnManager};
/// let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
/// let mut t = mgr.begin();
/// t.write(1, 100);
/// mgr.commit(t).unwrap();
/// let mut r = mgr.begin();
/// assert_eq!(r.read(&mgr, 1), Some(100));
/// ```
pub struct TxnManager {
    versions: RwLock<HashMap<Key, Vec<Version>>>,
    locks: Mutex<HashMap<Key, LockState>>,
    oracle: std::sync::Arc<TimestampOracle>,
    scheme: CcScheme,
    commits: AtomicU64,
    aborts: AtomicU64,
}

impl fmt::Debug for TxnManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TxnManager")
            .field("scheme", &self.scheme)
            .field("keys", &self.versions.read().len())
            .field("commits", &self.commits.load(Ordering::Relaxed))
            .field("aborts", &self.aborts.load(Ordering::Relaxed))
            .finish()
    }
}

/// An in-flight transaction. Reads/writes are buffered locally; nothing
/// is visible to others until [`TxnManager::commit`].
#[derive(Debug)]
pub struct Transaction {
    start: Timestamp,
    reads: Vec<(Key, Timestamp)>,
    writes: HashMap<Key, RowValue>,
    /// Keys read-locked / write-locked so far (2PL only).
    locked_read: Vec<Key>,
    locked_write: Vec<Key>,
    aborted: bool,
}

impl Transaction {
    /// The snapshot timestamp of this transaction.
    pub fn start_ts(&self) -> Timestamp {
        self.start
    }

    /// Buffers a write.
    pub fn write(&mut self, key: Key, value: RowValue) {
        self.writes.insert(key, value);
    }

    /// Reads `key` at this transaction's snapshot, observing its own
    /// buffered writes first.
    pub fn read(&mut self, mgr: &TxnManager, key: Key) -> Option<RowValue> {
        if let Some(&v) = self.writes.get(&key) {
            return Some(v);
        }
        if mgr.scheme == CcScheme::TwoPhaseLocking {
            if self.aborted {
                return None;
            }
            // No-wait read lock; failure marks the txn for abort at
            // commit (caller may also bail early).
            if !mgr.try_read_lock(key, self) {
                self.aborted = true;
                return None;
            }
            // Under 2PL the lock — not a snapshot — provides isolation,
            // so reads observe the latest committed version.
            return mgr.read_latest(key);
        }
        let (value, version_ts) = mgr.read_at(key, self.start)?;
        self.reads.push((key, version_ts));
        Some(value)
    }

    /// Returns `true` if a 2PL lock conflict already doomed this
    /// transaction.
    pub fn is_doomed(&self) -> bool {
        self.aborted
    }
}

impl TxnManager {
    /// Creates an empty store under the given scheme, with a private
    /// timestamp oracle.
    pub fn new(scheme: CcScheme) -> Self {
        TxnManager::with_oracle(scheme, std::sync::Arc::new(TimestampOracle::new()))
    }

    /// Creates an empty store that draws timestamps from a **shared**
    /// oracle, so snapshots here and elsewhere (e.g. a columnar store's
    /// own snapshot reads) order against each other on one timeline.
    fn with_oracle(scheme: CcScheme, oracle: std::sync::Arc<TimestampOracle>) -> Self {
        TxnManager {
            versions: RwLock::new(HashMap::new()),
            locks: Mutex::new(HashMap::new()),
            oracle,
            scheme,
            commits: AtomicU64::new(0),
            aborts: AtomicU64::new(0),
        }
    }

    /// The shared timestamp oracle.
    pub fn oracle(&self) -> &std::sync::Arc<TimestampOracle> {
        &self.oracle
    }

    /// The active scheme.
    pub fn scheme(&self) -> CcScheme {
        self.scheme
    }

    /// Starts a transaction at the current timestamp.
    pub fn begin(&self) -> Transaction {
        Transaction {
            start: self.oracle.next(),
            reads: Vec::new(),
            writes: HashMap::new(),
            locked_read: Vec::new(),
            locked_write: Vec::new(),
            aborted: false,
        }
    }

    /// Reads the committed value of `key` visible at `ts`, returning
    /// `(value, version_begin_ts)`.
    pub fn read_at(&self, key: Key, ts: Timestamp) -> Option<(RowValue, Timestamp)> {
        let map = self.versions.read();
        let chain = map.get(&key)?;
        chain.iter().rev().find(|v| v.begin <= ts && ts < v.end).map(|v| (v.value, v.begin))
    }

    /// The latest committed value of `key`.
    pub fn read_latest(&self, key: Key) -> Option<RowValue> {
        self.read_at(key, Timestamp(u64::MAX - 1)).map(|(v, _)| v)
    }

    /// Attempts to commit, returning the commit timestamp.
    ///
    /// # Errors
    ///
    /// Returns a [`CommitError`] and rolls the transaction back if
    /// validation (or lock acquisition) fails.
    pub fn commit(&self, mut txn: Transaction) -> Result<Timestamp, CommitError> {
        let result = self.commit_inner(&mut txn);
        self.release_locks(&txn);
        match &result {
            Ok(_) => {
                self.commits.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.aborts.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    fn commit_inner(&self, txn: &mut Transaction) -> Result<Timestamp, CommitError> {
        if txn.aborted {
            let key = txn.reads.last().map(|&(k, _)| k).unwrap_or_default();
            return Err(CommitError::LockConflict(key));
        }
        if self.scheme == CcScheme::TwoPhaseLocking {
            // Upgrade/acquire write locks in sorted order (deadlock-free
            // by ordering; no-wait on conflict).
            let mut keys: Vec<Key> = txn.writes.keys().copied().collect();
            keys.sort_unstable();
            for k in keys {
                if !self.try_write_lock(k, txn) {
                    return Err(CommitError::LockConflict(k));
                }
            }
        }

        let mut map = self.versions.write();

        // Write-write validation (SI + OCC): no version newer than our
        // snapshot may exist on any written key.
        if self.scheme != CcScheme::TwoPhaseLocking {
            for key in txn.writes.keys() {
                if let Some(chain) = map.get(key) {
                    if let Some(last) = chain.last() {
                        if last.begin > txn.start {
                            return Err(CommitError::WriteConflict(*key));
                        }
                    }
                }
            }
        }
        // Read validation (OCC only): every read version must still be
        // the visible one.
        if self.scheme == CcScheme::SerializableOcc {
            for &(key, seen_ts) in &txn.reads {
                if let Some(chain) = map.get(&key) {
                    if let Some(last) = chain.last() {
                        if last.begin > txn.start && last.begin != seen_ts {
                            return Err(CommitError::ReadValidation(key));
                        }
                    }
                }
            }
        }

        let commit_ts = self.oracle.next();
        for (key, value) in txn.writes.drain() {
            let chain = match map.entry(key) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(Vec::new()),
            };
            if let Some(last) = chain.last_mut() {
                if last.end == Timestamp::INF {
                    last.end = commit_ts;
                }
            }
            chain.push(Version { value, begin: commit_ts, end: Timestamp::INF });
        }
        Ok(commit_ts)
    }

    /// Explicitly aborts a transaction (releases its locks).
    pub fn abort(&self, txn: Transaction) {
        self.release_locks(&txn);
        self.aborts.fetch_add(1, Ordering::Relaxed);
    }

    fn try_read_lock(&self, key: Key, txn: &mut Transaction) -> bool {
        if txn.locked_read.contains(&key) || txn.locked_write.contains(&key) {
            return true;
        }
        let mut locks = self.locks.lock();
        let state = locks.entry(key).or_default();
        if state.writer {
            return false;
        }
        state.readers += 1;
        txn.locked_read.push(key);
        true
    }

    fn try_write_lock(&self, key: Key, txn: &mut Transaction) -> bool {
        if txn.locked_write.contains(&key) {
            return true;
        }
        let mut locks = self.locks.lock();
        let state = locks.entry(key).or_default();
        let own_read = txn.locked_read.contains(&key);
        let other_readers = state.readers.saturating_sub(u32::from(own_read));
        if state.writer || other_readers > 0 {
            return false;
        }
        state.writer = true;
        if own_read {
            state.readers -= 1;
            txn.locked_read.retain(|&k| k != key);
        }
        txn.locked_write.push(key);
        true
    }

    fn release_locks(&self, txn: &Transaction) {
        if txn.locked_read.is_empty() && txn.locked_write.is_empty() {
            return;
        }
        let mut locks = self.locks.lock();
        for k in &txn.locked_read {
            if let Some(s) = locks.get_mut(k) {
                s.readers = s.readers.saturating_sub(1);
            }
        }
        for k in &txn.locked_write {
            if let Some(s) = locks.get_mut(k) {
                s.writer = false;
            }
        }
    }

    /// Total committed transactions.
    pub fn committed(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// Total aborted transactions.
    pub fn aborted(&self) -> u64 {
        self.aborts.load(Ordering::Relaxed)
    }

    /// Number of versions retained for `key` (for GC/diagnostics).
    // haec-lint: allow(dead-pub) — the vacuum test observes the version chain it collects through it.
    pub fn version_count(&self, key: Key) -> usize {
        self.versions.read().get(&key).map_or(0, Vec::len)
    }

    /// Drops versions no longer visible to any snapshot at or after
    /// `watermark`, returning how many were collected.
    pub fn vacuum(&self, watermark: Timestamp) -> usize {
        let mut map = self.versions.write();
        let mut removed = 0;
        for chain in map.values_mut() {
            let before = chain.len();
            // Keep the newest version visible at the watermark and
            // everything newer.
            if let Some(keep_from) = chain.iter().rposition(|v| v.begin <= watermark) {
                chain.drain(..keep_from);
            }
            removed += before - chain.len();
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_your_own_writes() {
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut t = mgr.begin();
        assert_eq!(t.read(&mgr, 1), None);
        t.write(1, 7);
        assert_eq!(t.read(&mgr, 1), Some(7));
        mgr.commit(t).unwrap();
        assert_eq!(mgr.read_latest(1), Some(7));
    }

    #[test]
    fn snapshot_isolation_hides_later_commits() {
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut setup = mgr.begin();
        setup.write(1, 10);
        mgr.commit(setup).unwrap();

        let mut reader = mgr.begin(); // snapshot before the update below
        let mut writer = mgr.begin();
        writer.write(1, 20);
        mgr.commit(writer).unwrap();

        assert_eq!(reader.read(&mgr, 1), Some(10), "reader sees its snapshot");
        assert_eq!(mgr.read_latest(1), Some(20));
    }

    #[test]
    fn first_committer_wins() {
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut a = mgr.begin();
        let mut b = mgr.begin();
        a.write(5, 1);
        b.write(5, 2);
        mgr.commit(a).unwrap();
        let err = mgr.commit(b).unwrap_err();
        assert_eq!(err, CommitError::WriteConflict(5));
        assert_eq!(mgr.read_latest(5), Some(1));
        assert_eq!(mgr.committed(), 1);
        assert_eq!(mgr.aborted(), 1);
    }

    #[test]
    fn occ_detects_read_write_conflict() {
        let mgr = TxnManager::new(CcScheme::SerializableOcc);
        let mut setup = mgr.begin();
        setup.write(1, 100);
        mgr.commit(setup).unwrap();

        // T1 reads key 1, T2 updates key 1 and commits, then T1 tries to
        // commit a write based on the stale read → must fail validation.
        let mut t1 = mgr.begin();
        assert_eq!(t1.read(&mgr, 1), Some(100));
        let mut t2 = mgr.begin();
        t2.write(1, 200);
        mgr.commit(t2).unwrap();
        t1.write(2, 100 + 1);
        let err = mgr.commit(t1).unwrap_err();
        assert_eq!(err, CommitError::ReadValidation(1));
    }

    #[test]
    fn si_allows_stale_read_commit() {
        // Same interleaving as above commits fine under plain SI (write
        // skew is permitted) — this is precisely the SI/OCC difference.
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        let mut setup = mgr.begin();
        setup.write(1, 100);
        mgr.commit(setup).unwrap();
        let mut t1 = mgr.begin();
        assert_eq!(t1.read(&mgr, 1), Some(100));
        let mut t2 = mgr.begin();
        t2.write(1, 200);
        mgr.commit(t2).unwrap();
        t1.write(2, 101);
        assert!(mgr.commit(t1).is_ok());
    }

    #[test]
    fn two_phase_locking_conflicts() {
        let mgr = TxnManager::new(CcScheme::TwoPhaseLocking);
        let mut setup = mgr.begin();
        setup.write(1, 5);
        mgr.commit(setup).unwrap();

        let mut t1 = mgr.begin();
        assert_eq!(t1.read(&mgr, 1), Some(5)); // read lock held
        let mut t2 = mgr.begin();
        t2.write(1, 6);
        // t2 cannot write-lock while t1 holds the read lock.
        let err = mgr.commit(t2).unwrap_err();
        assert_eq!(err, CommitError::LockConflict(1));
        // t1 still commits fine (upgrades its own read lock).
        t1.write(1, 7);
        mgr.commit(t1).unwrap();
        assert_eq!(mgr.read_latest(1), Some(7));
    }

    #[test]
    fn doomed_2pl_txn_reports_lock_conflict() {
        let mgr = TxnManager::new(CcScheme::TwoPhaseLocking);
        let mut w = mgr.begin();
        w.write(9, 1);
        // Commit w but keep a second writer conflicting first.
        let mut other = mgr.begin();
        other.write(9, 2);
        mgr.commit(other).unwrap();
        mgr.commit(w).unwrap(); // 2PL: no conflict once locks free

        let mut t1 = mgr.begin();
        t1.write(9, 3); // buffered; lock taken at commit
        let mut t2 = mgr.begin();
        assert_eq!(t2.read(&mgr, 9), Some(1), "reads see last committer (w)");
        // t2 holds read lock; t1 commit fails.
        assert!(matches!(mgr.commit(t1), Err(CommitError::LockConflict(9))));
        mgr.abort(t2);
    }

    #[test]
    fn version_chain_and_vacuum() {
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        for v in 0..5 {
            let mut t = mgr.begin();
            t.write(1, v);
            mgr.commit(t).unwrap();
        }
        assert_eq!(mgr.version_count(1), 5);
        let removed = mgr.vacuum(mgr_latest_ts(&mgr));
        assert_eq!(removed, 4);
        assert_eq!(mgr.version_count(1), 1);
        assert_eq!(mgr.read_latest(1), Some(4));
    }

    fn mgr_latest_ts(mgr: &TxnManager) -> Timestamp {
        // A snapshot taken "now" sees only the newest committed versions.
        mgr.begin().start_ts()
    }

    #[test]
    fn concurrent_disjoint_writers_all_commit() {
        use std::sync::Arc;
        let mgr = Arc::new(TxnManager::new(CcScheme::SnapshotIsolation));
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let mgr = Arc::clone(&mgr);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let mut txn = mgr.begin();
                    txn.write(t * 1000 + i, i);
                    mgr.commit(txn).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(mgr.committed(), 400);
        assert_eq!(mgr.aborted(), 0);
        assert_eq!(mgr.read_latest(3 * 1000 + 99), Some(99));
    }

    #[test]
    fn display_impls() {
        assert_eq!(format!("{}", CcScheme::TwoPhaseLocking), "2pl");
        assert!(format!("{}", CommitError::WriteConflict(3)).contains("key 3"));
        let mgr = TxnManager::new(CcScheme::SnapshotIsolation);
        assert!(format!("{mgr:?}").contains("TxnManager"));
    }
}
