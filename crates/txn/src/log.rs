//! REDO logging with per-fragment reliability quality-of-service.
//!
//! The paper's "multi-level reliability" requirement (§III): *"REDO-log
//! information … should be stored in a replicated way, within a compute
//! cluster or even across multiple locations"* while *"intermediate
//! results of a currently running query could be placed in some 'cheap'
//! memory"*. [`ReliabilityLevel`] is exactly that QoS tag; the log
//! models the latency and energy each level costs so experiment E15 can
//! chart the overhead spectrum.

use haec_energy::units::ByteCount;
use haec_energy::ResourceProfile;
use std::fmt;
use std::time::Duration;

/// Durability class of a memory fragment or log record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReliabilityLevel {
    /// Plain DRAM: lost on failure; free. For recomputable intermediates.
    Volatile,
    /// Locally durable (battery-backed NVRAM / local SSD flush).
    Local,
    /// Synchronously replicated to `k` remote replicas.
    Replicated(
        /// Number of replicas (≥ 1).
        u8,
    ),
}

impl ReliabilityLevel {
    /// Can data at this level survive a single node crash?
    pub fn survives_node_failure(self) -> bool {
        matches!(self, ReliabilityLevel::Replicated(k) if k >= 1)
    }

    /// Can data at this level survive a process crash?
    pub fn survives_process_crash(self) -> bool {
        !matches!(self, ReliabilityLevel::Volatile)
    }
}

impl fmt::Display for ReliabilityLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReliabilityLevel::Volatile => f.write_str("volatile"),
            ReliabilityLevel::Local => f.write_str("local"),
            ReliabilityLevel::Replicated(k) => write!(f, "replicated({k})"),
        }
    }
}

/// Cost parameters of the logging substrate.
#[derive(Clone, Debug, PartialEq)]
pub struct LogCostModel {
    /// Local durable-write latency floor (e.g. NVRAM store fence).
    pub local_latency: Duration,
    /// Local durable-write bandwidth (bytes/s).
    pub local_bandwidth: f64,
    /// One-way network latency to a replica.
    pub replica_rtt_half: Duration,
    /// Replica link bandwidth (bytes/s).
    pub replica_bandwidth: f64,
}

impl Default for LogCostModel {
    fn default() -> Self {
        // SCM-logging numbers in the spirit of Fang et al. (ICDE'11),
        // which the paper cites for storage-class-memory logging.
        LogCostModel {
            local_latency: Duration::from_micros(5),
            local_bandwidth: 1.5e9,
            replica_rtt_half: Duration::from_micros(50),
            replica_bandwidth: 1.25e9,
        }
    }
}

/// A log sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl fmt::Display for Lsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lsn{}", self.0)
    }
}

/// One REDO record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogRecord {
    /// Sequence number.
    pub lsn: Lsn,
    /// The writing transaction.
    pub txn_id: u64,
    /// Opaque payload (key/value image).
    pub payload: Vec<u8>,
}

/// Receipt returned by a (group) commit: what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct CommitReceipt {
    /// Records made durable by this flush.
    pub records: usize,
    /// Bytes made durable.
    pub bytes: ByteCount,
    /// Modelled time until durability at the requested level.
    pub latency: Duration,
    /// Modelled resource consumption (NIC traffic for replication).
    pub profile: ResourceProfile,
}

/// An in-memory REDO log with group commit and per-flush reliability
/// levels.
///
/// ```
/// use haec_txn::log::{RedoLog, ReliabilityLevel};
/// let mut log = RedoLog::new();
/// log.append(1, b"k=5,v=9".to_vec());
/// let receipt = log.flush(ReliabilityLevel::Replicated(2));
/// assert_eq!(receipt.records, 1);
/// assert!(receipt.latency.as_micros() >= 50);
/// ```
#[derive(Debug, Default)]
pub struct RedoLog {
    model: LogCostModel,
    records: Vec<LogRecord>,
    pending_from: usize,
    next_lsn: u64,
}

impl RedoLog {
    /// Creates a log with the default cost model.
    pub fn new() -> Self {
        RedoLog::default()
    }

    /// Appends a record to the pending group; returns its LSN. Nothing
    /// is durable until [`RedoLog::flush`].
    pub fn append(&mut self, txn_id: u64, payload: Vec<u8>) -> Lsn {
        let lsn = Lsn(self.next_lsn);
        self.next_lsn += 1;
        self.records.push(LogRecord { lsn, txn_id, payload });
        lsn
    }

    /// Number of records appended but not yet flushed.
    pub fn pending(&self) -> usize {
        self.records.len() - self.pending_from
    }

    /// Total records ever appended.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Flushes the pending group at `level`, returning the modelled
    /// cost. A flush with nothing pending returns a zero receipt (the
    /// group-commit no-op).
    pub fn flush(&mut self, level: ReliabilityLevel) -> CommitReceipt {
        let group = &self.records[self.pending_from..];
        let records = group.len();
        let bytes: u64 = group.iter().map(|r| r.payload.len() as u64 + 16).sum();
        self.pending_from = self.records.len();

        let bytes_ct = ByteCount::new(bytes);
        let (latency, profile) = match level {
            ReliabilityLevel::Volatile => (Duration::ZERO, ResourceProfile::default()),
            ReliabilityLevel::Local => {
                let t = self.model.local_latency
                    + Duration::from_secs_f64(bytes as f64 / self.model.local_bandwidth);
                let p = ResourceProfile { dram_written: bytes_ct, ..ResourceProfile::default() };
                (t, p)
            }
            ReliabilityLevel::Replicated(k) => {
                let k = k.max(1) as u64;
                // Replicas are written in parallel; latency is one RTT +
                // serialization of the group once (NIC is shared).
                let xfer = Duration::from_secs_f64((bytes * k) as f64 / self.model.replica_bandwidth);
                let t = self.model.replica_rtt_half * 2 + xfer;
                let p = ResourceProfile {
                    nic_bytes: ByteCount::new(bytes * k),
                    dram_written: bytes_ct,
                    ..ResourceProfile::default()
                };
                (t, p)
            }
        };
        CommitReceipt { records, bytes: bytes_ct, latency, profile }
    }

    /// Replays all durable records through `apply` (recovery path).
    pub fn replay<F: FnMut(&LogRecord)>(&self, mut apply: F) {
        for r in &self.records[..self.pending_from] {
            apply(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_flush_counts() {
        let mut log = RedoLog::new();
        assert!(log.is_empty());
        log.append(1, vec![0; 100]);
        log.append(1, vec![0; 50]);
        assert_eq!(log.pending(), 2);
        let r = log.flush(ReliabilityLevel::Local);
        assert_eq!(r.records, 2);
        assert_eq!(r.bytes.bytes(), 100 + 50 + 32);
        assert_eq!(log.pending(), 0);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn lsn_monotone() {
        let mut log = RedoLog::new();
        let a = log.append(1, vec![]);
        let b = log.append(2, vec![]);
        assert!(b > a);
    }

    #[test]
    fn volatile_is_free() {
        let mut log = RedoLog::new();
        log.append(1, vec![0; 4096]);
        let r = log.flush(ReliabilityLevel::Volatile);
        assert_eq!(r.latency, Duration::ZERO);
        assert!(r.profile.is_empty());
    }

    #[test]
    fn reliability_latency_ordering() {
        let payload = vec![0u8; 4096];
        let mk = |level| {
            let mut log = RedoLog::new();
            log.append(1, payload.clone());
            log.flush(level).latency
        };
        let v = mk(ReliabilityLevel::Volatile);
        let l = mk(ReliabilityLevel::Local);
        let r1 = mk(ReliabilityLevel::Replicated(1));
        let r3 = mk(ReliabilityLevel::Replicated(3));
        assert!(v < l && l < r1 && r1 < r3, "{v:?} {l:?} {r1:?} {r3:?}");
    }

    #[test]
    fn replication_charges_nic() {
        let mut log = RedoLog::new();
        log.append(1, vec![0; 1000]);
        let r = log.flush(ReliabilityLevel::Replicated(3));
        assert_eq!(r.profile.nic_bytes.bytes(), (1000 + 16) * 3);
    }

    #[test]
    fn empty_flush_is_noop() {
        let mut log = RedoLog::new();
        let r = log.flush(ReliabilityLevel::Replicated(2));
        assert_eq!(r.records, 0);
        assert_eq!(r.bytes.bytes(), 0);
    }

    #[test]
    fn group_commit_amortizes_latency() {
        // One flush of 10 records must be cheaper than 10 flushes of 1.
        let mut grouped = RedoLog::new();
        for i in 0..10 {
            grouped.append(i, vec![0; 100]);
        }
        let grouped_latency = grouped.flush(ReliabilityLevel::Replicated(2)).latency;

        let mut single = RedoLog::new();
        let mut total = Duration::ZERO;
        for i in 0..10 {
            single.append(i, vec![0; 100]);
            total += single.flush(ReliabilityLevel::Replicated(2)).latency;
        }
        assert!(grouped_latency * 5 < total, "{grouped_latency:?} vs {total:?}");
    }

    #[test]
    fn replay_only_durable() {
        let mut log = RedoLog::new();
        log.append(1, vec![1]);
        log.flush(ReliabilityLevel::Local);
        log.append(2, vec![2]); // never flushed
        let mut seen = Vec::new();
        log.replay(|r| seen.push(r.txn_id));
        assert_eq!(seen, vec![1]);
    }

    #[test]
    fn survival_predicates() {
        assert!(!ReliabilityLevel::Volatile.survives_process_crash());
        assert!(ReliabilityLevel::Local.survives_process_crash());
        assert!(!ReliabilityLevel::Local.survives_node_failure());
        assert!(ReliabilityLevel::Replicated(2).survives_node_failure());
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", ReliabilityLevel::Replicated(2)), "replicated(2)");
        assert_eq!(format!("{}", Lsn(4)), "lsn4");
    }
}
