//! Storage tiers: the levels of the paper's "multi-level storage
//! structures" (§IV.B), each with latency, bandwidth and energy
//! parameters.
//!
//! "Main memory is the new disk, disk is the new archive": the tier
//! table makes that quantitative, so placement policies can trade
//! access latency against capacity cost and energy.

use haec_energy::units::ByteCount;
use haec_energy::ResourceProfile;
use std::fmt;
use std::time::Duration;

/// A level of the storage hierarchy, fastest first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageTier {
    /// DRAM: the primary data home of the in-memory DBMS.
    Dram,
    /// Persistent memory (storage-class memory, paper ref \[19\]).
    Nvm,
    /// Flash SSD.
    Ssd,
    /// Spinning disk ("low-density" data farm).
    Disk,
}

impl StorageTier {
    /// All tiers, fastest first.
    pub const ALL: [StorageTier; 4] =
        [StorageTier::Dram, StorageTier::Nvm, StorageTier::Ssd, StorageTier::Disk];

    /// The next slower tier, if any.
    pub fn demote(self) -> Option<StorageTier> {
        match self {
            StorageTier::Dram => Some(StorageTier::Nvm),
            StorageTier::Nvm => Some(StorageTier::Ssd),
            StorageTier::Ssd => Some(StorageTier::Disk),
            StorageTier::Disk => None,
        }
    }

    /// The next faster tier, if any.
    pub fn promote(self) -> Option<StorageTier> {
        match self {
            StorageTier::Dram => None,
            StorageTier::Nvm => Some(StorageTier::Dram),
            StorageTier::Ssd => Some(StorageTier::Nvm),
            StorageTier::Disk => Some(StorageTier::Ssd),
        }
    }
}

impl fmt::Display for StorageTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            StorageTier::Dram => "dram",
            StorageTier::Nvm => "nvm",
            StorageTier::Ssd => "ssd",
            StorageTier::Disk => "disk",
        };
        f.write_str(s)
    }
}

/// Performance/energy/cost parameters of one tier.
#[derive(Clone, Debug, PartialEq)]
pub struct TierSpec {
    /// Fixed per-access latency (page fetch / seek / word access).
    pub access_latency: Duration,
    /// Streaming bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Dynamic energy per byte moved (picojoules).
    pub pj_per_byte: f64,
    /// Static power attributable per GiB stored.
    pub static_w_per_gib: f64,
    /// Relative capacity cost ($(/GiB, arbitrary units) — used by the
    /// placement policy's budget.
    pub cost_per_gib: f64,
}

impl TierSpec {
    /// 2013-era defaults for `tier` (DDR3 / early SCM / SATA SSD /
    /// nearline disk).
    pub fn default_for(tier: StorageTier) -> TierSpec {
        match tier {
            StorageTier::Dram => TierSpec {
                access_latency: Duration::from_nanos(100),
                bandwidth: 40.0e9,
                pj_per_byte: 60.0,
                static_w_per_gib: 0.35,
                cost_per_gib: 10.0,
            },
            StorageTier::Nvm => TierSpec {
                access_latency: Duration::from_micros(1),
                bandwidth: 8.0e9,
                pj_per_byte: 150.0,
                static_w_per_gib: 0.05,
                cost_per_gib: 5.0,
            },
            StorageTier::Ssd => TierSpec {
                access_latency: Duration::from_micros(80),
                bandwidth: 500.0e6,
                pj_per_byte: 600.0,
                static_w_per_gib: 0.01,
                cost_per_gib: 1.0,
            },
            StorageTier::Disk => TierSpec {
                access_latency: Duration::from_millis(8),
                bandwidth: 140.0e6,
                pj_per_byte: 2500.0,
                static_w_per_gib: 0.002,
                cost_per_gib: 0.05,
            },
        }
    }

    /// Time to serve one access of `bytes` from this tier.
    pub fn access_time(&self, bytes: ByteCount) -> Duration {
        self.access_latency + Duration::from_secs_f64(bytes.bytes() as f64 / self.bandwidth)
    }

    /// The resource profile of one access of `bytes` (DRAM traffic is
    /// metered as DRAM; every other tier is metered as disk traffic plus
    /// a seek).
    pub fn access_profile(&self, tier: StorageTier, bytes: ByteCount) -> ResourceProfile {
        match tier {
            StorageTier::Dram => ResourceProfile { dram_read: bytes, ..ResourceProfile::default() },
            StorageTier::Nvm => ResourceProfile {
                dram_read: bytes, // metered on the memory bus
                ..ResourceProfile::default()
            },
            StorageTier::Ssd | StorageTier::Disk => {
                ResourceProfile { disk_read: bytes, disk_seeks: 1, ..ResourceProfile::default() }
            }
        }
    }
}

/// The full tier table.
#[derive(Clone, Debug, PartialEq)]
pub struct TierTable {
    specs: [TierSpec; 4],
}

impl TierTable {
    /// The 2013 defaults for all tiers.
    pub fn default_2013() -> Self {
        TierTable {
            specs: [
                TierSpec::default_for(StorageTier::Dram),
                TierSpec::default_for(StorageTier::Nvm),
                TierSpec::default_for(StorageTier::Ssd),
                TierSpec::default_for(StorageTier::Disk),
            ],
        }
    }

    /// The spec of `tier`.
    pub fn spec(&self, tier: StorageTier) -> &TierSpec {
        &self.specs[tier as usize]
    }
}

impl Default for TierTable {
    fn default() -> Self {
        TierTable::default_2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_strictly_increases_down_the_hierarchy() {
        let t = TierTable::default_2013();
        let lats: Vec<Duration> = StorageTier::ALL.iter().map(|&tier| t.spec(tier).access_latency).collect();
        assert!(lats.windows(2).all(|w| w[0] < w[1]), "{lats:?}");
    }

    #[test]
    fn bandwidth_strictly_decreases() {
        let t = TierTable::default_2013();
        let bws: Vec<f64> = StorageTier::ALL.iter().map(|&tier| t.spec(tier).bandwidth).collect();
        assert!(bws.windows(2).all(|w| w[0] > w[1]), "{bws:?}");
    }

    #[test]
    fn cost_per_gib_decreases() {
        let t = TierTable::default_2013();
        let costs: Vec<f64> = StorageTier::ALL.iter().map(|&tier| t.spec(tier).cost_per_gib).collect();
        assert!(costs.windows(2).all(|w| w[0] > w[1]), "{costs:?}");
    }

    #[test]
    fn promote_demote_chain() {
        assert_eq!(StorageTier::Dram.demote(), Some(StorageTier::Nvm));
        assert_eq!(StorageTier::Disk.demote(), None);
        assert_eq!(StorageTier::Disk.promote(), Some(StorageTier::Ssd));
        assert_eq!(StorageTier::Dram.promote(), None);
        // promote ∘ demote = identity (where defined)
        for t in StorageTier::ALL {
            if let Some(d) = t.demote() {
                assert_eq!(d.promote(), Some(t));
            }
        }
    }

    #[test]
    fn access_time_includes_latency_floor() {
        let spec = TierSpec::default_for(StorageTier::Disk);
        let t0 = spec.access_time(ByteCount::ZERO);
        assert_eq!(t0, Duration::from_millis(8));
        let t1 = spec.access_time(ByteCount::from_mib(140));
        assert!(t1 > Duration::from_secs(1));
    }

    #[test]
    fn profiles_route_to_right_component() {
        let table = TierTable::default_2013();
        let b = ByteCount::from_kib(4);
        let dram = table.spec(StorageTier::Dram).access_profile(StorageTier::Dram, b);
        assert_eq!(dram.dram_read, b);
        assert_eq!(dram.disk_seeks, 0);
        let disk = table.spec(StorageTier::Disk).access_profile(StorageTier::Disk, b);
        assert_eq!(disk.disk_read, b);
        assert_eq!(disk.disk_seeks, 1);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", StorageTier::Nvm), "nvm");
    }
}
