//! The storage hierarchy: segments, placement policies, aging and
//! migration — experiment E7's machinery.

use crate::temperature::{AccessKind, DensityClass, Temperature};
use crate::tier::{StorageTier, TierTable};
use haec_energy::units::ByteCount;
use haec_energy::ResourceProfile;
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

/// Identifier of a storage segment (a table partition / column extent).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u64);

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seg{}", self.0)
    }
}

/// Metadata of one segment.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Payload size.
    pub size: ByteCount,
    /// The paper's density classification.
    pub density: DensityClass,
    /// Current tier.
    pub tier: StorageTier,
    /// Hotness tracker.
    pub temperature: Temperature,
    /// Total accesses ever.
    pub accesses: u64,
}

/// Placement/aging policy for the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Leave every segment where it was created (no aging).
    Static,
    /// Pure temperature thresholds, density-blind.
    TemperatureOnly,
    /// The paper's policy: temperature thresholds, but high-density data
    /// never leaves DRAM/NVM and low-density data never occupies DRAM.
    DensityAware,
}

impl fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PlacementPolicy::Static => "static",
            PlacementPolicy::TemperatureOnly => "temperature",
            PlacementPolicy::DensityAware => "density-aware",
        };
        f.write_str(s)
    }
}

/// The outcome of one access: where it was served from and what it cost.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessOutcome {
    /// The tier that served the access.
    pub tier: StorageTier,
    /// Modelled service time.
    pub time: Duration,
    /// Modelled resource consumption.
    pub profile: ResourceProfile,
}

/// One migration performed by [`Hierarchy::age`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Migration {
    /// The segment moved.
    pub segment: SegmentId,
    /// Where it was.
    pub from: StorageTier,
    /// Where it went.
    pub to: StorageTier,
}

/// The multi-level store.
///
/// ```
/// use haec_storage::prelude::*;
/// use haec_energy::units::ByteCount;
///
/// let mut h = Hierarchy::new(PlacementPolicy::DensityAware);
/// let seg = h.create_segment(ByteCount::from_mib(64), DensityClass::Low);
/// assert_eq!(h.segment(seg).unwrap().tier, StorageTier::Ssd); // low-density starts cold
/// let out = h.access(seg, AccessKind::Scan);
/// assert!(out.time.as_micros() > 0);
/// ```
#[derive(Debug)]
pub struct Hierarchy {
    tiers: TierTable,
    policy: PlacementPolicy,
    segments: HashMap<SegmentId, Segment>,
    next_id: u64,
    clock_s: f64,
    /// Temperature half-life used for new segments.
    half_life_s: f64,
    /// Promote when hotter than this.
    promote_above: f64,
    /// Demote when colder than this.
    demote_below: f64,
}

impl Hierarchy {
    /// Creates an empty hierarchy with 2013 tier defaults and standard
    /// thresholds.
    pub fn new(policy: PlacementPolicy) -> Self {
        Hierarchy {
            tiers: TierTable::default_2013(),
            policy,
            segments: HashMap::new(),
            next_id: 0,
            clock_s: 0.0,
            half_life_s: 300.0,
            promote_above: 4.0,
            demote_below: 0.5,
        }
    }

    /// The active policy.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Creates a segment; initial tier follows the density class
    /// (high-density → DRAM, low-density → SSD).
    pub fn create_segment(&mut self, size: ByteCount, density: DensityClass) -> SegmentId {
        let id = SegmentId(self.next_id);
        self.next_id += 1;
        let tier = match density {
            DensityClass::High => StorageTier::Dram,
            DensityClass::Low => StorageTier::Ssd,
        };
        self.segments.insert(
            id,
            Segment { size, density, tier, temperature: Temperature::new(self.half_life_s), accesses: 0 },
        );
        id
    }

    /// Looks a segment up.
    pub fn segment(&self, id: SegmentId) -> Option<&Segment> {
        self.segments.get(&id)
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Returns `true` if no segments exist.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Advances the hierarchy's clock (drives temperature decay).
    pub fn tick(&mut self, dt: Duration) {
        let dt_s = dt.as_secs_f64();
        self.clock_s += dt_s;
        for seg in self.segments.values_mut() {
            seg.temperature.decay(dt_s);
        }
    }

    /// Serves one access against a segment, heating it up.
    ///
    /// # Panics
    ///
    /// Panics if the segment does not exist.
    pub fn access(&mut self, id: SegmentId, kind: AccessKind) -> AccessOutcome {
        let seg = self.segments.get_mut(&id).expect("no such segment");
        seg.accesses += 1;
        let bytes = match kind {
            AccessKind::Point => ByteCount::from_kib(4).min_of(seg.size),
            AccessKind::Scan => seg.size,
        };
        // Scans heat less per byte than point accesses: a scan is one
        // logical use of the whole segment.
        seg.temperature.record(match kind {
            AccessKind::Point => 1.0,
            AccessKind::Scan => 2.0,
        });
        let spec = self.tiers.spec(seg.tier);
        AccessOutcome {
            tier: seg.tier,
            time: spec.access_time(bytes),
            profile: spec.access_profile(seg.tier, bytes),
        }
    }

    /// Runs one aging pass: applies the policy's promotion/demotion
    /// rules and returns the migrations performed.
    pub fn age(&mut self) -> Vec<Migration> {
        if self.policy == PlacementPolicy::Static {
            return Vec::new();
        }
        let mut migrations = Vec::new();
        let mut ids: Vec<SegmentId> = self.segments.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let seg = self.segments.get_mut(&id).expect("listed segment exists");
            let temp = seg.temperature.value();
            let mut target = seg.tier;
            if temp > self.promote_above {
                if let Some(up) = seg.tier.promote() {
                    target = up;
                }
            } else if temp < self.demote_below {
                if let Some(down) = seg.tier.demote() {
                    target = down;
                }
            }
            if self.policy == PlacementPolicy::DensityAware {
                target = match seg.density {
                    // Business-critical data must stay point-addressable.
                    DensityClass::High => target.max(StorageTier::Dram).min(StorageTier::Nvm),
                    // Bulk data never earns DRAM residency.
                    DensityClass::Low => target.max(StorageTier::Nvm),
                };
            }
            if target != seg.tier {
                migrations.push(Migration { segment: id, from: seg.tier, to: target });
                seg.tier = target;
            }
        }
        migrations
    }

    /// Total static power of resident data, per the tier specs — the
    /// quantity density-aware placement minimizes.
    pub fn static_power_watts(&self) -> f64 {
        self.segments
            .values()
            .map(|s| {
                let gib = s.size.bytes() as f64 / (1u64 << 30) as f64;
                self.tiers.spec(s.tier).static_w_per_gib * gib
            })
            .sum()
    }
}

/// Extension: min of two byte counts (helper for point-access clamping).
trait ByteCountExt {
    fn min_of(self, other: ByteCount) -> ByteCount;
}

impl ByteCountExt for ByteCount {
    fn min_of(self, other: ByteCount) -> ByteCount {
        if self.bytes() <= other.bytes() {
            self
        } else {
            other
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_drives_initial_placement() {
        let mut h = Hierarchy::new(PlacementPolicy::DensityAware);
        let hot = h.create_segment(ByteCount::from_mib(1), DensityClass::High);
        let cold = h.create_segment(ByteCount::from_mib(1), DensityClass::Low);
        assert_eq!(h.segment(hot).unwrap().tier, StorageTier::Dram);
        assert_eq!(h.segment(cold).unwrap().tier, StorageTier::Ssd);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn access_outcome_reflects_tier() {
        let mut h = Hierarchy::new(PlacementPolicy::Static);
        let hot = h.create_segment(ByteCount::from_mib(1), DensityClass::High);
        let cold = h.create_segment(ByteCount::from_mib(1), DensityClass::Low);
        let fast = h.access(hot, AccessKind::Point);
        let slow = h.access(cold, AccessKind::Point);
        assert!(fast.time < slow.time);
        assert_eq!(fast.tier, StorageTier::Dram);
        assert_eq!(slow.tier, StorageTier::Ssd);
        assert!(slow.profile.disk_seeks > 0);
    }

    #[test]
    fn point_access_clamps_to_segment_size() {
        let mut h = Hierarchy::new(PlacementPolicy::Static);
        let tiny = h.create_segment(ByteCount::new(100), DensityClass::High);
        let out = h.access(tiny, AccessKind::Point);
        assert_eq!(out.profile.dram_read.bytes(), 100);
    }

    #[test]
    fn static_policy_never_migrates() {
        let mut h = Hierarchy::new(PlacementPolicy::Static);
        let seg = h.create_segment(ByteCount::from_mib(1), DensityClass::Low);
        for _ in 0..100 {
            h.access(seg, AccessKind::Point);
        }
        assert!(h.age().is_empty());
    }

    #[test]
    fn hot_cold_migration_cycle() {
        let mut h = Hierarchy::new(PlacementPolicy::TemperatureOnly);
        let seg = h.create_segment(ByteCount::from_mib(1), DensityClass::Low);
        // Heat it: should promote SSD → NVM (and later further).
        for _ in 0..10 {
            h.access(seg, AccessKind::Point);
        }
        let migs = h.age();
        assert_eq!(migs.len(), 1);
        assert_eq!(migs[0].from, StorageTier::Ssd);
        assert_eq!(migs[0].to, StorageTier::Nvm);
        // Cool it for a long time: demotes back down.
        h.tick(Duration::from_secs(3600 * 10));
        let migs = h.age();
        assert_eq!(migs.len(), 1);
        assert_eq!(migs[0].to, StorageTier::Ssd);
    }

    #[test]
    fn density_aware_pins_classes() {
        let mut h = Hierarchy::new(PlacementPolicy::DensityAware);
        let critical = h.create_segment(ByteCount::from_mib(1), DensityClass::High);
        let bulk = h.create_segment(ByteCount::from_mib(1), DensityClass::Low);
        // Freeze the critical segment: may demote at most to NVM.
        h.tick(Duration::from_secs(3600 * 100));
        let migs = h.age();
        let critical_mig = migs.iter().find(|m| m.segment == critical).unwrap();
        assert_eq!(critical_mig.to, StorageTier::Nvm);
        // Heat the bulk segment hard: must never reach DRAM.
        for _ in 0..1000 {
            h.access(bulk, AccessKind::Scan);
        }
        for _ in 0..5 {
            h.age();
        }
        assert!(h.segment(bulk).unwrap().tier >= StorageTier::Nvm);
    }

    #[test]
    fn static_power_falls_when_data_ages_out() {
        let mut h = Hierarchy::new(PlacementPolicy::TemperatureOnly);
        let seg = h.create_segment(ByteCount::from_gib(1), DensityClass::High);
        let hot_power = h.static_power_watts();
        h.tick(Duration::from_secs(3600 * 100));
        // Repeated aging passes demote step by step to disk.
        for _ in 0..4 {
            h.age();
        }
        assert_eq!(h.segment(seg).unwrap().tier, StorageTier::Disk);
        assert!(h.static_power_watts() < hot_power / 10.0);
    }

    #[test]
    fn residency_accounting() {
        let mut h = Hierarchy::new(PlacementPolicy::Static);
        let ids = [
            h.create_segment(ByteCount::from_mib(2), DensityClass::High),
            h.create_segment(ByteCount::from_mib(3), DensityClass::High),
            h.create_segment(ByteCount::from_mib(5), DensityClass::Low),
        ];
        let tiers: Vec<StorageTier> = ids.iter().map(|&id| h.segment(id).unwrap().tier).collect();
        assert_eq!(tiers, [StorageTier::Dram, StorageTier::Dram, StorageTier::Ssd]);
    }

    #[test]
    #[should_panic(expected = "no such segment")]
    fn access_missing_segment_panics() {
        Hierarchy::new(PlacementPolicy::Static).access(SegmentId(99), AccessKind::Point);
    }

    #[test]
    fn displays() {
        assert_eq!(format!("{}", SegmentId(3)), "seg3");
        assert_eq!(format!("{}", PlacementPolicy::DensityAware), "density-aware");
    }
}
