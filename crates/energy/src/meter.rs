//! Energy accounting: domains, the [`EnergyMeter`], and emulated RAPL
//! counters.
//!
//! Real servers expose energy through RAPL (Running Average Power Limit)
//! MSRs: monotonically increasing counters in units of ~15.3 µJ that wrap
//! around after 2³² units. Because this reproduction must run on machines
//! without RAPL access (containers, non-Intel hosts), the meter *emulates*
//! those counters on top of the analytical model — including the wraparound
//! behaviour, so downstream reading code is exercised exactly as it would
//! be against real hardware.

use crate::units::Joules;
use std::fmt;
use std::time::Duration;

/// An accounting domain, mirroring the RAPL domain split plus the extra
/// components our machine model meters separately.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Domain {
    /// Whole-package domain (cores + uncore); RAPL `PKG`.
    Package,
    /// Core-only domain; RAPL `PP0`.
    Cores,
    /// Memory domain; RAPL `DRAM`.
    Dram,
    /// Network interfaces (not covered by RAPL; metered analytically).
    Nic,
    /// Cold-tier disks.
    Disk,
    /// Attached co-processor (GPU/FPGA stand-in).
    Coproc,
}

impl Domain {
    /// All domains in canonical order.
    pub const ALL: [Domain; 6] =
        [Domain::Package, Domain::Cores, Domain::Dram, Domain::Nic, Domain::Disk, Domain::Coproc];
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Domain::Package => "package",
            Domain::Cores => "cores",
            Domain::Dram => "dram",
            Domain::Nic => "nic",
            Domain::Disk => "disk",
            Domain::Coproc => "coproc",
        };
        f.write_str(s)
    }
}

const NUM_DOMAINS: usize = Domain::ALL.len();

/// Energy per RAPL counter unit: the common 2^-16 J ≈ 15.26 µJ setting.
const RAPL_UNIT_JOULES: f64 = 1.0 / 65536.0;

/// RAPL counters are 32-bit and wrap; at ~65 W that is roughly every
/// 1000 seconds, so wrap handling is not optional in practice.
pub const RAPL_WRAP_UNITS: u64 = 1 << 32;

/// Accumulates energy per [`Domain`] and exposes emulated RAPL registers.
///
/// ```
/// use haec_energy::meter::{Domain, EnergyMeter};
/// use haec_energy::units::Joules;
/// let mut m = EnergyMeter::new();
/// m.add(Domain::Cores, Joules::new(1.5));
/// assert_eq!(m.total(Domain::Cores), Joules::new(1.5));
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnergyMeter {
    joules: [f64; NUM_DOMAINS],
    elapsed: Duration,
}

impl EnergyMeter {
    /// Creates a meter with all domains at zero.
    pub fn new() -> Self {
        EnergyMeter::default()
    }

    /// Adds `energy` to `domain`. Core/DRAM energy is *also* folded into
    /// [`Domain::Package`], mirroring how the hardware PKG domain
    /// subsumes PP0 and (on servers) memory-controller draw.
    ///
    /// # Panics
    ///
    /// Panics if `energy` is negative; meters are monotonic.
    pub fn add(&mut self, domain: Domain, energy: Joules) {
        assert!(energy.joules() >= 0.0, "energy increments must be non-negative");
        self.joules[domain_index(domain)] += energy.joules();
        if matches!(domain, Domain::Cores | Domain::Dram) {
            self.joules[domain_index(Domain::Package)] += energy.joules();
        }
    }

    /// Advances the meter's notion of elapsed (virtual or wall) time.
    pub fn advance(&mut self, dt: Duration) {
        self.elapsed += dt;
    }

    /// Total elapsed time recorded through [`EnergyMeter::advance`].
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Cumulative energy of one domain.
    pub fn total(&self, domain: Domain) -> Joules {
        Joules::new(self.joules[domain_index(domain)])
    }

    /// Sum over all *leaf* domains (package excluded to avoid double
    /// counting cores + dram).
    pub fn grand_total(&self) -> Joules {
        let mut sum = 0.0;
        for d in Domain::ALL {
            if d != Domain::Package {
                sum += self.joules[domain_index(d)];
            }
        }
        Joules::new(sum)
    }

    /// Emulated RAPL register read for `domain`: the cumulative energy in
    /// RAPL units, wrapped to 32 bits exactly like the MSR.
    pub fn rapl_read(&self, domain: Domain) -> u64 {
        let units = (self.joules[domain_index(domain)] / RAPL_UNIT_JOULES) as u64;
        units % RAPL_WRAP_UNITS
    }

    /// Merges another meter's counters into this one (used when joining
    /// per-thread meters after a parallel pipeline).
    pub fn merge(&mut self, other: &EnergyMeter) {
        for i in 0..NUM_DOMAINS {
            self.joules[i] += other.joules[i];
        }
        self.elapsed += other.elapsed;
    }

    /// A point-in-time snapshot of all domains.
    pub fn snapshot(&self) -> EnergySnapshot {
        EnergySnapshot { joules: self.joules, elapsed: self.elapsed }
    }
}

#[inline]
fn domain_index(d: Domain) -> usize {
    match d {
        Domain::Package => 0,
        Domain::Cores => 1,
        Domain::Dram => 2,
        Domain::Nic => 3,
        Domain::Disk => 4,
        Domain::Coproc => 5,
    }
}

/// An immutable copy of meter state, used for interval accounting.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergySnapshot {
    joules: [f64; NUM_DOMAINS],
    elapsed: Duration,
}

impl EnergySnapshot {
    /// Energy of one domain in this snapshot.
    pub fn total(&self, domain: Domain) -> Joules {
        Joules::new(self.joules[domain_index(domain)])
    }

    /// Sum over all leaf domains.
    pub fn grand_total(&self) -> Joules {
        let mut sum = 0.0;
        for d in Domain::ALL {
            if d != Domain::Package {
                sum += self.joules[domain_index(d)];
            }
        }
        Joules::new(sum)
    }

    /// Elapsed time covered by this snapshot.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }
}

impl fmt::Display for EnergySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pkg={:.3} dram={:.3} nic={:.3} disk={:.3} coproc={:.3} (J)",
            self.total(Domain::Package).joules(),
            self.total(Domain::Dram).joules(),
            self.total(Domain::Nic).joules(),
            self.total(Domain::Disk).joules(),
            self.total(Domain::Coproc).joules(),
        )
    }
}

/// Computes the energy delta between two raw RAPL register reads,
/// handling at most one wraparound — exactly the idiom used when polling
/// the real MSRs.
///
/// ```
/// use haec_energy::meter::{rapl_delta, RAPL_WRAP_UNITS};
/// assert_eq!(rapl_delta(10, 4), RAPL_WRAP_UNITS - 10 + 4); // wrapped
/// assert_eq!(rapl_delta(4, 10), 6);
/// ```
#[inline]
pub fn rapl_delta(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        RAPL_WRAP_UNITS - before + after
    }
}

/// Converts a RAPL-unit delta to joules.
#[inline]
pub fn rapl_units_to_joules(units: u64) -> Joules {
    Joules::new(units as f64 * RAPL_UNIT_JOULES)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_total() {
        let mut m = EnergyMeter::new();
        m.add(Domain::Nic, Joules::new(2.0));
        m.add(Domain::Nic, Joules::new(3.0));
        assert_eq!(m.total(Domain::Nic), Joules::new(5.0));
    }

    #[test]
    fn cores_and_dram_roll_into_package() {
        let mut m = EnergyMeter::new();
        m.add(Domain::Cores, Joules::new(1.0));
        m.add(Domain::Dram, Joules::new(0.5));
        m.add(Domain::Nic, Joules::new(0.25));
        assert_eq!(m.total(Domain::Package), Joules::new(1.5));
        // Grand total counts leaves once.
        assert_eq!(m.grand_total(), Joules::new(1.75));
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = EnergyMeter::new();
        a.add(Domain::Dram, Joules::new(1.0));
        let mut b = EnergyMeter::new();
        b.add(Domain::Dram, Joules::new(2.0));
        b.advance(Duration::from_secs(1));
        a.merge(&b);
        assert_eq!(a.total(Domain::Dram), Joules::new(3.0));
        assert_eq!(a.elapsed(), Duration::from_secs(1));
    }

    #[test]
    fn rapl_read_is_in_units() {
        let mut m = EnergyMeter::new();
        m.add(Domain::Cores, Joules::new(1.0));
        let units = m.rapl_read(Domain::Cores);
        assert_eq!(units, 65536);
    }

    #[test]
    fn rapl_read_wraps_at_32_bits() {
        let mut m = EnergyMeter::new();
        // 2^32 units = 65536 J; add a bit more and expect a wrapped value.
        m.add(Domain::Cores, Joules::new(65536.0 + 1.0));
        let units = m.rapl_read(Domain::Cores);
        assert_eq!(units, 65536);
    }

    #[test]
    fn rapl_delta_handles_wrap() {
        assert_eq!(rapl_delta(100, 300), 200);
        let before = RAPL_WRAP_UNITS - 50;
        assert_eq!(rapl_delta(before, 10), 60);
    }

    #[test]
    fn rapl_units_to_joules_round_trip() {
        let j = rapl_units_to_joules(65536);
        assert!((j.joules() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_energy_panics() {
        let mut m = EnergyMeter::new();
        m.add(Domain::Cores, Joules::new(-1.0));
    }

    #[test]
    fn domain_display() {
        assert_eq!(format!("{}", Domain::Dram), "dram");
        let s = EnergyMeter::new().snapshot();
        assert!(format!("{s}").contains("pkg=0.000"));
    }
}
