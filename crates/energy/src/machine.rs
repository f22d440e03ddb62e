//! The machine specification: every power-drawing component of the
//! modeled database server.
//!
//! The paper's energy arguments range over CPU cores (DVFS + parking),
//! DRAM ("main memory is the new disk"), NICs (compressed shipping),
//! disks (low-density data) and co-processors (GPU/FPGA offload). Each
//! component is described by a static/idle power plus a dynamic
//! energy-per-unit-of-work coefficient, which is the standard first-order
//! server model used e.g. by Tsirogiannis et al. (SIGMOD 2010).

use crate::pstate::PStateTable;
use crate::units::{ByteCount, Joules, Watts};

/// DRAM subsystem parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct DramSpec {
    /// Installed capacity in GiB (drives static power).
    pub capacity_gib: f64,
    /// Background/refresh power per GiB.
    pub static_w_per_gib: f64,
    /// Dynamic energy per byte read or written (picojoules).
    pub pj_per_byte: f64,
    /// Peak sustainable bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl DramSpec {
    /// 64 GiB of DDR3-1600: ~0.35 W/GiB refresh, ~60 pJ/B dynamic,
    /// ~40 GB/s per socket.
    fn ddr3_64gib() -> Self {
        DramSpec { capacity_gib: 64.0, static_w_per_gib: 0.35, pj_per_byte: 60.0, bandwidth: 40.0e9 }
    }

    /// Static (refresh + background) power of the whole DIMM population.
    pub fn static_power(&self) -> Watts {
        Watts::new(self.capacity_gib * self.static_w_per_gib)
    }

    /// Dynamic energy to move `bytes` to/from DRAM.
    pub fn dynamic_energy(&self, bytes: ByteCount) -> Joules {
        Joules::new(bytes.bytes() as f64 * self.pj_per_byte * 1e-12)
    }
}

/// Network interface parameters (per port).
#[derive(Clone, Debug, PartialEq)]
pub struct NicSpec {
    /// Idle power of the port (always on while the node is up).
    pub idle_w: f64,
    /// Dynamic energy per byte transferred (picojoules).
    pub pj_per_byte: f64,
    /// Line rate in bytes/second.
    pub bandwidth: f64,
}

impl NicSpec {
    /// A 10 GbE port: ~4 W idle, ~20 pJ/B incremental.
    fn ten_gbe() -> Self {
        NicSpec { idle_w: 4.0, pj_per_byte: 20.0, bandwidth: 10.0e9 / 8.0 }
    }

    /// Idle power of the port.
    pub fn idle_power(&self) -> Watts {
        Watts::new(self.idle_w)
    }

    /// Dynamic energy to push `bytes` through the port.
    pub fn dynamic_energy(&self, bytes: ByteCount) -> Joules {
        Joules::new(bytes.bytes() as f64 * self.pj_per_byte * 1e-12)
    }
}

/// Spinning-disk (or disk-farm share) parameters for the cold tier.
#[derive(Clone, Debug, PartialEq)]
pub struct DiskSpec {
    /// Idle (spinning) power.
    pub idle_w: f64,
    /// Additional power while seeking/transferring.
    pub active_extra_w: f64,
    /// Sustained sequential bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Average seek + rotational latency in seconds.
    pub seek_s: f64,
}

impl DiskSpec {
    /// A 7200 rpm nearline SATA drive: 8 W idle, +4 W active,
    /// 140 MB/s sequential, 8 ms average positioning time.
    fn nearline_sata() -> Self {
        DiskSpec { idle_w: 8.0, active_extra_w: 4.0, bandwidth: 140.0e6, seek_s: 0.008 }
    }

    /// Idle (spinning) power of the drive.
    pub fn idle_power(&self) -> Watts {
        Watts::new(self.idle_w)
    }
}

/// A co-processor (GPU/FPGA stand-in) as seen by the placement model.
///
/// The paper (§III, §IV.B) argues for *hybrid* operators whose `work()`
/// phase runs on such a device while `init()`/`finish()` stay on the CPU.
/// The model captures exactly what that decision needs: throughput
/// advantage, transfer cost over the host link, and an idle draw that is
/// paid whether or not the device is used.
#[derive(Clone, Debug, PartialEq)]
pub struct CoprocSpec {
    /// Idle power of the device while powered on.
    pub idle_w: f64,
    /// Peak board power when busy.
    pub busy_w: f64,
    /// Scan/aggregate throughput in items per second (vs. CPU items/s).
    pub items_per_sec: f64,
    /// Host link bandwidth (PCIe) in bytes/second.
    pub link_bandwidth: f64,
    /// Host link energy per byte (picojoules).
    pub link_pj_per_byte: f64,
    /// Fixed kernel-launch latency per offloaded work() phase, seconds.
    pub launch_latency_s: f64,
}

impl CoprocSpec {
    /// A 2013 discrete GPU (Kepler class): 25 W idle, 180 W busy,
    /// ~6x CPU-core scan throughput, PCIe2 x16 ≈ 6 GB/s effective.
    pub fn kepler_gpu() -> Self {
        CoprocSpec {
            idle_w: 25.0,
            busy_w: 180.0,
            items_per_sec: 6.0e9,
            link_bandwidth: 6.0e9,
            link_pj_per_byte: 35.0,
            launch_latency_s: 30.0e-6,
        }
    }

    /// Idle power of the device.
    pub fn idle_power(&self) -> Watts {
        Watts::new(self.idle_w)
    }
}

/// Complete power model of one server node.
///
/// Construct with [`MachineSpec::commodity_2013`] and customize through
/// the builder-style `with_*` methods:
///
/// ```
/// use haec_energy::machine::{MachineSpec, CoprocSpec};
/// let m = MachineSpec::commodity_2013()
///     .with_cores(16)
///     .with_coproc(CoprocSpec::kepler_gpu());
/// assert_eq!(m.cores(), 16);
/// assert!(m.coproc().is_some());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MachineSpec {
    cores: usize,
    pstates: PStateTable,
    dram: DramSpec,
    nic: NicSpec,
    disk: DiskSpec,
    coproc: Option<CoprocSpec>,
    /// Fans, VRs, chipset: drawn whenever the node is powered.
    platform_w: f64,
}

impl MachineSpec {
    /// A commodity 2013 two-socket server: 8 cores (one socket modeled),
    /// 64 GiB DDR3, one 10 GbE port, one nearline disk, no co-processor,
    /// 45 W platform overhead.
    pub fn commodity_2013() -> Self {
        MachineSpec {
            cores: 8,
            pstates: PStateTable::xeon_2013(),
            dram: DramSpec::ddr3_64gib(),
            nic: NicSpec::ten_gbe(),
            disk: DiskSpec::nearline_sata(),
            coproc: None,
            platform_w: 45.0,
        }
    }

    /// Sets the number of physical cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn with_cores(mut self, cores: usize) -> Self {
        assert!(cores > 0, "a machine needs at least one core");
        self.cores = cores;
        self
    }

    /// Attaches a co-processor.
    pub fn with_coproc(mut self, coproc: CoprocSpec) -> Self {
        self.coproc = Some(coproc);
        self
    }

    /// Number of physical cores.
    #[inline]
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The DVFS table shared by all cores.
    #[inline]
    pub fn pstates(&self) -> &PStateTable {
        &self.pstates
    }

    /// DRAM subsystem parameters.
    #[inline]
    pub fn dram(&self) -> &DramSpec {
        &self.dram
    }

    /// NIC parameters.
    #[inline]
    pub fn nic(&self) -> &NicSpec {
        &self.nic
    }

    /// Cold-tier disk parameters.
    #[inline]
    pub fn disk(&self) -> &DiskSpec {
        &self.disk
    }

    /// Co-processor parameters, if present.
    #[inline]
    pub fn coproc(&self) -> Option<&CoprocSpec> {
        self.coproc.as_ref()
    }

    /// Constant platform power.
    #[inline]
    fn platform_power(&self) -> Watts {
        Watts::new(self.platform_w)
    }

    /// Power drawn by the node with every core parked and all devices
    /// idle — the floor that motivates consolidation + node shutdown in
    /// the elasticity experiments (E11/E12).
    pub fn idle_floor(&self) -> Watts {
        use crate::pstate::CState;
        let mut p = self.platform_power() + self.dram.static_power() + self.nic.idle_power();
        let per_core = self.pstates.core_power(self.pstates.slowest(), CState::Parked);
        p += per_core * self.cores as f64;
        p += self.disk.idle_power();
        if let Some(c) = &self.coproc {
            p += c.idle_power();
        }
        p
    }

    /// Peak power with all cores active at the fastest P-state and every
    /// device busy — used to express energy budgets as a fraction of
    /// peak (Fig. 2 experiment).
    pub fn peak_power(&self) -> Watts {
        use crate::pstate::CState;
        let mut p = self.platform_power() + self.dram.static_power() + self.nic.idle_power();
        let per_core = self.pstates.core_power(self.pstates.fastest(), CState::Active);
        p += per_core * self.cores as f64;
        p += Watts::new(self.disk.idle_w + self.disk.active_extra_w);
        if let Some(c) = &self.coproc {
            p += Watts::new(c.busy_w);
        }
        p
    }
}

impl Default for MachineSpec {
    fn default() -> Self {
        MachineSpec::commodity_2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_defaults_plausible() {
        let m = MachineSpec::commodity_2013();
        assert_eq!(m.cores(), 8);
        let idle = m.idle_floor().watts();
        let peak = m.peak_power().watts();
        // 2013 servers idled at 40-60% of peak; our model's idle floor
        // (everything parked) should be well below peak but nonzero.
        assert!(idle > 50.0, "idle floor {idle}");
        assert!(peak > 150.0, "peak {peak}");
        assert!(idle < peak * 0.6, "idle {idle} vs peak {peak}");
    }

    #[test]
    fn builder_round_trip() {
        let m = MachineSpec::commodity_2013().with_cores(32).with_coproc(CoprocSpec::kepler_gpu());
        assert_eq!(m.cores(), 32);
        assert_eq!(m.platform_power(), Watts::new(45.0));
        assert!(m.coproc().is_some());
        assert_eq!(m.disk(), &DiskSpec::nearline_sata());
    }

    #[test]
    fn dram_energy_scales_with_bytes() {
        let d = DramSpec::ddr3_64gib();
        let e1 = d.dynamic_energy(ByteCount::from_mib(1));
        let e2 = d.dynamic_energy(ByteCount::from_mib(2));
        assert!((e2.joules() - 2.0 * e1.joules()).abs() < 1e-15);
        // 1 GiB at 60 pJ/B ≈ 64 mJ.
        let e = d.dynamic_energy(ByteCount::from_gib(1)).joules();
        assert!((0.01..0.2).contains(&e), "dram energy/GiB {e} J");
    }

    #[test]
    fn nic_energy_and_idle() {
        let n = NicSpec::ten_gbe();
        assert!(n.idle_power().watts() > 0.0);
        let e = n.dynamic_energy(ByteCount::from_gib(1)).joules();
        assert!(e > 0.0 && e < 1.0, "nic energy/GiB {e} J");
    }

    #[test]
    fn coproc_idle_tax() {
        let m = MachineSpec::commodity_2013();
        let with = m.clone().with_coproc(CoprocSpec::kepler_gpu());
        assert!(with.idle_floor().watts() > m.idle_floor().watts() + 20.0);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = MachineSpec::commodity_2013().with_cores(0);
    }
}
