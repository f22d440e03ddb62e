//! Resource profiles and the dual-objective cost estimator.
//!
//! Every operator in the engine reports *what it did* as a
//! [`ResourceProfile`] (cycles retired, DRAM traffic, NIC traffic, …).
//! The [`CostEstimator`] maps a profile onto a [`MachineSpec`] at a given
//! P-state and produces a [`CostEstimate`] carrying **both** objectives
//! the paper's optimizer must weigh: wall-clock time and energy. This is
//! the kernel of the Fig. 2 reproduction — "flexibly balance query
//! response time minimization and throughput maximization under a given
//! energy constraint".

use crate::machine::MachineSpec;
use crate::meter::{Domain, EnergyMeter};
use crate::pstate::{CState, PStateId};
use crate::units::{ByteCount, Cycles, Joules, Watts};
use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// The resources consumed by one unit of work (an operator invocation, a
/// morsel, a query, a transfer).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceProfile {
    /// CPU core-cycles retired.
    pub cpu_cycles: Cycles,
    /// Bytes read from DRAM (beyond cache).
    pub dram_read: ByteCount,
    /// Bytes written to DRAM.
    pub dram_written: ByteCount,
    /// Bytes pushed through the NIC.
    pub nic_bytes: ByteCount,
    /// Bytes read sequentially from disk.
    pub disk_read: ByteCount,
    /// Number of random disk accesses (seeks).
    pub disk_seeks: u64,
    /// Items processed on the co-processor (0 = no offload).
    pub coproc_items: u64,
    /// Bytes moved over the host↔co-processor link.
    pub coproc_link_bytes: ByteCount,
}

impl ResourceProfile {
    /// An empty profile.
    pub fn new() -> Self {
        ResourceProfile::default()
    }

    /// Convenience constructor for a pure-CPU profile.
    pub fn cpu(cycles: Cycles) -> Self {
        ResourceProfile { cpu_cycles: cycles, ..ResourceProfile::default() }
    }

    /// Convenience constructor for a CPU + DRAM-read profile, the common
    /// shape of a column scan.
    pub fn scan(cycles: Cycles, dram_read: ByteCount) -> Self {
        ResourceProfile { cpu_cycles: cycles, dram_read, ..ResourceProfile::default() }
    }

    /// Returns `true` if nothing was consumed.
    pub fn is_empty(&self) -> bool {
        *self == ResourceProfile::default()
    }

    /// Scales every resource by an integer factor (e.g. repeat count).
    pub fn repeat(&self, n: u64) -> ResourceProfile {
        ResourceProfile {
            cpu_cycles: self.cpu_cycles * n,
            dram_read: self.dram_read * n,
            dram_written: self.dram_written * n,
            nic_bytes: self.nic_bytes * n,
            disk_read: self.disk_read * n,
            disk_seeks: self.disk_seeks * n,
            coproc_items: self.coproc_items * n,
            coproc_link_bytes: self.coproc_link_bytes * n,
        }
    }
}

impl Add for ResourceProfile {
    type Output = ResourceProfile;
    fn add(self, rhs: ResourceProfile) -> ResourceProfile {
        ResourceProfile {
            cpu_cycles: self.cpu_cycles + rhs.cpu_cycles,
            dram_read: self.dram_read + rhs.dram_read,
            dram_written: self.dram_written + rhs.dram_written,
            nic_bytes: self.nic_bytes + rhs.nic_bytes,
            disk_read: self.disk_read + rhs.disk_read,
            disk_seeks: self.disk_seeks + rhs.disk_seeks,
            coproc_items: self.coproc_items + rhs.coproc_items,
            coproc_link_bytes: self.coproc_link_bytes + rhs.coproc_link_bytes,
        }
    }
}

impl AddAssign for ResourceProfile {
    fn add_assign(&mut self, rhs: ResourceProfile) {
        *self = *self + rhs;
    }
}

impl fmt::Display for ResourceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cpu, {} dram-r, {} dram-w, {} nic, {} disk ({} seeks)",
            self.cpu_cycles,
            self.dram_read,
            self.dram_written,
            self.nic_bytes,
            self.disk_read,
            self.disk_seeks
        )
    }
}

/// The execution context a profile is costed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecutionContext {
    /// DVFS state of the cores doing the work.
    pub pstate: PStateId,
    /// Degree of parallelism (cores concurrently working on the profile).
    pub cores: usize,
}

impl ExecutionContext {
    /// Single-core execution at the given P-state.
    pub fn single(pstate: PStateId) -> Self {
        ExecutionContext { pstate, cores: 1 }
    }

    /// Parallel execution on `cores` cores at the given P-state.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is zero.
    pub fn parallel(pstate: PStateId, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        ExecutionContext { pstate, cores }
    }
}

/// Per-domain energy attribution of a [`CostEstimate`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Core dynamic + leakage energy for the busy period.
    pub cpu: Joules,
    /// DRAM static share + dynamic access energy.
    pub dram: Joules,
    /// NIC transfer energy.
    pub nic: Joules,
    /// Disk energy (active share).
    pub disk: Joules,
    /// Co-processor energy (busy power × busy time + link transfer).
    pub coproc: Joules,
}

impl EnergyBreakdown {
    /// Sum of all components.
    pub fn total(&self) -> Joules {
        self.cpu + self.dram + self.nic + self.disk + self.coproc
    }
}

/// The dual-objective result of costing a profile: how long it takes and
/// how many joules it burns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CostEstimate {
    /// Predicted wall-clock time.
    pub time: Duration,
    /// Predicted energy.
    pub energy: Joules,
    /// Attribution per component.
    pub breakdown: EnergyBreakdown,
}

impl CostEstimate {
    /// The energy-delay product of this estimate (lower is better).
    pub fn edp(&self) -> f64 {
        crate::units::energy_delay_product(self.energy, self.time)
    }

    /// Sequential composition: times add, energies add.
    pub fn then(&self, next: &CostEstimate) -> CostEstimate {
        CostEstimate {
            time: self.time + next.time,
            energy: self.energy + next.energy,
            breakdown: EnergyBreakdown {
                cpu: self.breakdown.cpu + next.breakdown.cpu,
                dram: self.breakdown.dram + next.breakdown.dram,
                nic: self.breakdown.nic + next.breakdown.nic,
                disk: self.breakdown.disk + next.breakdown.disk,
                coproc: self.breakdown.coproc + next.breakdown.coproc,
            },
        }
    }

    /// Parallel composition: time is the max, energies add.
    pub fn alongside(&self, other: &CostEstimate) -> CostEstimate {
        CostEstimate {
            time: self.time.max(other.time),
            energy: self.energy + other.energy,
            breakdown: EnergyBreakdown {
                cpu: self.breakdown.cpu + other.breakdown.cpu,
                dram: self.breakdown.dram + other.breakdown.dram,
                nic: self.breakdown.nic + other.breakdown.nic,
                disk: self.breakdown.disk + other.breakdown.disk,
                coproc: self.breakdown.coproc + other.breakdown.coproc,
            },
        }
    }
}

impl fmt::Display for CostEstimate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms / {:.3} J", self.time.as_secs_f64() * 1e3, self.energy.joules())
    }
}

/// Maps resource profiles to `(time, energy)` on a concrete machine.
///
/// ```
/// use haec_energy::machine::MachineSpec;
/// use haec_energy::profile::{CostEstimator, ExecutionContext, ResourceProfile};
/// use haec_energy::units::{ByteCount, Cycles};
///
/// let machine = MachineSpec::commodity_2013();
/// let est = CostEstimator::new(machine);
/// let profile = ResourceProfile::scan(Cycles::new(1_000_000), ByteCount::from_mib(1));
/// let ctx = ExecutionContext::single(est.machine().pstates().fastest());
/// let cost = est.estimate(&profile, ctx);
/// assert!(cost.time.as_nanos() > 0);
/// assert!(cost.energy.joules() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct CostEstimator {
    machine: MachineSpec,
}

impl CostEstimator {
    /// Creates an estimator for `machine`.
    pub fn new(machine: MachineSpec) -> Self {
        CostEstimator { machine }
    }

    /// The machine this estimator costs against.
    pub fn machine(&self) -> &MachineSpec {
        &self.machine
    }

    /// Estimates time and energy for `profile` under `ctx`.
    ///
    /// Timing model (documented so experiments can be interpreted):
    /// * CPU and DRAM stream overlap (roofline): the busy period is the
    ///   max of compute time and memory time.
    /// * Disk, NIC and co-processor link phases serialize with the CPU
    ///   phase (a deliberate first-order simplification).
    /// * `ctx.cores` divides cycle *and* DRAM time (bandwidth shared,
    ///   but scans parallelize across memory channels until the
    ///   machine's bandwidth cap, which the divisor models implicitly).
    ///
    /// Energy model: static power of a component is charged for the time
    /// the component is *held* by this work; dynamic energy is charged
    /// per unit of work. Idle energy of the rest of the machine is *not*
    /// charged here — that is the scheduler's job (it knows what else
    /// runs); see `haec-sched`.
    pub fn estimate(&self, profile: &ResourceProfile, ctx: ExecutionContext) -> CostEstimate {
        let m = &self.machine;
        let ps = m.pstates();
        let cores = ctx.cores.min(m.cores()).max(1) as f64;
        let freq = ps.state(ctx.pstate).frequency();

        // --- busy period: CPU vs DRAM roofline --------------------------
        let cpu_time = if profile.cpu_cycles.count() == 0 {
            0.0
        } else {
            profile.cpu_cycles.count() as f64 / (freq.hertz() * cores)
        };
        let dram_bytes = profile.dram_read + profile.dram_written;
        let dram_time =
            if dram_bytes.bytes() == 0 { 0.0 } else { dram_bytes.bytes() as f64 / m.dram().bandwidth };
        let busy = cpu_time.max(dram_time);

        // --- serialized phases ------------------------------------------
        let nic_time = if profile.nic_bytes.bytes() == 0 {
            0.0
        } else {
            profile.nic_bytes.bytes() as f64 / m.nic().bandwidth
        };
        let (disk_bytes, seeks) = (profile.disk_read.bytes(), profile.disk_seeks);
        let (disk_time, disk_energy) = if disk_bytes > 0 || seeks > 0 {
            let d = m.disk();
            let t = disk_bytes as f64 / d.bandwidth + seeks as f64 * d.seek_s;
            (t, Watts::new(d.active_extra_w) * Duration::from_secs_f64(t))
        } else {
            (0.0, Joules::ZERO)
        };
        let (coproc_time, coproc_energy) =
            match (m.coproc(), profile.coproc_items, profile.coproc_link_bytes.bytes()) {
                (Some(c), items, link) if items > 0 || link > 0 => {
                    let launch = if items > 0 { c.launch_latency_s } else { 0.0 };
                    let work = items as f64 / c.items_per_sec;
                    let xfer = link as f64 / c.link_bandwidth;
                    let t = launch + work + xfer;
                    let busy_e = Watts::new(c.busy_w - c.idle_w) * Duration::from_secs_f64(launch + work);
                    let link_e = Joules::new(link as f64 * c.link_pj_per_byte * 1e-12);
                    (t, busy_e + link_e)
                }
                _ => (0.0, Joules::ZERO),
            };

        let total_time = busy + nic_time + disk_time + coproc_time;

        // --- energy ------------------------------------------------------
        let core_power = ps.core_power(ctx.pstate, CState::Active);
        let cpu_energy = core_power * cores * Duration::from_secs_f64(busy);
        let dram_energy =
            m.dram().dynamic_energy(dram_bytes) + m.dram().static_power() * Duration::from_secs_f64(busy);
        let nic_energy = m.nic().dynamic_energy(profile.nic_bytes);

        let breakdown = EnergyBreakdown {
            cpu: cpu_energy,
            dram: dram_energy,
            nic: nic_energy,
            disk: disk_energy,
            coproc: coproc_energy,
        };
        CostEstimate { time: Duration::from_secs_f64(total_time), energy: breakdown.total(), breakdown }
    }

    /// Estimates and simultaneously charges the energy to `meter`,
    /// advancing its clock — the one-stop call used by the executor after
    /// running an operator for real.
    pub fn charge(
        &self,
        profile: &ResourceProfile,
        ctx: ExecutionContext,
        meter: &mut EnergyMeter,
    ) -> CostEstimate {
        let cost = self.estimate(profile, ctx);
        meter.add(Domain::Cores, cost.breakdown.cpu);
        meter.add(Domain::Dram, cost.breakdown.dram);
        meter.add(Domain::Nic, cost.breakdown.nic);
        meter.add(Domain::Disk, cost.breakdown.disk);
        meter.add(Domain::Coproc, cost.breakdown.coproc);
        meter.advance(cost.time);
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> CostEstimator {
        CostEstimator::new(MachineSpec::commodity_2013())
    }

    #[test]
    fn empty_profile_costs_nothing() {
        let e = est();
        let ctx = ExecutionContext::single(e.machine().pstates().fastest());
        let c = e.estimate(&ResourceProfile::new(), ctx);
        assert_eq!(c.time, Duration::ZERO);
        assert_eq!(c.energy, Joules::ZERO);
    }

    #[test]
    fn cpu_time_scales_with_frequency() {
        let e = est();
        let p = ResourceProfile::cpu(Cycles::new(2_900_000_000));
        let fast = e.estimate(&p, ExecutionContext::single(e.machine().pstates().fastest()));
        let slow = e.estimate(&p, ExecutionContext::single(e.machine().pstates().slowest()));
        // 2.9 GHz vs 1.2 GHz.
        assert!((fast.time.as_secs_f64() - 1.0).abs() < 1e-9);
        assert!(slow.time > fast.time);
        let ratio = slow.time.as_secs_f64() / fast.time.as_secs_f64();
        assert!((ratio - 2.9 / 1.2).abs() < 1e-9);
    }

    #[test]
    fn parallelism_divides_cpu_time() {
        let e = est();
        let p = ResourceProfile::cpu(Cycles::new(1_000_000_000));
        let ps = e.machine().pstates().fastest();
        let one = e.estimate(&p, ExecutionContext::single(ps));
        let four = e.estimate(&p, ExecutionContext::parallel(ps, 4));
        let ratio = one.time.as_secs_f64() / four.time.as_secs_f64();
        assert!((ratio - 4.0).abs() < 1e-6);
    }

    #[test]
    fn cores_clamped_to_machine() {
        let e = est();
        let p = ResourceProfile::cpu(Cycles::new(1_000_000_000));
        let ps = e.machine().pstates().fastest();
        let c8 = e.estimate(&p, ExecutionContext::parallel(ps, 8));
        let c800 = e.estimate(&p, ExecutionContext::parallel(ps, 800));
        assert_eq!(c8.time, c800.time);
    }

    #[test]
    fn roofline_memory_bound() {
        let e = est();
        // Tiny compute, huge memory traffic: memory time dominates.
        let p = ResourceProfile::scan(Cycles::new(1000), ByteCount::from_gib(4));
        let ps = e.machine().pstates().fastest();
        let c = e.estimate(&p, ExecutionContext::single(ps));
        let expected = (4u64 << 30) as f64 / e.machine().dram().bandwidth;
        assert!((c.time.as_secs_f64() - expected).abs() / expected < 1e-6);
    }

    #[test]
    fn race_to_idle_tradeoff_exists() {
        // Core energy per cycle is lower at low frequency, but the busy
        // period is longer so DRAM static energy grows: the estimator
        // must expose both effects.
        let e = est();
        let p = ResourceProfile::cpu(Cycles::new(10_000_000_000));
        let fast = e.estimate(&p, ExecutionContext::single(e.machine().pstates().fastest()));
        let slow = e.estimate(&p, ExecutionContext::single(e.machine().pstates().slowest()));
        assert!(slow.breakdown.cpu < fast.breakdown.cpu, "dynamic CPU energy should fall");
        assert!(slow.breakdown.dram > fast.breakdown.dram, "static DRAM share should rise");
    }

    #[test]
    fn nic_serializes_and_charges() {
        let e = est();
        let p = ResourceProfile { nic_bytes: ByteCount::from_mib(125), ..Default::default() };
        let ps = e.machine().pstates().fastest();
        let c = e.estimate(&p, ExecutionContext::single(ps));
        // 125 MiB over 1.25 GB/s ≈ 0.105 s.
        assert!(c.time.as_secs_f64() > 0.09);
        assert!(c.breakdown.nic.joules() > 0.0);
    }

    #[test]
    fn disk_seeks_cost_time() {
        let e = est();
        let p = ResourceProfile { disk_seeks: 100, ..Default::default() };
        let ps = e.machine().pstates().fastest();
        let c = e.estimate(&p, ExecutionContext::single(ps));
        assert!((c.time.as_secs_f64() - 0.8).abs() < 1e-9);
        assert!(c.breakdown.disk.joules() > 0.0);
    }

    #[test]
    fn coproc_requires_device() {
        let e = est(); // no coproc on default machine
        let p = ResourceProfile { coproc_items: 1_000_000, ..Default::default() };
        let ps = e.machine().pstates().fastest();
        let c = e.estimate(&p, ExecutionContext::single(ps));
        assert_eq!(c.breakdown.coproc, Joules::ZERO);
    }

    #[test]
    fn coproc_offload_costed() {
        use crate::machine::CoprocSpec;
        let m = MachineSpec::commodity_2013().with_coproc(CoprocSpec::kepler_gpu());
        let e = CostEstimator::new(m);
        let p = ResourceProfile {
            coproc_items: 6_000_000_000,
            coproc_link_bytes: ByteCount::from_gib(1),
            ..Default::default()
        };
        let ps = e.machine().pstates().fastest();
        let c = e.estimate(&p, ExecutionContext::single(ps));
        assert!(c.time.as_secs_f64() > 1.0, "1s work + transfer");
        assert!(c.breakdown.coproc.joules() > 100.0, "GPU busy energy");
    }

    #[test]
    fn charge_updates_meter() {
        let e = est();
        let mut meter = EnergyMeter::new();
        let p = ResourceProfile::scan(Cycles::new(1_000_000), ByteCount::from_mib(1));
        let ps = e.machine().pstates().fastest();
        let c = e.charge(&p, ExecutionContext::single(ps), &mut meter);
        assert!((meter.grand_total().joules() - c.energy.joules()).abs() < 1e-12);
        assert_eq!(meter.elapsed(), c.time);
    }

    #[test]
    fn composition_then_alongside() {
        let a = CostEstimate {
            time: Duration::from_millis(10),
            energy: Joules::new(1.0),
            breakdown: EnergyBreakdown { cpu: Joules::new(1.0), ..Default::default() },
        };
        let b = CostEstimate {
            time: Duration::from_millis(30),
            energy: Joules::new(2.0),
            breakdown: EnergyBreakdown { dram: Joules::new(2.0), ..Default::default() },
        };
        let seq = a.then(&b);
        assert_eq!(seq.time, Duration::from_millis(40));
        assert_eq!(seq.energy, Joules::new(3.0));
        let par = a.alongside(&b);
        assert_eq!(par.time, Duration::from_millis(30));
        assert_eq!(par.energy, Joules::new(3.0));
    }

    #[test]
    fn profile_arithmetic() {
        let a = ResourceProfile::cpu(Cycles::new(10));
        let b = ResourceProfile::scan(Cycles::new(5), ByteCount::new(100));
        let s = a + b;
        assert_eq!(s.cpu_cycles, Cycles::new(15));
        assert_eq!(s.dram_read, ByteCount::new(100));
        let r = b.repeat(3);
        assert_eq!(r.cpu_cycles, Cycles::new(15));
        assert_eq!(r.dram_read, ByteCount::new(300));
        assert!(ResourceProfile::new().is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn display_smoke() {
        let c = CostEstimate::default();
        assert!(format!("{c}").contains("ms"));
        let p = ResourceProfile::cpu(Cycles::new(1));
        assert!(format!("{p}").contains("cpu"));
    }
}
