//! DVFS performance states (P-states) and core sleep states (C-states).
//!
//! The paper argues that "energy can be saved, if individual hardware
//! components are turned off to save idle power" (§IV). This module models
//! the two knobs a scheduler has on a 2013-era server CPU:
//!
//! * **P-states** — voltage/frequency pairs. Active power follows the
//!   classic CMOS law `P = C_eff · V² · f + P_leak(V)`.
//! * **C-states** — per-core sleep states from `Active` down to `Parked`
//!   (core power-gated, the paper's "turned off" case).

use crate::units::{Hertz, Volts, Watts};
use std::fmt;

/// One voltage/frequency operating point of a core.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PState {
    frequency: Hertz,
    voltage: Volts,
}

impl PState {
    /// Creates a P-state from a frequency and supply voltage.
    ///
    /// # Panics
    ///
    /// Panics if frequency or voltage is not strictly positive.
    pub fn new(frequency: Hertz, voltage: Volts) -> Self {
        assert!(frequency.hertz() > 0.0, "frequency must be positive");
        assert!(voltage.volts() > 0.0, "voltage must be positive");
        PState { frequency, voltage }
    }

    /// The clock frequency of this state.
    #[inline]
    pub fn frequency(&self) -> Hertz {
        self.frequency
    }

    /// The supply voltage of this state.
    #[inline]
    fn voltage(&self) -> Volts {
        self.voltage
    }
}

impl fmt::Display for PState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz @ {:.2} V", self.frequency.ghz(), self.voltage.volts())
    }
}

/// Index into a [`PStateTable`]. `PStateId(0)` is the *lowest* frequency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PStateId(pub usize);

impl fmt::Display for PStateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Per-core sleep state, ordered from most to least power-hungry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CState {
    /// Core is executing instructions at some P-state.
    #[default]
    Active,
    /// Clock-gated halt (ACPI C1): quickly resumable, still leaking.
    Halt,
    /// Deep sleep (ACPI C6): caches flushed, longer wake latency.
    DeepSleep,
    /// Power-gated ("parked"): near-zero draw, slowest to wake.
    Parked,
}

impl fmt::Display for CState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CState::Active => "active",
            CState::Halt => "halt",
            CState::DeepSleep => "deep-sleep",
            CState::Parked => "parked",
        };
        f.write_str(s)
    }
}

/// The DVFS model of one core: a ladder of P-states plus the CMOS power
/// law constants used to derive active power at each state.
#[derive(Clone, Debug, PartialEq)]
pub struct PStateTable {
    states: Vec<PState>,
    /// Effective switched capacitance term `C_eff` in `P = C_eff·V²·f`.
    ceff: f64,
    /// Leakage power at nominal voltage, scales linearly with voltage.
    leak_at_nominal: Watts,
    nominal_voltage: Volts,
    /// Residual draw per C-state as a fraction of leakage power.
    halt_fraction: f64,
    deep_sleep_fraction: f64,
    parked_fraction: f64,
}

impl PStateTable {
    /// Builds a table from explicit `(frequency, voltage)` operating
    /// points and CMOS constants.
    ///
    /// `states` must be sorted by ascending frequency.
    ///
    /// # Panics
    ///
    /// Panics if `states` is empty or not sorted by ascending frequency.
    pub fn new(states: Vec<PState>, ceff: f64, leak_at_nominal: Watts, nominal_voltage: Volts) -> Self {
        assert!(!states.is_empty(), "at least one P-state is required");
        assert!(
            states.windows(2).all(|w| w[0].frequency() < w[1].frequency()),
            "P-states must be sorted by ascending frequency"
        );
        PStateTable {
            states,
            ceff,
            leak_at_nominal,
            nominal_voltage,
            halt_fraction: 0.30,
            deep_sleep_fraction: 0.10,
            parked_fraction: 0.02,
        }
    }

    /// A ladder modeled on a 2013 Xeon E5 (Sandy/Ivy Bridge era): five
    /// states from 1.2 GHz to 2.9 GHz with voltage scaling, ~4 W leakage
    /// per core and ~10 W/core peak dynamic power.
    ///
    /// The absolute numbers are calibrated against the per-core power
    /// range reported by Tsirogiannis et al. (SIGMOD 2010) for a
    /// comparable server; the reproduction only relies on their shape.
    pub fn xeon_2013() -> Self {
        let pts = [(1.2, 0.80), (1.6, 0.90), (2.0, 0.95), (2.4, 1.00), (2.9, 1.10)];
        let states = pts.iter().map(|&(f, v)| PState::new(Hertz::from_ghz(f), Volts::new(v))).collect();
        // C_eff chosen so the top state draws ~10.2 W dynamic:
        // 2.9e9 Hz * 1.1^2 V^2 * 2.9e-9 ≈ 10.2 W.
        PStateTable::new(states, 2.9e-9, Watts::new(4.0), Volts::new(1.1))
    }

    /// Number of P-states in the ladder.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Returns `true` if the table holds no states (never for public
    /// constructors, provided for `len`/`is_empty` pairing).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The operating point for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn state(&self, id: PStateId) -> PState {
        self.states[id.0]
    }

    /// Returns the state id with the lowest frequency.
    #[inline]
    pub fn slowest(&self) -> PStateId {
        PStateId(0)
    }

    /// Returns the state id with the highest frequency.
    #[inline]
    pub fn fastest(&self) -> PStateId {
        PStateId(self.states.len() - 1)
    }

    /// Iterates over all `(id, state)` pairs, slowest first.
    pub fn iter(&self) -> impl Iterator<Item = (PStateId, PState)> + '_ {
        self.states.iter().enumerate().map(|(i, s)| (PStateId(i), *s))
    }

    /// Dynamic (switching) power of one active core at `id`.
    fn dynamic_power(&self, id: PStateId) -> Watts {
        let s = self.state(id);
        let v = s.voltage().volts();
        Watts::new(self.ceff * v * v * s.frequency().hertz())
    }

    /// Leakage power of one core at the voltage of `id`; approximately
    /// linear in supply voltage.
    fn leakage_power(&self, id: PStateId) -> Watts {
        let v = self.state(id).voltage().volts();
        self.leak_at_nominal * (v / self.nominal_voltage.volts())
    }

    /// Total power of one core in C-state `c`, at P-state `id` when
    /// active.
    pub fn core_power(&self, id: PStateId, c: CState) -> Watts {
        match c {
            CState::Active => self.dynamic_power(id) + self.leakage_power(id),
            CState::Halt => self.leakage_power(id) * self.halt_fraction,
            CState::DeepSleep => self.leakage_power(id) * self.deep_sleep_fraction,
            CState::Parked => self.leakage_power(id) * self.parked_fraction,
        }
    }

    /// The slowest P-state whose frequency is at least `f`, or the
    /// fastest state if none qualifies. This is the "pace" primitive used
    /// by deadline-aware governors.
    pub fn slowest_at_least(&self, f: Hertz) -> PStateId {
        for (id, s) in self.iter() {
            if s.frequency().hertz() >= f.hertz() {
                return id;
            }
        }
        self.fastest()
    }
}

impl Default for PStateTable {
    fn default() -> Self {
        PStateTable::xeon_2013()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_shape() {
        let t = PStateTable::xeon_2013();
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert_eq!(t.slowest(), PStateId(0));
        assert_eq!(t.fastest(), PStateId(4));
    }

    #[test]
    fn dynamic_power_increases_with_frequency() {
        let t = PStateTable::xeon_2013();
        let powers: Vec<f64> = t.iter().map(|(id, _)| t.dynamic_power(id).watts()).collect();
        assert!(powers.windows(2).all(|w| w[0] < w[1]), "{powers:?}");
    }

    #[test]
    fn top_state_power_plausible() {
        let t = PStateTable::xeon_2013();
        let p = t.core_power(t.fastest(), CState::Active).watts();
        // One core of a 2013 server: roughly 8..20 W.
        assert!((8.0..20.0).contains(&p), "core power {p} W out of range");
    }

    #[test]
    fn parked_power_is_tiny() {
        let t = PStateTable::xeon_2013();
        let active = t.core_power(t.fastest(), CState::Active).watts();
        let parked = t.core_power(t.fastest(), CState::Parked).watts();
        assert!(parked < active * 0.02, "parked {parked} vs active {active}");
    }

    #[test]
    fn cstate_ordering_and_latency() {
        assert!(CState::Active < CState::Halt);
        assert!(CState::Halt < CState::DeepSleep);
        assert!(CState::DeepSleep < CState::Parked);
    }

    #[test]
    fn cstate_power_strictly_decreasing() {
        let t = PStateTable::xeon_2013();
        let id = t.fastest();
        let seq = [CState::Active, CState::Halt, CState::DeepSleep, CState::Parked];
        let ps: Vec<f64> = seq.iter().map(|&c| t.core_power(id, c).watts()).collect();
        assert!(ps.windows(2).all(|w| w[0] > w[1]), "{ps:?}");
    }

    #[test]
    fn slowest_at_least_picks_correct_state() {
        let t = PStateTable::xeon_2013();
        let id = t.slowest_at_least(Hertz::from_ghz(1.7));
        assert_eq!(t.state(id).frequency().ghz(), 2.0);
        // Unreachable frequency clamps to fastest.
        let id = t.slowest_at_least(Hertz::from_ghz(9.0));
        assert_eq!(id, t.fastest());
        // Trivially low frequency gives the slowest state.
        let id = t.slowest_at_least(Hertz::from_ghz(0.1));
        assert_eq!(id, t.slowest());
    }

    #[test]
    fn energy_per_cycle_favors_low_frequency_dynamically() {
        // With voltage scaling, energy/cycle should be lower at the
        // slowest state than at the fastest (dynamic term dominates).
        let t = PStateTable::xeon_2013();
        let per_cycle = |id| t.core_power(id, CState::Active).watts() / t.state(id).frequency().hertz();
        let lo = per_cycle(t.slowest());
        let hi = per_cycle(t.fastest());
        assert!(lo < hi, "lo={lo} hi={hi}");
    }

    #[test]
    #[should_panic(expected = "sorted by ascending frequency")]
    fn unsorted_states_panic() {
        let s1 = PState::new(Hertz::from_ghz(2.0), Volts::new(1.0));
        let s2 = PState::new(Hertz::from_ghz(1.0), Volts::new(0.9));
        let _ = PStateTable::new(vec![s1, s2], 1e-9, Watts::new(1.0), Volts::new(1.0));
    }

    #[test]
    #[should_panic(expected = "at least one P-state")]
    fn empty_states_panic() {
        let _ = PStateTable::new(vec![], 1e-9, Watts::new(1.0), Volts::new(1.0));
    }

    #[test]
    fn display_impls() {
        let s = PState::new(Hertz::from_ghz(2.4), Volts::new(1.0));
        assert_eq!(format!("{s}"), "2.40 GHz @ 1.00 V");
        assert_eq!(format!("{}", PStateId(3)), "P3");
        assert_eq!(format!("{}", CState::Parked), "parked");
    }
}
