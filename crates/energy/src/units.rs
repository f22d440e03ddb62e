//! Physical-unit newtypes used throughout the energy model.
//!
//! Following C-NEWTYPE, quantities that would otherwise all be `f64`
//! (energy, power, frequency, voltage) get distinct types so that a
//! [`Joules`] value can never be accidentally fed where [`Watts`] is
//! expected. Arithmetic between the types follows physics:
//! `Watts * Duration = Joules`, `Joules / Duration = Watts`, and so on.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};
use std::time::Duration;

macro_rules! unit_f64 {
    ($(#[$doc:meta])* $name:ident, $unit:literal, $accessor:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a new quantity from a raw value in base units.
            ///
            /// # Panics
            ///
            /// Panics (debug builds only) if `value` is NaN; unit
            /// quantities must stay totally ordered for cost comparison.
            #[inline]
            pub fn new(value: f64) -> Self {
                debug_assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                $name(value)
            }

            /// Returns the raw value in base units.
            #[inline]
            pub fn $accessor(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                if self.0 >= other.0 { self } else { other }
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                if self.0 <= other.0 { self } else { other }
            }

            /// Returns `true` if the value is a finite number.
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                iter.fold($name::ZERO, Add::add)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{:.3} {}", self.0, $unit)
                }
            }
        }
    };
}

unit_f64!(
    /// An amount of energy in joules.
    ///
    /// ```
    /// use haec_energy::units::{Joules, Watts};
    /// use std::time::Duration;
    /// let e = Watts::new(40.0) * Duration::from_millis(500);
    /// assert_eq!(e, Joules::new(20.0));
    /// ```
    Joules, "J", joules
);
unit_f64!(
    /// Electrical power in watts.
    ///
    /// ```
    /// use haec_energy::units::Watts;
    /// let total = Watts::new(35.0) + Watts::new(4.5);
    /// assert!((total.watts() - 39.5).abs() < 1e-12);
    /// ```
    Watts, "W", watts
);
unit_f64!(
    /// A clock frequency in hertz.
    ///
    /// ```
    /// use haec_energy::units::Hertz;
    /// assert_eq!(Hertz::from_ghz(2.0).hertz(), 2.0e9);
    /// ```
    Hertz, "Hz", hertz
);
unit_f64!(
    /// A supply voltage in volts.
    ///
    /// ```
    /// use haec_energy::units::Volts;
    /// assert_eq!(Volts::new(1.1).volts(), 1.1);
    /// ```
    Volts, "V", volts
);

impl Joules {
    /// Returns the energy in watt-hours (data-center billing unit).
    #[inline]
    pub fn watt_hours(self) -> f64 {
        self.joules() / 3600.0
    }
}

impl Hertz {
    /// Creates a frequency from gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Hertz::new(ghz * 1e9)
    }

    /// Returns the frequency in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.hertz() * 1e-9
    }
}

impl Mul<Duration> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Duration) -> Joules {
        Joules::new(self.watts() * rhs.as_secs_f64())
    }
}

impl Mul<Watts> for Duration {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        rhs * self
    }
}

impl Div<Duration> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Duration) -> Watts {
        Watts::new(self.joules() / rhs.as_secs_f64())
    }
}

impl Div<Watts> for Joules {
    /// Energy divided by power yields the time the power must be sustained.
    type Output = Duration;
    #[inline]
    fn div(self, rhs: Watts) -> Duration {
        Duration::from_secs_f64(self.joules() / rhs.watts())
    }
}

/// A count of CPU core-cycles.
///
/// Kept as an integer type because cycle counts originate from counters and
/// per-item cost constants; converting to time requires a [`Hertz`]
/// frequency via [`Cycles::at`].
///
/// ```
/// use haec_energy::units::{Cycles, Hertz};
/// let t = Cycles::new(3_000_000).at(Hertz::from_ghz(3.0));
/// assert_eq!(t.as_micros(), 1_000);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(u64);

impl Cycles {
    /// The zero cycle count.
    pub const ZERO: Cycles = Cycles(0);

    /// Creates a cycle count.
    #[inline]
    pub fn new(cycles: u64) -> Self {
        Cycles(cycles)
    }

    /// Returns the raw cycle count.
    #[inline]
    pub fn count(self) -> u64 {
        self.0
    }

    /// Time taken to retire this many cycles at frequency `f` on one core.
    #[inline]
    pub fn at(self, f: Hertz) -> Duration {
        Duration::from_secs_f64(self.0 as f64 / f.hertz())
    }

    /// Saturating addition of two cycle counts.
    #[inline]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

/// A byte count flowing through a component (DRAM, NIC, disk).
///
/// ```
/// use haec_energy::units::ByteCount;
/// let b = ByteCount::from_mib(2);
/// assert_eq!(b.bytes(), 2 * 1024 * 1024);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteCount(u64);

impl ByteCount {
    /// The zero byte count.
    pub const ZERO: ByteCount = ByteCount(0);

    /// Creates a byte count.
    #[inline]
    pub fn new(bytes: u64) -> Self {
        ByteCount(bytes)
    }

    /// Creates a byte count from kibibytes.
    #[inline]
    pub fn from_kib(kib: u64) -> Self {
        ByteCount(kib * 1024)
    }

    /// Creates a byte count from mebibytes.
    #[inline]
    pub fn from_mib(mib: u64) -> Self {
        ByteCount(mib * 1024 * 1024)
    }

    /// Creates a byte count from gibibytes.
    #[inline]
    pub fn from_gib(gib: u64) -> Self {
        ByteCount(gib * 1024 * 1024 * 1024)
    }

    /// Returns the raw number of bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.0
    }

    /// Returns the size in mebibytes as a float.
    #[inline]
    pub fn mib(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating addition of two byte counts.
    #[inline]
    pub fn saturating_add(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0.saturating_add(rhs.0))
    }
}

impl Add for ByteCount {
    type Output = ByteCount;
    #[inline]
    fn add(self, rhs: ByteCount) -> ByteCount {
        ByteCount(self.0 + rhs.0)
    }
}

impl AddAssign for ByteCount {
    #[inline]
    fn add_assign(&mut self, rhs: ByteCount) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for ByteCount {
    type Output = ByteCount;
    #[inline]
    fn mul(self, rhs: u64) -> ByteCount {
        ByteCount(self.0 * rhs)
    }
}

impl Sum for ByteCount {
    fn sum<I: Iterator<Item = ByteCount>>(iter: I) -> ByteCount {
        iter.fold(ByteCount::ZERO, Add::add)
    }
}

impl fmt::Display for ByteCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if b >= 1024.0 * 1024.0 * 1024.0 {
            write!(f, "{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
        } else if b >= 1024.0 * 1024.0 {
            write!(f, "{:.2} MiB", b / (1024.0 * 1024.0))
        } else if b >= 1024.0 {
            write!(f, "{:.2} KiB", b / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// Energy-Delay Product, the classic combined efficiency metric.
///
/// Lower is better; used by the experiment harness to rank plans that
/// trade response time against energy (paper §IV, Fig. 2).
#[inline]
pub fn energy_delay_product(energy: Joules, delay: Duration) -> f64 {
    energy.joules() * delay.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watts_times_duration_is_joules() {
        let e = Watts::new(100.0) * Duration::from_secs(2);
        assert_eq!(e, Joules::new(200.0));
        let e2 = Duration::from_millis(250) * Watts::new(8.0);
        assert_eq!(e2, Joules::new(2.0));
    }

    #[test]
    fn joules_over_duration_is_watts() {
        let p = Joules::new(50.0) / Duration::from_secs(5);
        assert_eq!(p, Watts::new(10.0));
    }

    #[test]
    fn joules_over_watts_is_duration() {
        let t = Joules::new(90.0) / Watts::new(45.0);
        assert_eq!(t, Duration::from_secs(2));
    }

    #[test]
    fn unit_ratio_is_dimensionless() {
        assert_eq!(Joules::new(10.0) / Joules::new(4.0), 2.5);
    }

    #[test]
    fn cycles_at_frequency() {
        let t = Cycles::new(2_000_000_000).at(Hertz::from_ghz(2.0));
        assert_eq!(t, Duration::from_secs(1));
    }

    #[test]
    fn cycles_sum_and_mul() {
        let total: Cycles = [Cycles::new(1), Cycles::new(2), Cycles::new(3)].into_iter().sum();
        assert_eq!(total, Cycles::new(6));
        assert_eq!(Cycles::new(5) * 3, Cycles::new(15));
    }

    #[test]
    fn byte_count_constructors() {
        assert_eq!(ByteCount::from_kib(1).bytes(), 1024);
        assert_eq!(ByteCount::from_mib(1).bytes(), 1 << 20);
        assert_eq!(ByteCount::from_gib(1).bytes(), 1 << 30);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Joules::new(1.5)), "1.500 J");
        assert_eq!(format!("{:.1}", Watts::new(2.25)), "2.2 W");
        assert_eq!(format!("{}", ByteCount::new(512)), "512 B");
        assert_eq!(format!("{}", ByteCount::from_kib(2)), "2.00 KiB");
        assert_eq!(format!("{}", ByteCount::from_mib(3)), "3.00 MiB");
        assert_eq!(format!("{}", ByteCount::from_gib(4)), "4.00 GiB");
        assert_eq!(format!("{}", Cycles::new(7)), "7 cycles");
    }

    #[test]
    fn watt_hours() {
        assert!((Joules::new(3600.0).watt_hours() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn min_max() {
        let a = Watts::new(1.0);
        let b = Watts::new(2.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn edp_metric() {
        let edp = energy_delay_product(Joules::new(10.0), Duration::from_secs(2));
        assert_eq!(edp, 20.0);
    }
}
