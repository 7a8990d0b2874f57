//! Physical-unit newtypes.
//!
//! The radio model mixes decibel quantities (path loss, SINR), linear powers,
//! bandwidths, data rates and two resource-counting units: the paper's
//! *Computing Resource Unit* ([`Cru`]) and OFDMA *Radio Resource Block* count
//! ([`RrbCount`]). Monetary amounts use [`Money`]. The newtypes keep the
//! dB-vs-linear and meters-vs-kilometers conversions explicit, which is where
//! reproduction bugs in this kind of simulation usually hide.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! float_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(f64);

        impl $name {
            /// Wraps a raw value in this unit.
            #[must_use]
            pub const fn new(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in this unit.
            #[must_use]
            pub const fn get(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (neither NaN nor ±∞).
            #[must_use]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }
    };
}

float_unit!(
    /// A distance in meters (`d_{i,u}` in the paper is handled in meters;
    /// the path-loss model of Eq. (18) consumes kilometers via
    /// [`Meters::to_kilometers`]).
    Meters,
    "m"
);
float_unit!(
    /// A bandwidth or frequency in hertz (`W_sub`, `W_i`).
    Hertz,
    "Hz"
);
float_unit!(
    /// A data rate in bits per second (`w_u`, `e_{u,i}`).
    BitsPerSec,
    "bit/s"
);
float_unit!(
    /// A power level in dBm (UE transmit power, noise floor).
    Dbm,
    "dBm"
);
float_unit!(
    /// A dimensionless ratio in decibels (path loss, SINR in dB).
    Db,
    "dB"
);
float_unit!(
    /// A monetary amount in abstract currency units (prices `b`, `m_k`,
    /// `m_k^o`, `p_{i,u}` and the SP utilities `W_k`).
    Money,
    "$"
);

impl Meters {
    /// Converts to kilometers (the unit the paper's path-loss formula uses).
    #[must_use]
    pub fn to_kilometers(self) -> f64 {
        self.0 / 1000.0
    }
}

impl Hertz {
    /// Constructs a bandwidth expressed in kilohertz.
    #[must_use]
    pub fn from_khz(khz: f64) -> Self {
        Self(khz * 1e3)
    }

    /// Constructs a bandwidth expressed in megahertz.
    #[must_use]
    pub fn from_mhz(mhz: f64) -> Self {
        Self(mhz * 1e6)
    }
}

impl BitsPerSec {
    /// Constructs a rate expressed in megabits per second.
    #[must_use]
    pub fn from_mbps(mbps: f64) -> Self {
        Self(mbps * 1e6)
    }

    /// Converts to megabits per second.
    #[must_use]
    pub fn to_mbps(self) -> f64 {
        self.0 / 1e6
    }
}

impl Dbm {
    /// Converts this absolute power level to linear milliwatts.
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmra_types::Dbm;
    /// assert!((Dbm::new(0.0).to_milliwatts() - 1.0).abs() < 1e-12);
    /// assert!((Dbm::new(30.0).to_milliwatts() - 1000.0).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn to_milliwatts(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Constructs a power level from linear milliwatts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `mw` is not strictly positive (zero or
    /// negative powers have no dBm representation).
    #[must_use]
    pub fn from_milliwatts(mw: f64) -> Self {
        debug_assert!(mw > 0.0, "power must be positive to express in dBm");
        Self(10.0 * mw.log10())
    }

    /// Attenuates this power by `loss` decibels.
    #[must_use]
    pub fn attenuate(self, loss: Db) -> Self {
        Self(self.0 - loss.get())
    }
}

impl Db {
    /// Converts this ratio to linear scale.
    #[must_use]
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Constructs a decibel ratio from a linear value.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `linear` is not strictly positive.
    #[must_use]
    pub fn from_linear(linear: f64) -> Self {
        debug_assert!(linear > 0.0, "ratio must be positive to express in dB");
        Self(10.0 * linear.log10())
    }
}

impl Neg for Db {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl Neg for Money {
    type Output = Self;
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

macro_rules! count_unit {
    ($(#[$meta:meta])* $name:ident, $suffix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
            Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(u32);

        impl $name {
            /// The zero count.
            pub const ZERO: Self = Self(0);

            /// Wraps a raw count.
            #[must_use]
            pub const fn new(count: u32) -> Self {
                Self(count)
            }

            /// Returns the raw count.
            #[must_use]
            pub const fn get(self) -> u32 {
                self.0
            }

            /// Returns `true` if the count is zero.
            #[must_use]
            pub const fn is_zero(self) -> bool {
                self.0 == 0
            }

            /// Subtracts, saturating at zero instead of wrapping.
            #[must_use]
            pub const fn saturating_sub(self, rhs: Self) -> Self {
                Self(self.0.saturating_sub(rhs.0))
            }

            /// Subtracts, returning `None` when `rhs` exceeds `self`.
            #[must_use]
            pub const fn checked_sub(self, rhs: Self) -> Option<Self> {
                match self.0.checked_sub(rhs.0) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }

            /// Returns the raw count widened to `f64` (used by preference
            /// formulas that mix resource counts with prices).
            #[must_use]
            pub const fn as_f64(self) -> f64 {
                self.0 as f64
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $suffix)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            /// # Panics
            ///
            /// Exactly like `u32` subtraction: panics on underflow in
            /// builds with overflow checks (debug), and wraps without them
            /// (release). Use `checked_sub` where `rhs` may exceed `self`.
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            /// # Panics
            ///
            /// Like [`Sub`]: panics on underflow with overflow checks on,
            /// wraps without them.
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl From<u32> for $name {
            fn from(count: u32) -> Self {
                Self(count)
            }
        }

        impl From<$name> for u32 {
            fn from(count: $name) -> u32 {
                count.0
            }
        }
    };
}

count_unit!(
    /// A number of Computing Resource Units (CRUs).
    ///
    /// The paper's `c_{i,j}` (per-service budget of BS `i`) and `c_j^u`
    /// (demand of UE `u`) are both CRU counts.
    Cru,
    "CRU"
);
count_unit!(
    /// A number of OFDMA Radio Resource Blocks (RRBs).
    ///
    /// The paper's `N_i` (uplink budget of BS `i`) and `n_{u,i}` (demand of
    /// UE `u` at BS `i`, Eq. (3)) are both RRB counts.
    RrbCount,
    "RRB"
);

impl Mul<Cru> for Money {
    type Output = Money;
    /// Scales a per-CRU price by a CRU count, as in Eqs. (6)–(8).
    fn mul(self, rhs: Cru) -> Money {
        Money::new(self.0 * rhs.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn meters_to_kilometers() {
        assert!((Meters::new(1500.0).to_kilometers() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn hertz_constructors() {
        assert_eq!(Hertz::from_khz(180.0).get(), 180_000.0);
        assert_eq!(Hertz::from_mhz(10.0).get(), 10_000_000.0);
    }

    #[test]
    fn bits_per_sec_roundtrip_mbps() {
        let r = BitsPerSec::from_mbps(4.5);
        assert!((r.to_mbps() - 4.5).abs() < 1e-12);
        assert_eq!(r.get(), 4_500_000.0);
    }

    #[test]
    fn dbm_linear_conversions() {
        assert!((Dbm::new(10.0).to_milliwatts() - 10.0).abs() < 1e-9);
        let back = Dbm::from_milliwatts(10.0);
        assert!((back.get() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn dbm_attenuation_subtracts_loss() {
        let rx = Dbm::new(10.0).attenuate(Db::new(121.5));
        assert!((rx.get() - (-111.5)).abs() < 1e-9);
    }

    #[test]
    fn db_linear_roundtrip() {
        let snr = Db::new(6.0);
        assert!((snr.to_linear() - 3.981_071_705_534_972).abs() < 1e-9);
        assert!((Db::from_linear(snr.to_linear()).get() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn counts_saturating_and_checked_sub() {
        let a = Cru::new(3);
        let b = Cru::new(5);
        assert_eq!(a.saturating_sub(b), Cru::ZERO);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Cru::new(2)));
    }

    #[test]
    fn counts_sum_and_arithmetic() {
        let total: RrbCount = (1..=4).map(RrbCount::new).sum();
        assert_eq!(total, RrbCount::new(10));
        let mut n = RrbCount::new(7);
        n -= RrbCount::new(2);
        n += RrbCount::new(1);
        assert_eq!(n.get(), 6);
    }

    #[test]
    fn money_scales_by_cru() {
        let paid = Money::new(2.5) * Cru::new(4);
        assert!((paid.get() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn money_sums_and_negates() {
        let total: Money = [1.0, 2.0, 3.5].iter().map(|&v| Money::new(v)).sum();
        assert!((total.get() - 6.5).abs() < 1e-12);
        assert!(((-total).get() + 6.5).abs() < 1e-12);
    }

    #[test]
    fn display_carries_unit_suffix() {
        assert_eq!(Meters::new(300.0).to_string(), "300m");
        assert_eq!(Cru::new(5).to_string(), "5 CRU");
        assert_eq!(RrbCount::new(2).to_string(), "2 RRB");
    }

    proptest! {
        #[test]
        fn prop_dbm_milliwatt_roundtrip(p in -150.0f64..60.0) {
            let mw = Dbm::new(p).to_milliwatts();
            prop_assert!(mw > 0.0);
            let back = Dbm::from_milliwatts(mw).get();
            prop_assert!((back - p).abs() < 1e-9);
        }

        #[test]
        fn prop_db_monotone_in_linear(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
            let (da, db) = (Db::from_linear(a), Db::from_linear(b));
            prop_assert_eq!(a < b, da < db);
        }

        #[test]
        fn prop_count_sub_add_inverse(a in 0u32..1_000_000, b in 0u32..1_000_000) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            let diff = Cru::new(hi) - Cru::new(lo);
            prop_assert_eq!(diff + Cru::new(lo), Cru::new(hi));
        }
    }
}
