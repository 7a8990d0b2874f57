//! The BS price rule of Eqs. (9)–(10) and the constraint-(16) validator.

use dmra_types::{Error, Meters, Money, Result, SpSpec};
use serde::{Deserialize, Serialize};

/// Distances below one meter are clamped before exponentiation: `0^σ = 0`
/// would make a co-located BS *cheaper* than the base price, which the
/// model does not intend.
const MIN_PRICE_DISTANCE_M: f64 = 1.0;

/// Constants of the pricing rule.
///
/// The paper fixes `σ = 0.01` and sweeps `ι ∈ {1.1, 2}`; `b` and the SP
/// constants `m_k`, `m_k^o` are never given numerically, so we default them
/// to values satisfying constraint (16) (see DESIGN.md §2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PricingConfig {
    /// `b`: base price of one CRU.
    pub base_price: Money,
    /// `ι`: markup on the computing term when UE and BS belong to
    /// different SPs. Must exceed 1.
    pub cross_sp_markup: f64,
    /// `σ`: exponent of the distance (transmission-cost) term.
    pub distance_exponent: f64,
}

impl PricingConfig {
    /// The defaults used throughout the figures: `b = 2`, `ι = 2`,
    /// `σ = 0.01` (see DESIGN.md §2 for how `b` was chosen).
    #[must_use]
    pub fn paper_defaults() -> Self {
        Self {
            base_price: Money::new(2.0),
            cross_sp_markup: 2.0,
            distance_exponent: 0.01,
        }
    }

    /// Returns a copy with a different `ι` (the knob Figs. 2–5 sweep).
    #[must_use]
    pub fn with_markup(mut self, iota: f64) -> Self {
        self.cross_sp_markup = iota;
        self
    }

    /// Checks the structural requirements: `b > 0`, `ι > 1`, `σ ≥ 0`; a
    /// NaN fails each of them. Every price is then at least `2b > 0`,
    /// which the DMRA solver's Eq. (17) keys rely on.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<()> {
        if self.base_price.get().is_nan() || self.base_price.get() <= 0.0 {
            return Err(Error::InvalidConfig(format!(
                "base price b must be positive, got {}",
                self.base_price
            )));
        }
        if self.cross_sp_markup.is_nan() || self.cross_sp_markup <= 1.0 {
            return Err(Error::InvalidConfig(format!(
                "cross-SP markup ι must exceed 1, got {}",
                self.cross_sp_markup
            )));
        }
        if self.distance_exponent.is_nan() || self.distance_exponent < 0.0 {
            return Err(Error::InvalidConfig(format!(
                "distance exponent σ must be non-negative, got {}",
                self.distance_exponent
            )));
        }
        Ok(())
    }

    /// `p_{i,u}`: the per-CRU price BS `i` charges for UE `u`
    /// (Eqs. (9)–(10)).
    ///
    /// # Examples
    ///
    /// ```
    /// # use dmra_econ::PricingConfig;
    /// # use dmra_types::Meters;
    /// let p = PricingConfig::paper_defaults();
    /// let same = p.bs_cru_price(true, Meters::new(300.0));
    /// // b + 300^0.01·b ≈ 2 + 2.1174 = 4.1174
    /// assert!((same.get() - 4.1174).abs() < 1e-3);
    /// let cross = p.bs_cru_price(false, Meters::new(300.0));
    /// // ι·b + 300^0.01·b ≈ 4 + 2.1174 = 6.1174
    /// assert!((cross.get() - 6.1174).abs() < 1e-3);
    /// ```
    #[must_use]
    pub fn bs_cru_price(&self, same_sp: bool, distance: Meters) -> Money {
        let b = self.base_price.get();
        let computing = if same_sp { b } else { self.cross_sp_markup * b };
        let d = distance.get().max(MIN_PRICE_DISTANCE_M);
        let transmission = d.powf(self.distance_exponent) * b;
        Money::new(computing + transmission)
    }

    /// The most any BS can charge within `max_distance`: the cross-SP price
    /// at the longest possible link.
    #[must_use]
    pub fn worst_case_price(&self, max_distance: Meters) -> Money {
        self.bs_cru_price(false, max_distance)
    }

    /// Validates constraint (16) — `m_k > p_{i,u} + m_k^o` for every SP
    /// `k` and every price reachable within `max_distance`. A NaN margin
    /// or price fails it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnprofitablePricing`] naming the first SP whose
    /// margin is insufficient.
    pub fn validate_margin(&self, sps: &[SpSpec], max_distance: Meters) -> Result<()> {
        let worst = self.worst_case_price(max_distance);
        for sp in sps {
            if sp.gross_margin().partial_cmp(&worst) != Some(std::cmp::Ordering::Greater) {
                return Err(Error::UnprofitablePricing {
                    sp: sp.id,
                    detail: format!(
                        "worst-case BS price {worst} at {max_distance} \
                         but m_k - m_k^o = {}",
                        sp.gross_margin()
                    ),
                });
            }
        }
        Ok(())
    }
}

impl Default for PricingConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmra_types::SpId;
    use proptest::prelude::*;

    #[test]
    fn same_sp_is_always_cheaper() {
        let p = PricingConfig::paper_defaults();
        for d in [1.0, 50.0, 300.0, 1200.0] {
            let d = Meters::new(d);
            assert!(p.bs_cru_price(true, d) < p.bs_cru_price(false, d));
        }
    }

    #[test]
    fn price_difference_is_exactly_the_markup() {
        let p = PricingConfig::paper_defaults();
        let d = Meters::new(420.0);
        let gap = p.bs_cru_price(false, d) - p.bs_cru_price(true, d);
        // (ι − 1)·b = 2.0
        assert!((gap.get() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_iota_shrinks_cross_sp_penalty() {
        let hi = PricingConfig::paper_defaults(); // ι = 2
        let lo = PricingConfig::paper_defaults().with_markup(1.1);
        let d = Meters::new(300.0);
        assert!(lo.bs_cru_price(false, d) < hi.bs_cru_price(false, d));
        assert_eq!(lo.bs_cru_price(true, d), hi.bs_cru_price(true, d));
    }

    #[test]
    fn price_grows_with_distance() {
        let p = PricingConfig::paper_defaults();
        let near = p.bs_cru_price(true, Meters::new(10.0));
        let far = p.bs_cru_price(true, Meters::new(1000.0));
        assert!(far > near);
    }

    #[test]
    fn zero_distance_is_clamped() {
        let p = PricingConfig::paper_defaults();
        assert_eq!(
            p.bs_cru_price(true, Meters::new(0.0)),
            p.bs_cru_price(true, Meters::new(1.0))
        );
    }

    #[test]
    fn validate_rejects_bad_constants() {
        let mut p = PricingConfig::paper_defaults();
        p.cross_sp_markup = 1.0;
        assert!(p.validate().is_err());
        let mut p = PricingConfig::paper_defaults();
        p.base_price = Money::new(0.0);
        assert!(p.validate().is_err());
        let mut p = PricingConfig::paper_defaults();
        p.distance_exponent = -0.5;
        assert!(p.validate().is_err());
        // NaN fails every check instead of slipping past a `<=` test.
        for field in 0..3 {
            let mut p = PricingConfig::paper_defaults();
            match field {
                0 => p.base_price = Money::new(f64::NAN),
                1 => p.cross_sp_markup = f64::NAN,
                _ => p.distance_exponent = f64::NAN,
            }
            assert!(p.validate().is_err(), "NaN field #{field} passed");
        }
        assert!(PricingConfig::paper_defaults().validate().is_ok());
    }

    #[test]
    fn margin_validation_accepts_paper_defaults() {
        let sps = vec![SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0))];
        let p = PricingConfig::paper_defaults();
        assert!(p.validate_margin(&sps, Meters::new(1700.0)).is_ok());
    }

    #[test]
    fn margin_validation_rejects_thin_margin() {
        let sps = vec![SpSpec::new(SpId::new(3), Money::new(3.0), Money::new(1.0))];
        let p = PricingConfig::paper_defaults();
        let err = p.validate_margin(&sps, Meters::new(1700.0)).unwrap_err();
        assert!(err.to_string().contains("sp3"), "{err}");
    }

    #[test]
    fn margin_validation_rejects_nan() {
        let nan_margin = vec![SpSpec::new(
            SpId::new(0),
            Money::new(f64::NAN),
            Money::new(1.0),
        )];
        let p = PricingConfig::paper_defaults();
        assert!(p.validate_margin(&nan_margin, Meters::new(300.0)).is_err());
        let sps = vec![SpSpec::new(SpId::new(0), Money::new(10.0), Money::new(1.0))];
        let nan_price = PricingConfig {
            distance_exponent: f64::NAN,
            ..p
        };
        assert!(nan_price.validate_margin(&sps, Meters::new(300.0)).is_err());
    }

    proptest! {
        #[test]
        fn prop_cross_sp_never_cheaper(
            d in 0.0f64..5000.0,
            iota in 1.01f64..10.0,
            sigma in 0.0f64..1.0,
        ) {
            let p = PricingConfig {
                base_price: Money::new(1.0),
                cross_sp_markup: iota,
                distance_exponent: sigma,
            };
            let d = Meters::new(d);
            prop_assert!(p.bs_cru_price(false, d) > p.bs_cru_price(true, d));
        }

        #[test]
        fn prop_price_monotone_in_distance(
            d1 in 1.0f64..5000.0,
            d2 in 1.0f64..5000.0,
        ) {
            let p = PricingConfig::paper_defaults();
            if d1 <= d2 {
                prop_assert!(
                    p.bs_cru_price(true, Meters::new(d1))
                        <= p.bs_cru_price(true, Meters::new(d2))
                );
            }
        }
    }
}
