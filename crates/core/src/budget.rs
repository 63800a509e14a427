//! Cleaning budgets.

use crate::{CoreError, Result};
use serde::{Deserialize, Serialize};

/// A cleaning budget `C`: the maximum total cost of the selected set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Budget(pub u64);

impl Budget {
    /// An absolute budget.
    pub fn absolute(c: u64) -> Self {
        Self(c)
    }

    /// A budget expressed as a fraction of a total cost (how the paper's
    /// figures parameterize their sweeps). `frac` is clamped to `[0, 1]`;
    /// a **non-finite** `frac` (NaN, ±∞ beyond the clamp) maps to a zero
    /// budget — `NaN.clamp(0.0, 1.0)` stays NaN and the float→int cast
    /// would silently truncate it to 0 anyway, so the zero is made
    /// explicit and documented here. Use [`Budget::try_fraction`] to
    /// reject non-finite fractions with a typed error instead.
    pub fn fraction(total_cost: u64, frac: f64) -> Self {
        if frac.is_nan() {
            return Self(0);
        }
        let frac = frac.clamp(0.0, 1.0);
        Self((total_cost as f64 * frac).floor() as u64)
    }

    /// [`Budget::fraction`] that rejects non-finite fractions with
    /// [`CoreError::NonFiniteBudgetFraction`] — the serving-path
    /// variant, where a NaN from an upstream computation must not be
    /// silently reinterpreted as "no budget".
    pub fn try_fraction(total_cost: u64, frac: f64) -> Result<Self> {
        if !frac.is_finite() {
            return Err(CoreError::NonFiniteBudgetFraction);
        }
        Ok(Self::fraction(total_cost, frac))
    }

    /// The raw budget value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }

    /// Whether a cost fits within the remaining budget after `spent`.
    #[inline]
    pub fn fits(self, spent: u64, cost: u64) -> bool {
        spent.saturating_add(cost) <= self.0
    }

    /// The complemented budget `C̄ = total − C` used by the Lemma 3.6
    /// mapping (choose what *not* to clean under a cost lower bound).
    pub fn complement(self, total_cost: u64) -> u64 {
        total_cost.saturating_sub(self.0)
    }
}

impl From<u64> for Budget {
    fn from(c: u64) -> Self {
        Self(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_rounds_down_and_clamps() {
        assert_eq!(Budget::fraction(100, 0.25).get(), 25);
        assert_eq!(Budget::fraction(7, 0.5).get(), 3);
        assert_eq!(Budget::fraction(100, -1.0).get(), 0);
        assert_eq!(Budget::fraction(100, 2.0).get(), 100);
    }

    #[test]
    fn fraction_handles_non_finite_explicitly() {
        // NaN maps to an explicit zero budget (documented), infinities
        // clamp like any out-of-range fraction.
        assert_eq!(Budget::fraction(100, f64::NAN).get(), 0);
        assert_eq!(Budget::fraction(100, f64::INFINITY).get(), 100);
        assert_eq!(Budget::fraction(100, f64::NEG_INFINITY).get(), 0);
        // The serving-path variant rejects all of them.
        assert_eq!(Budget::try_fraction(100, 0.5).unwrap().get(), 50);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                Budget::try_fraction(100, bad),
                Err(crate::CoreError::NonFiniteBudgetFraction)
            ));
        }
    }

    #[test]
    fn fits_saturates() {
        let b = Budget::absolute(10);
        assert!(b.fits(4, 6));
        assert!(!b.fits(5, 6));
        assert!(!b.fits(u64::MAX, 1));
    }

    #[test]
    fn complement() {
        assert_eq!(Budget::absolute(30).complement(100), 70);
        assert_eq!(Budget::absolute(200).complement(100), 0);
    }
}
