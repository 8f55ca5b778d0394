//! Exact, saturating path costs.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// A non-negative routing cost with an infinite sentinel.
///
/// The paper's cost structure uses non-negative weights `w(e, λ)` and
/// conversion costs `c_v(λp, λq)`, with `∞` marking unavailable wavelengths
/// or forbidden conversions. `Cost` represents this exactly over `u64`
/// (treat one unit as a milli-cost if fractional weights are needed);
/// addition saturates at [`Cost::INFINITY`], so `∞ + x = ∞` as the model
/// requires and property tests can compare costs exactly.
///
/// # Examples
///
/// ```
/// use wdm_core::Cost;
///
/// let a = Cost::new(3);
/// let b = Cost::new(4);
/// assert_eq!(a + b, Cost::new(7));
/// assert_eq!((a + Cost::INFINITY), Cost::INFINITY);
/// assert!(a < b && b < Cost::INFINITY);
/// assert!(Cost::INFINITY.is_infinite());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cost(u64);

impl Cost {
    /// The zero cost.
    pub const ZERO: Cost = Cost(0);

    /// The infinite sentinel (unavailable wavelength / forbidden
    /// conversion / unreachable destination).
    pub const INFINITY: Cost = Cost(u64::MAX);

    /// Creates a finite cost.
    ///
    /// # Panics
    ///
    /// Panics if `value == u64::MAX` (reserved for [`Cost::INFINITY`]).
    pub fn new(value: u64) -> Self {
        assert!(value != u64::MAX, "u64::MAX is reserved for Cost::INFINITY");
        Cost(value)
    }

    /// Returns `true` for every cost except [`Cost::INFINITY`].
    pub fn is_finite(self) -> bool {
        self.0 != u64::MAX
    }

    /// Returns `true` only for [`Cost::INFINITY`].
    pub fn is_infinite(self) -> bool {
        self.0 == u64::MAX
    }

    /// The underlying value of a finite cost.
    ///
    /// Returns `None` for [`Cost::INFINITY`].
    pub fn value(self) -> Option<u64> {
        if self.is_finite() {
            Some(self.0)
        } else {
            None
        }
    }

    /// Saturating multiplication by a scalar (stays infinite).
    pub fn saturating_mul(self, factor: u64) -> Cost {
        if self.is_infinite() {
            return Cost::INFINITY;
        }
        match self.0.checked_mul(factor) {
            Some(v) if v != u64::MAX => Cost(v),
            _ => Cost::INFINITY,
        }
    }
}

impl From<u64> for Cost {
    fn from(value: u64) -> Self {
        Cost::new(value)
    }
}

impl Add for Cost {
    type Output = Cost;

    fn add(self, rhs: Cost) -> Cost {
        if self.is_infinite() || rhs.is_infinite() {
            Cost::INFINITY
        } else {
            match self.0.checked_add(rhs.0) {
                Some(v) if v != u64::MAX => Cost(v),
                _ => Cost::INFINITY,
            }
        }
    }
}

impl AddAssign for Cost {
    fn add_assign(&mut self, rhs: Cost) {
        *self = *self + rhs;
    }
}

impl Sum for Cost {
    fn sum<I: Iterator<Item = Cost>>(iter: I) -> Cost {
        iter.fold(Cost::ZERO, Add::add)
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_infinite() {
            f.write_str("∞")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addition_saturates_at_infinity() {
        assert_eq!(Cost::new(1) + Cost::new(2), Cost::new(3));
        assert_eq!(Cost::INFINITY + Cost::new(2), Cost::INFINITY);
        assert_eq!(Cost::new(2) + Cost::INFINITY, Cost::INFINITY);
        assert_eq!(Cost::new(u64::MAX - 1) + Cost::new(5), Cost::INFINITY);
    }

    #[test]
    fn ordering_places_infinity_last() {
        let mut v = vec![Cost::INFINITY, Cost::new(3), Cost::ZERO, Cost::new(10)];
        v.sort();
        assert_eq!(
            v,
            vec![Cost::ZERO, Cost::new(3), Cost::new(10), Cost::INFINITY]
        );
    }

    #[test]
    fn sum_of_costs() {
        let total: Cost = [1u64, 2, 3].into_iter().map(Cost::new).sum();
        assert_eq!(total, Cost::new(6));
        let with_inf: Cost = [Cost::new(1), Cost::INFINITY].into_iter().sum();
        assert_eq!(with_inf, Cost::INFINITY);
    }

    #[test]
    fn display() {
        assert_eq!(Cost::new(42).to_string(), "42");
        assert_eq!(Cost::INFINITY.to_string(), "∞");
    }

    #[test]
    fn value_accessor() {
        assert_eq!(Cost::new(7).value(), Some(7));
        assert_eq!(Cost::INFINITY.value(), None);
    }

    #[test]
    fn saturating_mul() {
        assert_eq!(Cost::new(6).saturating_mul(7), Cost::new(42));
        assert_eq!(Cost::INFINITY.saturating_mul(0), Cost::INFINITY);
        assert_eq!(Cost::new(u64::MAX / 2).saturating_mul(3), Cost::INFINITY);
    }

    #[test]
    #[should_panic(expected = "reserved")]
    fn new_rejects_sentinel() {
        Cost::new(u64::MAX);
    }
}
