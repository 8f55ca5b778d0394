//! Per-node wavelength-conversion cost functions `c_v(λp, λq)`.

use crate::{Cost, Wavelength};

/// A node's wavelength-conversion capability and cost function.
///
/// Models the paper's cost factors `c_v(λp, λq)`: `0` when `p = q`, `∞`
/// when the conversion is unavailable at `v`, and an arbitrary non-negative
/// cost otherwise. The enum covers the converter designs the WDM literature
/// considers; the [`ConversionPolicy::Matrix`] variant expresses the
/// paper's fully general node- and wavelength-dependent cost.
///
/// # Examples
///
/// ```
/// use wdm_core::{ConversionPolicy, Cost, Wavelength};
///
/// let uniform = ConversionPolicy::Uniform(Cost::new(5));
/// let (a, b) = (Wavelength::new(0), Wavelength::new(3));
/// assert_eq!(uniform.cost(a, a), Cost::ZERO);
/// assert_eq!(uniform.cost(a, b), Cost::new(5));
///
/// let banded = ConversionPolicy::Banded { radius: 2, base: Cost::new(1), slope: Cost::new(2) };
/// assert_eq!(banded.cost(a, Wavelength::new(2)), Cost::new(5)); // 1 + 2·2
/// assert_eq!(banded.cost(a, b), Cost::INFINITY);                // |0-3| > 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConversionPolicy {
    /// No converter: only `λ → λ` pass-through is possible.
    Forbidden,
    /// A full-range converter with zero cost.
    Free,
    /// A full-range converter with a fixed per-conversion cost.
    Uniform(Cost),
    /// A limited-range converter: `λp → λq` is possible iff
    /// `|p - q| <= radius`, costing `base + slope·|p - q|`.
    Banded {
        /// Maximum spectral distance the converter can bridge.
        radius: usize,
        /// Fixed cost of any conversion.
        base: Cost,
        /// Additional cost per unit of spectral distance.
        slope: Cost,
    },
    /// Fully general per-pair costs (the paper's `c_v`).
    Matrix(ConversionMatrix),
}

impl Default for ConversionPolicy {
    /// Defaults to [`ConversionPolicy::Forbidden`] (no converter), the
    /// cheapest node hardware.
    fn default() -> Self {
        ConversionPolicy::Forbidden
    }
}

impl ConversionPolicy {
    /// The conversion cost `c_v(from, to)`.
    ///
    /// Always `Cost::ZERO` when `from == to` (the paper's
    /// `c_v(λp, λp) = 0`), regardless of the policy.
    pub fn cost(&self, from: Wavelength, to: Wavelength) -> Cost {
        if from == to {
            return Cost::ZERO;
        }
        match self {
            ConversionPolicy::Forbidden => Cost::INFINITY,
            ConversionPolicy::Free => Cost::ZERO,
            ConversionPolicy::Uniform(c) => *c,
            ConversionPolicy::Banded {
                radius,
                base,
                slope,
            } => {
                let d = from.distance(to);
                if d <= *radius {
                    *base + slope.saturating_mul(d as u64)
                } else {
                    Cost::INFINITY
                }
            }
            ConversionPolicy::Matrix(m) => m.cost(from, to),
        }
    }

    /// Returns `true` if the conversion `from → to` is possible
    /// (finite cost).
    pub fn allows(&self, from: Wavelength, to: Wavelength) -> bool {
        self.cost(from, to).is_finite()
    }

    /// The one cost of every conversion `λ → λ' ≠ λ` when the node has
    /// a full-range converter with a single finite cost (`Free` or a
    /// finite `Uniform(c)`), else `None`: the policies whose gadget the
    /// targeted search reads as one block.
    pub(crate) fn uniform_cost(&self) -> Option<Cost> {
        match self {
            ConversionPolicy::Free => Some(Cost::ZERO),
            ConversionPolicy::Uniform(c) if c.is_finite() => Some(*c),
            _ => None,
        }
    }

    /// The number of pairs in `from × to` that [`allows`](Self::allows):
    /// a node's conversion-gadget edge count, with `from` and `to` its
    /// sorted `Λ_in` and `Λ_out`. Only `Banded` and `Matrix` look at each
    /// pair; the other policies allow all pairs or only `λ → λ`.
    pub(crate) fn allowed_pairs(&self, from: &[Wavelength], to: &[Wavelength]) -> usize {
        match self {
            ConversionPolicy::Free => from.len() * to.len(),
            ConversionPolicy::Uniform(c) if c.is_finite() => from.len() * to.len(),
            // Only the pass-through pairs `λ → λ`.
            ConversionPolicy::Forbidden | ConversionPolicy::Uniform(_) => {
                from.iter().filter(|w| to.binary_search(w).is_ok()).count()
            }
            ConversionPolicy::Banded { .. } | ConversionPolicy::Matrix(_) => from
                .iter()
                .map(|&p| to.iter().filter(|&&q| self.allows(p, q)).count())
                .sum(),
        }
    }
}

/// A dense `k × k` matrix of conversion costs for one node.
///
/// Entry `(p, q)` is `c_v(λp, λq)`; the diagonal is forced to zero and
/// off-diagonal entries default to [`Cost::INFINITY`] until set.
///
/// # Examples
///
/// ```
/// use wdm_core::{ConversionMatrix, Cost, Wavelength};
///
/// let mut m = ConversionMatrix::forbidden(3);
/// m.set(Wavelength::new(0), Wavelength::new(1), Cost::new(4));
/// assert_eq!(m.cost(Wavelength::new(0), Wavelength::new(1)), Cost::new(4));
/// assert_eq!(m.cost(Wavelength::new(1), Wavelength::new(0)), Cost::INFINITY);
/// assert_eq!(m.cost(Wavelength::new(2), Wavelength::new(2)), Cost::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConversionMatrix {
    k: usize,
    /// Row-major `k × k` costs; the diagonal is ignored (always zero).
    costs: Vec<Cost>,
}

impl ConversionMatrix {
    /// A matrix where every off-diagonal conversion is forbidden.
    pub fn forbidden(k: usize) -> Self {
        Self::filled(k, Cost::INFINITY)
    }

    /// A matrix where every conversion costs `uniform`.
    pub fn uniform(k: usize, uniform: Cost) -> Self {
        Self::filled(k, uniform)
    }

    /// Fills every off-diagonal cell with `value`; the diagonal is stored
    /// as zero so that structurally equal matrices compare equal.
    fn filled(k: usize, value: Cost) -> Self {
        let mut costs = vec![value; k * k];
        debug_assert!(costs.len() == k * k, "conversion matrix is k x k");
        for i in 0..k {
            costs[i * k + i] = Cost::ZERO;
        }
        ConversionMatrix { k, costs }
    }

    /// Universe size `k`.
    pub fn universe(&self) -> usize {
        self.k
    }

    /// Sets `c_v(from, to) = cost`.
    ///
    /// # Panics
    ///
    /// Panics if either wavelength is outside the universe, or if
    /// `from == to` with a non-zero cost (the model fixes the diagonal at
    /// zero).
    pub fn set(&mut self, from: Wavelength, to: Wavelength, cost: Cost) {
        assert!(
            from.index() < self.k && to.index() < self.k,
            "wavelength outside universe"
        );
        if from == to {
            assert_eq!(
                cost,
                Cost::ZERO,
                "diagonal conversion cost is fixed at zero"
            );
            return;
        }
        self.costs[from.index() * self.k + to.index()] = cost;
    }

    /// Reads `c_v(from, to)` (zero on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if either wavelength is outside the universe.
    pub fn cost(&self, from: Wavelength, to: Wavelength) -> Cost {
        assert!(
            from.index() < self.k && to.index() < self.k,
            "wavelength outside universe"
        );
        if from == to {
            Cost::ZERO
        } else {
            self.costs[from.index() * self.k + to.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(i: usize) -> Wavelength {
        Wavelength::new(i)
    }

    #[allow(non_snake_case)]
    fn A() -> Wavelength {
        w(0)
    }
    #[allow(non_snake_case)]
    fn B() -> Wavelength {
        w(1)
    }
    #[allow(non_snake_case)]
    fn C() -> Wavelength {
        w(2)
    }

    #[test]
    fn forbidden_only_passes_through() {
        let p = ConversionPolicy::Forbidden;
        assert_eq!(p.cost(A(), A()), Cost::ZERO);
        assert_eq!(p.cost(A(), B()), Cost::INFINITY);
        assert!(!p.allows(A(), B()));
        assert!(p.allows(A(), A()));
    }

    #[test]
    fn free_and_uniform() {
        assert_eq!(ConversionPolicy::Free.cost(A(), B()), Cost::ZERO);
        assert_eq!(
            ConversionPolicy::Uniform(Cost::new(9)).cost(A(), B()),
            Cost::new(9)
        );
        assert_eq!(
            ConversionPolicy::Uniform(Cost::new(9)).cost(B(), B()),
            Cost::ZERO
        );
    }

    #[test]
    fn banded_respects_radius_and_slope() {
        let p = ConversionPolicy::Banded {
            radius: 1,
            base: Cost::new(2),
            slope: Cost::new(3),
        };
        assert_eq!(p.cost(A(), B()), Cost::new(5));
        assert_eq!(p.cost(B(), A()), Cost::new(5));
        assert_eq!(p.cost(A(), C()), Cost::INFINITY);
        assert_eq!(p.cost(C(), C()), Cost::ZERO);
    }

    #[test]
    fn matrix_is_directional() {
        let mut m = ConversionMatrix::forbidden(3);
        m.set(A(), C(), Cost::new(7));
        let p = ConversionPolicy::Matrix(m);
        assert_eq!(p.cost(A(), C()), Cost::new(7));
        assert_eq!(p.cost(C(), A()), Cost::INFINITY);
    }

    #[test]
    fn matrix_uniform_constructor() {
        let m = ConversionMatrix::uniform(2, Cost::new(1));
        assert_eq!(m.cost(A(), B()), Cost::new(1));
        assert_eq!(m.cost(A(), A()), Cost::ZERO);
        assert_eq!(m.universe(), 2);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn matrix_rejects_nonzero_diagonal() {
        let mut m = ConversionMatrix::forbidden(2);
        m.set(A(), A(), Cost::new(1));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn matrix_bounds_checked() {
        let m = ConversionMatrix::forbidden(2);
        m.cost(A(), C());
    }

    #[test]
    fn allowed_pairs_counts_the_finite_costs() {
        let mut m = ConversionMatrix::forbidden(4);
        m.set(A(), C(), Cost::new(7));
        m.set(w(3), A(), Cost::new(1));
        let policies = [
            ConversionPolicy::Forbidden,
            ConversionPolicy::Free,
            ConversionPolicy::Uniform(Cost::new(3)),
            ConversionPolicy::Uniform(Cost::INFINITY),
            ConversionPolicy::Banded {
                radius: 1,
                base: Cost::new(1),
                slope: Cost::new(1),
            },
            ConversionPolicy::Matrix(m),
        ];
        let from = [A(), B(), w(3)];
        let to = [A(), C(), w(3)];
        for p in &policies {
            let brute = from
                .iter()
                .map(|&f| to.iter().filter(|&&t| p.allows(f, t)).count())
                .sum::<usize>();
            assert_eq!(p.allowed_pairs(&from, &to), brute, "{p:?}");
        }
        assert_eq!(ConversionPolicy::Forbidden.allowed_pairs(&from, &to), 2);
        assert_eq!(ConversionPolicy::Free.allowed_pairs(&from, &[]), 0);
    }

    #[test]
    fn default_is_forbidden() {
        assert_eq!(ConversionPolicy::default(), ConversionPolicy::Forbidden);
    }
}
