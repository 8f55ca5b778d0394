//! The paper's Restrictions 1–2 and the Theorem-2 node-simplicity
//! guarantee.
//!
//! Without extra assumptions, an optimal semilightpath may pass through a
//! physical node several times on different wavelengths (the paper's
//! Figs. 5–6). Theorem 2 shows this cannot happen when:
//!
//! * **Restriction 1** — at every node `v`, every conversion from a
//!   receivable wavelength (`λp ∈ Λ_in(G, v)`) to a transmittable one
//!   (`λq ∈ Λ_out(G, v)`) is defined (finite cost); and
//! * **Restriction 2** — the most expensive such conversion is strictly
//!   cheaper than the cheapest link traversal.
//!
//! [`theorem2_applies`] checks both; the E7 experiment and the
//! `tests/theorem2.rs` property suite verify the implication empirically.
//!
//! [`theorem2_applies`]: crate::restrictions::theorem2_applies

use crate::{Cost, WdmNetwork};

/// Checks Restriction 1: for every node `v`, `c_v(λp, λq)` is finite for
/// all `λp ∈ Λ_in(G, v)` and `λq ∈ Λ_out(G, v)`.
///
/// # Examples
///
/// ```
/// use wdm_core::{restrictions, ConversionPolicy, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = WdmNetwork::builder(g, 2)
///     .link_wavelengths(0, [(0, 10)])
///     .link_wavelengths(1, [(1, 10)])
///     .uniform_conversion(ConversionPolicy::Free)
///     .build()?;
/// assert!(restrictions::satisfies_restriction1(&net));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn satisfies_restriction1(network: &WdmNetwork) -> bool {
    for v in network.graph().nodes() {
        let lin = network.lambda_in(v);
        let lout = network.lambda_out(v);
        for p in lin.iter() {
            for q in lout.iter() {
                if network.conversion_cost(v, p, q).is_infinite() {
                    return false;
                }
            }
        }
    }
    true
}

/// The maximum conversion cost over the Restriction-1 domain
/// (`v, λp ∈ Λ_in(G, v), λq ∈ Λ_out(G, v)` with `λp ≠ λq`), or `None` when
/// no node ever needs to convert.
///
/// Returns [`Cost::INFINITY`] if some needed conversion is forbidden
/// (i.e. Restriction 1 fails).
pub fn max_conversion_cost(network: &WdmNetwork) -> Option<Cost> {
    let mut max: Option<Cost> = None;
    for v in network.graph().nodes() {
        let lin = network.lambda_in(v);
        let lout = network.lambda_out(v);
        for p in lin.iter() {
            for q in lout.iter() {
                if p == q {
                    continue;
                }
                let c = network.conversion_cost(v, p, q);
                max = Some(max.map_or(c, |m| m.max(c)));
            }
        }
    }
    max
}

/// Checks Restriction 2: `max c_v(λp, λq) < min w(e, λ)` over the same
/// domain as [`max_conversion_cost`].
///
/// Vacuously true when no conversion is ever needed; false when the
/// network has no (link, wavelength) pair at all (there is no minimum link
/// cost to compare against).
pub fn satisfies_restriction2(network: &WdmNetwork) -> bool {
    let Some(min_link) = network.min_link_cost() else {
        return false;
    };
    match max_conversion_cost(network) {
        None => true,
        Some(max_conv) => max_conv < min_link,
    }
}

/// Checks both restrictions — the hypothesis of Theorem 2. When this
/// returns `true`, every optimal semilightpath is node-simple.
pub fn theorem2_applies(network: &WdmNetwork) -> bool {
    satisfies_restriction1(network) && satisfies_restriction2(network)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionMatrix, ConversionPolicy, WdmNetwork};
    use wdm_graph::DiGraph;

    fn chain(conv: ConversionPolicy, link_cost: u64) -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, link_cost)])
            .link_wavelengths(1, [(1, link_cost)])
            .uniform_conversion(conv)
            .build()
            .expect("valid")
    }

    #[test]
    fn free_conversion_satisfies_both() {
        let net = chain(ConversionPolicy::Free, 10);
        assert!(satisfies_restriction1(&net));
        assert!(satisfies_restriction2(&net));
        assert!(theorem2_applies(&net));
        assert_eq!(max_conversion_cost(&net), Some(Cost::ZERO));
    }

    #[test]
    fn forbidden_needed_conversion_fails_restriction1() {
        // Node 1 receives λ0 and transmits λ1 but cannot convert.
        let net = chain(ConversionPolicy::Forbidden, 10);
        assert!(!satisfies_restriction1(&net));
        assert_eq!(max_conversion_cost(&net), Some(Cost::INFINITY));
        assert!(!theorem2_applies(&net));
    }

    #[test]
    fn cheap_conversion_satisfies_restriction2() {
        let net = chain(ConversionPolicy::Uniform(Cost::new(3)), 10);
        assert!(satisfies_restriction2(&net));
        assert!(theorem2_applies(&net));
    }

    #[test]
    fn conversion_cost_equal_to_link_cost_fails_restriction2() {
        // Restriction 2 requires *strict* inequality.
        let net = chain(ConversionPolicy::Uniform(Cost::new(10)), 10);
        assert!(satisfies_restriction1(&net));
        assert!(!satisfies_restriction2(&net));
    }

    #[test]
    fn restriction1_only_quantifies_over_adjacent_wavelengths() {
        // Node 1 receives only λ0 and transmits only λ0, so a matrix that
        // forbids λ0 → λ1 still satisfies Restriction 1.
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let m = ConversionMatrix::forbidden(2);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(0, 10)])
            .uniform_conversion(ConversionPolicy::Matrix(m))
            .build()
            .expect("valid");
        assert!(satisfies_restriction1(&net));
        // No conversion pair exists at all → vacuous Restriction 2.
        assert_eq!(max_conversion_cost(&net), None);
        assert!(satisfies_restriction2(&net));
        assert!(theorem2_applies(&net));
    }

    #[test]
    fn empty_availability_fails_restriction2() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 1).build().expect("valid");
        assert!(!satisfies_restriction2(&net));
    }
}
