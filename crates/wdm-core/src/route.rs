//! Semilightpaths: routes with per-link wavelength assignments.

use crate::{Cost, RouteError, Wavelength, WdmNetwork};
use wdm_graph::{LinkId, NodeId};

/// One step of a semilightpath: a link together with the wavelength the
/// path uses on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Hop {
    /// The traversed link.
    pub link: LinkId,
    /// The wavelength assigned to the link, `λ(e) ∈ Λ(e)`.
    pub wavelength: Wavelength,
}

/// A semilightpath: a chain of [`Hop`]s plus its Equation-(1) cost.
///
/// Per the paper, a semilightpath is a link sequence `e_1 … e_l` with
/// `head(e_i) = tail(e_{i+1})` and an assigned wavelength per link; its
/// cost sums the link costs and the conversion costs at junctions where the
/// wavelength changes. A **lightpath** is the special case with no
/// conversions ([`Semilightpath::is_lightpath`]).
///
/// Values of this type are produced by the solvers; [`Semilightpath::validate`]
/// re-checks every model constraint against a network, which the test suite
/// uses as an end-to-end oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Semilightpath {
    hops: Vec<Hop>,
    cost: Cost,
}

impl Semilightpath {
    /// Creates a path from hops and a claimed cost (typically from a
    /// solver). Use [`Semilightpath::validate`] to check it against a
    /// network.
    pub fn new(hops: Vec<Hop>, cost: Cost) -> Self {
        Semilightpath { hops, cost }
    }

    /// The hops in travel order.
    pub fn hops(&self) -> &[Hop] {
        &self.hops
    }

    /// Number of links on the path.
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// Returns `true` for the empty path (source = destination).
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// The recorded path cost.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// The source node, if the path is non-empty.
    pub fn source(&self, network: &WdmNetwork) -> Option<NodeId> {
        self.hops
            .first()
            .map(|h| network.graph().link(h.link).tail())
    }

    /// The destination node, if the path is non-empty.
    pub fn target(&self, network: &WdmNetwork) -> Option<NodeId> {
        self.hops
            .last()
            .map(|h| network.graph().link(h.link).head())
    }

    /// The node sequence `tail(e_1), head(e_1), head(e_2), …` visited by
    /// the path (length `len() + 1`; empty for an empty path).
    pub fn node_sequence(&self, network: &WdmNetwork) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.hops.len() + 1);
        if let Some(first) = self.hops.first() {
            nodes.push(network.graph().link(first.link).tail());
        }
        for h in &self.hops {
            nodes.push(network.graph().link(h.link).head());
        }
        nodes
    }

    /// Number of wavelength conversions (junctions where the wavelength
    /// changes).
    pub fn conversion_count(&self) -> usize {
        self.hops
            .windows(2)
            .filter(|w| w[0].wavelength != w[1].wavelength)
            .count()
    }

    /// Returns `true` if the path uses a single wavelength end-to-end —
    /// i.e. it is a *lightpath* in the paper's terminology.
    pub fn is_lightpath(&self) -> bool {
        self.conversion_count() == 0
    }

    /// Splits the path into maximal single-wavelength segments (the
    /// constituent lightpaths that are chained by conversions).
    ///
    /// Each segment is a `(wavelength, hops)` pair; concatenating the hop
    /// slices yields the full path.
    pub fn lightpath_segments(&self) -> Vec<(Wavelength, &[Hop])> {
        let mut segments = Vec::new();
        let mut start = 0;
        for i in 1..=self.hops.len() {
            if i == self.hops.len() || self.hops[i].wavelength != self.hops[start].wavelength {
                segments.push((self.hops[start].wavelength, &self.hops[start..i]));
                start = i;
            }
        }
        segments
    }

    /// Recomputes the Equation-(1) cost of this hop sequence on `network`
    /// (∞ if some hop or conversion is unavailable).
    pub fn compute_cost(&self, network: &WdmNetwork) -> Cost {
        let mut total = Cost::ZERO;
        for (i, hop) in self.hops.iter().enumerate() {
            total += network.link_cost(hop.link, hop.wavelength);
            if i + 1 < self.hops.len() {
                let junction = network.graph().link(hop.link).head();
                total +=
                    network.conversion_cost(junction, hop.wavelength, self.hops[i + 1].wavelength);
            }
        }
        total
    }

    /// Checks every model constraint of this path against `network`:
    /// contiguity, wavelength availability, conversion feasibility, and
    /// that the recorded cost equals the Equation-(1) cost.
    ///
    /// # Errors
    ///
    /// The first violated constraint, as a [`RouteError`].
    pub fn validate(&self, network: &WdmNetwork) -> Result<(), RouteError> {
        for (i, pair) in self.hops.windows(2).enumerate() {
            let head = network.graph().link(pair[0].link).head();
            let tail = network.graph().link(pair[1].link).tail();
            if head != tail {
                return Err(RouteError::Discontiguous { at_hop: i });
            }
        }
        for (i, hop) in self.hops.iter().enumerate() {
            if !network.wavelengths_on(hop.link).contains(hop.wavelength) {
                return Err(RouteError::WavelengthUnavailable {
                    at_hop: i,
                    link: hop.link,
                    wavelength: hop.wavelength,
                });
            }
        }
        for pair in self.hops.windows(2) {
            let junction = network.graph().link(pair[0].link).head();
            if network
                .conversion_cost(junction, pair[0].wavelength, pair[1].wavelength)
                .is_infinite()
            {
                return Err(RouteError::ConversionForbidden {
                    node: junction,
                    from: pair[0].wavelength,
                    to: pair[1].wavelength,
                });
            }
        }
        let actual = self.compute_cost(network);
        if actual != self.cost {
            return Err(RouteError::CostMismatch {
                recorded: self.cost,
                actual,
            });
        }
        Ok(())
    }

    /// Counts how many times each physical node is *entered* along the
    /// path (the Theorem-2 node-simplicity measure: a node-simple path
    /// enters every node at most once).
    pub fn node_visit_counts(&self, network: &WdmNetwork) -> Vec<usize> {
        let mut counts = vec![0usize; network.node_count()];
        let seq = self.node_sequence(network);
        for v in seq {
            counts[v.index()] += 1;
        }
        counts
    }

    /// Returns `true` if no physical node appears more than once in the
    /// node sequence (Theorem 2's conclusion under Restrictions 1 and 2).
    pub fn is_node_simple(&self, network: &WdmNetwork) -> bool {
        self.node_visit_counts(network).iter().all(|&c| c <= 1)
    }
}

impl std::fmt::Display for Semilightpath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.hops.is_empty() {
            return write!(f, "(empty path, cost {})", self.cost);
        }
        for (i, hop) in self.hops.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{}[{}]", hop.link, hop.wavelength)?;
        }
        write!(f, " (cost {})", self.cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConversionPolicy;
    use wdm_graph::DiGraph;

    /// 0 →(e0)→ 1 →(e1)→ 2, λ0 on e0, λ1 on e1; conversion free at node 1.
    fn chain_network() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(1, 20)])
            .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
            .build()
            .expect("valid")
    }

    fn hop(link: usize, w: usize) -> Hop {
        Hop {
            link: LinkId::new(link),
            wavelength: Wavelength::new(w),
        }
    }

    #[test]
    fn valid_path_passes_validation() {
        let net = chain_network();
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(35));
        p.validate(&net).expect("valid path");
        assert_eq!(p.conversion_count(), 1);
        assert!(!p.is_lightpath());
        assert_eq!(p.source(&net), Some(NodeId::new(0)));
        assert_eq!(p.target(&net), Some(NodeId::new(2)));
    }

    #[test]
    fn cost_mismatch_detected() {
        let net = chain_network();
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(30));
        assert!(matches!(
            p.validate(&net),
            Err(RouteError::CostMismatch { .. })
        ));
    }

    #[test]
    fn discontiguous_path_detected() {
        let g = DiGraph::from_links(4, [(0, 1), (2, 3)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 1)])
            .build()
            .expect("valid");
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 0)], Cost::new(2));
        assert_eq!(
            p.validate(&net),
            Err(RouteError::Discontiguous { at_hop: 0 })
        );
    }

    #[test]
    fn unavailable_wavelength_detected() {
        let net = chain_network();
        let p = Semilightpath::new(vec![hop(0, 1)], Cost::new(10));
        assert!(matches!(
            p.validate(&net),
            Err(RouteError::WavelengthUnavailable { .. })
        ));
    }

    #[test]
    fn forbidden_conversion_detected() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            // node 1 has no converter
            .build()
            .expect("valid");
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(2));
        assert!(matches!(
            p.validate(&net),
            Err(RouteError::ConversionForbidden { .. })
        ));
    }

    #[test]
    fn lightpath_has_no_conversions() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 3)])
            .link_wavelengths(1, [(0, 4)])
            .build()
            .expect("valid");
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 0)], Cost::new(7));
        p.validate(&net).expect("valid");
        assert!(p.is_lightpath());
        assert_eq!(p.lightpath_segments().len(), 1);
    }

    #[test]
    fn segments_split_on_conversion() {
        let _net = chain_network();
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(35));
        let segs = p.lightpath_segments();
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].0, Wavelength::new(0));
        assert_eq!(segs[0].1.len(), 1);
        assert_eq!(segs[1].0, Wavelength::new(1));
    }

    #[test]
    fn node_sequence_and_simplicity() {
        let net = chain_network();
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(35));
        let seq: Vec<usize> = p.node_sequence(&net).iter().map(|v| v.index()).collect();
        assert_eq!(seq, vec![0, 1, 2]);
        assert!(p.is_node_simple(&net));
    }

    #[test]
    fn empty_path_display_and_flags() {
        let p = Semilightpath::new(vec![], Cost::ZERO);
        assert!(p.is_empty());
        assert!(p.is_lightpath());
        assert_eq!(p.to_string(), "(empty path, cost 0)");
        assert!(p.lightpath_segments().is_empty());
    }

    #[test]
    fn display_non_empty() {
        let p = Semilightpath::new(vec![hop(0, 0), hop(1, 1)], Cost::new(35));
        assert_eq!(p.to_string(), "e0[λ0] → e1[λ1] (cost 35)");
    }
}
