//! Survivable routing: disjoint primary/backup semilightpath pairs.
//!
//! Dedicated path protection — the standard survivability mechanism in
//! WDM transport networks — provisions every connection twice, on routes
//! that share no resource that a single failure could take down. Two
//! levels are provided:
//!
//! * [`Disjointness::LinkWavelength`] — the pair shares no
//!   (link, wavelength) resource. Solved **exactly** as a 2-unit
//!   minimum-cost flow over the layered graph `G_{s,t}` with unit
//!   capacity on every traversal edge: the flow decomposes into the
//!   cheapest resource-disjoint pair, including the "trap topology" cases
//!   where routing the primary greedily first makes any backup
//!   impossible.
//! * [`Disjointness::PhysicalLink`] — the pair shares no physical link
//!   (survives a fibre cut). Solved with the standard active-path-first
//!   *heuristic*: route the primary optimally, remove its links, route
//!   the backup on the residue. This can fail on trap topologies even
//!   when a disjoint pair exists; the exact variant is NP-hard to
//!   optimize jointly with wavelength assignment in general, which is why
//!   transport planners use this heuristic.

use crate::auxiliary::AuxiliaryGraph;
use crate::csr::EdgeRole;
use crate::flow::MinCostFlow;
use crate::{Cost, LiangShenRouter, Semilightpath, WdmError, WdmNetwork};
use wdm_graph::{LinkId, NodeId};

/// What the primary and backup paths must not share.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disjointness {
    /// No common (link, wavelength) resource (exact, via min-cost flow).
    LinkWavelength,
    /// No common physical link (active-path-first heuristic).
    PhysicalLink,
}

/// A provisioned protection pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DisjointPair {
    /// The working path (the cheaper of the two).
    pub primary: Semilightpath,
    /// The protection path.
    pub backup: Semilightpath,
}

impl DisjointPair {
    /// Combined cost of both paths.
    pub fn total_cost(&self) -> Cost {
        self.primary.cost() + self.backup.cost()
    }

    /// Returns `true` if the two paths share no (link, wavelength) pair.
    pub fn is_link_wavelength_disjoint(&self) -> bool {
        let used: std::collections::HashSet<(LinkId, crate::Wavelength)> = self
            .primary
            .hops()
            .iter()
            .map(|h| (h.link, h.wavelength))
            .collect();
        self.backup
            .hops()
            .iter()
            .all(|h| !used.contains(&(h.link, h.wavelength)))
    }

    /// Returns `true` if the two paths share no physical link.
    pub fn is_physical_link_disjoint(&self) -> bool {
        let used: std::collections::HashSet<LinkId> =
            self.primary.hops().iter().map(|h| h.link).collect();
        self.backup.hops().iter().all(|h| !used.contains(&h.link))
    }
}

/// Finds a minimum-total-cost disjoint primary/backup pair from `s` to
/// `t`, or `None` when no such pair exists.
///
/// For [`Disjointness::LinkWavelength`] the result minimizes the *sum* of
/// the two path costs (exact). For [`Disjointness::PhysicalLink`] the
/// primary is individually optimal and the backup optimal on the residual
/// network (heuristic; see the module docs).
///
/// # Errors
///
/// [`WdmError::NodeOutOfRange`] for invalid endpoints.
///
/// # Examples
///
/// ```
/// use wdm_core::{disjoint_semilightpath_pair, Disjointness, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// // Two parallel 2-hop routes 0 → 3.
/// let g = DiGraph::from_links(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
/// let net = WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 1)])
///     .link_wavelengths(1, [(0, 1)])
///     .link_wavelengths(2, [(0, 2)])
///     .link_wavelengths(3, [(0, 2)])
///     .build()?;
/// let pair = disjoint_semilightpath_pair(&net, 0.into(), 3.into(), Disjointness::LinkWavelength)?
///     .expect("two disjoint routes exist");
/// assert!(pair.is_link_wavelength_disjoint());
/// assert_eq!(pair.total_cost(), wdm_core::Cost::new(6));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn disjoint_semilightpath_pair(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
    disjointness: Disjointness,
) -> Result<Option<DisjointPair>, WdmError> {
    let n = network.node_count();
    for v in [s, t] {
        if v.index() >= n {
            return Err(WdmError::NodeOutOfRange { node: v, n });
        }
    }
    if s == t {
        // Both "paths" are the trivial empty route.
        let empty = Semilightpath::new(Vec::new(), Cost::ZERO);
        return Ok(Some(DisjointPair {
            primary: empty.clone(),
            backup: empty,
        }));
    }
    match disjointness {
        Disjointness::LinkWavelength => Ok(exact_link_wavelength_pair(network, s, t)),
        Disjointness::PhysicalLink => Ok(heuristic_physical_pair(network, s, t)),
    }
}

/// Exact (link, λ)-disjoint pair via 2-unit min-cost flow on `G_{s,t}`.
fn exact_link_wavelength_pair(network: &WdmNetwork, s: NodeId, t: NodeId) -> Option<DisjointPair> {
    let aux = AuxiliaryGraph::for_pair(network, s, t);
    let g = aux.graph();
    let (source, sink) = aux.pair_terminals();

    let mut flow = MinCostFlow::new(g.node_count());
    // Map from flow-edge handle back to the aux edge it models.
    let mut handles: Vec<(usize, usize)> = Vec::new(); // (flow handle, aux edge idx)
    for u in 0..g.node_count() {
        for edge in g.out_edges(u) {
            let cap = match aux.edge_role(u, edge) {
                // One connection per (link, wavelength).
                EdgeRole::Traversal { .. } => 1,
                // Gadget and tap edges carry both connections if needed.
                EdgeRole::Conversion { .. } | EdgeRole::Tap => 2,
            };
            let Some(cost) = edge.cost.value() else {
                unreachable!("aux edges have finite costs by construction")
            };
            let h = flow.add_edge(u, edge.target, cap, cost);
            handles.push((h, edge.index));
        }
    }
    let (sent, _total) = flow.solve(source, sink, 2)?;
    if sent < 2 {
        return None;
    }

    // Per-aux-edge flow units.
    let mut units = vec![0u32; g.edge_count()];
    for &(h, aux_idx) in &handles {
        units[aux_idx] = flow.flow_on(h);
    }

    // Decompose into two s' → t'' walks; cancel any incidental zero-cost
    // loops by cutting repeated aux nodes.
    let mut paths = Vec::with_capacity(2);
    for _ in 0..2 {
        let mut walk_nodes = vec![source];
        let mut walk_edges = Vec::new();
        let mut at = source;
        while at != sink {
            let Some(next) = g.out_edges(at).find(|e| units[e.index] > 0) else {
                unreachable!("flow conservation yields an out-edge")
            };
            units[next.index] -= 1;
            walk_edges.push(next.index);
            walk_nodes.push(next.target);
            at = next.target;
        }
        // Cut loops (repeated aux nodes) — they carry zero net cost in an
        // optimal flow decomposition.
        let mut seen = std::collections::HashMap::new();
        let mut i = 0;
        while i < walk_nodes.len() {
            if let Some(&j) = seen.get(&walk_nodes[i]) {
                walk_nodes.drain(j + 1..=i);
                walk_edges.drain(j..i);
                seen.retain(|_, &mut pos| pos <= j);
                i = j + 1;
            } else {
                seen.insert(walk_nodes[i], i);
                i += 1;
            }
        }
        // Decode hops and cost.
        let mut hops = Vec::new();
        let mut cost = Cost::ZERO;
        for &e in &walk_edges {
            let (tail, edge) = g.edge(e);
            cost += edge.cost;
            hops.extend(aux.hop(tail, e));
        }
        paths.push(Semilightpath::new(hops, cost));
    }
    paths.sort_by_key(Semilightpath::cost);
    let (Some(backup), Some(primary)) = (paths.pop(), paths.pop()) else {
        unreachable!("the decomposition loop pushes exactly two paths")
    };
    Some(DisjointPair { primary, backup })
}

/// Active-path-first heuristic for physical-link disjointness.
fn heuristic_physical_pair(network: &WdmNetwork, s: NodeId, t: NodeId) -> Option<DisjointPair> {
    let router = LiangShenRouter::new();
    let primary = router.route(network, s, t).ok()?.path?;
    let used: std::collections::HashSet<LinkId> = primary.hops().iter().map(|h| h.link).collect();
    // Residual network: strip every wavelength from the primary's links.
    let residual = network.restrict(|link, _| !used.contains(&link));
    let backup = router.route(&residual, s, t).ok()?.path?;
    Some(DisjointPair { primary, backup })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_graph::DiGraph;

    fn two_route_net() -> WdmNetwork {
        let g = DiGraph::from_links(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 1)])
            .link_wavelengths(2, [(0, 2)])
            .link_wavelengths(3, [(0, 2)])
            .build()
            .expect("valid")
    }

    #[test]
    fn finds_disjoint_pair_on_parallel_routes() {
        let net = two_route_net();
        for d in [Disjointness::LinkWavelength, Disjointness::PhysicalLink] {
            let pair = disjoint_semilightpath_pair(&net, 0.into(), 3.into(), d)
                .expect("ok")
                .expect("pair exists");
            pair.primary.validate(&net).expect("valid primary");
            pair.backup.validate(&net).expect("valid backup");
            assert!(pair.is_link_wavelength_disjoint());
            assert!(pair.is_physical_link_disjoint());
            assert_eq!(pair.total_cost(), Cost::new(6));
            assert!(pair.primary.cost() <= pair.backup.cost());
        }
    }

    #[test]
    fn wavelength_disjoint_on_shared_fibre() {
        // One physical route, two wavelengths: LinkWavelength disjointness
        // is satisfiable (different λ on the same fibre), PhysicalLink is
        // not.
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 5), (1, 7)])
            .build()
            .expect("valid");
        let lw =
            disjoint_semilightpath_pair(&net, 0.into(), 1.into(), Disjointness::LinkWavelength)
                .expect("ok")
                .expect("pair exists");
        assert!(lw.is_link_wavelength_disjoint());
        assert!(!lw.is_physical_link_disjoint());
        assert_eq!(lw.total_cost(), Cost::new(12));
        let pl = disjoint_semilightpath_pair(&net, 0.into(), 1.into(), Disjointness::PhysicalLink)
            .expect("ok");
        assert!(pl.is_none());
    }

    #[test]
    fn trap_topology_solved_exactly_but_not_heuristically() {
        // The classic trap: the shortest path uses links that every
        // alternative needs; greedy primary-first fails, min-cost flow
        // succeeds.
        //
        //   0 → 1 (1), 1 → 3 (10): route A
        //   0 → 2 (10), 2 → 3 (1): route B
        //   1 → 2 (1): the trap shortcut making 0-1-2-3 (cost 3) optimal.
        let g = DiGraph::from_links(4, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 10)])
            .link_wavelengths(2, [(0, 10)])
            .link_wavelengths(3, [(0, 1)])
            .link_wavelengths(4, [(0, 1)])
            .build()
            .expect("valid");
        // Heuristic: primary = 0-1-2-3 (cost 3) uses links of both A and
        // B → no backup.
        let heuristic =
            disjoint_semilightpath_pair(&net, 0.into(), 3.into(), Disjointness::PhysicalLink)
                .expect("ok");
        assert!(heuristic.is_none(), "the trap defeats active-path-first");
        // Exact: flow finds A (11) + B (11).
        let exact =
            disjoint_semilightpath_pair(&net, 0.into(), 3.into(), Disjointness::LinkWavelength)
                .expect("ok")
                .expect("flow escapes the trap");
        assert!(exact.is_link_wavelength_disjoint());
        assert!(exact.is_physical_link_disjoint());
        assert_eq!(exact.total_cost(), Cost::new(22));
        exact.primary.validate(&net).expect("valid");
        exact.backup.validate(&net).expect("valid");
    }

    #[test]
    fn no_pair_when_single_route_single_wavelength() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 1)])
            .build()
            .expect("valid");
        for d in [Disjointness::LinkWavelength, Disjointness::PhysicalLink] {
            assert!(disjoint_semilightpath_pair(&net, 0.into(), 2.into(), d)
                .expect("ok")
                .is_none());
        }
    }

    #[test]
    fn trivial_and_error_cases() {
        let net = two_route_net();
        let pair =
            disjoint_semilightpath_pair(&net, 1.into(), 1.into(), Disjointness::LinkWavelength)
                .expect("ok")
                .expect("trivial");
        assert!(pair.primary.is_empty() && pair.backup.is_empty());
        assert!(matches!(
            disjoint_semilightpath_pair(&net, 0.into(), 9.into(), Disjointness::PhysicalLink),
            Err(WdmError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn pair_total_beats_two_greedy_paths_or_ties() {
        // On the parallel-routes network the exact pair total equals the
        // greedy (primary + best alternate) total; on the trap it is the
        // only feasible answer. Cross-check with k-shortest on the easy
        // case.
        let net = two_route_net();
        let pair =
            disjoint_semilightpath_pair(&net, 0.into(), 3.into(), Disjointness::LinkWavelength)
                .expect("ok")
                .expect("pair");
        let alts = crate::k_shortest_semilightpaths(&net, 0.into(), 3.into(), 2).expect("ok");
        let greedy_total = alts[0].cost() + alts[1].cost();
        assert!(pair.total_cost() <= greedy_total);
    }
}
