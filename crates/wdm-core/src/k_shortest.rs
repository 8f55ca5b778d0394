//! K cheapest alternative semilightpaths (Yen's algorithm on the layered
//! graph).
//!
//! Alternate-path routing is the standard way provisioning systems cope
//! with contention: compute the best few routes up front, try them in
//! order. Because the layered auxiliary graph `G_{s,t}` maps paths
//! one-to-one onto semilightpaths (Theorem 1), Yen's classic k-shortest
//! *loopless* paths algorithm on `G_{s,t}` yields the k cheapest
//! semilightpaths that do not repeat a *routing state* (node, wavelength,
//! receive/transmit side) — physical nodes may still be revisited on
//! different wavelengths, exactly as the paper's model allows. Alternatives
//! that pass through the same routing state twice are excluded by design
//! (they are never strictly cheaper than the loopless optimum, but may tie
//! or rank among the k cheapest in degenerate cost structures).

use crate::auxiliary::AuxiliaryGraph;
use crate::csr::EdgeMask;
use crate::dijkstra::DijkstraWorkspace;
use crate::{Cost, Semilightpath, WdmError, WdmNetwork};
use heaps::IndexedPriorityQueue;
use std::collections::{BinaryHeap, HashSet};
use wdm_graph::NodeId;

/// A path through the auxiliary graph, tracked by Yen's algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
struct AuxPath {
    /// Aux node sequence, `s' … t''`.
    nodes: Vec<usize>,
    /// Dense edge indices, one per step.
    edges: Vec<usize>,
    cost: Cost,
}

impl AuxPath {
    /// The path to `sink` of the last search run on `ws`.
    fn from_search(ws: &DijkstraWorkspace, sink: usize) -> Option<AuxPath> {
        let cost = ws.dist()[sink];
        if cost.is_infinite() {
            return None;
        }
        let mut nodes = vec![sink];
        let mut edges = Vec::new();
        let mut at = sink;
        while let Some((prev, edge)) = ws.parent()[at] {
            nodes.push(prev);
            edges.push(edge);
            at = prev;
        }
        nodes.reverse();
        edges.reverse();
        Some(AuxPath { nodes, edges, cost })
    }

    fn to_semilightpath(&self, aux: &AuxiliaryGraph) -> Semilightpath {
        let hops = self.edges.iter().filter_map(|&e| aux.graph().hop(e));
        Semilightpath::new(hops.collect(), self.cost)
    }
}

/// Candidate ordering for the Yen frontier (min-heap by cost, then by the
/// edge sequence for determinism).
///
/// The tie-break must use the *edge* sequence: parallel fibres produce
/// distinct paths with identical node sequences, and an `Ord` that cannot
/// tell them apart would disagree with the derived `PartialEq`.
#[derive(Debug, PartialEq, Eq)]
struct Candidate(AuxPath);

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for a min-heap on cost; tie-break on the sequences.
        other
            .0
            .cost
            .cmp(&self.0.cost)
            .then_with(|| other.0.edges.cmp(&self.0.edges))
            .then_with(|| other.0.nodes.cmp(&self.0.nodes))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Computes up to `count` cheapest distinct semilightpaths from `s` to
/// `t`, in non-decreasing cost order.
///
/// Fewer than `count` paths are returned when the layered graph admits
/// fewer loopless alternatives. `s == t` yields just the empty path.
///
/// # Errors
///
/// [`WdmError::NodeOutOfRange`] for invalid endpoints.
///
/// # Examples
///
/// ```
/// use wdm_core::{k_shortest_semilightpaths, ConversionPolicy, Cost, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// // Two parallel routes 0 → 2: via node 1 (cost 10) or direct (cost 15).
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2), (0, 2)]);
/// let net = WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 4)])
///     .link_wavelengths(1, [(0, 6)])
///     .link_wavelengths(2, [(0, 15)])
///     .build()?;
/// let paths = k_shortest_semilightpaths(&net, 0.into(), 2.into(), 3)?;
/// assert_eq!(paths.len(), 2);
/// assert_eq!(paths[0].cost(), Cost::new(10));
/// assert_eq!(paths[1].cost(), Cost::new(15));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn k_shortest_semilightpaths(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
    count: usize,
) -> Result<Vec<Semilightpath>, WdmError> {
    let n = network.node_count();
    for v in [s, t] {
        if v.index() >= n {
            return Err(WdmError::NodeOutOfRange { node: v, n });
        }
    }
    if count == 0 {
        return Ok(Vec::new());
    }
    if s == t {
        return Ok(vec![Semilightpath::new(Vec::new(), Cost::ZERO)]);
    }

    let aux = AuxiliaryGraph::for_pair(network, s, t);
    let graph = aux.graph();
    let (source, sink) = aux.pair_terminals();
    // One workspace, heap and ban mask serve every search.
    let mut ws = DijkstraWorkspace::with_capacity(graph.node_count());
    let mut heap = heaps::BinaryHeap::with_capacity(graph.node_count());
    let mut banned = EdgeMask::all_clear(graph.edge_count());
    let mut banned_list: Vec<usize> = Vec::new();
    // in_edges[v]: the edges entering v, masked to ban v.
    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); graph.node_count()];
    for i in 0..graph.edge_count() {
        in_edges[graph.edge(i).1.target].push(i);
    }

    ws.run(graph, source, &mut heap);
    let Some(first) = AuxPath::from_search(&ws, sink) else {
        return Ok(Vec::new());
    };

    let mut accepted: Vec<AuxPath> = vec![first];
    let mut frontier: BinaryHeap<Candidate> = BinaryHeap::new();
    // Dedup on the *edge* sequence: parallel fibres yield distinct paths
    // whose node sequences coincide.
    let mut seen: HashSet<Vec<usize>> = HashSet::new();
    seen.insert(accepted[0].edges.clone());

    while accepted.len() < count {
        let Some(last) = accepted.last().cloned() else {
            unreachable!("accepted starts with the first path and only grows")
        };
        // Spur from every node of the last accepted path except the sink.
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_edges = &last.edges[..spur_idx];

            // Ban the next edge of every accepted path sharing this root,
            // and every edge into the root's interior nodes so spur paths
            // are loopless. The spur node itself is never banned.
            banned_list.clear();
            for p in &accepted {
                if p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes {
                    banned_list.extend(p.edges.get(spur_idx));
                }
            }
            for &v in &root_nodes[..spur_idx] {
                banned_list.extend(&in_edges[v]);
            }
            for &e in &banned_list {
                banned.set(e);
            }
            ws.run_masked(graph, spur_node, &mut heap, &banned);
            for &e in &banned_list {
                banned.clear(e);
            }
            if let Some(spur) = AuxPath::from_search(&ws, sink) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut edges = root_edges.to_vec();
                edges.extend_from_slice(&spur.edges);
                let root_cost: Cost = root_edges.iter().map(|&e| graph.edge(e).1.cost).sum();
                let candidate = AuxPath {
                    nodes,
                    edges,
                    cost: root_cost + spur.cost,
                };
                if seen.insert(candidate.edges.clone()) {
                    frontier.push(Candidate(candidate));
                }
            }
        }
        match frontier.pop() {
            Some(Candidate(next)) => accepted.push(next),
            None => break,
        }
    }

    Ok(accepted.iter().map(|p| p.to_semilightpath(&aux)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::DiGraph;

    fn diamond() -> WdmNetwork {
        // Three routes 0 → 3 with distinct costs: 0-1-3 (12), 0-2-3 (14),
        // 0-3 direct (20).
        let g = DiGraph::from_links(4, [(0, 1), (1, 3), (0, 2), (2, 3), (0, 3)]);
        WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 5)])
            .link_wavelengths(1, [(0, 7)])
            .link_wavelengths(2, [(0, 6)])
            .link_wavelengths(3, [(0, 8)])
            .link_wavelengths(4, [(0, 20)])
            .build()
            .expect("valid")
    }

    #[test]
    fn returns_paths_in_cost_order() {
        let net = diamond();
        let paths = k_shortest_semilightpaths(&net, 0.into(), 3.into(), 5).expect("ok");
        let costs: Vec<Cost> = paths.iter().map(|p| p.cost()).collect();
        assert_eq!(costs, vec![Cost::new(12), Cost::new(14), Cost::new(20)]);
        for p in &paths {
            p.validate(&net).expect("valid");
        }
    }

    #[test]
    fn first_path_is_the_optimum() {
        let net = diamond();
        let paths = k_shortest_semilightpaths(&net, 0.into(), 3.into(), 1).expect("ok");
        let opt = LiangShenRouter::new()
            .route(&net, 0.into(), 3.into())
            .expect("ok")
            .cost();
        assert_eq!(paths[0].cost(), opt);
    }

    #[test]
    fn wavelength_alternatives_count_as_distinct_paths() {
        // One physical route but two wavelengths → two semilightpaths.
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 5), (1, 9)])
            .build()
            .expect("valid");
        let paths = k_shortest_semilightpaths(&net, 0.into(), 1.into(), 4).expect("ok");
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost(), Cost::new(5));
        assert_eq!(paths[1].cost(), Cost::new(9));
        assert_ne!(paths[0].hops()[0].wavelength, paths[1].hops()[0].wavelength);
    }

    #[test]
    fn conversion_alternatives_are_enumerated() {
        // 0 →(λ0)→ 1 →(λ0 or λ1)→ 2: staying on λ0 (cost 12) beats
        // converting (cost 10+1+5 = 16)? No — make conversion cheaper.
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(0, 2), (1, 5)])
            .conversion(1, ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid");
        let paths = k_shortest_semilightpaths(&net, 0.into(), 2.into(), 4).expect("ok");
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost(), Cost::new(12)); // stay on λ0
        assert_eq!(paths[1].cost(), Cost::new(16)); // convert to λ1
        assert_eq!(paths[1].conversion_count(), 1);
    }

    #[test]
    fn exhausts_alternatives_gracefully() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 3)])
            .build()
            .expect("valid");
        let paths = k_shortest_semilightpaths(&net, 0.into(), 1.into(), 10).expect("ok");
        assert_eq!(paths.len(), 1);
        // Unreachable pair → empty list.
        let none = k_shortest_semilightpaths(&net, 1.into(), 0.into(), 3).expect("ok");
        assert!(none.is_empty());
        // count == 0 → empty list.
        assert!(k_shortest_semilightpaths(&net, 0.into(), 1.into(), 0)
            .expect("ok")
            .is_empty());
        // s == t → the empty path only.
        let trivial = k_shortest_semilightpaths(&net, 0.into(), 0.into(), 3).expect("ok");
        assert_eq!(trivial.len(), 1);
        assert!(trivial[0].is_empty());
    }

    #[test]
    fn brute_force_agreement_on_small_instance() {
        // Enumerate all simple aux paths by DFS and compare the cheapest 4.
        let net = diamond();
        let mut all: Vec<Cost> = Vec::new();
        // Physical enumeration: all simple 0→3 routes (single λ, so path
        // cost = sum of link costs).
        // 0-1-3 = 12, 0-2-3 = 14, 0-3 = 20.
        all.extend([Cost::new(12), Cost::new(14), Cost::new(20)]);
        all.sort();
        let paths = k_shortest_semilightpaths(&net, 0.into(), 3.into(), 4).expect("ok");
        let got: Vec<Cost> = paths.iter().map(|p| p.cost()).collect();
        assert_eq!(got, all);
    }

    #[test]
    fn parallel_fibres_yield_distinct_alternatives() {
        // Two parallel 0→1 fibres on the same wavelength: the aux node
        // sequence s' → y_0(λ0) → x_1(λ0) → t'' is identical for both, so
        // node-sequence dedup would collapse them. The edge sequences
        // differ, and both alternatives must be enumerated.
        let g = DiGraph::from_links(2, [(0, 1), (0, 1)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 5)])
            .link_wavelengths(1, [(0, 7)])
            .build()
            .expect("valid");
        let paths = k_shortest_semilightpaths(&net, 0.into(), 1.into(), 4).expect("ok");
        assert_eq!(paths.len(), 2, "both parallel fibres enumerated");
        assert_eq!(paths[0].cost(), Cost::new(5));
        assert_eq!(paths[1].cost(), Cost::new(7));
        assert_ne!(
            paths[0].hops()[0].link,
            paths[1].hops()[0].link,
            "alternatives use distinct physical fibres"
        );
        for p in &paths {
            p.validate(&net).expect("valid");
        }
    }

    #[test]
    fn equal_cost_parallel_fibres_are_both_kept() {
        // Same topology with *equal* costs: the frontier tie-break must
        // still distinguish the candidates (Ord consistent with PartialEq).
        let g = DiGraph::from_links(2, [(0, 1), (0, 1)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 5)])
            .link_wavelengths(1, [(0, 5)])
            .build()
            .expect("valid");
        let paths = k_shortest_semilightpaths(&net, 0.into(), 1.into(), 4).expect("ok");
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].cost(), Cost::new(5));
        assert_eq!(paths[1].cost(), Cost::new(5));
        assert_ne!(paths[0].hops()[0].link, paths[1].hops()[0].link);
    }

    #[test]
    fn node_out_of_range_is_rejected() {
        let net = diamond();
        assert!(matches!(
            k_shortest_semilightpaths(&net, 0.into(), 99.into(), 2),
            Err(WdmError::NodeOutOfRange { .. })
        ));
    }
}
