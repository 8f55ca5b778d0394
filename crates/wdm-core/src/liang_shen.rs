//! The paper's optimal-semilightpath algorithm (Theorem 1).
//!
//! Build `G_{s,t}` ([`AuxiliaryGraph::for_pair`]), run Dijkstra with a
//! Fibonacci heap from `s'`, and decode the shortest `s' → t''` path into a
//! semilightpath with its wavelength assignment. Total cost
//! `O(k²n + km + kn·log(kn))`: the first two terms build the graph, the
//! last is Dijkstra on its ≤ `2kn + 2` nodes.

use crate::auxiliary::{AuxStats, AuxiliaryGraph};
use crate::dijkstra::{dijkstra_with, SearchStats, ShortestPathTree};
use crate::{Cost, Semilightpath, WdmError, WdmNetwork};
use heaps::HeapKind;
use wdm_graph::NodeId;

/// The outcome of one routing query, with enough accounting to reproduce
/// the paper's complexity claims empirically.
#[derive(Debug, Clone)]
pub struct RouteResult {
    /// The optimal semilightpath, or `None` when `t` is unreachable from
    /// `s` under the wavelength/conversion constraints.
    pub path: Option<Semilightpath>,
    /// Node count of the search graph that was built.
    pub search_nodes: usize,
    /// Edge count of the search graph that was built.
    pub search_edges: usize,
    /// Dijkstra operation counters.
    pub dijkstra: SearchStats,
    /// Construction accounting (present for the layered-graph algorithm,
    /// absent for baselines with a different construction).
    pub aux_stats: Option<AuxStats>,
}

impl RouteResult {
    /// The cost of the found path ([`Cost::INFINITY`] when unreachable).
    pub fn cost(&self) -> Cost {
        self.path
            .as_ref()
            .map(Semilightpath::cost)
            .unwrap_or(Cost::INFINITY)
    }
}

/// The Liang–Shen optimal semilightpath router.
///
/// # Examples
///
/// ```
/// use wdm_core::{ConversionPolicy, Cost, LiangShenRouter, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// // 0 →(λ0, cost 2)→ 1 →(λ1, cost 3)→ 2, conversion at node 1 costs 1.
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = WdmNetwork::builder(g, 2)
///     .link_wavelengths(0, [(0, 2)])
///     .link_wavelengths(1, [(1, 3)])
///     .conversion(1, ConversionPolicy::Uniform(Cost::new(1)))
///     .build()?;
/// let result = LiangShenRouter::new().route(&net, 0.into(), 2.into())?;
/// let path = result.path.expect("reachable");
/// assert_eq!(path.cost(), Cost::new(6));
/// assert_eq!(path.conversion_count(), 1);
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct LiangShenRouter {
    heap: HeapKind,
}

impl LiangShenRouter {
    /// A router using the Fibonacci heap (the Theorem-1 configuration).
    pub fn new() -> Self {
        LiangShenRouter {
            heap: HeapKind::Fibonacci,
        }
    }

    /// Selects the priority queue driving Dijkstra (for the E9 ablation).
    pub fn with_heap(heap: HeapKind) -> Self {
        LiangShenRouter { heap }
    }

    /// The configured heap.
    pub fn heap(&self) -> HeapKind {
        self.heap
    }

    /// Finds an optimal semilightpath from `s` to `t`.
    ///
    /// `s == t` returns the empty path of cost zero (the trivial optimal
    /// route).
    ///
    /// # Errors
    ///
    /// [`WdmError::NodeOutOfRange`] if `s` or `t` is not a node of the
    /// network.
    pub fn route(
        &self,
        network: &WdmNetwork,
        s: NodeId,
        t: NodeId,
    ) -> Result<RouteResult, WdmError> {
        check_node(network, s)?;
        check_node(network, t)?;
        if s == t {
            return Ok(RouteResult {
                path: Some(Semilightpath::new(Vec::new(), Cost::ZERO)),
                search_nodes: 0,
                search_edges: 0,
                dijkstra: SearchStats::default(),
                aux_stats: None,
            });
        }
        let aux = AuxiliaryGraph::for_pair(network, s, t);
        let (source, sink) = aux.pair_terminals();
        let tree = dijkstra_with(self.heap, aux.graph(), source);
        let path = aux.extract_semilightpath(&tree, sink);
        Ok(RouteResult {
            path,
            search_nodes: aux.graph().node_count(),
            search_edges: aux.graph().edge_count(),
            dijkstra: tree.stats,
            aux_stats: Some(aux.stats()),
        })
    }

    /// Computes the full shortest semilightpath *tree* from `s`
    /// (Theorem 1's remark: the Dijkstra run yields optimal semilightpaths
    /// from `s` to every reachable destination at once).
    ///
    /// # Errors
    ///
    /// [`WdmError::NodeOutOfRange`] if `s` is not a node of the network.
    pub fn shortest_tree(
        &self,
        network: &WdmNetwork,
        s: NodeId,
    ) -> Result<SemilightpathTree, WdmError> {
        check_node(network, s)?;
        let aux = AuxiliaryGraph::for_all_pairs(network);
        let (source, _) = aux.all_pairs_terminals(s);
        let tree = dijkstra_with(self.heap, aux.graph(), source);
        Ok(SemilightpathTree {
            aux,
            tree,
            source: s,
        })
    }
}

/// A shortest semilightpath tree rooted at one source node.
///
/// Produced by [`LiangShenRouter::shortest_tree`]; answers cost and path
/// queries for every destination without further search.
#[derive(Debug, Clone)]
pub struct SemilightpathTree {
    aux: AuxiliaryGraph,
    tree: ShortestPathTree,
    source: NodeId,
}

impl SemilightpathTree {
    /// The root of the tree.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Optimal semilightpath cost from the source to `t`
    /// ([`Cost::ZERO`] for the source itself, [`Cost::INFINITY`] when
    /// unreachable).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn cost_to(&self, t: NodeId) -> Cost {
        if t == self.source {
            return Cost::ZERO;
        }
        let (_, sink) = self.aux.all_pairs_terminals(t);
        self.tree.dist[sink]
    }

    /// The optimal semilightpath to `t` (`None` when unreachable; the
    /// empty path for the source itself).
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn path_to(&self, t: NodeId) -> Option<Semilightpath> {
        if t == self.source {
            return Some(Semilightpath::new(Vec::new(), Cost::ZERO));
        }
        let (_, sink) = self.aux.all_pairs_terminals(t);
        self.aux.extract_semilightpath(&self.tree, sink)
    }

    /// Dijkstra operation counters for the tree computation.
    pub fn dijkstra_stats(&self) -> SearchStats {
        self.tree.stats
    }

    /// Construction accounting of the underlying search graph.
    pub fn aux_stats(&self) -> AuxStats {
        self.aux.stats()
    }
}

/// Convenience wrapper: routes with the default (Fibonacci-heap) router.
///
/// # Errors
///
/// [`WdmError::NodeOutOfRange`] if `s` or `t` is not a node of the network.
///
/// # Examples
///
/// ```
/// use wdm_core::find_optimal_semilightpath;
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = wdm_core::WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 9)])
///     .build()?;
/// let path = find_optimal_semilightpath(&net, 0.into(), 1.into())?.expect("reachable");
/// assert_eq!(path.cost(), wdm_core::Cost::new(9));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn find_optimal_semilightpath(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
) -> Result<Option<Semilightpath>, WdmError> {
    Ok(LiangShenRouter::new().route(network, s, t)?.path)
}

fn check_node(network: &WdmNetwork, v: NodeId) -> Result<(), WdmError> {
    if v.index() >= network.node_count() {
        Err(WdmError::NodeOutOfRange {
            node: v,
            n: network.node_count(),
        })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConversionPolicy;
    use wdm_graph::DiGraph;

    fn two_path_network() -> WdmNetwork {
        // Two routes 0→3: direct expensive link vs. 2-hop cheap path that
        // needs a conversion.
        //   0 →e0(λ0:50)→ 3
        //   0 →e1(λ0:10)→ 1 →e2(λ1:10)→ 3   (conversion at 1 costs 5)
        let g = DiGraph::from_links(4, [(0, 3), (0, 1), (1, 3)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 50)])
            .link_wavelengths(1, [(0, 10)])
            .link_wavelengths(2, [(1, 10)])
            .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
            .build()
            .expect("valid")
    }

    #[test]
    fn prefers_cheaper_converted_route() {
        let net = two_path_network();
        let r = LiangShenRouter::new()
            .route(&net, 0.into(), 3.into())
            .expect("in range");
        let p = r.path.expect("reachable");
        p.validate(&net).expect("valid");
        assert_eq!(p.cost(), Cost::new(25));
        assert_eq!(p.len(), 2);
        assert_eq!(p.conversion_count(), 1);
    }

    #[test]
    fn expensive_conversion_flips_choice() {
        // Same topology but conversion cost 50 → direct route wins.
        let g = DiGraph::from_links(4, [(0, 3), (0, 1), (1, 3)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 50)])
            .link_wavelengths(1, [(0, 10)])
            .link_wavelengths(2, [(1, 10)])
            .conversion(1, ConversionPolicy::Uniform(Cost::new(40)))
            .build()
            .expect("valid");
        let p = find_optimal_semilightpath(&net, 0.into(), 3.into())
            .expect("in range")
            .expect("reachable");
        assert_eq!(p.cost(), Cost::new(50));
        assert_eq!(p.len(), 1);
        assert!(p.is_lightpath());
    }

    #[test]
    fn forbidden_conversion_blocks_route() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            // node 1 cannot convert (default Forbidden)
            .build()
            .expect("valid");
        let r = LiangShenRouter::new()
            .route(&net, 0.into(), 2.into())
            .expect("in range");
        assert!(r.path.is_none());
        assert_eq!(r.cost(), Cost::INFINITY);
    }

    #[test]
    fn same_wavelength_needs_no_converter() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(1, 3)])
            .link_wavelengths(1, [(1, 4)])
            .build()
            .expect("valid");
        let p = find_optimal_semilightpath(&net, 0.into(), 2.into())
            .expect("in range")
            .expect("reachable");
        assert_eq!(p.cost(), Cost::new(7));
        assert!(p.is_lightpath());
    }

    #[test]
    fn source_equals_target_is_trivial() {
        let net = two_path_network();
        let r = LiangShenRouter::new()
            .route(&net, 2.into(), 2.into())
            .expect("in range");
        let p = r.path.expect("trivial");
        assert!(p.is_empty());
        assert_eq!(p.cost(), Cost::ZERO);
    }

    #[test]
    fn node_out_of_range_is_an_error() {
        let net = two_path_network();
        assert!(matches!(
            LiangShenRouter::new().route(&net, 0.into(), 9.into()),
            Err(WdmError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn all_heaps_agree() {
        let net = two_path_network();
        let costs: Vec<Cost> = HeapKind::ALL
            .iter()
            .map(|&k| {
                LiangShenRouter::with_heap(k)
                    .route(&net, 0.into(), 3.into())
                    .expect("in range")
                    .cost()
            })
            .collect();
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shortest_tree_matches_pair_queries() {
        let net = two_path_network();
        let router = LiangShenRouter::new();
        let tree = router.shortest_tree(&net, 0.into()).expect("in range");
        for t in 0..4 {
            let t = NodeId::new(t);
            let pair_cost = router.route(&net, 0.into(), t).expect("in range").cost();
            let tree_cost = tree.cost_to(t);
            if t == NodeId::new(0) {
                assert_eq!(tree_cost, Cost::ZERO);
            } else {
                assert_eq!(tree_cost, pair_cost, "destination {t}");
            }
            if let Some(p) = tree.path_to(t) {
                p.validate(&net).expect("tree path valid");
            }
        }
    }

    #[test]
    fn route_result_reports_search_size() {
        let net = two_path_network();
        let r = LiangShenRouter::new()
            .route(&net, 0.into(), 3.into())
            .expect("in range");
        let stats = r.aux_stats.expect("layered construction");
        assert_eq!(r.search_nodes, stats.total_nodes());
        assert_eq!(r.search_edges, stats.total_edges());
        stats.check_paper_bounds().expect("bounds hold");
    }
}
