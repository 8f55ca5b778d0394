//! The Chlamtac–Faragó–Zhang baseline (the paper's Section III-C
//! comparator).
//!
//! CFZ [4] solve the same problem on the *wavelength graph* `WG`: one node
//! per `(v, λ)` pair for **all** `k·n` combinations, a traversal edge
//! `(u, λ) → (v, λ)` per available `(link, wavelength)`, and a conversion
//! edge `(v, λp) → (v, λq)` per allowed conversion — up to `k²` per node
//! regardless of which wavelengths actually appear on adjacent links. With
//! adjacency lists and the array-scan Dijkstra of its era the algorithm
//! costs `O(k²n + kn²)`.
//!
//! The paper's improvement comes precisely from *not* materializing all
//! `kn` nodes: the layered graph only has nodes for wavelengths that occur
//! on adjacent links. This module implements CFZ faithfully so experiments
//! E3/E9 can reproduce the claimed `Ω(n / max{k, d, log n})` speed-up
//! shape, and the test suite uses it as an independent oracle for the
//! optimal cost.
//!
//! # Semantic caveat: conversion chains
//!
//! In `WG`, two conversion edges at the same node compose: a path may go
//! `(v, λ1) → (v, λ0) → (v, λ2)`, converting *twice* during one visit.
//! Equation (1) charges a single `c_v(λ_arrive, λ_depart)` per junction, so
//! the two formulations agree **iff** every node's conversion costs satisfy
//! the generalized triangle inequality
//! `c_v(p, q) ≤ c_v(p, r) + c_v(r, q)` (with `∞` for forbidden pairs).
//! That holds for [`crate::ConversionPolicy::Forbidden`]/`Free`/`Uniform`,
//! but a [`crate::ConversionPolicy::Matrix`] that forbids `p → q` while
//! allowing `p → r → q`, or a narrow [`crate::ConversionPolicy::Banded`]
//! radius, violates it — then `WG` reports a cheaper "path" that is not a
//! legal Equation-(1) semilightpath. CFZ implicitly assume
//! triangle-consistent costs; we keep their construction literal (the
//! divergence is demonstrated in `chained_conversion_divergence`) and
//! cross-validate against [`crate::reference::reference_route`] instead on
//! chain-inconsistent instances.

use crate::csr::{CsrBuilder, EdgeRole};
use crate::dijkstra::dijkstra_with;
use crate::liang_shen::RouteResult;
use crate::{Cost, Semilightpath, Wavelength, WdmError, WdmNetwork};
use heaps::HeapKind;
use wdm_graph::NodeId;

/// The CFZ wavelength-graph router.
///
/// Defaults to the [`HeapKind::Array`] queue, matching the `O(kn²)`
/// Dijkstra the paper charges the baseline with; use
/// [`CfzRouter::with_heap`] to give the baseline a modern heap in
/// ablations.
///
/// # Examples
///
/// ```
/// use wdm_core::{CfzRouter, Cost, LiangShenRouter};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = wdm_core::WdmNetwork::builder(g, 2)
///     .link_wavelengths(0, [(0, 2)])
///     .link_wavelengths(1, [(0, 3)])
///     .build()?;
/// let cfz = CfzRouter::new().route(&net, 0.into(), 2.into())?;
/// let ls = LiangShenRouter::new().route(&net, 0.into(), 2.into())?;
/// assert_eq!(cfz.cost(), ls.cost()); // independent algorithms agree
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CfzRouter {
    heap: HeapKind,
}

impl Default for CfzRouter {
    fn default() -> Self {
        CfzRouter::new()
    }
}

impl CfzRouter {
    /// The historically faithful configuration (array-scan Dijkstra).
    pub fn new() -> Self {
        CfzRouter {
            heap: HeapKind::Array,
        }
    }

    /// Overrides the priority queue (for ablations).
    pub fn with_heap(heap: HeapKind) -> Self {
        CfzRouter { heap }
    }

    /// The configured heap.
    pub fn heap(&self) -> HeapKind {
        self.heap
    }

    /// Finds an optimal semilightpath from `s` to `t` via the wavelength
    /// graph.
    ///
    /// `s == t` returns the empty path of cost zero.
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
        let n = network.node_count();
        for v in [s, t] {
            if v.index() >= n {
                return Err(WdmError::NodeOutOfRange { node: v, n });
            }
        }
        if s == t {
            return Ok(RouteResult {
                path: Some(Semilightpath::new(Vec::new(), Cost::ZERO)),
                search_nodes: 0,
                search_edges: 0,
                dijkstra: Default::default(),
                aux_stats: None,
            });
        }

        let k = network.k();
        let wg_node = |v: usize, lambda: usize| v * k + lambda;
        let source = n * k;
        let sink = n * k + 1;
        let mut builder = CsrBuilder::new(n * k + 2);

        // Traversal edges: (u, λ) → (v, λ) for λ ∈ Λ(e).
        for (link, l) in network.graph().links() {
            for (w, cost) in network.wavelengths_on(link).iter() {
                builder.add_edge(
                    wg_node(l.tail().index(), w.index()),
                    wg_node(l.head().index(), w.index()),
                    cost,
                    EdgeRole::Traversal {
                        link,
                        wavelength: w,
                    },
                );
            }
        }

        // Conversion edges: (v, λp) → (v, λq) for every allowed ordered
        // pair — CFZ's k² per node, built regardless of adjacency.
        for v in 0..n {
            let node = NodeId::new(v);
            let policy = network.conversion_at(node);
            for p in 0..k {
                for q in 0..k {
                    if p == q {
                        continue;
                    }
                    let (from, to) = (Wavelength::new(p), Wavelength::new(q));
                    let cost = policy.cost(from, to);
                    if cost.is_finite() {
                        builder.add_edge(
                            wg_node(v, p),
                            wg_node(v, q),
                            cost,
                            EdgeRole::Conversion { node, from, to },
                        );
                    }
                }
            }
        }

        // Terminal taps: s* → (s, λ) and (t, λ) → t* for all λ ∈ Λ.
        for lambda in 0..k {
            builder.add_edge(
                source,
                wg_node(s.index(), lambda),
                Cost::ZERO,
                EdgeRole::Tap,
            );
            builder.add_edge(wg_node(t.index(), lambda), sink, Cost::ZERO, EdgeRole::Tap);
        }

        let graph = builder.build();
        let tree = dijkstra_with(self.heap, &graph, source);

        Ok(RouteResult {
            path: graph.decode_semilightpath(&tree.dist, &tree.parent, sink),
            search_nodes: graph.node_count(),
            search_edges: graph.edge_count(),
            dijkstra: tree.stats,
            aux_stats: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::DiGraph;

    fn network() -> WdmNetwork {
        let g = DiGraph::from_links(4, [(0, 3), (0, 1), (1, 3), (3, 2)]);
        WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(0, 50), (2, 45)])
            .link_wavelengths(1, [(0, 10)])
            .link_wavelengths(2, [(1, 10)])
            .link_wavelengths(3, [(1, 8), (2, 6)])
            .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
            .conversion(3, ConversionPolicy::Uniform(Cost::new(2)))
            .build()
            .expect("valid")
    }

    #[test]
    fn wavelength_graph_size_is_kn_plus_terminals() {
        let net = network();
        let r = CfzRouter::new()
            .route(&net, 0.into(), 2.into())
            .expect("ok");
        assert_eq!(r.search_nodes, 3 * 4 + 2);
        let p = r.path.expect("reachable");
        p.validate(&net).expect("valid");
    }

    #[test]
    fn agrees_with_liang_shen_on_all_pairs() {
        let net = network();
        let ls = LiangShenRouter::new();
        let cfz = CfzRouter::new();
        for s in 0..4 {
            for t in 0..4 {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                let a = ls.route(&net, s, t).expect("ok").cost();
                let b = cfz.route(&net, s, t).expect("ok").cost();
                assert_eq!(a, b, "pair {s} → {t}");
            }
        }
    }

    #[test]
    fn cfz_paths_validate() {
        let net = network();
        let cfz = CfzRouter::new();
        for s in 0..4 {
            for t in 0..4 {
                if let Some(p) = cfz
                    .route(&net, NodeId::new(s), NodeId::new(t))
                    .expect("ok")
                    .path
                {
                    p.validate(&net).expect("valid path");
                }
            }
        }
    }

    #[test]
    fn heap_choice_does_not_change_costs() {
        let net = network();
        let mut costs = Vec::new();
        for kind in HeapKind::ALL {
            costs.push(
                CfzRouter::with_heap(kind)
                    .route(&net, 0.into(), 2.into())
                    .expect("ok")
                    .cost(),
            );
        }
        assert!(costs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn chained_conversion_divergence() {
        // Node 1 forbids λ0 → λ2 directly but allows λ0 → λ1 → λ2. The
        // wavelength graph chains the two conversions (cost 2); under
        // Equation-(1) semantics the route does not exist. This documents
        // the semantic caveat in the module docs.
        use crate::ConversionMatrix;
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let mut m = ConversionMatrix::forbidden(3);
        m.set(Wavelength::new(0), Wavelength::new(1), Cost::new(1));
        m.set(Wavelength::new(1), Wavelength::new(2), Cost::new(1));
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(2, 10)])
            .conversion(1, ConversionPolicy::Matrix(m))
            .build()
            .expect("valid");
        let cfz = CfzRouter::new()
            .route(&net, 0.into(), 2.into())
            .expect("ok");
        assert_eq!(cfz.cost(), Cost::new(22), "WG chains the conversions");
        // The Equation-(1) solvers agree the route is infeasible.
        let ls = LiangShenRouter::new()
            .route(&net, 0.into(), 2.into())
            .expect("ok");
        assert!(ls.path.is_none());
        let refr = crate::reference::reference_route(&net, 0.into(), 2.into()).expect("ok");
        assert!(refr.is_none());
        // And the chained WG path fails Equation-(1) validation.
        let p = cfz.path.expect("WG path exists");
        assert!(matches!(
            p.validate(&net),
            Err(crate::RouteError::ConversionForbidden { .. })
        ));
    }

    #[test]
    fn unreachable_is_none() {
        let g = DiGraph::from_links(2, [(1, 0)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .build()
            .expect("valid");
        let r = CfzRouter::new()
            .route(&net, 0.into(), 1.into())
            .expect("ok");
        assert!(r.path.is_none());
    }

    #[test]
    fn trivial_and_error_cases() {
        let net = network();
        let r = CfzRouter::new()
            .route(&net, 1.into(), 1.into())
            .expect("ok");
        assert_eq!(r.cost(), Cost::ZERO);
        assert!(matches!(
            CfzRouter::new().route(&net, 0.into(), 99.into()),
            Err(WdmError::NodeOutOfRange { .. })
        ));
    }
}
