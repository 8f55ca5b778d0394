//! The paper's auxiliary-graph construction (Section III-A).
//!
//! Given the network `G` with per-link availability sets, the construction
//! proceeds conceptually through:
//!
//! 1. `G_M` — the wavelength-expanded multigraph (one parallel link per
//!    `(e, λ ∈ Λ(e))` pair). We never materialize it: its per-node
//!    wavelength sets `Λ_in(G_M, v)` / `Λ_out(G_M, v)` are all later stages
//!    need.
//! 2. `G_v = (X_v, Y_v, E_v)` — a bipartite *conversion gadget* per node:
//!    one `X_v` node per incoming wavelength, one `Y_v` node per outgoing
//!    wavelength, and an edge `x(λ) → y(λ')` when `λ = λ'` (cost 0) or the
//!    conversion `λ → λ'` is allowed at `v` (cost `c_v(λ, λ')`).
//! 3. `G'` — the union of all gadgets plus one *traversal* edge
//!    `y_u(λ) → x_v(λ)` of weight `w(e, λ)` per multigraph link
//!    `e = ⟨u, v⟩` carrying `λ`.
//! 4. `G_{s,t}` — `G'` plus a super-source `s'` (zero-cost taps into `Y_s`)
//!    and super-sink `t''` (zero-cost taps out of `X_t`); a shortest
//!    `s' → t''` path maps one-to-one onto an optimal semilightpath
//!    (Theorem 1).
//! 5. `G_all` — `G'` plus per-node terminals `v'`, `v''` for the all-pairs
//!    variant (Corollary 1).
//!
//! The size bounds the paper states as Observations 1–5 are exposed through
//! [`AuxStats`] and asserted in this module's tests and the E8 experiment.

use crate::csr::{CsrBuilder, CsrGraph, EdgeRole};
use crate::dijkstra::ShortestPathTree;
use crate::{Cost, Semilightpath, Wavelength, WdmNetwork};
use wdm_graph::NodeId;

/// Which terminals the auxiliary graph is equipped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Terminals {
    /// Bare `G'` (no terminals); useful for size experiments.
    None,
    /// `G_{s,t}`: super-source at `s`, super-sink at `t`.
    Pair { s: NodeId, t: NodeId },
    /// `G_all`: terminals `v'`/`v''` for every node.
    All,
}

/// What an auxiliary-graph node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuxNodeKind {
    /// An `X_v` node: `v` receiving on `wavelength`.
    In {
        /// The physical node.
        node: NodeId,
        /// The receiving wavelength.
        wavelength: Wavelength,
    },
    /// A `Y_v` node: `v` transmitting on `wavelength`.
    Out {
        /// The physical node.
        node: NodeId,
        /// The transmitting wavelength.
        wavelength: Wavelength,
    },
    /// A super-source terminal (`s'`, or `v'` in `G_all`).
    Source {
        /// The physical node it taps into.
        node: NodeId,
    },
    /// A super-sink terminal (`t''`, or `v''` in `G_all`).
    Sink {
        /// The physical node it taps out of.
        node: NodeId,
    },
}

/// Size accounting for the construction, mirroring Observations 1–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AuxStats {
    /// `n`, `m`, `k` of the underlying network.
    pub n: usize,
    /// Directed link count of `G`.
    pub m: usize,
    /// Global wavelength count.
    pub k: usize,
    /// The paper's `k0 = max_e |Λ(e)|`.
    pub k0: usize,
    /// `m₁ = |E_M| = Σ_e |Λ(e)| ≤ k·m` (also `= |E_org|`).
    pub multigraph_links: usize,
    /// `|V'| = Σ_v (|X_v| + |Y_v|) ≤ 2kn` (Observation 2).
    pub core_nodes: usize,
    /// `Σ_v |E_v| ≤ k²n` (Observations 1/2), or `≤ d²nk0²` (Observation 4).
    pub conversion_edges: usize,
    /// Terminal nodes added on top of `G'`.
    pub terminal_nodes: usize,
    /// Zero-cost tap edges added on top of `G'`.
    pub tap_edges: usize,
}

impl AuxStats {
    /// Total node count of the built search graph.
    pub fn total_nodes(&self) -> usize {
        self.core_nodes + self.terminal_nodes
    }

    /// Total edge count of the built search graph.
    pub fn total_edges(&self) -> usize {
        self.conversion_edges + self.multigraph_links + self.tap_edges
    }

    /// Checks the paper's size bounds (Observations 1–5 and the `G_{s,t}`
    /// bound of Section III-A); returns the first violated bound.
    pub fn check_paper_bounds(&self) -> Result<(), String> {
        let AuxStats { n, m, k, .. } = *self;
        if self.multigraph_links > k * m {
            return Err(format!(
                "|E_M| = {} exceeds km = {}",
                self.multigraph_links,
                k * m
            ));
        }
        if self.core_nodes > 2 * k * n {
            return Err(format!(
                "|V'| = {} exceeds 2kn = {}",
                self.core_nodes,
                2 * k * n
            ));
        }
        if self.conversion_edges > k * k * n {
            return Err(format!(
                "Σ|E_v| = {} exceeds k²n = {}",
                self.conversion_edges,
                k * k * n
            ));
        }
        Ok(())
    }
}

/// The built search graph with its node-meaning table and terminals.
///
/// # Examples
///
/// ```
/// use wdm_core::{AuxiliaryGraph, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 1.into());
/// // Y_0 = {λ0}, X_1 = {λ0}, plus s' and t''.
/// assert_eq!(aux.graph().node_count(), 4);
/// assert_eq!(aux.graph().edge_count(), 3); // tap + traversal + tap
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AuxiliaryGraph {
    graph: CsrGraph,
    kinds: Vec<AuxNodeKind>,
    /// `x_offset[v]` — first aux id of `X_v`; `X_v` ids are contiguous.
    x_offset: Vec<usize>,
    /// `y_offset[v]` — first aux id of `Y_v`.
    y_offset: Vec<usize>,
    /// Sorted incoming wavelengths per node (`Λ_in(G_M, v)`).
    in_wavelengths: Vec<Vec<Wavelength>>,
    /// Sorted outgoing wavelengths per node (`Λ_out(G_M, v)`).
    out_wavelengths: Vec<Vec<Wavelength>>,
    terminals: Terminals,
    /// First terminal id (== core node count).
    terminal_base: usize,
    stats: AuxStats,
}

impl AuxiliaryGraph {
    /// Builds the bare `G'` (no terminals).
    pub fn core(network: &WdmNetwork) -> Self {
        Self::build(network, Terminals::None)
    }

    /// Builds `G_{s,t}` for the query `s → t` (Theorem 1).
    pub fn for_pair(network: &WdmNetwork, s: NodeId, t: NodeId) -> Self {
        Self::build(network, Terminals::Pair { s, t })
    }

    /// Builds `G_all` with per-node terminals `v'`, `v''` (Corollary 1).
    pub fn for_all_pairs(network: &WdmNetwork) -> Self {
        Self::build(network, Terminals::All)
    }

    fn build(network: &WdmNetwork, terminals: Terminals) -> Self {
        let g = network.graph();
        let n = g.node_count();

        // Λ_in(G_M, v) and Λ_out(G_M, v) for every node, sorted.
        let mut in_wavelengths: Vec<Vec<Wavelength>> = Vec::with_capacity(n);
        let mut out_wavelengths: Vec<Vec<Wavelength>> = Vec::with_capacity(n);
        for v in g.nodes() {
            in_wavelengths.push(network.lambda_in(v).iter().collect());
            out_wavelengths.push(network.lambda_out(v).iter().collect());
        }

        // Number the core nodes: X_v then Y_v, per node in order.
        let mut x_offset = vec![0usize; n];
        let mut y_offset = vec![0usize; n];
        let mut next = 0usize;
        let mut kinds = Vec::new();
        for v in 0..n {
            x_offset[v] = next;
            for &w in &in_wavelengths[v] {
                kinds.push(AuxNodeKind::In {
                    node: NodeId::new(v),
                    wavelength: w,
                });
            }
            next += in_wavelengths[v].len();
            y_offset[v] = next;
            for &w in &out_wavelengths[v] {
                kinds.push(AuxNodeKind::Out {
                    node: NodeId::new(v),
                    wavelength: w,
                });
            }
            next += out_wavelengths[v].len();
        }
        let core_nodes = next;
        let terminal_base = core_nodes;
        let terminal_nodes = match terminals {
            Terminals::None => 0,
            Terminals::Pair { .. } => 2,
            Terminals::All => 2 * n,
        };
        match terminals {
            Terminals::None => {}
            Terminals::Pair { s, t } => {
                kinds.push(AuxNodeKind::Source { node: s });
                kinds.push(AuxNodeKind::Sink { node: t });
            }
            Terminals::All => {
                for v in 0..n {
                    kinds.push(AuxNodeKind::Source {
                        node: NodeId::new(v),
                    });
                    kinds.push(AuxNodeKind::Sink {
                        node: NodeId::new(v),
                    });
                }
            }
        }

        let mut builder = CsrBuilder::new(core_nodes + terminal_nodes);

        // E_v: conversion gadget edges.
        let mut conversion_edges = 0usize;
        for v in 0..n {
            let node = NodeId::new(v);
            let policy = network.conversion_at(node);
            for (xi, &from) in in_wavelengths[v].iter().enumerate() {
                for (yi, &to) in out_wavelengths[v].iter().enumerate() {
                    let cost = policy.cost(from, to);
                    if cost.is_finite() {
                        builder.add_edge(
                            x_offset[v] + xi,
                            y_offset[v] + yi,
                            cost,
                            EdgeRole::Conversion { node, from, to },
                        );
                        conversion_edges += 1;
                    }
                }
            }
        }

        // E_org: traversal edges, one per (link, available wavelength).
        let mut multigraph_links = 0usize;
        for (link, l) in g.links() {
            let u = l.tail().index();
            let v = l.head().index();
            for (w, cost) in network.wavelengths_on(link).iter() {
                let yi = index_of(&out_wavelengths[u], w);
                let xi = index_of(&in_wavelengths[v], w);
                builder.add_edge(
                    y_offset[u] + yi,
                    x_offset[v] + xi,
                    cost,
                    EdgeRole::Traversal {
                        link,
                        wavelength: w,
                    },
                );
                multigraph_links += 1;
            }
        }

        // Terminal taps.
        let mut tap_edges = 0usize;
        match terminals {
            Terminals::None => {}
            Terminals::Pair { s, t } => {
                let s_id = terminal_base;
                let t_id = terminal_base + 1;
                for yi in 0..out_wavelengths[s.index()].len() {
                    builder.add_edge(s_id, y_offset[s.index()] + yi, Cost::ZERO, EdgeRole::Tap);
                    tap_edges += 1;
                }
                for xi in 0..in_wavelengths[t.index()].len() {
                    builder.add_edge(x_offset[t.index()] + xi, t_id, Cost::ZERO, EdgeRole::Tap);
                    tap_edges += 1;
                }
            }
            Terminals::All => {
                for v in 0..n {
                    let v_src = terminal_base + 2 * v;
                    let v_snk = terminal_base + 2 * v + 1;
                    for yi in 0..out_wavelengths[v].len() {
                        builder.add_edge(v_src, y_offset[v] + yi, Cost::ZERO, EdgeRole::Tap);
                        tap_edges += 1;
                    }
                    for xi in 0..in_wavelengths[v].len() {
                        builder.add_edge(x_offset[v] + xi, v_snk, Cost::ZERO, EdgeRole::Tap);
                        tap_edges += 1;
                    }
                }
            }
        }

        let stats = AuxStats {
            n,
            m: g.link_count(),
            k: network.k(),
            k0: network.k0(),
            multigraph_links,
            core_nodes,
            conversion_edges,
            terminal_nodes,
            tap_edges,
        };

        AuxiliaryGraph {
            graph: builder.build(),
            kinds,
            x_offset,
            y_offset,
            in_wavelengths,
            out_wavelengths,
            terminals,
            terminal_base,
            stats,
        }
    }

    /// The underlying CSR search graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Size accounting (Observations 1–5).
    pub fn stats(&self) -> AuxStats {
        self.stats
    }

    /// Meaning of an auxiliary node.
    ///
    /// # Panics
    ///
    /// Panics if `aux_id` is out of range.
    pub fn kind(&self, aux_id: usize) -> AuxNodeKind {
        self.kinds[aux_id]
    }

    /// The super-source `s'` (for a [`AuxiliaryGraph::for_pair`] graph).
    pub fn super_source(&self) -> Option<usize> {
        match self.terminals {
            Terminals::Pair { .. } => Some(self.terminal_base),
            _ => None,
        }
    }

    /// The super-sink `t''` (for a [`AuxiliaryGraph::for_pair`] graph).
    pub fn super_sink(&self) -> Option<usize> {
        match self.terminals {
            Terminals::Pair { .. } => Some(self.terminal_base + 1),
            _ => None,
        }
    }

    /// The `(s', t'')` super-terminal pair, for graphs built with
    /// [`AuxiliaryGraph::for_pair`].
    ///
    /// Infallible counterpart of [`super_source`](Self::super_source)/
    /// [`super_sink`](Self::super_sink) for callers that already hold a
    /// pair graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph was built without super-terminals
    /// ([`core`](Self::core) or [`for_all_pairs`](Self::for_all_pairs)).
    pub fn pair_terminals(&self) -> (usize, usize) {
        assert!(
            matches!(self.terminals, Terminals::Pair { .. }),
            "pair_terminals requires a graph built with for_pair"
        );
        (self.terminal_base, self.terminal_base + 1)
    }

    /// The terminal `v'` of `node` (for a [`AuxiliaryGraph::for_all_pairs`]
    /// graph).
    pub fn source_terminal(&self, node: NodeId) -> Option<usize> {
        match self.terminals {
            Terminals::All => Some(self.terminal_base + 2 * node.index()),
            _ => None,
        }
    }

    /// The terminal `v''` of `node` (for a
    /// [`AuxiliaryGraph::for_all_pairs`] graph).
    pub fn sink_terminal(&self, node: NodeId) -> Option<usize> {
        match self.terminals {
            Terminals::All => Some(self.terminal_base + 2 * node.index() + 1),
            _ => None,
        }
    }

    /// The `(v', v'')` terminal pair of `node`, for graphs built with
    /// [`AuxiliaryGraph::for_all_pairs`].
    ///
    /// Infallible counterpart of
    /// [`source_terminal`](Self::source_terminal)/
    /// [`sink_terminal`](Self::sink_terminal) for callers that already
    /// hold an all-pairs graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph was built without per-node terminals
    /// ([`core`](Self::core) or [`for_pair`](Self::for_pair)).
    pub fn all_pairs_terminals(&self, node: NodeId) -> (usize, usize) {
        assert!(
            matches!(self.terminals, Terminals::All),
            "all_pairs_terminals requires a graph built with for_all_pairs"
        );
        let base = self.terminal_base + 2 * node.index();
        (base, base + 1)
    }

    /// The `X_v` node for `(node, wavelength)`, if `wavelength ∈
    /// Λ_in(G_M, node)`.
    pub fn in_node(&self, node: NodeId, wavelength: Wavelength) -> Option<usize> {
        let v = node.index();
        self.in_wavelengths[v]
            .binary_search(&wavelength)
            .ok()
            .map(|i| self.x_offset[v] + i)
    }

    /// The `Y_v` node for `(node, wavelength)`, if `wavelength ∈
    /// Λ_out(G_M, node)`.
    pub fn out_node(&self, node: NodeId, wavelength: Wavelength) -> Option<usize> {
        let v = node.index();
        self.out_wavelengths[v]
            .binary_search(&wavelength)
            .ok()
            .map(|i| self.y_offset[v] + i)
    }

    /// `|X_v|` — the number of distinct incoming wavelengths of `node`.
    pub fn x_len(&self, node: NodeId) -> usize {
        self.in_wavelengths[node.index()].len()
    }

    /// `|Y_v|` — the number of distinct outgoing wavelengths of `node`.
    pub fn y_len(&self, node: NodeId) -> usize {
        self.out_wavelengths[node.index()].len()
    }

    /// Decodes a shortest-path tree rooted at a source terminal into the
    /// semilightpath reaching `sink` (an aux node id, normally a sink
    /// terminal), or `None` when unreachable.
    ///
    /// The decoded path records exactly the traversal edges
    /// (link, wavelength) in travel order — the mapping of Theorem 1 — and
    /// carries the tree's distance as its cost.
    pub fn extract_semilightpath(
        &self,
        tree: &ShortestPathTree,
        sink: usize,
    ) -> Option<Semilightpath> {
        self.extract_semilightpath_from(&tree.dist, &tree.parent, sink)
    }

    /// [`extract_semilightpath`](Self::extract_semilightpath) over raw
    /// `dist`/`parent` slices, so a
    /// [`DijkstraWorkspace`](crate::dijkstra::DijkstraWorkspace) result can
    /// be decoded in place without materializing a tree.
    pub fn extract_semilightpath_from(
        &self,
        dist: &[Cost],
        parent: &[Option<(usize, usize)>],
        sink: usize,
    ) -> Option<Semilightpath> {
        self.graph.decode_semilightpath(dist, parent, sink)
    }
}

fn index_of(sorted: &[Wavelength], w: Wavelength) -> usize {
    match sorted.binary_search(&w) {
        Ok(i) => i,
        Err(_) => unreachable!("wavelength present by construction of Λ_in/Λ_out"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, WdmNetwork};
    use wdm_graph::DiGraph;

    /// 0 →e0→ 1 →e1→ 2 with λ0 on e0, {λ0, λ1} on e1; uniform conversion.
    fn chain() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(0, 20), (1, 2)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn core_sizes_match_hand_count() {
        let net = chain();
        let aux = AuxiliaryGraph::core(&net);
        let s = aux.stats();
        // X_0 = ∅, Y_0 = {λ0}; X_1 = {λ0}, Y_1 = {λ0, λ1}; X_2 = {λ0, λ1}, Y_2 = ∅.
        assert_eq!(s.core_nodes, 6);
        // E_1 = {λ0→λ0, λ0→λ1} (uniform conversion allows both).
        assert_eq!(s.conversion_edges, 2);
        // E_org: e0 carries 1 wavelength, e1 carries 2.
        assert_eq!(s.multigraph_links, 3);
        assert_eq!(s.terminal_nodes, 0);
        assert_eq!(s.tap_edges, 0);
        s.check_paper_bounds().expect("bounds hold");
    }

    #[test]
    fn node_kind_mapping_round_trips() {
        let net = chain();
        let aux = AuxiliaryGraph::core(&net);
        for v in net.graph().nodes() {
            for w in net.lambda_in(v).iter() {
                let id = aux.in_node(v, w).expect("x-node exists");
                assert_eq!(
                    aux.kind(id),
                    AuxNodeKind::In {
                        node: v,
                        wavelength: w
                    }
                );
            }
            for w in net.lambda_out(v).iter() {
                let id = aux.out_node(v, w).expect("y-node exists");
                assert_eq!(
                    aux.kind(id),
                    AuxNodeKind::Out {
                        node: v,
                        wavelength: w
                    }
                );
            }
        }
        assert_eq!(aux.in_node(NodeId::new(0), Wavelength::new(0)), None);
        assert_eq!(aux.out_node(NodeId::new(2), Wavelength::new(0)), None);
    }

    #[test]
    fn pair_terminals_and_taps() {
        let net = chain();
        let aux = AuxiliaryGraph::for_pair(&net, NodeId::new(0), NodeId::new(2));
        let s = aux.stats();
        assert_eq!(s.terminal_nodes, 2);
        // |Y_0| = 1 source tap, |X_2| = 2 sink taps.
        assert_eq!(s.tap_edges, 3);
        let sp = aux.super_source().expect("has source");
        let sk = aux.super_sink().expect("has sink");
        assert!(matches!(aux.kind(sp), AuxNodeKind::Source { .. }));
        assert!(matches!(aux.kind(sk), AuxNodeKind::Sink { .. }));
        assert_eq!(aux.graph().out_edges(sp).len(), 1);
        assert_eq!(aux.source_terminal(NodeId::new(0)), None);
    }

    #[test]
    fn all_pairs_terminals() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let s = aux.stats();
        assert_eq!(s.terminal_nodes, 6);
        // Taps: Σ (|X_v| + |Y_v|) = core_nodes.
        assert_eq!(s.tap_edges, s.core_nodes);
        assert!(aux.super_source().is_none());
        for v in net.graph().nodes() {
            let src = aux.source_terminal(v).expect("v' exists");
            let snk = aux.sink_terminal(v).expect("v'' exists");
            assert!(matches!(aux.kind(src), AuxNodeKind::Source { node } if node == v));
            assert!(matches!(aux.kind(snk), AuxNodeKind::Sink { node } if node == v));
        }
    }

    #[test]
    fn forbidden_conversion_omits_gadget_edge() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            // node 1: Forbidden (default) → only λ=λ' edges, none here.
            .build()
            .expect("valid");
        let aux = AuxiliaryGraph::core(&net);
        assert_eq!(aux.stats().conversion_edges, 0);
    }

    #[test]
    fn identity_conversion_edge_has_zero_cost() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 5)])
            .link_wavelengths(1, [(0, 7)])
            .build()
            .expect("valid");
        let aux = AuxiliaryGraph::core(&net);
        assert_eq!(aux.stats().conversion_edges, 1);
        let x = aux.in_node(NodeId::new(1), Wavelength::new(0)).expect("x");
        let e: Vec<_> = aux.graph().out_edges(x).collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].cost, Cost::ZERO);
        assert!(matches!(e[0].role, EdgeRole::Conversion { .. }));
    }

    #[test]
    fn stats_bound_checker_detects_violations() {
        let bad = AuxStats {
            n: 2,
            m: 1,
            k: 1,
            k0: 1,
            multigraph_links: 5, // > km = 1
            ..AuxStats::default()
        };
        assert!(bad.check_paper_bounds().is_err());
    }
}
