//! Property-based tests of the auxiliary-graph construction: the paper's
//! Observations 1–5 must hold on arbitrary random instances, and the
//! construction must be structurally sound (every edge connects the node
//! kinds the paper prescribes). The in-place, row-order build must put
//! every edge where a builder fed in the construction's insertion order,
//! or in any interleaving of its rows, puts it, and every edge must
//! decode to the role the construction gave it.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdm_core::csr::{CsrBuilder, CsrGraph, EdgeRole};
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::{
    AuxNodeKind, AuxiliaryGraph, ConversionMatrix, ConversionPolicy, Cost, Wavelength, WdmNetwork,
};
use wdm_graph::{topology, DiGraph, NodeId};

fn instance(seed: u64, n: usize, k: usize, p: f64) -> wdm_core::WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = topology::random_sparse(n, n / 2, 4, &mut rng).expect("feasible");
    random_network(
        graph,
        &InstanceConfig {
            k,
            availability: Availability::Probability(p),
            link_cost: (1, 50),
            conversion: ConversionSpec::Uniform { lo: 1, hi: 4 },
        },
        &mut rng,
    )
    .expect("valid")
}

/// One of the five conversion models, by index.
fn conversion_spec(which: usize) -> ConversionSpec {
    match which {
        0 => ConversionSpec::NoConversion,
        1 => ConversionSpec::AllFree,
        2 => ConversionSpec::Uniform { lo: 1, hi: 4 },
        3 => ConversionSpec::Banded {
            radius: 2,
            base: 1,
            slope: 2,
        },
        _ => ConversionSpec::RandomMatrix {
            density: 0.4,
            lo: 1,
            hi: 9,
        },
    }
}

/// A directed edge as the builder takes it, with the role the
/// construction gives it.
type Edge = (usize, usize, Cost, EdgeRole);

/// The construction's edges in its stable insertion order: every E_v
/// conversion node by node, every traversal in link order, then the taps
/// (`s'` then `t''`, or `v'` then `v''` per node). Node ids come from the
/// built graph's own mapping.
fn reference_edges(net: &WdmNetwork, aux: &AuxiliaryGraph) -> Vec<Edge> {
    let g = net.graph();
    let (x, y) = (
        |v: NodeId, w| aux.in_node(v, w).expect("x-node"),
        |v: NodeId, w| aux.out_node(v, w).expect("y-node"),
    );
    let mut edges = Vec::new();
    for v in g.nodes() {
        for from in net.lambda_in(v).iter() {
            for to in net.lambda_out(v).iter() {
                let cost = net.conversion_cost(v, from, to);
                if cost.is_finite() {
                    let role = EdgeRole::Conversion { node: v, from, to };
                    edges.push((x(v, from), y(v, to), cost, role));
                }
            }
        }
    }
    for (link, l) in g.links() {
        for (wavelength, cost) in net.wavelengths_on(link).iter() {
            let role = EdgeRole::Traversal { link, wavelength };
            edges.push((y(l.tail(), wavelength), x(l.head(), wavelength), cost, role));
        }
    }
    let mut taps = |source: Option<usize>, sink: Option<usize>, s: NodeId, t: NodeId| {
        if let Some(source) = source {
            for w in net.lambda_out(s).iter() {
                edges.push((source, y(s, w), Cost::ZERO, EdgeRole::Tap));
            }
        }
        if let Some(sink) = sink {
            for w in net.lambda_in(t).iter() {
                edges.push((x(t, w), sink, Cost::ZERO, EdgeRole::Tap));
            }
        }
    };
    if let (Some(source), Some(sink)) = (aux.super_source(), aux.super_sink()) {
        let (AuxNodeKind::Source { node: s }, AuxNodeKind::Sink { node: t }) =
            (aux.kind(source), aux.kind(sink))
        else {
            panic!("pair terminals have terminal kinds");
        };
        taps(Some(source), Some(sink), s, t);
    }
    for v in g.nodes() {
        taps(aux.source_terminal(v), aux.sink_terminal(v), v, v);
    }
    edges
}

/// `edges` in another order that keeps each source's own edges in
/// sequence: the rows interleave at random.
fn interleaved(edges: &[Edge], rng: &mut SmallRng) -> Vec<Edge> {
    let nodes = edges.iter().map(|e| e.0 + 1).max().unwrap_or(0);
    let mut rows: Vec<std::collections::VecDeque<Edge>> = vec![Default::default(); nodes];
    for &e in edges {
        rows[e.0].push_back(e);
    }
    let mut out = Vec::with_capacity(edges.len());
    let mut live: Vec<usize> = (0..nodes).filter(|&v| !rows[v].is_empty()).collect();
    while !live.is_empty() {
        let at = rng.gen_range(0..live.len());
        out.extend(rows[live[at]].pop_front());
        if rows[live[at]].is_empty() {
            live.swap_remove(at);
        }
    }
    out
}

fn build(nodes: usize, edges: &[Edge]) -> CsrGraph {
    let mut b = CsrBuilder::new(nodes);
    for &(s, t, c, _) in edges {
        b.add_edge(s, t, c);
    }
    b.build()
}

/// Every edge as `(source, index, target, cost)`.
fn dump(g: &CsrGraph) -> Vec<(usize, usize, usize, Cost)> {
    g.edges()
        .map(|(s, e)| (s, e.index, e.target, e.cost))
        .collect()
}

/// `edges` in dense-index order: a built graph's rows keep each source's
/// insertion order, so this is a stable sort by source.
fn in_rows(edges: &[Edge]) -> Vec<Edge> {
    let mut rows = edges.to_vec();
    rows.sort_by_key(|e| e.0);
    rows
}

/// `G'`, `G_{s,t}` and `G_all` of `net` each equal the graph built from
/// the reference insertion order and from an interleaving of its rows,
/// and each edge decodes to the role the reference gave it.
fn assert_row_order_build_matches(net: &WdmNetwork, s: NodeId, t: NodeId, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for aux in [
        AuxiliaryGraph::core(net),
        AuxiliaryGraph::for_pair(net, s, t),
        AuxiliaryGraph::for_all_pairs(net),
    ] {
        let g = aux.graph();
        let edges = reference_edges(net, &aux);
        let got = dump(g);
        assert_eq!(got, dump(&build(g.node_count(), &edges)), "reference order");
        let shuffled = interleaved(&edges, &mut rng);
        assert_eq!(
            got,
            dump(&build(g.node_count(), &shuffled)),
            "interleaved rows"
        );
        let conversions = edges
            .iter()
            .filter(|e| matches!(e.3, EdgeRole::Conversion { .. }))
            .count();
        assert_eq!(aux.stats().conversion_edges, conversions);
        assert_eq!(aux.stats().total_edges(), g.edge_count());
        let rows = in_rows(&edges);
        assert_eq!(rows.len(), g.edge_count());
        for (i, edge) in got.iter().enumerate() {
            let (source, e) = g.edge(i);
            assert_eq!((source, e.index, e.target, e.cost), *edge);
            let (s, t, c, role) = rows[i];
            assert_eq!((source, e.target, e.cost), (s, t, c), "edge {i}");
            assert_eq!(aux.edge_role(source, e), role, "role of edge {i}");
        }
    }
}

/// Parallel links 0→1, a link without wavelengths, and a policy of each
/// kind the random models do not draw per node.
#[test]
fn row_order_build_matches_on_a_handmade_network() {
    let g = DiGraph::from_links(4, [(0, 1), (0, 1), (1, 2), (2, 0), (1, 3), (3, 1), (2, 3)]);
    let mut matrix = ConversionMatrix::forbidden(4);
    matrix.set(Wavelength::new(3), Wavelength::new(0), Cost::new(2));
    matrix.set(Wavelength::new(1), Wavelength::new(2), Cost::new(5));
    let net = WdmNetwork::builder(g, 4)
        .link_wavelengths(0, [(0, 3), (2, 4)])
        .link_wavelengths(1, [(2, 1), (3, 9)])
        .link_wavelengths(2, [(0, 2), (1, 2), (3, 2)])
        .link_wavelengths(3, [(1, 6)])
        .link_wavelengths(4, [])
        .link_wavelengths(5, [(0, 1), (2, 8)])
        .link_wavelengths(6, [(3, 4)])
        .conversion(
            1,
            ConversionPolicy::Banded {
                radius: 1,
                base: Cost::new(1),
                slope: Cost::new(1),
            },
        )
        .conversion(2, ConversionPolicy::Matrix(matrix))
        .conversion(3, ConversionPolicy::Uniform(Cost::INFINITY))
        .build()
        .expect("valid");
    for (s, t) in [(0, 3), (1, 1), (3, 0)] {
        assert_row_order_build_matches(&net, NodeId::new(s), NodeId::new(t), 7);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The row-order build puts every edge where the construction's
    /// insertion order does, under all five conversion models, for bare,
    /// pair and all-pairs terminals.
    #[test]
    fn row_order_build_matches_insertion_order(
        seed in 0u64..10_000,
        n in 4usize..20,
        k in 1usize..7,
        p in 0.1f64..1.0,
        spec in 0usize..5,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graph = topology::random_sparse(n, n / 2, 4, &mut rng).expect("feasible");
        let config = InstanceConfig {
            k,
            availability: Availability::Probability(p),
            link_cost: (1, 50),
            conversion: conversion_spec(spec),
        };
        let net = random_network(graph, &config, &mut rng).expect("valid");
        let s = NodeId::new(rng.gen_range(0..n));
        let t = NodeId::new(rng.gen_range(0..n));
        assert_row_order_build_matches(&net, s, t, seed);
    }

    /// Observations 1–3: size bounds hold on arbitrary instances.
    #[test]
    fn observation_bounds_hold(
        seed in 0u64..10_000,
        n in 4usize..24,
        k in 1usize..8,
        p in 0.1f64..1.0,
    ) {
        let net = instance(seed, n, k, p);
        let aux = AuxiliaryGraph::core(&net);
        let stats = aux.stats();
        stats.check_paper_bounds().map_err(TestCaseError::fail)?;
        // Observation 1 per node.
        for v in net.graph().nodes() {
            prop_assert!(aux.x_len(v) + aux.y_len(v) <= 2 * k);
        }
        // |E_org| equals Σ|Λ(e)| exactly, not just bounded by it.
        prop_assert_eq!(stats.multigraph_links, net.multigraph_link_count());
        // Corrected Observation 5: |V'| ≤ 2·Σ|Λ(e)|.
        prop_assert!(stats.core_nodes <= 2 * net.multigraph_link_count());
    }

    /// Structural soundness: every edge runs between the node kinds the
    /// construction prescribes.
    #[test]
    fn edge_endpoints_have_correct_kinds(
        seed in 0u64..10_000,
        k in 1usize..6,
    ) {
        let net = instance(seed, 10, k, 0.5);
        let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 5.into());
        let g = aux.graph();
        for u in 0..g.node_count() {
            for edge in g.out_edges(u) {
                let from = aux.kind(u);
                let to = aux.kind(edge.target);
                match aux.edge_role(u, edge) {
                    EdgeRole::Conversion { node, from: fw, to: tw } => {
                        // X_v(λp) → Y_v(λq), same physical node.
                        let from_ok = matches!(
                            from,
                            AuxNodeKind::In { node: nf, wavelength } if nf == node && wavelength == fw
                        );
                        let to_ok = matches!(
                            to,
                            AuxNodeKind::Out { node: nt, wavelength } if nt == node && wavelength == tw
                        );
                        prop_assert!(from_ok, "conversion tail kind");
                        prop_assert!(to_ok, "conversion head kind");
                        // Cost matches the conversion function.
                        prop_assert_eq!(edge.cost, net.conversion_cost(node, fw, tw));
                    }
                    EdgeRole::Traversal { link, wavelength } => {
                        // Y_tail(λ) → X_head(λ), cost = w(e, λ).
                        let l = net.graph().link(link);
                        let from_ok = matches!(
                            from,
                            AuxNodeKind::Out { node, wavelength: w } if node == l.tail() && w == wavelength
                        );
                        let to_ok = matches!(
                            to,
                            AuxNodeKind::In { node, wavelength: w } if node == l.head() && w == wavelength
                        );
                        prop_assert!(from_ok, "traversal tail kind");
                        prop_assert!(to_ok, "traversal head kind");
                        prop_assert_eq!(edge.cost, net.link_cost(link, wavelength));
                    }
                    EdgeRole::Tap => {
                        prop_assert_eq!(edge.cost, wdm_core::Cost::ZERO);
                        let source_tap = matches!(from, AuxNodeKind::Source { .. })
                            && matches!(to, AuxNodeKind::Out { .. });
                        let sink_tap = matches!(from, AuxNodeKind::In { .. })
                            && matches!(to, AuxNodeKind::Sink { .. });
                        prop_assert!(source_tap || sink_tap, "tap edge shape");
                    }
                }
            }
        }
    }

    /// The pair construction and the all-pairs construction agree on the
    /// core: same `G'` sizes regardless of which terminals are attached.
    #[test]
    fn terminal_choice_does_not_change_the_core(seed in 0u64..10_000) {
        let net = instance(seed, 12, 4, 0.5);
        let core = AuxiliaryGraph::core(&net).stats();
        let pair = AuxiliaryGraph::for_pair(&net, 0.into(), 7.into()).stats();
        let all = AuxiliaryGraph::for_all_pairs(&net).stats();
        for s in [pair, all] {
            prop_assert_eq!(s.core_nodes, core.core_nodes);
            prop_assert_eq!(s.conversion_edges, core.conversion_edges);
            prop_assert_eq!(s.multigraph_links, core.multigraph_links);
        }
        prop_assert_eq!(pair.terminal_nodes, 2);
        prop_assert_eq!(all.terminal_nodes, 2 * net.node_count());
        prop_assert_eq!(all.tap_edges, all.core_nodes);
    }
}
