//! Canonical-path properties of the targeted search kernel.
//!
//! A targeted run compares labels as `(cost, hops)` and keeps, among a
//! node's equally good in-edges, the one with the smallest edge index,
//! so the path it returns depends only on the graph, the busy mask and
//! the endpoints. These properties pin that on random networks with
//! zero-cost links (so zero-cost cycles and many equal-cost routes
//! occur), random busy masks and cut links:
//!
//! * the goal-directed engine route, the same kernel run with a
//!   test-built potential, and the unguided kernel return the very same
//!   path through the Binary, Fibonacci and Array heaps, whose settle
//!   orders differ;
//! * cost and blocked verdict match the independent state-space solver
//!   [`wdm_core::reference::reference_route`];
//! * each single-wavelength route matches the unguided kernel on a
//!   rebuilt per-λ graph;
//! * a tight zero-cost cycle on a shortest path terminates and decodes
//!   to a valid path.
//!
//! `WDM_TEST_SEED` replays one case stream.

use heaps::{ArrayHeap, BinaryHeap, FibonacciHeap, IndexedPriorityQueue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdm_core::csr::{CsrBuilder, EdgeMask, EdgeRole};
use wdm_core::dijkstra::{dijkstra, DijkstraWorkspace, Potential, SearchKey};
use wdm_core::{
    reference, AuxiliaryGraph, ConversionPolicy, Cost, ResidualState, SearchScratch, Semilightpath,
    Wavelength, WdmNetwork,
};
use wdm_graph::{DiGraph, LinkId, NodeId};

/// A random network on 2–7 nodes: parallel and antiparallel links,
/// link costs in 0..=3 (zero about a quarter of the time), and per-node
/// converters that are absent, free or cheap.
fn network(rng: &mut SmallRng) -> WdmNetwork {
    let n = rng.gen_range(2..=7usize);
    let k = rng.gen_range(1..=3usize);
    let m = rng.gen_range(n..=3 * n);
    let mut links = Vec::with_capacity(m);
    while links.len() < m {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        if u != v {
            links.push((u, v));
        }
    }
    let mut b = WdmNetwork::builder(DiGraph::from_links(n, links), k);
    for link in 0..m {
        let mut entries: Vec<(usize, u64)> = Vec::new();
        for w in 0..k {
            if rng.gen_bool(0.7) {
                entries.push((w, rng.gen_range(0..=3u64)));
            }
        }
        if entries.is_empty() {
            entries.push((rng.gen_range(0..k), rng.gen_range(0..=3u64)));
        }
        b = b.link_wavelengths(link, entries);
    }
    for v in 0..n {
        let policy = match rng.gen_range(0..4u32) {
            0 => ConversionPolicy::Forbidden,
            1 => ConversionPolicy::Free,
            _ => ConversionPolicy::Uniform(Cost::new(rng.gen_range(0..=2u64))),
        };
        b = b.conversion(v, policy);
    }
    b.build().expect("valid random network")
}

/// A consistent potential built independently of the engine's: the
/// distance to `t` over the reversed physical graph at each link's
/// cheapest wavelength, indexed by aux node through its physical node.
struct TestPotential {
    phys: Vec<usize>,
    h: Vec<Cost>,
}

impl TestPotential {
    fn new(net: &WdmNetwork, aux: &AuxiliaryGraph, t: NodeId) -> Self {
        let mut b = CsrBuilder::new(net.node_count());
        for (e, l) in net.graph().links() {
            if let Some(w) = net.wavelengths_on(e).iter().map(|(_, c)| c).min() {
                b.add_edge(l.head().index(), l.tail().index(), w, EdgeRole::Tap);
            }
        }
        let h = dijkstra::<BinaryHeap<Cost>>(&b.build(), t.index()).dist;
        let phys = (0..aux.graph().node_count())
            .map(|v| match aux.kind(v) {
                wdm_core::AuxNodeKind::In { node, .. }
                | wdm_core::AuxNodeKind::Out { node, .. }
                | wdm_core::AuxNodeKind::Source { node }
                | wdm_core::AuxNodeKind::Sink { node } => node.index(),
            })
            .collect();
        TestPotential { phys, h }
    }
}

impl Potential for TestPotential {
    fn at(&self, node: usize) -> Cost {
        self.h[self.phys[node]]
    }
}

/// The targeted kernel on `G_all` through heap `Q`, decoded.
fn kernel_route<Q: IndexedPriorityQueue<SearchKey>, P: Potential>(
    aux: &AuxiliaryGraph,
    mask: &EdgeMask,
    s: NodeId,
    t: NodeId,
    potential: &P,
) -> Option<Semilightpath> {
    let g = aux.graph();
    let (source, _) = aux.all_pairs_terminals(s);
    let (_, sink) = aux.all_pairs_terminals(t);
    let mut ws = DijkstraWorkspace::new();
    let mut queue = Q::with_capacity(g.node_count());
    ws.run_guided_to(g, source, &mut queue, Some(mask), sink, potential);
    aux.extract_semilightpath_from(ws.dist(), ws.parent(), sink)
}

/// Checks every kernel and heap against each other and the reference
/// on one random case; returns how many queries routed.
fn check_case(seed: u64) -> Result<usize, TestCaseError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = network(&mut rng);
    let aux = AuxiliaryGraph::for_all_pairs(&net);
    let engine = ResidualState::new(&net);
    let mut scratch = SearchScratch::for_state(&engine);

    // Random busy (link, λ) pairs, plus whole links cut the way the
    // engine marks a fibre cut: every wavelength busy.
    let mut busy = vec![vec![false; net.k()]; net.link_count()];
    let cuts: Vec<usize> = (0..net.link_count())
        .filter(|_| rng.gen_bool(0.1))
        .collect();
    for (e, _) in net.graph().links() {
        let cut = cuts.contains(&e.index());
        for (w, _) in net.wavelengths_on(e).iter() {
            if cut || rng.gen_bool(0.25) {
                busy[e.index()][w.index()] = true;
                engine.try_acquire(e, w);
            }
        }
    }
    let mut mask = EdgeMask::all_clear(aux.graph().edge_count());
    for i in 0..aux.graph().edge_count() {
        if let EdgeRole::Traversal { link, wavelength } = aux.graph().edge(i).1.role {
            if busy[link.index()][wavelength.index()] {
                mask.set(i);
            }
        }
    }
    let residual = net.restrict(|link: LinkId, w: Wavelength| !busy[link.index()][w.index()]);

    let mut routed = 0;
    for s in 0..net.node_count() {
        for t in 0..net.node_count() {
            if s == t {
                continue;
            }
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            let guided = engine.route_optimal(&mut scratch, s, t);
            let h = TestPotential::new(&net, &aux, t);
            let others = [
                (
                    "unguided binary",
                    kernel_route::<BinaryHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
                ),
                (
                    "unguided fibonacci",
                    kernel_route::<FibonacciHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
                ),
                (
                    "unguided array",
                    kernel_route::<ArrayHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
                ),
                (
                    "guided binary",
                    kernel_route::<BinaryHeap<_>, _>(&aux, &mask, s, t, &h),
                ),
                (
                    "guided fibonacci",
                    kernel_route::<FibonacciHeap<_>, _>(&aux, &mask, s, t, &h),
                ),
                (
                    "guided array",
                    kernel_route::<ArrayHeap<_>, _>(&aux, &mask, s, t, &h),
                ),
            ];
            for (label, path) in &others {
                prop_assert_eq!(path, &guided, "seed {} {:?}->{:?}: {}", seed, s, t, label);
            }
            let oracle = reference::reference_route(&residual, s, t).expect("endpoints in range");
            prop_assert_eq!(
                guided.as_ref().map(Semilightpath::cost),
                oracle.as_ref().map(Semilightpath::cost),
                "seed {} {:?}->{:?}: cost or blocked verdict",
                seed,
                s,
                t
            );
            if let Some(path) = &guided {
                prop_assert!(
                    path.validate(&residual).is_ok(),
                    "seed {}: {:?}",
                    seed,
                    path
                );
                routed += 1;
            }
            for lambda in 0..net.k() {
                let lambda = Wavelength::new(lambda);
                let guided = engine.route_single_wavelength(&mut scratch, s, t, lambda);
                for unguided in [
                    lambda_route::<BinaryHeap<_>>(&net, &busy, s, t, lambda),
                    lambda_route::<FibonacciHeap<_>>(&net, &busy, s, t, lambda),
                ] {
                    prop_assert_eq!(
                        &unguided,
                        &guided,
                        "seed {} {:?}->{:?} on {:?}",
                        seed,
                        s,
                        t,
                        lambda
                    );
                }
            }
        }
    }
    Ok(routed)
}

/// The unguided kernel on a rebuilt single-wavelength graph (links in
/// link order, as the engine lays its per-λ graphs out), decoded.
fn lambda_route<Q: IndexedPriorityQueue<SearchKey>>(
    net: &WdmNetwork,
    busy: &[Vec<bool>],
    s: NodeId,
    t: NodeId,
    lambda: Wavelength,
) -> Option<Semilightpath> {
    let mut b = CsrBuilder::new(net.node_count());
    for (e, l) in net.graph().links() {
        let w = net.link_cost(e, lambda);
        if w.is_finite() {
            let role = EdgeRole::Traversal {
                link: e,
                wavelength: lambda,
            };
            b.add_edge(l.tail().index(), l.head().index(), w, role);
        }
    }
    let g = b.build();
    let mut mask = EdgeMask::all_clear(g.edge_count());
    for i in 0..g.edge_count() {
        if let EdgeRole::Traversal { link, .. } = g.edge(i).1.role {
            if busy[link.index()][lambda.index()] {
                mask.set(i);
            }
        }
    }
    let mut ws = DijkstraWorkspace::new();
    let mut queue = Q::with_capacity(g.node_count());
    ws.run_guided_to(
        &g,
        s.index(),
        &mut queue,
        Some(&mask),
        t.index(),
        &wdm_core::Unguided,
    );
    let total = ws.dist()[t.index()];
    if total.is_infinite() {
        return None;
    }
    let mut hops = Vec::new();
    let mut at = t.index();
    while let Some((prev, edge)) = ws.parent()[at] {
        if let EdgeRole::Traversal { link, wavelength } = g.edge(edge).1.role {
            hops.push(wdm_core::Hop { link, wavelength });
        }
        at = prev;
    }
    hops.reverse();
    Some(Semilightpath::new(hops, total))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn guided_and_unguided_paths_are_identical_across_heaps(seed in 0u64..u64::MAX) {
        check_case(seed)?;
    }
}

#[test]
fn random_cases_route_most_queries() {
    // Guard against a generator that only ever blocks: the identity
    // checks above would then compare `None`s.
    let routed: usize = (0..24)
        .map(|seed| check_case(seed).expect("case holds"))
        .sum();
    assert!(routed > 200, "only {routed} queries routed");
}

#[test]
fn zero_cost_cycle_on_a_shortest_path_terminates() {
    // 0 → 1 ⇄ 2 → 3 with the 1 ⇄ 2 links free on λ0 and free
    // conversion everywhere: `x_1, y_1, x_2, y_2` all tie at cost 1, and
    // the 1 → 2 → 1 zero-cost loop is as cheap as going straight on.
    let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 1), (2, 3), (1, 3)]);
    let net = WdmNetwork::builder(g, 2)
        .link_wavelengths(0, [(0, 1), (1, 1)])
        .link_wavelengths(1, [(0, 0), (1, 0)])
        .link_wavelengths(2, [(0, 0), (1, 0)])
        .link_wavelengths(3, [(0, 0), (1, 0)])
        .link_wavelengths(4, [(1, 0)])
        .uniform_conversion(ConversionPolicy::Free)
        .build()
        .expect("valid");
    let aux = AuxiliaryGraph::for_all_pairs(&net);
    let mask = EdgeMask::all_clear(aux.graph().edge_count());
    let engine = ResidualState::new(&net);
    let mut scratch = SearchScratch::for_state(&engine);
    for (s, t) in [(0, 3), (0, 2), (0, 1), (1, 3), (2, 3)] {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        let path = engine.route_optimal(&mut scratch, s, t).expect("connected");
        path.validate(&net).expect("valid path");
        assert_eq!(
            path.cost(),
            if s.index() == 0 {
                Cost::new(1)
            } else {
                Cost::ZERO
            }
        );
        // The label order prefers fewer hops, so the loop is never taken.
        assert!(path.len() <= 2, "{path:?}");
        for unguided in [
            kernel_route::<BinaryHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
            kernel_route::<FibonacciHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
            kernel_route::<ArrayHeap<_>, _>(&aux, &mask, s, t, &wdm_core::Unguided),
        ] {
            assert_eq!(unguided.as_ref(), Some(&path));
        }
    }
}
