//! Canonical-path properties of the targeted search kernel.
//!
//! A targeted run compares labels as `(cost, hops)` and keeps, among a
//! node's equally good in-edges, the one with the smallest edge index,
//! so the path it returns depends only on the graph, the busy mask and
//! the endpoints. The production kernel
//! ([`DijkstraWorkspace::run_guided_to`]: a lazy frontier of packed
//! keys that stops once the target's label is final) is checked against
//! the heap-generic decrease-key loop it replaced,
//! [`reference::guided_search`], on random networks with zero-cost
//! links (so zero-cost cycles and many equal-cost routes occur), random
//! busy masks and cut links:
//!
//! * the reference loop returns one path through the Binary, Fibonacci
//!   and Array heaps, whose settle orders differ, guided by a test-built
//!   potential and unguided;
//! * the goal-directed engine route, the production kernel with the
//!   test-built potential, and the production kernel unguided, each
//!   with `G_all`'s gadget layout and with none, all return that very
//!   path;
//! * the engine's search (which reads each uniform conversion gadget as
//!   a block) settles, pushes and decreases exactly as often as the
//!   kernel searching edge by edge with the same potential, and relaxes
//!   no more edges;
//! * cost and blocked verdict match the independent state-space solver
//!   [`reference::reference_route`];
//! * each single-wavelength route matches the reference loop and the
//!   unguided production kernel on a rebuilt per-λ graph;
//! * a tight zero-cost cycle on a shortest path terminates and decodes
//!   to a valid path.
//!
//! `WDM_TEST_SEED` replays one case stream.

use heaps::{ArrayHeap, BinaryHeap, FibonacciHeap, IndexedPriorityQueue};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wdm_core::csr::{CsrBuilder, CsrGraph, EdgeMask, EdgeRole};
use wdm_core::dijkstra::{dijkstra, DijkstraWorkspace, Potential};
use wdm_core::{
    reference, AuxiliaryGraph, ConversionMatrix, ConversionPolicy, Cost, GadgetLayout, NoGadgets,
    ResidualState, SearchScratch, SearchStats, Semilightpath, Unguided, Wavelength, WdmNetwork,
};
use wdm_graph::{DiGraph, LinkId, NodeId};

/// A random network on 2–7 nodes: parallel and antiparallel links,
/// link costs in 0..=3 (zero about a quarter of the time), and per-node
/// converters that are absent, free, cheap and uniform, infinitely
/// dear, limited-range or given by a matrix, so that gadgets the search
/// reads as blocks and gadgets it searches edge by edge meet in one
/// network.
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
        let policy = match rng.gen_range(0..8u32) {
            0 => ConversionPolicy::Forbidden,
            1 => ConversionPolicy::Free,
            2 => ConversionPolicy::Uniform(Cost::INFINITY),
            3 => ConversionPolicy::Banded {
                radius: rng.gen_range(0..k),
                base: Cost::new(rng.gen_range(0..=2u64)),
                slope: Cost::new(rng.gen_range(0..=1u64)),
            },
            4 => {
                let mut m = ConversionMatrix::forbidden(k);
                for from in 0..k {
                    for to in 0..k {
                        if from != to && rng.gen_bool(0.6) {
                            let cost = Cost::new(rng.gen_range(0..=2u64));
                            m.set(Wavelength::new(from), Wavelength::new(to), cost);
                        }
                    }
                }
                ConversionPolicy::Matrix(m)
            }
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
                b.add_edge(l.head().index(), l.tail().index(), w);
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

/// The production kernel on `G_all` with gadget layout `layout`,
/// decoded.
fn kernel_route<P: Potential, L: GadgetLayout>(
    aux: &AuxiliaryGraph,
    mask: &EdgeMask,
    s: NodeId,
    t: NodeId,
    potential: &P,
    layout: &L,
) -> Option<Semilightpath> {
    kernel_run(aux, mask, s, t, potential, layout).0
}

/// [`kernel_route`] with the run's counters.
fn kernel_run<P: Potential, L: GadgetLayout>(
    aux: &AuxiliaryGraph,
    mask: &EdgeMask,
    s: NodeId,
    t: NodeId,
    potential: &P,
    layout: &L,
) -> (Option<Semilightpath>, SearchStats) {
    let g = aux.graph();
    let (source, _) = aux.all_pairs_terminals(s);
    let (_, sink) = aux.all_pairs_terminals(t);
    let mut ws = DijkstraWorkspace::new();
    ws.run_guided_to(g, source, Some(mask), sink, potential, layout);
    let path = aux.extract_semilightpath_from(ws.dist(), ws.parent(), sink);
    (path, ws.stats())
}

/// The reference loop on `G_all` through heap `Q`, decoded.
fn reference_loop<Q: IndexedPriorityQueue<(Cost, u32)>, P: Potential>(
    aux: &AuxiliaryGraph,
    mask: &EdgeMask,
    s: NodeId,
    t: NodeId,
    potential: &P,
) -> Option<Semilightpath> {
    let (source, _) = aux.all_pairs_terminals(s);
    let (_, sink) = aux.all_pairs_terminals(t);
    let tree = reference::guided_search::<Q, P>(aux.graph(), source, Some(mask), sink, potential);
    aux.extract_semilightpath(&tree, sink)
}

/// The reference loop through all three heaps, guided by `h` and
/// unguided: checks that the six agree and returns their path.
fn reference_path(
    aux: &AuxiliaryGraph,
    mask: &EdgeMask,
    s: NodeId,
    t: NodeId,
    h: &TestPotential,
) -> Result<Option<Semilightpath>, TestCaseError> {
    let expected = reference_loop::<BinaryHeap<_>, _>(aux, mask, s, t, &Unguided);
    let others = [
        (
            "fibonacci unguided",
            reference_loop::<FibonacciHeap<_>, _>(aux, mask, s, t, &Unguided),
        ),
        (
            "array unguided",
            reference_loop::<ArrayHeap<_>, _>(aux, mask, s, t, &Unguided),
        ),
        (
            "binary guided",
            reference_loop::<BinaryHeap<_>, _>(aux, mask, s, t, h),
        ),
        (
            "fibonacci guided",
            reference_loop::<FibonacciHeap<_>, _>(aux, mask, s, t, h),
        ),
        (
            "array guided",
            reference_loop::<ArrayHeap<_>, _>(aux, mask, s, t, h),
        ),
    ];
    for (label, path) in &others {
        prop_assert_eq!(path, &expected, "{:?}->{:?}: reference {}", s, t, label);
    }
    Ok(expected)
}

/// Checks the engine and the production kernel against the reference
/// loop and the state-space solver on one random case; returns how many
/// queries routed.
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
    for (tail, e) in aux.graph().edges() {
        if let EdgeRole::Traversal { link, wavelength } = aux.edge_role(tail, e) {
            if busy[link.index()][wavelength.index()] {
                mask.set(e.index);
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
            let h = TestPotential::new(&net, &aux, t);
            let expected = reference_path(&aux, &mask, s, t, &h)
                .map_err(|e| TestCaseError::fail(format!("seed {seed}: {e}")))?;
            // The engine's search against the edge-by-edge kernel on the
            // same mask and potential: the same search, fewer relaxations.
            scratch.take_search_totals();
            let engine_path = engine.route_optimal(&mut scratch, s, t);
            let gadgets = scratch.take_search_totals();
            let (_, edge_by_edge) = kernel_run(&aux, &mask, s, t, &h, &NoGadgets);
            prop_assert_eq!(
                (gadgets.settled, gadgets.pushes, gadgets.decrease_keys),
                (
                    edge_by_edge.settled,
                    edge_by_edge.pushes,
                    edge_by_edge.decrease_keys
                ),
                "seed {} {:?}->{:?}: search counters",
                seed,
                s,
                t
            );
            prop_assert!(
                gadgets.relaxed <= edge_by_edge.relaxed,
                "seed {} {:?}->{:?}: {:?} relaxed more than {:?}",
                seed,
                s,
                t,
                gadgets,
                edge_by_edge
            );
            let routes = [
                ("engine", engine_path),
                (
                    "kernel guided",
                    kernel_route(&aux, &mask, s, t, &h, &NoGadgets),
                ),
                (
                    "kernel unguided",
                    kernel_route(&aux, &mask, s, t, &Unguided, &NoGadgets),
                ),
                (
                    "kernel guided, gadgets",
                    kernel_route(&aux, &mask, s, t, &h, &aux),
                ),
                (
                    "kernel unguided, gadgets",
                    kernel_route(&aux, &mask, s, t, &Unguided, &aux),
                ),
            ];
            for (label, path) in &routes {
                prop_assert_eq!(path, &expected, "seed {} {:?}->{:?}: {}", seed, s, t, label);
            }
            let oracle = reference::reference_route(&residual, s, t).expect("endpoints in range");
            prop_assert_eq!(
                expected.as_ref().map(Semilightpath::cost),
                oracle.as_ref().map(Semilightpath::cost),
                "seed {} {:?}->{:?}: cost or blocked verdict",
                seed,
                s,
                t
            );
            if let Some(path) = &expected {
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
                let (g, mask, links) = lambda_graph(&net, &busy, lambda);
                let fibonacci = reference::guided_search::<FibonacciHeap<_>, _>(
                    &g,
                    s.index(),
                    Some(&mask),
                    t.index(),
                    &Unguided,
                );
                let binary = reference::guided_search::<BinaryHeap<_>, _>(
                    &g,
                    s.index(),
                    Some(&mask),
                    t.index(),
                    &Unguided,
                );
                let mut ws = DijkstraWorkspace::new();
                ws.run_guided_to(&g, s.index(), Some(&mask), t.index(), &Unguided, &NoGadgets);
                for (label, other) in [
                    (
                        "reference fibonacci",
                        decode_lambda(&links, lambda, &fibonacci.dist, &fibonacci.parent, t),
                    ),
                    (
                        "reference binary",
                        decode_lambda(&links, lambda, &binary.dist, &binary.parent, t),
                    ),
                    (
                        "kernel unguided",
                        decode_lambda(&links, lambda, ws.dist(), ws.parent(), t),
                    ),
                ] {
                    prop_assert_eq!(
                        &other,
                        &guided,
                        "seed {} {:?}->{:?} on {:?}: {}",
                        seed,
                        s,
                        t,
                        lambda,
                        label
                    );
                }
            }
        }
    }
    Ok(routed)
}

/// A rebuilt single-wavelength graph (links in link order, as the
/// engine lays its per-λ graphs out), its busy mask, and the link of
/// each edge by dense index.
fn lambda_graph(
    net: &WdmNetwork,
    busy: &[Vec<bool>],
    lambda: Wavelength,
) -> (CsrGraph, EdgeMask, Vec<LinkId>) {
    let mut b = CsrBuilder::new(net.node_count());
    // Each row keeps its insertion order, so the rows' link lists, in
    // node order, are the links by dense index.
    let mut rows = vec![Vec::new(); net.node_count()];
    for (e, l) in net.graph().links() {
        let w = net.link_cost(e, lambda);
        if w.is_finite() {
            b.add_edge(l.tail().index(), l.head().index(), w);
            rows[l.tail().index()].push(e);
        }
    }
    let g = b.build();
    let links: Vec<LinkId> = rows.concat();
    let mut mask = EdgeMask::all_clear(g.edge_count());
    for (index, link) in links.iter().enumerate() {
        if busy[link.index()][lambda.index()] {
            mask.set(index);
        }
    }
    (g, mask, links)
}

/// The path to `t` of a search on a single-wavelength graph, decoded
/// through its link table.
fn decode_lambda(
    links: &[LinkId],
    wavelength: Wavelength,
    dist: &[Cost],
    parent: &[Option<(usize, usize)>],
    t: NodeId,
) -> Option<Semilightpath> {
    let total = dist[t.index()];
    if total.is_infinite() {
        return None;
    }
    let mut hops = Vec::new();
    let mut at = t.index();
    while let Some((prev, edge)) = parent[at] {
        hops.push(wdm_core::Hop {
            link: links[edge],
            wavelength,
        });
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
            kernel_route(&aux, &mask, s, t, &Unguided, &NoGadgets),
            kernel_route(&aux, &mask, s, t, &Unguided, &aux),
            reference_loop::<BinaryHeap<_>, _>(&aux, &mask, s, t, &Unguided),
            reference_loop::<FibonacciHeap<_>, _>(&aux, &mask, s, t, &Unguided),
            reference_loop::<ArrayHeap<_>, _>(&aux, &mask, s, t, &Unguided),
        ] {
            assert_eq!(unguided.as_ref(), Some(&path));
        }
    }
}
