//! E4 — the distributed protocol (Theorem 3) on reference WAN topologies:
//! correctness against the centralized solver and measured complexity
//! against the `O(km)` message / `O(kn)` time claims.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm::core::instance::{random_network, InstanceConfig};
use wdm::distributed::chandy_misra::chandy_misra_sssp;
use wdm::graph::topology::ReferenceTopology;
use wdm::prelude::*;

#[test]
fn distributed_tree_matches_centralized_on_every_reference_topology() {
    for topo in ReferenceTopology::ALL {
        let mut rng = SmallRng::seed_from_u64(41);
        let net =
            random_network(topo.build(), &InstanceConfig::standard(4), &mut rng).expect("valid");
        let router = LiangShenRouter::new();
        let tree = wdm::distributed_tree(&net, 0.into()).expect("terminates");
        assert!(tree.root_detected_termination, "{topo}");
        for t in 1..net.node_count() {
            let central = router
                .route(&net, 0.into(), NodeId::new(t))
                .expect("ok")
                .cost();
            assert_eq!(central, tree.costs[t], "{topo}, dest {t}");
            if let Some(p) = tree.path_to(NodeId::new(t)) {
                p.validate(&net).expect("valid distributed path");
            }
        }
    }
}

#[test]
fn message_and_time_complexity_track_paper_bounds() {
    // Theorem 3: O(km) messages, O(kn) time. Measure the constant on
    // NSFNET across k and require it to stay small and stable.
    let mut ratios = Vec::new();
    for k in [2usize, 4, 8] {
        let mut rng = SmallRng::seed_from_u64(99);
        let net = random_network(
            wdm::graph::topology::nsfnet(),
            &InstanceConfig::standard(k),
            &mut rng,
        )
        .expect("valid");
        let tree = wdm::distributed_tree(&net, 0.into()).expect("terminates");
        let km = (net.k() * net.link_count()) as f64;
        let kn = (net.k() * net.node_count()) as f64;
        ratios.push(tree.data_messages as f64 / km);
        assert!(
            tree.data_messages as f64 <= 4.0 * km,
            "k = {k}: {} data messages vs km = {km}",
            tree.data_messages
        );
        assert!(
            (tree.stats.makespan as f64) <= 4.0 * kn,
            "k = {k}: makespan {} vs kn = {kn}",
            tree.stats.makespan
        );
    }
    // The message/km ratio must not grow with k (it is the hidden
    // constant of the bound).
    let first = ratios.first().copied().expect("non-empty");
    for r in &ratios {
        assert!(*r <= 2.5 * first, "ratio drift: {ratios:?}");
    }
}

#[test]
fn chandy_misra_agrees_with_fibonacci_dijkstra_on_wans() {
    use wdm::core::csr::CsrBuilder;
    for topo in ReferenceTopology::ALL {
        let g = topo.build();
        let weights: Vec<Cost> = (0..g.link_count())
            .map(|i| Cost::new(1 + (i as u64 * 7) % 19))
            .collect();
        let out = chandy_misra_sssp(&g, &weights, 0.into()).expect("terminates");
        // Centralized oracle via the shared Dijkstra.
        let mut b = CsrBuilder::new(g.node_count());
        for (e, l) in g.links() {
            b.add_edge(l.tail().index(), l.head().index(), weights[e.index()]);
        }
        let csr = b.build();
        let tree = wdm::core::dijkstra_with(HeapKind::Fibonacci, &csr, 0);
        assert_eq!(out.dist, tree.dist, "{topo}");
        assert!(out.root_detected_termination, "{topo}");
    }
}

#[test]
fn acks_equal_data_messages_in_dijkstra_scholten() {
    // Every data message is acknowledged exactly once.
    let mut rng = SmallRng::seed_from_u64(7);
    let net = random_network(
        wdm::graph::topology::eon(),
        &InstanceConfig::standard(3),
        &mut rng,
    )
    .expect("valid");
    let tree = wdm::distributed_tree(&net, 5.into()).expect("terminates");
    assert_eq!(tree.data_messages, tree.ack_messages);
    assert_eq!(tree.stats.messages, tree.data_messages + tree.ack_messages);
}

#[test]
fn distributed_route_on_unidirectional_ring_uses_the_long_way() {
    // On a unidirectional ring, node n-1 is n-1 hops from node 0.
    let g = wdm::graph::topology::ring(6, false);
    let mut b = WdmNetwork::builder(g, 1);
    for e in 0..6 {
        b = b.link_wavelengths(e, [(0, 10)]);
    }
    let net = b.build().expect("valid");
    let out = wdm::route_distributed(&net, 0.into(), 5.into()).expect("terminates");
    let p = out.path.expect("reachable");
    assert_eq!(p.len(), 5);
    assert_eq!(out.cost, Cost::new(50));
    assert!(p.is_lightpath());
}
