//! Chandy–Misra distributed single-source shortest paths with
//! Dijkstra–Scholten termination detection, on a plain weighted graph.
//!
//! This is the distributed SSSP primitive the paper builds Theorem 3 on
//! (citing Chandy & Misra 1982): nodes hold tentative distances, improving
//! messages propagate along links, and a diffusing-computation
//! (Dijkstra–Scholten) layer lets the source detect global termination.
//!
//! On a network with a single wavelength the Theorem-3 protocol of
//! [`crate::semilightpath`] is exactly this algorithm: each embedded
//! gadget holds one state, nothing converts, and what remains is the
//! relaxation wave with its acknowledgements. So [`chandy_misra_sssp`]
//! embeds the weighted graph as a one-wavelength [`WdmNetwork`] (link `e`
//! carries λ0 at `weights[e]`, or nothing when that weight is infinite)
//! and runs that protocol; the distances, parents, message counts,
//! makespan and termination flag are its own.

use crate::semilightpath::run_tree;
use crate::sim::{SimError, SimStats};
use std::rc::Rc;
use wdm_core::{Cost, Wavelength, WdmNetwork};
use wdm_graph::{DiGraph, LinkId, NodeId};
use wdm_obs::MetricsRegistry;

/// Result of a distributed SSSP run.
#[derive(Debug, Clone)]
pub struct DistributedSsspOutcome {
    /// Per-node distances from the source.
    pub dist: Vec<Cost>,
    /// Per-node predecessor in the shortest-path tree.
    pub parent: Vec<Option<NodeId>>,
    /// Relaxation messages sent.
    pub data_messages: u64,
    /// Dijkstra–Scholten acknowledgements sent.
    pub ack_messages: u64,
    /// Simulator counters (total messages, makespan, deliveries).
    pub stats: SimStats,
    /// Whether the source observed termination (Dijkstra–Scholten).
    pub root_detected_termination: bool,
}

/// Runs Chandy–Misra SSSP from `source` on `graph` with per-link
/// `weights` (indexed by link id; infinite weights are skipped).
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator (event budget, illegal
/// sends).
///
/// # Panics
///
/// Panics if `weights.len() != graph.link_count()` or the source is out of
/// range.
///
/// # Examples
///
/// ```
/// use wdm_core::Cost;
/// use wdm_distributed::chandy_misra::chandy_misra_sssp;
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2), (0, 2)]);
/// let w = vec![Cost::new(1), Cost::new(1), Cost::new(5)];
/// let out = chandy_misra_sssp(&g, &w, 0.into())?;
/// assert_eq!(out.dist[2], Cost::new(2));
/// assert!(out.root_detected_termination);
/// # Ok::<(), wdm_distributed::sim::SimError>(())
/// ```
pub fn chandy_misra_sssp(
    graph: &DiGraph,
    weights: &[Cost],
    source: NodeId,
) -> Result<DistributedSsspOutcome, SimError> {
    sssp_on_one_wavelength(graph, weights, source, None)
}

/// [`chandy_misra_sssp`] with the simulator reporting into `registry`
/// under `protocol="chandy_misra_sssp"`: total messages/deliveries, the
/// per-round message histogram, round count, and final makespan (see
/// [`Simulator::with_metrics`](crate::sim::Simulator::with_metrics)).
///
/// # Errors
///
/// Same as [`chandy_misra_sssp`].
///
/// # Panics
///
/// Same as [`chandy_misra_sssp`].
pub fn chandy_misra_sssp_with_metrics(
    graph: &DiGraph,
    weights: &[Cost],
    source: NodeId,
    registry: &MetricsRegistry,
) -> Result<DistributedSsspOutcome, SimError> {
    sssp_on_one_wavelength(graph, weights, source, Some(registry))
}

fn sssp_on_one_wavelength(
    graph: &DiGraph,
    weights: &[Cost],
    source: NodeId,
    registry: Option<&MetricsRegistry>,
) -> Result<DistributedSsspOutcome, SimError> {
    assert_eq!(
        weights.len(),
        graph.link_count(),
        "one weight per link required"
    );
    assert!(source.index() < graph.node_count(), "source out of range");
    let lambda = Wavelength::new(0);
    let mut builder = WdmNetwork::builder(graph.clone(), 1);
    for (e, &w) in weights.iter().enumerate() {
        if w.is_finite() {
            builder = builder.link_wavelengths_typed(LinkId::new(e), vec![(lambda, w)]);
        }
    }
    let Ok(network) = builder.build() else {
        unreachable!("one wavelength, declared at most once per link")
    };
    let metrics = registry.map(|r| (r, "chandy_misra_sssp"));
    let tree = run_tree(Rc::new(network), source, |_, _| 1, metrics)?;
    // A wave that comes back round can set the source's own `X` state,
    // but the source sits at distance zero with no parent.
    let parent = graph
        .nodes()
        .map(|v| (v != source).then(|| tree.predecessor(v, lambda)).flatten())
        .collect();
    Ok(DistributedSsspOutcome {
        dist: tree.costs,
        parent,
        data_messages: tree.data_messages,
        ack_messages: tree.ack_messages,
        stats: tree.stats,
        root_detected_termination: tree.root_detected_termination,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_graph::topology;

    fn centralized_sssp(graph: &DiGraph, weights: &[Cost], source: NodeId) -> Vec<Cost> {
        // Simple Bellman–Ford oracle.
        let n = graph.node_count();
        let mut dist = vec![Cost::INFINITY; n];
        dist[source.index()] = Cost::ZERO;
        for _ in 0..n {
            let mut changed = false;
            for (e, l) in graph.links() {
                let cand = dist[l.tail().index()] + weights[e.index()];
                if cand < dist[l.head().index()] {
                    dist[l.head().index()] = cand;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }

    #[test]
    fn matches_centralized_on_ring() {
        let g = topology::ring(7, true);
        let w: Vec<Cost> = (0..g.link_count())
            .map(|i| Cost::new(1 + (i as u64 * 3) % 7))
            .collect();
        let out = chandy_misra_sssp(&g, &w, 0.into()).expect("terminates");
        assert_eq!(out.dist, centralized_sssp(&g, &w, 0.into()));
        assert!(out.root_detected_termination);
        assert_eq!(out.stats.messages, out.data_messages + out.ack_messages);
    }

    #[test]
    fn matches_centralized_on_nsfnet() {
        let g = topology::nsfnet();
        let w: Vec<Cost> = (0..g.link_count())
            .map(|i| Cost::new(5 + (i as u64 * 13) % 23))
            .collect();
        for s in [0, 5, 13] {
            let out = chandy_misra_sssp(&g, &w, NodeId::new(s)).expect("terminates");
            assert_eq!(
                out.dist,
                centralized_sssp(&g, &w, NodeId::new(s)),
                "source {s}"
            );
        }
    }

    #[test]
    fn parents_form_a_tree_with_consistent_distances() {
        let g = topology::grid(3, 3);
        let w: Vec<Cost> = (0..g.link_count())
            .map(|i| Cost::new(1 + i as u64 % 4))
            .collect();
        let out = chandy_misra_sssp(&g, &w, 0.into()).expect("terminates");
        for v in g.nodes() {
            if v.index() == 0 {
                assert_eq!(out.dist[0], Cost::ZERO);
                continue;
            }
            let p = out.parent[v.index()].expect("reachable grid node has parent");
            // dist[v] = dist[p] + w(p→v) for some link p→v.
            let ok = g
                .links_between(p, v)
                .iter()
                .any(|&e| out.dist[p.index()] + w[e.index()] == out.dist[v.index()]);
            assert!(ok, "parent edge consistent at {v}");
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let g = DiGraph::from_links(3, [(0, 1)]);
        let w = vec![Cost::new(2)];
        let out = chandy_misra_sssp(&g, &w, 0.into()).expect("terminates");
        assert_eq!(out.dist[1], Cost::new(2));
        assert_eq!(out.dist[2], Cost::INFINITY);
        assert!(out.root_detected_termination);
    }

    #[test]
    fn metrics_variant_reports_totals_matching_outcome() {
        let g = topology::nsfnet();
        let w: Vec<Cost> = (0..g.link_count())
            .map(|i| Cost::new(5 + (i as u64 * 13) % 23))
            .collect();
        let registry = MetricsRegistry::new();
        let out = chandy_misra_sssp_with_metrics(&g, &w, 0.into(), &registry).expect("terminates");
        // The metrics variant runs the identical protocol.
        let plain = chandy_misra_sssp(&g, &w, 0.into()).expect("terminates");
        assert_eq!(out.dist, plain.dist);
        assert_eq!(out.stats, plain.stats);

        let labels: &[(&str, &str)] = &[("protocol", "chandy_misra_sssp")];
        assert_eq!(
            registry.counter("wdm_dist_messages_total", labels).get(),
            out.stats.messages
        );
        assert_eq!(
            registry.counter("wdm_dist_deliveries_total", labels).get(),
            out.stats.deliveries
        );
        assert_eq!(
            registry.gauge("wdm_dist_makespan", labels).get(),
            out.stats.makespan as i64
        );
        let rounds = registry.counter("wdm_dist_rounds_total", labels).get();
        assert!(rounds >= 1 && rounds <= out.stats.makespan + 1);
        let h = registry.histogram("wdm_dist_round_messages", labels);
        assert_eq!(h.count(), rounds);
        assert_eq!(h.sum(), out.stats.messages, "every message in some round");
    }

    #[test]
    fn isolated_root_terminates_immediately() {
        let g = DiGraph::new(2);
        let out = chandy_misra_sssp(&g, &[], 0.into()).expect("terminates");
        assert!(out.root_detected_termination);
        assert_eq!(out.stats.messages, 0);
    }

    use wdm_graph::DiGraph;
}
