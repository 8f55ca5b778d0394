//! Test oracles: code the production search does not share.
//!
//! [`guided_search`] is the targeted search as a heap-generic
//! decrease-key loop, the oracle of the production kernel
//! [`DijkstraWorkspace::run_guided_to`](crate::dijkstra::DijkstraWorkspace::run_guided_to),
//! which queues on a lazy frontier and stops early instead. Both
//! compare labels as `(cost, hops)` and keep the smallest-index tight
//! in-edge, so they leave the same canonical path through any heap.
//!
//! [`reference_route`] is a direct state-space formulation of the
//! optimal-semilightpath problem that shares no construction code with
//! [`crate::LiangShenRouter`] or [`crate::CfzRouter`]: Dijkstra over
//! states `(node, wavelength arrived on)`, where a transition from
//! `(v, λp)` follows an outgoing link `e` on a wavelength `λq ∈ Λ(e)` at
//! cost `c_v(λp, λq) + w(e, λq)` — exactly one conversion per node
//! visit, as Equation (1) prescribes.
//!
//! Being `O(k²·m)` in transitions it is slower than the paper's algorithm,
//! but its independence makes it the arbiter in cross-validation tests
//! (including the cases where the CFZ wavelength graph diverges from
//! Equation (1) by chaining conversions — see [`crate::CfzRouter`] docs).
//!
//! [`guided_search`]: crate::reference::guided_search
//! [`reference_route`]: crate::reference::reference_route

use crate::csr::{CsrGraph, EdgeMask};
use crate::dijkstra::{Potential, SearchStats, ShortestPathTree};
use crate::{Cost, Hop, Semilightpath, WdmError, WdmNetwork};
use heaps::{BinaryHeap, IndexedPriorityQueue};
use wdm_graph::NodeId;

/// Goal-directed, canonical search from `source` to `target` through
/// heap `Q`, skipping edges set in `mask` (if any): the targeted search
/// as a heap-generic decrease-key loop.
///
/// Each node is queued once, under `(d(v) + h(v), hops(v))` with `h`
/// the `potential`, and an improvement lowers its key in place; nodes
/// with `h = ∞` are never queued. Labels compare as `(cost, hops)`, a
/// node keeps the smallest-index in-edge among those that give it
/// exactly its label, and the run stops once `target` is settled. The
/// argument of
/// [`run_guided_to`](crate::dijkstra::DijkstraWorkspace::run_guided_to)
/// applies unchanged, so the tree's path to `target` is the production
/// kernel's, whatever the heap; the heaps differ only in which other
/// nodes settle before the target.
///
/// # Panics
///
/// Panics if `source` or `target` is out of range, or if `mask.len()`
/// differs from the graph's edge count.
///
/// # Examples
///
/// ```
/// use heaps::FibonacciHeap;
/// use wdm_core::{reference, AuxiliaryGraph, Unguided, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_all_pairs(&net);
/// let (source, _) = aux.all_pairs_terminals(0.into());
/// let (_, sink) = aux.all_pairs_terminals(1.into());
/// let tree =
///     reference::guided_search::<FibonacciHeap<_>, _>(aux.graph(), source, None, sink, &Unguided);
/// let path = aux.extract_semilightpath(&tree, sink).expect("routed");
/// assert_eq!(path.cost(), wdm_core::Cost::new(4));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn guided_search<Q: IndexedPriorityQueue<(Cost, u32)>, P: Potential>(
    graph: &CsrGraph,
    source: usize,
    mask: Option<&EdgeMask>,
    target: usize,
    potential: &P,
) -> ShortestPathTree {
    let n = graph.node_count();
    assert!(source < n, "source {source} out of range");
    assert!(target < n, "target {target} out of range");
    if let Some(mask) = mask {
        assert_eq!(mask.len(), graph.edge_count(), "one mask bit per edge");
    }
    let mut dist = vec![Cost::INFINITY; n];
    let mut parent: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut hops = vec![0u32; n];
    let mut stats = SearchStats::default();
    let mut queue = Q::with_capacity(n);

    let h_source = potential.at(source);
    if h_source.is_finite() {
        dist[source] = Cost::ZERO;
        hops[source] = 0;
        stats.pushes += 1;
        queue.push(source, (h_source, 0));
    }
    while let Some((u, (_, hops_u))) = queue.pop_min() {
        stats.settled += 1;
        if u == target {
            break;
        }
        let du = dist[u];
        let next = hops_u.saturating_add(1);
        for edge in graph.out_edges(u) {
            if mask.is_some_and(|m| m.is_set(edge.index)) {
                stats.masked_skips += 1;
                continue;
            }
            stats.relaxed += 1;
            let v = edge.target;
            let candidate = du + edge.cost;
            let key = candidate + potential.at(v);
            if key.is_infinite() {
                continue;
            }
            // An infinite `dv` loses to any finite candidate, so the hop
            // count beside it is never read.
            let dv = dist[v];
            if (candidate, next) < (dv, hops[v]) {
                if dv.is_infinite() {
                    stats.pushes += 1;
                } else {
                    stats.decrease_keys += 1;
                }
                dist[v] = candidate;
                hops[v] = next;
                parent[v] = Some((u, edge.index));
                queue.push_or_decrease(v, (key, next));
            } else if (candidate, next) == (dv, hops[v])
                && parent[v].is_some_and(|(_, e)| edge.index < e)
            {
                parent[v] = Some((u, edge.index));
            }
        }
    }
    ShortestPathTree {
        dist,
        parent,
        source,
        stats,
    }
}

/// Finds an optimal semilightpath by state-space Dijkstra.
///
/// Semantics match [`crate::find_optimal_semilightpath`] exactly; only the
/// construction differs. `s == t` yields the empty path.
///
/// # Errors
///
/// [`WdmError::NodeOutOfRange`] if `s` or `t` is not a node of the network.
///
/// # Examples
///
/// ```
/// use wdm_core::{find_optimal_semilightpath, reference};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = wdm_core::WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 3)])
///     .build()?;
/// let a = reference::reference_route(&net, 0.into(), 1.into())?;
/// let b = find_optimal_semilightpath(&net, 0.into(), 1.into())?;
/// assert_eq!(a.map(|p| p.cost()), b.map(|p| p.cost()));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn reference_route(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
) -> Result<Option<Semilightpath>, WdmError> {
    let n = network.node_count();
    let k = network.k();
    for v in [s, t] {
        if v.index() >= n {
            return Err(WdmError::NodeOutOfRange { node: v, n });
        }
    }
    if s == t {
        return Ok(Some(Semilightpath::new(Vec::new(), Cost::ZERO)));
    }

    // State encoding: node * k + wavelength-arrived-on. A virtual start
    // state (id = n*k) models "at s with no incoming wavelength".
    let start = n * k;
    let state_count = n * k + 1;
    let mut dist = vec![Cost::INFINITY; state_count];
    let mut parent: Vec<Option<(usize, Hop)>> = vec![None; state_count];
    let mut queue: BinaryHeap<Cost> = BinaryHeap::with_capacity(state_count);
    dist[start] = Cost::ZERO;
    queue.push(start, Cost::ZERO);

    let g = network.graph();
    while let Some((state, d)) = queue.pop_min() {
        let (node, arrived) = if state == start {
            (s, None)
        } else {
            (
                NodeId::new(state / k),
                Some(crate::Wavelength::new(state % k)),
            )
        };
        for &e in g.out_links(node) {
            for (lambda, w) in network.wavelengths_on(e).iter() {
                let conv = match arrived {
                    None => Cost::ZERO,
                    Some(from) => network.conversion_cost(node, from, lambda),
                };
                let total = d + conv + w;
                if total.is_infinite() {
                    continue;
                }
                let next = g.link(e).head().index() * k + lambda.index();
                if total < dist[next] {
                    dist[next] = total;
                    parent[next] = Some((
                        state,
                        Hop {
                            link: e,
                            wavelength: lambda,
                        },
                    ));
                    queue.push_or_decrease(next, total);
                }
            }
        }
    }

    // Best arrival state at t over all wavelengths.
    let mut best: Option<usize> = None;
    for lambda in 0..k {
        let state = t.index() * k + lambda;
        if dist[state].is_finite() && best.map(|b| dist[state] < dist[b]).unwrap_or(true) {
            best = Some(state);
        }
    }
    let Some(mut at) = best else {
        return Ok(None);
    };
    let total = dist[at];
    let mut hops = Vec::new();
    while let Some((prev, hop)) = parent[at] {
        hops.push(hop);
        at = prev;
    }
    hops.reverse();
    Ok(Some(Semilightpath::new(hops, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::DiGraph;

    #[test]
    fn agrees_with_liang_shen_on_small_instance() {
        let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 5)])
            .link_wavelengths(1, [(0, 5), (1, 3)])
            .link_wavelengths(2, [(1, 2)])
            .link_wavelengths(3, [(1, 9)])
            .link_wavelengths(4, [(0, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid");
        let router = LiangShenRouter::new();
        for s in 0..4 {
            for t in 0..4 {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                let a = reference_route(&net, s, t).expect("ok").map(|p| p.cost());
                let b = router.route(&net, s, t).expect("ok").path.map(|p| p.cost());
                assert_eq!(a, b, "pair {s} → {t}");
            }
        }
    }

    #[test]
    fn reference_paths_validate() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            .uniform_conversion(ConversionPolicy::Free)
            .build()
            .expect("valid");
        let p = reference_route(&net, 0.into(), 2.into())
            .expect("ok")
            .expect("reachable");
        p.validate(&net).expect("valid");
        assert_eq!(p.cost(), Cost::new(2));
    }

    #[test]
    fn unreachable_and_trivial() {
        let g = DiGraph::from_links(2, [(1, 0)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .build()
            .expect("valid");
        assert!(reference_route(&net, 0.into(), 1.into())
            .expect("ok")
            .is_none());
        let p = reference_route(&net, 1.into(), 1.into())
            .expect("ok")
            .expect("trivial");
        assert!(p.is_empty());
        assert!(matches!(
            reference_route(&net, 0.into(), 5.into()),
            Err(WdmError::NodeOutOfRange { .. })
        ));
    }
}
