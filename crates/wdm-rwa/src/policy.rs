//! Routing policies for provisioning.

use wdm_core::csr::{CsrBuilder, EdgeRole};
use wdm_core::{
    dijkstra_with, Cost, HeapKind, Hop, LiangShenRouter, ResidualState, SearchScratch,
    Semilightpath, Wavelength, WdmNetwork,
};
use wdm_graph::NodeId;

/// How a connection request is routed on the residual network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum Policy {
    /// The paper's optimal semilightpath (wavelength conversion allowed
    /// wherever the network permits it).
    #[default]
    Optimal,
    /// Optimal *lightpath* routing: the best single-wavelength path
    /// (conversion disabled even where hardware exists).
    LightpathOnly,
    /// Classic first-fit RWA baseline: scan wavelengths in index order
    /// and take the shortest path on the first wavelength that connects
    /// `s` to `t` — not cost-optimal, but the traditional heuristic.
    FirstFit,
}

impl Policy {
    /// Routes `s → t` on an explicit `network` snapshot, returning `None`
    /// when blocked.
    ///
    /// This is the rebuild-per-request path: every call reconstructs the
    /// search structures from scratch. The provisioning engine routes on
    /// a persistent masked state with [`route_shared`](Self::route_shared)
    /// instead; call this directly when routing on a one-off network (or
    /// residual snapshot) outside an engine.
    pub fn route(self, network: &WdmNetwork, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        match self {
            Policy::Optimal => LiangShenRouter::new().route(network, s, t).ok()?.path,
            Policy::LightpathOnly => {
                // Best single-wavelength shortest path over all λ.
                let mut best: Option<Semilightpath> = None;
                for lambda in 0..network.k() {
                    if let Some(p) = single_wavelength_path(network, s, t, Wavelength::new(lambda))
                    {
                        if best.as_ref().map(|b| p.cost() < b.cost()).unwrap_or(true) {
                            best = Some(p);
                        }
                    }
                }
                best
            }
            Policy::FirstFit => {
                for lambda in 0..network.k() {
                    if let Some(p) = single_wavelength_path(network, s, t, Wavelength::new(lambda))
                    {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    /// Routes `s → t` on a masked [`ResidualState`] through a
    /// caller-owned scratch, returning `None` when blocked — the one
    /// wavelength scan every masked caller shares.
    ///
    /// Mirrors [`route`](Self::route) policy-for-policy — same
    /// wavelength scan order, same strict-improvement best-path
    /// selection — but pays zero construction: each candidate is one
    /// masked, goal-directed search over the state's persistent graphs,
    /// whose cost ties break canonically. The engine routes every
    /// request here; the conformance spec routes its single-wavelength
    /// policies here on a per-request rebuilt state.
    pub fn route_shared(
        self,
        state: &ResidualState,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
    ) -> Option<Semilightpath> {
        match self {
            Policy::Optimal => state.route_optimal(scratch, s, t),
            Policy::LightpathOnly => {
                let mut best: Option<Semilightpath> = None;
                for lambda in 0..state.k() {
                    if let Some(p) =
                        state.route_single_wavelength(scratch, s, t, Wavelength::new(lambda))
                    {
                        if best.as_ref().map(|b| p.cost() < b.cost()).unwrap_or(true) {
                            best = Some(p);
                        }
                    }
                }
                best
            }
            Policy::FirstFit => {
                for lambda in 0..state.k() {
                    if let Some(p) =
                        state.route_single_wavelength(scratch, s, t, Wavelength::new(lambda))
                    {
                        return Some(p);
                    }
                }
                None
            }
        }
    }

    /// Short display name for tables.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Optimal => "optimal-semilightpath",
            Policy::LightpathOnly => "lightpath-only",
            Policy::FirstFit => "first-fit",
        }
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Shortest path from `s` to `t` using only links that carry `lambda`.
fn single_wavelength_path(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
    lambda: Wavelength,
) -> Option<Semilightpath> {
    let g = network.graph();
    let mut b = CsrBuilder::new(g.node_count());
    for (e, l) in g.links() {
        let w = network.link_cost(e, lambda);
        if w.is_finite() {
            b.add_edge(
                l.tail().index(),
                l.head().index(),
                w,
                EdgeRole::Traversal {
                    link: e,
                    wavelength: lambda,
                },
            );
        }
    }
    let csr = b.build();
    let tree = dijkstra_with(HeapKind::Binary, &csr, s.index());
    let total = tree.dist[t.index()];
    if total.is_infinite() || s == t {
        return None;
    }
    let mut hops = Vec::new();
    let mut at = t.index();
    while let Some((prev, edge_idx)) = tree.parent[at] {
        let (_, edge) = csr.edge(edge_idx);
        if let EdgeRole::Traversal { link, wavelength } = edge.role {
            hops.push(Hop { link, wavelength });
        }
        at = prev;
    }
    hops.reverse();
    let path = Semilightpath::new(hops, total);
    debug_assert_eq!(path.cost(), total);
    debug_assert!(total != Cost::INFINITY);
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::ConversionPolicy;
    use wdm_graph::DiGraph;

    /// 0 → 1 → 2 where the λ0 path is broken at link 1 and the only
    /// through-route needs a conversion.
    fn conversion_needed() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(1, 10)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn optimal_uses_conversion_where_lightpath_blocks() {
        let net = conversion_needed();
        let p = Policy::Optimal
            .route(&net, 0.into(), 2.into())
            .expect("routes");
        assert_eq!(p.conversion_count(), 1);
        assert!(Policy::LightpathOnly
            .route(&net, 0.into(), 2.into())
            .is_none());
        assert!(Policy::FirstFit.route(&net, 0.into(), 2.into()).is_none());
    }

    #[test]
    fn first_fit_takes_lowest_index_wavelength() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(1, 5), (2, 1)])
            .build()
            .expect("valid");
        // λ2 is cheaper, but first-fit takes λ1 (lowest available index).
        let ff = Policy::FirstFit
            .route(&net, 0.into(), 1.into())
            .expect("routes");
        assert_eq!(ff.hops()[0].wavelength, Wavelength::new(1));
        // LightpathOnly picks the cheapest wavelength.
        let lp = Policy::LightpathOnly
            .route(&net, 0.into(), 1.into())
            .expect("routes");
        assert_eq!(lp.hops()[0].wavelength, Wavelength::new(2));
        assert_eq!(lp.cost(), Cost::new(1));
    }

    #[test]
    fn lightpath_only_matches_optimal_when_no_conversion_helps() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 3), (1, 9)])
            .link_wavelengths(1, [(0, 4), (1, 9)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(100)))
            .build()
            .expect("valid");
        let opt = Policy::Optimal
            .route(&net, 0.into(), 2.into())
            .expect("routes");
        let lp = Policy::LightpathOnly
            .route(&net, 0.into(), 2.into())
            .expect("routes");
        assert_eq!(opt.cost(), lp.cost());
        assert_eq!(opt.cost(), Cost::new(7));
    }

    #[test]
    fn policies_validate_their_paths() {
        let net = conversion_needed();
        for policy in [Policy::Optimal, Policy::LightpathOnly, Policy::FirstFit] {
            if let Some(p) = policy.route(&net, 0.into(), 1.into()) {
                p.validate(&net).expect("valid path");
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Policy::Optimal.to_string(), "optimal-semilightpath");
        assert_eq!(Policy::default(), Policy::Optimal);
    }

    #[test]
    fn masked_routes_agree_with_rebuild_routes() {
        use wdm_core::PersistentAuxGraph;
        let net = conversion_needed();
        let mut residual = PersistentAuxGraph::new(&net);
        let (state, scratch) = residual.split_mut();
        for policy in [Policy::Optimal, Policy::LightpathOnly, Policy::FirstFit] {
            for s in 0..3usize {
                for t in 0..3usize {
                    let masked = policy.route_shared(state, scratch, s.into(), t.into());
                    let rebuilt = policy.route(&net, s.into(), t.into());
                    match (&masked, &rebuilt) {
                        (Some(a), Some(b)) => {
                            assert_eq!(a.cost(), b.cost(), "{policy} {s}->{t}");
                            assert_eq!(a.is_empty(), b.is_empty(), "{policy} {s}->{t}");
                        }
                        (None, None) => {}
                        other => panic!("verdict mismatch {policy} {s}->{t}: {other:?}"),
                    }
                }
            }
        }
    }
}
