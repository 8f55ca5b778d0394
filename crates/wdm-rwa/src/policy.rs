//! Routing policies for provisioning.

use wdm_core::{ResidualState, SearchScratch, Semilightpath, Wavelength};
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
    /// Routes `s → t` on a masked [`ResidualState`] through a
    /// caller-owned scratch, returning `None` when blocked.
    ///
    /// Each candidate is one masked, goal-directed search over the
    /// state's persistent graphs, whose cost ties break canonically:
    /// [`Optimal`](Self::Optimal) searches the auxiliary graph once;
    /// the single-wavelength policies scan wavelengths in index order,
    /// [`LightpathOnly`](Self::LightpathOnly) keeping the first of the
    /// cheapest and [`FirstFit`](Self::FirstFit) stopping at the first
    /// that routes. `s == t` routes only under `Optimal`, as an empty
    /// path. The engine routes every request here; the conformance
    /// spec routes its single-wavelength policies here on a per-request
    /// rebuilt state.
    pub fn route(
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

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
    use wdm_core::{ConversionPolicy, Cost, LiangShenRouter, WdmNetwork};
    use wdm_graph::{topology, DiGraph, LinkId};

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

    /// Routes `s → t` under `policy` on a fresh, all-free state of `net`.
    fn route(policy: Policy, net: &WdmNetwork, s: usize, t: usize) -> Option<Semilightpath> {
        let state = ResidualState::new(net);
        let mut scratch = SearchScratch::for_state(&state);
        policy.route(&state, &mut scratch, s.into(), t.into())
    }

    /// What `policy` must return on the free network `net`, computed by
    /// the Theorem-1 router on network snapshots: the whole network for
    /// `Optimal`, and for the single-wavelength policies one snapshot
    /// restricted to each λ — sharing no code with the state's per-λ
    /// graphs.
    fn oracle(policy: Policy, net: &WdmNetwork, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        let router = LiangShenRouter::new();
        let on = |lambda: usize| {
            let only = net.restrict(|_, w| w == Wavelength::new(lambda));
            router.route(&only, s, t).ok()?.path
        };
        match policy {
            Policy::Optimal => router.route(net, s, t).ok()?.path,
            _ if s == t => None,
            Policy::LightpathOnly => (0..net.k()).filter_map(on).fold(
                None,
                |best: Option<Semilightpath>, p| match best {
                    Some(b) if b.cost() <= p.cost() => Some(b),
                    _ => Some(p),
                },
            ),
            Policy::FirstFit => (0..net.k()).find_map(on),
        }
    }

    /// Every policy agrees with [`oracle`] on cost and verdict for every
    /// ordered pair of `net` routed on `state`, whose busy resources
    /// `free` leaves out.
    fn assert_agrees_with_oracle(net: &WdmNetwork, state: &ResidualState, free: &WdmNetwork) {
        let mut scratch = SearchScratch::for_state(state);
        for policy in [Policy::Optimal, Policy::LightpathOnly, Policy::FirstFit] {
            for s in 0..net.node_count() {
                for t in 0..net.node_count() {
                    let (s, t) = (NodeId::new(s), NodeId::new(t));
                    let masked = policy.route(state, &mut scratch, s, t);
                    let want = oracle(policy, free, s, t);
                    let summary =
                        |p: &Option<Semilightpath>| p.as_ref().map(|p| (p.cost(), p.is_empty()));
                    assert_eq!(summary(&masked), summary(&want), "{policy} {s}->{t}");
                    if let Some(p) = &masked {
                        p.validate(free).expect("routes use free resources only");
                    }
                }
            }
        }
    }

    #[test]
    fn optimal_uses_conversion_where_lightpath_blocks() {
        let net = conversion_needed();
        let p = route(Policy::Optimal, &net, 0, 2).expect("routes");
        assert_eq!(p.conversion_count(), 1);
        assert!(route(Policy::LightpathOnly, &net, 0, 2).is_none());
        assert!(route(Policy::FirstFit, &net, 0, 2).is_none());
    }

    #[test]
    fn first_fit_takes_lowest_index_wavelength() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(1, 5), (2, 1)])
            .build()
            .expect("valid");
        // λ2 is cheaper, but first-fit takes λ1 (lowest available index).
        let ff = route(Policy::FirstFit, &net, 0, 1).expect("routes");
        assert_eq!(ff.hops()[0].wavelength, Wavelength::new(1));
        // LightpathOnly picks the cheapest wavelength.
        let lp = route(Policy::LightpathOnly, &net, 0, 1).expect("routes");
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
        let opt = route(Policy::Optimal, &net, 0, 2).expect("routes");
        let lp = route(Policy::LightpathOnly, &net, 0, 2).expect("routes");
        assert_eq!(opt.cost(), lp.cost());
        assert_eq!(opt.cost(), Cost::new(7));
    }

    #[test]
    fn policies_validate_their_paths() {
        let net = conversion_needed();
        for policy in [Policy::Optimal, Policy::LightpathOnly, Policy::FirstFit] {
            if let Some(p) = route(policy, &net, 0, 1) {
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
        let net = conversion_needed();
        assert_agrees_with_oracle(&net, &ResidualState::new(&net), &net);

        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let graph = topology::random_sparse(8, 4, 4, &mut rng).expect("feasible");
            let net = random_network(
                graph,
                &InstanceConfig {
                    k: 3,
                    availability: Availability::Probability(0.7),
                    link_cost: (1, 9),
                    conversion: ConversionSpec::Uniform { lo: 0, hi: 4 },
                },
                &mut rng,
            )
            .expect("valid");
            let state = ResidualState::new(&net);
            for link in 0..net.link_count() {
                for lambda in 0..net.k() {
                    if rng.gen_bool(0.3) {
                        let _ = state.try_acquire(LinkId::new(link), Wavelength::new(lambda));
                    }
                }
            }
            assert!(state.busy_count() > 0, "seed {seed} leaves something busy");
            let free = net.restrict(|l, w| !state.is_busy(l, w));
            assert_agrees_with_oracle(&net, &state, &free);
        }
    }
}
