//! Engine-vs-spec conformance for the provisioning engine.
//!
//! The engine routes every request over one persistent auxiliary graph
//! through an in-place busy mask; the [`SpecEngine`] reconstructs the
//! same structure from a plain busy matrix on every request. The
//! contract is **bit-identical routing decisions**: same accept/block
//! outcomes, same connection ids, hop-for-hop identical paths, same
//! totals, blocked causes and utilization — across arbitrary
//! interleavings of provision, release, fail_link and restore_link, for
//! every policy, whatever the engine's shard count.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm_conformance::SpecEngine;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::{topology, LinkId, NodeId};
use wdm_rwa::concurrent::RestorationOutcome;
use wdm_rwa::{ConcurrentEngine, ConnectionId, Policy, ProvisioningEngine, RwaError};

fn instance(seed: u64, n: usize, k: usize, p: f64) -> WdmNetwork {
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

/// The 4-node, 2-wavelength chain the scripted comparisons run on.
fn chain() -> WdmNetwork {
    let g = wdm_graph::DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3)]);
    WdmNetwork::builder(g, 2)
        .link_wavelengths(0, [(0, 10), (1, 12)])
        .link_wavelengths(1, [(0, 10), (1, 12)])
        .link_wavelengths(2, [(0, 10), (1, 12)])
        .uniform_conversion(wdm_core::ConversionPolicy::Uniform(wdm_core::Cost::new(1)))
        .build()
        .expect("valid")
}

/// A handle's cut outcomes as `(torn, restored id)` pairs, the spec's
/// shape.
fn cut_ids(outcomes: Vec<RestorationOutcome>) -> Vec<(ConnectionId, Option<ConnectionId>)> {
    outcomes
        .into_iter()
        .map(|o| (o.torn, o.restored.map(|(id, _)| id)))
        .collect()
}

/// Asserts the multi-shard engine and the spec agree on every total.
fn assert_same_state(conc: &ConcurrentEngine, spec: &SpecEngine) {
    assert_eq!(conc.totals(), spec.totals());
    assert_eq!(conc.blocked_by_cause(), spec.blocked_by_cause());
    assert_eq!(conc.active_count(), spec.active_count());
    assert_eq!(conc.utilization(), spec.utilization());
    assert_eq!(conc.failed_links(), spec.failed_links());
}

#[test]
fn single_threaded_run_matches_spec() {
    // One handle on a multi-shard engine and the spec through the same
    // provision / release / cut / repair script: identical ids,
    // hop-for-hop paths, totals, cause splits and utilization at every
    // step — and zero conflicts.
    let net = chain();
    let conc = ConcurrentEngine::new(&net, 0);
    let mut h = conc.handle();
    let mut spec = SpecEngine::new(&net);
    let mut ids = Vec::new();
    for (s, t) in [(0, 3), (0, 2), (3, 0), (1, 3), (0, 3), (2, 2)] {
        let a = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        let b = spec.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(a, b, "{s}->{t}");
        if let Ok(id) = a {
            assert_eq!(conc.path_of(id).as_ref(), spec.path_of(id), "{s}->{t} path");
            ids.push(id);
        }
        assert_same_state(&conc, &spec);
    }
    assert_eq!(h.release(ids[0]), spec.release(ids[0]));
    assert_eq!(
        h.release(ids[0]),
        Err(RwaError::UnknownConnection(ids[0])),
        "double release"
    );
    assert_eq!(
        spec.release(ids[0]),
        Err(RwaError::UnknownConnection(ids[0]))
    );
    let cut = LinkId::new(1);
    let oa = cut_ids(h.fail_link(cut, Policy::Optimal, None));
    assert_eq!(oa, spec.fail_link(cut, Policy::Optimal));
    for id in oa.iter().filter_map(|&(_, restored)| restored) {
        assert_eq!(conc.path_of(id).as_ref(), spec.path_of(id));
    }
    assert_same_state(&conc, &spec);
    // Route around the persistent cut, then repair and route again.
    for (s, t) in [(0, 1), (1, 2)] {
        let a = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(
            a,
            spec.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal)
        );
    }
    assert_eq!(h.restore_link(cut, None), spec.restore_link(cut));
    for (s, t) in [(1, 3), (0, 3)] {
        let a = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(
            a,
            spec.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal)
        );
        if let Ok(id) = a {
            assert_eq!(conc.path_of(id).as_ref(), spec.path_of(id));
        }
    }
    assert_same_state(&conc, &spec);
    assert_eq!(conc.conflicts(), 0);
}

#[test]
fn masked_engine_and_rebuild_spec_are_bit_identical() {
    // The `&mut self` engine (masked search over one persistent graph)
    // and the spec (graph rebuilt per request) through the same
    // provision / release / cut / repair script: identical ids,
    // hop-for-hop paths, totals and utilization at every step.
    let net = chain();
    let mut masked = ProvisioningEngine::new(&net);
    let mut rebuild = SpecEngine::new(&net);
    let mut ids = Vec::new();
    for (s, t) in [(0, 3), (0, 2), (1, 3), (0, 3), (3, 0)] {
        let a = masked.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        let b = rebuild.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(a, b, "{s}->{t}");
        if let Ok(id) = a {
            assert_eq!(masked.path_of(id).as_ref(), rebuild.path_of(id), "{s}->{t}");
            ids.push(id);
        }
    }
    assert_eq!(masked.release(ids[0]), rebuild.release(ids[0]));
    let cut = LinkId::new(1);
    let oa = masked.fail_link(cut, Policy::Optimal);
    assert_eq!(oa, rebuild.fail_link(cut, Policy::Optimal));
    for id in oa.iter().filter_map(|&(_, restored)| restored) {
        assert_eq!(masked.path_of(id).as_ref(), rebuild.path_of(id));
    }
    // Route around the persistent cut, then repair and route again.
    for (s, t) in [(0, 1), (1, 2)] {
        let a = masked.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        let b = rebuild.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(a, b, "{s}->{t} while cut");
    }
    assert_eq!(masked.restore_link(cut), rebuild.restore_link(cut));
    for (s, t) in [(1, 3), (0, 3)] {
        let a = masked.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        let b = rebuild.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
        assert_eq!(a, b, "{s}->{t} after repair");
        if let Ok(id) = a {
            assert_eq!(masked.path_of(id).as_ref(), rebuild.path_of(id));
        }
    }
    assert_eq!(masked.totals(), rebuild.totals());
    assert_eq!(masked.blocked_by_cause(), rebuild.blocked_by_cause());
    assert_eq!(masked.active_count(), rebuild.active_count());
    assert_eq!(masked.utilization(), rebuild.utilization());
}

#[test]
fn fail_link_matches_spec() {
    let net = chain();
    let conc = ConcurrentEngine::new(&net, 2);
    let mut h = conc.handle();
    let mut spec = SpecEngine::new(&net);
    let a: ConnectionId = h
        .provision(0.into(), 3.into(), Policy::Optimal)
        .expect("routes");
    assert_eq!(spec.provision(0.into(), 3.into(), Policy::Optimal), Ok(a));
    let cut = conc.path_of(a).expect("active").hops()[1].link;
    let outcome = cut_ids(h.fail_link(cut, Policy::Optimal, None));
    assert_eq!(
        outcome,
        vec![(a, None)],
        "every 0 -> 3 route crosses the cut"
    );
    assert_eq!(spec.fail_link(cut, Policy::Optimal), outcome);
    assert_same_state(&conc, &spec);
    // The cut persists identically: a double-fail is an empty no-op in
    // both, and requests crossing the cut block in both as no-path.
    assert!(h.fail_link(cut, Policy::Optimal, None).is_empty());
    assert!(spec.fail_link(cut, Policy::Optimal).is_empty());
    let blocked = h.provision(0.into(), 3.into(), Policy::Optimal);
    assert_eq!(blocked, spec.provision(0.into(), 3.into(), Policy::Optimal));
    assert!(blocked.is_err());
    assert_same_state(&conc, &spec);
    // Repair: both restore, both report the double-restore no-op, and
    // the pair routes again identically.
    assert!(h.restore_link(cut, None) && spec.restore_link(cut));
    assert!(!h.restore_link(cut, None) && !spec.restore_link(cut));
    let again = h
        .provision(0.into(), 3.into(), Policy::Optimal)
        .expect("repaired fibre routes");
    assert_eq!(
        spec.provision(0.into(), 3.into(), Policy::Optimal),
        Ok(again)
    );
    assert_eq!(conc.path_of(again).as_ref(), spec.path_of(again));
    assert_same_state(&conc, &spec);
}

fn policy_of(idx: u8) -> Policy {
    match idx % 3 {
        0 => Policy::Optimal,
        1 => Policy::LightpathOnly,
        _ => Policy::FirstFit,
    }
}

/// Replays one op on the engine and the spec and asserts bit-identical
/// behaviour.
fn step(
    masked: &mut ProvisioningEngine,
    rebuild: &mut SpecEngine,
    live: &mut Vec<wdm_rwa::ConnectionId>,
    op: (u8, u64, u64),
    n: usize,
    m: usize,
    policy: Policy,
) -> Result<(), TestCaseError> {
    let (kind, a, b) = op;
    match kind {
        // Provision dominates the mix: that is the hot path under test.
        0..=4 => {
            let s = NodeId::new((a % n as u64) as usize);
            let t = NodeId::new((b % n as u64) as usize);
            let got = masked.provision(s, t, policy);
            let want = rebuild.provision(s, t, policy);
            prop_assert_eq!(&got, &want, "provision {} -> {}", s, t);
            if let Ok(id) = got {
                prop_assert_eq!(
                    masked.path_of(id),
                    rebuild.path_of(id).cloned(),
                    "path of {} diverged",
                    id
                );
                live.push(id);
            }
        }
        5 | 6 => {
            if !live.is_empty() {
                let id = live.remove((a % live.len() as u64) as usize);
                prop_assert_eq!(masked.release(id), rebuild.release(id), "release {}", id);
            }
        }
        7 => {
            let link = LinkId::new((a % m as u64) as usize);
            let got = masked.fail_link(link, policy);
            let want = rebuild.fail_link(link, policy);
            prop_assert_eq!(&got, &want, "fail_link {}", link);
            // Update the live set: lost connections go away, restored
            // ones change id.
            for &(old, new) in &got {
                live.retain(|&c| c != old);
                if let Some(new) = new {
                    prop_assert_eq!(
                        masked.path_of(new),
                        rebuild.path_of(new).cloned(),
                        "restored path of {} diverged",
                        new
                    );
                    live.push(new);
                }
            }
            prop_assert_eq!(masked.failed_links(), rebuild.failed_links());
        }
        _ => {
            // Fibre repair: exercises both the real involution (when the
            // link is cut) and the double-restore no-op (when it isn't).
            let link = LinkId::new((a % m as u64) as usize);
            prop_assert_eq!(
                masked.restore_link(link),
                rebuild.restore_link(link),
                "restore_link {}",
                link
            );
            prop_assert_eq!(masked.failed_links(), rebuild.failed_links());
        }
    }
    prop_assert_eq!(masked.totals(), rebuild.totals());
    prop_assert_eq!(masked.blocked_by_cause(), rebuild.blocked_by_cause());
    prop_assert_eq!(masked.active_count(), rebuild.active_count());
    prop_assert_eq!(masked.utilization(), rebuild.utilization());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn masked_matches_rebuild_on_random_interleavings(
        seed in 0u64..10_000,
        n in 4usize..12,
        k in 2usize..5,
        policy_idx in 0u8..3,
        ops in prop::collection::vec((0u8..9, 0u64..1_000_000, 0u64..1_000_000), 1..30),
    ) {
        let net = instance(seed, n, k, 0.7);
        let m = net.link_count();
        let policy = policy_of(policy_idx);
        let mut masked = ProvisioningEngine::new(&net);
        let mut rebuild = SpecEngine::new(&net);
        let mut live = Vec::new();
        for op in ops {
            step(&mut masked, &mut rebuild, &mut live, op, n, m, policy)?;
        }
        // Drain everything: engine and spec must agree to the very end.
        for id in live {
            prop_assert_eq!(masked.release(id), rebuild.release(id));
        }
        // Cuts persist until repaired, so heal every fibre before
        // demanding an empty network.
        for link in masked.failed_links() {
            prop_assert!(masked.restore_link(link));
            prop_assert!(rebuild.restore_link(link));
        }
        prop_assert_eq!(masked.utilization(), 0.0);
        prop_assert_eq!(masked.totals(), rebuild.totals());
    }

    #[test]
    fn sparse_availability_blocking_agrees(
        seed in 0u64..10_000,
        n in 4usize..10,
        pairs in prop::collection::vec((0u64..1_000_000, 0u64..1_000_000), 1..20),
    ) {
        // Low availability → plenty of blocked requests; the blocked
        // verdicts and totals must still match exactly.
        let net = instance(seed, n, 2, 0.3);
        let mut masked = ProvisioningEngine::new(&net);
        let mut rebuild = SpecEngine::new(&net);
        for (a, b) in pairs {
            let s = NodeId::new((a % n as u64) as usize);
            let t = NodeId::new((b % n as u64) as usize);
            let got = masked.provision(s, t, Policy::Optimal);
            let want = rebuild.provision(s, t, Policy::Optimal);
            prop_assert_eq!(&got, &want, "{} -> {}", s, t);
            if let Ok(id) = got {
                prop_assert_eq!(masked.path_of(id), rebuild.path_of(id).cloned());
            }
        }
        prop_assert_eq!(masked.totals(), rebuild.totals());
        prop_assert_eq!(masked.blocked_by_cause(), rebuild.blocked_by_cause());
        prop_assert_eq!(masked.utilization(), rebuild.utilization());
    }
}
