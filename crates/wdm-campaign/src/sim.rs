//! One Monte-Carlo replica: Poisson/exponential arrivals replayed
//! through [`wdm_rwa::Replay`] over a provisioning engine.

use rand::rngs::SmallRng;
use wdm_core::WdmNetwork;
use wdm_graph::NodeId;
use wdm_rwa::{workload, BlockingStats, Policy, ProvisioningEngine, Replay};

/// Runs one replica on a fresh engine over `net`, with free converters
/// enabled at `converters` through the engine's *runtime* placement
/// path ([`ProvisioningEngine::set_converter`]) — the same path the
/// greedy placer exercises.
///
/// `load` is the offered load in Erlangs with mean holding time 1; the
/// replica draws `requests` Poisson arrivals from `rng` and offers them
/// one by one to a [`Replay`]. Deterministic in
/// `(net, converters, load, requests, policy, rng state)`.
pub fn run_replica(
    net: &WdmNetwork,
    converters: &[NodeId],
    load: f64,
    requests: usize,
    policy: Policy,
    rng: &mut SmallRng,
) -> BlockingStats {
    let n = net.node_count();
    assert!(n >= 2, "campaign instances need at least two nodes");
    let mut engine = ProvisioningEngine::new(net);
    for &v in converters {
        match engine.set_converter(v, true) {
            Ok(_) => {}
            Err(e) => unreachable!("converter nodes come from the same network: {e}"),
        }
    }
    let mut replay = Replay::default();
    for request in &workload::poisson_requests(n, requests, load, 1.0, rng) {
        replay.offer(&mut engine, request, policy);
    }
    replay.stats()
}
