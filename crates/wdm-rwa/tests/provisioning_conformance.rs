//! Conformance pin for the engine's bounded-retry driver.
//!
//! Engine-vs-spec routing conformance lives in the `wdm-conformance`
//! crate, next to the rebuild-per-request spec it compares against.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::{topology, NodeId};
use wdm_rwa::Policy;

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

/// Conformance pin for the retry-exhaustion outcome (required before
/// the control-plane daemon exposes `--sharded`): a bounded-retry
/// provision that exhausts its budget under injected validation
/// conflicts must surface [`wdm_rwa::RwaError::Contended`] — never a
/// fabricated `Blocked { .. }` — and must leave every engine total,
/// cause split, and resource untouched, because no verdict committed.
#[test]
fn sharded_retry_exhaustion_conforms() {
    use wdm_rwa::{concurrent::ConcurrentEngine, RaceInjection, RwaError};

    let net = instance(42, 8, 3, 0.7);
    let n = net.node_count();
    for budget in [0u64, 1, 5] {
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let mut h = conc.handle();
        for pair in 0..4u64 {
            let s = NodeId::new((pair % n as u64) as usize);
            let t = NodeId::new(((pair + 1) % n as u64) as usize);
            match h.provision_bounded(s, t, Policy::Optimal, budget) {
                Err(RwaError::Contended { conflicts, .. }) => {
                    assert!(conflicts >= budget, "{conflicts} < {budget}")
                }
                other => panic!("budget {budget}: expected Contended, got {other:?}"),
            }
        }
        assert_eq!(conc.totals(), (0, 0, 0), "budget {budget}");
        assert_eq!(conc.blocked_by_cause(), (0, 0), "budget {budget}");
        assert_eq!(conc.busy_count(), 0, "budget {budget}");
        assert_eq!(conc.active_count(), 0, "budget {budget}");
    }

    // And with the audited protocol the same bounded calls decide every
    // request (accept or genuinely block) without ever contending.
    let conc = ConcurrentEngine::new(&net, 2);
    let mut h = conc.handle();
    let mut decided = 0u64;
    for pair in 0..6u64 {
        let s = NodeId::new((pair % n as u64) as usize);
        let t = NodeId::new(((pair + 3) % n as u64) as usize);
        match h.provision_bounded(s, t, Policy::Optimal, 0) {
            Ok(_) | Err(RwaError::Blocked { .. }) => decided += 1,
            other => panic!("uncontended engine reported {other:?}"),
        }
    }
    let (accepted, blocked, _) = conc.totals();
    assert_eq!(accepted + blocked, decided);
    assert_eq!(conc.conflicts(), 0);
}
