//! Shared workload builders and timing helpers for the experiment
//! harness (`src/bin/experiments.rs`).
//!
//! Every experiment sweeps the parameters the paper's analysis is stated
//! in — `n`, `m`, `d`, `k`, `k0` — over the sparse-WAN family
//! (`m = 3n`, bounded degree) that Section III-C targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::{topology, NodeId};
use wdm_rwa::{Policy, ProvisioningEngine};

/// Builds the standard sparse-WAN instance: `n` nodes, `m = 3n` directed
/// links (`n`-cycle + `n/2` chords, both directions), degree ≤ 6, `k`
/// wavelengths at 50% availability, uniform cheap conversion.
///
/// # Panics
///
/// Panics if the topology generator rejects the parameters (it accepts
/// all `n ≥ 3`).
pub fn sparse_instance(n: usize, k: usize, seed: u64) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = topology::random_sparse(n, n / 2, 6, &mut rng).expect("feasible sparse WAN");
    random_network(
        graph,
        &InstanceConfig {
            k,
            availability: Availability::Probability(0.5),
            link_cost: (10, 100),
            conversion: ConversionSpec::Uniform { lo: 1, hi: 5 },
        },
        &mut rng,
    )
    .expect("valid instance")
}

/// Like [`sparse_instance`] but in the Section-IV regime: exactly `k0`
/// wavelengths per link out of a universe of `k`.
///
/// # Panics
///
/// Panics on generator rejection (see [`sparse_instance`]).
pub fn bounded_instance(n: usize, k: usize, k0: usize, seed: u64) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = topology::random_sparse(n, n / 2, 6, &mut rng).expect("feasible sparse WAN");
    random_network(graph, &InstanceConfig::bounded(k, k0), &mut rng).expect("valid instance")
}

/// The fixed request mix of the provisioning experiments (E13–E15,
/// E17): pair `i` runs from `s = 7i mod n` to `(s + 1 + 13i mod (n − 1))
/// mod n`, never to itself.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn churn_pairs(n: usize, requests: usize) -> Vec<(NodeId, NodeId)> {
    (0..requests)
        .map(|i| {
            let s = (i * 7) % n;
            let t = (s + 1 + (i * 13) % (n - 1)) % n;
            (NodeId::new(s), NodeId::new(t))
        })
        .collect()
}

/// One steady-state churn cycle: provisions every pair under
/// [`Policy::Optimal`], then releases every accepted connection, so the
/// engine ends as it started.
///
/// # Panics
///
/// Panics if a connection it provisioned is no longer active.
pub fn churn(engine: &mut ProvisioningEngine, pairs: &[(NodeId, NodeId)]) {
    let mut ids = Vec::new();
    for &(s, t) in pairs {
        if let Ok(id) = engine.provision(s, t, Policy::Optimal) {
            ids.push(id);
        }
    }
    for id in ids {
        engine.release(id).expect("active");
    }
}

/// `⌈log2 n⌉`, the paper's "small k" regime.
pub fn log2_ceil(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()) as usize
}

/// Times `f`, returning `(result, seconds)`.
pub fn time_once<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// Minimum wall-clock seconds over `iters` runs of `f`, after one
/// untimed warm-up run. The minimum is the standard noise-robust
/// estimator on shared machines: cache warm-up, frequency scaling, and
/// background load only ever inflate a sample, never deflate it.
pub fn min_time(iters: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: fault in code and data
    let iters = iters.max(1);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Formats seconds as engineering-friendly microseconds/milliseconds.
pub fn fmt_time(seconds: f64) -> String {
    if seconds < 1e-3 {
        format!("{:.1} µs", seconds * 1e6)
    } else if seconds < 1.0 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.2} s", seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_instance_has_expected_shape() {
        let net = sparse_instance(64, 6, 1);
        assert_eq!(net.node_count(), 64);
        assert_eq!(net.link_count(), 3 * 64);
        assert!(net.graph().max_degree() <= 6);
        assert_eq!(net.k(), 6);
    }

    #[test]
    fn bounded_instance_respects_k0() {
        let net = bounded_instance(32, 64, 2, 2);
        assert_eq!(net.k(), 64);
        assert!(net.k0() <= 2);
    }

    #[test]
    fn churn_pairs_are_distinct_and_churn_leaves_the_engine_empty() {
        let net = sparse_instance(16, 4, 3);
        let pairs = churn_pairs(16, 40);
        assert_eq!(pairs.len(), 40);
        assert!(pairs.iter().all(|(s, t)| s != t && t.index() < 16));
        let mut engine = ProvisioningEngine::new(&net);
        churn(&mut engine, &pairs);
        let (accepted, _, released) = engine.totals();
        assert!(accepted > 0);
        assert_eq!(released, accepted);
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_ceil(1025), 11);
    }

    #[test]
    fn fmt_time_units() {
        assert!(fmt_time(5e-6).ends_with("µs"));
        assert!(fmt_time(5e-3).ends_with("ms"));
        assert!(fmt_time(5.0).ends_with("s"));
    }

    #[test]
    fn min_time_is_positive_and_bounded_by_samples() {
        let t = min_time(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
