//! Campaign conformance: the Monte-Carlo estimator against closed-form
//! Erlang-B, worker-count invariance, and placer determinism.

use wdm_campaign::{
    build_wan, converter_nodes, e18_record, erlang_b, place_converters, run_campaign,
    CampaignConfig, PlacerConfig,
};
use wdm_core::{ConversionPolicy, WdmNetwork};
use wdm_graph::topology::ReferenceTopology;
use wdm_graph::DiGraph;
use wdm_rwa::Policy;

/// Two nodes joined by one bidirectional fibre pair, `k` wavelengths
/// each, no conversion: per direction this is exactly an M/M/k/k loss
/// system (the Poisson split over the two directions is again Poisson).
fn two_node(k: usize) -> WdmNetwork {
    let g = DiGraph::from_links(2, [(0, 1), (1, 0)]);
    let mut b = WdmNetwork::builder(g, k);
    for link in 0..2 {
        b = b.link_wavelengths(link, (0..k).map(|l| (l, 10)));
    }
    b.uniform_conversion(ConversionPolicy::Forbidden)
        .build()
        .expect("valid")
}

#[test]
fn estimator_matches_erlang_b_on_a_single_link() {
    // Total offered load 6 Erlang splits into 3 per direction; with
    // k = 4 wavelengths per fibre the closed form says B(4, 3).
    let k = 4;
    let total_load = 6.0;
    let net = two_node(k);
    let cfg = CampaignConfig {
        k,
        loads: vec![total_load],
        densities: vec![0.0],
        requests: 5_000,
        replicas: 4,
        seed: 7,
        threads: 2,
        policy: Policy::Optimal,
    };
    let results = run_campaign(&net, &cfg);
    assert_eq!(results.len(), 1);
    let got = results[0].stats.blocking_probability();
    let want = erlang_b(k, total_load / 2.0);
    assert!(
        (got - want).abs() < 0.02,
        "simulated blocking {got:.4} vs Erlang-B {want:.4}"
    );
    // Full availability and a direct fibre each way: every block is a
    // capacity block.
    assert_eq!(results[0].stats.blocked_no_path, 0);
    assert_eq!(results[0].stats.blocked, results[0].stats.blocked_capacity);
    assert_eq!(
        results[0].stats.accepted + results[0].stats.blocked,
        results[0].stats.offered
    );
}

#[test]
fn campaign_is_invariant_in_worker_count() {
    let net = build_wan(ReferenceTopology::Nsfnet, 4, 42);
    let base = CampaignConfig {
        k: 4,
        loads: vec![30.0, 60.0],
        densities: vec![0.0, 0.5],
        requests: 150,
        replicas: 2,
        seed: 42,
        threads: 1,
        policy: Policy::Optimal,
    };
    let solo = run_campaign(&net, &base);
    let mut wide = base.clone();
    wide.threads = 4;
    let pooled = run_campaign(&net, &wide);
    assert_eq!(solo.len(), pooled.len());
    for (a, b) in solo.iter().zip(&pooled) {
        assert_eq!(a.stats, b.stats, "load {} density {}", a.load, a.density);
        // The rendered records must be byte-identical too — they are
        // what CI diffs across thread counts.
        assert_eq!(
            e18_record("NSFNET-14", 4, &base, a),
            e18_record("NSFNET-14", 4, &wide, b)
        );
    }
}

#[test]
fn placer_is_deterministic_and_never_hurts() {
    let net = build_wan(ReferenceTopology::Nsfnet, 4, 42);
    // Load 45 sits in the regime where wavelength continuity (not raw
    // capacity) causes a meaningful share of the blocking, so sparse
    // conversion has something to win.
    let cfg = PlacerConfig {
        budget: 2,
        load: 45.0,
        requests: 300,
        replicas: 2,
        seed: 42,
        policy: Policy::Optimal,
    };
    let a = place_converters(&net, &cfg);
    let b = place_converters(&net, &cfg);
    assert_eq!(a.chosen, b.chosen, "placement must replay from the seed");
    assert_eq!(a.baseline, b.baseline);
    assert_eq!(a.placed, b.placed);
    assert!(a.chosen.len() <= cfg.budget);
    // Greedy only ever commits strict improvements, so the placed
    // blocking can never exceed the baseline.
    assert!(
        a.placed.blocked <= a.baseline.blocked,
        "placed {} > baseline {}",
        a.placed.blocked,
        a.baseline.blocked
    );
    // Under wavelength continuity at this load NSFNET blocks, so the
    // budget must actually get spent on something that helps.
    assert!(a.baseline.blocked > 0, "baseline never blocked");
    assert!(
        !a.chosen.is_empty() && a.placed.blocked < a.baseline.blocked,
        "placer found no improving converter (baseline {}, placed {})",
        a.baseline.blocked,
        a.placed.blocked
    );
}

#[test]
fn zero_blocking_baseline_keeps_the_budget() {
    // A huge instance at negligible load never blocks; the cause-split
    // gate must return an empty placement without searching.
    let net = build_wan(ReferenceTopology::Abilene, 8, 1);
    let cfg = PlacerConfig {
        budget: 3,
        load: 0.5,
        requests: 50,
        replicas: 1,
        seed: 1,
        policy: Policy::Optimal,
    };
    let p = place_converters(&net, &cfg);
    assert_eq!(p.baseline.blocked, 0);
    assert!(p.chosen.is_empty());
}

#[test]
fn converter_density_boundaries_clamp_instead_of_wrapping() {
    let net = build_wan(ReferenceTopology::Nsfnet, 4, 7);
    let n = net.node_count();
    // Density 1.0 pushes `ceil` to exactly `n`; the clamp must select
    // every node exactly once, never wrap past the permutation.
    let all = converter_nodes(&net, 1.0, 7);
    assert_eq!(all.len(), n);
    let mut seen: Vec<usize> = all.iter().map(|id| id.index()).collect();
    seen.sort_unstable();
    assert_eq!(seen, (0..n).collect::<Vec<_>>());
    // Density 0.0 selects nobody.
    assert!(converter_nodes(&net, 0.0, 7).is_empty());
    // The density axis is nested: every sparser set is a prefix of the
    // denser one under the same seed.
    let sparse = converter_nodes(&net, 0.25, 7);
    let dense = converter_nodes(&net, 0.75, 7);
    assert!(sparse.len() <= dense.len());
    assert_eq!(&dense[..sparse.len()], &sparse[..]);
}
