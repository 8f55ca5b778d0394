//! The conformance gate: concurrent histories must linearize against
//! the rebuild-per-request reference spec, and the checker must catch
//! a deliberately injected race.
//!
//! All randomized cases run from fixed seeds; set `WDM_TEST_SEED` to
//! re-run any single seed, and every assertion message echoes the seed
//! that produced the failing history.

use wdm_conformance::{check_history, run_workload, CheckConfig, Verdict, WorkloadConfig};
use wdm_core::{ConversionPolicy, Cost, WdmNetwork};
use wdm_graph::DiGraph;
use wdm_rwa::{Policy, RaceInjection};

/// A 5-node diamond-with-tail: alternate routes 0→4 exist, so requests
/// contend without instantly exhausting the network.
fn diamond() -> WdmNetwork {
    let g = DiGraph::from_links(5, [(0, 1), (1, 3), (0, 2), (2, 3), (1, 2), (3, 4)]);
    let mut b = WdmNetwork::builder(g, 2);
    for link in 0..6 {
        b = b.link_wavelengths(link, [(0, 10), (1, 12)]);
    }
    b.uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
        .build()
        .expect("valid")
}

/// Two nodes, one fibre, one wavelength: every pair of provisions
/// fights for the same resource, so a skipped shard lock double-books
/// almost immediately.
fn single_link() -> WdmNetwork {
    let g = DiGraph::from_links(2, [(0, 1)]);
    WdmNetwork::builder(g, 1)
        .link_wavelengths(0, [(0, 10)])
        .uniform_conversion(ConversionPolicy::Forbidden)
        .build()
        .expect("valid")
}

/// Seed matrix for a test, honoring a `WDM_TEST_SEED` override.
fn seeds(default: &[u64]) -> Vec<u64> {
    match std::env::var("WDM_TEST_SEED") {
        Ok(s) => vec![s.parse().expect("WDM_TEST_SEED must be a u64")],
        Err(_) => default.to_vec(),
    }
}

/// Seed matrix for the negative-control tests: `WDM_TEST_SEED` is
/// *added* to the spread instead of replacing it. These tests assert
/// "at least one seed produces the race", so collapsing them to a
/// single arbitrary seed (e.g. while replaying a linearizability
/// failure with the whole suite) would fail them spuriously.
fn seeds_plus_override(default: &[u64]) -> Vec<u64> {
    let mut out = default.to_vec();
    if let Ok(s) = std::env::var("WDM_TEST_SEED") {
        out.push(s.parse().expect("WDM_TEST_SEED must be a u64"));
    }
    out
}

fn assert_linearizable(net: &WdmNetwork, cfg: &WorkloadConfig, check: &CheckConfig) {
    let history = run_workload(net, cfg);
    assert!(
        history.len() >= cfg.threads * cfg.ops_per_thread,
        "seed {}: expected every op to complete, got {} of {}",
        cfg.seed,
        history.len(),
        cfg.threads * cfg.ops_per_thread
    );
    match check_history(net, &history, check) {
        Verdict::Linearizable { witness } => {
            assert_eq!(
                witness.len(),
                history.len(),
                "seed {}: witness must cover the whole history",
                cfg.seed
            );
        }
        Verdict::NotLinearizable {
            longest_prefix,
            total,
        } => panic!(
            "seed {}: history NOT linearizable (longest prefix {longest_prefix} of {total} ops)",
            cfg.seed
        ),
        Verdict::Aborted { replays } => panic!(
            "seed {}: checker aborted after {replays} replays — raise max_replays or shrink the workload",
            cfg.seed
        ),
    }
}

/// The gate: ≥3 simulated threads, ≥200 mixed operations total, every
/// history linearizes against the rebuild-per-request reference.
#[test]
fn mixed_workload_linearizes_against_rebuild_reference() {
    let net = diamond();
    let check = CheckConfig::default();
    for seed in seeds(&[1, 2, 3, 5, 8]) {
        let cfg = WorkloadConfig::mixed(4, 52, seed);
        assert_linearizable(&net, &cfg, &check);
    }
}

/// Same gate under heavy contention on the single-resource network,
/// where almost every interleaving has overlapping claims.
#[test]
fn contended_single_resource_linearizes() {
    let net = single_link();
    let check = CheckConfig::default();
    for seed in seeds(&[11, 13, 17]) {
        let mut cfg = WorkloadConfig::mixed(4, 20, seed);
        cfg.release_bias = 0.5;
        cfg.fail_link_bias = 0.05;
        // Cuts persist, and this network has exactly one fibre: without
        // repairs a single cut would turn the rest of the history into
        // uncontended no-path blocks.
        cfg.restore_link_bias = 0.1;
        assert_linearizable(&net, &cfg, &check);
    }
}

/// Identical seed ⇒ identical history, stamp for stamp. The whole
/// harness is worthless if replays drift.
#[test]
fn scheduler_is_deterministic_in_the_seed() {
    let net = diamond();
    let cfg = WorkloadConfig::mixed(3, 15, 42);
    let a = run_workload(&net, &cfg);
    let b = run_workload(&net, &cfg);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.records.iter().zip(&b.records) {
        assert_eq!(x.op, y.op, "seed 42: op divergence");
        assert_eq!(x.response, y.response, "seed 42: response divergence");
        assert_eq!(
            (x.invoked_at, x.responded_at),
            (y.invoked_at, y.responded_at),
            "seed 42: stamp divergence"
        );
    }
    assert_eq!(a.final_busy_count, b.final_busy_count);
    assert_eq!(a.totals, b.totals);
}

/// The negative control: with the shard claim/validate protocol skipped
/// ([`RaceInjection::SkipShardLock`]), overlapping provisions double-
/// book the single (link, λ) resource and the checker must reject the
/// history. If every seed here passed, the harness would be proving
/// nothing.
#[test]
fn injected_race_is_caught() {
    let net = single_link();
    let check = CheckConfig::default();
    let mut caught = 0usize;
    let mut examined = 0usize;
    for seed in seeds_plus_override(&[21, 22, 23, 24, 25, 26, 27, 28]) {
        let mut cfg = WorkloadConfig::mixed(4, 12, seed);
        cfg.race = RaceInjection::SkipShardLock;
        cfg.release_bias = 0.5;
        cfg.fail_link_bias = 0.0;
        cfg.restore_link_bias = 0.0;
        let history = run_workload(&net, &cfg);
        examined += 1;
        match check_history(&net, &history, &check) {
            Verdict::NotLinearizable { .. } => caught += 1,
            Verdict::Linearizable { .. } => {}
            Verdict::Aborted { replays } => {
                panic!("seed {seed}: checker aborted after {replays} replays")
            }
        }
    }
    assert!(
        caught > 0,
        "checker failed to catch the injected race in any of {examined} seeded histories"
    );
}

/// Sanity: the double-booking really happens under the injected race —
/// the engine ends with more active connections than the network has
/// resources, which no correct execution allows.
#[test]
fn injected_race_double_books_the_resource() {
    let net = single_link();
    let mut double_booked = false;
    for seed in seeds_plus_override(&[21, 22, 23, 24, 25, 26, 27, 28]) {
        let mut cfg = WorkloadConfig::mixed(4, 12, seed);
        cfg.race = RaceInjection::SkipShardLock;
        cfg.release_bias = 0.0;
        cfg.fail_link_bias = 0.0;
        cfg.restore_link_bias = 0.0;
        let history = run_workload(&net, &cfg);
        // One fibre × one wavelength: any history ending with >1 active
        // connection over-committed the resource.
        if history.final_active > 1 {
            double_booked = true;
        }
    }
    assert!(
        double_booked,
        "race injection never over-committed; the negative control is too weak"
    );
}

/// Soak variant of the gate: larger workloads, more seeds. Run with
/// `cargo test -- --include-ignored` (CI schedules it via `WDM_SOAK=1`).
#[test]
#[ignore = "soak: run with --include-ignored or WDM_SOAK=1"]
fn soak_large_mixed_workloads_linearize() {
    let net = diamond();
    let check = CheckConfig {
        max_replays: 20_000_000,
    };
    for seed in seeds(&[101, 102, 103, 104, 105, 106, 107, 108, 109, 110]) {
        let mut cfg = WorkloadConfig::mixed(6, 80, seed);
        cfg.policy = Policy::Optimal;
        assert_linearizable(&net, &cfg, &check);
    }
}
