//! Property tests for the model verifier (engine 2).
//!
//! Three layers:
//!
//! 1. The paper's worked example (n = 7, m = 11, k = 4) verifies clean
//!    AND its structure matches the Theorem 1 closed forms computed by
//!    hand from the Fig. 1/2 link table.
//! 2. Random valid instances always verify with zero findings
//!    (soundness: the verifier never cries wolf on a correct build).
//! 3. Random *mutations* of a valid view — a dropped gadget edge, a
//!    corrupted cross-index slot — always produce the specific finding
//!    for the broken invariant (completeness on the seeded fault model).

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use wdm_core::csr::EdgeRole;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::{paper_example, AuxNodeKind, AuxiliaryGraph, WdmNetwork};
use wdm_graph::topology;
use wdm_lint::{verify_network, verify_view, ModelView, Rule};

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

fn view_of(network: &WdmNetwork) -> ModelView {
    let aux = AuxiliaryGraph::for_all_pairs(network);
    ModelView::capture(&aux, network)
}

/// Hand-computed Theorem 1 quantities for the paper's worked example.
///
/// From the Fig. 1/2 link table (`paper_example::LINKS`):
/// Λ_out/Λ_in sizes per node are (4,2), (4,2), (3,3), (1,4), (4,1),
/// (3,2), (0,4), so the gadget core has Σ(|Λ_in|+|Λ_out|) = 37 nodes;
/// with 2n = 14 terminals the view holds 51 nodes. Σ_e |Λ(e)| = 24
/// traversal edges; conversion pairs are all-pairs per node except the
/// single forbidden λ1 → λ2 at node 3 (0-indexed node 2), giving
/// 8+8+8+4+4+6+0 = 38; one tap per core node adds 37.
#[test]
fn paper_example_matches_theorem1_closed_forms() {
    let network = paper_example::network();
    let view = view_of(&network);

    assert_eq!(view.nodes.len(), 51, "|V'| + 2n");
    let terminals = view
        .nodes
        .iter()
        .filter(|k| matches!(k, AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. }))
        .count();
    assert_eq!(terminals, 14, "2n terminals");

    let mut conv = 0usize;
    let mut trav = 0usize;
    let mut taps = 0usize;
    for e in &view.edges {
        match e.role {
            EdgeRole::Conversion { .. } => conv += 1,
            EdgeRole::Traversal { .. } => trav += 1,
            EdgeRole::Tap => taps += 1,
        }
    }
    assert_eq!(conv, 38, "Σ_v |E_v|");
    assert_eq!(trav, 24, "|E_org| = Σ_e |Λ(e)|");
    assert_eq!(taps, 37, "one tap per gadget node");

    // Theorem 1 bounds: |V'| ≤ 2kn, Σ|E_v| ≤ k²n, |E_org| ≤ km.
    assert!(view.nodes.len() - terminals <= 2 * 4 * 7);
    assert!(conv <= 4 * 4 * 7);
    assert!(trav <= 4 * 11);

    assert_eq!(verify_network(&network, "paper-example"), vec![]);
}

/// Three fixed generated instances verify clean end to end.
#[test]
fn generated_instances_verify_clean() {
    for (seed, n, k, p) in [(11, 8, 3, 0.7), (23, 12, 4, 0.5), (47, 16, 2, 0.9)] {
        let network = instance(seed, n, k, p);
        let label = format!("gen-{seed}");
        assert_eq!(verify_network(&network, &label), vec![], "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Soundness: any valid build verifies with zero findings.
    #[test]
    fn random_valid_instances_produce_zero_findings(
        seed in 0u64..1_000,
        n in 4usize..14,
        k in 2usize..5,
        p in 0.4f64..1.0,
    ) {
        let network = instance(seed, n, k, p);
        prop_assert_eq!(verify_network(&network, "prop"), vec![]);
    }

    /// Completeness: dropping any single gadget edge fires M3 (and the
    /// M2 count check).
    #[test]
    fn dropping_any_gadget_edge_fires_m3(
        seed in 0u64..200,
        victim in 0usize..10_000,
    ) {
        let network = instance(seed, 10, 3, 0.8);
        let mut view = view_of(&network);
        let gadget_edges: Vec<usize> = view
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.role, EdgeRole::Conversion { .. }))
            .map(|(i, _)| i)
            .collect();
        prop_assume!(!gadget_edges.is_empty());
        let drop_at = gadget_edges[victim % gadget_edges.len()];
        view.edges.remove(drop_at);
        // Re-point the cross-index at the shifted edge ids so only the
        // gadget fault is visible, not a cascading index fault.
        for slot in &mut view.cross_index {
            if slot.2 > drop_at {
                slot.2 -= 1;
            }
        }
        let findings = verify_view(&view, &network, "mutated");
        prop_assert!(
            findings.iter().any(|f| f.rule == Rule::GadgetShape),
            "expected M3 in {findings:?}"
        );
        prop_assert!(
            findings.iter().any(|f| f.rule == Rule::Theorem1EdgeCount),
            "expected M2 in {findings:?}"
        );
    }

    /// Completeness: corrupting any cross-index slot fires M6.
    #[test]
    fn corrupting_any_mask_index_fires_m6(
        seed in 0u64..200,
        victim in 0usize..10_000,
    ) {
        let network = instance(seed, 10, 3, 0.8);
        let mut view = view_of(&network);
        prop_assume!(!view.cross_index.is_empty());
        let at = victim % view.cross_index.len();
        view.cross_index[at].2 = view.edges.len() + 7; // out of bounds
        let findings = verify_view(&view, &network, "mutated");
        prop_assert!(
            findings.iter().any(|f| f.rule == Rule::MaskIndex),
            "expected M6 in {findings:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The atomic-mask half of M6, under interleaved shared flips: a
    /// seeded sequence of `try_acquire` / `release` calls
    /// (the concurrent engine's primitive operations) must behave as an
    /// involution on exactly the touched `(link, λ)` pair — acquire
    /// succeeds iff the pair is free, release succeeds iff it is busy,
    /// no flip ever leaks into another pair through the cross-index,
    /// and `busy_count` tracks the reference set exactly. Ends with the
    /// static M6 sweep (`verify_mask_involution`) on the drained state.
    #[test]
    fn shared_flips_are_involutive_and_cross_index_unique(
        seed in 0u64..200,
        ops in prop::collection::vec((0usize..10_000, 0usize..4, prop::bool::ANY), 1..120),
    ) {
        use std::collections::BTreeSet;
        use wdm_core::{AcquireOutcome, ResidualState, Wavelength};
        use wdm_graph::LinkId;

        let network = instance(seed, 8, 3, 0.8);
        let state = ResidualState::new(&network);
        // Only pairs the base network carries participate; the rest must
        // report NoSuchResource and never change any state.
        let mut carried: Vec<(usize, usize)> = Vec::new();
        for (e, _) in network.graph().links() {
            for li in 0..network.k() {
                if network.link_cost(e, Wavelength::new(li)).is_finite() {
                    carried.push((e.index(), li));
                }
            }
        }
        prop_assume!(!carried.is_empty());

        let mut reference: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (pick, lambda_raw, acquire) in ops {
            let (e, li) = carried[pick % carried.len()];
            // Occasionally hit a wavelength the link may not carry.
            let li = if lambda_raw == 3 { (li + 1) % network.k() } else { li };
            let link = LinkId::new(e);
            let w = Wavelength::new(li);
            let was_busy = reference.contains(&(e, li));
            let carried_pair = carried.contains(&(e, li));
            if acquire {
                let got = state.try_acquire(link, w);
                let want = if !carried_pair {
                    AcquireOutcome::NoSuchResource
                } else if was_busy {
                    AcquireOutcome::Busy
                } else {
                    reference.insert((e, li));
                    AcquireOutcome::Acquired
                };
                prop_assert_eq!(got, want, "acquire ({e}, λ{li})");
            } else {
                // `release` returns whether the base carries the
                // resource; releasing an already-free pair is a no-op.
                let got = state.release(link, w);
                prop_assert_eq!(got, carried_pair, "release ({e}, λ{li})");
                reference.remove(&(e, li));
            }
            // The flip touched exactly one pair: every carried pair must
            // agree with the reference set (cross-index uniqueness — a
            // duplicate or aliased slot would flip a bystander).
            prop_assert_eq!(state.busy_count(), reference.len());
            for &(oe, oli) in &carried {
                prop_assert_eq!(
                    state.is_busy(LinkId::new(oe), Wavelength::new(oli)),
                    reference.contains(&(oe, oli)),
                    "bystander ({oe}, λ{oli}) changed"
                );
            }
        }

        // Drain and hand the state to the M6 sweep: a fresh-equivalent
        // mask must pass the full involution check with zero findings.
        for &(e, li) in &carried {
            state.release(LinkId::new(e), Wavelength::new(li));
        }
        prop_assert_eq!(state.busy_count(), 0);
        let findings = wdm_lint::verify_mask_involution(&network, "shared-flips");
        prop_assert!(findings.is_empty(), "M6 findings: {findings:?}");
    }
}
