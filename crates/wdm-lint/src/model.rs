//! Engine 2 — static verification of built Liang–Shen instances.
//!
//! Verifies, without running any search, that a built `G_all`
//! ([`AuxiliaryGraph::for_all_pairs`]) has exactly the structure
//! Section III-A promises for its `(n, m, k)`:
//!
//! * **M1/M2** — node and edge counts match the closed-form Theorem 1
//!   formulas (`|V'| = Σ_v (|Λ_in(v)| + |Λ_out(v)|) ≤ 2kn`,
//!   `|E_org| = Σ_e |Λ(e)| ≤ km`, `Σ_v |E_v| ≤ k²n`);
//! * **M3** — every conversion gadget `G_v = (X_v, Y_v, E_v)` is bipartite
//!   `X_v → Y_v` with zero-cost `c_v(λ, λ)` diagonals and policy-matching
//!   off-diagonal costs, with no pair missing or duplicated;
//! * **M4** — every traversal edge `y_u(λ) → x_v(λ)` matches the base
//!   multigraph in endpoints, wavelength, cost, and multiplicity;
//! * **M5** — super-source/sink taps are zero-cost and sided correctly;
//! * **M6** — the `(link, λ) → edge` cross-index is in-bounds, unique, and
//!   complete, and [`ResidualState`] busy flips (the engine's
//!   `try_acquire` / `release`) are involutions;
//! * **M7** — the Restriction 1/2 gate agrees with an independent
//!   recomputation straight off the link table.
//!
//! The checks run against a [`ModelView`] — a plain-data extraction of the
//! built structure — so tests can corrupt a view (drop a gadget edge,
//! point a cross-index at the wrong edge) and assert the specific finding
//! fires.
//!
//! [`AuxiliaryGraph::for_all_pairs`]: wdm_core::AuxiliaryGraph::for_all_pairs
//! [`ResidualState`]: wdm_core::ResidualState

use crate::findings::{Finding, Rule};
use std::collections::{BTreeSet, HashMap, HashSet};
use wdm_core::csr::EdgeRole;
use wdm_core::{
    restrictions, AcquireOutcome, AuxNodeKind, AuxStats, AuxiliaryGraph, Cost, ResidualState,
    Wavelength, WdmNetwork,
};
use wdm_graph::LinkId;

/// One edge of the extracted view, in dense-index order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEdge {
    /// Tail aux node id.
    pub source: usize,
    /// Head aux node id.
    pub target: usize,
    /// Edge weight.
    pub cost: Cost,
    /// Physical meaning, as [`AuxiliaryGraph::edge_role`] decodes it.
    pub role: EdgeRole,
}

/// A plain-data snapshot of a built `G_all`, amenable to mutation in
/// tests.
#[derive(Debug, Clone)]
pub struct ModelView {
    /// Meaning of each aux node, by id.
    pub nodes: Vec<AuxNodeKind>,
    /// Every edge, by dense index.
    pub edges: Vec<ViewEdge>,
    /// The construction's own size accounting.
    pub stats: AuxStats,
    /// The `(link, λ) → dense edge index` cross-index the residual router
    /// flips through.
    pub cross_index: Vec<(LinkId, Wavelength, usize)>,
    /// What the builder believed about Restriction 1 (gate input for the
    /// `restrictions.rs` fast paths).
    pub restriction1: bool,
    /// What the builder believed about Restriction 2.
    pub restriction2: bool,
}

impl ModelView {
    /// Extracts a view from a built all-pairs auxiliary graph, recording
    /// the Restriction gates as `restrictions.rs` computes them.
    pub fn capture(aux: &AuxiliaryGraph, network: &WdmNetwork) -> Self {
        let g = aux.graph();
        let nodes = (0..g.node_count()).map(|i| aux.kind(i)).collect();
        let edges: Vec<ViewEdge> = g
            .edges()
            .map(|(source, e)| ViewEdge {
                source,
                target: e.target,
                cost: e.cost,
                role: aux.edge_role(source, e),
            })
            .collect();
        let cross_index = edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.role {
                EdgeRole::Traversal { link, wavelength } => Some((link, wavelength, i)),
                _ => None,
            })
            .collect();
        ModelView {
            nodes,
            edges,
            stats: aux.stats(),
            cross_index,
            restriction1: restrictions::satisfies_restriction1(network),
            restriction2: restrictions::satisfies_restriction2(network),
        }
    }
}

/// Per-node wavelength sets recomputed straight off the link table —
/// independently of `WdmNetwork::lambda_in`/`lambda_out`, so a bug there
/// cannot hide a construction bug.
struct LambdaSets {
    lin: Vec<BTreeSet<Wavelength>>,
    lout: Vec<BTreeSet<Wavelength>>,
}

fn recompute_lambda_sets(network: &WdmNetwork) -> LambdaSets {
    let n = network.node_count();
    let mut lin = vec![BTreeSet::new(); n];
    let mut lout = vec![BTreeSet::new(); n];
    for (e, l) in network.graph().links() {
        for (w, _) in network.wavelengths_on(e).iter() {
            lout[l.tail().index()].insert(w);
            lin[l.head().index()].insert(w);
        }
    }
    LambdaSets { lin, lout }
}

/// Statically verifies a view against its base network; returns every
/// violated invariant as a finding labeled `instance`.
pub fn verify_view(view: &ModelView, network: &WdmNetwork, instance: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let n = network.node_count();
    let m = network.link_count();
    let k = network.k();
    let sets = recompute_lambda_sets(network);

    // ---- M1: node counts against the closed-form formulas. ----
    let expected_core: usize = (0..n).map(|v| sets.lin[v].len() + sets.lout[v].len()).sum();
    let expected_total = expected_core + 2 * n;
    if view.nodes.len() != expected_total {
        out.push(Finding::model(
            Rule::Theorem1NodeCount,
            instance,
            format!(
                "G_all has {} nodes; Theorem 1 gives Σ(|Λ_in|+|Λ_out|) + 2n = {} + {} = {}",
                view.nodes.len(),
                expected_core,
                2 * n,
                expected_total
            ),
        ));
    }
    let mut in_count = 0usize;
    let mut out_count = 0usize;
    let mut src_count = 0usize;
    let mut snk_count = 0usize;
    for kind in &view.nodes {
        match kind {
            AuxNodeKind::In { .. } => in_count += 1,
            AuxNodeKind::Out { .. } => out_count += 1,
            AuxNodeKind::Source { .. } => src_count += 1,
            AuxNodeKind::Sink { .. } => snk_count += 1,
        }
    }
    let expected_in: usize = sets.lin.iter().map(BTreeSet::len).sum();
    let expected_out: usize = sets.lout.iter().map(BTreeSet::len).sum();
    for (label, got, want) in [
        ("X", in_count, expected_in),
        ("Y", out_count, expected_out),
        ("source terminals", src_count, n),
        ("sink terminals", snk_count, n),
    ] {
        if got != want {
            out.push(Finding::model(
                Rule::Theorem1NodeCount,
                instance,
                format!("{label} node count is {got}, expected {want}"),
            ));
        }
    }
    if expected_core > 2 * k * n {
        out.push(Finding::model(
            Rule::Theorem1NodeCount,
            instance,
            format!(
                "|V'| = {expected_core} exceeds the Observation 2 bound 2kn = {}",
                2 * k * n
            ),
        ));
    }

    // ---- M2: edge counts. ----
    let mut conv_count = 0usize;
    let mut trav_count = 0usize;
    let mut tap_count = 0usize;
    for e in &view.edges {
        match e.role {
            EdgeRole::Conversion { .. } => conv_count += 1,
            EdgeRole::Traversal { .. } => trav_count += 1,
            EdgeRole::Tap => tap_count += 1,
        }
    }
    let expected_trav: usize = (0..m)
        .map(|e| network.wavelengths_on(LinkId::new(e)).len())
        .sum();
    let expected_conv: usize = (0..n)
        .map(|v| {
            let node = wdm_graph::NodeId::new(v);
            sets.lin[v]
                .iter()
                .flat_map(|&p| sets.lout[v].iter().map(move |&q| (p, q)))
                .filter(|&(p, q)| network.conversion_cost(node, p, q).is_finite())
                .count()
        })
        .sum();
    for (label, got, want) in [
        ("conversion (Σ|E_v|)", conv_count, expected_conv),
        ("traversal (|E_org| = Σ|Λ(e)|)", trav_count, expected_trav),
        ("tap", tap_count, expected_core),
    ] {
        if got != want {
            out.push(Finding::model(
                Rule::Theorem1EdgeCount,
                instance,
                format!("{label} edge count is {got}, expected {want}"),
            ));
        }
    }
    if expected_conv > k * k * n || expected_trav > k * m {
        out.push(Finding::model(
            Rule::Theorem1EdgeCount,
            instance,
            format!(
                "size bounds violated: Σ|E_v| = {expected_conv} (≤ k²n = {}), \
                 |E_org| = {expected_trav} (≤ km = {})",
                k * k * n,
                k * m
            ),
        ));
    }

    // ---- M3: gadget shape + completeness. ----
    let mut seen_conv: HashMap<(usize, Wavelength, Wavelength), usize> = HashMap::new();
    for e in &view.edges {
        let EdgeRole::Conversion { node, from, to } = e.role else {
            continue;
        };
        *seen_conv.entry((node.index(), from, to)).or_insert(0) += 1;
        let src_ok = matches!(
            view.nodes.get(e.source),
            Some(&AuxNodeKind::In { node: sn, wavelength: sw }) if sn == node && sw == from
        );
        let dst_ok = matches!(
            view.nodes.get(e.target),
            Some(&AuxNodeKind::Out { node: tn, wavelength: tw }) if tn == node && tw == to
        );
        if !src_ok || !dst_ok {
            out.push(Finding::model(
                Rule::GadgetShape,
                instance,
                format!(
                    "conversion edge at node {} ({} → {}) is not bipartite \
                     x_v(λp) → y_v(λq): endpoints are {:?} → {:?}",
                    node.index(),
                    from.index(),
                    to.index(),
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
        if from == to && e.cost != Cost::ZERO {
            out.push(Finding::model(
                Rule::GadgetShape,
                instance,
                format!(
                    "diagonal gadget edge c_v(λ{0}, λ{0}) at node {1} costs {2}, expected 0",
                    from.index(),
                    node.index(),
                    e.cost
                ),
            ));
        } else if e.cost != network.conversion_cost(node, from, to) {
            out.push(Finding::model(
                Rule::GadgetShape,
                instance,
                format!(
                    "gadget edge at node {} costs {} but the conversion policy says {}",
                    node.index(),
                    e.cost,
                    network.conversion_cost(node, from, to)
                ),
            ));
        }
    }
    for v in 0..n {
        let node = wdm_graph::NodeId::new(v);
        for &p in &sets.lin[v] {
            for &q in &sets.lout[v] {
                if !network.conversion_cost(node, p, q).is_finite() {
                    continue;
                }
                match seen_conv.get(&(v, p, q)).copied().unwrap_or(0) {
                    1 => {}
                    0 => out.push(Finding::model(
                        Rule::GadgetShape,
                        instance,
                        format!(
                            "gadget edge x_{v}(λ{}) → y_{v}(λ{}) is missing \
                             (conversion is allowed, so E_v must contain it)",
                            p.index(),
                            q.index()
                        ),
                    )),
                    c => out.push(Finding::model(
                        Rule::GadgetShape,
                        instance,
                        format!(
                            "gadget edge x_{v}(λ{}) → y_{v}(λ{}) appears {c} times",
                            p.index(),
                            q.index()
                        ),
                    )),
                }
            }
        }
    }

    // ---- M4: traversal shape + multiplicity. ----
    let mut seen_trav: HashMap<(usize, Wavelength), usize> = HashMap::new();
    for e in &view.edges {
        let EdgeRole::Traversal { link, wavelength } = e.role else {
            continue;
        };
        if link.index() >= m {
            out.push(Finding::model(
                Rule::TraversalShape,
                instance,
                format!("traversal edge references link {} of {m}", link.index()),
            ));
            continue;
        }
        *seen_trav.entry((link.index(), wavelength)).or_insert(0) += 1;
        let l = network.graph().link(link);
        let want_cost = network.link_cost(link, wavelength);
        if e.cost != want_cost {
            out.push(Finding::model(
                Rule::TraversalShape,
                instance,
                format!(
                    "traversal edge for (link {}, λ{}) costs {}, base network says {}",
                    link.index(),
                    wavelength.index(),
                    e.cost,
                    want_cost
                ),
            ));
        }
        let src_ok = matches!(
            view.nodes.get(e.source),
            Some(&AuxNodeKind::Out { node, wavelength: w }) if node == l.tail() && w == wavelength
        );
        let dst_ok = matches!(
            view.nodes.get(e.target),
            Some(&AuxNodeKind::In { node, wavelength: w }) if node == l.head() && w == wavelength
        );
        if !src_ok || !dst_ok {
            out.push(Finding::model(
                Rule::TraversalShape,
                instance,
                format!(
                    "traversal edge for (link {}, λ{}) must run \
                     y_{}(λ) → x_{}(λ); endpoints are {:?} → {:?}",
                    link.index(),
                    wavelength.index(),
                    l.tail().index(),
                    l.head().index(),
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
    }
    for e in 0..m {
        for (w, _) in network.wavelengths_on(LinkId::new(e)).iter() {
            let c = seen_trav.get(&(e, w)).copied().unwrap_or(0);
            if c != 1 {
                out.push(Finding::model(
                    Rule::TraversalShape,
                    instance,
                    format!(
                        "(link {e}, λ{}) has {c} traversal edges, expected exactly 1",
                        w.index()
                    ),
                ));
            }
        }
    }

    // ---- M5: terminal taps. ----
    for e in &view.edges {
        if e.role != EdgeRole::Tap {
            // Terminals only ever touch tap edges.
            let touches_terminal = matches!(
                view.nodes.get(e.source),
                Some(AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. })
            ) || matches!(
                view.nodes.get(e.target),
                Some(AuxNodeKind::Source { .. } | AuxNodeKind::Sink { .. })
            );
            if touches_terminal {
                out.push(Finding::model(
                    Rule::TerminalShape,
                    instance,
                    format!("non-tap edge {:?} touches a terminal node", e.role),
                ));
            }
            continue;
        }
        if e.cost != Cost::ZERO {
            out.push(Finding::model(
                Rule::TerminalShape,
                instance,
                format!(
                    "tap edge {} → {} costs {}, expected 0",
                    e.source, e.target, e.cost
                ),
            ));
        }
        let shape_ok = matches!(
            (view.nodes.get(e.source), view.nodes.get(e.target)),
            (
                Some(&AuxNodeKind::Source { node: sv }),
                Some(&AuxNodeKind::Out { node: tv, .. }),
            ) if sv == tv
        ) || matches!(
            (view.nodes.get(e.source), view.nodes.get(e.target)),
            (
                Some(&AuxNodeKind::In { node: sv, .. }),
                Some(&AuxNodeKind::Sink { node: tv }),
            ) if sv == tv
        );
        if !shape_ok {
            out.push(Finding::model(
                Rule::TerminalShape,
                instance,
                format!(
                    "tap edge must run v' → Y_v or X_v → v''; endpoints are {:?} → {:?}",
                    view.nodes.get(e.source),
                    view.nodes.get(e.target)
                ),
            ));
        }
    }

    // ---- M6: cross-index integrity. ----
    let mut seen_idx: HashSet<usize> = HashSet::new();
    let mut covered: HashSet<(usize, Wavelength)> = HashSet::new();
    for &(link, w, idx) in &view.cross_index {
        if idx >= view.edges.len() {
            out.push(Finding::model(
                Rule::MaskIndex,
                instance,
                format!(
                    "cross-index for (link {}, λ{}) points at edge {idx} of {}",
                    link.index(),
                    w.index(),
                    view.edges.len()
                ),
            ));
            continue;
        }
        if !seen_idx.insert(idx) {
            out.push(Finding::model(
                Rule::MaskIndex,
                instance,
                format!("edge index {idx} appears twice in the (link, λ) cross-index"),
            ));
        }
        covered.insert((link.index(), w));
        let role = view.edges[idx].role;
        if role
            != (EdgeRole::Traversal {
                link,
                wavelength: w,
            })
        {
            out.push(Finding::model(
                Rule::MaskIndex,
                instance,
                format!(
                    "cross-index for (link {}, λ{}) points at edge {idx} with role {role:?}; \
                     masking it would not free/occupy that resource",
                    link.index(),
                    w.index()
                ),
            ));
        }
    }
    for e in 0..m {
        for (w, _) in network.wavelengths_on(LinkId::new(e)).iter() {
            if !covered.contains(&(e, w)) {
                out.push(Finding::model(
                    Rule::MaskIndex,
                    instance,
                    format!(
                        "(link {e}, λ{}) has no cross-index entry; it could never be \
                         marked busy",
                        w.index()
                    ),
                ));
            }
        }
    }

    // ---- M7: Restriction 1/2 gate vs. independent recomputation. ----
    let r1 = (0..n).all(|v| {
        let node = wdm_graph::NodeId::new(v);
        sets.lin[v].iter().all(|&p| {
            sets.lout[v]
                .iter()
                .all(|&q| network.conversion_cost(node, p, q).is_finite())
        })
    });
    let min_link: Option<Cost> = (0..m)
        .flat_map(|e| {
            network
                .wavelengths_on(LinkId::new(e))
                .iter()
                .map(|(_, c)| c)
                .collect::<Vec<_>>()
        })
        .min();
    let max_conv: Option<Cost> = (0..n)
        .flat_map(|v| {
            let node = wdm_graph::NodeId::new(v);
            sets.lin[v]
                .iter()
                .flat_map(|&p| {
                    sets.lout[v]
                        .iter()
                        .filter(move |&&q| q != p)
                        .map(move |&q| network.conversion_cost(node, p, q))
                })
                .collect::<Vec<_>>()
        })
        .max();
    let r2 = match (min_link, max_conv) {
        (None, _) => false,
        (Some(_), None) => true,
        (Some(link), Some(conv)) => conv < link,
    };
    if view.restriction1 != r1 {
        out.push(Finding::model(
            Rule::RestrictionGate,
            instance,
            format!(
                "Restriction 1 gate says {} but direct recomputation over the link \
                 table says {r1}",
                view.restriction1
            ),
        ));
    }
    if view.restriction2 != r2 {
        out.push(Finding::model(
            Rule::RestrictionGate,
            instance,
            format!(
                "Restriction 2 gate says {} but direct recomputation \
                 (max c_v = {max_conv:?}, min w = {min_link:?}) says {r2}",
                view.restriction2
            ),
        ));
    }

    out
}

/// Dynamically checks that [`ResidualState`] busy flips — the
/// `try_acquire` / `release` pair every engine request runs — are
/// involutions, over every `(link, λ)` pair of the base network: the
/// runtime half of M6.
pub fn verify_mask_involution(network: &WdmNetwork, instance: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |detail: String| out.push(Finding::model(Rule::MaskIndex, instance, detail));
    let state = ResidualState::new(network);
    for (e, _) in network.graph().links() {
        for li in 0..network.k() {
            let w = Wavelength::new(li);
            let at = format!("(link {}, λ{li})", e.index());
            if !network.link_cost(e, w).is_finite() {
                if state.try_acquire(e, w) != AcquireOutcome::NoSuchResource {
                    finding(format!(
                        "try_acquire found {at}, which the base network does not carry"
                    ));
                }
                continue;
            }
            if state.is_busy(e, w) {
                finding(format!("{at} busy on a freshly built structure"));
            }
            if state.try_acquire(e, w) != AcquireOutcome::Acquired || !state.is_busy(e, w) {
                finding(format!("acquire of {at} did not mark it busy"));
            }
            if !state.release(e, w) || state.is_busy(e, w) {
                finding(format!("release of {at} did not free it"));
            }
        }
    }
    if state.busy_count() != 0 {
        finding(format!(
            "acquire/release sweep left busy_count = {}, expected 0",
            state.busy_count()
        ));
    }
    out
}

/// Runs the full model verification for one network: builds `G_all`,
/// verifies the extracted view statically, and checks mask involution.
pub fn verify_network(network: &WdmNetwork, instance: &str) -> Vec<Finding> {
    let aux = AuxiliaryGraph::for_all_pairs(network);
    let view = ModelView::capture(&aux, network);
    let mut findings = verify_view(&view, network, instance);
    findings.extend(verify_mask_involution(network, instance));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{paper_example, ConversionPolicy};
    use wdm_graph::DiGraph;

    fn chain() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn valid_instances_produce_zero_findings() {
        for (label, net) in [
            ("chain", chain()),
            ("paper-example", paper_example::network()),
        ] {
            let findings = verify_network(&net, label);
            assert!(findings.is_empty(), "{label}: {findings:?}");
        }
    }

    #[test]
    fn dropped_gadget_edge_fires_m3() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        let at = view
            .edges
            .iter()
            .position(|e| matches!(e.role, EdgeRole::Conversion { .. }))
            .expect("has gadget edges");
        view.edges.remove(at);
        // Removing shifts dense indices, so rebuild the cross-index the
        // way a (buggy) builder would have.
        view.cross_index = view
            .edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| match e.role {
                EdgeRole::Traversal { link, wavelength } => Some((link, wavelength, i)),
                _ => None,
            })
            .collect();
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::GadgetShape && f.message.contains("missing")),
            "{findings:?}"
        );
        // The count check notices too.
        assert!(findings.iter().any(|f| f.rule == Rule::Theorem1EdgeCount));
    }

    #[test]
    fn corrupted_mask_index_fires_m6() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        // Point the first cross-index entry at a non-traversal edge.
        let wrong = view
            .edges
            .iter()
            .position(|e| !matches!(e.role, EdgeRole::Traversal { .. }))
            .expect("has non-traversal edges");
        view.cross_index[0].2 = wrong;
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::MaskIndex && f.message.contains("role")),
            "{findings:?}"
        );

        // Out-of-bounds index.
        let mut view2 = ModelView::capture(&aux, &net);
        view2.cross_index[0].2 = view2.edges.len() + 7;
        let findings = verify_view(&view2, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::MaskIndex && f.message.contains("points at edge")),
            "{findings:?}"
        );
    }

    #[test]
    fn wrong_restriction_gate_fires_m7() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        view.restriction2 = !view.restriction2;
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings.iter().any(|f| f.rule == Rule::RestrictionGate),
            "{findings:?}"
        );
    }

    #[test]
    fn nonzero_tap_cost_fires_m5() {
        let net = chain();
        let aux = AuxiliaryGraph::for_all_pairs(&net);
        let mut view = ModelView::capture(&aux, &net);
        let at = view
            .edges
            .iter()
            .position(|e| e.role == EdgeRole::Tap)
            .expect("has taps");
        view.edges[at].cost = Cost::new(3);
        let findings = verify_view(&view, &net, "mutated");
        assert!(
            findings
                .iter()
                .any(|f| f.rule == Rule::TerminalShape && f.message.contains("expected 0")),
            "{findings:?}"
        );
    }
}
