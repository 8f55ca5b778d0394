//! Greedy sparse-converter placement: spend a budget of `B` converters
//! where they cut blocking the most.
//!
//! The placer is seeded by the campaign's blocked-by-cause stats: it
//! first measures the zero-converter baseline, and only searches at all
//! when that baseline actually blocks (a cause split of `(0, 0)` means
//! there is nothing a converter could fix). Each greedy round evaluates
//! every remaining candidate node with converters enabled through the
//! engine's *runtime* [`wdm_rwa::ProvisioningEngine::set_converter`]
//! path — the same code path an operator upgrading a deployed node
//! would exercise — using common random numbers (the same replica
//! streams for every candidate), so candidate comparisons are paired
//! and the whole search is deterministic in the seed.

use rand::rngs::{stream_seed, SmallRng};
use rand::SeedableRng;
use wdm_core::WdmNetwork;
use wdm_graph::NodeId;
use wdm_rwa::{BlockingStats, Policy};

use crate::sim::run_replica;

/// Placement search parameters.
#[derive(Debug, Clone)]
pub struct PlacerConfig {
    /// Maximum converters to place.
    pub budget: usize,
    /// Offered load in Erlangs used for every evaluation.
    pub load: f64,
    /// Poisson arrivals per evaluation replica.
    pub requests: usize,
    /// Replicas per evaluation (identical streams across candidates).
    pub replicas: usize,
    /// Seed for the evaluation streams.
    pub seed: u64,
    /// Routing policy.
    pub policy: Policy,
}

/// What the greedy search found.
#[derive(Debug, Clone)]
pub struct Placement {
    /// Converter budget the search was given.
    pub budget: usize,
    /// Nodes chosen, in placement order (may be shorter than `budget`
    /// when no further converter strictly reduced blocking).
    pub chosen: Vec<NodeId>,
    /// Zero-converter baseline counts.
    pub baseline: BlockingStats,
    /// Counts with `chosen` converters enabled.
    pub placed: BlockingStats,
}

impl Placement {
    /// Absolute blocking-probability reduction achieved.
    pub fn improvement(&self) -> f64 {
        self.baseline.blocking_probability() - self.placed.blocking_probability()
    }
}

/// Greedily places up to `cfg.budget` converters on `net` (which must
/// have no converters of its own — the baseline *is* the bare network).
///
/// Candidates are the intermediate-capable nodes (positive in- and
/// out-degree; conversion happens mid-path, so a node that can't relay
/// can't convert), tried hubs-first: descending total degree, node
/// index breaking ties. A round commits the first strictly-improving
/// best candidate; the search stops early when a round improves
/// nothing. Deterministic in `(net, cfg)`.
pub fn place_converters(net: &WdmNetwork, cfg: &PlacerConfig) -> Placement {
    let eval = |enabled: &[NodeId]| -> BlockingStats {
        let mut total = BlockingStats::default();
        for r in 0..cfg.replicas.max(1) {
            // Common random numbers: replica r's stream is the same for
            // every candidate set, so comparisons are paired.
            let mut rng = SmallRng::seed_from_u64(stream_seed(cfg.seed, r as u64));
            total.add(&run_replica(
                net,
                enabled,
                cfg.load,
                cfg.requests,
                cfg.policy,
                &mut rng,
            ));
        }
        total
    };

    let baseline = eval(&[]);
    let mut chosen: Vec<NodeId> = Vec::new();
    let mut best = baseline;
    // Cause-split gate: a baseline that never blocks leaves converters
    // nothing to fix — keep the budget in hand.
    if baseline.blocked == 0 {
        return Placement {
            budget: cfg.budget,
            chosen,
            baseline,
            placed: best,
        };
    }

    let g = net.graph();
    let mut candidates: Vec<NodeId> = g
        .nodes()
        .filter(|&v| g.in_degree(v) > 0 && g.out_degree(v) > 0)
        .collect();
    candidates.sort_by_key(|&v| (usize::MAX - (g.in_degree(v) + g.out_degree(v)), v.index()));

    for _ in 0..cfg.budget {
        let mut round_best: Option<(BlockingStats, NodeId)> = None;
        for &cand in candidates.iter().filter(|v| !chosen.contains(v)) {
            let mut trial = chosen.clone();
            trial.push(cand);
            let stats = eval(&trial);
            let bar = round_best.as_ref().map_or(best.blocked, |(s, _)| s.blocked);
            // Strict `<` keeps the first (highest-degree, lowest-index)
            // candidate among ties — the deterministic tie-break.
            if stats.blocked < bar {
                round_best = Some((stats, cand));
            }
        }
        match round_best {
            Some((stats, node)) => {
                chosen.push(node);
                best = stats;
            }
            None => break,
        }
    }

    Placement {
        budget: cfg.budget,
        chosen,
        baseline,
        placed: best,
    }
}

/// Renders a placement as an `e18_converter_placement` BENCH record
/// (fixed key order; node list is placement-ordered).
pub fn e18_placement_record(net_name: &str, k: usize, cfg: &PlacerConfig, p: &Placement) -> String {
    let nodes: Vec<String> = p.chosen.iter().map(|v| v.index().to_string()).collect();
    format!(
        "  {{\"experiment\": \"e18_converter_placement\", \"net\": \"{net_name}\", \"k\": {k}, \
         \"load\": {load}, \"budget\": {budget}, \"placed\": [{placed}], \
         \"baseline_blocking\": {base:.4}, \"placed_blocking\": {after:.4}, \
         \"baseline_no_path\": {bnp}, \"baseline_capacity\": {bcap}}}",
        load = cfg.load,
        budget = p.budget,
        placed = nodes.join(", "),
        base = p.baseline.blocking_probability(),
        after = p.placed.blocking_probability(),
        bnp = p.baseline.blocked_no_path,
        bcap = p.baseline.blocked_capacity,
    )
}
