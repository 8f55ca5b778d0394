//! The sweep runner: fan (point × replica) jobs over a worker pool with
//! per-job RNG streams, then aggregate in fixed order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rand::rngs::{stream_seed, SmallRng};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
use wdm_core::WdmNetwork;
use wdm_graph::topology::ReferenceTopology;
use wdm_graph::NodeId;
use wdm_rwa::BlockingStats;

use crate::config::CampaignConfig;
use crate::sim::run_replica;

/// RNG stream index for instance structure (link costs).
const STREAM_NET: u64 = 0;
/// RNG stream index for the converter-placement permutation.
const STREAM_PLACEMENT: u64 = 1;
/// First stream index for (point, replica) simulation jobs.
const STREAM_JOBS: u64 = 2;

/// Aggregated counts for one sweep point.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Offered load in Erlangs.
    pub load: f64,
    /// Converter density swept at this point.
    pub density: f64,
    /// Converters that density enabled (`ceil(density · n)`).
    pub converters: usize,
    /// Counts summed over every replica of the point.
    pub stats: BlockingStats,
}

/// Builds the campaign instance for a reference WAN: `k` wavelengths,
/// full availability, link costs drawn from `[10, 100]`, and *no*
/// conversion anywhere — converter density and the placer both enable
/// converters on top of this baseline, so the wavelength-continuity
/// constraint is the default regime.
///
/// Deterministic in `(topology, k, seed)`.
pub fn build_wan(topo: ReferenceTopology, k: usize, seed: u64) -> WdmNetwork {
    let mut rng = SmallRng::seed_from_u64(stream_seed(seed, STREAM_NET));
    let config = InstanceConfig {
        k,
        availability: Availability::Full,
        link_cost: (10, 100),
        conversion: ConversionSpec::NoConversion,
    };
    match random_network(topo.build(), &config, &mut rng) {
        Ok(net) => net,
        Err(e) => unreachable!("reference WAN instances always validate: {e}"),
    }
}

/// The nodes a converter density enables: the first `ceil(density · n)`
/// entries of one seeded permutation of the node set, so sweeping
/// densities grows a *nested* converter set (every denser point
/// includes the sparser one's converters) and the density axis is
/// monotone by construction.
pub fn converter_nodes(net: &WdmNetwork, density: f64, seed: u64) -> Vec<NodeId> {
    assert!(
        (0.0..=1.0).contains(&density),
        "density {density} not in [0, 1]"
    );
    let n = net.node_count();
    let mut order: Vec<usize> = (0..n).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(stream_seed(
        seed,
        STREAM_PLACEMENT,
    )));
    // wdm-lint: cast-checked: ceil clamped to [0, n] before truncation,
    // so a huge or non-finite density selects every node instead of
    // wrapping.
    let take = (density * n as f64).ceil().clamp(0.0, n as f64) as usize;
    order[..take.min(n)]
        .iter()
        .map(|&v| NodeId::new(v))
        .collect()
}

/// Runs the whole sweep over `net` and returns one [`PointResult`] per
/// grid point, density-major then load — the same order for any thread
/// count, with bit-identical counts (each job's RNG stream depends only
/// on the campaign seed and the job's fixed index).
pub fn run_campaign(net: &WdmNetwork, cfg: &CampaignConfig) -> Vec<PointResult> {
    if let Err(e) = cfg.validate() {
        unreachable!("run_campaign takes a validated config: {e}");
    }
    // Fixed grid enumeration: density-major, then load.
    let points: Vec<(f64, f64, Vec<NodeId>)> = cfg
        .densities
        .iter()
        .flat_map(|&d| {
            let nodes = converter_nodes(net, d, cfg.seed);
            cfg.loads.iter().map(move |&l| (l, d, nodes.clone()))
        })
        .collect();
    // Job j = (point j / replicas, replica j % replicas); stream ids are
    // a function of j alone.
    let jobs = points.len() * cfg.replicas;
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<BlockingStats>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let workers = cfg.threads.min(jobs).max(1);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Plain work-stealing counter: claims need no ordering
                // beyond the fetch_add's own atomicity.
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= jobs {
                    break;
                }
                let (load, _, converters) = &points[j / cfg.replicas];
                let mut rng =
                    SmallRng::seed_from_u64(stream_seed(cfg.seed, STREAM_JOBS + j as u64));
                let stats = run_replica(net, converters, *load, cfg.requests, cfg.policy, &mut rng);
                match slots[j].lock() {
                    Ok(mut slot) => *slot = Some(stats),
                    Err(_) => unreachable!("no panic ever holds a slot lock"),
                }
            });
        }
    });
    // Aggregate in job-index order — the fixed order is what makes the
    // output independent of which worker ran which job.
    debug_assert!(
        slots.len() == points.len() * cfg.replicas,
        "one slot per (point, replica) job"
    );
    points
        .iter()
        .enumerate()
        .map(|(p, (load, density, converters))| {
            let mut stats = BlockingStats::default();
            for r in 0..cfg.replicas {
                match slots[p * cfg.replicas + r].lock() {
                    Ok(slot) => match slot.as_ref() {
                        Some(s) => stats.add(s),
                        None => unreachable!("scope join guarantees every job completed"),
                    },
                    Err(_) => unreachable!("no panic ever holds a slot lock"),
                }
            }
            PointResult {
                load: *load,
                density: *density,
                converters: converters.len(),
                stats,
            }
        })
        .collect()
}

/// Renders one sweep point as an `e18_blocking_campaign` BENCH record
/// (fixed key order and formatting, so campaign outputs diff cleanly).
pub fn e18_record(net_name: &str, k: usize, cfg: &CampaignConfig, p: &PointResult) -> String {
    format!(
        "  {{\"experiment\": \"e18_blocking_campaign\", \"net\": \"{net_name}\", \"k\": {k}, \
         \"load\": {load}, \"density\": {density}, \"converters\": {conv}, \
         \"requests\": {req}, \"replicas\": {reps}, \"accepted\": {acc}, \"blocked\": {blk}, \
         \"no_path\": {np}, \"capacity\": {cap}, \"blocking\": {blocking:.4}}}",
        load = p.load,
        density = p.density,
        conv = p.converters,
        req = cfg.requests,
        reps = cfg.replicas,
        acc = p.stats.accepted,
        blk = p.stats.blocked,
        np = p.stats.blocked_no_path,
        cap = p.stats.blocked_capacity,
        blocking = p.stats.blocking_probability(),
    )
}
