//! The arrival/departure replay loop and its blocking statistics.

use crate::concurrent::ProvisionOutcome;
use crate::engine::{ConnectionId, ProvisioningEngine};
use crate::metrics::BlockCause;
use crate::policy::Policy;
use crate::workload::Request;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wdm_core::WdmNetwork;
use wdm_graph::LinkId;

/// Aggregate outcome of a provisioning replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockingStats {
    /// Requests offered.
    pub offered: u64,
    /// Requests accepted.
    pub accepted: u64,
    /// Requests blocked.
    pub blocked: u64,
    /// Total wavelength conversions across accepted paths.
    pub conversions: u64,
    /// Total links across accepted paths.
    pub links_used: u64,
    /// Peak simultaneous active connections.
    pub peak_active: usize,
    /// Blocked requests that no amount of free capacity would have
    /// routed (pair unroutable on the free network under the policy).
    pub blocked_no_path: u64,
    /// Blocked requests caused by occupancy: the free network routes
    /// the pair. Together with [`blocked_no_path`](Self::blocked_no_path)
    /// this sums to [`blocked`](Self::blocked).
    pub blocked_capacity: u64,
}

impl BlockingStats {
    /// Blocking probability `blocked / offered` (0 for an empty run).
    pub fn blocking_probability(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.blocked as f64 / self.offered as f64
        }
    }

    /// Mean conversions per accepted connection.
    pub fn mean_conversions(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.conversions as f64 / self.accepted as f64
        }
    }

    /// Mean links (hops) per accepted connection.
    pub fn mean_links(&self) -> f64 {
        if self.accepted == 0 {
            0.0
        } else {
            self.links_used as f64 / self.accepted as f64
        }
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (self.blocked_no_path, self.blocked_capacity)
    }

    /// Adds another run's counts into this one, as when summing the
    /// replicas of a campaign point. The peak is the larger of the two
    /// peaks: the runs did not overlap in time.
    pub fn add(&mut self, other: &BlockingStats) {
        self.offered += other.offered;
        self.accepted += other.accepted;
        self.blocked += other.blocked;
        self.conversions += other.conversions;
        self.links_used += other.links_used;
        self.peak_active = self.peak_active.max(other.peak_active);
        self.blocked_no_path += other.blocked_no_path;
        self.blocked_capacity += other.blocked_capacity;
    }
}

/// The arrival/departure event loop, stepped one request at a time over
/// a caller-owned engine, so a caller can act on the engine between
/// arrivals (cut a fibre, dump metrics).
///
/// Each [`offer`](Self::offer) releases every connection due at or
/// before the request's arrival, provisions the request and counts the
/// outcome. Departures are processed before an arrival at the same
/// instant, in `(time, id)` order; a connection with an infinite holding
/// never departs, and a departure whose connection is no longer active
/// is skipped. Cut fibres through [`fail_link`](Self::fail_link), so
/// connections that left before the cut are not torn down and restored
/// ones keep their departures.
#[derive(Debug, Default)]
pub struct Replay {
    /// Pending departures keyed by `(arrival + holding, id)`. Departure
    /// times are positive (arrivals are non-negative and holdings
    /// positive), so their bit patterns order like the times.
    departures: BinaryHeap<Reverse<(u64, ConnectionId)>>,
    /// The time of the latest arrival or cut; events start at time 0.
    now: f64,
    stats: BlockingStats,
}

impl Replay {
    /// Releases the connections due by `request.arrival`, then
    /// provisions `request` under `policy` and counts the outcome. A
    /// block counts under the cause its own provision reports, so the
    /// split sums to `blocked` whatever the engine's history.
    ///
    /// # Panics
    ///
    /// Panics if `request` arrives before time 0 or before the
    /// previously offered request or cut.
    pub fn offer(&mut self, engine: &mut ProvisioningEngine, request: &Request, policy: Policy) {
        self.advance_to(engine, request.arrival);
        self.stats.offered += 1;
        match engine.provision_outcome(request.s, request.t, policy) {
            Ok(ProvisionOutcome::Accepted {
                id,
                hops,
                conversions,
                ..
            }) => {
                self.stats.accepted += 1;
                self.stats.conversions += conversions as u64;
                self.stats.links_used += hops as u64;
                if request.holding.is_finite() {
                    let at = request.arrival + request.holding;
                    self.departures.push(Reverse((at.to_bits(), id)));
                }
                self.stats.peak_active = self.stats.peak_active.max(engine.active_count());
            }
            Ok(ProvisionOutcome::Blocked { cause }) => {
                self.stats.blocked += 1;
                match cause {
                    BlockCause::NoPath => self.stats.blocked_no_path += 1,
                    BlockCause::Capacity => self.stats.blocked_capacity += 1,
                }
            }
            // An endpoint outside the network: blocked, with no cause.
            Err(_) => self.stats.blocked += 1,
        }
    }

    /// Cuts `link` on `engine` ([`ProvisioningEngine::fail_link`]) at
    /// time `at`, after releasing the connections due by then, and keeps
    /// the departure queue in step: a torn connection restored under a
    /// new id departs under that id at its original time, and a lost one
    /// leaves the queue. Returns the engine's outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range, or if `at` is before time 0 or
    /// before the previously offered request or cut.
    pub fn fail_link(
        &mut self,
        engine: &mut ProvisioningEngine,
        link: LinkId,
        at: f64,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        self.advance_to(engine, at);
        let outcomes = engine.fail_link(link, policy);
        // Outcomes come in torn-id order, so each departure finds its
        // connection's outcome by binary search.
        self.departures = std::mem::take(&mut self.departures)
            .into_iter()
            .filter_map(|Reverse((at, id))| {
                match outcomes.binary_search_by_key(&id, |&(torn, _)| torn) {
                    Ok(i) => outcomes[i].1.map(|restored| Reverse((at, restored))),
                    Err(_) => Some(Reverse((at, id))),
                }
            })
            .collect();
        outcomes
    }

    /// The counts so far.
    pub fn stats(&self) -> BlockingStats {
        self.stats
    }

    /// Moves the clock to `now` and releases every connection due at or
    /// before it.
    fn advance_to(&mut self, engine: &mut ProvisioningEngine, now: f64) {
        assert!(
            now >= self.now,
            "requests and cuts must be sorted by arrival time, from time 0"
        );
        self.now = now;
        while let Some(&Reverse((at, id))) = self.departures.peek() {
            if f64::from_bits(at) > now {
                break;
            }
            self.departures.pop();
            let _ = engine.release(id);
        }
    }
}

/// Replays a workload against a fresh engine over `base` with `policy`,
/// through one [`Replay`].
///
/// Requests must be sorted by arrival time, from time 0 (as the
/// [`crate::workload`] generators produce them).
///
/// # Panics
///
/// Panics if the request list is not sorted by arrival or an arrival is
/// negative.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use wdm_rwa::{simulate, workload, Policy};
///
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let base = wdm_core::instance::random_network(
///     wdm_graph::topology::nsfnet(),
///     &wdm_core::instance::InstanceConfig::standard(8),
///     &mut rng,
/// ).expect("valid");
/// let reqs = workload::poisson_requests(base.node_count(), 200, 6.0, 1.0, &mut rng);
/// let stats = simulate(&base, &reqs, Policy::Optimal);
/// assert_eq!(stats.offered, 200);
/// assert_eq!(stats.accepted + stats.blocked, 200);
/// ```
pub fn simulate(base: &WdmNetwork, requests: &[Request], policy: Policy) -> BlockingStats {
    let mut engine = ProvisioningEngine::new(base);
    let mut replay = Replay::default();
    for request in requests {
        replay.offer(&mut engine, request, policy);
    }
    replay.stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{poisson_requests, static_requests};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdm_core::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
    use wdm_graph::topology;

    fn base(k: usize) -> WdmNetwork {
        let mut rng = SmallRng::seed_from_u64(77);
        random_network(
            topology::nsfnet(),
            &InstanceConfig {
                k,
                availability: Availability::Full,
                link_cost: (10, 10),
                conversion: ConversionSpec::Uniform { lo: 1, hi: 1 },
            },
            &mut rng,
        )
        .expect("valid")
    }

    #[test]
    fn static_workload_eventually_blocks() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = base(2);
        let reqs = static_requests(net.node_count(), 100, &mut rng);
        let stats = simulate(&net, &reqs, Policy::Optimal);
        assert_eq!(stats.offered, 100);
        assert!(
            stats.blocked > 0,
            "2 wavelengths cannot carry 100 static circuits"
        );
        assert_eq!(stats.accepted + stats.blocked, stats.offered);
        assert!(stats.peak_active as u64 <= stats.accepted);
    }

    #[test]
    fn dynamic_workload_blocks_less_than_static() {
        let mut rng = SmallRng::seed_from_u64(9);
        let net = base(4);
        let n = net.node_count();
        let static_reqs = static_requests(n, 150, &mut rng);
        let dynamic_reqs = poisson_requests(n, 150, 4.0, 1.0, &mut rng);
        let s1 = simulate(&net, &static_reqs, Policy::Optimal);
        let s2 = simulate(&net, &dynamic_reqs, Policy::Optimal);
        assert!(
            s2.blocking_probability() < s1.blocking_probability(),
            "departures free capacity: {} vs {}",
            s2.blocking_probability(),
            s1.blocking_probability()
        );
    }

    #[test]
    fn optimal_policy_blocks_no_more_than_first_fit() {
        // First-fit cannot convert wavelengths, so on identical arrivals
        // the optimal policy accepts at least roughly as many. (Not a
        // theorem under resource contention — greedy acceptance can
        // occasionally hurt — but holds on this seeded workload and
        // documents the expected trend.)
        let mut rng = SmallRng::seed_from_u64(10);
        let net = {
            let mut rng2 = SmallRng::seed_from_u64(99);
            random_network(
                topology::nsfnet(),
                &InstanceConfig {
                    k: 6,
                    availability: Availability::Probability(0.6),
                    link_cost: (10, 10),
                    conversion: ConversionSpec::Uniform { lo: 1, hi: 1 },
                },
                &mut rng2,
            )
            .expect("valid")
        };
        let reqs = poisson_requests(net.node_count(), 300, 8.0, 1.0, &mut rng);
        let opt = simulate(&net, &reqs, Policy::Optimal);
        let ff = simulate(&net, &reqs, Policy::FirstFit);
        assert!(
            opt.blocking_probability() <= ff.blocking_probability() + 0.02,
            "optimal {} vs first-fit {}",
            opt.blocking_probability(),
            ff.blocking_probability()
        );
    }

    #[test]
    fn blocked_cause_split_sums_and_mean_links_averages() {
        let mut rng = SmallRng::seed_from_u64(8);
        let net = base(2);
        let reqs = static_requests(net.node_count(), 100, &mut rng);
        let stats = simulate(&net, &reqs, Policy::Optimal);
        assert!(stats.blocked > 0);
        assert_eq!(
            stats.blocked_no_path + stats.blocked_capacity,
            stats.blocked,
            "cause split must cover every block"
        );
        assert_eq!(
            stats.blocked_by_cause(),
            (stats.blocked_no_path, stats.blocked_capacity)
        );
        // NSFNET with full availability is strongly connected: every
        // block is a capacity block.
        assert_eq!(stats.blocked_no_path, 0);
        // Accepted paths each use at least one link.
        assert!(stats.mean_links() >= 1.0);
        assert!(
            (stats.mean_links() - stats.links_used as f64 / stats.accepted as f64).abs() < 1e-12
        );
    }

    /// One fibre 0 → 1 carrying one wavelength: a single connection
    /// fills it.
    fn one_circuit() -> WdmNetwork {
        let g = wdm_graph::DiGraph::from_links(2, [(0, 1)]);
        WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 10)])
            .build()
            .expect("valid")
    }

    fn request(arrival: f64, holding: f64) -> Request {
        Request {
            s: 0.into(),
            t: 1.into(),
            arrival,
            holding,
        }
    }

    #[test]
    fn replay_departs_before_an_arrival_at_the_same_instant() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        for r in [
            request(0.0, 1.0),
            // Due exactly now: the departure frees the wavelength first.
            request(1.0, f64::INFINITY),
            // The infinite holding never departs, so these both block.
            request(2.0, 1.0),
            request(1e9, 1.0),
        ] {
            replay.offer(&mut engine, &r, Policy::Optimal);
        }
        let stats = replay.stats();
        assert_eq!((stats.offered, stats.accepted, stats.blocked), (4, 2, 2));
        assert_eq!(stats.blocked_by_cause(), (0, 2));
        assert_eq!(stats.peak_active, 1);
        assert_eq!(engine.active_count(), 1);
    }

    #[test]
    fn replay_skips_departures_of_connections_already_gone() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(0.0, 5.0), Policy::Optimal);
        let ids: Vec<ConnectionId> = engine.active_connections().collect();
        for id in ids {
            engine.release(id).expect("active");
        }
        replay.offer(&mut engine, &request(1.0, 1.0), Policy::Optimal);
        // Due by t = 9: the second connection (released) and the first
        // (already gone, skipped).
        replay.offer(&mut engine, &request(9.0, 1.0), Policy::Optimal);
        assert_eq!(replay.stats().accepted, 3);
        assert_eq!(engine.totals(), (3, 0, 2));
    }

    #[test]
    fn replay_counts_only_its_own_blocks_on_an_engine_with_history() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        // Earlier history: one capacity block and one no-path block.
        engine
            .provision(0.into(), 1.into(), Policy::Optimal)
            .expect("free");
        assert!(engine
            .provision(0.into(), 1.into(), Policy::Optimal)
            .is_err());
        assert!(engine
            .provision(1.into(), 0.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (1, 1));
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(0.0, 1.0), Policy::Optimal);
        let back = Request {
            s: 1.into(),
            t: 0.into(),
            arrival: 0.5,
            holding: 1.0,
        };
        replay.offer(&mut engine, &back, Policy::Optimal);
        let stats = replay.stats();
        assert_eq!(stats.blocked, 2);
        assert_eq!(stats.blocked_by_cause(), (1, 1));
    }

    #[test]
    fn replay_keeps_the_departure_of_a_restored_connection() {
        // 0 → 1 direct, or around through 2; one wavelength each.
        let g = wdm_graph::DiGraph::from_links(3, [(0, 1), (0, 2), (2, 1)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 5)])
            .link_wavelengths(2, [(0, 5)])
            .build()
            .expect("valid");
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(0.0, 1.0), Policy::Optimal);
        let outcomes = replay.fail_link(&mut engine, LinkId::new(0), 0.5, Policy::Optimal);
        assert!(matches!(outcomes[..], [(_, Some(_))]), "{outcomes:?}");
        // The restored connection departs at t = 1 and frees 0 → 2.
        let around = Request {
            s: 0.into(),
            t: 2.into(),
            arrival: 5.0,
            holding: 1.0,
        };
        replay.offer(&mut engine, &around, Policy::Optimal);
        assert_eq!(replay.stats().accepted, 2);
        assert_eq!(engine.totals(), (3, 0, 2));
    }

    #[test]
    fn replay_cut_spares_connections_already_departed() {
        // 0 → 1 direct, or around through 2; one wavelength each.
        let g = wdm_graph::DiGraph::from_links(3, [(0, 1), (0, 2), (2, 1)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 5)])
            .link_wavelengths(2, [(0, 5)])
            .build()
            .expect("valid");
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(0.0, 1.0), Policy::Optimal);
        // The connection left at t = 1, so the cut at t = 2 finds nothing
        // to tear down.
        let outcomes = replay.fail_link(&mut engine, LinkId::new(0), 2.0, Policy::Optimal);
        assert!(outcomes.is_empty(), "{outcomes:?}");
        assert_eq!(engine.totals(), (1, 0, 1));
        assert_eq!(engine.active_count(), 0);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn replay_rejects_a_cut_before_the_last_arrival() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(2.0, 1.0), Policy::Optimal);
        replay.fail_link(&mut engine, LinkId::new(0), 1.0, Policy::Optimal);
    }

    #[test]
    #[should_panic(expected = "sorted by arrival")]
    fn replay_rejects_an_arrival_out_of_order() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        let mut replay = Replay::default();
        replay.offer(&mut engine, &request(2.0, 1.0), Policy::Optimal);
        replay.offer(&mut engine, &request(1.0, 1.0), Policy::Optimal);
    }

    #[test]
    #[should_panic(expected = "from time 0")]
    fn replay_rejects_a_negative_arrival() {
        let net = one_circuit();
        let mut engine = ProvisioningEngine::new(&net);
        Replay::default().offer(&mut engine, &request(-1.0, 1.0), Policy::Optimal);
    }

    #[test]
    fn add_sums_counts_and_keeps_the_larger_peak() {
        let net = base(2);
        let mut rng = SmallRng::seed_from_u64(8);
        let a = simulate(&net, &static_requests(14, 60, &mut rng), Policy::Optimal);
        let b = simulate(&net, &static_requests(14, 20, &mut rng), Policy::Optimal);
        let mut sum = a;
        sum.add(&b);
        assert_eq!(sum.offered, 80);
        assert_eq!(sum.accepted, a.accepted + b.accepted);
        assert_eq!(
            sum.blocked_capacity,
            a.blocked_capacity + b.blocked_capacity
        );
        assert_eq!(sum.links_used, a.links_used + b.links_used);
        assert_eq!(sum.peak_active, a.peak_active.max(b.peak_active));
    }

    #[test]
    fn zero_requests_zero_stats() {
        let net = base(2);
        let stats = simulate(&net, &[], Policy::Optimal);
        assert_eq!(stats, BlockingStats::default());
        assert_eq!(stats.blocking_probability(), 0.0);
        assert_eq!(stats.mean_conversions(), 0.0);
    }
}
