//! The paper's distributed optimal-semilightpath algorithm (Theorem 3).
//!
//! The auxiliary graph `G_{s,t}` is *embedded* into the physical network:
//! each physical node `v` hosts its own conversion gadget
//! (`X_v`, `Y_v`, `E_v`) as local state, gadget-internal relaxations are
//! free local computation, and only the `E_org` traversal edges — which
//! coincide with physical links — cost messages. A Chandy–Misra-style
//! relaxation wave from the source with Dijkstra–Scholten termination
//! detection computes, at every node and for every receivable wavelength,
//! the optimal semilightpath cost; the claimed complexities are `O(km)`
//! messages and `O(kn)` time, which experiment E4 measures.
//!
//! One relaxation message carries `(link, wavelength, distance)` and
//! travels the physical link it relaxes; acknowledgements travel the
//! reverse control channel. On a one-wavelength network this is plain
//! Chandy–Misra SSSP, which [`crate::chandy_misra`] runs through this
//! same code.

use crate::sim::{Context, Process, ProcessId, SimError, SimStats, SimTime, Simulator};
use std::rc::Rc;
use wdm_core::{Cost, Hop, Semilightpath, Wavelength, WdmError, WdmNetwork};
use wdm_graph::{DiGraph, LinkId, NodeId};
use wdm_obs::MetricsRegistry;

/// Messages of the protocol.
#[derive(Debug, Clone)]
enum Msg {
    /// "Your `X_v` state for `wavelength` can be reached with total cost
    /// `dist` via `link`" (link weight already included).
    Relax {
        link: LinkId,
        wavelength: Wavelength,
        dist: Cost,
    },
    /// Dijkstra–Scholten acknowledgement.
    Ack,
}

/// How a `Y_v(λ)` state was reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum YParent {
    /// Super-source tap (only at the source node).
    Tap,
    /// Gadget edge from `X_v(λ_in)`.
    From(Wavelength),
}

/// Per-node protocol state: the embedded gadget.
#[derive(Debug)]
struct NodeProcess {
    id: ProcessId,
    is_source: bool,
    network: Rc<WdmNetwork>,
    /// `x_dist[λ]` — best known cost reaching `X_v(λ)`.
    x_dist: Vec<Cost>,
    /// `x_parent[λ]` — `(physical predecessor, link)` achieving it.
    x_parent: Vec<Option<(ProcessId, LinkId)>>,
    /// `y_dist[λ']` — best known cost reaching `Y_v(λ')`.
    y_dist: Vec<Cost>,
    y_parent: Vec<Option<YParent>>,
    // Dijkstra–Scholten bookkeeping.
    engaged: bool,
    ds_parent: Option<ProcessId>,
    deficit: u64,
    terminated: bool,
    sent_data: u64,
    sent_acks: u64,
}

impl NodeProcess {
    /// Gadget-local relaxation after `X_v(λ)` improved to `d`, followed by
    /// flooding improved `Y_v` states over outgoing physical links.
    fn relax_gadget_from_x(&mut self, arrived: Wavelength, d: Cost, ctx: &mut Context<Msg>) {
        let me = NodeId::new(self.id);
        let network = Rc::clone(&self.network);
        for lambda_out in network.lambda_out(me).iter() {
            let conv = network.conversion_cost(me, arrived, lambda_out);
            let cand = d + conv;
            if cand < self.y_dist[lambda_out.index()] {
                self.y_dist[lambda_out.index()] = cand;
                self.y_parent[lambda_out.index()] = Some(YParent::From(arrived));
                self.flood_y(lambda_out, cand, ctx);
            }
        }
    }

    /// Sends relaxations for `Y_v(λ')` over every outgoing link carrying
    /// `λ'`, skipping a candidate whose cost saturates to infinity (it
    /// could improve nothing).
    fn flood_y(&mut self, lambda: Wavelength, d: Cost, ctx: &mut Context<Msg>) {
        let me = NodeId::new(self.id);
        let network = Rc::clone(&self.network);
        let g = network.graph();
        for &e in g.out_links(me) {
            let dist = d + network.link_cost(e, lambda);
            if dist.is_finite() {
                ctx.send(
                    g.link(e).head().index(),
                    Msg::Relax {
                        link: e,
                        wavelength: lambda,
                        dist,
                    },
                );
                self.deficit += 1;
                self.sent_data += 1;
            }
        }
    }

    fn maybe_release(&mut self, ctx: &mut Context<Msg>) {
        if self.deficit == 0 {
            if self.is_source {
                self.terminated = true;
            } else if self.engaged {
                let Some(parent) = self.ds_parent.take() else {
                    unreachable!("engaged ⇒ parent")
                };
                ctx.send(parent, Msg::Ack);
                self.sent_acks += 1;
                self.engaged = false;
            }
        }
    }
}

impl Process for NodeProcess {
    type Message = Msg;

    fn on_start(&mut self, ctx: &mut Context<Msg>) {
        if self.is_source {
            // The super-source s' taps every Y_s state at cost zero.
            let me = NodeId::new(self.id);
            let network = Rc::clone(&self.network);
            for lambda in network.lambda_out(me).iter() {
                self.y_dist[lambda.index()] = Cost::ZERO;
                self.y_parent[lambda.index()] = Some(YParent::Tap);
                self.flood_y(lambda, Cost::ZERO, ctx);
            }
            self.maybe_release(ctx);
        }
    }

    fn on_message(&mut self, from: ProcessId, message: Msg, ctx: &mut Context<Msg>) {
        match message {
            Msg::Relax {
                link,
                wavelength,
                dist,
            } => {
                let engagement = !self.is_source && !self.engaged;
                if engagement {
                    self.engaged = true;
                    self.ds_parent = Some(from);
                }
                if dist < self.x_dist[wavelength.index()] {
                    self.x_dist[wavelength.index()] = dist;
                    self.x_parent[wavelength.index()] = Some((from, link));
                    self.relax_gadget_from_x(wavelength, dist, ctx);
                }
                if engagement {
                    self.maybe_release(ctx);
                } else {
                    ctx.send(from, Msg::Ack);
                    self.sent_acks += 1;
                }
            }
            Msg::Ack => {
                self.deficit -= 1;
                self.maybe_release(ctx);
            }
        }
    }
}

/// Result of a distributed semilightpath-tree computation from one source.
#[derive(Debug, Clone)]
pub struct DistributedTreeOutcome {
    /// The source node.
    pub source: NodeId,
    /// `costs[v]` — optimal semilightpath cost from the source to `v`
    /// (zero at the source, [`Cost::INFINITY`] when unreachable).
    pub costs: Vec<Cost>,
    /// Relaxation messages sent (the paper bounds these by `O(km)`).
    pub data_messages: u64,
    /// Dijkstra–Scholten acknowledgements sent.
    pub ack_messages: u64,
    /// Simulator counters; `stats.makespan` is the paper's `O(kn)` time.
    pub stats: SimStats,
    /// Whether the source observed termination.
    pub root_detected_termination: bool,
    paths: PathTable,
}

/// Recorded parent pointers for path extraction.
#[derive(Debug, Clone)]
struct PathTable {
    k: usize,
    x_dist: Vec<Vec<Cost>>,
    x_parent: Vec<Vec<Option<(ProcessId, LinkId)>>>,
    y_parent: Vec<Vec<Option<YParent>>>,
}

impl DistributedTreeOutcome {
    /// The physical node whose relaxation last improved `X_v(λ)` at `v`,
    /// or `None` when no relaxation on `wavelength` reached `v`.
    pub(crate) fn predecessor(&self, v: NodeId, wavelength: Wavelength) -> Option<NodeId> {
        self.paths.x_parent[v.index()][wavelength.index()].map(|(pred, _)| NodeId::new(pred))
    }

    /// Reconstructs the optimal semilightpath to `t` by walking the
    /// recorded parent pointers backwards (an `O(path length)` trace,
    /// the final phase of the Theorem-3 protocol).
    ///
    /// Returns the empty path for the source itself and `None` when `t`
    /// is unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn path_to(&self, t: NodeId) -> Option<Semilightpath> {
        if t == self.source {
            return Some(Semilightpath::new(Vec::new(), Cost::ZERO));
        }
        let table = &self.paths;
        let v = t.index();
        // Best arrival wavelength at t.
        let (mut lambda, mut best) = (None, Cost::INFINITY);
        for l in 0..table.k {
            if table.x_dist[v][l] < best {
                best = table.x_dist[v][l];
                lambda = Some(l);
            }
        }
        let mut lambda = Wavelength::new(lambda?);
        let mut node = v;
        let mut hops = Vec::new();
        loop {
            let Some((pred, link)) = table.x_parent[node][lambda.index()] else {
                unreachable!("finite dist ⇒ parent")
            };
            hops.push(Hop {
                link,
                wavelength: lambda,
            });
            let Some(y) = table.y_parent[pred][lambda.index()] else {
                unreachable!("y state on path is set")
            };
            match y {
                YParent::Tap => break,
                YParent::From(arrived) => {
                    lambda = arrived;
                    node = pred;
                }
            }
        }
        hops.reverse();
        Some(Semilightpath::new(hops, best))
    }

    /// Runs the trace phase *as a distributed protocol*: the destination
    /// walks the parent pointers backwards with one message per physical
    /// hop (the reverse control channels), measuring the `O(path length)`
    /// post-processing cost of Theorem 3.
    ///
    /// The traced path equals [`DistributedTreeOutcome::path_to`]'s
    /// answer; only the accounting differs.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError`] from the simulator.
    ///
    /// # Panics
    ///
    /// Panics if `t` is out of range.
    pub fn trace_distributed(
        &self,
        network: &WdmNetwork,
        t: NodeId,
    ) -> Result<DistributedTraceOutcome, SimError> {
        let n = network.node_count();
        assert!(t.index() < n, "target out of range");
        if t == self.source || self.costs[t.index()].is_infinite() {
            return Ok(DistributedTraceOutcome {
                path: if t == self.source {
                    Some(Semilightpath::new(Vec::new(), Cost::ZERO))
                } else {
                    None
                },
                trace_messages: 0,
                makespan: 0,
            });
        }
        // Best arrival wavelength at t, as the routing phase computed it.
        let table = &self.paths;
        let mut best: Option<(Wavelength, Cost)> = None;
        for l in 0..table.k {
            let d = table.x_dist[t.index()][l];
            if d.is_finite() && best.map(|(_, b)| d < b).unwrap_or(true) {
                best = Some((Wavelength::new(l), d));
            }
        }
        let Some((start_wavelength, total)) = best else {
            unreachable!("finite cost ⇒ arrival state")
        };

        let topology = control_channels(network.graph());
        let processes: Vec<TraceProcess> = (0..n)
            .map(|id| TraceProcess {
                id,
                is_target: id == t.index(),
                x_parent: table.x_parent[id].clone(),
                y_parent: table.y_parent[id].clone(),
                start_wavelength: (id == t.index()).then_some(start_wavelength),
                result: None,
            })
            .collect();
        let mut sim = Simulator::new(processes, topology);
        let stats = sim.run()?;
        let Some(hops) = sim.process(self.source.index()).result.clone() else {
            unreachable!("trace terminates at the source")
        };
        Ok(DistributedTraceOutcome {
            path: Some(Semilightpath::new(hops, total)),
            trace_messages: stats.messages,
            makespan: stats.makespan,
        })
    }
}

/// The trace phase as a message-passing protocol: after the relaxation
/// phase terminates, the destination walks the recorded parent pointers
/// *with messages*, each hop crossing one physical (reverse) channel and
/// accumulating the path. This measures the `O(path length)` cost of the
/// final phase of Theorem 3 instead of asserting it.
#[derive(Debug)]
struct TraceProcess {
    id: ProcessId,
    is_target: bool,
    /// Snapshot of the routing phase's per-wavelength parent pointers.
    x_parent: Vec<Option<(ProcessId, LinkId)>>,
    y_parent: Vec<Option<YParent>>,
    /// Best arrival wavelength at the target (set only on the target).
    start_wavelength: Option<Wavelength>,
    /// Filled in at the source when the trace completes.
    result: Option<Vec<Hop>>,
}

#[derive(Debug, Clone)]
struct TraceMsg {
    /// Hops accumulated so far (destination-first).
    hops: Vec<Hop>,
    /// The wavelength of the `Y` state to continue from at the receiver.
    wavelength: Wavelength,
}

impl TraceProcess {
    /// Continues the backward walk from this node's `Y(wavelength)`
    /// state: either we are the origin (tap) and the trace is complete,
    /// or we hop one more physical channel backwards.
    fn step(&mut self, mut hops: Vec<Hop>, wavelength: Wavelength, ctx: &mut Context<TraceMsg>) {
        let Some(parent) = self.y_parent[wavelength.index()] else {
            unreachable!("traced y state was reached")
        };
        match parent {
            YParent::Tap => {
                hops.reverse();
                self.result = Some(hops);
            }
            YParent::From(arrived) => {
                let Some((pred, link)) = self.x_parent[arrived.index()] else {
                    unreachable!("reached x state has a parent")
                };
                hops.push(Hop {
                    link,
                    wavelength: arrived,
                });
                ctx.send(
                    pred,
                    TraceMsg {
                        hops,
                        wavelength: arrived,
                    },
                );
            }
        }
    }
}

impl Process for TraceProcess {
    type Message = TraceMsg;

    fn on_start(&mut self, ctx: &mut Context<TraceMsg>) {
        if self.is_target {
            if let Some(lambda) = self.start_wavelength {
                let Some((pred, link)) = self.x_parent[lambda.index()] else {
                    unreachable!("finite dist ⇒ parent")
                };
                let hops = vec![Hop {
                    link,
                    wavelength: lambda,
                }];
                ctx.send(
                    pred,
                    TraceMsg {
                        hops,
                        wavelength: lambda,
                    },
                );
            }
        }
        let _ = self.id;
    }

    fn on_message(&mut self, _from: ProcessId, msg: TraceMsg, ctx: &mut Context<TraceMsg>) {
        self.step(msg.hops, msg.wavelength, ctx);
    }
}

/// Outcome of the distributed trace phase.
#[derive(Debug, Clone)]
pub struct DistributedTraceOutcome {
    /// The traced path (validated shape; `None` when `t` unreachable).
    pub path: Option<Semilightpath>,
    /// Messages spent tracing (= path length in physical hops, the
    /// Theorem-3 post-processing cost).
    pub trace_messages: u64,
    /// Trace makespan in latency units.
    pub makespan: SimTime,
}

/// Runs the Theorem-3 protocol: a distributed shortest-semilightpath tree
/// rooted at `source`.
///
/// # Errors
///
/// * [`WdmError::NodeOutOfRange`] (wrapped) if `source` is invalid —
///   returned as [`SimError`]-free `Err` via panic-free validation;
/// * [`SimError`] if the simulation exceeds its budget.
///
/// # Examples
///
/// ```
/// use wdm_core::{ConversionPolicy, Cost, WdmNetwork};
/// use wdm_distributed::semilightpath::distributed_tree;
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = WdmNetwork::builder(g, 2)
///     .link_wavelengths(0, [(0, 10)])
///     .link_wavelengths(1, [(1, 20)])
///     .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
///     .build()
///     .expect("valid");
/// let tree = distributed_tree(&net, 0.into()).expect("terminates");
/// assert_eq!(tree.costs[2], Cost::new(35));
/// let path = tree.path_to(2.into()).expect("reachable");
/// path.validate(&net).expect("valid");
/// ```
pub fn distributed_tree(
    network: &WdmNetwork,
    source: NodeId,
) -> Result<DistributedTreeOutcome, SimError> {
    distributed_tree_with_latencies(network, source, |_, _| 1)
}

/// Like [`distributed_tree`] but with heterogeneous channel latencies:
/// `latency_of(from, to)` gives the delivery delay (≥ 1) of the control
/// channel from physical node `from` to `to`.
///
/// The computed *costs and paths* are independent of the latency
/// assignment — the protocol is timing-insensitive; only message counts
/// and the makespan change. The property test
/// `tests/latency_independence.rs` checks this.
///
/// # Errors
///
/// Propagates [`SimError`] from the simulator.
///
/// # Panics
///
/// Panics if `source` is out of range or any latency is zero.
pub fn distributed_tree_with_latencies(
    network: &WdmNetwork,
    source: NodeId,
    latency_of: impl Fn(ProcessId, ProcessId) -> SimTime,
) -> Result<DistributedTreeOutcome, SimError> {
    run_tree(Rc::new(network.clone()), source, latency_of, None)
}

/// Each physical node's control channels: its out-neighbours (relaxations)
/// and in-neighbours (acknowledgements and traces), sorted, once each.
fn control_channels(g: &DiGraph) -> Vec<Vec<ProcessId>> {
    g.nodes()
        .map(|v| {
            let mut adj: Vec<ProcessId> = g
                .out_links(v)
                .iter()
                .map(|&e| g.link(e).head().index())
                .chain(g.in_links(v).iter().map(|&e| g.link(e).tail().index()))
                .collect();
            adj.sort_unstable();
            adj.dedup();
            adj
        })
        .collect()
}

/// The Theorem-3 run behind [`distributed_tree_with_latencies`]; with
/// `metrics = Some((registry, protocol))` the simulator reports into
/// `registry` under `protocol` (see [`Simulator::with_metrics`]).
pub(crate) fn run_tree(
    network: Rc<WdmNetwork>,
    source: NodeId,
    latency_of: impl Fn(ProcessId, ProcessId) -> SimTime,
    metrics: Option<(&MetricsRegistry, &str)>,
) -> Result<DistributedTreeOutcome, SimError> {
    assert!(source.index() < network.node_count(), "source out of range");
    let n = network.node_count();
    let k = network.k();
    let topology = control_channels(network.graph());
    let processes: Vec<NodeProcess> = (0..n)
        .map(|id| NodeProcess {
            id,
            is_source: id == source.index(),
            network: Rc::clone(&network),
            x_dist: vec![Cost::INFINITY; k],
            x_parent: vec![None; k],
            y_dist: vec![Cost::INFINITY; k],
            y_parent: vec![None; k],
            engaged: false,
            ds_parent: None,
            deficit: 0,
            terminated: false,
            sent_data: 0,
            sent_acks: 0,
        })
        .collect();

    let latencies: Vec<Vec<(ProcessId, SimTime)>> = topology
        .iter()
        .enumerate()
        .map(|(from, adj)| adj.iter().map(|&to| (to, latency_of(from, to))).collect())
        .collect();
    let mut sim = Simulator::new(processes, topology).with_latencies(latencies);
    if let Some((registry, protocol)) = metrics {
        sim = sim.with_metrics(registry, protocol);
    }
    let stats = sim.run()?;

    let mut costs = Vec::with_capacity(n);
    let mut data_messages = 0;
    let mut ack_messages = 0;
    let mut root_detected_termination = false;
    let mut x_dist = Vec::with_capacity(n);
    let mut x_parent = Vec::with_capacity(n);
    let mut y_parent = Vec::with_capacity(n);
    for id in 0..n {
        let p = sim.process(id);
        let best = if id == source.index() {
            Cost::ZERO
        } else {
            p.x_dist.iter().copied().min().unwrap_or(Cost::INFINITY)
        };
        costs.push(best);
        data_messages += p.sent_data;
        ack_messages += p.sent_acks;
        if p.is_source {
            root_detected_termination = p.terminated;
        }
        debug_assert_eq!(p.deficit, 0, "node {id} has unacked messages");
        x_dist.push(p.x_dist.clone());
        x_parent.push(p.x_parent.clone());
        y_parent.push(p.y_parent.clone());
    }

    Ok(DistributedTreeOutcome {
        source,
        costs,
        data_messages,
        ack_messages,
        stats,
        root_detected_termination,
        paths: PathTable {
            k,
            x_dist,
            x_parent,
            y_parent,
        },
    })
}

/// Result of one distributed point-to-point routing query.
#[derive(Debug, Clone)]
pub struct DistributedRouteOutcome {
    /// The optimal semilightpath, or `None` when unreachable.
    pub path: Option<Semilightpath>,
    /// Its cost ([`Cost::INFINITY`] when unreachable).
    pub cost: Cost,
    /// Relaxation messages sent.
    pub data_messages: u64,
    /// Acknowledgements sent.
    pub ack_messages: u64,
    /// Messages spent tracing the path back (one per physical hop).
    pub trace_messages: u64,
    /// Protocol makespan in latency units (routing phase).
    pub makespan: SimTime,
    /// Whether the source observed termination.
    pub terminated: bool,
}

/// Runs the Theorem-3 protocol for one `s → t` query.
///
/// # Errors
///
/// [`WdmError::NodeOutOfRange`] if `s` or `t` is invalid; otherwise
/// propagates simulator errors as a panic-free [`SimError`] mapped into
/// [`WdmError`] is *not* done — the two error domains are kept distinct by
/// returning `Result<_, RouteSimError>`.
///
/// # Examples
///
/// ```
/// use wdm_distributed::semilightpath::route_distributed;
/// use wdm_core::Cost;
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = wdm_core::WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 3)])
///     .build()
///     .expect("valid");
/// let out = route_distributed(&net, 0.into(), 1.into()).expect("terminates");
/// assert_eq!(out.cost, Cost::new(3));
/// ```
pub fn route_distributed(
    network: &WdmNetwork,
    s: NodeId,
    t: NodeId,
) -> Result<DistributedRouteOutcome, RouteSimError> {
    let n = network.node_count();
    for v in [s, t] {
        if v.index() >= n {
            return Err(RouteSimError::Wdm(WdmError::NodeOutOfRange { node: v, n }));
        }
    }
    if s == t {
        return Ok(DistributedRouteOutcome {
            path: Some(Semilightpath::new(Vec::new(), Cost::ZERO)),
            cost: Cost::ZERO,
            data_messages: 0,
            ack_messages: 0,
            trace_messages: 0,
            makespan: 0,
            terminated: true,
        });
    }
    let tree = distributed_tree(network, s).map_err(RouteSimError::Sim)?;
    let trace = tree
        .trace_distributed(network, t)
        .map_err(RouteSimError::Sim)?;
    Ok(DistributedRouteOutcome {
        cost: tree.costs[t.index()],
        path: trace.path,
        data_messages: tree.data_messages,
        ack_messages: tree.ack_messages,
        trace_messages: trace.trace_messages,
        makespan: tree.stats.makespan,
        terminated: tree.root_detected_termination,
    })
}

/// Error domain of [`route_distributed`]: query validation or simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteSimError {
    /// Invalid query (bad node ids).
    Wdm(WdmError),
    /// Simulation failure (event budget, illegal send).
    Sim(SimError),
}

impl std::fmt::Display for RouteSimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteSimError::Wdm(e) => write!(f, "query error: {e}"),
            RouteSimError::Sim(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for RouteSimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use wdm_core::instance::{random_network, InstanceConfig};
    use wdm_core::LiangShenRouter;
    use wdm_graph::{topology, DiGraph};

    #[test]
    fn agrees_with_centralized_on_random_instances() {
        for seed in 0..6 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let net = random_network(topology::nsfnet(), &InstanceConfig::standard(4), &mut rng)
                .expect("valid");
            let router = LiangShenRouter::new();
            let tree = distributed_tree(&net, 0.into()).expect("terminates");
            assert!(tree.root_detected_termination, "seed {seed}");
            for t in 0..net.node_count() {
                let t = NodeId::new(t);
                let central = router.route(&net, 0.into(), t).expect("ok").cost();
                let distributed = if t == NodeId::new(0) {
                    Cost::ZERO
                } else {
                    tree.costs[t.index()]
                };
                assert_eq!(central, distributed, "seed {seed}, dest {t}");
            }
        }
    }

    #[test]
    fn extracted_paths_validate_and_match_cost() {
        let mut rng = SmallRng::seed_from_u64(11);
        let net = random_network(topology::abilene(), &InstanceConfig::standard(3), &mut rng)
            .expect("valid");
        let tree = distributed_tree(&net, 2.into()).expect("terminates");
        for t in 0..net.node_count() {
            let t = NodeId::new(t);
            if let Some(p) = tree.path_to(t) {
                p.validate(&net).expect("valid path");
                if t != NodeId::new(2) {
                    assert_eq!(p.cost(), tree.costs[t.index()]);
                }
            } else {
                assert!(tree.costs[t.index()].is_infinite());
            }
        }
    }

    #[test]
    fn message_count_is_bounded_by_relaxation_volume() {
        // Data messages are at most (improvements per X state) × fan-out;
        // sanity-check against the paper's km bound times a small factor.
        let mut rng = SmallRng::seed_from_u64(5);
        let net = random_network(topology::nsfnet(), &InstanceConfig::standard(6), &mut rng)
            .expect("valid");
        let tree = distributed_tree(&net, 0.into()).expect("terminates");
        let km = (net.k() * net.link_count()) as u64;
        assert!(
            tree.data_messages <= 4 * km,
            "data messages {} far exceed km = {km}",
            tree.data_messages
        );
    }

    #[test]
    fn route_distributed_handles_edge_cases() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = wdm_core::WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 3)])
            .build()
            .expect("valid");
        let trivial = route_distributed(&net, 1.into(), 1.into()).expect("ok");
        assert_eq!(trivial.cost, Cost::ZERO);
        assert!(trivial.path.expect("empty path").is_empty());
        // t unreachable from s (no reverse link).
        let back = route_distributed(&net, 1.into(), 0.into()).expect("ok");
        assert!(back.path.is_none());
        assert!(back.cost.is_infinite());
        assert!(matches!(
            route_distributed(&net, 0.into(), 9.into()),
            Err(RouteSimError::Wdm(WdmError::NodeOutOfRange { .. }))
        ));
    }

    #[test]
    fn distributed_trace_matches_table_walk_and_costs_path_length() {
        let mut rng = SmallRng::seed_from_u64(13);
        let net = random_network(topology::nsfnet(), &InstanceConfig::standard(4), &mut rng)
            .expect("valid");
        let tree = distributed_tree(&net, 0.into()).expect("terminates");
        for t in 0..net.node_count() {
            let t = NodeId::new(t);
            let traced = tree.trace_distributed(&net, t).expect("terminates");
            let walked = tree.path_to(t);
            match (traced.path, walked) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.cost(), b.cost(), "dest {t}");
                    a.validate(&net).expect("traced path valid");
                    // One message per physical hop, delivered in sequence.
                    assert_eq!(traced.trace_messages, a.len() as u64, "dest {t}");
                    assert_eq!(traced.makespan, a.len() as u64, "dest {t}");
                }
                (None, None) => {
                    assert_eq!(traced.trace_messages, 0);
                }
                (a, b) => panic!("trace/walk disagree at {t}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn forbidden_conversion_respected_distributively() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = wdm_core::WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            .build()
            .expect("valid");
        let out = route_distributed(&net, 0.into(), 2.into()).expect("ok");
        assert!(out.path.is_none());
    }
}
