//! The single-caller provisioning API: a `&mut self` wrapper that owns
//! one [`ConcurrentHandle`] over a private one-shard
//! [`ConcurrentEngine`]. Every operation runs the transaction code in
//! [`crate::concurrent`]; this module adds no state of its own.

use crate::concurrent::{ConcurrentEngine, ConcurrentHandle, ProvisionOutcome};
use crate::policy::Policy;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use wdm_core::{ConversionPolicy, Semilightpath, WdmNetwork};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::trace::FlightRecorder;
use wdm_obs::MetricsRegistry;

/// Handle of an active connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConnectionId(u64);

impl ConnectionId {
    /// Crate-internal constructor for the engine's commit-time id
    /// allocator.
    pub(crate) fn from_raw(raw: u64) -> Self {
        ConnectionId(raw)
    }

    /// The raw id, for wire protocols that must round-trip connection
    /// handles as plain numbers (the control-plane daemon).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a handle from a raw id received off the wire.
    ///
    /// Constructing an id that was never issued is safe: every engine
    /// operation validates the handle against its active-connection map
    /// and answers [`RwaError::UnknownConnection`] for strangers.
    pub fn from_u64(raw: u64) -> Self {
        ConnectionId(raw)
    }
}

impl fmt::Display for ConnectionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "conn{}", self.0)
    }
}

/// Errors from provisioning operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RwaError {
    /// No route exists with the remaining free resources.
    Blocked {
        /// Requested source.
        s: NodeId,
        /// Requested destination.
        t: NodeId,
    },
    /// The connection id is not active.
    UnknownConnection(ConnectionId),
    /// A query endpoint is not a node of the network.
    NodeOutOfRange(NodeId),
    /// A bounded-retry concurrent transaction gave up after repeated
    /// validation conflicts. Unlike [`RwaError::Blocked`] this says
    /// nothing about network resources — the request was never decided;
    /// the caller may retry it verbatim.
    Contended {
        /// Requested source.
        s: NodeId,
        /// Requested destination.
        t: NodeId,
        /// Conflicts absorbed before giving up.
        conflicts: u64,
    },
}

impl fmt::Display for RwaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RwaError::Blocked { s, t } => write!(f, "request {s} → {t} blocked"),
            RwaError::UnknownConnection(id) => write!(f, "connection {id} is not active"),
            RwaError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            RwaError::Contended { s, t, conflicts } => write!(
                f,
                "request {s} → {t} contended: undecided after {conflicts} conflicts"
            ),
        }
    }
}

impl Error for RwaError {}

/// How the engine answers each request's routing query.
///
/// One mode is left: the rebuild-per-request reference is a test-only
/// spec in the `wdm-conformance` crate. The type remains for callers
/// that name the mode when building a daemon backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingMode {
    /// One persistent structure per engine, busy bits flipped in place.
    /// Per-request work is a single masked Dijkstra.
    #[default]
    Masked,
}

/// Mutable RWA state over a base network, for one caller.
///
/// The base network defines topology, the full availability sets `Λ(e)`,
/// per-wavelength link costs, and conversion policies; the engine tracks
/// which (link, wavelength) pairs are currently occupied by active
/// connections and routes each request on the *residual* network.
///
/// This is the `&mut self` face of the sharded engine: it owns one
/// [`ConcurrentHandle`] over a private one-shard [`ConcurrentEngine`],
/// so an uncontended caller runs exactly the transaction code a
/// concurrent caller runs, never conflicts, and never waits. It is not
/// `Clone`: a wrapper over shared state must not alias.
#[derive(Debug)]
pub struct ProvisioningEngine {
    handle: ConcurrentHandle,
}

impl ProvisioningEngine {
    /// Creates an engine with every base resource free.
    pub fn new(base: &WdmNetwork) -> Self {
        ProvisioningEngine {
            handle: ConcurrentEngine::new(base, 1).handle(),
        }
    }

    fn engine(&self) -> &ConcurrentEngine {
        self.handle.engine()
    }

    /// Attaches a metrics registry: from now on every provision /
    /// release / fail_link / restore_link reports latency histograms,
    /// outcome counters (blocked split by cause), search-kernel totals,
    /// and occupancy gauges into `registry`'s shared instruments (see
    /// the crate docs for the series). Gauges are seeded from the
    /// current state, so attaching mid-run is coherent. Write-once: the
    /// first registry wins.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.engine().attach_metrics(registry);
    }

    /// Attaches a flight recorder: from now on every operation records
    /// a per-request trace (see [`ConcurrentEngine::attach_tracer`]).
    /// Write-once: the first recorder wins.
    pub fn attach_tracer(&mut self, recorder: &Arc<FlightRecorder>) {
        self.engine().attach_tracer(recorder);
    }

    /// The base network the engine routes on.
    pub fn base(&self) -> &WdmNetwork {
        self.engine().base()
    }

    /// Number of currently active connections.
    pub fn active_count(&self) -> usize {
        self.engine().active_count()
    }

    /// Totals so far: `(accepted, blocked, released)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.engine().totals()
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    ///
    /// `no_path` counts requests whose pair is unroutable even with
    /// every resource free (under the request's policy — conversion-free
    /// policies can be topology-blocked where [`Policy::Optimal`]
    /// would route); `capacity` counts requests a free network would
    /// have carried. The two always sum to the blocked total.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        self.engine().blocked_by_cause()
    }

    /// Fraction of base (link, wavelength) resources currently occupied.
    pub fn utilization(&self) -> f64 {
        self.engine().utilization()
    }

    /// Routes and, on success, locks the request `s → t` under `policy`:
    /// one masked Dijkstra over the persistent structure, then `O(hops)`
    /// bit flips.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Blocked`] when no route exists on the residual
    ///   network (also counted in [`ProvisioningEngine::totals`]).
    pub fn provision(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ConnectionId, RwaError> {
        self.handle.provision(s, t, policy)
    }

    /// [`provision`](Self::provision) returning the full outcome: the
    /// committed route's summary, or the blocked cause.
    pub(crate) fn provision_outcome(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ProvisionOutcome, RwaError> {
        self.handle.provision_outcome(s, t, policy, None, u64::MAX)
    }

    /// Provisions a batch of requests serially, in order — exactly the
    /// equivalent [`provision`](Self::provision) loop. Returns one
    /// outcome per request, in request order.
    ///
    /// `threads` is ignored; it remains for callers written against the
    /// earlier all-pairs pre-screen.
    pub fn provision_batch(
        &mut self,
        requests: &[(NodeId, NodeId)],
        policy: Policy,
        threads: usize,
    ) -> Vec<Result<ConnectionId, RwaError>> {
        let _ = threads;
        requests
            .iter()
            .map(|&(s, t)| self.provision(s, t, policy))
            .collect()
    }

    /// Releases an active connection, freeing its resources.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), RwaError> {
        self.handle.release(id)
    }

    /// The path of an active connection (cloned out of the table).
    pub fn path_of(&self, id: ConnectionId) -> Option<Semilightpath> {
        self.engine().path_of(id)
    }

    /// Iterates active connection ids (unspecified order).
    pub fn active_connections(&self) -> impl Iterator<Item = ConnectionId> {
        self.engine().active_connections().into_iter()
    }

    /// Links currently failed (cut by [`fail_link`](Self::fail_link)
    /// and not yet repaired by [`restore_link`](Self::restore_link)),
    /// sorted by id.
    pub fn failed_links(&self) -> Vec<LinkId> {
        self.engine().failed_links()
    }

    /// Simulates a fibre cut: every active connection crossing `link` is
    /// torn down and immediately re-routed under `policy` on the residual
    /// network (restoration). The cut is **persistent**: the link's
    /// wavelengths stay marked busy — and count as occupied in
    /// [`utilization`](Self::utilization) — until
    /// [`restore_link`](Self::restore_link) repairs it, so later
    /// requests route around the fibre and blocked ones are classified
    /// against the free network without it. Failing an already-failed
    /// link is an idempotent no-op returning no outcomes.
    ///
    /// Returns the affected connection ids paired with their restoration
    /// outcome (`Some(new_id)` when restored, `None` when the connection
    /// is lost), in connection-id order.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        self.handle
            .fail_link(link, policy, None)
            .into_iter()
            .map(|o| (o.torn, o.restored.map(|(id, _)| id)))
            .collect()
    }

    /// Repairs a fibre previously cut by [`fail_link`](Self::fail_link),
    /// clearing exactly the cut's busy markers. Returns `true` when the
    /// link was failed and is now restored; restoring a link that is not
    /// failed is a reported no-op (`false`). Existing connections are
    /// untouched either way.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        self.handle.restore_link(link, None)
    }

    /// Adds (`enabled`) or removes (`enabled == false`) full-range
    /// wavelength conversion at `node` — the runtime converter-placement
    /// mutation behind sparse-placer searches. Shorthand for
    /// [`set_converter_policy`](Self::set_converter_policy) with
    /// [`ConversionPolicy::Free`] / [`ConversionPolicy::Forbidden`].
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node of the base
    /// network.
    pub fn set_converter(&mut self, node: NodeId, enabled: bool) -> Result<bool, RwaError> {
        let policy = if enabled {
            ConversionPolicy::Free
        } else {
            ConversionPolicy::Forbidden
        };
        self.set_converter_policy(node, policy)
    }

    /// Replaces the conversion policy at `node`, rebuilding the routing
    /// state around the new conversion gadget with every busy bit — cut
    /// markers included — replayed, and advancing the blocked-cause memo
    /// epoch. Returns `Ok(true)` when the policy changed and `Ok(false)`
    /// for a no-op. Active connections are grandfathered: their
    /// resources stay locked.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node of the base
    /// network.
    pub fn set_converter_policy(
        &mut self,
        node: NodeId,
        policy: ConversionPolicy,
    ) -> Result<bool, RwaError> {
        self.handle.set_converter_policy(node, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::Cost;
    use wdm_graph::DiGraph;
    use wdm_obs::trace::RootVerdict;

    fn base() -> WdmNetwork {
        let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .link_wavelengths(2, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn provision_release_cycle() {
        let mut engine = ProvisioningEngine::new(&base());
        assert_eq!(engine.utilization(), 0.0);
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("free network routes");
        assert_eq!(engine.active_count(), 1);
        assert!(engine.utilization() > 0.0);
        let path = engine.path_of(id).expect("active").clone();
        assert_eq!(path.len(), 3);
        engine.release(id).expect("active");
        assert_eq!(engine.active_count(), 0);
        assert_eq!(engine.utilization(), 0.0);
        assert_eq!(engine.totals(), (1, 0, 1));
    }

    #[test]
    fn resources_are_exclusive() {
        let mut engine = ProvisioningEngine::new(&base());
        let first = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let second = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("second wavelength available");
        // Paths must not share any (link, wavelength).
        let p1 = engine.path_of(first).expect("active");
        let p2 = engine.path_of(second).expect("active");
        for h1 in p1.hops() {
            for h2 in p2.hops() {
                assert!(!(h1.link == h2.link && h1.wavelength == h2.wavelength));
            }
        }
        // Both wavelengths busy on the chain → blocked.
        assert_eq!(
            engine.provision(0.into(), 3.into(), Policy::Optimal),
            Err(RwaError::Blocked {
                s: 0.into(),
                t: 3.into()
            })
        );
        assert_eq!(engine.totals(), (2, 1, 0));
    }

    #[test]
    fn release_unknown_connection_errors() {
        let mut engine = ProvisioningEngine::new(&base());
        let id = engine
            .provision(0.into(), 1.into(), Policy::Optimal)
            .expect("routes");
        engine.release(id).expect("active");
        assert_eq!(engine.release(id), Err(RwaError::UnknownConnection(id)));
    }

    #[test]
    fn tracing_records_request_scoped_spans_and_events() {
        use wdm_obs::trace::{FlightRecorder, TraceEventKind};
        let mut engine = ProvisioningEngine::new(&base());
        let recorder = FlightRecorder::new(1, 256);
        engine.attach_tracer(&recorder);

        // A provision records its events under one trace id.
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let snap = recorder.snapshot();
        let tid = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span")
            .trace_id;
        let of_root: Vec<_> = snap.records.iter().filter(|r| r.trace_id == tid).collect();
        let root = of_root
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span");
        assert!(root.is_span());
        assert_eq!((root.a, root.b), (0, 3));
        assert_eq!(root.flags, RootVerdict::Ok.code());
        let route = of_root
            .iter()
            .find(|r| r.kind == TraceEventKind::Route)
            .expect("route span");
        assert!(route.is_span());
        // The route span nests inside the root span's time window.
        assert!(route.ts_ns >= root.ts_ns);
        assert!(route.ts_ns + route.dur_ns <= root.ts_ns + root.dur_ns);
        let flips: Vec<_> = of_root
            .iter()
            .filter(|r| r.kind == TraceEventKind::MaskFlip)
            .collect();
        let hops = engine.path_of(id).expect("active").hops().len();
        assert_eq!(flips.len(), hops, "one flip instant per committed hop");

        // An untagged release allocates its own id and records flips.
        engine.release(id).expect("active");
        let snap = recorder.snapshot();
        let release_root = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::Release)
            .expect("release root");
        assert_ne!(release_root.trace_id, tid);
        assert_eq!(release_root.flags, RootVerdict::Ok.code());
        assert_eq!(release_root.a, id.as_u64());

        // Blocked requests record the cause instant under their trace.
        for _ in 0..2 {
            let _ = engine.provision(0.into(), 3.into(), Policy::Optimal);
        }
        let _ = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect_err("capacity exhausted");
        let snap = recorder.snapshot();
        let blocked_root = snap
            .records
            .iter()
            .rfind(|r| {
                r.kind == TraceEventKind::Provision && r.flags == RootVerdict::Blocked.code()
            })
            .expect("blocked root");
        let cause = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::Blocked && r.trace_id == blocked_root.trace_id)
            .expect("cause instant");
        assert_eq!(cause.a, 1, "capacity-blocked");
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn tracing_failed_release_and_fail_link_record_roots() {
        use wdm_obs::trace::{FlightRecorder, TraceEventKind};
        let mut engine = ProvisioningEngine::new(&base());
        let recorder = FlightRecorder::new(1, 256);
        engine.attach_tracer(&recorder);
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        engine.release(id).expect("active");
        let err = engine.release(id).expect_err("already gone");
        assert_eq!(err, RwaError::UnknownConnection(id));
        let snap = recorder.snapshot();
        assert!(snap.records.iter().any(|r| {
            r.kind == TraceEventKind::Release && r.flags == RootVerdict::Failed.code()
        }));
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let mid = engine.path_of(id).expect("active").hops()[1].link;
        let outcome = engine.fail_link(mid, Policy::Optimal);
        let snap = recorder.snapshot();
        let cut = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::FailLink)
            .expect("fail-link root");
        assert_eq!(cut.a, mid.index() as u64);
        assert_eq!(cut.b, outcome.len() as u64);
    }

    #[test]
    fn detached_engine_records_nothing() {
        let mut engine = ProvisioningEngine::new(&base());
        let recorder = wdm_obs::trace::FlightRecorder::new(1, 16);
        // Never attached: provisioning must not touch the recorder.
        let _ = engine.provision(0.into(), 3.into(), Policy::Optimal);
        assert_eq!(recorder.snapshot().recorded, 0);
    }

    #[test]
    fn out_of_range_endpoint_errors() {
        let mut engine = ProvisioningEngine::new(&base());
        assert!(matches!(
            engine.provision(0.into(), 9.into(), Policy::Optimal),
            Err(RwaError::NodeOutOfRange(_))
        ));
    }

    #[test]
    fn fail_link_restores_on_alternate_route() {
        // Two disjoint 2-hop routes 0 → 3; cut the active one and the
        // connection must restore over the other.
        let g = DiGraph::from_links(4, [(0, 1), (1, 3), (0, 2), (2, 3)]);
        let net = WdmNetwork::builder(g, 1)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(0, 1)])
            .link_wavelengths(2, [(0, 2)])
            .link_wavelengths(3, [(0, 2)])
            .build()
            .expect("valid");
        let mut engine = ProvisioningEngine::new(&net);
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let first_link = engine.path_of(id).expect("active").hops()[0].link;
        let outcome = engine.fail_link(first_link, Policy::Optimal);
        assert_eq!(outcome.len(), 1);
        let (old, new) = outcome[0];
        assert_eq!(old, id);
        let new = new.expect("alternate route restores");
        let restored = engine.path_of(new).expect("active");
        assert!(restored.hops().iter().all(|h| h.link != first_link));
        assert_eq!(engine.active_count(), 1);
    }

    #[test]
    fn fail_link_loses_unrestorable_connections() {
        // Single chain: cutting the middle link strands the connection.
        let mut engine = ProvisioningEngine::new(&base());
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let mid = engine.path_of(id).expect("active").hops()[1].link;
        let outcome = engine.fail_link(mid, Policy::Optimal);
        assert_eq!(outcome, vec![(id, None)]);
        assert_eq!(engine.active_count(), 0);
        // The cut is persistent: the fibre's wavelengths stay marked
        // busy (and count as occupied) until the link is repaired.
        assert_eq!(engine.failed_links(), &[mid]);
        assert!(engine.utilization() > 0.0);
        // Unaffected traffic keeps flowing: a fresh request not crossing
        // the cut still provisions.
        let side = engine
            .provision(0.into(), 1.into(), Policy::Optimal)
            .expect("does not cross the cut");
        engine.release(side).expect("active");
        // Repair: the involution clears exactly the cut's markers.
        assert!(engine.restore_link(mid));
        assert!(engine.failed_links().is_empty());
        assert_eq!(engine.utilization(), 0.0);
    }

    #[test]
    fn fail_link_ignores_unrelated_connections() {
        let mut engine = ProvisioningEngine::new(&base());
        let id = engine
            .provision(2.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        // Cut a link the connection does not use.
        let outcome = engine.fail_link(wdm_graph::LinkId::new(0), Policy::Optimal);
        assert!(outcome.is_empty());
        assert!(engine.path_of(id).is_some());
    }

    #[test]
    fn batch_matches_serial_provisioning() {
        let requests: Vec<(NodeId, NodeId)> = vec![
            (0.into(), 3.into()),
            (3.into(), 0.into()), // unreachable: 3 has no outgoing links
            (0.into(), 2.into()),
            (1.into(), 3.into()),
            (0.into(), 3.into()), // by now both wavelengths on the chain are gone
        ];
        let mut serial = ProvisioningEngine::new(&base());
        let serial_outcomes: Vec<_> = requests
            .iter()
            .map(|&(s, t)| serial.provision(s, t, Policy::Optimal))
            .collect();
        for threads in [0, 1, 2, 4] {
            let mut batch = ProvisioningEngine::new(&base());
            let outcomes = batch.provision_batch(&requests, Policy::Optimal, threads);
            assert_eq!(outcomes.len(), requests.len());
            for (i, (got, want)) in outcomes.iter().zip(&serial_outcomes).enumerate() {
                match (got, want) {
                    (Ok(b_id), Ok(s_id)) => {
                        // Same request, same engine state → identical
                        // route: hop-for-hop links, wavelengths, and cost.
                        let b_path = batch.path_of(*b_id).expect("batch conn active");
                        let s_path = serial.path_of(*s_id).expect("serial conn active");
                        assert_eq!(
                            b_path, s_path,
                            "request #{i} path diverged with {threads} threads"
                        );
                        assert_eq!(b_path.cost(), s_path.cost(), "request #{i} cost");
                    }
                    (e1, e2) => assert_eq!(e1, e2, "request #{i} with {threads} threads"),
                }
            }
            assert_eq!(batch.totals(), serial.totals(), "{threads} threads");
            assert_eq!(batch.active_count(), serial.active_count());
            assert!((batch.utilization() - serial.utilization()).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_screens_unreachable_and_flags_bad_nodes() {
        let mut engine = ProvisioningEngine::new(&base());
        let outcomes = engine.provision_batch(
            &[
                (3.into(), 0.into()),
                (9.into(), 0.into()),
                (0.into(), 1.into()),
            ],
            Policy::Optimal,
            2,
        );
        assert_eq!(
            outcomes[0],
            Err(RwaError::Blocked {
                s: 3.into(),
                t: 0.into()
            })
        );
        assert_eq!(outcomes[1], Err(RwaError::NodeOutOfRange(9.into())));
        assert!(outcomes[2].is_ok());
        let (accepted, blocked, _) = engine.totals();
        assert_eq!((accepted, blocked), (1, 1));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut engine = ProvisioningEngine::new(&base());
        assert!(engine.provision_batch(&[], Policy::Optimal, 4).is_empty());
        assert_eq!(engine.totals(), (0, 0, 0));
    }

    #[test]
    fn blocked_causes_are_classified() {
        let mut engine = ProvisioningEngine::new(&base());
        // 3 → 0: no outgoing links from 3 — topology-blocked.
        assert!(engine
            .provision(3.into(), 0.into(), Policy::Optimal)
            .is_err());
        // Saturate both wavelengths of the chain, then block on capacity.
        engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ0 free");
        engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ1 free");
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        // s == t: rejected regardless of capacity — no_path.
        assert!(engine
            .provision(1.into(), 1.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (2, 1));
        let (_, blocked, _) = engine.totals();
        assert_eq!(blocked, 3);
    }

    #[test]
    fn blocked_causes_respect_policy_capabilities() {
        // λ0 on link 0, λ1 on link 1: only conversion routes 0 → 2, so
        // conversion-free policies are topology-blocked where Optimal
        // would be capacity-blocked.
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(1, 10)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid");
        let mut ff = ProvisioningEngine::new(&net);
        assert!(ff.provision(0.into(), 2.into(), Policy::FirstFit).is_err());
        assert_eq!(ff.blocked_by_cause(), (1, 0), "first-fit cannot ever route");
        let mut opt = ProvisioningEngine::new(&net);
        opt.provision(0.into(), 2.into(), Policy::Optimal)
            .expect("conversion routes");
        assert!(opt.provision(0.into(), 2.into(), Policy::Optimal).is_err());
        assert_eq!(opt.blocked_by_cause(), (0, 1), "free network routes it");
    }

    #[test]
    fn blocked_cause_cache_survives_occupancy_changes() {
        // The memoized verdict must stay correct as occupancy shifts:
        // a capacity-blocked pair probed while the network is saturated
        // must still classify as capacity-blocked after releases (and
        // vice versa the engine must re-block it identically), because
        // the verdict is a property of the *free* network.
        let mut engine = ProvisioningEngine::new(&base());
        let a = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ0 free");
        let b = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ1 free");
        for _ in 0..3 {
            assert!(engine
                .provision(0.into(), 3.into(), Policy::Optimal)
                .is_err());
            assert!(engine
                .provision(3.into(), 0.into(), Policy::Optimal)
                .is_err());
        }
        assert_eq!(engine.blocked_by_cause(), (3, 3));
        engine.release(a).expect("active");
        engine.release(b).expect("active");
        // Freed capacity: the pair routes again, while the topology
        // verdict for the reverse pair is unchanged (cache hit).
        let c = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("capacity restored");
        assert!(engine
            .provision(3.into(), 0.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (4, 3));
        engine.release(c).expect("active");
    }

    #[test]
    fn metrics_track_engine_lifecycle() {
        let registry = wdm_obs::MetricsRegistry::new();
        let mut engine = ProvisioningEngine::new(&base());
        engine.attach_metrics(&registry);
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert!(engine
            .provision(3.into(), 0.into(), Policy::Optimal)
            .is_err());
        engine.release(id).expect("active");

        assert_eq!(registry.counter("wdm_rwa_requests_total", &[]).get(), 4);
        assert_eq!(registry.counter("wdm_rwa_accepted_total", &[]).get(), 2);
        assert_eq!(
            registry
                .counter("wdm_rwa_blocked_total", &[("cause", "capacity")])
                .get(),
            1
        );
        assert_eq!(
            registry
                .counter("wdm_rwa_blocked_total", &[("cause", "no_path")])
                .get(),
            1
        );
        assert_eq!(registry.counter("wdm_rwa_released_total", &[]).get(), 1);
        assert_eq!(registry.gauge("wdm_rwa_active_connections", &[]).get(), 1);
        // Each accepted path is the 3-hop chain; one is still active.
        assert_eq!(registry.gauge("wdm_rwa_occupied_resources", &[]).get(), 3);
        // 2 × 3 hops locked + 3 freed = 9 effective flips.
        assert_eq!(registry.counter("wdm_rwa_mask_flips_total", &[]).get(), 9);
        // One latency sample per metered request / release.
        assert_eq!(
            registry
                .histogram("wdm_rwa_provision_latency_ns", &[])
                .count(),
            4
        );
        assert_eq!(
            registry
                .histogram("wdm_rwa_release_latency_ns", &[])
                .count(),
            1
        );
        // The search kernels reported real work.
        assert!(registry.counter("wdm_core_search_settled_total", &[]).get() > 0);
        assert!(registry.counter("wdm_core_search_pushes_total", &[]).get() > 0);
        // Per-link occupancy sums to the occupied total.
        let sum: i64 = (0..engine.base().link_count())
            .map(|i| {
                registry
                    .gauge("wdm_rwa_link_occupancy", &[("link", &i.to_string())])
                    .get()
            })
            .sum();
        assert_eq!(sum, 3);
        // requests == accepted + blocked holds by construction.
        let blocked = registry
            .counter("wdm_rwa_blocked_total", &[("cause", "capacity")])
            .get()
            + registry
                .counter("wdm_rwa_blocked_total", &[("cause", "no_path")])
                .get();
        assert_eq!(
            registry.counter("wdm_rwa_requests_total", &[]).get(),
            registry.counter("wdm_rwa_accepted_total", &[]).get() + blocked
        );
    }

    #[test]
    fn metrics_cover_fail_link_and_masked_skips() {
        let registry = wdm_obs::MetricsRegistry::new();
        let mut engine = ProvisioningEngine::new(&base());
        engine.attach_metrics(&registry);
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        // A second request over the busy chain must skip masked edges.
        engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("second wavelength");
        assert!(
            registry
                .counter("wdm_core_search_masked_skips_total", &[])
                .get()
                > 0
        );
        let mid = engine.path_of(id).expect("active").hops()[1].link;
        engine.fail_link(mid, Policy::Optimal);
        assert_eq!(
            registry
                .histogram("wdm_rwa_fail_link_latency_ns", &[])
                .count(),
            1
        );
    }

    #[test]
    fn detached_engine_still_splits_blocked_causes() {
        // The cause split is engine state, not a metrics feature.
        let mut engine = ProvisioningEngine::new(&base());
        assert!(engine
            .provision(3.into(), 0.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (1, 0));
    }

    #[test]
    fn blocked_request_changes_nothing() {
        let mut engine = ProvisioningEngine::new(&base());
        // 3 has no outgoing links: 3 → 0 always blocks.
        let before = engine.utilization();
        assert!(engine
            .provision(3.into(), 0.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.utilization(), before);
        assert_eq!(engine.active_count(), 0);
    }

    /// Regression: the blocked-cause memo must be invalidated across a
    /// fibre cut. A snapshot-free implementation that caches "0 → 3 is
    /// reachable on the free network" before the cut would classify the
    /// cut's blocked restorations as capacity; with the middle link
    /// failed they are topology-blocked, and after repair the pair must
    /// classify as capacity again (the no-path regime must not stick
    /// either).
    #[test]
    fn blocked_cause_memo_invalidated_across_fail_link() {
        let mut engine = ProvisioningEngine::new(&base());
        // Fill both wavelengths of the chain, then seed the memo:
        // 0 → 3 is routable when free, so the third request is
        // capacity-blocked and the (0, 3) probe is now cached.
        let a = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ0 free");
        let b = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("λ1 free");
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (0, 1));

        // Cut the middle link: both connections are torn, neither can
        // restore (every 0 → 3 route crosses the cut), and the verdict
        // must be no-path — the stale cached probe said "reachable".
        let outcome = engine.fail_link(LinkId::new(1), Policy::Optimal);
        assert_eq!(outcome.len(), 2);
        assert!(outcome.iter().all(|(_, restored)| restored.is_none()));
        assert_eq!(
            engine.blocked_by_cause(),
            (2, 1),
            "restorations blocked by the cut must classify as no-path"
        );
        let _ = (a, b);

        // While the fibre is down every 0 → 3 request stays no-path
        // (the cut is persistent; the memo serves the in-cut verdict).
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (3, 1));

        // Repair the fibre: the pair routes again, and once re-filled
        // the verdict flips back to capacity — the no-path entries from
        // the cut regime must not stick either.
        assert!(engine.restore_link(LinkId::new(1)));
        let c = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("resources freed by the teardown and repair");
        let _ = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("second wavelength free again");
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (3, 2));
        engine.release(c).expect("active");
    }

    /// Double-fail and double-restore are reported no-ops: failing a
    /// cut fibre twice tears nothing down twice, and restoring a
    /// healthy fibre must never blindly unmark resources — they may be
    /// held by active connections.
    #[test]
    fn fail_and_restore_are_idempotent() {
        let mut engine = ProvisioningEngine::new(&base());
        let cut = LinkId::new(1);
        // Restore before any cut: reported no-op.
        assert!(!engine.restore_link(cut));
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        let outcome = engine.fail_link(cut, Policy::Optimal);
        assert_eq!(outcome, vec![(id, None)]);
        // Failing the already-cut fibre again: nothing left to tear
        // down, nothing re-marked, epoch untouched.
        assert!(engine.fail_link(cut, Policy::Optimal).is_empty());
        assert_eq!(engine.failed_links(), &[cut]);
        assert!(engine.restore_link(cut));
        assert_eq!(engine.utilization(), 0.0);
        // Re-occupy the repaired fibre, then restore again: the no-op
        // guard must leave the active connection's resources busy.
        let id = engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("repaired fibre routes");
        let before = engine.utilization();
        assert!(!engine.restore_link(cut));
        assert_eq!(engine.utilization(), before);
        assert!(engine.path_of(id).is_some());
    }

    #[test]
    fn overlapping_cuts_restore_independently() {
        let mut engine = ProvisioningEngine::new(&base());
        engine.fail_link(LinkId::new(0), Policy::Optimal);
        engine.fail_link(LinkId::new(2), Policy::Optimal);
        assert_eq!(engine.failed_links(), &[LinkId::new(0), LinkId::new(2)]);
        // Only the middle link is up: 1 → 2 routes, 0 → 3 is no-path.
        assert!(engine
            .provision(1.into(), 2.into(), Policy::Optimal)
            .is_ok());
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (1, 0));
        assert!(engine.restore_link(LinkId::new(0)));
        assert_eq!(engine.failed_links(), &[LinkId::new(2)]);
        // Link 2 is still down: 0 → 3 stays no-path, 0 → 1 routes.
        assert!(engine
            .provision(0.into(), 3.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (2, 0));
        assert!(engine
            .provision(0.into(), 1.into(), Policy::Optimal)
            .is_ok());
        assert!(engine.restore_link(LinkId::new(2)));
        assert!(engine.failed_links().is_empty());
    }

    /// Regression mirroring
    /// [`blocked_cause_memo_invalidated_across_fail_link`]: the
    /// blocked-cause memo must also be invalidated when a node's
    /// conversion capability changes at runtime. A placer that removes
    /// the junction converter flips a conversion-dependent pair from
    /// capacity-blocked to topology-blocked; a stale cached probe from
    /// the old layout would keep answering "reachable".
    #[test]
    fn blocked_cause_memo_invalidated_across_set_converter() {
        // λ0 on link 0, λ1 on link 1: only conversion at node 1 routes
        // 0 → 2 (same shape as blocked_causes_respect_policy_capabilities).
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(1, 10)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid");
        let mut engine = ProvisioningEngine::new(&net);
        // Seed the memo: 0 → 2 is reachable when free, so the blocked
        // request classifies as capacity and the probe is cached.
        let held = engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .expect("conversion routes");
        assert!(engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (0, 1));

        // Remove the junction converter: the free network can no longer
        // route 0 → 2, so the next blocked request must classify as
        // no-path — the stale cached probe said "reachable". The active
        // connection is grandfathered (its resources stay locked).
        assert_eq!(engine.set_converter(1.into(), false), Ok(true));
        assert!(engine.path_of(held).is_some());
        assert!(engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .is_err());
        assert_eq!(
            engine.blocked_by_cause(),
            (1, 1),
            "verdict probed under the old conversion layout must not be trusted"
        );

        // Re-add the converter: the verdict flips back to capacity —
        // the converter-less entries must not stick either.
        assert_eq!(engine.set_converter(1.into(), true), Ok(true));
        assert!(engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (1, 2));
        // The grandfathered connection releases cleanly through the
        // rebuilt structures.
        engine.release(held).expect("active");
        assert_eq!(engine.utilization(), 0.0);
    }

    #[test]
    fn set_converter_validates_and_reports_no_ops() {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        let net = WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10)])
            .link_wavelengths(1, [(1, 10)])
            .build()
            .expect("valid");
        let mut engine = ProvisioningEngine::new(&net);
        assert_eq!(
            engine.set_converter(9.into(), true),
            Err(RwaError::NodeOutOfRange(9.into()))
        );
        // Default policy is Forbidden: disabling again is a no-op.
        assert_eq!(engine.set_converter(1.into(), false), Ok(false));
        // Without conversion the pair is topology-blocked...
        assert!(engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (1, 0));
        // ...adding the converter makes it routable...
        assert_eq!(engine.set_converter(1.into(), true), Ok(true));
        assert_eq!(engine.set_converter(1.into(), true), Ok(false));
        let id = engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .expect("converter routes");
        engine.release(id).expect("active");
        // ...and removing it blocks the pair again.
        assert_eq!(engine.set_converter(1.into(), false), Ok(true));
        assert!(engine
            .provision(0.into(), 2.into(), Policy::Optimal)
            .is_err());
        assert_eq!(engine.blocked_by_cause(), (2, 0));
    }
}
