//! The reference spec the engine is checked against: a deliberately
//! naive, single-threaded provisioning engine that rebuilds its routing
//! structure on every request.
//!
//! It keeps a plain busy matrix, the active map, the failed-link set and
//! the counters. Nothing here comes from `wdm_rwa::concurrent`: the spec
//! shares no seqlock, memo or transaction code with the engine it
//! checks. What it does share:
//!
//! * **Optimal routes** share only the graph construction and the path
//!   decoding. Each request builds a fresh `G_all`
//!   ([`AuxiliaryGraph::for_all_pairs`]), masks it from the spec's own
//!   busy matrix, and runs the plain, unguided canonical Dijkstra as the
//!   heap-generic decrease-key loop ([`reference::guided_search`] with
//!   the `Unguided` potential, on a Fibonacci heap). The engine runs its
//!   own kernel, goal-directed on a lazy frontier that stops early, on
//!   its persistent state. Canonical routes depend only on the network,
//!   the busy set and the endpoints, so the gate's exact path comparison
//!   checks the engine's search kernel against code it does not share.
//! * **Single-wavelength policies** and **blocked causes** still go
//!   through a freshly built [`ResidualState`] and [`SearchScratch`]:
//!   the wavelength scan of [`Policy::route`] and the reachability
//!   probes, without a memo.
//!
//! [`AuxiliaryGraph::for_all_pairs`]: wdm_core::AuxiliaryGraph::for_all_pairs
//! [`reference::guided_search`]: wdm_core::reference::guided_search
//! [`ResidualState`]: wdm_core::ResidualState
//! [`SearchScratch`]: wdm_core::SearchScratch
//! [`Policy::route`]: wdm_rwa::Policy::route

use std::collections::HashMap;
use std::sync::Arc;

use heaps::FibonacciHeap;
use wdm_core::csr::{EdgeMask, EdgeRole};
use wdm_core::{
    reference, AuxiliaryGraph, ResidualState, SearchScratch, Semilightpath, Unguided, WdmNetwork,
};
use wdm_graph::{LinkId, NodeId};
use wdm_rwa::{BlockCause, ConnectionId, Policy, RwaError};

/// The rebuild-per-request reference engine. Cheap to clone (the base
/// network is shared), which the linearizability checker relies on.
#[derive(Debug, Clone)]
pub struct SpecEngine {
    base: Arc<WdmNetwork>,
    /// `busy[link][λ]`: held by an active connection or a cut marker.
    busy: Vec<Vec<bool>>,
    active: HashMap<ConnectionId, Semilightpath>,
    next_id: u64,
    /// Cut links not yet repaired, sorted.
    failed: Vec<LinkId>,
    accepted: u64,
    blocked: u64,
    released: u64,
    blocked_no_path: u64,
    blocked_capacity: u64,
}

impl SpecEngine {
    /// A spec with every resource of `base` free.
    ///
    /// Debug builds first run the `wdm-lint` model verifier over `base`:
    /// Theorem 1 node/edge counts, gadget shape, tap costs, mask
    /// cross-index, and the Restriction 1/2 gates are all checked against
    /// independent recomputation, and any finding aborts construction.
    pub fn new(base: &WdmNetwork) -> Self {
        #[cfg(debug_assertions)]
        {
            let findings = wdm_lint::verify_network(base, "spec-engine");
            debug_assert!(
                findings.is_empty(),
                "auxiliary-graph construction failed static verification:\n{}",
                wdm_lint::render_text(&findings, std::path::Path::new("."))
            );
        }
        SpecEngine {
            base: Arc::new(base.clone()),
            busy: vec![vec![false; base.k()]; base.link_count()],
            active: HashMap::new(),
            next_id: 0,
            failed: Vec::new(),
            accepted: 0,
            blocked: 0,
            released: 0,
            blocked_no_path: 0,
            blocked_capacity: 0,
        }
    }

    /// A from-scratch routing structure with the busy matrix replayed,
    /// and a scratch to search it with.
    fn rebuild(&self) -> (ResidualState, SearchScratch) {
        let state = ResidualState::new(&self.base);
        for (e, _) in self.base.graph().links() {
            for (w, _) in self.base.wavelengths_on(e).iter() {
                if self.busy[e.index()][w.index()] {
                    state.try_acquire(e, w);
                }
            }
        }
        let scratch = SearchScratch::for_state(&state);
        (state, scratch)
    }

    /// The cheapest semilightpath `s → t` on the busy matrix, by plain
    /// Dijkstra on a freshly built, masked `G_all`; `None` when blocked
    /// or `s == t` (an empty path carries nothing).
    fn route_optimal(&self, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        if s == t {
            return None;
        }
        let aux = AuxiliaryGraph::for_all_pairs(&self.base);
        let g = aux.graph();
        let mut mask = EdgeMask::all_clear(g.edge_count());
        for i in 0..g.edge_count() {
            if let EdgeRole::Traversal { link, wavelength } = g.edge(i).1.role {
                if self.busy[link.index()][wavelength.index()] {
                    mask.set(i);
                }
            }
        }
        let (source, _) = aux.all_pairs_terminals(s);
        let (_, sink) = aux.all_pairs_terminals(t);
        let tree = reference::guided_search::<FibonacciHeap<_>, _>(
            g,
            source,
            Some(&mask),
            sink,
            &Unguided,
        );
        aux.extract_semilightpath(&tree, sink)
    }

    /// Routes and, on success, locks `s → t` under `policy`.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// [`RwaError::Blocked`] when the residual network cannot carry it.
    pub fn provision(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ConnectionId, RwaError> {
        for v in [s, t] {
            if v.index() >= self.base.node_count() {
                return Err(RwaError::NodeOutOfRange(v));
            }
        }
        let route = if matches!(policy, Policy::Optimal) {
            self.route_optimal(s, t)
        } else {
            let (state, mut scratch) = self.rebuild();
            policy.route(&state, &mut scratch, s, t)
        };
        match route {
            Some(path) if !path.is_empty() => {
                for hop in path.hops() {
                    self.busy[hop.link.index()][hop.wavelength.index()] = true;
                }
                let id = ConnectionId::from_u64(self.next_id);
                self.next_id += 1;
                self.active.insert(id, path);
                self.accepted += 1;
                Ok(id)
            }
            _ => {
                let cause = self.classify(s, t, policy);
                self.blocked += 1;
                match cause {
                    BlockCause::NoPath => self.blocked_no_path += 1,
                    BlockCause::Capacity => self.blocked_capacity += 1,
                }
                Err(RwaError::Blocked { s, t })
            }
        }
    }

    /// Topology-blocked when `s → t` is unroutable with every resource
    /// free (minus the cut links) under `policy`'s capabilities,
    /// capacity-blocked otherwise. `s == t` carries nothing and is never
    /// routable.
    fn classify(&self, s: NodeId, t: NodeId, policy: Policy) -> BlockCause {
        let (state, mut scratch) = self.rebuild();
        let failed = &self.failed;
        let reachable = s != t
            && if matches!(policy, Policy::Optimal) {
                state.reachable_when_free(&mut scratch, s, t, failed)
            } else {
                state.reachable_when_free_single_wavelength(&mut scratch, s, t, failed)
            };
        if reachable {
            BlockCause::Capacity
        } else {
            BlockCause::NoPath
        }
    }

    /// Releases an active connection.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), RwaError> {
        let path = self
            .active
            .remove(&id)
            .ok_or(RwaError::UnknownConnection(id))?;
        for hop in path.hops() {
            self.busy[hop.link.index()][hop.wavelength.index()] = false;
        }
        self.released += 1;
        Ok(())
    }

    /// Cuts `link`: tears down every connection crossing it (in id
    /// order), marks every wavelength of the link busy until repaired,
    /// then re-provisions each torn connection. Returns `(torn,
    /// restored)` pairs; cutting a cut link is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        assert!(
            link.index() < self.base.link_count(),
            "link {link} out of range"
        );
        if self.failed.contains(&link) {
            return Vec::new();
        }
        let mut torn: Vec<ConnectionId> = self
            .active
            .iter()
            .filter(|(_, p)| p.hops().iter().any(|h| h.link == link))
            .map(|(&id, _)| id)
            .collect();
        torn.sort();
        let mut endpoints = Vec::with_capacity(torn.len());
        for &id in &torn {
            let path = &self.active[&id];
            let (Some(s), Some(t)) = (path.source(&self.base), path.target(&self.base)) else {
                unreachable!("active paths are non-empty")
            };
            endpoints.push((s, t));
            if self.release(id).is_err() {
                unreachable!("torn connections are active");
            }
        }
        for busy in &mut self.busy[link.index()] {
            *busy = true;
        }
        self.failed.push(link);
        self.failed.sort();
        torn.into_iter()
            .zip(endpoints)
            .map(|(id, (s, t))| (id, self.provision(s, t, policy).ok()))
            .collect()
    }

    /// Repairs a cut link, clearing its markers; `false` (and no
    /// change) when the link is not cut.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        assert!(
            link.index() < self.base.link_count(),
            "link {link} out of range"
        );
        let Ok(pos) = self.failed.binary_search(&link) else {
            return false;
        };
        self.failed.remove(pos);
        for busy in &mut self.busy[link.index()] {
            *busy = false;
        }
        true
    }

    /// The path of an active connection.
    pub fn path_of(&self, id: ConnectionId) -> Option<&Semilightpath> {
        self.active.get(&id)
    }

    /// Cut links not yet repaired, sorted by id.
    pub fn failed_links(&self) -> &[LinkId] {
        &self.failed
    }

    /// `(accepted, blocked, released)`; restorations count as requests
    /// and teardowns as releases.
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.accepted, self.blocked, self.released)
    }

    /// Blocked totals split by cause: `(no_path, capacity)`.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (self.blocked_no_path, self.blocked_capacity)
    }

    /// Number of active connections.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Fraction of base (link, λ) resources held by connections or cut
    /// markers.
    pub fn utilization(&self) -> f64 {
        let mut total = 0usize;
        let mut used = 0usize;
        for (e, _) in self.base.graph().links() {
            for (w, _) in self.base.wavelengths_on(e).iter() {
                total += 1;
                if self.busy[e.index()][w.index()] {
                    used += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            used as f64 / total as f64
        }
    }
}
