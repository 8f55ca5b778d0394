//! Persistent residual routing: the auxiliary graph built once, searched
//! many times through an in-place edge mask.
//!
//! The provisioning hot loop of a dynamic-traffic RWA system answers one
//! question per request — "cheapest semilightpath on the *residual*
//! network" — while the residual network differs from the base only in
//! which (link, wavelength) pairs are currently occupied. Rebuilding
//! `G_{s,t}` per request costs the full Theorem-1 construction,
//! `O(k²n + km)`, plus the allocator traffic of a network clone. This
//! module instead builds the terminal-equipped all-pairs graph `G_all`
//! (Corollary 1) **once** and represents occupancy as an [`EdgeMask`] over
//! its traversal edges: acquiring or releasing a resource flips one bit,
//! and a request is answered by a single masked search over the
//! persistent structure, allocation-free after warm-up.
//!
//! # Goal-directed, canonical search
//!
//! Every search here is the targeted kernel
//! [`DijkstraWorkspace::run_guided_to`], guided by a per-target lower
//! bound `h_t` (see `LowerBounds`): the distance to `t` over the
//! physical topology with each link at its cheapest wavelength. `h_t` is
//! consistent on `G_all` and on every per-λ graph, and busy bits, cuts
//! and released resources never invalidate it, so routes stay exact and
//! the search settles roughly the route's corridor instead of every aux
//! node cheaper than the target. The kernel queues on a lazy frontier of
//! packed integer keys, stops as soon as the target's label is final,
//! and breaks cost ties canonically, so a route is the one the plain,
//! unguided kernel returns on the same mask, and the one the
//! heap-generic decrease-key loop `reference::guided_search` returns
//! through any heap.
//!
//! The two `G_all` searches (routing and the blocked-cause probe) also
//! hand the kernel `G_all`'s gadget layout ([`GadgetLayout`]): a node
//! with a `Free` or finite `Uniform(c)` converter has its `Y_v` block
//! queued as one frontier entry, and the rows of its later `X_v` nodes
//! that can no longer improve a label are not scanned. Routes and the
//! settled, push and decrease-key counts stay those of the edge-by-edge
//! search; only the relaxations and the frontier traffic fall. The per-λ
//! graphs have no gadgets and are searched edge by edge ([`NoGadgets`]).
//!
//! # Why masking a traversal edge is exactly residual routing
//!
//! Occupying `(e, λ)` removes exactly one edge from the paper's
//! wavelength-expanded multigraph `G_M`, which corresponds one-to-one to
//! the traversal edge `y_u(λ) → x_v(λ)` of `G'`. Conversion gadgets and
//! terminal taps never depend on availability, so the residual `G'` is the
//! persistent `G'` minus masked traversal edges. The masked graph retains
//! aux nodes whose wavelengths vanished from the residual Λ-sets, but such
//! nodes are dead ends (every edge that made them useful is masked) and
//! can never lie on a cheapest path, hence distances and blocked verdicts
//! match a from-scratch rebuild. A full rebuild is still required when the
//! *base* network changes — topology edits, added wavelengths, or altered
//! conversion policies — because those change the node set itself.
//!
//! # Sharing across threads
//!
//! Residual routing has one interface, in two halves:
//!
//! * [`ResidualState`] — the graphs, busy masks, and (link, λ) index.
//!   Everything takes `&self`: routing, reachability probes, and the
//!   busy flips [`try_acquire`](ResidualState::try_acquire) /
//!   [`release`](ResidualState::release), atomic RMWs on which the
//!   provisioning engine layers its own conflict protocol.
//! * [`SearchScratch`] — the per-thread Dijkstra workspaces and probe
//!   masks. One per searching thread; never shared.
//!
//! A single-threaded caller builds one of each; a multi-threaded one
//! shares the state (the engine wraps it in an `Arc`) and gives each
//! thread its own scratch.

use crate::auxiliary::AuxiliaryGraph;
use crate::csr::{decode_semilightpath, CsrBuilder, CsrGraph, EdgeMask};
use crate::dijkstra::{DijkstraWorkspace, GadgetLayout, NoGadgets, Potential};
use crate::{Cost, Hop, Semilightpath, Wavelength, WdmNetwork};
use heaps::{BinaryHeap, IndexedPriorityQueue};
use std::sync::atomic::{AtomicBool, AtomicU32};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::{ACQUIRE, RELAXED, RELEASE};

/// One per-wavelength view of the physical topology: the subgraph of links
/// carrying `λ`, with its own busy mask. Lets single-wavelength (lightpath)
/// policies go rebuild-free too.
#[derive(Debug)]
struct LambdaGraph {
    graph: CsrGraph,
    mask: EdgeMask,
    /// Dense edge index per link (`u32::MAX` when the link lacks this λ).
    edge_of_link: Vec<u32>,
    /// The link of each edge, by dense index: what the edge means, since
    /// every edge of a per-λ graph crosses one link on λ.
    link_of_edge: Vec<LinkId>,
}

const NO_EDGE: u32 = u32::MAX;

/// A lower-bound table entry for a node that cannot reach the target.
const UNREACHABLE: u32 = u32::MAX;

/// The goal-directed search's potentials: for each target `t`, the
/// distance `h_t(v)` from every physical node `v` to `t` when each link
/// weighs `min_λ w(e, λ)`, filled on first use and shared by every
/// search on the state.
///
/// `h_t` is consistent on `G_all` and on every per-λ graph: a traversal
/// of `e` on `λ` costs `w(e, λ) ≥ min_λ w(e, λ) ≥ h_t(u) − h_t(v)`, and
/// gadget and tap edges stay inside one physical node, whose aux nodes
/// all take its `h_t`. Busy bits and cuts only delete edges, and
/// conversion costs never enter `h_t`, so a filled row stays valid for
/// the state's whole lifetime and carries over when
/// [`ResidualState::rebuild_conversions`] redoes the gadgets. Entries
/// are clipped to `u32` (`min(h, C)` of a consistent `h` is
/// consistent), so the table takes `4·n²` bytes.
#[derive(Debug)]
struct LowerBounds {
    /// Physical node count.
    n: usize,
    /// The physical topology reversed (an edge `v → u` per link
    /// `u → v`), each link at its cheapest wavelength's cost.
    reverse: CsrGraph,
    /// Row `t` holds `h_t`; [`UNREACHABLE`] where `t` cannot be reached.
    table: Vec<AtomicU32>,
    /// `ready[t]`: row `t` is filled and published.
    ready: Vec<AtomicBool>,
}

impl LowerBounds {
    fn new(base: &WdmNetwork) -> Self {
        let n = base.node_count();
        let mut b = CsrBuilder::new(n);
        for (e, l) in base.graph().links() {
            if let Some(cost) = base.wavelengths_on(e).iter().map(|(_, cost)| cost).min() {
                b.add_edge(l.head().index(), l.tail().index(), cost);
            }
        }
        let mut table = Vec::new();
        table.resize_with(n * n, || AtomicU32::new(UNREACHABLE));
        let mut ready = Vec::new();
        ready.resize_with(n, || AtomicBool::new(false));
        LowerBounds {
            n,
            reverse: b.build(),
            table,
            ready,
        }
    }

    /// Row `t` of the table.
    fn row(&self, t: usize) -> &[AtomicU32] {
        match self.table.get(t * self.n..(t + 1) * self.n) {
            Some(row) => row,
            None => unreachable!("one lower-bound row per physical node"),
        }
    }

    /// `h_t` as a potential over a graph whose node `v` lies at physical
    /// node `phys[v]` (the identity when `phys` is `None`), filling row
    /// `t` through `scratch` first if no search has yet.
    ///
    /// Publication follows `wdm_obs::ordering`: the filler stores the
    /// row relaxed, then sets `ready[t]` with release; a reader that sees
    /// the flag with acquire sees the whole row. Fillers racing on one
    /// row store identical values.
    fn toward<'a>(
        &'a self,
        scratch: &mut SearchScratch,
        t: NodeId,
        phys: Option<&'a [NodeId]>,
    ) -> TargetBounds<'a> {
        let ti = t.index();
        assert!(ti < self.n, "target {t} out of range");
        let row = self.row(ti);
        if !self.ready[ti].load(ACQUIRE) {
            scratch
                .fill_ws
                .run(&self.reverse, ti, &mut scratch.fill_heap);
            for (cell, &d) in row.iter().zip(scratch.fill_ws.dist()) {
                cell.store(table_entry(d), RELAXED);
            }
            self.ready[ti].store(true, RELEASE);
            scratch.fills += 1;
        }
        TargetBounds { row, phys }
    }
}

impl Default for LowerBounds {
    /// The bounds of the empty network: a placeholder while a state's
    /// real bounds move to its rebuilt successor.
    fn default() -> Self {
        LowerBounds {
            n: 0,
            reverse: CsrBuilder::new(0).build(),
            table: Vec::new(),
            ready: Vec::new(),
        }
    }
}

/// Dense edge index `index` as a `u32` edge handle.
fn edge_handle(index: usize) -> u32 {
    match u32::try_from(index) {
        Ok(handle) => handle,
        Err(_) => unreachable!("edge counts fit in u32 edge handles"),
    }
}

/// `d` as a [`LowerBounds`] entry: clipped below [`UNREACHABLE`], which
/// stands for an infinite `d`.
fn table_entry(d: Cost) -> u32 {
    match d.value() {
        Some(h) => u32::try_from(h).map_or(UNREACHABLE - 1, |h| h.min(UNREACHABLE - 1)),
        None => UNREACHABLE,
    }
}

/// One filled row of [`LowerBounds`] as a search [`Potential`].
struct TargetBounds<'a> {
    row: &'a [AtomicU32],
    phys: Option<&'a [NodeId]>,
}

impl Potential for TargetBounds<'_> {
    #[inline]
    fn at(&self, node: usize) -> Cost {
        let p = match self.phys {
            Some(phys) => phys[node].index(),
            None => node,
        };
        match self.row[p].load(RELAXED) {
            UNREACHABLE => Cost::INFINITY,
            h => Cost::new(u64::from(h)),
        }
    }
}

/// Outcome of a resource acquisition ([`ResidualState::try_acquire`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcquireOutcome {
    /// The caller won the flip: the resource was free and is now busy,
    /// owned by the caller.
    Acquired,
    /// The resource was already busy (another owner holds it).
    Busy,
    /// The base network does not carry this wavelength on this link;
    /// nothing was changed.
    NoSuchResource,
}

/// The shareable half of the persistent residual structure: `G_all`
/// ([`AuxiliaryGraph::for_all_pairs`]), one per-wavelength link graph,
/// and the busy masks, with a (link, λ) → traversal-edge index.
///
/// All routing queries take `&self` plus a caller-owned
/// [`SearchScratch`], so any number of threads may search one state
/// concurrently while flipping busy bits through
/// [`try_acquire`](Self::try_acquire) and [`release`](Self::release).
/// Consistency across multiple bits is the caller's protocol — see
/// `wdm_obs::ordering` for the seqlock audit the provisioning engine
/// builds on.
///
/// # Examples
///
/// ```
/// use wdm_core::{AcquireOutcome, Cost, ResidualState, SearchScratch, WdmNetwork, Wavelength};
/// use wdm_graph::{DiGraph, LinkId};
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let state = ResidualState::new(&net);
/// let mut scratch = SearchScratch::for_state(&state);
/// let p = state.route_optimal(&mut scratch, 0.into(), 1.into()).expect("free");
/// assert_eq!(p.cost(), Cost::new(4));
/// let (link, lambda) = (LinkId::new(0), Wavelength::new(0));
/// assert_eq!(state.try_acquire(link, lambda), AcquireOutcome::Acquired);
/// assert!(state.route_optimal(&mut scratch, 0.into(), 1.into()).is_none());
/// assert!(state.release(link, lambda));
/// assert!(state.route_optimal(&mut scratch, 0.into(), 1.into()).is_some());
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug)]
pub struct ResidualState {
    aux: AuxiliaryGraph,
    /// Busy mask over the aux graph's edges (only traversal bits are set).
    mask: EdgeMask,
    /// Per link, sorted by wavelength: the aux traversal edge for
    /// `(link, λ)`.
    aux_edge: Vec<Vec<(Wavelength, u32)>>,
    lambda: Vec<LambdaGraph>,
    bounds: LowerBounds,
}

/// The per-thread half: a reusable [`DijkstraWorkspace`] for the
/// targeted searches (with state for each of `G_all`'s gadgets), the
/// smaller workspace and heap that fill lower bounds, and lazily sized
/// probe masks, so that after warm-up a request costs one search and
/// zero structural work.
///
/// The targeted searches queue on the workspace's own frontier (see
/// [`DijkstraWorkspace::run_guided_to`]): they hardly ever lower a key,
/// so a lazy heap of packed integer keys outruns the indexed heaps with
/// decrease-key. The lower-bound fills are full-tree runs over the
/// `n`-node topology and keep the indexed binary heap.
#[derive(Debug)]
pub struct SearchScratch {
    ws: DijkstraWorkspace,
    /// Workspace and heap of the reverse searches that fill potentials,
    /// kept apart so their work never reaches the request counters.
    fill_ws: DijkstraWorkspace,
    fill_heap: BinaryHeap<Cost>,
    /// Potentials this scratch filled since the last drain.
    fills: usize,
    /// All-clear mask over the aux graph used by link-excluding probes;
    /// zero-length until first use.
    probe_aux: EdgeMask,
    /// All-clear masks over the per-λ graphs for link-excluding probes;
    /// empty until first use.
    probe_lambda: Vec<EdgeMask>,
}

impl SearchScratch {
    /// Scratch sized for searches over `state`.
    pub fn for_state(state: &ResidualState) -> Self {
        let n_phys = state.bounds.n.max(1);
        let cap = state.aux.graph().node_count().max(n_phys);
        SearchScratch {
            ws: DijkstraWorkspace::with_capacity(cap).with_gadgets(state.aux.gadget_count()),
            fill_ws: DijkstraWorkspace::with_capacity(n_phys),
            fill_heap: BinaryHeap::with_capacity(n_phys),
            fills: 0,
            probe_aux: EdgeMask::all_clear(0),
            probe_lambda: Vec::new(),
        }
    }

    /// Drains the search-operation totals accumulated by every routing
    /// call through this scratch since the last drain.
    ///
    /// The underlying [`DijkstraWorkspace`] bumps plain fields during
    /// the search, so this is the zero-hot-path handoff point between
    /// the kernels and a metrics registry: call it per request (or per
    /// flush interval) and feed the deltas into shared counters.
    pub fn take_search_totals(&mut self) -> crate::SearchStats {
        let mut totals = self.ws.take_totals();
        totals.potential_fills = std::mem::take(&mut self.fills);
        totals
    }
}

impl ResidualState {
    /// Builds the state for `base` with every resource free. This is the
    /// once-per-engine `O(k²n + km)` cost the per-request path no longer
    /// pays.
    ///
    /// Memory: most of the state is `G_all`, at 12 bytes per edge
    /// (target and cost) plus its node tables and a 4-byte link per
    /// traversal edge. Under full conversion it has up to `k²n` gadget
    /// edges: 494,290 edges, 6.5 MiB, for the 512-node, `k = 32`
    /// benchmark instance `sparse512_k32`. The graph is built in place
    /// (see [`CsrBuilder`]), so the build peaks at that size. The state
    /// also holds the search's lower bounds, a table of `4·n²` bytes for
    /// `n` physical nodes (1 MiB at `n = 512`, 400 MB at `n = 10,000`).
    /// It is allocated here; its rows are filled on first use, one per
    /// routed target.
    pub fn new(base: &WdmNetwork) -> Self {
        Self::with_bounds(base, LowerBounds::new(base))
    }

    /// Rebuilds the state in place for `base`, a network that differs
    /// from the one the state was built for only in its conversion
    /// policies: the conversion gadgets of `G_all` are redone, and every
    /// busy bit (cut markers included) and every filled lower-bound row
    /// carries over — `h_t` weighs links alone.
    ///
    /// # Panics
    ///
    /// Panics if `base` has a different node count.
    pub fn rebuild_conversions(&mut self, base: &WdmNetwork) {
        assert_eq!(
            base.node_count(),
            self.bounds.n,
            "a conversion rebuild keeps the topology"
        );
        let state = Self::with_bounds(base, std::mem::take(&mut self.bounds));
        for (link, per_link) in self.aux_edge.iter().enumerate() {
            for &(wavelength, idx) in per_link {
                if self.mask.is_set(idx as usize) {
                    state.try_acquire(LinkId::new(link), wavelength);
                }
            }
        }
        *self = state;
    }

    /// The state for `base` with every resource free, searching with
    /// `bounds`.
    fn with_bounds(base: &WdmNetwork, bounds: LowerBounds) -> Self {
        let aux = AuxiliaryGraph::for_all_pairs(base);
        let g = aux.graph();
        let m = base.link_count();
        let n = base.node_count();

        // Index the traversal edges by (link, λ) for O(log k0) flips. The
        // `Y_v` rows hold the traversals only, and yield each link's in
        // wavelength order.
        let mut aux_edge: Vec<Vec<(Wavelength, u32)>> = base
            .graph()
            .links()
            .map(|(e, _)| Vec::with_capacity(base.wavelengths_on(e).len()))
            .collect();
        for (Hop { link, wavelength }, index) in aux.traversals() {
            aux_edge[link.index()].push((wavelength, edge_handle(index)));
        }

        // One physical-topology subgraph per wavelength: its rows in node
        // order, each row's links in link order (the order of the legacy
        // per-λ rebuild), filled in one pass over each link's entries.
        // The rows arrive in place, so each edge's link is indexed as it
        // is added.
        let mut per_lambda = vec![0usize; base.k()];
        for (e, _) in base.graph().links() {
            for (w, _) in base.wavelengths_on(e).iter() {
                per_lambda[w.index()] += 1;
            }
        }
        let mut parts: Vec<_> = per_lambda
            .iter()
            .map(|&edges| {
                let mut b = CsrBuilder::new(n);
                b.reserve(edges);
                (b, vec![NO_EDGE; m], Vec::with_capacity(edges))
            })
            .collect();
        for u in base.graph().nodes() {
            for &e in base.graph().out_links(u) {
                let head = base.graph().link(e).head().index();
                for (w, cost) in base.wavelengths_on(e).iter() {
                    let Some((b, edge_of_link, link_of_edge)) = parts.get_mut(w.index()) else {
                        unreachable!("link wavelengths lie below k")
                    };
                    if cost.is_finite() {
                        edge_of_link[e.index()] = edge_handle(b.edge_count());
                        link_of_edge.push(e);
                        b.add_edge(u.index(), head, cost);
                    }
                }
            }
        }
        let lambda = parts
            .into_iter()
            .map(|(b, edge_of_link, link_of_edge)| {
                let graph = b.build();
                LambdaGraph {
                    mask: EdgeMask::all_clear(graph.edge_count()),
                    graph,
                    edge_of_link,
                    link_of_edge,
                }
            })
            .collect();

        ResidualState {
            mask: EdgeMask::all_clear(g.edge_count()),
            aux_edge,
            lambda,
            bounds,
            aux,
        }
    }

    /// The base network's global wavelength count `k`.
    pub fn k(&self) -> usize {
        self.lambda.len()
    }

    /// The aux traversal edge for `(link, λ)`, when the base carries it.
    fn aux_edge_of(&self, link: LinkId, wavelength: Wavelength) -> Option<usize> {
        let per_link = &self.aux_edge[link.index()];
        per_link
            .binary_search_by_key(&wavelength, |&(w, _)| w)
            .ok()
            .map(|pos| per_link[pos].1 as usize)
    }

    /// Attempts to mark `(link, λ)` busy.
    ///
    /// On [`AcquireOutcome::Acquired`] the caller owns the resource and
    /// this call has flipped both the aux-graph bit and the λ-graph bit.
    /// [`AcquireOutcome::NoSuchResource`] changes nothing: the base
    /// network does not carry `λ` on `link`, so there is no traversal
    /// edge (an engine may still *account* such a pair as blocked, e.g.
    /// during a fibre cut). The flip is `O(log k0)` and allocation-free.
    /// The RMWs are relaxed (see `wdm_obs::ordering`): callers must
    /// bracket acquisitions with their own ordering protocol before
    /// concluding anything about *other* resources.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn try_acquire(&self, link: LinkId, wavelength: Wavelength) -> AcquireOutcome {
        let Some(aux_idx) = self.aux_edge_of(link, wavelength) else {
            return AcquireOutcome::NoSuchResource;
        };
        if !self.mask.fetch_set(aux_idx) {
            return AcquireOutcome::Busy;
        }
        let lg = &self.lambda[wavelength.index()];
        let e = lg.edge_of_link[link.index()];
        debug_assert_ne!(e, NO_EDGE, "λ-graph edge exists whenever the aux edge does");
        // The caller now owns the resource, so this second flip cannot
        // race another owner of the same bit.
        lg.mask.fetch_set(e as usize);
        AcquireOutcome::Acquired
    }

    /// Marks `(link, λ)` free again. Returns `false` when the base does
    /// not carry the resource (nothing changed). Releasing an
    /// already-free resource is a no-op; only the owner should call this
    /// (the engine's protocol guarantees it).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn release(&self, link: LinkId, wavelength: Wavelength) -> bool {
        let Some(aux_idx) = self.aux_edge_of(link, wavelength) else {
            return false;
        };
        self.mask.fetch_clear(aux_idx);
        let lg = &self.lambda[wavelength.index()];
        let e = lg.edge_of_link[link.index()];
        debug_assert_ne!(e, NO_EDGE, "λ-graph edge exists whenever the aux edge does");
        lg.mask.fetch_clear(e as usize);
        true
    }

    /// Whether `(link, λ)` is currently masked busy.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn is_busy(&self, link: LinkId, wavelength: Wavelength) -> bool {
        match self.aux_edge_of(link, wavelength) {
            Some(idx) => self.mask.is_set(idx),
            None => false,
        }
    }

    /// Number of (link, λ) resources currently masked busy.
    pub fn busy_count(&self) -> usize {
        self.mask.set_count()
    }

    /// Cheapest semilightpath `s → t` on the residual network — the
    /// Theorem-1 query answered by one masked, goal-directed search over
    /// the persistent `G_all`, with no construction and no allocation
    /// beyond the returned path. `s == t` yields the empty path; `None`
    /// means blocked.
    ///
    /// Costs (and blocked verdicts) are identical to routing on a freshly
    /// rebuilt residual `G_{s,t}`; see the module docs for the argument.
    /// The path is canonical: the one
    /// [`DijkstraWorkspace::run_guided_to`] returns without a potential,
    /// and `reference::guided_search` through any heap. The first search
    /// toward `t` on this state fills `t`'s lower bounds (one reverse
    /// Dijkstra over the `n`-node topology, counted in
    /// [`SearchStats::potential_fills`]).
    ///
    /// [`SearchStats::potential_fills`]: crate::SearchStats::potential_fills
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn route_optimal(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
    ) -> Option<Semilightpath> {
        if s == t {
            // An empty hop list never allocates (capacity 0).
            return Some(Semilightpath::new(Vec::default(), Cost::ZERO));
        }
        let (source, _) = self.aux.all_pairs_terminals(s);
        let (_, sink) = self.aux.all_pairs_terminals(t);
        let h = self
            .bounds
            .toward(scratch, t, Some(self.aux.physical_nodes()));
        scratch.ws.run_guided_to(
            self.aux.graph(),
            source,
            Some(&self.mask),
            sink,
            &h,
            &self.aux,
        );
        self.aux
            .extract_semilightpath_from(scratch.ws.dist(), scratch.ws.parent(), sink)
    }

    /// Whether `t` is reachable from `s` when **every** resource is free
    /// and every wavelength of each link in `excluded` is unavailable.
    /// Used to classify blocked requests: while fibres are cut, a pair
    /// that fails this probe with the cut links excluded is blocked by
    /// topology (`no_path`), anything else by occupancy.
    ///
    /// With no excluded link the search runs on the unmasked persistent
    /// structure; otherwise on a scratch-local probe mask holding only
    /// the excluded links' bits, all clear again on return. `s == t` is
    /// trivially reachable. The probe's search work is accumulated into
    /// the totals like any other run; callers that only meter hot-path
    /// searches should drain totals before probing and discard the
    /// probe's delta.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or any excluded link is out of range.
    pub fn reachable_when_free(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        excluded: &[LinkId],
    ) -> bool {
        if s == t {
            return true;
        }
        let g = self.aux.graph();
        let cut = || {
            excluded
                .iter()
                .flat_map(|link| &self.aux_edge[link.index()])
                .map(|&(_, idx)| idx as usize)
        };
        if !excluded.is_empty() && scratch.probe_aux.len() != g.edge_count() {
            scratch.probe_aux = EdgeMask::all_clear(g.edge_count());
        }
        let (source, _) = self.aux.all_pairs_terminals(s);
        let (_, sink) = self.aux.all_pairs_terminals(t);
        let h = self
            .bounds
            .toward(scratch, t, Some(self.aux.physical_nodes()));
        for e in cut() {
            scratch.probe_aux.set(e);
        }
        let mask = (!excluded.is_empty()).then_some(&scratch.probe_aux);
        scratch
            .ws
            .run_guided_to(g, source, mask, sink, &h, &self.aux);
        let reachable = scratch.ws.dist()[sink].is_finite();
        for e in cut() {
            scratch.probe_aux.clear(e);
        }
        reachable
    }

    /// Whether some **single** wavelength connects `s` to `t` when every
    /// resource is free and the links in `excluded` are unavailable — the
    /// no-conversion counterpart of
    /// [`reachable_when_free`](Self::reachable_when_free), matching what
    /// first-fit / lightpath-only policies could ever route.
    ///
    /// `s == t` returns `false`, mirroring
    /// [`route_single_wavelength`](Self::route_single_wavelength).
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or any excluded link is out of range.
    pub fn reachable_when_free_single_wavelength(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        excluded: &[LinkId],
    ) -> bool {
        if s == t {
            return false;
        }
        if !excluded.is_empty() && scratch.probe_lambda.len() != self.lambda.len() {
            scratch.probe_lambda = self
                .lambda
                .iter()
                .map(|lg| EdgeMask::all_clear(lg.graph.edge_count()))
                .collect();
        }
        let h = self.bounds.toward(scratch, t, None);
        for (li, lg) in self.lambda.iter().enumerate() {
            // The excluded links' edges on λ; a link lacking λ has none.
            let cut = || {
                excluded
                    .iter()
                    .map(|link| lg.edge_of_link[link.index()])
                    .filter(|&e| e != NO_EDGE)
                    .map(|e| e as usize)
            };
            for e in cut() {
                scratch.probe_lambda[li].set(e);
            }
            let mask = (!excluded.is_empty()).then(|| &scratch.probe_lambda[li]);
            scratch
                .ws
                .run_guided_to(&lg.graph, s.index(), mask, t.index(), &h, &NoGadgets);
            let reachable = scratch.ws.dist()[t.index()].is_finite();
            for e in cut() {
                scratch.probe_lambda[li].clear(e);
            }
            if reachable {
                return true;
            }
        }
        false
    }

    /// Cheapest single-wavelength path `s → t` on wavelength `lambda` of
    /// the residual network (the lightpath-only building block). `s ==
    /// t` returns `None`: a lightpath crosses at least one link.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint or `lambda` is out of range.
    pub fn route_single_wavelength(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        lambda: Wavelength,
    ) -> Option<Semilightpath> {
        if s == t {
            return None;
        }
        let lg = &self.lambda[lambda.index()];
        let h = self.bounds.toward(scratch, t, None);
        scratch.ws.run_guided_to(
            &lg.graph,
            s.index(),
            Some(&lg.mask),
            t.index(),
            &h,
            &NoGadgets,
        );
        decode_semilightpath(scratch.ws.dist(), scratch.ws.parent(), t.index(), |_, e| {
            Some(Hop {
                link: lg.link_of_edge[e],
                wavelength: lambda,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::DiGraph;

    /// 0 → 1 → 2 chain, two wavelengths everywhere, cheap conversion.
    fn chain() -> WdmNetwork {
        let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    /// A fresh state for `net` and a scratch to search it with.
    fn state_for(net: &WdmNetwork) -> (ResidualState, SearchScratch) {
        let state = ResidualState::new(net);
        let scratch = SearchScratch::for_state(&state);
        (state, scratch)
    }

    /// Routes on a freshly restricted clone — the legacy rebuild path.
    fn legacy_route(
        net: &WdmNetwork,
        busy: &[(usize, usize)],
        s: NodeId,
        t: NodeId,
    ) -> Option<Semilightpath> {
        let residual = net.restrict(|link, w| {
            !busy
                .iter()
                .any(|&(l, lam)| link.index() == l && w.index() == lam)
        });
        LiangShenRouter::new().route(&residual, s, t).ok()?.path
    }

    #[test]
    fn masked_route_matches_legacy_rebuild_costs() {
        let net = chain();
        let busy_sets: [&[(usize, usize)]; 4] = [
            &[],
            &[(0, 0)],
            &[(0, 0), (1, 1)],
            &[(0, 0), (0, 1)], // link 0 fully busy → blocked
        ];
        for busy in busy_sets {
            let (state, mut scratch) = state_for(&net);
            for &(l, lam) in busy {
                assert_eq!(
                    state.try_acquire(LinkId::new(l), Wavelength::new(lam)),
                    AcquireOutcome::Acquired
                );
            }
            for (s, t) in [(0, 2), (0, 1), (1, 2), (2, 0)] {
                let masked = state.route_optimal(&mut scratch, NodeId::new(s), NodeId::new(t));
                let legacy = legacy_route(&net, busy, NodeId::new(s), NodeId::new(t));
                match (&masked, &legacy) {
                    (Some(a), Some(b)) => {
                        assert_eq!(a.cost(), b.cost(), "{busy:?} {s}->{t}");
                        a.validate(&net.restrict(|link, w| {
                            !busy
                                .iter()
                                .any(|&(l, lam)| link.index() == l && w.index() == lam)
                        }))
                        .expect("valid on residual");
                    }
                    (None, None) => {}
                    other => panic!("blocked-verdict mismatch for {busy:?} {s}->{t}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn indexes_match_the_edge_by_edge_builds_on_random_networks() {
        use crate::csr::EdgeRole;
        use crate::instance::{random_network, Availability, ConversionSpec, InstanceConfig};
        use rand::{rngs::SmallRng, SeedableRng};
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let graph = wdm_graph::topology::random_sparse(12 + seed as usize, 6, 4, &mut rng)
                .expect("feasible");
            let config = InstanceConfig {
                k: 1 + seed as usize % 6,
                availability: Availability::Probability(0.5),
                link_cost: (0, 9),
                conversion: ConversionSpec::Uniform { lo: 0, hi: 3 },
            };
            let net = random_network(graph, &config, &mut rng).expect("valid");
            let state = ResidualState::new(&net);

            // The (link, λ) index by decoding every edge of G_all.
            let g = state.aux.graph();
            let mut aux_edge = vec![Vec::new(); net.link_count()];
            for (tail, e) in g.edges() {
                if let EdgeRole::Traversal { link, wavelength } = state.aux.edge_role(tail, e) {
                    aux_edge[link.index()].push((wavelength, edge_handle(e.index)));
                }
            }
            for per_link in &mut aux_edge {
                per_link.sort_by_key(|&(w, _)| w);
            }
            assert_eq!(state.aux_edge, aux_edge, "seed {seed}");

            // Each per-λ graph by its own pass over every link.
            for (li, lg) in state.lambda.iter().enumerate() {
                let lam = Wavelength::new(li);
                let mut b = CsrBuilder::new(net.node_count());
                let mut edge_of_link = vec![NO_EDGE; net.link_count()];
                let mut link_of_edge = Vec::new();
                for u in net.graph().nodes() {
                    for &e in net.graph().out_links(u) {
                        let w = net.link_cost(e, lam);
                        if w.is_finite() {
                            edge_of_link[e.index()] = edge_handle(b.edge_count());
                            link_of_edge.push(e);
                            b.add_edge(u.index(), net.graph().link(e).head().index(), w);
                        }
                    }
                }
                let rebuilt = b.build();
                let dump = |g: &CsrGraph| {
                    g.edges()
                        .map(|(s, e)| (s, e.index, e.target, e.cost))
                        .collect::<Vec<_>>()
                };
                assert_eq!(dump(&lg.graph), dump(&rebuilt), "seed {seed} λ{li}");
                assert_eq!(lg.edge_of_link, edge_of_link, "seed {seed} λ{li}");
                assert_eq!(lg.link_of_edge, link_of_edge, "seed {seed} λ{li}");
                assert_eq!(lg.mask.len(), rebuilt.edge_count());
            }
        }
    }

    #[test]
    fn flips_are_idempotent_and_reversible() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        let link = LinkId::new(0);
        let lam = Wavelength::new(0);
        assert!(!state.is_busy(link, lam));
        assert_eq!(state.try_acquire(link, lam), AcquireOutcome::Acquired);
        assert_eq!(
            state.try_acquire(link, lam),
            AcquireOutcome::Busy,
            "a held resource cannot be acquired twice"
        );
        assert!(state.is_busy(link, lam));
        assert_eq!(state.busy_count(), 1);
        assert!(state.release(link, lam));
        assert!(
            state.release(link, lam),
            "releasing a free resource is a no-op"
        );
        assert_eq!(state.busy_count(), 0);
        let before = state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .expect("free");
        assert_eq!(before.cost(), Cost::new(20));
    }

    #[test]
    fn conversion_rebuild_keeps_busy_bits_and_filled_bounds() {
        let mut net = chain();
        let (mut state, mut scratch) = state_for(&net);
        // λ0 busy on link 0: the cheapest 0 → 2 converts at node 1.
        state.try_acquire(LinkId::new(0), Wavelength::new(0));
        let before = state.route_optimal(&mut scratch, 0.into(), 2.into());
        assert_eq!(before.map(|p| p.cost()), Some(Cost::new(12 + 1 + 10)));
        assert_eq!(scratch.take_search_totals().potential_fills, 1);

        net.set_conversion_at(NodeId::new(1), ConversionPolicy::Forbidden);
        state.rebuild_conversions(&net);
        assert!(state.is_busy(LinkId::new(0), Wavelength::new(0)));
        assert_eq!(state.busy_count(), 1);
        let mut scratch = SearchScratch::for_state(&state);
        let after = state.route_optimal(&mut scratch, 0.into(), 2.into());
        assert_eq!(after.map(|p| p.cost()), Some(Cost::new(12 + 12)));
        // Target 2's row was filled before the rebuild and is reused.
        assert_eq!(scratch.take_search_totals().potential_fills, 0);

        // The rebuilt state routes exactly like one built for the new
        // network from scratch.
        let (fresh, mut fresh_scratch) = state_for(&net);
        fresh.try_acquire(LinkId::new(0), Wavelength::new(0));
        for (s, t) in [(0, 2), (0, 1), (1, 2), (2, 0)] {
            let (s, t) = (NodeId::new(s), NodeId::new(t));
            assert_eq!(
                state.route_optimal(&mut scratch, s, t),
                fresh.route_optimal(&mut fresh_scratch, s, t),
                "{s}->{t}"
            );
        }
    }

    #[test]
    fn excluding_probes_mask_only_the_excluded_link() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        // Free network: 0 → 2 reachable, also on a single wavelength.
        assert!(state.reachable_when_free(&mut scratch, 0.into(), 2.into(), &[]));
        assert!(state.reachable_when_free_single_wavelength(&mut scratch, 0.into(), 2.into(), &[]));
        // Excluding the only middle link cuts 0 → 2 but not 0 → 1.
        let cut = [LinkId::new(1)];
        assert!(!state.reachable_when_free(&mut scratch, 0.into(), 2.into(), &cut));
        assert!(state.reachable_when_free(&mut scratch, 0.into(), 1.into(), &cut));
        assert!(!state.reachable_when_free_single_wavelength(
            &mut scratch,
            0.into(),
            2.into(),
            &cut
        ));
        assert!(state.reachable_when_free_single_wavelength(
            &mut scratch,
            0.into(),
            1.into(),
            &cut
        ));
        // A multi-link set masks every listed link at once.
        assert!(!state.reachable_when_free(
            &mut scratch,
            0.into(),
            1.into(),
            &[LinkId::new(0), LinkId::new(1)]
        ));
        // The probe masks are scratch-local and restored after each call:
        // the same probes answer identically a second time, an empty
        // exclusion set sees the whole network again, and normal routing
        // still sees a fully free network.
        assert!(!state.reachable_when_free(&mut scratch, 0.into(), 2.into(), &cut));
        assert!(state.reachable_when_free(&mut scratch, 0.into(), 2.into(), &[]));
        assert!(state.reachable_when_free_single_wavelength(&mut scratch, 0.into(), 2.into(), &[]));
        assert!(state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .is_some());
        assert_eq!(state.busy_count(), 0);
    }

    #[test]
    fn absent_wavelength_flip_is_a_reported_no_op() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let net = WdmNetwork::builder(g, 3)
            .link_wavelengths(0, [(1, 5)])
            .build()
            .expect("valid");
        let (state, mut scratch) = state_for(&net);
        // λ0 and λ2 are not carried by link 0: flips report it and leave
        // routing untouched (a fibre-cut engine may mark all k).
        for lam in [0, 2] {
            let lam = Wavelength::new(lam);
            assert_eq!(
                state.try_acquire(LinkId::new(0), lam),
                AcquireOutcome::NoSuchResource
            );
            assert!(!state.release(LinkId::new(0), lam));
            assert!(!state.is_busy(LinkId::new(0), lam));
        }
        assert_eq!(state.busy_count(), 0);
        assert!(state
            .route_optimal(&mut scratch, 0.into(), 1.into())
            .is_some());
    }

    #[test]
    fn single_wavelength_routes_respect_masks() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        let p = state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(0))
            .expect("λ0 free");
        assert_eq!(p.cost(), Cost::new(20));
        assert!(p.is_lightpath());
        state.try_acquire(LinkId::new(1), Wavelength::new(0));
        assert!(state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(0))
            .is_none());
        let alt = state
            .route_single_wavelength(&mut scratch, 0.into(), 2.into(), Wavelength::new(1))
            .expect("λ1 free");
        assert_eq!(alt.cost(), Cost::new(24));
        // s == t mirrors the legacy routine's None.
        assert!(state
            .route_single_wavelength(&mut scratch, 1.into(), 1.into(), Wavelength::new(0))
            .is_none());
    }

    #[test]
    fn trivial_and_blocked_queries() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        let empty = state
            .route_optimal(&mut scratch, 1.into(), 1.into())
            .expect("s == t");
        assert!(empty.is_empty());
        assert_eq!(empty.cost(), Cost::ZERO);
        // 2 has no outgoing links.
        assert!(state
            .route_optimal(&mut scratch, 2.into(), 0.into())
            .is_none());
    }

    #[test]
    fn search_totals_accumulate_across_requests_and_drain() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        assert_eq!(scratch.take_search_totals(), Default::default());
        state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .expect("free");
        let one = scratch.take_search_totals();
        assert!(one.settled > 0 && one.relaxed > 0 && one.pushes > 0);
        // The first request to a target fills its potential, once.
        assert_eq!(one.potential_fills, 1);
        let one = crate::SearchStats {
            potential_fills: 0,
            ..one
        };
        // Two identical requests cost exactly twice one request.
        state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .expect("free");
        state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .expect("free");
        let mut twice = crate::SearchStats::default();
        twice.accumulate(&one);
        twice.accumulate(&one);
        assert_eq!(scratch.take_search_totals(), twice);
        // Masked searches report their skips.
        state.try_acquire(LinkId::new(0), Wavelength::new(0));
        state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .expect("λ1 free");
        assert!(scratch.take_search_totals().masked_skips > 0);
        // s == t short-circuits without touching the kernels.
        state
            .route_optimal(&mut scratch, 1.into(), 1.into())
            .expect("trivial");
        assert_eq!(scratch.take_search_totals(), Default::default());
    }

    #[test]
    fn free_reachability_ignores_masks() {
        let net = chain();
        let (state, mut scratch) = state_for(&net);
        // Saturate link 0 completely: routing blocks, but the free
        // topology still connects 0 → 2.
        state.try_acquire(LinkId::new(0), Wavelength::new(0));
        state.try_acquire(LinkId::new(0), Wavelength::new(1));
        assert!(state
            .route_optimal(&mut scratch, 0.into(), 2.into())
            .is_none());
        assert!(state.reachable_when_free(&mut scratch, 0.into(), 2.into(), &[]));
        // Node 2 has no outgoing links: blocked by topology.
        assert!(!state.reachable_when_free(&mut scratch, 2.into(), 0.into(), &[]));
        assert!(state.reachable_when_free(&mut scratch, 1.into(), 1.into(), &[]));
    }

    #[test]
    fn concurrent_search_while_flipping_is_memory_safe() {
        // Two searcher threads route while a flipper thread toggles a
        // resource: every observed outcome must be one of the two legal
        // states (λ0 busy or free), never a torn hybrid.
        let net = chain();
        let state = ResidualState::new(&net);
        let link = LinkId::new(0);
        let lam = Wavelength::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let mut scratch = SearchScratch::for_state(&state);
                    for _ in 0..200 {
                        let p = state.route_optimal(&mut scratch, 0.into(), 2.into());
                        let cost = p.expect("λ1 always free").cost();
                        assert!(
                            cost == Cost::new(20) || cost == Cost::new(24) || cost == Cost::new(23),
                            "cost {cost:?} must come from a legal mask state"
                        );
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..200 {
                    if state.try_acquire(link, lam) == AcquireOutcome::Acquired {
                        state.release(link, lam);
                    }
                }
            });
        });
        assert!(!state.is_busy(link, lam) || state.busy_count() <= 1);
    }
}
