//! Dijkstra's algorithm over the CSR search graphs.
//!
//! Theorem 1's running time rests on Dijkstra with a Fibonacci heap
//! (`O(m' + n'·log n')` on a graph with `n'` nodes and `m'` edges); the CFZ
//! baseline of Section III-C is charged with an array-scan Dijkstra
//! (`O(n'² + m')`). Both are the same relaxation loop over a different
//! [`IndexedPriorityQueue`], so the full-tree runs implement it once,
//! generically, and dispatch on [`HeapKind`] for run-time selection.
//!
//! Point-to-point queries (one request's route) use one targeted
//! kernel, [`DijkstraWorkspace::run_guided_to`]: goal-directed by an
//! optional consistent [`Potential`] (A*), canonical in its ties, and
//! queued on a lazy frontier of packed integer keys that it stops
//! reading as soon as the target's label is final. The heap-generic
//! decrease-key loop it replaced is its test oracle,
//! [`reference::guided_search`](crate::reference::guided_search): the
//! path is the same with or without the potential, and the same as the
//! oracle's through any heap. A [`GadgetLayout`] tells it where the
//! search graph's uniform conversion gadgets lie, so it queues each
//! gadget's `Y_v` block once and skips the rows of its `X_v` nodes that
//! can no longer improve a label; [`NoGadgets`] searches edge by edge.
//!
//! [`IndexedPriorityQueue`]: heaps::IndexedPriorityQueue
//! [`DijkstraWorkspace::run_guided_to`]: crate::dijkstra::DijkstraWorkspace::run_guided_to

use crate::csr::{CsrGraph, EdgeMask, EdgeRef};
use crate::Cost;
use heaps::{ArrayHeap, BinaryHeap, FibonacciHeap, HeapKind, IndexedPriorityQueue};
use std::cmp::Reverse;

/// Operation counters from one search-kernel run, for the experiment
/// tables and the observability layer.
///
/// The queue-operation counts are derived inside the relaxation loop
/// rather than by instrumenting a queue: an improvement on a node whose
/// tentative distance was still infinite is a `push`, an improvement on
/// a finite one is a `decrease_key`, whether the queue lowers the key in
/// place (full-tree runs) or queues a fresh entry beside the stale one
/// (targeted runs). Counting here keeps every heap implementation
/// untouched and costs one branch that the optimizer folds into the
/// existing infinity check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchStats {
    /// Nodes settled: pops of a node's final label. A targeted run skips
    /// stale frontier entries uncounted, and counts the pop it stops at
    /// without relaxing its edges.
    pub settled: usize,
    /// Edges relaxed (out-edges scanned from settled nodes).
    pub relaxed: usize,
    /// Edges skipped because their dense index was set in the mask.
    pub masked_skips: usize,
    /// First labels: improvements on nodes whose distance was still
    /// infinite, plus the source. It counts labels, not frontier
    /// entries: a targeted run queues one entry for a whole uniform
    /// gadget's `Y_v` block (see [`GadgetLayout`]) and still counts a
    /// push for each of its nodes it labels first.
    pub pushes: usize,
    /// Improvements on nodes that already held a finite label. A
    /// full-tree run lowers the queued key; a targeted run queues one
    /// more entry and skips the stale one when it pops.
    pub decrease_keys: usize,
    /// Per-target potentials computed for goal-directed searches. Their
    /// own search work is not counted in the fields above, which meter
    /// the requests' searches only.
    pub potential_fills: usize,
}

impl SearchStats {
    /// Adds `other`'s counters into `self` (used for per-workspace
    /// running totals).
    pub fn accumulate(&mut self, other: &SearchStats) {
        self.settled += other.settled;
        self.relaxed += other.relaxed;
        self.masked_skips += other.masked_skips;
        self.pushes += other.pushes;
        self.decrease_keys += other.decrease_keys;
        self.potential_fills += other.potential_fills;
    }
}

/// A shortest-path tree: per-node distance and parent pointers.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    /// `dist[v]` — cost of the shortest path from the source
    /// ([`Cost::INFINITY`] when unreachable).
    pub dist: Vec<Cost>,
    /// `parent[v] = (u, edge_index)` — the tree edge entering `v`.
    pub parent: Vec<Option<(usize, usize)>>,
    /// The source node the tree is rooted at.
    pub source: usize,
    /// Operation counters.
    pub stats: SearchStats,
}

impl ShortestPathTree {
    /// The aux-node path from the root to `target` (inclusive), or `None`
    /// when unreachable.
    pub fn path_to(&self, target: usize) -> Option<Vec<usize>> {
        if self.dist[target].is_infinite() {
            return None;
        }
        let mut path = vec![target];
        let mut at = target;
        while let Some((prev, _)) = self.parent[at] {
            path.push(prev);
            at = prev;
        }
        path.reverse();
        debug_assert_eq!(path[0], self.source);
        Some(path)
    }
}

/// A lower bound on the remaining cost from a node to a targeted
/// search's target: the potential `h` of goal-directed (A*) search.
///
/// Targeted runs queue each node under `d(v) + h(v)`. The bound must be
/// *consistent*: `h(u) ≤ c(u, v) + h(v)` for every edge the search may
/// take. Then the run is Dijkstra on the non-negative reduced costs
/// `c(u, v) + h(v) − h(u)`, so its distances and its path are exactly
/// those of the unguided run. `Cost::INFINITY` means the target cannot
/// be reached from the node at all; such nodes are never queued.
pub trait Potential {
    /// `h(node)`.
    fn at(&self, node: usize) -> Cost;
}

/// The zero potential: a targeted run without goal direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unguided;

impl Potential for Unguided {
    #[inline]
    fn at(&self, _node: usize) -> Cost {
        Cost::ZERO
    }
}

/// One uniform conversion gadget `G_v` of a search graph, as a
/// [`GadgetLayout`] reports it: the `Y_v` ids `y_start..y_end` (the
/// `X_v` ids lie just below them) and the one cost of every conversion.
///
/// The layout vouches for the shape Theorem 1's construction gives a
/// node with a `Free` or finite `Uniform(c)` converter: the row of each
/// `X_v` node holds one edge to every `Y_v` node in id order (cost 0 to
/// its identity target, the `Y_v` node of its own wavelength, and `cost`
/// to the others) and at most one more edge, of cost 0 to a sink that
/// every `X_v` row shares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformGadget {
    /// The gadget's slot in the run's gadget state, below
    /// [`GadgetLayout::gadget_count`].
    pub index: usize,
    /// First `Y_v` id, one past the last `X_v` id.
    pub y_start: usize,
    /// One past the last `Y_v` id.
    pub y_end: usize,
    /// The cost `c` of every conversion `λ → λ' ≠ λ`; finite.
    pub cost: Cost,
}

/// Where a search graph's uniform conversion gadgets lie, for
/// [`DijkstraWorkspace::run_guided_to`]. The targeted run's potential
/// must take one value on all nodes of a gadget (a per-physical-node
/// bound does).
pub trait GadgetLayout {
    /// How many gadget slots a run keeps state for.
    fn gadget_count(&self) -> usize;
    /// The uniform gadget of `node` when `node` is one of its `X_v`
    /// nodes or its first `Y_v` node, the nodes the search treats apart;
    /// `None` for any other node (a later `Y_v` node may answer either
    /// way).
    fn gadget_of(&self, node: usize) -> Option<UniformGadget>;
    /// The place in the row of `x`, an `X_v` node of `gadget`, of its
    /// identity edge; `None` when `Y_v` lacks `x`'s wavelength.
    fn identity_slot(&self, gadget: &UniformGadget, x: usize) -> Option<usize>;
}

/// The layout with no gadgets: every row is searched edge by edge.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoGadgets;

impl GadgetLayout for NoGadgets {
    #[inline]
    fn gadget_count(&self) -> usize {
        0
    }

    #[inline]
    fn gadget_of(&self, _node: usize) -> Option<UniformGadget> {
        None
    }

    #[inline]
    fn identity_slot(&self, _gadget: &UniformGadget, _x: usize) -> Option<usize> {
        None
    }
}

/// What a targeted run knows of one gadget once an `X_v` node of it has
/// settled.
#[derive(Debug, Clone, Copy, Default)]
struct GadgetRun {
    /// The run that reached the gadget; any other value: not yet reached.
    run: u32,
    /// Hop count of the gadget's first settled `X_v` node.
    hops: u32,
    /// Its distance.
    dist: Cost,
    /// The `Y_v` block's frontier entry while it is queued, else 0 (no
    /// block entry has zero hops).
    batch: u128,
    /// Whether the first `X_v` node's whole row was offered: no edge of
    /// it was masked.
    whole: bool,
}

/// Reusable arenas for repeated Dijkstra runs.
///
/// Running `n` searches over the shared all-pairs auxiliary graph
/// (Corollary 1) allocates `O(kn)` vectors per search when done
/// naively. A workspace keeps those arenas — distance, parent, hop
/// count and the targeted kernel's frontier and gadget state — alive
/// across runs and
/// records which nodes a run wrote, so the next run resets only those:
/// a run costs what it touches, not the size of the graph. The arenas
/// are as long as the largest graph searched so far; one workspace
/// serves graphs of different sizes (`G_all` and the per-wavelength
/// graphs) without refilling them. After the first run on a graph of
/// its size a targeted search runs allocation-free, and so does a
/// full-tree one with a reused heap (see [`IndexedPriorityQueue::clear`]).
///
/// Two kernels share the arenas:
///
/// * Full-tree runs ([`run`](Self::run), [`run_masked`](Self::run_masked))
///   are generic over the caller's [`IndexedPriorityQueue`] and key it
///   by cost alone, with decrease-key: Theorem 1's Fibonacci heap, the
///   CFZ baseline's array scan and the E9 heap ablation all run here.
///   Among equal-cost parents the first relaxation to reach a node's
///   final distance wins, so ties follow the heap's settle order.
/// * Targeted runs ([`run_guided_to`](Self::run_guided_to), with or
///   without a potential) queue on the workspace's own frontier, a
///   binary heap of packed integer keys without decrease-key, and stop
///   once the target's label is final. They are *canonical*: the path
///   they leave depends only on the graph, the mask and the endpoints,
///   never on the potential (see `run_guided_to`).
///
/// The computed tree is read in place via [`dist`](Self::dist) /
/// [`parent`](Self::parent), or materialized with
/// [`to_tree`](Self::to_tree) / [`into_tree`](Self::into_tree).
///
/// # Examples
///
/// ```
/// use heaps::{FibonacciHeap, IndexedPriorityQueue};
/// use wdm_core::{dijkstra::DijkstraWorkspace, AuxiliaryGraph, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 1.into());
/// let mut ws = DijkstraWorkspace::new();
/// let mut queue = FibonacciHeap::with_capacity(aux.graph().node_count());
/// ws.run(aux.graph(), aux.super_source().unwrap(), &mut queue);
/// assert_eq!(ws.dist()[aux.super_sink().unwrap()], wdm_core::Cost::new(4));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DijkstraWorkspace {
    dist: Vec<Cost>,
    parent: Vec<Option<(usize, usize)>>,
    /// Edge count of each node's current label, zeroed when the node
    /// settles (targeted runs only; meaningful where `dist` is finite).
    hops: Vec<u32>,
    /// The targeted kernel's queue: `frontier_entry`s, smallest first.
    frontier: std::collections::BinaryHeap<Reverse<u128>>,
    /// Nodes whose `dist`/`parent` the last run wrote. Every other
    /// entry is infinite/`None`, so a reset clears only these.
    touched: Vec<usize>,
    /// Per gadget of a [`GadgetLayout`], what the current targeted run
    /// knows of it; sized by [`with_gadgets`](Self::with_gadgets).
    gadgets: Vec<GadgetRun>,
    /// The current targeted run's stamp in `gadgets`.
    run: u32,
    /// Node count of the last run's graph.
    len: usize,
    stats: SearchStats,
    totals: SearchStats,
    source: usize,
}

/// The low 32 bits of a `frontier_entry`: a node id, or shifted down,
/// a hop count.
const LOW_32: u128 = 0xFFFF_FFFF;

/// A targeted run's frontier entry for a label of `node`: its key
/// `d(node) + h(node)` in the high 64 bits, then its hop count, then the
/// node, so that comparing two entries compares `(key, hops, node)`.
/// A finite key is below `u64::MAX`, and node ids and hop counts fit in
/// 32 bits (`CsrBuilder` asserts the node count does; a hop count is at
/// most the node count).
#[inline]
fn frontier_entry(key: u64, hops: u32, node: usize) -> u128 {
    debug_assert!(u32::try_from(node).is_ok(), "node ids are u32-encoded");
    (u128::from(key) << 64) | (u128::from(hops) << 32) | node as u128
}

/// What one targeted run reads and never writes.
struct Run<'a, P> {
    graph: &'a CsrGraph,
    mask: Option<&'a EdgeMask>,
    target: usize,
    potential: &'a P,
}

impl DijkstraWorkspace {
    /// An empty workspace; arenas grow on first [`run`](Self::run).
    pub fn new() -> Self {
        Self::default()
    }

    /// A workspace with arenas pre-sized for an `n`-node graph.
    pub fn with_capacity(n: usize) -> Self {
        DijkstraWorkspace {
            dist: Vec::with_capacity(n),
            parent: Vec::with_capacity(n),
            hops: Vec::with_capacity(n),
            frontier: std::collections::BinaryHeap::with_capacity(n),
            touched: Vec::with_capacity(n),
            gadgets: Vec::new(),
            run: 0,
            len: 0,
            stats: SearchStats::default(),
            totals: SearchStats::default(),
            source: 0,
        }
    }

    /// This workspace with state for `gadgets` uniform gadgets, so that
    /// targeted runs over a [`GadgetLayout`] of that many allocate
    /// nothing (one 48-byte entry per gadget: one per physical node of
    /// an auxiliary graph).
    pub fn with_gadgets(mut self, gadgets: usize) -> Self {
        self.gadgets = vec![GadgetRun::default(); gadgets];
        self
    }

    /// Starts a targeted run's gadget state: a fresh stamp, and state
    /// for `gadgets` slots (grown here only for a workspace not built
    /// [`with_gadgets`](Self::with_gadgets)).
    fn start_gadgets(&mut self, gadgets: usize) {
        if self.gadgets.len() < gadgets {
            self.gadgets.resize(gadgets, GadgetRun::default());
        }
        self.run = self.run.wrapping_add(1);
        if self.run == 0 {
            // The stamp wrapped: clear the states it could alias.
            self.gadgets.fill(GadgetRun::default());
            self.run = 1;
        }
    }

    /// Resets the arenas for a graph of `n` nodes: clears the entries
    /// the last run touched and the frontier, and grows the arenas if
    /// `n` exceeds them.
    fn reset(&mut self, n: usize) {
        for &v in &self.touched {
            self.dist[v] = Cost::INFINITY;
            self.parent[v] = None;
        }
        self.touched.clear();
        self.frontier.clear();
        if self.dist.len() < n {
            self.dist.resize(n, Cost::INFINITY);
            self.parent.resize(n, None);
            self.hops.resize(n, 0);
            self.frontier.reserve(n);
        }
        self.len = n;
        self.stats = SearchStats::default();
    }

    /// Records `v`'s first finite label: a `push`, and an entry the next
    /// [`reset`](Self::reset) must clear.
    fn touch(&mut self, v: usize) {
        self.touched.push(v);
        self.stats.pushes += 1;
    }

    /// Runs Dijkstra from `source`, reusing this workspace's arenas and
    /// the caller's `queue` (cleared here before use).
    ///
    /// The result is identical to [`dijkstra`] with the same heap type:
    /// arena reuse changes where the vectors live, never the sequence of
    /// queue operations, so distances, parents, and stats are
    /// bit-for-bit the same.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of range or `queue` was created with a
    /// capacity below the graph's node count (the indexed heaps address
    /// items `0..capacity` and do not grow).
    pub fn run<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
    ) {
        self.run_inner(graph, source, queue, None);
    }

    /// Runs Dijkstra from `source`, skipping edges whose dense index is
    /// set in `mask`.
    ///
    /// Equivalent to deleting the masked edges and running
    /// [`run`](Self::run): the relaxation visits the surviving edges in
    /// the same order either way, so distances and parents match a
    /// physically rebuilt subgraph with identical edge layout.
    ///
    /// # Panics
    ///
    /// Panics as [`run`](Self::run) does, and additionally if
    /// `mask.len()` differs from the graph's edge count.
    pub fn run_masked<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: &EdgeMask,
    ) {
        self.run_inner(graph, source, queue, Some(mask));
    }

    /// Goal-directed, canonical search from `source` to `target`,
    /// skipping edges set in `mask` (if any), with `layout`'s uniform
    /// conversion gadgets searched block by block ([`NoGadgets`]: edge
    /// by edge).
    ///
    /// Labels are compared as `(cost, hops)` pairs: among equal-cost
    /// paths the one with fewer edges wins, and a node keeps, among the
    /// in-edges that give it exactly its label, the one with the
    /// smallest dense edge index. Each label of a node `v` is queued as
    /// one frontier entry `(d(v) + h(v), hops(v), v)`, packed into a
    /// `u128`, where `h` is `potential`; nodes with `h = ∞` are never
    /// queued. An improvement queues a fresh entry instead of lowering a
    /// key, and an entry that no longer matches its node's label is
    /// skipped when it pops. The run stops at the first live entry whose
    /// `(key, hops)` is not below the target's: that pop fixes a final
    /// label and is counted as settled, as the decrease-key loop counted
    /// its pop of the target, but nothing is relaxed from it.
    ///
    /// Why the result is exact and canonical, for any consistent `h`
    /// (the zero potential included):
    ///
    /// * Every edge has the positive reduced weight
    ///   `(c + h(v) − h(u), 1)`, so nodes settle in increasing label
    ///   order of a Dijkstra run on reduced weights: `dist[target]` is
    ///   the exact cheapest cost, as with the unguided kernel.
    /// * A tight in-edge of a node (one that gives it exactly its label)
    ///   comes from a tail with a strictly smaller key, so every such
    ///   tail is settled — and has offered its edge — before the node
    ///   itself. When the run stops, every node on the target's parent
    ///   chain therefore holds the smallest-index tight in-edge of all
    ///   tight in-edges in the graph: a function of the graph, the mask
    ///   and the endpoints alone.
    /// * The early stop loses nothing: the frontier pops entries in
    ///   increasing `(key, hops)` order, and every edge raises
    ///   `(key, hops)` strictly, so no entry popped at or past the
    ///   target's `(key, hops)` can lower the target's label or be the
    ///   tail of a tight in-edge of it or of any node on its parent
    ///   chain: those tails all lie strictly below and are settled.
    /// * Labels strictly decrease along parent pointers, so the parent
    ///   walk terminates even where zero-cost edges form cycles.
    ///
    /// A uniform gadget (see [`UniformGadget`]) is searched with fewer
    /// frontier entries and fewer relaxations, and the run stays exactly
    /// the edge-by-edge one: the same labels, parents and path, and the
    /// same `settled`, `pushes` and `decrease_keys`. Say its first
    /// `X_v` node settles with label `(d, h)`.
    ///
    /// * *The batch.* Its row offers every `Y_v` node `(d + c, h + 1)`,
    ///   bar its identity target (`(d, h + 1)`, which equals it when
    ///   `c = 0`). The labels are written edge by edge as ever, but the
    ///   nodes it gives exactly `(d + c, h + 1)` share one frontier
    ///   entry at the block's first id. Their own entries would have
    ///   been `(d + c + h(v), h + 1, y)`: all `Y_v` nodes share the
    ///   potential `h(v)` and have contiguous ids, so those entries pop
    ///   one after another, in id order. No other node's entry of equal
    ///   `(key, hops)` has an id inside the block, and settling a `Y_v`
    ///   node only queues strictly larger entries. So when the block
    ///   entry pops, the run settles in id order every `Y_v` node whose
    ///   label is still exactly `(d + c, h + 1)`. A node improved since
    ///   was queued on its own, and the block skips it, just as its
    ///   stale entry would have been skipped. The stop rule compares the
    ///   block entry with the target's once, before its first live node:
    ///   the comparison that node's own entry would have made, since the
    ///   comparison reads `(key, hops)` alone and the later nodes' own
    ///   entries could only have met a target label set by the block's
    ///   relaxations, strictly above it. `settled` counts the same pops.
    ///   If the batch labels the target, the target's `(key, hops)` is
    ///   set just as an edge-by-edge relaxation sets it.
    /// * *Dominated rows.* A later `X_v` node settles with
    ///   `(d', h') ≥ (d, h)`, since all `X_v` nodes share `h(v)`. If the
    ///   inequality is strict, each of its conversion candidates
    ///   `(d' + c, h' + 1)` is strictly worse than the `(d + c, h + 1)`
    ///   the first row already offered, and so is its sink-tap candidate
    ///   `(d', h' + 1)` against the first row's `(d, h + 1)`: neither
    ///   can change a label or a parent. Only its identity edge, of cost
    ///   0, is relaxed. With equal `(d, h)` the whole row is relaxed,
    ///   which leaves the smallest-index tie-break untouched.
    /// * *Masks.* A gadget whose first row had a masked edge did not
    ///   offer that edge's candidate, so its later rows are relaxed edge
    ///   by edge. Its batch stays exact: the argument above never reads
    ///   the mask.
    ///
    /// The path is the one [`reference::guided_search`] leaves with any
    /// heap, the decrease-key loop this kernel replaced.
    ///
    /// `dist[target]` and the parent chain behind it are final. Entries
    /// of nodes not settled at cut-off are unspecified; read only the
    /// target's path after a targeted run.
    ///
    /// [`reference::guided_search`]: crate::reference::guided_search
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` is out of range, or if
    /// `mask.len()` differs from the graph's edge count.
    // wdm-lint: hot-path
    pub fn run_guided_to<P: Potential, L: GadgetLayout>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        mask: Option<&EdgeMask>,
        target: usize,
        potential: &P,
        layout: &L,
    ) {
        let n = graph.node_count();
        assert!(source < n, "source {source} out of range");
        assert!(target < n, "target {target} out of range");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), graph.edge_count(), "one mask bit per edge");
        }
        self.reset(n);
        self.start_gadgets(layout.gadget_count());
        self.source = source;
        let run = Run {
            graph,
            mask,
            target,
            potential,
        };

        // The target's `(key, hops)` as the smallest entry that carries
        // them; above every entry while the target has no label.
        let mut stop_at = u128::MAX;
        // `Cost::value` by path: wdm-lint's call graph would resolve a
        // bare `.value()` to every workspace method of that name.
        if let Some(h_source) = Cost::value(potential.at(source)) {
            self.dist[source] = Cost::ZERO;
            self.hops[source] = 0;
            self.touch(source);
            if source == target {
                stop_at = frontier_entry(h_source, 0, 0);
            }
            self.frontier
                .push(Reverse(frontier_entry(h_source, 0, source)));
        }
        while let Some(Reverse(entry)) = self.frontier.pop() {
            // wdm-lint: cast-checked: masked to the low 32 bits, a node id
            let u = (entry & LOW_32) as usize;
            // wdm-lint: cast-checked: masked to 32 bits, the hop count
            let hops_u = ((entry >> 32) & LOW_32) as u32;
            let gadget = layout.gadget_of(u);
            if let Some(g) = gadget.filter(|g| u == g.y_start) {
                if self.block_queued(&g, entry) {
                    if self.settle_block(&run, &g, entry, &mut stop_at) {
                        break;
                    }
                    continue;
                }
            }
            // A node's first entry to pop carries its label; settling
            // zeroes its hop count, which no later entry of it can carry
            // (only the source's single entry has zero hops). A settled
            // label is final, and a zero hop count keeps it so: no
            // candidate is cheaper, and every one has at least one hop.
            if hops_u != self.hops[u] {
                continue;
            }
            self.stats.settled += 1;
            // The target's label is final once no live entry lies below
            // its `(key, hops)`.
            if entry >= stop_at {
                break;
            }
            self.hops[u] = 0;
            match gadget {
                Some(g) if u < g.y_start => {
                    self.settle_in_node(&run, layout, &g, u, hops_u, &mut stop_at);
                }
                _ => self.relax_row(&run, u, hops_u, &mut stop_at),
            }
        }
        self.totals.accumulate(&self.stats);
    }

    /// Whether `entry` is the queued block entry of `g`'s `Y_v` block
    /// in this run.
    #[inline(always)]
    fn block_queued(&self, g: &UniformGadget, entry: u128) -> bool {
        let state = &self.gadgets[g.index];
        state.run == self.run && state.batch != 0 && state.batch == entry
    }

    /// Offers `edge`, leaving `u` (label `(du, next − 1)`), to its head:
    /// writes the head's label and parent when the candidate improves it
    /// and returns the head's key for the caller to queue, or keeps the
    /// smaller edge index on a tie.
    #[inline(always)]
    fn offer<P: Potential>(
        &mut self,
        run: &Run<'_, P>,
        (u, du, next): (usize, Cost, u32),
        edge: EdgeRef,
        stop_at: &mut u128,
    ) -> Option<u64> {
        self.stats.relaxed += 1;
        let v = edge.target;
        let candidate = du + edge.cost;
        let key = Cost::value(candidate + run.potential.at(v))?;
        // An infinite `dv` loses to any finite candidate, so a stale hop
        // count beside it is never read.
        let dv = self.dist[v];
        if (candidate, next) < (dv, self.hops[v]) {
            if dv.is_infinite() {
                self.touch(v);
            } else {
                self.stats.decrease_keys += 1;
            }
            self.dist[v] = candidate;
            self.hops[v] = next;
            self.parent[v] = Some((u, edge.index));
            if v == run.target {
                *stop_at = frontier_entry(key, next, 0);
            }
            return Some(key);
        }
        if (candidate, next) == (dv, self.hops[v])
            && self.parent[v].is_some_and(|(_, e)| edge.index < e)
        {
            self.parent[v] = Some((u, edge.index));
        }
        None
    }

    /// Whether `edge` is masked; counts the skip.
    #[inline(always)]
    fn masked(&mut self, mask: Option<&EdgeMask>, edge: &EdgeRef) -> bool {
        let masked = mask.is_some_and(|m| m.is_set(edge.index));
        if masked {
            self.stats.masked_skips += 1;
        }
        masked
    }

    /// Relaxes `edge` unless it is masked, queueing its head if the
    /// edge improves it.
    #[inline(always)]
    fn relax_edge<P: Potential>(
        &mut self,
        run: &Run<'_, P>,
        tail: (usize, Cost, u32),
        edge: EdgeRef,
        stop_at: &mut u128,
    ) {
        if self.masked(run.mask, &edge) {
            return;
        }
        if let Some(key) = self.offer(run, tail, edge, stop_at) {
            self.frontier
                .push(Reverse(frontier_entry(key, tail.2, edge.target)));
        }
    }

    /// Relaxes every edge of the settled node `u` (`hops_u` hops).
    #[inline(always)]
    fn relax_row<P: Potential>(
        &mut self,
        run: &Run<'_, P>,
        u: usize,
        hops_u: u32,
        stop_at: &mut u128,
    ) {
        let tail = (u, self.dist[u], hops_u.saturating_add(1));
        for edge in run.graph.out_edges(u) {
            self.relax_edge(run, tail, edge, stop_at);
        }
    }

    /// Settles `x`, an `X_v` node of the uniform gadget `g`: the first
    /// one relaxes its whole row and queues the `Y_v` nodes it gives the
    /// conversion label as one block; a later one with a strictly worse
    /// label relaxes only its identity edge (see `run_guided_to`).
    #[inline(always)]
    fn settle_in_node<P: Potential, L: GadgetLayout>(
        &mut self,
        run: &Run<'_, P>,
        layout: &L,
        g: &UniformGadget,
        x: usize,
        hops_x: u32,
        stop_at: &mut u128,
    ) {
        let (dx, next) = (self.dist[x], hops_x.saturating_add(1));
        let state = self.gadgets[g.index];
        if state.run == self.run {
            if state.whole && (dx, hops_x) > (state.dist, state.hops) {
                if let Some(slot) = layout.identity_slot(g, x) {
                    let edge = run.graph.out_edge(x, slot);
                    debug_assert_eq!(edge.cost, Cost::ZERO, "the identity edge is free");
                    self.relax_edge(run, (x, dx, next), edge, stop_at);
                }
            } else {
                self.relax_row(run, x, hops_x, stop_at);
            }
            return;
        }
        let mut block_key = None;
        let mut whole = true;
        for edge in run.graph.out_edges(x) {
            if self.masked(run.mask, &edge) {
                whole = false;
                continue;
            }
            let Some(key) = self.offer(run, (x, dx, next), edge, stop_at) else {
                continue;
            };
            if edge.cost == g.cost && (g.y_start..g.y_end).contains(&edge.target) {
                debug_assert!(
                    block_key.is_none_or(|k| k == key),
                    "a gadget's Y_v nodes share one potential"
                );
                block_key = Some(key);
            } else {
                self.frontier
                    .push(Reverse(frontier_entry(key, next, edge.target)));
            }
        }
        let batch = block_key.map_or(0, |key| frontier_entry(key, next, g.y_start));
        if batch != 0 {
            self.frontier.push(Reverse(batch));
        }
        self.gadgets[g.index] = GadgetRun {
            run: self.run,
            hops: hops_x,
            dist: dx,
            batch,
            whole,
        };
    }

    /// Settles the queued `Y_v` block of gadget `g` (its frontier entry
    /// `entry` just popped): in id order, every node whose label is
    /// still the block's, each relaxed edge by edge. Returns `true` when
    /// the run stops at the block's first live node.
    #[inline(always)]
    fn settle_block<P: Potential>(
        &mut self,
        run: &Run<'_, P>,
        g: &UniformGadget,
        entry: u128,
        stop_at: &mut u128,
    ) -> bool {
        let state = &mut self.gadgets[g.index];
        state.batch = 0;
        let label = (state.dist + g.cost, state.hops.saturating_add(1));
        let mut first = true;
        for y in g.y_start..g.y_end {
            if (self.dist[y], self.hops[y]) != label {
                continue;
            }
            self.stats.settled += 1;
            if first {
                first = false;
                if entry >= *stop_at {
                    return true;
                }
            }
            self.hops[y] = 0;
            self.relax_row(run, y, label.1, stop_at);
        }
        false
    }

    // wdm-lint: hot-path
    fn run_inner<Q: IndexedPriorityQueue<Cost>>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        queue: &mut Q,
        mask: Option<&EdgeMask>,
    ) {
        let n = graph.node_count();
        assert!(source < n, "source {source} out of range");
        assert!(
            queue.capacity() >= n,
            "queue capacity {} below node count {n}",
            queue.capacity()
        );
        if let Some(mask) = mask {
            assert_eq!(mask.len(), graph.edge_count(), "one mask bit per edge");
        }
        self.reset(n);
        self.source = source;
        queue.clear();

        self.dist[source] = Cost::ZERO;
        self.touch(source);
        queue.push(source, Cost::ZERO);

        while let Some((u, du)) = queue.pop_min() {
            debug_assert_eq!(du, self.dist[u]);
            self.stats.settled += 1;
            for edge in graph.out_edges(u) {
                if mask.is_some_and(|m| m.is_set(edge.index)) {
                    self.stats.masked_skips += 1;
                    continue;
                }
                self.stats.relaxed += 1;
                let v = edge.target;
                // A settled node is never improved: its distance is at
                // most `du`, and costs are non-negative.
                let candidate = du + edge.cost;
                if candidate < self.dist[v] {
                    // Finite old distance means v is already queued, so
                    // the improvement is an effective decrease-key; an
                    // infinite one means this is v's first insertion.
                    if self.dist[v].is_infinite() {
                        self.touch(v);
                    } else {
                        self.stats.decrease_keys += 1;
                    }
                    self.dist[v] = candidate;
                    self.parent[v] = Some((u, edge.index));
                    queue.push_or_decrease(v, candidate);
                }
            }
        }
        self.totals.accumulate(&self.stats);
    }

    /// Distances from the last run's source.
    pub fn dist(&self) -> &[Cost] {
        &self.dist[..self.len]
    }

    /// Parent pointers from the last run.
    pub fn parent(&self) -> &[Option<(usize, usize)>] {
        &self.parent[..self.len]
    }

    /// Operation counters from the last run.
    pub fn stats(&self) -> SearchStats {
        self.stats
    }

    /// Running totals accumulated over every run since the last
    /// [`take_totals`](Self::take_totals).
    ///
    /// The totals are plain workspace fields bumped alongside the
    /// per-run counters — no atomics on the search path. A metrics
    /// flush drains them with `take_totals` and feeds the deltas into
    /// shared `wdm-obs` counters at whatever cadence it likes.
    pub fn totals(&self) -> SearchStats {
        self.totals
    }

    /// Returns the running totals and resets them to zero.
    pub fn take_totals(&mut self) -> SearchStats {
        std::mem::take(&mut self.totals)
    }

    /// The source of the last run.
    pub fn source(&self) -> usize {
        self.source
    }

    /// Clones the last run's result into an owned tree (the workspace
    /// stays usable).
    pub fn to_tree(&self) -> ShortestPathTree {
        ShortestPathTree {
            dist: self.dist().to_vec(),
            parent: self.parent().to_vec(),
            source: self.source,
            stats: self.stats,
        }
    }

    /// Moves the last run's result into an owned tree without copying.
    pub fn into_tree(mut self) -> ShortestPathTree {
        self.dist.truncate(self.len);
        self.parent.truncate(self.len);
        ShortestPathTree {
            dist: self.dist,
            parent: self.parent,
            source: self.source,
            stats: self.stats,
        }
    }
}

/// Runs Dijkstra from `source` using heap `Q`.
///
/// # Panics
///
/// Panics if `source` is out of range.
///
/// # Examples
///
/// ```
/// use heaps::FibonacciHeap;
/// use wdm_core::{AuxiliaryGraph, dijkstra, WdmNetwork};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(2, [(0, 1)]);
/// let net = WdmNetwork::builder(g, 1).link_wavelengths(0, [(0, 4)]).build()?;
/// let aux = AuxiliaryGraph::for_pair(&net, 0.into(), 1.into());
/// let tree = dijkstra::<FibonacciHeap<_>>(aux.graph(), aux.super_source().unwrap());
/// assert_eq!(tree.dist[aux.super_sink().unwrap()], wdm_core::Cost::new(4));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
pub fn dijkstra<Q: IndexedPriorityQueue<Cost>>(
    graph: &CsrGraph,
    source: usize,
) -> ShortestPathTree {
    let mut ws = DijkstraWorkspace::with_capacity(graph.node_count());
    let mut queue = Q::with_capacity(graph.node_count());
    ws.run(graph, source, &mut queue);
    ws.into_tree()
}

/// Runs Dijkstra with a run-time-selected heap.
pub fn dijkstra_with(kind: HeapKind, graph: &CsrGraph, source: usize) -> ShortestPathTree {
    match kind {
        HeapKind::Fibonacci => dijkstra::<FibonacciHeap<Cost>>(graph, source),
        HeapKind::Binary => dijkstra::<BinaryHeap<Cost>>(graph, source),
        HeapKind::Array => dijkstra::<ArrayHeap<Cost>>(graph, source),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrBuilder;

    /// Small weighted digraph with a known shortest-path structure.
    fn diamond() -> CsrGraph {
        //      1
        //   /     \
        //  0       3 — 4
        //   \     /
        //      2
        let mut b = CsrBuilder::new(5);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 2, Cost::new(4));
        b.add_edge(1, 3, Cost::new(10));
        b.add_edge(2, 3, Cost::new(2));
        b.add_edge(3, 4, Cost::new(3));
        b.add_edge(1, 2, Cost::new(1));
        b.build()
    }

    /// A full-tree run from node 0 of `g` with `mask`'s edges left out.
    fn masked_tree(g: &CsrGraph, mask: &EdgeMask) -> ShortestPathTree {
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        ws.run_masked(g, 0, &mut queue, mask);
        ws.into_tree()
    }

    fn check_diamond(tree: &ShortestPathTree) {
        assert_eq!(tree.dist[0], Cost::ZERO);
        assert_eq!(tree.dist[1], Cost::new(1));
        assert_eq!(tree.dist[2], Cost::new(2)); // 0→1→2
        assert_eq!(tree.dist[3], Cost::new(4)); // 0→1→2→3
        assert_eq!(tree.dist[4], Cost::new(7));
        assert_eq!(tree.path_to(4), Some(vec![0, 1, 2, 3, 4]));
    }

    #[test]
    fn all_heaps_agree_on_diamond() {
        let g = diamond();
        for kind in HeapKind::ALL {
            let tree = dijkstra_with(kind, &g, 0);
            check_diamond(&tree);
        }
    }

    #[test]
    fn unreachable_nodes_stay_infinite() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(1));
        let g = b.build();
        let tree = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist[2], Cost::INFINITY);
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.parent[2], None);
    }

    #[test]
    fn zero_cost_cycles_terminate() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::ZERO);
        b.add_edge(1, 2, Cost::ZERO);
        b.add_edge(2, 0, Cost::ZERO);
        let g = b.build();
        let tree = dijkstra::<BinaryHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist, vec![Cost::ZERO; 3]);
        assert_eq!(tree.stats.settled, 3);
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut b = CsrBuilder::new(2);
        b.add_edge(0, 1, Cost::new(9));
        b.add_edge(0, 1, Cost::new(2));
        b.add_edge(0, 1, Cost::new(5));
        let g = b.build();
        let tree = dijkstra::<BinaryHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist[1], Cost::new(2));
        let (_, e) = g.edge(tree.parent[1].expect("has parent").1);
        assert_eq!(e.cost, Cost::new(2));
    }

    #[test]
    fn stats_count_work() {
        let g = diamond();
        let tree = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(tree.stats.settled, 5);
        assert_eq!(tree.stats.relaxed, 6);
        // Five first labels (the source included), and two improvements
        // on finite labels: 2 via 1, then 3 via 2.
        assert_eq!(tree.stats.pushes, 5);
        assert_eq!(tree.stats.decrease_keys, 2);
    }

    #[test]
    fn single_node_graph() {
        let g = CsrBuilder::new(1).build();
        let tree = dijkstra::<ArrayHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist, vec![Cost::ZERO]);
        assert_eq!(tree.path_to(0), Some(vec![0]));
    }

    #[test]
    fn workspace_reuse_matches_one_shot() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        // Several consecutive runs through the same arenas and heap must
        // reproduce the one-shot entry point exactly.
        for source in [0, 3, 0, 2, 4, 0] {
            ws.run(&g, source, &mut queue);
            let fresh = dijkstra::<FibonacciHeap<Cost>>(&g, source);
            assert_eq!(ws.dist(), &fresh.dist[..], "dist from {source}");
            assert_eq!(ws.parent(), &fresh.parent[..], "parent from {source}");
            assert_eq!(ws.stats(), fresh.stats, "stats from {source}");
            assert_eq!(ws.source(), source);
            let tree = ws.to_tree();
            assert_eq!(tree.dist, fresh.dist);
            assert_eq!(tree.path_to(4), fresh.path_to(4));
        }
    }

    #[test]
    fn masked_run_matches_rebuilt_subgraph() {
        let g = diamond();
        // Mask the 0→1 edge (index 0): shortest route to 4 becomes 0→2→3→4.
        let mut mask = EdgeMask::all_clear(g.edge_count());
        mask.set(0);
        let masked = masked_tree(&g, &mask);
        // Rebuild the same subgraph physically and compare dist values.
        let mut b = CsrBuilder::new(5);
        for (s, e) in g.edges().skip(1) {
            b.add_edge(s, e.target, e.cost);
        }
        let rebuilt = dijkstra::<FibonacciHeap<Cost>>(&b.build(), 0);
        assert_eq!(masked.dist, rebuilt.dist);
        assert_eq!(masked.dist[4], Cost::new(9));
        assert_eq!(masked.path_to(4), Some(vec![0, 2, 3, 4]));
        // An all-clear mask reproduces the unmasked run exactly.
        let clear = EdgeMask::all_clear(g.edge_count());
        let unmasked = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        let via_clear = masked_tree(&g, &clear);
        assert_eq!(via_clear.dist, unmasked.dist);
        assert_eq!(via_clear.parent, unmasked.parent);
        assert_eq!(via_clear.stats, unmasked.stats);
    }

    #[test]
    fn truncated_run_finalizes_target_path() {
        let g = diamond();
        let mask = EdgeMask::all_clear(g.edge_count());
        let full = masked_tree(&g, &mask);
        let mut ws = DijkstraWorkspace::new();
        for target in 0..g.node_count() {
            ws.run_guided_to(&g, 0, Some(&mask), target, &Unguided, &NoGadgets);
            assert_eq!(ws.dist()[target], full.dist[target], "dist to {target}");
            // Walk the parent chain: it must reproduce the full run's path.
            let mut path = vec![target];
            let mut at = target;
            while let Some((prev, _)) = ws.parent()[at] {
                path.push(prev);
                at = prev;
            }
            path.reverse();
            assert_eq!(Some(path), full.path_to(target), "path to {target}");
            assert!(ws.stats().settled <= full.stats.settled);
        }
    }

    #[test]
    fn heap_op_counters_balance() {
        let g = diamond();
        for kind in HeapKind::ALL {
            let tree = dijkstra_with(kind, &g, 0);
            let s = tree.stats;
            // Every reachable node is pushed once, the source included;
            // the two later improvements are decrease-keys, whatever the
            // heap.
            assert_eq!((s.pushes, s.decrease_keys), (5, 2), "{kind:?}");
            // Pops (settled) can never exceed insertions.
            assert!(s.settled <= s.pushes, "{kind:?}");
            assert_eq!(s.masked_skips, 0, "{kind:?}");
        }
    }

    #[test]
    fn masked_skips_count_suppressed_edges() {
        let g = diamond();
        // Mask 0→1 (index 0): it is scanned exactly once, from node 0.
        let mut mask = EdgeMask::all_clear(g.edge_count());
        mask.set(0);
        let tree = masked_tree(&g, &mask);
        assert_eq!(tree.stats.masked_skips, 1);
        let full = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(full.stats.masked_skips, 0);
    }

    #[test]
    fn workspace_totals_accumulate_and_drain() {
        let g = diamond();
        let mut ws = DijkstraWorkspace::new();
        let mut queue: FibonacciHeap<Cost> = FibonacciHeap::with_capacity(g.node_count());
        ws.run(&g, 0, &mut queue);
        let single = ws.stats();
        ws.run(&g, 0, &mut queue);
        let totals = ws.totals();
        assert_eq!(totals.settled, 2 * single.settled);
        assert_eq!(totals.relaxed, 2 * single.relaxed);
        assert_eq!(totals.pushes, 2 * single.pushes);
        let drained = ws.take_totals();
        assert_eq!(drained, totals);
        assert_eq!(ws.totals(), SearchStats::default());
        // Per-run stats are untouched by the drain.
        assert_eq!(ws.stats(), single);
    }

    #[test]
    fn run_to_matches_full_run_on_target() {
        let g = diamond();
        let full = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        let mut ws = DijkstraWorkspace::new();
        for target in 0..g.node_count() {
            ws.run_guided_to(&g, 0, None, target, &Unguided, &NoGadgets);
            assert_eq!(ws.dist()[target], full.dist[target], "dist to {target}");
            assert!(ws.stats().settled <= full.stats.settled);
        }
    }

    #[test]
    fn workspace_adapts_to_graph_size() {
        let small = CsrBuilder::new(1).build();
        let big = diamond();
        let mut ws = DijkstraWorkspace::with_capacity(2);
        let mut queue: BinaryHeap<Cost> = BinaryHeap::with_capacity(big.node_count());
        ws.run(&big, 0, &mut queue);
        assert_eq!(ws.dist().len(), big.node_count());
        ws.run(&small, 0, &mut queue);
        assert_eq!(ws.dist(), &[Cost::ZERO]);
        let tree = ws.into_tree();
        assert_eq!(tree.dist, vec![Cost::ZERO]);
    }

    #[test]
    fn touched_reset_keeps_every_run_exact_across_graph_sizes() {
        // Targeted and full-tree runs interleaved over two graph sizes
        // through one workspace: each run resets only what the previous
        // one wrote, and must still read exactly like a fresh run.
        let big = diamond();
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(5));
        b.add_edge(2, 0, Cost::new(1));
        let small = b.build();
        let mut ws = DijkstraWorkspace::new();
        let mut cost_heap: BinaryHeap<Cost> = BinaryHeap::with_capacity(big.node_count());
        for round in 0..3 {
            for (g, source) in [(&big, round), (&small, 2), (&big, 0), (&small, 0)] {
                let fresh = dijkstra::<BinaryHeap<Cost>>(g, source);
                ws.run(g, source, &mut cost_heap);
                assert_eq!(ws.dist(), &fresh.dist[..], "full run from {source}");
                assert_eq!(ws.parent(), &fresh.parent[..], "full run from {source}");
                let target = g.node_count() - 1;
                ws.run_guided_to(g, source, None, target, &Unguided, &NoGadgets);
                assert_eq!(ws.dist().len(), g.node_count());
                assert_eq!(ws.dist()[target], fresh.dist[target], "targeted run");
            }
        }
    }

    #[test]
    fn targeted_run_stops_once_the_target_label_is_final() {
        // 0 → 1 and 0 → 2 at equal cost: once 0 is settled, the
        // target's label is final. The next pop (node 1, with the
        // target's key and hops and a smaller id) stops the run; the
        // decrease-key loop settles 1 and then 2 as well.
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 2, Cost::new(1));
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        ws.run_guided_to(&g, 0, None, 2, &Unguided, &NoGadgets);
        assert_eq!(ws.dist()[2], Cost::new(1));
        assert_eq!(ws.parent()[2], Some((0, 1)));
        assert_eq!(ws.stats().settled, 2);
        assert_eq!(ws.stats().relaxed, 2);
        // A run to its own source stops at its first pop.
        ws.run_guided_to(&g, 0, None, 0, &Unguided, &NoGadgets);
        assert_eq!(ws.dist()[0], Cost::ZERO);
        assert_eq!((ws.stats().settled, ws.stats().relaxed), (1, 0));
    }

    /// One hand-built uniform gadget: `X_v` from `x_start`, `Y_v` as in
    /// [`UniformGadget`], and each `X_v` node's identity slot in `Y_v`.
    struct OneGadget {
        x_start: usize,
        gadget: UniformGadget,
        identity: Vec<Option<usize>>,
    }

    impl GadgetLayout for OneGadget {
        fn gadget_count(&self) -> usize {
            1
        }

        fn gadget_of(&self, node: usize) -> Option<UniformGadget> {
            (self.x_start..self.gadget.y_end)
                .contains(&node)
                .then_some(self.gadget)
        }

        fn identity_slot(&self, _gadget: &UniformGadget, x: usize) -> Option<usize> {
            self.identity[x - self.x_start]
        }
    }

    /// Adds a uniform gadget's `X_v` rows to `b`: `X_v` holds nodes
    /// `x_start..` on wavelengths `xs`, `Y_v` nodes `y_start..` on `ys`
    /// (both sorted), conversions cost `c`, and each row ends with a tap
    /// into `sink` when one is given. Returns the layout.
    fn add_gadget(
        b: &mut CsrBuilder,
        (x_start, xs): (usize, &[usize]),
        (y_start, ys): (usize, &[usize]),
        c: u64,
        sink: Option<usize>,
    ) -> OneGadget {
        for (i, &from) in xs.iter().enumerate() {
            for (j, &to) in ys.iter().enumerate() {
                let cost = if from == to { Cost::ZERO } else { Cost::new(c) };
                b.add_edge(x_start + i, y_start + j, cost);
            }
            if let Some(sink) = sink {
                b.add_edge(x_start + i, sink, Cost::ZERO);
            }
        }
        assert_eq!(y_start, x_start + xs.len(), "Y_v follows X_v");
        OneGadget {
            x_start,
            gadget: UniformGadget {
                index: 0,
                y_start,
                y_end: y_start + ys.len(),
                cost: Cost::new(c),
            },
            identity: xs.iter().map(|w| ys.iter().position(|y| y == w)).collect(),
        }
    }

    /// Runs `g` from `source` to `target` with `layout` and edge by edge
    /// on `mask`: every label, parent and counter must agree, bar fewer
    /// relaxations. Returns both workspaces.
    fn gadget_run_matches_edge_by_edge(
        g: &CsrGraph,
        layout: &OneGadget,
        source: usize,
        target: usize,
        mask: Option<&EdgeMask>,
    ) -> (DijkstraWorkspace, DijkstraWorkspace) {
        let mut ws = DijkstraWorkspace::new().with_gadgets(1);
        ws.run_guided_to(g, source, mask, target, &Unguided, layout);
        let mut plain = DijkstraWorkspace::new();
        plain.run_guided_to(g, source, mask, target, &Unguided, &NoGadgets);
        assert_eq!(ws.dist(), plain.dist(), "labels");
        assert_eq!(ws.parent(), plain.parent(), "parents");
        let (a, b) = (ws.stats(), plain.stats());
        assert_eq!(
            (a.settled, a.pushes, a.decrease_keys),
            (b.settled, b.pushes, b.decrease_keys),
            "counters"
        );
        assert!(a.relaxed <= b.relaxed, "{a:?} against {b:?}");
        (ws, plain)
    }

    #[test]
    fn tied_in_nodes_keep_the_smallest_index_parent() {
        // 0 → x1, x2 at cost 1 each: both X_v nodes tie at (1, 1), so
        // the later one relaxes its whole row. Node 7 settles first and
        // gives y5 the conversion label (1 + 2, 2) through edge 14; x1's
        // conversion edge to y5 (index 5) ties and must take it over,
        // and x2's (index 9) must not.
        let mut b = CsrBuilder::new(9);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 2, Cost::new(1));
        b.add_edge(0, 7, Cost::ZERO);
        let layout = add_gadget(&mut b, (1, &[0, 1]), (3, &[0, 1, 2]), 2, Some(6));
        for y in 3..6 {
            b.add_edge(y, 8, Cost::new(10 + y as u64));
        }
        b.add_edge(7, 5, Cost::new(3));
        let g = b.build();
        let (ws, _) = gadget_run_matches_edge_by_edge(&g, &layout, 0, 8, None);
        // x1's row is edges 3..=6 (y3, y4, y5, tap), x2's 7..=10.
        assert_eq!(ws.parent()[5], Some((1, 5)));
        // x1 offers y4 (3, 2) and x2's identity edge (1, 2): x2 wins.
        assert_eq!(ws.parent()[4], Some((2, 8)));
        assert_eq!(ws.dist()[8], Cost::new(1 + 13));
        assert_eq!(ws.to_tree().path_to(8), Some(vec![0, 1, 3, 8]));
    }

    #[test]
    fn dominated_in_node_relaxes_only_its_identity_edge() {
        // x1 (λ0) settles at cost 1 and offers y4 (λ1) cost 1 + 5; x2
        // (λ1) settles later at cost 2, a dominated label, and its
        // identity edge improves y4 to cost 2: the route to 8 runs
        // through it.
        let mut b = CsrBuilder::new(9);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 2, Cost::new(2));
        let layout = add_gadget(&mut b, (1, &[0, 1]), (3, &[0, 1, 2]), 5, Some(6));
        b.add_edge(3, 8, Cost::new(20));
        b.add_edge(4, 8, Cost::new(1));
        b.add_edge(5, 8, Cost::new(20));
        let g = b.build();
        let (ws, plain) = gadget_run_matches_edge_by_edge(&g, &layout, 0, 8, None);
        assert_eq!(ws.dist()[8], Cost::new(3));
        assert_eq!(ws.to_tree().path_to(8), Some(vec![0, 2, 4, 8]));
        // x2 relaxes one edge, not its four.
        assert_eq!(ws.stats().relaxed + 3, plain.stats().relaxed);
    }

    #[test]
    fn target_inside_a_batch_stops_the_run_at_the_block() {
        // x1 gives y3..y6 the conversion label (1 + 3, 2) bar y3, its
        // identity target. y5 is the target: the block entry stops the
        // run at its first live node, y4, as y4's own entry would have.
        let mut b = CsrBuilder::new(8);
        b.add_edge(0, 1, Cost::new(1));
        let layout = add_gadget(&mut b, (1, &[0, 2]), (3, &[0, 1, 2, 3]), 3, None);
        b.add_edge(3, 7, Cost::new(9));
        b.add_edge(4, 7, Cost::new(0));
        let g = b.build();
        for target in 3..7 {
            let (ws, _) = gadget_run_matches_edge_by_edge(&g, &layout, 0, target, None);
            let label = if target == 3 { 1 } else { 4 };
            assert_eq!(ws.dist()[target], Cost::new(label), "target {target}");
            // x1's row is edges 1..=4, one per Y_v node in id order.
            assert_eq!(
                ws.parent()[target],
                Some((1, target - 2)),
                "target {target}"
            );
        }
        let (ws, _) = gadget_run_matches_edge_by_edge(&g, &layout, 0, 5, None);
        // 0, x1, y3 (the identity target, cost 1), then y4 stops the
        // run; x2 is unreachable.
        assert_eq!(ws.stats().settled, 4);
    }

    #[test]
    fn free_gadget_batches_the_identity_target_too() {
        // c = 0: every Y_v node, the identity target included, gets the
        // label (1, 2) from x1 and settles in one block, in id order.
        // Both y3 and y5 reach 7 at cost 1; y3 settles first and keeps
        // the parent.
        let mut b = CsrBuilder::new(8);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 2, Cost::new(1));
        let layout = add_gadget(&mut b, (1, &[0, 1]), (3, &[0, 1, 2]), 0, Some(6));
        b.add_edge(3, 7, Cost::ZERO);
        b.add_edge(5, 7, Cost::ZERO);
        let g = b.build();
        let (ws, plain) = gadget_run_matches_edge_by_edge(&g, &layout, 0, 7, None);
        assert_eq!(ws.dist()[7], Cost::new(1));
        assert_eq!(ws.to_tree().path_to(7), Some(vec![0, 1, 3, 7]));
        // x2 ties with x1, so its row is relaxed whole.
        assert_eq!(ws.stats().relaxed, plain.stats().relaxed);
    }

    #[test]
    fn masked_conversion_leaves_its_node_out_of_the_block() {
        // x1's conversion to y3 is masked, so the block holds y4 alone;
        // y3 holds (5, 2) from node 5, the block's hop count at another
        // cost, and must settle on its own entry, after y4: the target
        // is first labelled from y4, then improved from y3.
        let mut b = CsrBuilder::new(7);
        b.add_edge(0, 1, Cost::new(1));
        b.add_edge(0, 5, Cost::ZERO);
        let layout = add_gadget(&mut b, (1, &[0]), (2, &[0, 1, 2]), 1, None);
        b.add_edge(3, 6, Cost::ZERO);
        b.add_edge(4, 6, Cost::new(10));
        b.add_edge(5, 3, Cost::new(5));
        let g = b.build();
        let mut mask = EdgeMask::all_clear(g.edge_count());
        mask.set(3);
        let (ws, _) = gadget_run_matches_edge_by_edge(&g, &layout, 0, 6, Some(&mask));
        assert_eq!(ws.dist()[6], Cost::new(5));
        assert_eq!(ws.to_tree().path_to(6), Some(vec![0, 5, 3, 6]));
        assert_eq!(ws.stats().decrease_keys, 1, "y4 labels the target first");
    }

    #[test]
    fn random_gadget_graphs_search_exactly_like_edge_by_edge() {
        // Hand-built graphs around one uniform gadget: random extra
        // edges into and out of both blocks (Y_v nodes labelled from
        // outside too), zero-cost edges, random masks that sometimes
        // hit the gadget's own rows, and every target.
        let mut seed = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        for _ in 0..400 {
            let before = 1 + next(3) as usize;
            let pick = |next: &mut dyn FnMut(u64) -> u64, len: usize| -> Vec<usize> {
                let mut w: Vec<usize> = (0..5).filter(|_| next(2) == 0).collect();
                w.truncate(len.max(1));
                w
            };
            let xs = pick(&mut next, 4);
            let ys = pick(&mut next, 4);
            let x_start = before;
            let y_start = x_start + xs.len();
            let sink = y_start + ys.len();
            let n = sink + 1 + next(3) as usize;
            let mut b = CsrBuilder::new(n);
            let tap = (next(2) == 0).then_some(sink);
            let layout = add_gadget(&mut b, (x_start, &xs), (y_start, &ys), next(3), tap);
            for _ in 0..(3 * n) {
                let u = next(n as u64) as usize;
                if (x_start..y_start).contains(&u) {
                    continue;
                }
                let v = next(n as u64) as usize;
                b.add_edge(u, v, Cost::new(next(4)));
            }
            let g = b.build();
            let mut mask = EdgeMask::all_clear(g.edge_count());
            for e in 0..g.edge_count() {
                if next(8) == 0 {
                    mask.set(e);
                }
            }
            for target in 0..n {
                gadget_run_matches_edge_by_edge(&g, &layout, 0, target, None);
                gadget_run_matches_edge_by_edge(&g, &layout, 0, target, Some(&mask));
            }
        }
    }

    #[test]
    fn stale_frontier_entries_are_skipped_not_settled() {
        // Node 1 is first labelled 2 straight from 0, then improved to 1
        // through 2: its stale entry (cost 2) pops after it has settled,
        // before the target's entry, and must not settle it again.
        // The target's own pop stops the run.
        let mut b = CsrBuilder::new(4);
        b.add_edge(0, 1, Cost::new(2));
        b.add_edge(0, 2, Cost::ZERO);
        b.add_edge(2, 1, Cost::new(1));
        b.add_edge(1, 3, Cost::new(5));
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        ws.run_guided_to(&g, 0, None, 3, &Unguided, &NoGadgets);
        assert_eq!(ws.dist()[3], Cost::new(6));
        assert_eq!(ws.to_tree().path_to(3), Some(vec![0, 2, 1, 3]));
        let s = ws.stats();
        assert_eq!(s.decrease_keys, 1);
        assert_eq!(s.pushes, 4);
        assert_eq!(s.settled, 4, "0, 2, 1 once each, then the target");
        assert_eq!(s.relaxed, 4);
    }
}
