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
//! oracle's through any heap.
//!
//! [`IndexedPriorityQueue`]: heaps::IndexedPriorityQueue
//! [`DijkstraWorkspace::run_guided_to`]: crate::dijkstra::DijkstraWorkspace::run_guided_to

use crate::csr::{CsrGraph, EdgeMask};
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
    /// infinite, plus the source.
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

/// Reusable arenas for repeated Dijkstra runs.
///
/// Running `n` searches over the shared all-pairs auxiliary graph
/// (Corollary 1) allocates `O(kn)` vectors per search when done
/// naively. A workspace keeps those arenas — distance, parent, hop
/// count and the targeted kernel's frontier — alive across runs and
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
            len: 0,
            stats: SearchStats::default(),
            totals: SearchStats::default(),
            source: 0,
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
    /// skipping edges set in `mask` (if any).
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
    pub fn run_guided_to<P: Potential>(
        &mut self,
        graph: &CsrGraph,
        source: usize,
        mask: Option<&EdgeMask>,
        target: usize,
        potential: &P,
    ) {
        let n = graph.node_count();
        assert!(source < n, "source {source} out of range");
        assert!(target < n, "target {target} out of range");
        if let Some(mask) = mask {
            assert_eq!(mask.len(), graph.edge_count(), "one mask bit per edge");
        }
        self.reset(n);
        self.source = source;

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
            let du = self.dist[u];
            let next = hops_u.saturating_add(1);
            for edge in graph.out_edges(u) {
                if mask.is_some_and(|m| m.is_set(edge.index)) {
                    self.stats.masked_skips += 1;
                    continue;
                }
                self.stats.relaxed += 1;
                let v = edge.target;
                let candidate = du + edge.cost;
                let Some(key) = Cost::value(candidate + potential.at(v)) else {
                    continue;
                };
                // An infinite `dv` loses to any finite candidate, so a
                // stale hop count beside it is never read.
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
                    if v == target {
                        stop_at = frontier_entry(key, next, 0);
                    }
                    self.frontier.push(Reverse(frontier_entry(key, next, v)));
                } else if (candidate, next) == (dv, self.hops[v])
                    && self.parent[v].is_some_and(|(_, e)| edge.index < e)
                {
                    self.parent[v] = Some((u, edge.index));
                }
            }
        }
        self.totals.accumulate(&self.stats);
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
    use crate::csr::{CsrBuilder, EdgeRole};

    /// Small weighted digraph with a known shortest-path structure.
    fn diamond() -> CsrGraph {
        //      1
        //   /     \
        //  0       3 — 4
        //   \     /
        //      2
        let mut b = CsrBuilder::new(5);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::new(1), t);
        b.add_edge(0, 2, Cost::new(4), t);
        b.add_edge(1, 3, Cost::new(10), t);
        b.add_edge(2, 3, Cost::new(2), t);
        b.add_edge(3, 4, Cost::new(3), t);
        b.add_edge(1, 2, Cost::new(1), t);
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
        b.add_edge(0, 1, Cost::new(1), EdgeRole::Tap);
        let g = b.build();
        let tree = dijkstra::<FibonacciHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist[2], Cost::INFINITY);
        assert_eq!(tree.path_to(2), None);
        assert_eq!(tree.parent[2], None);
    }

    #[test]
    fn zero_cost_cycles_terminate() {
        let mut b = CsrBuilder::new(3);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::ZERO, t);
        b.add_edge(1, 2, Cost::ZERO, t);
        b.add_edge(2, 0, Cost::ZERO, t);
        let g = b.build();
        let tree = dijkstra::<BinaryHeap<Cost>>(&g, 0);
        assert_eq!(tree.dist, vec![Cost::ZERO; 3]);
        assert_eq!(tree.stats.settled, 3);
    }

    #[test]
    fn parallel_edges_pick_cheapest() {
        let mut b = CsrBuilder::new(2);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::new(9), t);
        b.add_edge(0, 1, Cost::new(2), t);
        b.add_edge(0, 1, Cost::new(5), t);
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
        for i in 1..g.edge_count() {
            let (s, e) = g.edge(i);
            b.add_edge(s, e.target, e.cost, e.role);
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
            ws.run_guided_to(&g, 0, Some(&mask), target, &Unguided);
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
            ws.run_guided_to(&g, 0, None, target, &Unguided);
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
        b.add_edge(0, 1, Cost::new(5), EdgeRole::Tap);
        b.add_edge(2, 0, Cost::new(1), EdgeRole::Tap);
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
                ws.run_guided_to(g, source, None, target, &Unguided);
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
        b.add_edge(0, 1, Cost::new(1), EdgeRole::Tap);
        b.add_edge(0, 2, Cost::new(1), EdgeRole::Tap);
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        ws.run_guided_to(&g, 0, None, 2, &Unguided);
        assert_eq!(ws.dist()[2], Cost::new(1));
        assert_eq!(ws.parent()[2], Some((0, 1)));
        assert_eq!(ws.stats().settled, 2);
        assert_eq!(ws.stats().relaxed, 2);
        // A run to its own source stops at its first pop.
        ws.run_guided_to(&g, 0, None, 0, &Unguided);
        assert_eq!(ws.dist()[0], Cost::ZERO);
        assert_eq!((ws.stats().settled, ws.stats().relaxed), (1, 0));
    }

    #[test]
    fn stale_frontier_entries_are_skipped_not_settled() {
        // Node 1 is first labelled 2 straight from 0, then improved to 1
        // through 2: its stale entry (cost 2) pops after it has settled,
        // before the target's entry, and must not settle it again.
        // The target's own pop stops the run.
        let mut b = CsrBuilder::new(4);
        let t = EdgeRole::Tap;
        b.add_edge(0, 1, Cost::new(2), t);
        b.add_edge(0, 2, Cost::ZERO, t);
        b.add_edge(2, 1, Cost::new(1), t);
        b.add_edge(1, 3, Cost::new(5), t);
        let g = b.build();
        let mut ws = DijkstraWorkspace::new();
        ws.run_guided_to(&g, 0, None, 3, &Unguided);
        assert_eq!(ws.dist()[3], Cost::new(6));
        assert_eq!(ws.to_tree().path_to(3), Some(vec![0, 2, 1, 3]));
        let s = ws.stats();
        assert_eq!(s.decrease_keys, 1);
        assert_eq!(s.pushes, 4);
        assert_eq!(s.settled, 4, "0, 2, 1 once each, then the target");
        assert_eq!(s.relaxed, 4);
    }
}
