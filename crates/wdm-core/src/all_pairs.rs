//! All-pairs optimal semilightpaths (Corollary 1).
//!
//! Build the terminal-equipped auxiliary graph `G_all` once, then grow one
//! shortest-path tree per source terminal `v'`. Each tree costs
//! `O(k²n + km + kn·log(kn))` (Theorem 1), giving
//! `O(k²n² + kmn + kn²·log(kn))` in total.

use crate::auxiliary::{AuxStats, AuxiliaryGraph};
use crate::csr::CsrGraph;
use crate::dijkstra::{dijkstra_with, DijkstraWorkspace};
use crate::{Cost, Semilightpath, WdmNetwork};
use heaps::{ArrayHeap, BinaryHeap, FibonacciHeap, HeapKind, IndexedPriorityQueue};
use wdm_graph::NodeId;

// The parallel solver shares one auxiliary graph across worker threads,
// so the read-only structures must be `Send + Sync`. They are composed
// exclusively of `Vec`s of `Copy` data, which makes the auto-traits
// hold; these assertions turn any future regression (say, an `Rc` or
// `Cell` slipping into `CsrGraph`) into a compile error here rather
// than a cryptic one at the `thread::scope` call site.
fn _assert_shared_state_is_send_sync() {
    fn ok<T: Send + Sync>() {}
    ok::<CsrGraph>();
    ok::<AuxiliaryGraph>();
    ok::<WdmNetwork>();
    ok::<AllPairs>();
}

/// The all-pairs cost matrix plus the machinery to re-derive paths.
///
/// # Examples
///
/// ```
/// use wdm_core::{AllPairs, Cost};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2), (2, 0)]);
/// let net = wdm_core::WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 1)])
///     .link_wavelengths(1, [(0, 1)])
///     .link_wavelengths(2, [(0, 1)])
///     .build()?;
/// let ap = AllPairs::solve(&net);
/// assert_eq!(ap.cost(0.into(), 2.into()), Cost::new(2));
/// assert_eq!(ap.cost(2.into(), 2.into()), Cost::ZERO);
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AllPairs {
    n: usize,
    /// Row-major `n × n` optimal costs; diagonal fixed at zero.
    costs: Vec<Cost>,
    aux_stats: AuxStats,
    /// Total Dijkstra pops over all `n` tree computations.
    total_settled: usize,
}

impl AllPairs {
    /// Solves all pairs with the Fibonacci heap.
    pub fn solve(network: &WdmNetwork) -> Self {
        Self::solve_with(network, HeapKind::Fibonacci)
    }

    /// Solves all pairs with a chosen heap on the calling thread, reusing
    /// one search workspace and heap across sources: the one-thread
    /// [`AllPairs::solve_parallel`].
    pub fn solve_with(network: &WdmNetwork, heap: HeapKind) -> Self {
        Self::solve_parallel(network, heap, 1)
    }

    /// Solves all pairs across `threads` worker threads.
    ///
    /// Corollary 1 computes the all-pairs matrix as `n` *independent*
    /// shortest-path trees over one shared terminal-equipped auxiliary
    /// graph `G_all`; nothing couples one source's tree to another's.
    /// This method exploits that structure directly: the row-major cost
    /// matrix is split into contiguous, disjoint row chunks
    /// (`chunks_mut`), each worker thread owns one chunk, and every
    /// worker reuses a single [`DijkstraWorkspace`] and heap across its
    /// sources so the steady state is allocation-free.
    ///
    /// `threads == 0` uses [`std::thread::available_parallelism`];
    /// `threads == 1` runs inline on the calling thread. Thread counts
    /// above `n` are clamped to `n`.
    ///
    /// # Determinism
    ///
    /// The result is **bit-identical** for every thread count, and so to
    /// [`AllPairs::solve_with`] with the same heap: each matrix row is a pure
    /// function of (`G_all`, source, heap kind), the partition into
    /// chunks never changes what any single row computes, and the
    /// settled-count total is a sum of per-row counts, which is
    /// independent of summation order.
    ///
    /// # Examples
    ///
    /// ```
    /// use heaps::HeapKind;
    /// use wdm_core::AllPairs;
    /// use wdm_graph::DiGraph;
    ///
    /// let g = DiGraph::from_links(3, [(0, 1), (1, 2), (2, 0)]);
    /// let net = wdm_core::WdmNetwork::builder(g, 1)
    ///     .link_wavelengths(0, [(0, 1)])
    ///     .link_wavelengths(1, [(0, 1)])
    ///     .link_wavelengths(2, [(0, 1)])
    ///     .build()?;
    /// let serial = AllPairs::solve_with(&net, HeapKind::Binary);
    /// let parallel = AllPairs::solve_parallel(&net, HeapKind::Binary, 2);
    /// for s in 0..3 {
    ///     for t in 0..3 {
    ///         assert_eq!(parallel.cost(s.into(), t.into()), serial.cost(s.into(), t.into()));
    ///     }
    /// }
    /// assert_eq!(parallel.total_settled(), serial.total_settled());
    /// # Ok::<(), wdm_core::WdmError>(())
    /// ```
    pub fn solve_parallel(network: &WdmNetwork, heap: HeapKind, threads: usize) -> Self {
        let n = network.node_count();
        let aux = AuxiliaryGraph::for_all_pairs(network);
        let threads = resolve_thread_count(threads, n);
        let mut costs = vec![Cost::INFINITY; n * n];
        let total_settled = if threads <= 1 {
            solve_rows_with(heap, &aux, 0, &mut costs, n)
        } else {
            // ceil-divide so every thread gets work and the remainder
            // lands on the last (possibly shorter) chunk.
            let chunk_rows = n.div_ceil(threads);
            let mut settled_per_chunk = vec![0usize; n.div_ceil(chunk_rows.max(1)).max(1)];
            std::thread::scope(|scope| {
                for (chunk_index, (chunk, settled_slot)) in costs
                    .chunks_mut(chunk_rows * n)
                    .zip(settled_per_chunk.iter_mut())
                    .enumerate()
                {
                    let aux = &aux;
                    scope.spawn(move || {
                        *settled_slot =
                            solve_rows_with(heap, aux, chunk_index * chunk_rows, chunk, n);
                    });
                }
            });
            settled_per_chunk.iter().sum()
        };
        AllPairs {
            n,
            costs,
            aux_stats: aux.stats(),
            total_settled,
        }
    }

    /// Number of nodes in the underlying network.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Optimal semilightpath cost from `s` to `t`
    /// ([`Cost::INFINITY`] when unreachable, zero on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn cost(&self, s: NodeId, t: NodeId) -> Cost {
        assert!(
            s.index() < self.n && t.index() < self.n,
            "node out of range"
        );
        self.costs[s.index() * self.n + t.index()]
    }

    /// Construction accounting of the shared `G_all`.
    pub fn aux_stats(&self) -> AuxStats {
        self.aux_stats
    }

    /// Total nodes settled across all `n` Dijkstra runs.
    pub fn total_settled(&self) -> usize {
        self.total_settled
    }

    /// Re-derives the actual optimal path for one pair (runs one more
    /// Dijkstra; costs are already available via [`AllPairs::cost`]).
    /// Answers unreachable pairs from the stored matrix without searching.
    pub fn path(&self, network: &WdmNetwork, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        if self.cost(s, t).is_infinite() {
            return None;
        }
        crate::find_optimal_semilightpath(network, s, t)
            .ok()
            .flatten()
    }
}

/// Resolves a user-facing thread count (`0` = auto) to an effective
/// worker count in `1..=n`.
fn resolve_thread_count(threads: usize, n: usize) -> usize {
    let requested = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    requested.clamp(1, n.max(1))
}

/// Fills a chunk of matrix rows `[first_row, first_row + rows)` — one
/// Dijkstra tree per row over the shared `G_all` — and returns the
/// settled-node total. Monomorphized per heap so the heap kind is
/// dispatched once per worker, not once per source.
fn solve_rows<Q: IndexedPriorityQueue<Cost>>(
    aux: &AuxiliaryGraph,
    first_row: usize,
    rows: &mut [Cost],
    n: usize,
) -> usize {
    debug_assert_eq!(rows.len() % n.max(1), 0);
    let aux_nodes = aux.graph().node_count();
    let mut workspace = DijkstraWorkspace::with_capacity(aux_nodes);
    let mut queue = Q::with_capacity(aux_nodes);
    let mut total_settled = 0;
    // An empty network has no rows (and `chunks_mut` wants a non-zero size).
    for (i, row) in rows.chunks_mut(n.max(1)).enumerate() {
        let s = first_row + i;
        let (source, _) = aux.all_pairs_terminals(NodeId::new(s));
        workspace.run(aux.graph(), source, &mut queue);
        total_settled += workspace.stats().settled;
        for (t, cell) in row.iter_mut().enumerate() {
            *cell = if s == t {
                Cost::ZERO
            } else {
                let (_, sink) = aux.all_pairs_terminals(NodeId::new(t));
                workspace.dist()[sink]
            };
        }
    }
    total_settled
}

/// Run-time heap dispatch for [`solve_rows`].
fn solve_rows_with(
    kind: HeapKind,
    aux: &AuxiliaryGraph,
    first_row: usize,
    rows: &mut [Cost],
    n: usize,
) -> usize {
    match kind {
        HeapKind::Fibonacci => solve_rows::<FibonacciHeap<Cost>>(aux, first_row, rows, n),
        HeapKind::Binary => solve_rows::<BinaryHeap<Cost>>(aux, first_row, rows, n),
        HeapKind::Array => solve_rows::<ArrayHeap<Cost>>(aux, first_row, rows, n),
    }
}

/// All-pairs solver that *retains* every shortest-path tree, answering
/// path queries in `O(path length)` without re-running any search.
///
/// Memory is `O(n · kn)` (one tree over `G_all` per source), so this is
/// the right choice when many path queries follow — e.g. populating a
/// routing table — while [`AllPairs`] is lighter when only costs matter.
///
/// # Examples
///
/// ```
/// use wdm_core::AllPairsPaths;
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = wdm_core::WdmNetwork::builder(g, 1)
///     .link_wavelengths(0, [(0, 2)])
///     .link_wavelengths(1, [(0, 3)])
///     .build()?;
/// let ap = AllPairsPaths::solve(&net);
/// let path = ap.path(0.into(), 2.into()).expect("reachable");
/// assert_eq!(path.cost(), wdm_core::Cost::new(5));
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AllPairsPaths {
    aux: AuxiliaryGraph,
    trees: Vec<crate::dijkstra::ShortestPathTree>,
}

impl AllPairsPaths {
    /// Solves all pairs with the Fibonacci heap, retaining the trees.
    pub fn solve(network: &WdmNetwork) -> Self {
        Self::solve_with(network, HeapKind::Fibonacci)
    }

    /// Solves all pairs with a chosen heap, retaining the trees.
    pub fn solve_with(network: &WdmNetwork, heap: HeapKind) -> Self {
        let aux = AuxiliaryGraph::for_all_pairs(network);
        let trees = (0..network.node_count())
            .map(|s| {
                let (source, _) = aux.all_pairs_terminals(NodeId::new(s));
                dijkstra_with(heap, aux.graph(), source)
            })
            .collect();
        AllPairsPaths { aux, trees }
    }

    /// Number of sources (= network nodes).
    pub fn node_count(&self) -> usize {
        self.trees.len()
    }

    /// Optimal cost from `s` to `t` (zero on the diagonal).
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn cost(&self, s: NodeId, t: NodeId) -> Cost {
        if s == t {
            return Cost::ZERO;
        }
        let (_, sink) = self.aux.all_pairs_terminals(t);
        self.trees[s.index()].dist[sink]
    }

    /// The optimal semilightpath from `s` to `t` (`None` when
    /// unreachable; the empty path on the diagonal), decoded from the
    /// retained tree without further search.
    ///
    /// # Panics
    ///
    /// Panics if `s` or `t` is out of range.
    pub fn path(&self, s: NodeId, t: NodeId) -> Option<Semilightpath> {
        if s == t {
            return Some(Semilightpath::new(Vec::new(), Cost::ZERO));
        }
        let (_, sink) = self.aux.all_pairs_terminals(t);
        self.aux.extract_semilightpath(&self.trees[s.index()], sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConversionPolicy, LiangShenRouter};
    use wdm_graph::{topology, DiGraph};

    fn ring_network() -> WdmNetwork {
        let g = topology::ring(5, false);
        let mut b = WdmNetwork::builder(g, 2);
        for e in 0..5 {
            b = b.link_wavelengths(e, [(e % 2, 10 + e as u64)]);
        }
        b.uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn matches_pairwise_queries() {
        let net = ring_network();
        let ap = AllPairs::solve(&net);
        let router = LiangShenRouter::new();
        for s in 0..5 {
            for t in 0..5 {
                let (s, t) = (NodeId::new(s), NodeId::new(t));
                assert_eq!(
                    ap.cost(s, t),
                    router.route(&net, s, t).expect("ok").cost(),
                    "pair {s} → {t}"
                );
            }
        }
    }

    #[test]
    fn diagonal_is_zero() {
        let net = ring_network();
        let ap = AllPairs::solve(&net);
        for v in 0..5 {
            assert_eq!(ap.cost(NodeId::new(v), NodeId::new(v)), Cost::ZERO);
        }
    }

    #[test]
    fn unreachable_pairs_are_infinite() {
        // Two disconnected nodes.
        let g = DiGraph::from_links(2, []);
        let net = WdmNetwork::builder(g, 1).build().expect("valid");
        let ap = AllPairs::solve(&net);
        assert_eq!(ap.cost(0.into(), 1.into()), Cost::INFINITY);
        assert_eq!(ap.cost(0.into(), 0.into()), Cost::ZERO);
    }

    #[test]
    fn heap_choice_is_cost_invariant() {
        let net = ring_network();
        let fib = AllPairs::solve_with(&net, HeapKind::Fibonacci);
        let arr = AllPairs::solve_with(&net, HeapKind::Array);
        for s in 0..5 {
            for t in 0..5 {
                assert_eq!(
                    fib.cost(NodeId::new(s), NodeId::new(t)),
                    arr.cost(NodeId::new(s), NodeId::new(t))
                );
            }
        }
    }

    #[test]
    fn all_pairs_paths_matches_costs_and_validates() {
        let net = ring_network();
        let light = AllPairs::solve(&net);
        let full = AllPairsPaths::solve(&net);
        for s in 0..5 {
            for t in 0..5 {
                let (sn, tn) = (NodeId::new(s), NodeId::new(t));
                assert_eq!(light.cost(sn, tn), full.cost(sn, tn), "{s} → {t}");
                match full.path(sn, tn) {
                    Some(p) => {
                        p.validate(&net).expect("valid");
                        assert_eq!(p.cost(), full.cost(sn, tn));
                    }
                    None => assert!(full.cost(sn, tn).is_infinite()),
                }
            }
        }
        assert_eq!(full.node_count(), 5);
    }

    #[test]
    fn parallel_matches_serial_for_every_thread_count() {
        let net = ring_network();
        for heap in [HeapKind::Fibonacci, HeapKind::Array] {
            let serial = AllPairs::solve_with(&net, heap);
            for threads in [0, 1, 2, 3, 5, 8, 64] {
                let parallel = AllPairs::solve_parallel(&net, heap, threads);
                assert_eq!(parallel.costs, serial.costs, "{heap} × {threads} threads");
                assert_eq!(
                    parallel.total_settled(),
                    serial.total_settled(),
                    "{heap} × {threads} threads"
                );
                assert_eq!(parallel.aux_stats(), serial.aux_stats());
                assert_eq!(parallel.node_count(), serial.node_count());
            }
        }
    }

    #[test]
    fn parallel_handles_degenerate_networks() {
        // Single node: a 1×1 matrix, nothing to search.
        let net = WdmNetwork::builder(DiGraph::from_links(1, []), 1)
            .build()
            .expect("valid");
        let ap = AllPairs::solve_parallel(&net, HeapKind::Binary, 4);
        assert_eq!(ap.cost(0.into(), 0.into()), Cost::ZERO);

        // Disconnected pair: infinities must survive the parallel path.
        let g = DiGraph::from_links(2, []);
        let net = WdmNetwork::builder(g, 1).build().expect("valid");
        let ap = AllPairs::solve_parallel(&net, HeapKind::Fibonacci, 2);
        assert_eq!(ap.cost(0.into(), 1.into()), Cost::INFINITY);
        assert_eq!(ap.cost(1.into(), 0.into()), Cost::INFINITY);
    }

    #[test]
    fn empty_network_gives_an_empty_matrix() {
        let net = WdmNetwork::builder(DiGraph::from_links(0, []), 1)
            .build()
            .expect("valid");
        let solved = [
            AllPairs::solve(&net),
            AllPairs::solve_with(&net, HeapKind::Binary),
            AllPairs::solve_parallel(&net, HeapKind::Fibonacci, 1),
            AllPairs::solve_parallel(&net, HeapKind::Array, 4),
            AllPairs::solve_parallel(&net, HeapKind::Fibonacci, 0),
        ];
        for ap in solved {
            assert_eq!(ap.node_count(), 0);
            assert!(ap.costs.is_empty());
            assert_eq!(ap.total_settled(), 0);
        }
    }

    #[test]
    fn path_rederivation_validates() {
        let net = ring_network();
        let ap = AllPairs::solve(&net);
        let p = ap.path(&net, 0.into(), 3.into()).expect("reachable");
        p.validate(&net).expect("valid");
        assert_eq!(p.cost(), ap.cost(0.into(), 3.into()));
    }
}
