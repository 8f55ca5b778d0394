//! Compact CSR edge storage shared by the auxiliary graphs.
//!
//! Both the paper's layered graph `G_{s,t}`/`G_all` and the CFZ baseline's
//! wavelength graph `WG` are "built once, searched once" structures, so they
//! share this compressed-sparse-row representation and a single Dijkstra
//! implementation ([`crate::dijkstra()`]).

use crate::{Cost, Hop, Semilightpath, Wavelength};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::RELAXED;

/// What a search-graph edge means in terms of the physical network.
///
/// A [`CsrGraph`] stores no meaning per edge: each graph's owner decodes
/// it from what it knows of the edge's endpoints, the
/// [`crate::AuxiliaryGraph`] through
/// [`edge_role`](crate::AuxiliaryGraph::edge_role). A shortest path in
/// the search graph decodes back into a [`crate::Semilightpath`] the
/// same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// A wavelength conversion inside a physical node.
    Conversion {
        /// The node performing the conversion.
        node: NodeId,
        /// Incoming wavelength `λp`.
        from: Wavelength,
        /// Outgoing wavelength `λq`.
        to: Wavelength,
    },
    /// Traversal of a physical link on a specific wavelength.
    Traversal {
        /// The physical link.
        link: LinkId,
        /// The wavelength used on it.
        wavelength: Wavelength,
    },
    /// A zero-cost attachment edge from/to a super-terminal
    /// (`s' → Y_s`, `X_t → t''`, or the `v'`/`v''` taps of `G_all`).
    Tap,
}

/// One outgoing edge as yielded by [`CsrGraph::out_edges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRef {
    /// Dense index of this edge in the graph.
    pub index: usize,
    /// Head node of the edge.
    pub target: usize,
    /// Edge weight.
    pub cost: Cost,
}

/// A directed graph in compressed-sparse-row form with [`Cost`] weights.
///
/// Edge `i` lives at index `i` of two parallel columns (target and cost:
/// 12 bytes per edge), and the edges of node `v` are the dense range
/// `offsets[v]..offsets[v + 1]`. No per-edge source is stored: a row scan
/// knows its source, [`edges`](Self::edges) yields it for whole-graph
/// scans, and [`edge`](Self::edge) finds it by a binary search over the
/// row starts. No per-edge meaning is stored either: the graph's owner
/// decodes an [`EdgeRole`] from the edge's endpoints.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<u32>,
    costs: Vec<Cost>,
}

impl CsrGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Iterates the outgoing edges of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn out_edges(&self, node: usize) -> impl ExactSizeIterator<Item = EdgeRef> + '_ {
        assert!(node + 1 < self.offsets.len(), "node {node} out of range");
        let range = self.offsets[node]..self.offsets[node + 1];
        range.map(move |i| EdgeRef {
            index: i,
            target: self.targets[i] as usize,
            cost: self.costs[i],
        })
    }

    /// The edge in place `slot` of `node`'s row.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or its row has no place `slot`.
    pub(crate) fn out_edge(&self, node: usize, slot: usize) -> EdgeRef {
        let index = self.offsets[node] + slot;
        assert!(
            index < self.offsets[node + 1],
            "node {node} has no edge {slot}"
        );
        EdgeRef {
            index,
            target: self.targets[index] as usize,
            cost: self.costs[index],
        }
    }

    /// Every edge as `(source, EdgeRef)`, in dense index order: the
    /// whole-graph scan, reading each row's source from the row starts.
    pub fn edges(&self) -> impl Iterator<Item = (usize, EdgeRef)> + '_ {
        (0..self.node_count()).flat_map(move |s| self.out_edges(s).map(move |e| (s, e)))
    }

    /// The edge with dense index `index`, as `(source, EdgeRef)`.
    ///
    /// The source is found by a binary search over the row starts
    /// (`O(log n)`); scan a whole graph with [`edges`](Self::edges).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn edge(&self, index: usize) -> (usize, EdgeRef) {
        assert!(index < self.edge_count(), "edge {index} out of range");
        // The last row starting at or before `index`; empty rows share
        // their start with the next row and are skipped.
        let source = self.offsets.partition_point(|&start| start <= index) - 1;
        (
            source,
            EdgeRef {
                index,
                target: self.targets[index] as usize,
                cost: self.costs[index],
            },
        )
    }
}

/// Decodes a shortest-path tree, given as per-node `dist` and `parent`
/// (`(predecessor, edge index)`) slices, into the semilightpath reaching
/// `sink`, or `None` when `sink` is unreachable.
///
/// `hop` is the graph owner's decoder: given a path edge's tail and dense
/// index, the hop it stands for, or `None` for an edge that crosses no
/// link. The path records exactly those hops in travel order — the
/// mapping of Theorem 1 — and carries `dist[sink]` as its cost.
pub(crate) fn decode_semilightpath(
    dist: &[Cost],
    parent: &[Option<(usize, usize)>],
    sink: usize,
    hop: impl Fn(usize, usize) -> Option<Hop>,
) -> Option<Semilightpath> {
    let total = dist[sink];
    if total.is_infinite() {
        return None;
    }
    // One exact allocation for the returned path; growth doubling on the
    // backward walk is what this avoids on the hot path.
    let mut hops = Vec::with_capacity(8);
    let mut at = sink;
    while let Some((prev, edge)) = parent[at] {
        hops.extend(hop(prev, edge));
        at = prev;
    }
    hops.reverse();
    Some(Semilightpath::new(hops, total))
}

/// A bitmask over the dense edge indices of a [`CsrGraph`].
///
/// Set bits mark edges that are *excluded* from traversal (busy
/// wavelength-links in the residual view). Flipping a bit is `O(1)` and
/// allocation-free, which is what lets the provisioning engine keep one
/// persistent search graph instead of rebuilding it per request.
///
/// # Concurrency
///
/// The words are `AtomicU64`, so a mask may be shared across threads:
/// [`is_set`](Self::is_set) takes `&self` and the `fetch_set`/
/// `fetch_clear` pair flips bits through atomic RMWs. All accesses use
/// the relaxed ordering audited in `wdm_obs::ordering` — mask *bits*
/// never carry cross-thread consistency decisions on their own; the
/// concurrent engine layers a sharded seqlock on top (versions carry
/// the ordering). An exclusive owner's `&mut self` methods
/// ([`set`](Self::set), [`clear`](Self::clear)) go through `get_mut`
/// and compile to plain word ops.
///
/// # Examples
///
/// ```
/// use wdm_core::csr::EdgeMask;
///
/// let mut mask = EdgeMask::all_clear(70);
/// assert!(mask.set(3));
/// assert!(!mask.set(3)); // already set
/// assert!(mask.is_set(3) && !mask.is_set(4));
/// assert_eq!(mask.set_count(), 1);
/// assert!(mask.clear(3));
/// assert_eq!(mask.set_count(), 0);
/// ```
#[derive(Debug)]
pub struct EdgeMask {
    bits: Vec<AtomicU64>,
    len: usize,
    set_count: AtomicUsize,
}

impl EdgeMask {
    /// A mask over `len` edges with every bit clear.
    pub fn all_clear(len: usize) -> Self {
        let mut bits = Vec::new();
        bits.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        EdgeMask {
            bits,
            len,
            set_count: AtomicUsize::new(0),
        }
    }

    /// Number of edges the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the mask covers zero edges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set (masked-out) bits.
    ///
    /// Exact whenever the mask is quiescent (no concurrent flips in
    /// flight); during concurrent mutation the count lags the individual
    /// bits by at most the number of in-flight flips.
    pub fn set_count(&self) -> usize {
        self.set_count.load(RELAXED)
    }

    /// Whether bit `index` is set.
    ///
    /// A relaxed atomic load — safe to call while other threads flip
    /// bits; consistency across *multiple* bits is the caller's
    /// protocol (see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    // wdm-lint: hot-path
    pub fn is_set(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        self.bits[index / 64].load(RELAXED) & (1 << (index % 64)) != 0
    }

    /// Sets bit `index`; returns `true` when the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn set(&mut self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let word = self.bits[index / 64].get_mut();
        let bit = 1 << (index % 64);
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        *self.set_count.get_mut() += 1;
        true
    }

    /// Clears bit `index`; returns `true` when the bit changed.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn clear(&mut self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let word = self.bits[index / 64].get_mut();
        let bit = 1 << (index % 64);
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        *self.set_count.get_mut() -= 1;
        true
    }

    /// Atomically sets bit `index` through `&self`; returns `true` when
    /// this call changed it (i.e. the caller won the flip).
    ///
    /// Relaxed RMW — callers that need set/observe ordering across bits
    /// must provide it themselves (the concurrent engine's shard
    /// versions do; see the type-level docs).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fetch_set(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let bit = 1 << (index % 64);
        let prev = self.bits[index / 64].fetch_or(bit, RELAXED);
        if prev & bit != 0 {
            return false;
        }
        self.set_count.fetch_add(1, RELAXED);
        true
    }

    /// Atomically clears bit `index` through `&self`; returns `true`
    /// when this call changed it. The shared counterpart of
    /// [`clear`](Self::clear); same ordering contract as
    /// [`fetch_set`](Self::fetch_set).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn fetch_clear(&self, index: usize) -> bool {
        assert!(index < self.len, "mask index {index} out of range");
        let bit = 1 << (index % 64);
        let prev = self.bits[index / 64].fetch_and(!bit, RELAXED);
        if prev & bit == 0 {
            return false;
        }
        self.set_count.fetch_sub(1, RELAXED);
        true
    }
}

/// Incremental builder producing a [`CsrGraph`].
///
/// The builder stores the graph's own columns (target and cost, 12 bytes
/// per edge), so [`build`](Self::build) has two paths:
///
/// - **In place.** When every edge arrives in nondecreasing source
///   order, the rows are already laid out: `build` turns the per-source
///   counts into row starts and moves the columns into the graph. Nothing
///   is copied, the build peaks at the size of the graph it returns, and
///   the `i`-th edge added gets dense index `i`, so an owner can index
///   what its edges mean while it emits them. Reserve the exact edge
///   count first ([`reserve`](Self::reserve)) so the columns never
///   regrow.
/// - **Counting sort.** After the first edge that arrives out of source
///   order, the builder also records each edge's source, and `build`
///   places the edges by a stable counting sort (`O(n + m)`), one new
///   set of columns.
///
/// Either way the edges of one source keep their insertion order.
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    /// `offsets[s + 1]` counts the edges added from `s`.
    offsets: Vec<usize>,
    targets: Vec<u32>,
    costs: Vec<Cost>,
    /// Every edge's source, kept once an edge arrived out of source
    /// order; `None` while the rows are in place.
    sources: Option<Vec<u32>>,
    /// The source of the last edge added.
    last_source: usize,
}

impl CsrBuilder {
    /// A builder for a graph with `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds the `u32` endpoint encoding.
    pub fn new(n: usize) -> Self {
        assert!(
            u32::try_from(n).is_ok(),
            "CSR endpoints are u32-encoded; {n} nodes do not fit"
        );
        CsrBuilder {
            offsets: vec![0; n + 1],
            targets: Vec::new(),
            costs: Vec::new(),
            sources: None,
            last_source: 0,
        }
    }

    /// Pre-allocates room for `additional` more edges.
    pub fn reserve(&mut self, additional: usize) {
        self.targets.reserve_exact(additional);
        self.costs.reserve_exact(additional);
        if let Some(sources) = &mut self.sources {
            sources.reserve_exact(additional);
        }
    }

    /// Adds the directed edge `source → target`.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is out of range.
    pub fn add_edge(&mut self, source: usize, target: usize, cost: Cost) {
        let n = self.offsets.len() - 1;
        assert!(source < n, "source {source} out of range");
        assert!(target < n, "target {target} out of range");
        if source < self.last_source && self.sources.is_none() {
            self.sources = Some(self.sorted_sources());
        }
        self.last_source = source;
        // wdm-lint: cast-checked: endpoints < n, and new() asserts n fits u32
        let (source32, target32) = (source as u32, target as u32);
        if let Some(sources) = &mut self.sources {
            sources.push(source32);
        }
        self.offsets[source + 1] += 1;
        self.targets.push(target32);
        self.costs.push(cost);
    }

    /// The sources of the edges added so far, all in source order.
    fn sorted_sources(&self) -> Vec<u32> {
        let mut sources = Vec::with_capacity(self.targets.capacity());
        for (s, &count) in self.offsets[1..].iter().enumerate() {
            // wdm-lint: cast-checked: s < n, and new() asserts n fits u32
            sources.extend(std::iter::repeat_n(s as u32, count));
        }
        sources
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// Finalizes into CSR form: in place when the edges arrived in source
    /// order, by a stable counting sort otherwise (see the type docs).
    pub fn build(self) -> CsrGraph {
        let CsrBuilder {
            mut offsets,
            targets,
            costs,
            sources,
            ..
        } = self;
        // Counts to row starts: `offsets[s]` becomes the first edge of `s`.
        let mut start = 0;
        for slot in &mut offsets {
            start += *slot;
            *slot = start;
        }
        let Some(sources) = sources else {
            return CsrGraph {
                offsets,
                targets,
                costs,
            };
        };
        let m = targets.len();
        let mut sorted = CsrGraph {
            targets: vec![0u32; m],
            costs: vec![Cost::ZERO; m],
            offsets,
        };
        let mut cursor = sorted.offsets.clone();
        for (i, &s) in sources.iter().enumerate() {
            let at = cursor[s as usize];
            cursor[s as usize] += 1;
            sorted.targets[at] = targets[i];
            sorted.costs[at] = costs[i];
        }
        sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_iterates() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(0, 1, Cost::new(5));
        b.add_edge(0, 2, Cost::new(7));
        b.add_edge(2, 1, Cost::new(1));
        assert_eq!(b.edge_count(), 3);
        let g = b.build();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        let out0: Vec<usize> = g.out_edges(0).map(|e| e.target).collect();
        assert_eq!(out0, vec![1, 2]);
        assert_eq!(g.out_edges(1).len(), 0);
        let (src, e) = g.edge(2);
        assert_eq!(src, 2);
        assert_eq!(e.target, 1);
        assert_eq!(e.cost, Cost::new(1));
    }

    #[test]
    fn insertion_order_within_source_is_preserved() {
        let mut b = CsrBuilder::new(2);
        for i in 0..5u64 {
            b.add_edge(0, 1, Cost::new(i));
        }
        let g = b.build();
        let costs: Vec<Cost> = g.out_edges(0).map(|e| e.cost).collect();
        assert_eq!(costs, (0..5).map(Cost::new).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_sources_are_sorted_into_rows() {
        let mut b = CsrBuilder::new(3);
        b.add_edge(2, 0, Cost::new(1));
        b.add_edge(0, 2, Cost::new(2));
        b.add_edge(2, 1, Cost::new(3));
        let g = b.build();
        assert_eq!(g.out_edges(2).len(), 2);
        assert_eq!(g.out_edges(0).len(), 1);
        let out2: Vec<usize> = g.out_edges(2).map(|e| e.target).collect();
        assert_eq!(out2, vec![0, 1]);
    }

    /// Every edge as `(source, index, target, cost)`, by `edges()`.
    fn dump(g: &CsrGraph) -> Vec<(usize, usize, usize, Cost)> {
        g.edges()
            .map(|(s, e)| (s, e.index, e.target, e.cost))
            .collect()
    }

    #[test]
    fn sorted_and_shuffled_inputs_build_the_same_graph() {
        // Rows 1 and 3 stay empty; rows 0 and 2 hold several edges whose
        // order within the row must survive.
        let edges = [
            (0, 1, 1),
            (0, 4, 2),
            (2, 0, 3),
            (2, 2, 4),
            (2, 1, 5),
            (4, 3, 6),
        ];
        let build = |order: &[usize]| {
            let mut b = CsrBuilder::new(5);
            for &i in order {
                let (s, t, c) = edges[i];
                b.add_edge(s, t, Cost::new(c));
            }
            b.build()
        };
        let sorted = build(&[0, 1, 2, 3, 4, 5]);
        // Rows interleaved, each row's own edges still in order.
        let shuffled = build(&[5, 2, 0, 3, 1, 4]);
        assert_eq!(dump(&sorted), dump(&shuffled));
        let expected: Vec<_> = edges
            .iter()
            .enumerate()
            .map(|(i, &(s, t, c))| (s, i, t, Cost::new(c)))
            .collect();
        assert_eq!(dump(&sorted), expected);
        for g in [&sorted, &shuffled] {
            assert_eq!(g.out_edges(1).len() + g.out_edges(3).len(), 0);
            for (i, &(s, ..)) in expected.iter().enumerate() {
                assert_eq!(g.edge(i).0, s, "source of edge {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "edge 3 out of range")]
    fn edge_out_of_range_panics() {
        let mut b = CsrBuilder::new(2);
        for _ in 0..3 {
            b.add_edge(0, 1, Cost::ZERO);
        }
        b.build().edge(3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_endpoint_panics() {
        let mut b = CsrBuilder::new(1);
        b.add_edge(0, 1, Cost::ZERO);
    }

    #[test]
    fn mask_set_clear_roundtrip() {
        let mut mask = EdgeMask::all_clear(130);
        assert_eq!(mask.len(), 130);
        assert!(!mask.is_empty());
        assert_eq!(mask.set_count(), 0);
        for i in [0, 63, 64, 129] {
            assert!(mask.set(i));
            assert!(mask.is_set(i));
            assert!(!mask.set(i), "second set of {i} is a no-op");
        }
        assert_eq!(mask.set_count(), 4);
        assert!(!mask.is_set(65));
        assert!(mask.clear(64));
        assert!(!mask.clear(64), "second clear is a no-op");
        assert_eq!(mask.set_count(), 3);
        for i in [0, 63, 129] {
            assert!(mask.clear(i));
        }
        assert_eq!(mask.set_count(), 0);
        assert!((0..130).all(|i| !mask.is_set(i)));
    }

    #[test]
    #[should_panic(expected = "mask index")]
    fn mask_out_of_range_panics() {
        let mask = EdgeMask::all_clear(3);
        mask.is_set(3);
    }

    #[test]
    fn shared_flips_match_exclusive_flips() {
        // fetch_set/fetch_clear through &self must agree bit-for-bit
        // with the &mut API, including the changed-bit return values.
        let mut a = EdgeMask::all_clear(130);
        let b = EdgeMask::all_clear(130);
        let same = |a: &EdgeMask, b: &EdgeMask| {
            a.set_count() == b.set_count() && (0..130).all(|i| a.is_set(i) == b.is_set(i))
        };
        for i in [0, 63, 64, 129, 64, 0] {
            assert_eq!(a.set(i), b.fetch_set(i), "set {i}");
        }
        assert!(same(&a, &b));
        for i in [63, 63, 129] {
            assert_eq!(a.clear(i), b.fetch_clear(i), "clear {i}");
        }
        assert!(same(&a, &b));
    }

    #[test]
    fn shared_flips_from_threads_are_exclusive() {
        // Each of 4 threads tries to claim every bit; exactly one
        // claimant per bit may win, and the final set_count is exact
        // once the threads are joined.
        let mask = EdgeMask::all_clear(257);
        let winners: Vec<usize> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| (0..mask.len()).filter(|&i| mask.fetch_set(i)).count()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        assert_eq!(winners.iter().sum::<usize>(), mask.len());
        assert_eq!(mask.set_count(), mask.len());
        assert!((0..mask.len()).all(|i| mask.is_set(i)));
    }
}
