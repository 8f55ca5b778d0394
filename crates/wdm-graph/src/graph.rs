//! Compact adjacency-list directed multigraph.

use std::fmt;

/// Identifier of a node in a [`DiGraph`].
///
/// Node ids are dense: a graph with `n` nodes has ids `0..n`.
///
/// # Examples
///
/// ```
/// use wdm_graph::NodeId;
/// let v = NodeId::new(3);
/// assert_eq!(v.index(), 3);
/// assert_eq!(v.to_string(), "v3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit into `u32`.
    pub fn new(index: usize) -> Self {
        let Ok(raw) = u32::try_from(index) else {
            unreachable!("node index {index} does not fit in u32")
        };
        NodeId(raw)
    }

    /// The dense index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a directed link in a [`DiGraph`].
///
/// Link ids are dense in insertion order: a graph with `m` links has ids
/// `0..m`.
///
/// # Examples
///
/// ```
/// use wdm_graph::DiGraph;
/// let mut g = DiGraph::new(2);
/// let e = g.add_link(0, 1);
/// assert_eq!(e.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LinkId(u32);

impl LinkId {
    /// Creates a link id from a dense index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit into `u32`.
    pub fn new(index: usize) -> Self {
        let Ok(raw) = u32::try_from(index) else {
            unreachable!("link index {index} does not fit in u32")
        };
        LinkId(raw)
    }

    /// The dense index of this link.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for LinkId {
    fn from(index: usize) -> Self {
        LinkId::new(index)
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A directed link `⟨tail, head⟩`.
///
/// Following the paper's notation, `tail(e)` is where the link leaves and
/// `head(e)` where it enters: a link `e = ⟨u, v⟩` has `tail(e) = u` and
/// `head(e) = v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Link {
    source: NodeId,
    target: NodeId,
}

impl Link {
    /// The tail (origin) of the link.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// The head (destination) of the link.
    pub fn target(&self) -> NodeId {
        self.target
    }

    /// The paper's `tail(e)` — alias for [`Link::source`].
    pub fn tail(&self) -> NodeId {
        self.source
    }

    /// The paper's `head(e)` — alias for [`Link::target`].
    pub fn head(&self) -> NodeId {
        self.target
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}, {}⟩", self.source, self.target)
    }
}

/// A directed multigraph stored as adjacency lists.
///
/// Nodes are created up front ([`DiGraph::new`]) or appended
/// ([`DiGraph::add_node`]); links are appended with [`DiGraph::add_link`].
/// Parallel links and self-loops are allowed (the WDM model later excludes
/// self-loops at the network level, not here).
///
/// # Examples
///
/// ```
/// use wdm_graph::DiGraph;
///
/// let mut g = DiGraph::new(3);
/// g.add_link(0, 1);
/// g.add_link(0, 2);
/// g.add_link(2, 0);
/// assert_eq!(g.out_degree(0.into()), 2);
/// assert_eq!(g.in_degree(0.into()), 1);
/// assert_eq!(g.max_out_degree(), 2);
/// assert_eq!(g.max_degree(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    links: Vec<Link>,
    out_adj: Vec<Vec<LinkId>>,
    in_adj: Vec<Vec<LinkId>>,
}

impl DiGraph {
    /// Creates a graph with `n` nodes and no links.
    pub fn new(n: usize) -> Self {
        DiGraph {
            links: Vec::new(),
            out_adj: vec![Vec::new(); n],
            in_adj: vec![Vec::new(); n],
        }
    }

    /// Creates a graph with `n` nodes from an iterator of `(tail, head)`
    /// pairs.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    ///
    /// # Examples
    ///
    /// ```
    /// use wdm_graph::DiGraph;
    /// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
    /// assert_eq!(g.link_count(), 2);
    /// ```
    pub fn from_links<I>(n: usize, links: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in links {
            g.add_link(u, v);
        }
        g
    }

    /// Creates a graph with `n` nodes where every undirected edge `(u, v)`
    /// becomes the two directed links `⟨u, v⟩` and `⟨v, u⟩` — the paper's
    /// convention for modelling undirected fibre.
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= n`.
    pub fn from_undirected_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
    {
        let mut g = DiGraph::new(n);
        for (u, v) in edges {
            g.add_link(u, v);
            g.add_link(v, u);
        }
        g
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.out_adj.len()
    }

    /// Number of directed links `m`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.out_adj.is_empty()
    }

    /// Appends a new isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        NodeId::new(self.out_adj.len() - 1)
    }

    /// Appends the directed link `⟨source, target⟩` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not a node of this graph.
    pub fn add_link(&mut self, source: impl Into<NodeId>, target: impl Into<NodeId>) -> LinkId {
        let (source, target) = (source.into(), target.into());
        assert!(
            source.index() < self.node_count(),
            "source {source} out of range"
        );
        assert!(
            target.index() < self.node_count(),
            "target {target} out of range"
        );
        let id = LinkId::new(self.links.len());
        self.links.push(Link { source, target });
        self.out_adj[source.index()].push(id);
        self.in_adj[target.index()].push(id);
        id
    }

    /// The link with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn link(&self, id: LinkId) -> Link {
        self.links[id.index()]
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over `(LinkId, Link)` in insertion order.
    pub fn links(&self) -> impl ExactSizeIterator<Item = (LinkId, Link)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &l)| (LinkId::new(i), l))
    }

    /// The ids of links leaving `v` — the paper's `E_out(G, v)`.
    pub fn out_links(&self, v: NodeId) -> &[LinkId] {
        &self.out_adj[v.index()]
    }

    /// The ids of links entering `v` — the paper's `E_in(G, v)`.
    pub fn in_links(&self, v: NodeId) -> &[LinkId] {
        &self.in_adj[v.index()]
    }

    /// Out-degree `d_out(G, v)`.
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.out_adj[v.index()].len()
    }

    /// In-degree `d_in(G, v)`.
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.in_adj[v.index()].len()
    }

    /// Maximum out-degree `d_out` over all nodes (0 for an empty graph).
    pub fn max_out_degree(&self) -> usize {
        self.out_adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Maximum in-degree `d_in` over all nodes (0 for an empty graph).
    pub fn max_in_degree(&self) -> usize {
        self.in_adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// The paper's maximum degree `d = max{d_in, d_out}`.
    pub fn max_degree(&self) -> usize {
        self.max_in_degree().max(self.max_out_degree())
    }

    /// Returns `true` if a directed link `⟨u, v⟩` exists.
    pub fn has_link(&self, u: NodeId, v: NodeId) -> bool {
        self.out_adj[u.index()]
            .iter()
            .any(|&e| self.links[e.index()].target == v)
    }

    /// All link ids from `u` to `v` (there may be several: multigraph).
    pub fn links_between(&self, u: NodeId, v: NodeId) -> Vec<LinkId> {
        self.out_adj[u.index()]
            .iter()
            .copied()
            .filter(|&e| self.links[e.index()].target == v)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let g = DiGraph::new(0);
        assert!(g.is_empty());
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.link_count(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    fn degrees_sum_to_link_count() {
        let g = DiGraph::from_links(4, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 0), (0, 3)]);
        let m = g.link_count();
        let in_sum: usize = g.nodes().map(|v| g.in_degree(v)).sum();
        let out_sum: usize = g.nodes().map(|v| g.out_degree(v)).sum();
        // The paper's identity: Σ d_in = Σ d_out = m.
        assert_eq!(in_sum, m);
        assert_eq!(out_sum, m);
    }

    #[test]
    fn parallel_links_are_kept() {
        let mut g = DiGraph::new(2);
        let e1 = g.add_link(0, 1);
        let e2 = g.add_link(0, 1);
        assert_ne!(e1, e2);
        assert_eq!(g.links_between(0.into(), 1.into()), vec![e1, e2]);
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn undirected_construction_doubles_links() {
        let g = DiGraph::from_undirected_edges(3, [(0, 1), (1, 2)]);
        assert_eq!(g.link_count(), 4);
        assert!(g.has_link(0.into(), 1.into()));
        assert!(g.has_link(1.into(), 0.into()));
        assert!(!g.has_link(0.into(), 2.into()));
    }

    #[test]
    fn adjacency_is_consistent_with_link_endpoints() {
        let g = DiGraph::from_links(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        for v in g.nodes() {
            for &e in g.out_links(v) {
                assert_eq!(g.link(e).source(), v);
            }
            for &e in g.in_links(v) {
                assert_eq!(g.link(e).target(), v);
            }
        }
    }

    #[test]
    fn head_tail_aliases() {
        let g = DiGraph::from_links(2, [(0, 1)]);
        let l = g.link(LinkId::new(0));
        assert_eq!(l.tail(), l.source());
        assert_eq!(l.head(), l.target());
        assert_eq!(l.to_string(), "⟨v0, v1⟩");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn add_link_validates_endpoints() {
        let mut g = DiGraph::new(1);
        g.add_link(0, 1);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = DiGraph::new(1);
        let v = g.add_node();
        assert_eq!(v.index(), 1);
        g.add_link(0, v);
        assert_eq!(g.in_degree(v), 1);
    }
}
