//! The WDM network instance: graph + wavelength availability + cost
//! structure.

use crate::{ConversionPolicy, Cost, Wavelength, WavelengthSet, WdmError};
use wdm_graph::{DiGraph, LinkId, NodeId};

/// The wavelengths available on one link, with their traversal costs.
///
/// This is the paper's `Λ(e)` together with `w(e, λ)` for `λ ∈ Λ(e)`;
/// wavelengths not listed have `w(e, λ) = ∞`. Entries are kept sorted by
/// wavelength.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkWavelengths {
    entries: Vec<(Wavelength, Cost)>,
}

impl LinkWavelengths {
    /// Builds from `(wavelength, cost)` pairs; sorts by wavelength.
    fn from_entries(mut entries: Vec<(Wavelength, Cost)>) -> Self {
        entries.sort_by_key(|&(w, _)| w);
        LinkWavelengths { entries }
    }

    /// Number of available wavelengths `|Λ(e)|`.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no wavelength is available on the link.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates `(λ, w(e, λ))` in increasing wavelength order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Wavelength, Cost)> + '_ {
        self.entries.iter().copied()
    }

    /// The `(λ, w(e, λ))` entries in increasing wavelength order.
    pub(crate) fn as_slice(&self) -> &[(Wavelength, Cost)] {
        &self.entries
    }

    /// The traversal cost `w(e, λ)`, or [`Cost::INFINITY`] if `λ ∉ Λ(e)`.
    pub fn cost(&self, wavelength: Wavelength) -> Cost {
        match self.entries.binary_search_by_key(&wavelength, |&(w, _)| w) {
            Ok(i) => self.entries[i].1,
            Err(_) => Cost::INFINITY,
        }
    }

    /// Membership test `λ ∈ Λ(e)`.
    pub fn contains(&self, wavelength: Wavelength) -> bool {
        self.cost(wavelength).is_finite()
    }
}

/// A complete WDM network instance `(G, Λ, w, c)`.
///
/// Combines the physical directed graph, the global wavelength count `k`,
/// the per-link availability sets `Λ(e)` with costs `w(e, λ)`, and the
/// per-node conversion functions `c_v`. Instances are immutable once built;
/// construct them through [`WdmNetworkBuilder`].
///
/// # Examples
///
/// ```
/// use wdm_core::{Cost, ConversionPolicy, WdmNetwork, Wavelength};
/// use wdm_graph::DiGraph;
///
/// let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
/// let net = WdmNetwork::builder(g, 2)
///     .link_wavelengths(0, [(0, 5)])
///     .link_wavelengths(1, [(1, 7)])
///     .conversion(1, ConversionPolicy::Uniform(Cost::new(1)))
///     .build()?;
/// assert_eq!(net.k(), 2);
/// assert_eq!(net.wavelengths_on(0.into()).len(), 1);
/// # Ok::<(), wdm_core::WdmError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WdmNetwork {
    graph: DiGraph,
    k: usize,
    links: Vec<LinkWavelengths>,
    conversion: Vec<ConversionPolicy>,
}

impl WdmNetwork {
    /// Starts building a network over `graph` with `k` wavelengths.
    pub fn builder(graph: DiGraph, k: usize) -> WdmNetworkBuilder {
        WdmNetworkBuilder::new(graph, k)
    }

    /// The physical graph `G`.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links `m`.
    pub fn link_count(&self) -> usize {
        self.graph.link_count()
    }

    /// The global wavelength count `k = |Λ|`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The paper's `k0`: the maximum `|Λ(e)|` over all links
    /// (0 for a linkless network).
    pub fn k0(&self) -> usize {
        self.links
            .iter()
            .map(LinkWavelengths::len)
            .max()
            .unwrap_or(0)
    }

    /// Total number of (link, wavelength) pairs
    /// `m₁ = Σ_e |Λ(e)|` — the size of the multigraph `G_M`'s link set.
    pub fn multigraph_link_count(&self) -> usize {
        self.links.iter().map(LinkWavelengths::len).sum()
    }

    /// The availability/cost table of one link.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn wavelengths_on(&self, link: LinkId) -> &LinkWavelengths {
        &self.links[link.index()]
    }

    /// Traversal cost `w(e, λ)` (∞ when unavailable).
    pub fn link_cost(&self, link: LinkId, wavelength: Wavelength) -> Cost {
        self.links[link.index()].cost(wavelength)
    }

    /// The conversion policy of one node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn conversion_at(&self, node: NodeId) -> &ConversionPolicy {
        &self.conversion[node.index()]
    }

    /// Replaces the conversion policy of one node, returning the
    /// previous policy.
    ///
    /// This is the runtime converter-placement mutation: the network's
    /// topology and link wavelengths are immutable after
    /// [`build`](WdmNetworkBuilder::build), but conversion capability
    /// may be added or removed at a node (e.g. by a sparse-converter
    /// placer). Structures derived from this network — auxiliary
    /// graphs, residual states — bake conversion gadgets in at
    /// construction and must be rebuilt after this call.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_conversion_at(
        &mut self,
        node: NodeId,
        policy: ConversionPolicy,
    ) -> ConversionPolicy {
        std::mem::replace(&mut self.conversion[node.index()], policy)
    }

    /// Conversion cost `c_v(from, to)` at `node`.
    pub fn conversion_cost(&self, node: NodeId, from: Wavelength, to: Wavelength) -> Cost {
        self.conversion[node.index()].cost(from, to)
    }

    /// The paper's `Λ_in(G_M, v)`: wavelengths carried by some incoming
    /// link of `v`.
    pub fn lambda_in(&self, v: NodeId) -> WavelengthSet {
        let mut s = WavelengthSet::empty(self.k);
        for &e in self.graph.in_links(v) {
            for (w, _) in self.links[e.index()].iter() {
                s.insert(w);
            }
        }
        s
    }

    /// The paper's `Λ_out(G_M, v)`: wavelengths carried by some outgoing
    /// link of `v`.
    pub fn lambda_out(&self, v: NodeId) -> WavelengthSet {
        let mut s = WavelengthSet::empty(self.k);
        for &e in self.graph.out_links(v) {
            for (w, _) in self.links[e.index()].iter() {
                s.insert(w);
            }
        }
        s
    }

    /// The cheapest link cost `min { w(e, λ) }` over all links and
    /// available wavelengths, or `None` for a network without any
    /// (link, wavelength) pair. Used by Restriction 2.
    pub fn min_link_cost(&self) -> Option<Cost> {
        self.links
            .iter()
            .flat_map(|lw| lw.iter().map(|(_, c)| c))
            .min()
    }

    /// A copy of this network keeping only the (link, wavelength) pairs
    /// for which `keep` returns `true` (topology, costs, and conversion
    /// policies are preserved).
    ///
    /// This is the residual-network operation used by provisioning
    /// engines (drop busy resources) and protection heuristics (drop a
    /// primary path's links).
    ///
    /// # Examples
    ///
    /// ```
    /// use wdm_core::{Wavelength, WdmNetwork};
    /// use wdm_graph::DiGraph;
    ///
    /// let g = DiGraph::from_links(2, [(0, 1)]);
    /// let net = WdmNetwork::builder(g, 2)
    ///     .link_wavelengths(0, [(0, 5), (1, 7)])
    ///     .build()?;
    /// let only_l1 = net.restrict(|_, w| w == Wavelength::new(1));
    /// assert_eq!(only_l1.wavelengths_on(0.into()).len(), 1);
    /// assert_eq!(only_l1.k(), 2); // universe unchanged
    /// # Ok::<(), wdm_core::WdmError>(())
    /// ```
    pub fn restrict<F>(&self, mut keep: F) -> WdmNetwork
    where
        F: FnMut(LinkId, Wavelength) -> bool,
    {
        let links = self
            .links
            .iter()
            .enumerate()
            .map(|(i, lw)| {
                let link = LinkId::new(i);
                LinkWavelengths {
                    entries: lw.iter().filter(|&(w, _)| keep(link, w)).collect(),
                }
            })
            .collect();
        WdmNetwork {
            graph: self.graph.clone(),
            k: self.k,
            links,
            conversion: self.conversion.clone(),
        }
    }
}

/// Incremental builder for [`WdmNetwork`].
///
/// Links start with *no* available wavelengths and nodes with
/// [`ConversionPolicy::Forbidden`]; set what the instance needs and call
/// [`WdmNetworkBuilder::build`].
#[derive(Debug, Clone)]
pub struct WdmNetworkBuilder {
    graph: DiGraph,
    k: usize,
    links: Vec<Vec<(Wavelength, Cost)>>,
    conversion: Vec<ConversionPolicy>,
    error: Option<WdmError>,
}

impl WdmNetworkBuilder {
    /// Creates a builder over `graph` with `k` wavelengths.
    pub fn new(graph: DiGraph, k: usize) -> Self {
        let m = graph.link_count();
        let n = graph.node_count();
        WdmNetworkBuilder {
            graph,
            k,
            links: vec![Vec::new(); m],
            conversion: vec![ConversionPolicy::Forbidden; n],
            error: None,
        }
    }

    /// Declares the wavelengths available on `link` with their costs,
    /// replacing any previous declaration. Costs are plain integers for
    /// convenience.
    pub fn link_wavelengths<L, I>(mut self, link: L, entries: I) -> Self
    where
        L: Into<LinkId>,
        I: IntoIterator<Item = (usize, u64)>,
    {
        let link = link.into();
        if link.index() >= self.links.len() {
            self.error.get_or_insert(WdmError::LinkOutOfRange {
                link,
                m: self.links.len(),
            });
            return self;
        }
        self.links[link.index()] = entries
            .into_iter()
            .map(|(w, c)| (Wavelength::new(w), Cost::new(c)))
            .collect();
        self
    }

    /// Declares the wavelengths on `link` using typed entries.
    pub fn link_wavelengths_typed<L>(mut self, link: L, entries: Vec<(Wavelength, Cost)>) -> Self
    where
        L: Into<LinkId>,
    {
        let link = link.into();
        if link.index() >= self.links.len() {
            self.error.get_or_insert(WdmError::LinkOutOfRange {
                link,
                m: self.links.len(),
            });
            return self;
        }
        self.links[link.index()] = entries;
        self
    }

    /// Sets the conversion policy of `node`.
    pub fn conversion<N: Into<NodeId>>(mut self, node: N, policy: ConversionPolicy) -> Self {
        let node = node.into();
        if node.index() >= self.conversion.len() {
            self.error.get_or_insert(WdmError::NodeOutOfRange {
                node,
                n: self.conversion.len(),
            });
            return self;
        }
        self.conversion[node.index()] = policy;
        self
    }

    /// Sets the same conversion policy on every node.
    pub fn uniform_conversion(mut self, policy: ConversionPolicy) -> Self {
        for slot in &mut self.conversion {
            *slot = policy.clone();
        }
        self
    }

    /// Validates and produces the immutable network.
    ///
    /// # Errors
    ///
    /// * [`WdmError::NoWavelengths`] if `k == 0`;
    /// * [`WdmError::WavelengthOutOfRange`] if any link declares `λ >= k`;
    /// * [`WdmError::DuplicateWavelength`] if a link declares a wavelength
    ///   twice;
    /// * [`WdmError::LinkOutOfRange`] / [`WdmError::NodeOutOfRange`] if an
    ///   earlier builder call referenced a missing link/node.
    pub fn build(self) -> Result<WdmNetwork, WdmError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if self.k == 0 {
            return Err(WdmError::NoWavelengths);
        }
        let mut links = Vec::with_capacity(self.links.len());
        for (i, raw) in self.links.into_iter().enumerate() {
            let link = LinkId::new(i);
            let mut seen = WavelengthSet::empty(self.k);
            for &(w, _) in &raw {
                if w.index() >= self.k {
                    return Err(WdmError::WavelengthOutOfRange {
                        wavelength: w,
                        k: self.k,
                    });
                }
                if !seen.insert(w) {
                    return Err(WdmError::DuplicateWavelength {
                        link,
                        wavelength: w,
                    });
                }
            }
            links.push(LinkWavelengths::from_entries(raw));
        }
        Ok(WdmNetwork {
            graph: self.graph,
            k: self.k,
            links,
            conversion: self.conversion,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_graph() -> DiGraph {
        DiGraph::from_links(3, [(0, 1), (1, 2), (2, 0)])
    }

    #[test]
    fn builder_produces_consistent_network() {
        let net = WdmNetwork::builder(simple_graph(), 3)
            .link_wavelengths(0, [(0, 10), (2, 20)])
            .link_wavelengths(1, [(1, 5)])
            .conversion(1, ConversionPolicy::Free)
            .build()
            .expect("valid");
        assert_eq!(net.k(), 3);
        assert_eq!(net.k0(), 2);
        assert_eq!(net.multigraph_link_count(), 3);
        assert_eq!(
            net.link_cost(LinkId::new(0), Wavelength::new(0)),
            Cost::new(10)
        );
        assert_eq!(
            net.link_cost(LinkId::new(0), Wavelength::new(1)),
            Cost::INFINITY
        );
        assert_eq!(net.min_link_cost(), Some(Cost::new(5)));
    }

    #[test]
    fn entries_are_sorted_regardless_of_input_order() {
        let net = WdmNetwork::builder(simple_graph(), 4)
            .link_wavelengths(0, [(3, 1), (0, 2), (2, 3)])
            .build()
            .expect("valid");
        let order: Vec<usize> = net
            .wavelengths_on(LinkId::new(0))
            .iter()
            .map(|(w, _)| w.index())
            .collect();
        assert_eq!(order, vec![0, 2, 3]);
    }

    #[test]
    fn lambda_in_and_out() {
        // links: 0: 0→1 {λ0}, 1: 1→2 {λ1}, 2: 2→0 {λ0, λ2}
        let net = WdmNetwork::builder(simple_graph(), 3)
            .link_wavelengths(0, [(0, 1)])
            .link_wavelengths(1, [(1, 1)])
            .link_wavelengths(2, [(0, 1), (2, 1)])
            .build()
            .expect("valid");
        let n1 = NodeId::new(1);
        let lin: Vec<usize> = net.lambda_in(n1).iter().map(|w| w.index()).collect();
        let lout: Vec<usize> = net.lambda_out(n1).iter().map(|w| w.index()).collect();
        assert_eq!(lin, vec![0]);
        assert_eq!(lout, vec![1]);
        let n0 = NodeId::new(0);
        let lin0: Vec<usize> = net.lambda_in(n0).iter().map(|w| w.index()).collect();
        assert_eq!(lin0, vec![0, 2]);
    }

    #[test]
    fn zero_wavelengths_rejected() {
        assert_eq!(
            WdmNetwork::builder(simple_graph(), 0).build().unwrap_err(),
            WdmError::NoWavelengths
        );
    }

    #[test]
    fn out_of_range_wavelength_rejected() {
        let err = WdmNetwork::builder(simple_graph(), 2)
            .link_wavelengths(0, [(5, 1)])
            .build()
            .unwrap_err();
        assert!(matches!(err, WdmError::WavelengthOutOfRange { .. }));
    }

    #[test]
    fn duplicate_wavelength_rejected() {
        let err = WdmNetwork::builder(simple_graph(), 2)
            .link_wavelengths(0, [(1, 1), (1, 2)])
            .build()
            .unwrap_err();
        assert!(matches!(err, WdmError::DuplicateWavelength { .. }));
    }

    #[test]
    fn bad_link_reference_rejected() {
        let err = WdmNetwork::builder(simple_graph(), 2)
            .link_wavelengths(9, [(0, 1)])
            .build()
            .unwrap_err();
        assert!(matches!(err, WdmError::LinkOutOfRange { .. }));
    }

    #[test]
    fn bad_node_reference_rejected() {
        let err = WdmNetwork::builder(simple_graph(), 2)
            .conversion(7, ConversionPolicy::Free)
            .build()
            .unwrap_err();
        assert!(matches!(err, WdmError::NodeOutOfRange { .. }));
    }

    #[test]
    fn uniform_conversion_applies_everywhere() {
        let net = WdmNetwork::builder(simple_graph(), 2)
            .uniform_conversion(ConversionPolicy::Free)
            .build()
            .expect("valid");
        for v in 0..3 {
            assert_eq!(*net.conversion_at(NodeId::new(v)), ConversionPolicy::Free);
        }
    }

    #[test]
    fn restrict_filters_resources_preserving_everything_else() {
        let net = WdmNetwork::builder(simple_graph(), 3)
            .link_wavelengths(0, [(0, 10), (1, 11), (2, 12)])
            .link_wavelengths(1, [(1, 5)])
            .conversion(1, ConversionPolicy::Free)
            .build()
            .expect("valid");
        // Drop λ1 everywhere.
        let r = net.restrict(|_, w| w.index() != 1);
        assert_eq!(r.k(), 3);
        assert_eq!(r.wavelengths_on(LinkId::new(0)).len(), 2);
        assert!(r.wavelengths_on(LinkId::new(1)).is_empty());
        assert_eq!(
            r.link_cost(LinkId::new(0), Wavelength::new(2)),
            Cost::new(12)
        );
        assert_eq!(*r.conversion_at(NodeId::new(1)), ConversionPolicy::Free);
        assert_eq!(r.graph().link_count(), net.graph().link_count());
        // Keep-everything restriction is the identity.
        assert_eq!(net.restrict(|_, _| true), net);
    }

    #[test]
    fn empty_links_allowed() {
        let net = WdmNetwork::builder(simple_graph(), 2)
            .build()
            .expect("valid");
        assert_eq!(net.k0(), 0);
        assert_eq!(net.multigraph_link_count(), 0);
        assert_eq!(net.min_link_cost(), None);
        assert!(net.wavelengths_on(LinkId::new(0)).is_empty());
    }
}
