//! Optimal lightpath/semilightpath routing in WDM networks.
//!
//! This crate reproduces the algorithmic contribution of Liang & Shen,
//! *Improved Lightpath (Wavelength) Routing in Large WDM Networks*: finding
//! a minimum-cost transmission path between two nodes of a
//! wavelength-division-multiplexed optical network, where the cost counts
//! both per-wavelength link traversals `w(e, λ)` and wavelength conversions
//! `c_v(λp, λq)` at intermediate nodes (Equation 1 of the paper).
//!
//! # The model
//!
//! * [`WdmNetwork`] — a directed graph with per-link availability sets
//!   `Λ(e)`, per-(link, wavelength) costs, and per-node
//!   [`ConversionPolicy`] functions;
//! * [`Semilightpath`] — a link sequence with a wavelength assigned per
//!   link; a *lightpath* is the conversion-free special case.
//!
//! # The algorithms
//!
//! * [`LiangShenRouter`] — the paper's layered-graph algorithm
//!   (Theorem 1): builds the auxiliary graph `G_{s,t}`
//!   ([`AuxiliaryGraph`]) and runs Fibonacci-heap Dijkstra, in
//!   `O(k²n + km + kn·log(kn))`; also single-source trees and, with the
//!   Section-IV bounded-availability instances, the `k`-independent
//!   `O(d²nk0² + mk0·log n)` behaviour (Theorem 4) — the same code path,
//!   automatically faster because the construction only materializes
//!   wavelengths that occur.
//! * [`AllPairs`] — Corollary 1's all-pairs variant over `G_all`.
//! * [`CfzRouter`] — the Chlamtac–Faragó–Zhang baseline on the `kn`-node
//!   wavelength graph, as compared against in Section III-C.
//! * [`restrictions`] — Restrictions 1–2 and the Theorem-2 node-simplicity
//!   guarantee.
//!
//! # Quick start
//!
//! ```
//! use wdm_core::{find_optimal_semilightpath, ConversionPolicy, Cost, WdmNetwork};
//! use wdm_graph::DiGraph;
//!
//! // A 3-node chain where the wavelength must change at node 1.
//! let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
//! let net = WdmNetwork::builder(g, 2)
//!     .link_wavelengths(0, [(0, 10)])            // link 0 carries λ0 at cost 10
//!     .link_wavelengths(1, [(1, 20)])            // link 1 carries λ1 at cost 20
//!     .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
//!     .build()?;
//!
//! let path = find_optimal_semilightpath(&net, 0.into(), 2.into())?.expect("reachable");
//! assert_eq!(path.cost(), Cost::new(35)); // 10 + 5 (conversion) + 20
//! assert_eq!(path.conversion_count(), 1);
//! path.validate(&net)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod all_pairs;
/// Workload analytics (conversion placement, wavelength pressure) over
/// optimal routes.
pub mod analysis;
mod auxiliary;
mod cfz;
mod conversion;
mod cost;
/// Compressed-sparse-row auxiliary-graph storage and edge masks.
pub mod csr;
/// Dijkstra variants (heap-generic, workspace, masked) over CSR graphs.
pub mod dijkstra;
mod error;
/// Successive-shortest-path min-cost flow on auxiliary graphs.
pub mod flow;
/// Random instance generation for tests and experiments.
pub mod instance;
mod k_shortest;
mod liang_shen;
mod network;
/// The worked 7-node example instance from the paper (Fig. 1–2).
pub mod paper_example;
/// Independent state-space reference solver used as a test oracle.
pub mod reference;
mod residual;
/// Restriction 1/2 predicates gating the paper's fast paths.
pub mod restrictions;
mod route;
mod survivability;
/// Plain-text `.wdm` instance serialization.
pub mod textfmt;
mod wavelength;

pub use all_pairs::{AllPairs, AllPairsPaths};
pub use auxiliary::{AuxNodeKind, AuxStats, AuxiliaryGraph};
pub use cfz::CfzRouter;
pub use conversion::{ConversionMatrix, ConversionPolicy};
pub use cost::Cost;
pub use dijkstra::{
    dijkstra, dijkstra_masked, dijkstra_with, Potential, SearchKey, SearchStats, ShortestPathTree,
    Unguided,
};
pub use error::{RouteError, WdmError};
pub use k_shortest::k_shortest_semilightpaths;
pub use liang_shen::{find_optimal_semilightpath, LiangShenRouter, RouteResult, SemilightpathTree};
pub use network::{LinkWavelengths, WdmNetwork, WdmNetworkBuilder};
pub use residual::{AcquireOutcome, ResidualState, SearchScratch};
pub use route::{Hop, Semilightpath};
pub use survivability::{disjoint_semilightpath_pair, DisjointPair, Disjointness};
pub use wavelength::{Wavelength, WavelengthSet};

// Re-export the heap selector so callers don't need a direct `heaps`
// dependency to configure routers.
pub use heaps::HeapKind;
