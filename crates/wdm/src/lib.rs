//! Optimal lightpath/semilightpath routing in large WDM networks.
//!
//! This umbrella crate bundles the full reproduction of Liang & Shen,
//! *Improved Lightpath (Wavelength) Routing in Large WDM Networks*:
//!
//! * [`graph`] — the directed-graph substrate, WAN topology generators,
//!   and reference backbone networks;
//! * [`core`] — the WDM network model, the paper's layered-graph routing
//!   algorithm (Theorem 1), the all-pairs variant (Corollary 1), the
//!   Theorem-2 restrictions, and the Chlamtac–Faragó–Zhang baseline;
//! * [`distributed`] — the message-passing simulator and the distributed
//!   protocols of Theorem 3 / Corollary 2;
//! * [`heaps`] — the priority-queue substrate (Fibonacci, binary, array)
//!   behind the solvers.
//!
//! The most common items are re-exported at the crate root and in
//! [`prelude`].
//!
//! # Examples
//!
//! ```
//! use wdm::prelude::*;
//!
//! // Route across NSFNET with 4 wavelengths.
//! let mut rng: rand::rngs::SmallRng = rand::SeedableRng::seed_from_u64(7);
//! let net = wdm::core::instance::random_network(
//!     wdm::graph::topology::nsfnet(),
//!     &wdm::core::instance::InstanceConfig::standard(4),
//!     &mut rng,
//! )?;
//! let result = LiangShenRouter::new().route(&net, 0.into(), 10.into())?;
//! if let Some(path) = &result.path {
//!     path.validate(&net)?;
//!     println!("optimal cost {}", path.cost());
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use wdm_core as core;
pub use wdm_distributed as distributed;
pub use wdm_graph as graph;
pub use wdm_rwa as rwa;

/// Priority-queue substrate (re-export of the `heaps` crate).
pub mod heaps {
    pub use heaps::*;
}

pub use wdm_core::{
    disjoint_semilightpath_pair, find_optimal_semilightpath, k_shortest_semilightpaths, AllPairs,
    AllPairsPaths, AuxiliaryGraph, CfzRouter, ConversionMatrix, ConversionPolicy, Cost,
    DisjointPair, Disjointness, HeapKind, Hop, LiangShenRouter, RouteResult, Semilightpath,
    SemilightpathTree, Wavelength, WavelengthSet, WdmError, WdmNetwork,
};
pub use wdm_distributed::{distributed_all_pairs, distributed_tree, route_distributed};
pub use wdm_graph::{DiGraph, LinkId, NodeId};

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::core::instance::{Availability, ConversionSpec, InstanceConfig};
    pub use crate::core::restrictions;
    pub use crate::graph::{metrics, topology};
    pub use crate::{
        disjoint_semilightpath_pair, find_optimal_semilightpath, k_shortest_semilightpaths,
        route_distributed, AllPairs, CfzRouter, ConversionPolicy, Cost, DiGraph, Disjointness,
        HeapKind, LiangShenRouter, NodeId, Semilightpath, Wavelength, WdmNetwork,
    };
}
