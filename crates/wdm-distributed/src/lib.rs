//! Distributed semilightpath routing for WDM networks.
//!
//! Reproduces Section III-B of Liang & Shen: because the auxiliary graph
//! `G_{s,t}` has *high locality* — every conversion gadget lives entirely
//! inside one physical node — it can be embedded into the control network
//! and searched distributively. This crate provides:
//!
//! * [`sim`] — a deterministic event-driven message-passing simulator
//!   implementing the paper's distributed model (messages only along
//!   physical links, unit latency, free local computation);
//! * [`chandy_misra`] — the Chandy–Misra distributed SSSP primitive with
//!   Dijkstra–Scholten termination detection, on plain weighted graphs:
//!   the Theorem-3 protocol run on the graph as a one-wavelength network;
//! * [`semilightpath`] — the Theorem-3 protocol: embedded gadgets, `O(km)`
//!   messages, `O(kn)` time, plus distributed path tracing. It holds the
//!   crate's one relaxation wave and Dijkstra–Scholten layer;
//! * [`all_pairs`] — the Corollary-2 all-pairs computation within
//!   `O(k²n²)` messages.
//!
//! # Examples
//!
//! ```
//! use wdm_core::{ConversionPolicy, Cost, WdmNetwork};
//! use wdm_distributed::semilightpath::route_distributed;
//! use wdm_graph::DiGraph;
//!
//! let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
//! let net = WdmNetwork::builder(g, 2)
//!     .link_wavelengths(0, [(0, 10)])
//!     .link_wavelengths(1, [(1, 20)])
//!     .conversion(1, ConversionPolicy::Uniform(Cost::new(5)))
//!     .build()
//!     .expect("valid");
//!
//! let outcome = route_distributed(&net, 0.into(), 2.into()).expect("terminates");
//! assert_eq!(outcome.cost, Cost::new(35));
//! assert!(outcome.terminated);            // the source detected termination
//! assert!(outcome.data_messages > 0);     // messages crossed physical links
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod all_pairs;
pub mod chandy_misra;
pub mod semilightpath;
pub mod sim;

pub use all_pairs::{distributed_all_pairs, DistributedAllPairsOutcome};
pub use chandy_misra::{chandy_misra_sssp, chandy_misra_sssp_with_metrics, DistributedSsspOutcome};
pub use semilightpath::{
    distributed_tree, distributed_tree_with_latencies, route_distributed, DistributedRouteOutcome,
    DistributedTraceOutcome, DistributedTreeOutcome, RouteSimError,
};
pub use sim::{SimError, SimStats, SimTime, Simulator};
