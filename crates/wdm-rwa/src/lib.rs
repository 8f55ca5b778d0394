//! Dynamic routing and wavelength assignment (RWA) on top of the optimal
//! semilightpath router.
//!
//! The paper's introduction motivates semilightpaths with the online
//! circuit-switching problem: connection requests arrive over time, each
//! accepted connection occupies one wavelength on every link of its path
//! until released, and requests that cannot be routed with the remaining
//! resources are *blocked*. This crate turns that scenario into a library:
//!
//! * [`concurrent`] — the engine: optimistic seqlock transactions over
//!   one shared [`wdm_core::ResidualState`], routed by a masked search
//!   through an in-place busy mask instead of rebuilding the auxiliary
//!   graph per request. It is the only implementation of provision,
//!   release, fail_link, restore_link and set_converter, of blocked-cause
//!   classification, and of the engine's metrics and tracing;
//! * [`ProvisioningEngine`] — the `&mut self` single-caller API: a
//!   wrapper that owns one [`ConcurrentHandle`] over a private one-shard
//!   [`ConcurrentEngine`];
//! * [`Policy`] — how a request is routed: the paper's optimal
//!   semilightpath, pure lightpath routing (no conversion), or the classic
//!   first-fit wavelength assignment baseline;
//! * [`workload`] — static and Poisson arrival/holding workload
//!   generators;
//! * [`simulate`] — an event-driven arrival/departure loop producing
//!   [`BlockingStats`].
//!
//! The rebuild-per-request reference the engine is checked against is
//! not here: it is the test-only `SpecEngine` of the `wdm-conformance`
//! crate, which shares no code with the transactions it checks.
//!
//! # Observability
//!
//! [`ConcurrentEngine::attach_metrics`] (and
//! [`ProvisioningEngine::attach_metrics`]) wires an engine into a
//! [`wdm_obs::MetricsRegistry`], write-once:
//!
//! * `wdm_rwa_requests_total` — one per decided provision, fibre-cut
//!   restorations included. Always `requests_total == accepted_total +
//!   blocked_total{cause="no_path"} + blocked_total{cause="capacity"}`;
//!   a request abandoned as `contended` counts in none of them;
//! * `wdm_rwa_accepted_total`, `wdm_rwa_blocked_total{cause=…}` — the
//!   verdicts, blocked split by cause as in
//!   [`ProvisioningEngine::blocked_by_cause`];
//! * `wdm_rwa_released_total` — releases plus fibre-cut teardowns;
//! * `wdm_rwa_provision_latency_ns` (one sample per decided request, so
//!   its count equals `requests_total`), `wdm_rwa_release_latency_ns`
//!   (one per counted release), `wdm_rwa_fail_link_latency_ns` and
//!   `wdm_rwa_restore_link_latency_ns` (one per call, no-ops included);
//! * `wdm_rwa_mask_flips_total` — effective busy-bit transitions:
//!   commits, releases, teardowns, cut markers and repairs;
//! * `wdm_rwa_active_connections`, `wdm_rwa_occupied_resources` and
//!   `wdm_rwa_link_occupancy{link="i"}` — gauges; the per-link values
//!   sum to `occupied_resources`, which counts cut markers;
//! * `wdm_core_search_*_total` — search-kernel work of every routing
//!   attempt (retries and restorations included); blocked-cause probes
//!   are excluded.
//!
//! A detached engine pays one branch per operation; an attached one a
//! few relaxed atomics.
//!
//! # Examples
//!
//! ```
//! use wdm_rwa::{Policy, ProvisioningEngine};
//! use wdm_core::{ConversionPolicy, WdmNetwork};
//! use wdm_graph::DiGraph;
//!
//! let g = DiGraph::from_links(3, [(0, 1), (1, 2)]);
//! let base = WdmNetwork::builder(g, 2)
//!     .link_wavelengths(0, [(0, 10), (1, 10)])
//!     .link_wavelengths(1, [(0, 10), (1, 10)])
//!     .uniform_conversion(ConversionPolicy::Free)
//!     .build()?;
//! let mut engine = ProvisioningEngine::new(&base);
//!
//! let c1 = engine.provision(0.into(), 2.into(), Policy::Optimal)?;
//! let c2 = engine.provision(0.into(), 2.into(), Policy::Optimal)?;
//! // Both wavelengths now busy end-to-end: the third request blocks.
//! assert!(engine.provision(0.into(), 2.into(), Policy::Optimal).is_err());
//! engine.release(c1)?;
//! assert!(engine.provision(0.into(), 2.into(), Policy::Optimal).is_ok());
//! # drop(c2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod concurrent;
mod engine;
mod metrics;
mod policy;
mod stats;
/// Synthetic request/workload generators (Poisson arrivals, hotspots,
/// failure scenarios).
pub mod workload;

pub use concurrent::{ConcurrentEngine, ConcurrentHandle, RaceInjection};
pub use engine::{ConnectionId, ProvisioningEngine, RoutingMode, RwaError};
pub use metrics::BlockCause;
pub use policy::Policy;
pub use stats::{simulate, BlockingStats};
