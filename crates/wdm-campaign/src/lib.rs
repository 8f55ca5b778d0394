//! Monte-Carlo blocking campaigns over the provisioning engine.
//!
//! The paper's analysis is stated in terms of routing cost, but the
//! operational question for a WDM operator is *blocking probability*:
//! what fraction of dynamic lightpath requests find no acceptable
//! route? This crate answers it empirically, the way the simulation
//! literature around Liang & Shen does — Poisson arrivals with
//! exponential holding times replayed through the repo's
//! [`wdm_rwa::ProvisioningEngine`] by [`wdm_rwa::Replay`], the loop
//! behind [`wdm_rwa::simulate`], swept over Erlang load × wavelength
//! count × converter density on the five reference WANs
//! ([`wdm_graph::topology::ReferenceTopology`]). A replica's counts are
//! a [`wdm_rwa::BlockingStats`]; a sweep point sums its replicas with
//! [`wdm_rwa::BlockingStats::add`].
//!
//! Three design rules keep campaigns trustworthy:
//!
//! 1. **Replayable parallelism.** Every (sweep-point, replica) job gets
//!    its own RNG stream derived in O(1) from the campaign seed and the
//!    job's fixed index ([`rand::rngs::stream_seed`]); workers claim
//!    job indices from an atomic counter and write into per-job slots,
//!    and aggregation walks the slots in index order. The result is
//!    bit-identical for any worker count, so `--threads` is purely a
//!    wall-clock knob.
//! 2. **Cause-split accounting.** Blocked requests are split into
//!    no-path vs capacity by the engine's memoized classifier
//!    ([`wdm_rwa::BlockCause`]), read per request by the replay,
//!    because the split is what tells an operator whether more
//!    wavelengths (capacity) or more converters / fibres (no-path)
//!    would have helped.
//! 3. **Closed-form anchoring.** On a two-node instance the simulated
//!    blocking must reproduce the Erlang-B loss formula
//!    ([`erlang::erlang_b`]); the test suite pins that, so estimator
//!    bugs can't hide behind topology complexity.
//!
//! The [`placer`] module turns the campaign around: given a converter
//! budget `B`, greedily place converters (via the engine's runtime
//! [`wdm_rwa::ProvisioningEngine::set_converter`]) to minimize blocking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod erlang;
pub mod placer;
pub mod runner;
pub mod sim;

pub use config::CampaignConfig;
pub use erlang::erlang_b;
pub use placer::{e18_placement_record, place_converters, Placement, PlacerConfig};
pub use runner::{build_wan, converter_nodes, e18_record, run_campaign, PointResult};
pub use sim::run_replica;
