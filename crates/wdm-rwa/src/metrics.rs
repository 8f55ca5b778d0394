//! Engine-side metric handles: the `Arc`'d instruments the provisioning
//! hot path mutates, resolved once from a [`MetricsRegistry`].
//!
//! The engine keeps its `EngineMetrics` in a write-once cell; while it
//! is empty (the default) the hot path pays a single branch per
//! operation and nothing else. When attached, each mutation is a
//! relaxed atomic — no locks, no allocation, no formatting — so masked
//! provisioning throughput stays within noise of the unobserved engine
//! (bench `e14_obs_overhead`).

use std::sync::Arc;
use wdm_core::SearchStats;
use wdm_obs::{Counter, Gauge, Histogram, MetricsRegistry};

/// Why a request was blocked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockCause {
    /// The pair is unroutable even on the fully free network (topology
    /// or availability makes `t` unreachable from `s` under the
    /// request's policy) — more capacity would not have helped.
    NoPath,
    /// The pair is routable when free, so current occupancy is what
    /// blocked it.
    Capacity,
}

/// The shared instruments an attached engine reports into.
///
/// Everything is behind `Arc`s from the registry, so the same series
/// are visible to whoever else holds the registry (the CLI's latency
/// summary, a periodic Prometheus dump).
#[derive(Debug, Clone)]
pub(crate) struct EngineMetrics {
    /// `wdm_rwa_provision_latency_ns` — one decided request (fibre-cut
    /// restorations included), accepted and blocked alike.
    pub provision_latency: Arc<Histogram>,
    /// `wdm_rwa_release_latency_ns`
    pub release_latency: Arc<Histogram>,
    /// `wdm_rwa_fail_link_latency_ns` — whole fibre-cut handling,
    /// including teardowns and restorations (which also count
    /// individually as releases and provisions).
    pub fail_link_latency: Arc<Histogram>,
    /// `wdm_rwa_restore_link_latency_ns` — fibre-repair handling (the
    /// un-marking involution of a cut).
    pub restore_link_latency: Arc<Histogram>,
    /// `wdm_rwa_requests_total` — one per decided request (fibre-cut
    /// restorations included); equals accepted + blocked.
    pub requests: Arc<Counter>,
    /// `wdm_rwa_accepted_total`
    pub accepted: Arc<Counter>,
    /// `wdm_rwa_blocked_total{cause="no_path"}`
    pub blocked_no_path: Arc<Counter>,
    /// `wdm_rwa_blocked_total{cause="capacity"}`
    pub blocked_capacity: Arc<Counter>,
    /// `wdm_rwa_released_total`
    pub released: Arc<Counter>,
    /// `wdm_rwa_active_connections`
    pub active: Arc<Gauge>,
    /// `wdm_rwa_occupied_resources` — busy (link, λ) pairs.
    pub occupied: Arc<Gauge>,
    /// `wdm_rwa_mask_flips_total` — effective busy-bit transitions.
    pub mask_flips: Arc<Counter>,
    /// `wdm_rwa_link_occupancy{link="i"}` — busy wavelengths per link.
    pub link_occupancy: Vec<Arc<Gauge>>,
    /// `wdm_core_search_settled_total`
    pub search_settled: Arc<Counter>,
    /// `wdm_core_search_relaxed_total`
    pub search_relaxed: Arc<Counter>,
    /// `wdm_core_search_masked_skips_total`
    pub search_masked_skips: Arc<Counter>,
    /// `wdm_core_search_pushes_total`
    pub search_pushes: Arc<Counter>,
    /// `wdm_core_search_decrease_keys_total`
    pub search_decrease_keys: Arc<Counter>,
}

impl EngineMetrics {
    /// Resolves (or creates) every engine series in `registry`.
    /// `link_count` sizes the per-link occupancy gauge family.
    pub fn resolve(registry: &MetricsRegistry, link_count: usize) -> Self {
        EngineMetrics {
            provision_latency: registry.histogram("wdm_rwa_provision_latency_ns", &[]),
            release_latency: registry.histogram("wdm_rwa_release_latency_ns", &[]),
            fail_link_latency: registry.histogram("wdm_rwa_fail_link_latency_ns", &[]),
            restore_link_latency: registry.histogram("wdm_rwa_restore_link_latency_ns", &[]),
            requests: registry.counter("wdm_rwa_requests_total", &[]),
            accepted: registry.counter("wdm_rwa_accepted_total", &[]),
            blocked_no_path: registry.counter("wdm_rwa_blocked_total", &[("cause", "no_path")]),
            blocked_capacity: registry.counter("wdm_rwa_blocked_total", &[("cause", "capacity")]),
            released: registry.counter("wdm_rwa_released_total", &[]),
            active: registry.gauge("wdm_rwa_active_connections", &[]),
            occupied: registry.gauge("wdm_rwa_occupied_resources", &[]),
            mask_flips: registry.counter("wdm_rwa_mask_flips_total", &[]),
            link_occupancy: (0..link_count)
                .map(|i| registry.gauge("wdm_rwa_link_occupancy", &[("link", &i.to_string())]))
                .collect(),
            search_settled: registry.counter("wdm_core_search_settled_total", &[]),
            search_relaxed: registry.counter("wdm_core_search_relaxed_total", &[]),
            search_masked_skips: registry.counter("wdm_core_search_masked_skips_total", &[]),
            search_pushes: registry.counter("wdm_core_search_pushes_total", &[]),
            search_decrease_keys: registry.counter("wdm_core_search_decrease_keys_total", &[]),
        }
    }

    /// Flushes one request's search-kernel totals into the shared
    /// counters (five relaxed adds).
    pub fn flush_search(&self, stats: &SearchStats) {
        self.search_settled.add(stats.settled as u64);
        self.search_relaxed.add(stats.relaxed as u64);
        self.search_masked_skips.add(stats.masked_skips as u64);
        self.search_pushes.add(stats.pushes as u64);
        self.search_decrease_keys.add(stats.decrease_keys as u64);
    }

    /// Records a blocked request under its cause.
    pub fn record_blocked(&self, cause: BlockCause) {
        match cause {
            BlockCause::NoPath => self.blocked_no_path.inc(),
            BlockCause::Capacity => self.blocked_capacity.inc(),
        }
    }
}
