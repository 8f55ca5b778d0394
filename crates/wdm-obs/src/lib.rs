//! Zero-dependency observability for the WDM routing workspace.
//!
//! The provisioning engine answers requests in microseconds; anything
//! that watches it must cost nanoseconds. This crate provides exactly
//! that: lock-free [`Counter`]s and [`Gauge`]s (relaxed atomics), a
//! log₂-bucketed [`Histogram`] whose `observe` is two relaxed
//! `fetch_add`s plus a `leading_zeros`, and a [`MetricsRegistry`] that
//! hands the same `Arc`'d instrument back for the same `(name, labels)`
//! pair so producers and consumers meet by name alone.
//!
//! Export paths are pull-based and allocation-free on the hot side:
//! [`MetricsRegistry::render_prometheus`] emits the Prometheus text
//! exposition format and [`MetricsRegistry::snapshot_json`] a JSON
//! snapshot (with p50/p90/p99 estimates per histogram); both read the
//! live atomics without stopping writers. The crate is std-only by
//! design — the build environment is offline — and [`json`] carries a
//! minimal parser so tests and tools can round-trip snapshots without
//! serde.
//!
//! Aggregates explain populations; the [`trace`] module explains
//! individual requests: u64 trace IDs, typed span/instant events, and
//! a lock-free bounded [`FlightRecorder`] ring buffer with Chrome
//! `trace_event` and text-tree exporters. Like metrics, tracing costs
//! one branch when detached.
//!
//! # Conventions
//!
//! * metric names are `snake_case`, prefixed by the producing crate
//!   (`wdm_rwa_`, `wdm_core_`, `wdm_dist_`) and suffixed by the unit
//!   (`_ns`, `_total` for monotonic counters);
//! * labels are a small, closed set per metric (`cause`, `policy`,
//!   `link`, `protocol`) — never unbounded user input;
//! * histograms bucket by powers of two, so `le` boundaries are exact
//!   and merging across processes is trivial.
//!
//! # Examples
//!
//! ```
//! use wdm_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let requests = registry.counter("demo_requests_total", &[("policy", "optimal")]);
//! let latency = registry.histogram("demo_latency_ns", &[]);
//! requests.inc();
//! latency.observe(1_500);
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_requests_total{policy=\"optimal\"} 1"));
//! let snap = wdm_obs::json::parse(&registry.snapshot_json()).expect("valid JSON");
//! assert!(snap.get("counters").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fsutil;
mod histogram;
pub mod json;
mod metric;
pub mod ordering;
mod registry;
pub mod trace;

pub use fsutil::write_atomic;
pub use histogram::{Histogram, BUCKET_COUNT};
pub use metric::{Counter, Gauge};
pub use registry::MetricsRegistry;
pub use trace::{
    FlightRecorder, RootVerdict, TailSampling, TraceEventKind, TraceId, TraceRecord, TraceSnapshot,
    TraceWriter,
};
