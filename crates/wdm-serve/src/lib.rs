//! Control-plane daemon for the WDM provisioning engine.
//!
//! `wdm serve` (see the `wdm-cli` crate) fronts the provisioning engine
//! ([`wdm_rwa::ConcurrentEngine`]) over a TCP or unix-socket listener:
//! by default one engine handle serves every request in turn behind a
//! mutex, and with `--sharded` each connection drives its own handle
//! lock-free. The wire protocol is deliberately boring:
//! **line-delimited JSON**, one request object per line, one reply
//! object per line, in order, per connection. No framing beyond `\n`,
//! no external dependencies — requests are parsed with
//! [`wdm_obs::json`] and replies are rendered by hand with a fixed key
//! order, so a given operation sequence always produces byte-identical
//! reply text (the conformance tests replay recorded sessions through
//! an offline [`EngineBackend`] and diff the bytes).
//!
//! # Operations
//!
//! ```text
//! {"op":"provision","s":0,"t":3}            route + lock one request
//! {"op":"release","id":7}                   free an active connection
//! {"op":"fail-link","link":2}               fibre cut with restoration
//! {"op":"restore-link","link":2}            repair a cut fibre (involution)
//! {"op":"batch","pairs":[[0,3],[1,2]]}      provision each pair in order
//! {"op":"stats"}                            engine totals + utilization
//! {"op":"trace"}                            flight-recorder totals
//! {"op":"drain"}                            graceful shutdown
//! GET /metrics HTTP/1.1                     Prometheus scrape (same port)
//! GET /trace HTTP/1.1                       Chrome trace_event snapshot
//! ```
//!
//! Any request may carry an integer `trace_id` field; the daemon echoes
//! it back as the final field of the reply and — when started with
//! tracing enabled (`--trace-buffer`) — labels the request's recorded
//! spans with it, so a client can find its exact request in the
//! exported Chrome trace. See [`protocol::Frame`].
//!
//! # Operational properties
//!
//! * **Admission control** — at most `max_inflight` requests execute at
//!   once; excess requests are rejected immediately with an
//!   `{"ok":false,"error":"overloaded"}` reply instead of queueing
//!   without bound.
//! * **Graceful drain** — a `drain` op or SIGTERM/SIGINT (see
//!   [`signal`]) stops the accept loop; in-flight requests finish and
//!   are answered, then connections close and [`Server::serve`]
//!   returns.
//! * **Typed errors** — malformed frames, out-of-range nodes/links,
//!   unknown connection ids, and (sharded) retry exhaustion each get a
//!   distinct machine-readable `error` field; the daemon never tears
//!   down the engine over a bad request.
//! * **In-memory metrics** — `GET /metrics` renders from the live
//!   [`wdm_obs::MetricsRegistry`]; the daemon never serves metrics from
//!   (possibly torn) files.

#![warn(missing_docs)]

pub mod backend;
/// Wire-protocol request parsing and JSON escaping.
pub mod protocol;
/// Listener, accept loop, and per-connection workers.
pub mod server;
/// SIGTERM/SIGINT latch for graceful drain.
pub mod signal;

pub use backend::{EngineBackend, ExecCtx};
pub use protocol::{Frame, Request};
pub use server::{Listen, ServeSummary, Server, ServerConfig};
