//! The engine backend behind the daemon, and the reply renderer.
//!
//! [`EngineBackend`] runs every request through one executor over a
//! [`ConcurrentHandle`]. The default backend keeps a single handle
//! inside the mutex that assigns `seq`, so requests run one at a time
//! in arrival order and never contend. The sharded backend gives each
//! connection its own handle, created on the connection's first engine
//! request, and runs lock-free with a bounded per-request conflict
//! budget. Both render replies through the same hand-rolled JSON writer
//! with a fixed key order, so a recorded sequence of engine operations
//! replayed offline through a fresh default backend reproduces the
//! daemon's reply bytes exactly — the conformance tests in
//! `tests/daemon.rs` hold the daemon to that.
//!
//! Every engine-touching reply carries a `seq` number: the position of
//! the operation in the engine's serialized history. The default
//! backend assigns it under the engine mutex, so sorting a
//! multi-connection session's replies by `seq` yields the exact replay
//! order. The sharded backend assigns `seq` from an atomic at dispatch;
//! it orders replies but does not promise commit-order replay (commits
//! interleave by design).

use std::fmt::Write as _;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard};

use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::RELAXED;
use wdm_obs::trace::{FlightRecorder, TraceId};
use wdm_obs::MetricsRegistry;
use wdm_rwa::concurrent::{ProvisionOutcome, RestorationOutcome};
use wdm_rwa::{
    BlockCause, ConcurrentEngine, ConcurrentHandle, ConnectionId, Policy, RaceInjection,
    RoutingMode, RwaError,
};

use crate::protocol::{escape_json, Frame, Request};

/// Locks a mutex, recovering the data from a poisoned lock. The engine
/// state is a set of busy bits plus counters — every operation leaves
/// it consistent or untouched, so a panicking peer cannot have left a
/// half-applied update behind.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The default backend's one handle plus its serialized-history
/// counter, behind one mutex.
struct Serial {
    handle: ConcurrentHandle,
    seq: u64,
}

/// A provisioning engine wired for daemon use: thread-safe dispatch,
/// sequence numbering, and deterministic JSON reply rendering.
pub struct EngineBackend {
    engine: ConcurrentEngine,
    /// `Some` for the default backend: requests run on this handle
    /// under its mutex. `None` for the sharded backend: each connection
    /// runs on the handle in its [`ExecCtx`].
    serial: Option<Mutex<Serial>>,
    /// The sharded backend's `seq` counter.
    next_seq: AtomicU64,
    /// Validation conflicts a provision may absorb before it is
    /// answered `contended` (`u64::MAX` on the default backend, where
    /// nothing contends).
    max_conflicts: u64,
    policy: Policy,
}

/// Per-connection execution state: on the sharded backend, the
/// connection's own handle (its search scratch and transaction
/// buffers), created by its first engine request. The default backend
/// leaves it empty.
pub struct ExecCtx {
    handle: Option<ConcurrentHandle>,
}

/// One provision verdict shaped for the renderer: on accept, the id
/// plus the committed path's `(hops, conversions, cost)`.
type ProvisionVerdict = Result<(ConnectionId, usize, usize, wdm_core::Cost), RwaError>;

impl EngineBackend {
    /// The default backend: one engine handle behind a mutex, requests
    /// serialized in arrival order. `policy` is the default for requests
    /// that carry no `policy` field. Every [`RoutingMode`] is the masked
    /// engine.
    pub fn single(net: &wdm_core::WdmNetwork, mode: RoutingMode, policy: Policy) -> Self {
        let RoutingMode::Masked = mode;
        let engine = ConcurrentEngine::new(net, 1);
        EngineBackend {
            serial: Some(Mutex::new(Serial {
                handle: engine.handle(),
                seq: 0,
            })),
            engine,
            next_seq: AtomicU64::new(0),
            max_conflicts: u64::MAX,
            policy,
        }
    }

    /// A lock-free backend over the engine with `shards` wavelength
    /// shards (`0` auto-sizes) and a per-request retry budget of
    /// `max_conflicts` validation conflicts, after which the request is
    /// answered `contended` (undecided — the client may retry verbatim)
    /// instead of stalling the connection.
    pub fn sharded(
        net: &wdm_core::WdmNetwork,
        shards: usize,
        max_conflicts: u64,
        policy: Policy,
    ) -> Self {
        Self::sharded_with_race(net, shards, max_conflicts, policy, RaceInjection::None)
    }

    /// [`EngineBackend::sharded`] with a deliberate protocol corruption
    /// injected — conformance-test instrumentation only (it is the only
    /// way to make the `contended` reply deterministic).
    pub fn sharded_with_race(
        net: &wdm_core::WdmNetwork,
        shards: usize,
        max_conflicts: u64,
        policy: Policy,
        race: RaceInjection,
    ) -> Self {
        EngineBackend {
            engine: ConcurrentEngine::with_race_injection(net, shards, race),
            serial: None,
            next_seq: AtomicU64::new(0),
            max_conflicts,
            policy,
        }
    }

    /// Attaches the engine's instruments to `registry` (latencies,
    /// accept/block counters, occupancy gauges, search totals).
    /// Write-once: the first registry wins.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        self.engine.attach_metrics(registry);
    }

    /// Attaches `recorder` to the engine: every request now records
    /// request-scoped spans, labelled by the wire `trace_id` when the
    /// client sent one. Write-once — the first recorder wins and later
    /// calls are ignored (transactions read it lock-free).
    pub fn attach_tracer(&self, recorder: &Arc<FlightRecorder>) {
        self.engine.attach_tracer(recorder);
    }

    /// The attached flight recorder, if tracing is enabled.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.engine.tracer()
    }

    /// Creates the per-connection execution state for this backend.
    pub fn new_ctx(&self) -> ExecCtx {
        ExecCtx { handle: None }
    }

    /// Executes one parsed [`Frame`]: the request runs with its wire
    /// `trace_id` labelling the recorded spans, and the reply echoes the
    /// id back as a final `"trace_id"` field — so the bytes a client
    /// correlates against are exactly the bytes it tagged.
    pub fn execute_frame(&self, ctx: &mut ExecCtx, frame: &Frame) -> String {
        let reply = self.execute_wired(ctx, &frame.req, frame.trace_id.map(TraceId::from_u64));
        match frame.trace_id {
            None => reply,
            Some(id) => echo_trace_id(reply, TraceId::from_u64(id)),
        }
    }

    /// Executes one request and renders its reply line (without the
    /// trailing newline): the shared path behind
    /// [`execute_frame`](Self::execute_frame) and
    /// [`execute_line`](Self::execute_line).
    ///
    /// `Drain` is a server-level operation, and `Trace` only reads
    /// recorder counters; at this layer both are acknowledged without
    /// touching the engine or consuming a `seq`, which keeps offline
    /// replay of a recorded request stream trivial.
    fn execute_wired(&self, ctx: &mut ExecCtx, req: &Request, wire: Option<TraceId>) -> String {
        if matches!(req, Request::Drain) {
            return r#"{"ok":true,"op":"drain"}"#.to_string();
        }
        if matches!(req, Request::Trace) {
            return match self.recorder() {
                None => r#"{"ok":false,"op":"trace","error":"tracing_disabled"}"#.to_string(),
                Some(rec) => format!(
                    r#"{{"ok":true,"op":"trace","records":{},"dropped":{}}}"#,
                    rec.recorded_count(),
                    rec.drop_count()
                ),
            };
        }
        let trace_counts = self
            .recorder()
            .map(|rec| (rec.recorded_count(), rec.drop_count()));
        let run = |handle: &mut ConcurrentHandle, seq: u64| {
            Exec {
                handle,
                default: self.policy,
                seq,
                max_conflicts: self.max_conflicts,
                wire,
                trace_counts,
            }
            .run(req)
        };
        match &self.serial {
            Some(serial) => {
                let st = &mut *lock(serial);
                st.seq += 1;
                run(&mut st.handle, st.seq)
            }
            None => {
                // Relaxed is enough: the counter only needs uniqueness
                // and atomicity, not ordering against engine commits.
                let seq = self.next_seq.fetch_add(1, RELAXED) + 1;
                run(ctx.handle.get_or_insert_with(|| self.engine.handle()), seq)
            }
        }
    }

    /// Parses and executes one request line — the offline-replay entry
    /// point used by the conformance tests. Malformed lines get the
    /// same `malformed` reply the server would send, and `trace_id`
    /// tags round-trip exactly as they do on a live connection.
    pub fn execute_line(&self, ctx: &mut ExecCtx, line: &str) -> String {
        match crate::protocol::parse_frame(line.trim()) {
            Ok(frame) => self.execute_frame(ctx, &frame),
            Err(detail) => render_malformed(&detail),
        }
    }

    /// Engine totals `(accepted, blocked, released)`, for summaries.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.engine.totals()
    }

    /// Active connection count, for summaries.
    pub fn active_count(&self) -> usize {
        self.engine.active_count()
    }
}

/// Appends `"trace_id":N` as the final field of a rendered reply
/// object. Every reply renderer in this module ends with `}`, so the
/// echo is a truncate-and-extend, not a reparse.
pub(crate) fn echo_trace_id(mut reply: String, id: TraceId) -> String {
    debug_assert!(reply.ends_with('}'));
    reply.truncate(reply.len() - 1);
    let _ = write!(reply, r#","trace_id":{}}}"#, id.as_u64());
    reply
}

/// Renders the reply for a malformed frame.
pub(crate) fn render_malformed(detail: &str) -> String {
    format!(
        r#"{{"ok":false,"error":"malformed","detail":"{}"}}"#,
        escape_json(detail)
    )
}

/// Renders the admission-control rejection reply.
pub(crate) fn render_overloaded() -> String {
    r#"{"ok":false,"error":"overloaded"}"#.to_string()
}

fn cause_str(cause: BlockCause) -> &'static str {
    match cause {
        BlockCause::NoPath => "no_path",
        BlockCause::Capacity => "capacity",
    }
}

/// Renders a full provision reply (with `op` and `seq`).
fn render_provision_reply(
    seq: u64,
    verdict: &ProvisionVerdict,
    cause: Option<BlockCause>,
) -> String {
    let mut s = format!(r#"{{"ok":{},"op":"provision","seq":{seq}"#, verdict.is_ok());
    push_provision_fields(&mut s, verdict, cause);
    s.push('}');
    s
}

/// Renders one batch element (bare object, no `op`/`seq`; blocked
/// elements carry no cause, which keeps the batch reply layout fixed —
/// the engine still counts every cause in its totals).
fn render_batch_element(verdict: &ProvisionVerdict) -> String {
    let mut s = format!(r#"{{"ok":{}"#, verdict.is_ok());
    push_provision_fields(&mut s, verdict, None);
    s.push('}');
    s
}

/// The verdict-specific reply fields, appended after the common prefix.
fn push_provision_fields(s: &mut String, verdict: &ProvisionVerdict, cause: Option<BlockCause>) {
    match verdict {
        Ok((id, hops, conversions, cost)) => {
            let _ = write!(
                s,
                r#","id":{},"cost":{},"hops":{},"conversions":{}"#,
                id.as_u64(),
                cost,
                hops,
                conversions
            );
        }
        Err(RwaError::Blocked { .. }) => {
            s.push_str(r#","error":"blocked""#);
            if let Some(cause) = cause {
                let _ = write!(s, r#","cause":"{}""#, cause_str(cause));
            }
        }
        Err(RwaError::NodeOutOfRange(v)) => {
            let _ = write!(s, r#","error":"node_out_of_range","node":{}"#, v.index());
        }
        Err(RwaError::Contended { conflicts, .. }) => {
            let _ = write!(s, r#","error":"contended","conflicts":{conflicts}"#);
        }
        Err(other) => {
            let _ = write!(
                s,
                r#","error":"internal","detail":"{}""#,
                escape_json(&other.to_string())
            );
        }
    }
}

/// The first of `s`, `t` that is not a node of an `n`-node network.
///
/// Wire indices are range-checked *before* [`NodeId::new`] is called:
/// id construction panics above `u32::MAX`, and the daemon must answer
/// a typed error for any out-of-range index, however large.
fn node_out_of_range(s: usize, t: usize, nodes: usize) -> Option<usize> {
    if s >= nodes {
        Some(s)
    } else if t >= nodes {
        Some(t)
    } else {
        None
    }
}

fn render_node_out_of_range(seq: u64, node: usize) -> String {
    format!(
        r#"{{"ok":false,"op":"provision","seq":{seq},"error":"node_out_of_range","node":{node}}}"#
    )
}

fn render_node_out_of_range_bare(node: usize) -> String {
    format!(r#"{{"ok":false,"error":"node_out_of_range","node":{node}}}"#)
}

fn render_link_out_of_range(op: &str, seq: u64, link: usize, links: usize) -> String {
    format!(
        r#"{{"ok":false,"op":"{op}","seq":{seq},"error":"link_out_of_range","link":{link},"links":{links}}}"#
    )
}

fn render_fail_link(seq: u64, link: usize, outcomes: &[RestorationOutcome]) -> String {
    let restored = outcomes.iter().filter(|o| o.restored.is_some()).count();
    let lost = outcomes.len() - restored;
    format!(
        r#"{{"ok":true,"op":"fail-link","seq":{seq},"link":{link},"restored":{restored},"lost":{lost}}}"#
    )
}

/// `restored` is false when the link was not cut — a reported no-op,
/// mirroring the engine's idempotent `restore_link`.
fn render_restore_link(seq: u64, link: usize, restored: bool) -> String {
    format!(r#"{{"ok":true,"op":"restore-link","seq":{seq},"link":{link},"restored":{restored}}}"#)
}

fn render_batch(seq: u64, elements: &[String], accepted: usize) -> String {
    format!(
        r#"{{"ok":true,"op":"batch","seq":{seq},"size":{},"accepted":{accepted},"results":[{}]}}"#,
        elements.len(),
        elements.join(",")
    )
}

/// One request on one handle: the executor both backends share.
struct Exec<'a> {
    handle: &'a mut ConcurrentHandle,
    /// The policy for requests that carry none.
    default: Policy,
    seq: u64,
    max_conflicts: u64,
    wire: Option<TraceId>,
    trace_counts: Option<(u64, u64)>,
}

impl Exec<'_> {
    fn run(mut self, req: &Request) -> String {
        let seq = self.seq;
        let base = self.handle.engine().base();
        let (nodes, links) = (base.node_count(), base.link_count());
        match req {
            Request::Provision { s, t, policy } => {
                if let Some(bad) = node_out_of_range(*s, *t, nodes) {
                    return render_node_out_of_range(seq, bad);
                }
                let (verdict, cause) = self.provision(*s, *t, policy.unwrap_or(self.default));
                render_provision_reply(seq, &verdict, cause)
            }
            Request::Release { id } => {
                let id = ConnectionId::from_u64(*id);
                render_release(seq, id, self.handle.release_traced(id, self.wire).is_ok())
            }
            Request::FailLink { link } => {
                if *link >= links {
                    return render_link_out_of_range("fail-link", seq, *link, links);
                }
                let outcomes = self
                    .handle
                    .fail_link(LinkId::new(*link), self.default, self.wire);
                render_fail_link(seq, *link, &outcomes)
            }
            Request::RestoreLink { link } => {
                if *link >= links {
                    return render_link_out_of_range("restore-link", seq, *link, links);
                }
                let restored = self.handle.restore_link(LinkId::new(*link), self.wire);
                render_restore_link(seq, *link, restored)
            }
            Request::Batch { pairs, policy } => {
                let pol = policy.unwrap_or(self.default);
                let mut accepted = 0usize;
                let elements: Vec<String> = pairs
                    .iter()
                    .map(|&(s, t)| match node_out_of_range(s, t, nodes) {
                        Some(bad) => render_node_out_of_range_bare(bad),
                        None => {
                            let (verdict, _) = self.provision(s, t, pol);
                            if verdict.is_ok() {
                                accepted += 1;
                            }
                            render_batch_element(&verdict)
                        }
                    })
                    .collect();
                render_batch(seq, &elements, accepted)
            }
            Request::Stats => {
                let engine = self.handle.engine();
                let (accepted, blocked, released) = engine.totals();
                let (no_path, capacity) = engine.blocked_by_cause();
                let mut s = format!(
                    r#"{{"ok":true,"op":"stats","seq":{seq},"accepted":{accepted},"blocked":{blocked},"blocked_no_path":{no_path},"blocked_capacity":{capacity},"released":{released},"active":{},"utilization":{},"conflicts":{}"#,
                    engine.active_count(),
                    engine.utilization(),
                    engine.conflicts()
                );
                push_stats_trace_fields(&mut s, self.trace_counts);
                s.push('}');
                s
            }
            // Handled in `EngineBackend::execute_wired` before dispatch.
            Request::Drain => r#"{"ok":true,"op":"drain"}"#.to_string(),
            Request::Trace => r#"{"ok":false,"op":"trace","error":"tracing_disabled"}"#.to_string(),
        }
    }

    /// One provision within the retry budget, shaped for the renderer,
    /// with the blocked cause when it blocked. Retry exhaustion is
    /// answered `contended`, never a fabricated blocked verdict: the
    /// request was not decided and engine totals are untouched.
    fn provision(
        &mut self,
        s: usize,
        t: usize,
        policy: Policy,
    ) -> (ProvisionVerdict, Option<BlockCause>) {
        let (s, t) = (NodeId::new(s), NodeId::new(t));
        match self
            .handle
            .provision_outcome(s, t, policy, self.wire, self.max_conflicts)
        {
            Ok(ProvisionOutcome::Accepted {
                id,
                hops,
                conversions,
                cost,
            }) => (Ok((id, hops, conversions, cost)), None),
            Ok(ProvisionOutcome::Blocked { cause }) => {
                (Err(RwaError::Blocked { s, t }), Some(cause))
            }
            Err(e) => (Err(e), None),
        }
    }
}

/// Appends the flight-recorder fields to a `stats` reply, in the fixed
/// key order the replay-identity conformance test pins. Absent recorder
/// renders zeros, so traced and untraced daemons agree on the schema.
fn push_stats_trace_fields(s: &mut String, trace_counts: Option<(u64, u64)>) {
    let (records, dropped) = trace_counts.unwrap_or((0, 0));
    let _ = write!(s, r#","trace_records":{records},"trace_dropped":{dropped}"#);
}

fn render_release(seq: u64, id: ConnectionId, ok: bool) -> String {
    if ok {
        format!(
            r#"{{"ok":true,"op":"release","seq":{seq},"id":{}}}"#,
            id.as_u64()
        )
    } else {
        format!(
            r#"{{"ok":false,"op":"release","seq":{seq},"error":"unknown_connection","id":{}}}"#,
            id.as_u64()
        )
    }
}
