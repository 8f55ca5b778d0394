//! Every call the benchmark makes into the repository's crates.
//!
//! Keeping them in one adapter means an API rename is a one-file fix
//! here, and the rest of the benchmark speaks only in its own types.

use wdm_core::{textfmt, WdmNetwork};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::MetricsRegistry;
use wdm_rwa::{ConnectionId, Policy, ProvisioningEngine, RoutingMode};
use wdm_serve::{protocol, EngineBackend, ExecCtx};

use crate::workload::Op;

pub use wdm_serve::Frame;

/// The daemon's default routing policy (`wdm serve` without `--policy`).
const POLICY: Policy = Policy::Optimal;

/// A loaded `.wdm` instance.
pub struct Net(WdmNetwork);

impl Net {
    /// Parses `.wdm` text (`textfmt::from_text`).
    pub fn parse(text: &str) -> Result<Net, String> {
        textfmt::from_text(text).map(Net).map_err(|e| e.to_string())
    }

    pub fn nodes(&self) -> usize {
        self.0.node_count()
    }

    pub fn links(&self) -> usize {
        self.0.link_count()
    }
}

/// `protocol::parse_frame`, the daemon's frame parser.
pub fn parse_frame(line: &str) -> Result<Frame, String> {
    protocol::parse_frame(line)
}

/// The engine backend `wdm serve` builds with its default flags: the
/// single masked engine behind a mutex, with its metrics attached as the
/// server attaches them.
pub struct Backend {
    backend: EngineBackend,
    ctx: ExecCtx,
}

impl Backend {
    pub fn new(net: &Net) -> Self {
        let backend = EngineBackend::single(&net.0, RoutingMode::Masked, POLICY);
        let ctx = backend.new_ctx();
        Backend { backend, ctx }
    }

    /// A backend reporting into `registry`, as `Server::bind` wires it.
    pub fn with_metrics(net: &Net, registry: &Registry) -> Self {
        let b = Self::new(net);
        b.backend.attach_metrics(&registry.0);
        b
    }

    /// `EngineBackend::execute_line`: the offline-replay entry point.
    pub fn execute_line(&mut self, line: &str) -> String {
        self.backend.execute_line(&mut self.ctx, line)
    }

    /// `EngineBackend::execute_frame`: what a daemon worker runs per
    /// parsed frame.
    pub fn execute_frame(&mut self, frame: &Frame) -> String {
        self.backend.execute_frame(&mut self.ctx, frame)
    }

    /// Engine totals `(accepted, blocked, released)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.backend.totals()
    }
}

/// A metrics registry.
pub struct Registry(MetricsRegistry);

impl Registry {
    pub fn new() -> Self {
        Registry(MetricsRegistry::new())
    }

    /// A registry holding the series a running daemon holds: the
    /// engine's instruments plus the server's per-request series.
    pub fn daemon_shaped(net: &Net) -> Self {
        let r = Self::new();
        Backend::with_metrics(net, &r);
        r.0.counter("wdm_serve_connections_total", &[]);
        r.0.gauge("wdm_serve_inflight", &[]);
        r.0.histogram("wdm_serve_request_latency_ns", &[]);
        for op in [
            "provision",
            "release",
            "fail-link",
            "restore-link",
            "batch",
            "stats",
        ] {
            r.0.counter("wdm_serve_requests_total", &[("op", op)]);
        }
        r
    }

    /// One labelled counter lookup, the call the daemon makes per
    /// request to count it by op.
    pub fn lookup_op_counter(&self, op: &str) {
        std::hint::black_box(self.0.counter("wdm_serve_requests_total", &[("op", op)]));
    }

    /// The Prometheus text exposition, as `GET /metrics` serves it.
    pub fn prometheus(&self) -> String {
        self.0.render_prometheus()
    }
}

/// `ProvisioningEngine::new`: builds the persistent masked structure.
pub fn build_engine(net: &Net) {
    std::hint::black_box(ProvisioningEngine::new(&net.0));
}

/// A bare `ProvisioningEngine` fed the same operations as the daemon, so
/// engine calls can be timed without the backend around them.
pub struct Mirror {
    engine: ProvisioningEngine,
    registry: Registry,
}

impl Mirror {
    pub fn new(net: &Net) -> Self {
        let mut engine = ProvisioningEngine::new(&net.0);
        let registry = Registry::new();
        engine.attach_metrics(&registry.0);
        Mirror { engine, registry }
    }

    /// Applies `op` through the engine call the backend makes for it.
    pub fn apply(&mut self, op: &Op) {
        let node = |v: u32| NodeId::new(v as usize);
        match op {
            Op::Provision { s, t } => {
                let _ = std::hint::black_box(self.engine.provision(node(*s), node(*t), POLICY));
            }
            Op::Release { id } => {
                let _ = std::hint::black_box(self.engine.release(ConnectionId::from_u64(*id)));
            }
            Op::FailLink { link } => {
                std::hint::black_box(self.engine.fail_link(LinkId::new(*link as usize), POLICY));
            }
            Op::RestoreLink { link } => {
                std::hint::black_box(self.engine.restore_link(LinkId::new(*link as usize)));
            }
            Op::Batch(pairs) => {
                let typed: Vec<(NodeId, NodeId)> =
                    pairs.iter().map(|&(s, t)| (node(s), node(t))).collect();
                std::hint::black_box(self.engine.provision_batch(&typed, POLICY, 0));
            }
            Op::Stats => {
                std::hint::black_box((self.engine.totals(), self.engine.utilization()));
            }
        }
    }

    /// Engine totals `(accepted, blocked, released)`.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.engine.totals()
    }

    /// The mirror's own metrics, in Prometheus text.
    pub fn prometheus(&self) -> String {
        self.registry.prometheus()
    }
}
