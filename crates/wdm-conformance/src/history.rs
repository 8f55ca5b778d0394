//! Concurrent-history records: what was invoked, when, and what came
//! back.

use wdm_graph::{LinkId, NodeId};
use wdm_rwa::concurrent::RestorationOutcome;
use wdm_rwa::{BlockCause, ConnectionId, Policy};

/// One operation as invoked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// `provision(s, t, policy)`.
    Provision {
        /// Source node.
        s: NodeId,
        /// Destination node.
        t: NodeId,
        /// Routing policy.
        policy: Policy,
    },
    /// `release(id)` of a previously committed connection.
    Release {
        /// The connection id as the concurrent engine issued it.
        id: ConnectionId,
    },
    /// `fail_link(link, policy)`.
    FailLink {
        /// The cut fibre.
        link: LinkId,
        /// Restoration policy.
        policy: Policy,
    },
    /// `restore_link(link)` — repair of a (possibly not) cut fibre.
    RestoreLink {
        /// The repaired fibre.
        link: LinkId,
    },
}

/// One operation's observed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpResponse {
    /// Provision accepted: committed id and route.
    Provisioned {
        /// The id the concurrent engine issued.
        id: ConnectionId,
        /// The committed path.
        path: wdm_core::Semilightpath,
    },
    /// Provision blocked, with the engine's cause classification.
    Blocked {
        /// Topology- vs capacity-blocked.
        cause: BlockCause,
    },
    /// Release succeeded.
    Released,
    /// Release found no such active connection (the connection was torn
    /// down by an interleaved `fail_link`).
    ReleaseUnknown,
    /// Fibre cut handled; per-torn-connection outcomes in id order.
    FailedLink {
        /// Teardown/restoration outcomes.
        outcomes: Vec<RestorationOutcome>,
    },
    /// Fibre repair handled.
    LinkRestored {
        /// `true` iff the link was actually cut (a repair of a healthy
        /// fibre is a reported no-op).
        restored: bool,
    },
}

/// One completed operation: kind, logical thread, invocation/response
/// step stamps (global scheduler step counter), and the response.
#[derive(Debug, Clone)]
pub struct OpRecord {
    /// What was invoked.
    pub op: OpKind,
    /// Which simulated thread ran it.
    pub thread: usize,
    /// Global step counter when the operation was invoked.
    pub invoked_at: u64,
    /// Global step counter when the transaction completed.
    pub responded_at: u64,
    /// The observed response.
    pub response: OpResponse,
}

/// A complete concurrent history plus end-state observations used for
/// cheap invariant checks before the full linearizability search.
#[derive(Debug, Clone)]
pub struct History {
    /// Completed operations in response order.
    pub records: Vec<OpRecord>,
    /// Busy (link, λ) resources at quiescence.
    pub final_busy_count: usize,
    /// Active connections at quiescence.
    pub final_active: usize,
    /// Engine totals at quiescence: `(accepted, blocked, released)`.
    pub totals: (u64, u64, u64),
    /// Blocked split at quiescence: `(no_path, capacity)`.
    pub blocked_by_cause: (u64, u64),
    /// Optimistic-commit conflicts the engine retried.
    pub conflicts: u64,
    /// The seed that produced this interleaving.
    pub seed: u64,
}

impl History {
    /// Number of completed operations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}
