//! The provisioning engine: optimistic transactions over one shared
//! [`ResidualState`], serialized per wavelength class by seqlock version
//! counters.
//!
//! wdm-lint: protocol: seqlock
//!
//! This module is the only implementation of provision, release,
//! fail_link, restore_link and set_converter, of blocked-cause
//! classification and its memo, of the failed-link set, and of the
//! engine's metrics and tracing. The `&mut self`
//! [`ProvisioningEngine`](crate::ProvisioningEngine) is a thin wrapper
//! that owns one [`ConcurrentHandle`] over a private one-shard engine.
//!
//! # Design
//!
//! Any number of threads share one [`ResidualState`] (whose busy masks
//! are atomic words) through their own handles, and a **sharded
//! seqlock** orders their commits:
//!
//! * wavelengths are partitioned into `S` shards (`shard = λ mod S`),
//!   each guarded by one version counter (`AtomicU64`, odd = writer in
//!   its critical section);
//! * a **provision** reads every shard version, routes optimistically on
//!   the racy mask, then *claims* the shards its path touches (CAS even
//!   `v → v + 1`, ascending shard order) and *validates* that every
//!   untouched shard still holds its original version. Success proves
//!   the mask the route saw was a consistent global snapshot and is
//!   still current, so the path is exactly what a serial execution
//!   would have picked at that instant; the bits are flipped and the
//!   claimed shards published at `v + 2`. Any version mismatch —
//!   somebody committed or is mid-commit — rolls back the claims,
//!   counts a conflict, and retries from scratch;
//! * a blocked verdict commits the same way (all versions unchanged)
//!   minus the claims — an occupancy state that blocked the request
//!   provably existed at the validation instant;
//! * a **release** only claims the shards of the connection it owns (no
//!   global validation — freeing owned bits commutes with everything
//!   that cannot see them), and a **fibre cut** or **repair** claims
//!   *all* shards for its transaction.
//!
//! Because both accepted and blocked commits validate *every* shard,
//! commits are globally serialized at their validation instants — the
//! linearization witness — while routing (the expensive part) runs fully
//! in parallel and releases interleave freely. Connection ids are
//! allocated at commit time, so id order equals commit order. A single
//! handle never conflicts, so one uncontended caller pays only the
//! version reads, one CAS per touched shard and the validation scan.
//!
//! The memory-ordering protocol (acquire version reads, the
//! [`fence_acquire`] between racy mask loads and validation, acq-rel
//! claim CAS, release publication) is audited once in
//! [`wdm_obs::ordering`]; this module only imports the named constants.
//!
//! # Stepped execution
//!
//! Every operation is a state machine ([`ProvisionTxn`], [`ReleaseTxn`],
//! [`FailLinkTxn`], [`RestoreLinkTxn`]) advanced by `step()` calls; the
//! blocking methods on [`ConcurrentHandle`] are the one set of retry
//! drivers that run a machine to completion. The `wdm-conformance`
//! harness instead interleaves many machines from one real thread under
//! a seeded scheduler, which is what makes concurrent histories
//! replayable: no step ever holds an OS lock across steps or spins —
//! contention is reported as [`Step::Contended`] and retried on the
//! next step.
//!
//! # Blocked causes
//!
//! A blocked request is topology-blocked (`no_path`) when the pair
//! cannot be routed even with every resource free under the policy's
//! capabilities — on the free network *minus the currently failed
//! links* — and occupancy-blocked (`capacity`) otherwise. Verdicts are
//! memoized per `(s, t, conversion-capable)` and tagged with an
//! **epoch** that advances whenever the failed-link set or the
//! conversion layout changes, so a verdict probed under one regime is
//! never trusted under another.

use crate::metrics::{BlockCause, EngineMetrics};
use crate::policy::Policy;
use crate::{ConnectionId, RwaError};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;
use wdm_core::{
    AcquireOutcome, ConversionPolicy, Cost, ResidualState, SearchScratch, Semilightpath,
    Wavelength, WdmNetwork,
};
use wdm_graph::{LinkId, NodeId};
use wdm_obs::ordering::{fence_acquire, ACQUIRE, ACQ_REL, RELAXED, RELEASE};
use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind, TraceId, TraceWriter};
use wdm_obs::MetricsRegistry;

/// Locks a mutex, recovering the data from a poisoned lock. Every
/// guarded section in this module performs a single map or set
/// operation (or a read-only probe), so a panic mid-section cannot
/// leave partial state behind and the data stays usable.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Nanoseconds since `t0`, saturating at `u64::MAX`.
fn ns_since(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A collection size as a gauge value, saturating at `i64::MAX`.
fn gauge_len(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

/// The trace code of a blocked cause (`Blocked` instant, `a` field).
fn cause_code(cause: BlockCause) -> u64 {
    match cause {
        BlockCause::NoPath => 0,
        BlockCause::Capacity => 1,
    }
}

/// Deliberate protocol corruption for conformance-harness validation.
///
/// The linearizability harness must be able to demonstrate that it
/// *catches* broken engines, not only that the real one passes. This
/// knob exists solely for that purpose — production code always uses
/// [`RaceInjection::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RaceInjection {
    /// The audited protocol: claim + validate before every commit.
    #[default]
    None,
    /// Skip the shard claim and validation entirely and ignore
    /// lost acquire races: routes commit on whatever (possibly torn,
    /// possibly stale) mask state they observed, so two transactions can
    /// both "win" the same (link, λ) — the classic check-then-act race a
    /// non-atomic mask flip would exhibit.
    SkipShardLock,
    /// Every provision validation fails as if a concurrent writer had
    /// committed underneath it, so the optimistic loop conflicts on
    /// every attempt and a bounded-retry driver is guaranteed to exhaust
    /// its budget. Exists to pin the retry-exhaustion outcome
    /// ([`RwaError::Contended`], never a fabricated
    /// `Blocked { cause }`): real contention heavy enough to exhaust a
    /// budget is timing-dependent, this knob makes it deterministic.
    ForceValidationConflict,
}

/// A provision's blocked-verdict memo entry: the epoch it was probed
/// under and the free-network reachability it found.
type MemoEntry = (u64, bool);
type MemoKey = (NodeId, NodeId, bool);

/// An accepted connection's bookkeeping.
#[derive(Debug, Clone)]
struct Connection {
    path: Semilightpath,
}

/// The state shared by every handle and transaction of one engine.
#[derive(Debug)]
struct Shared {
    base: WdmNetwork,
    state: ResidualState,
    /// Seqlock version counters, one per wavelength shard. Odd = a
    /// writer owns the shard's wavelengths.
    shards: Vec<AtomicU64>,
    /// Active connections. Locked only *within* a single transaction
    /// step, never across steps.
    active: Mutex<HashMap<ConnectionId, Connection>>,
    next_id: AtomicU64,
    accepted: AtomicU64,
    blocked: AtomicU64,
    blocked_no_path: AtomicU64,
    blocked_capacity: AtomicU64,
    released: AtomicU64,
    /// Optimistic commits that failed validation and retried.
    conflicts: AtomicU64,
    /// Advances every time the failed-link set or the conversion layout
    /// changes; tags memo entries so verdicts probed under another
    /// regime are re-probed.
    memo_epoch: AtomicU64,
    /// Links currently cut and not yet repaired, kept sorted. Mutated
    /// only by [`FailLinkTxn`] / [`RestoreLinkTxn`] while they hold
    /// every shard; read by blocked-cause classification for the
    /// duration of one probe.
    failed: Mutex<Vec<LinkId>>,
    /// The blocked-cause memo. Locked only to copy one entry out or put
    /// one in, never across a probe.
    memo: Mutex<HashMap<MemoKey, MemoEntry>>,
    /// Base (link, λ) resource count, for utilization.
    total_resources: usize,
    race: RaceInjection,
    /// The flight recorder, once attached. Write-once so transactions
    /// can read it with a single lock-free load; unset engines pay one
    /// branch per transaction.
    tracer: OnceLock<Arc<FlightRecorder>>,
    /// The metric instruments, once attached; same write-once,
    /// one-branch discipline as `tracer`.
    metrics: OnceLock<EngineMetrics>,
}

impl Shared {
    fn shard_of(&self, lambda: Wavelength) -> usize {
        lambda.index() % self.shards.len()
    }

    /// The sorted, deduplicated shard indices `path` touches, written
    /// into `out`'s reused capacity (never more than one slot per
    /// shard).
    fn touched_shards(&self, path: &Semilightpath, mut out: Vec<usize>) -> Vec<usize> {
        out.clear();
        for hop in path.hops() {
            let sh = self.shard_of(hop.wavelength);
            if !out.contains(&sh) {
                out.push(sh);
            }
        }
        out.sort_unstable();
        out
    }

    /// Classifies a blocked request against the free network (minus the
    /// currently failed links), through the epoch-tagged memo. The
    /// probe's search work is discarded so it never pollutes request
    /// metering.
    ///
    /// The epoch is read *before* the failed set is consulted: a
    /// concurrent cut/repair between the two bumps the epoch, so the
    /// entry this probe writes is already stale and will be re-probed —
    /// a harmless extra probe, never a wrong cached verdict.
    fn classify(
        &self,
        scratch: &mut SearchScratch,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> BlockCause {
        if s == t {
            // The engine rejects s == t (an empty path carries nothing);
            // no amount of capacity changes that.
            return BlockCause::NoPath;
        }
        // LightpathOnly and FirstFit both route on a single wavelength
        // end-to-end, so they share one memo class.
        let converts = matches!(policy, Policy::Optimal);
        let epoch = self.memo_epoch.load(ACQUIRE);
        let key = (s, t, converts);
        let cached = lock(&self.memo).get(&key).copied();
        let reachable = match cached {
            Some((e, hit)) if e == epoch => hit,
            _ => {
                let probed = {
                    let failed = lock(&self.failed);
                    let state = &self.state;
                    match (converts, failed.is_empty()) {
                        (true, true) => state.reachable_when_free(scratch, s, t),
                        (true, false) => {
                            state.reachable_when_free_excluding(scratch, s, t, &failed)
                        }
                        (false, true) => state.reachable_when_free_single_wavelength(scratch, s, t),
                        (false, false) => state.reachable_when_free_single_wavelength_excluding(
                            scratch, s, t, &failed,
                        ),
                    }
                };
                let _ = scratch.take_search_totals();
                lock(&self.memo).insert(key, (epoch, probed));
                probed
            }
        };
        if reachable {
            BlockCause::Capacity
        } else {
            BlockCause::NoPath
        }
    }

    /// `Some(now)` when metrics are attached: the start stamp of a
    /// metered operation.
    fn started(&self) -> Option<Instant> {
        self.metrics.get().map(|_| Instant::now())
    }

    /// The trace of a new operation, recorded under `wire` or a fresh
    /// id; `None` when no recorder is attached.
    fn start_trace(&self, wire: Option<TraceId>) -> Option<TxnTrace> {
        self.tracer.get().map(|rec| {
            let writer = rec.writer();
            let id = wire.unwrap_or_else(|| rec.next_trace_id());
            let start_ns = writer.now_ns();
            TxnTrace {
                writer,
                id,
                start_ns,
            }
        })
    }

    /// Drains the search work `scratch` did since the last drain into
    /// the search counters (when attached).
    fn flush_search(&self, scratch: &mut SearchScratch) {
        let search = scratch.take_search_totals();
        if let Some(m) = self.metrics.get() {
            m.flush_search(&search);
        }
    }

    /// Accounts one accepted request (restorations included); `active`
    /// is the active-connection count right after the insert.
    fn note_accepted(&self, active: usize, started: Option<Instant>) {
        self.accepted.fetch_add(1, RELAXED);
        if let Some(m) = self.metrics.get() {
            m.requests.inc();
            m.accepted.inc();
            m.active.set(gauge_len(active));
            if let Some(t0) = started {
                m.provision_latency.observe(ns_since(t0));
            }
        }
    }

    /// Accounts one blocked request (restorations included): totals,
    /// the cause split and, when attached, the request series.
    fn note_blocked(&self, cause: BlockCause, started: Option<Instant>) {
        self.blocked.fetch_add(1, RELAXED);
        match cause {
            BlockCause::NoPath => self.blocked_no_path.fetch_add(1, RELAXED),
            BlockCause::Capacity => self.blocked_capacity.fetch_add(1, RELAXED),
        };
        if let Some(m) = self.metrics.get() {
            m.requests.inc();
            m.record_blocked(cause);
            if let Some(t0) = started {
                m.provision_latency.observe(ns_since(t0));
            }
        }
    }

    /// Accounts one released connection (fibre-cut teardowns included);
    /// `active` is the active-connection count right after the removal.
    fn note_released(&self, active: usize, started: Option<Instant>) {
        self.released.fetch_add(1, RELAXED);
        if let Some(m) = self.metrics.get() {
            m.released.inc();
            m.active.set(gauge_len(active));
            if let Some(t0) = started {
                m.release_latency.observe(ns_since(t0));
            }
        }
    }

    /// Marks `(link, λ)` busy and accounts the flip when it takes
    /// effect (metrics, and a `MaskFlip` instant under `trace`).
    fn acquire(
        &self,
        link: LinkId,
        lambda: Wavelength,
        trace: Option<&TxnTrace>,
    ) -> AcquireOutcome {
        let got = self.state.try_acquire_shared(link, lambda);
        if got == AcquireOutcome::Acquired {
            self.note_flip(link, lambda, 1, trace);
        }
        got
    }

    /// Frees an owned `(link, λ)` and accounts the flip; `false` when
    /// the base does not carry the resource (nothing changed).
    fn free(&self, link: LinkId, lambda: Wavelength, trace: Option<&TxnTrace>) -> bool {
        let freed = self.state.release_shared(link, lambda);
        if freed {
            self.note_flip(link, lambda, -1, trace);
        }
        freed
    }

    /// Accounts one effective busy-bit transition (`delta` = +1 busy,
    /// −1 free) in the flip counter and occupancy gauges, and records it
    /// as a `MaskFlip` instant.
    fn note_flip(&self, link: LinkId, lambda: Wavelength, delta: i64, trace: Option<&TxnTrace>) {
        if let Some(m) = self.metrics.get() {
            m.mask_flips.inc();
            m.occupied.add(delta);
            m.link_occupancy[link.index()].add(delta);
        }
        if let Some(tr) = trace {
            tr.instant(
                TraceEventKind::MaskFlip,
                link.index() as u64,
                lambda.index() as u64,
            );
        }
    }
}

/// The trace one traced operation carries: its writer, its id, and when
/// the operation started.
#[derive(Debug)]
struct TxnTrace {
    writer: TraceWriter,
    id: TraceId,
    start_ns: u64,
}

impl TxnTrace {
    fn instant(&self, kind: TraceEventKind, a: u64, b: u64) {
        self.writer.instant(self.id, kind, a, b);
    }

    /// Emits the operation's root span and feeds the tail sampler.
    fn finish(&self, kind: TraceEventKind, verdict: RootVerdict, a: u64, b: u64) {
        let dur = self
            .writer
            .span(self.id, kind, self.start_ns, verdict.code(), a, b);
        self.writer.recorder().note_root(self.id, dur, verdict);
    }
}

/// One `step()` of a transaction state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step<T> {
    /// The transaction finished with this result.
    Done(T),
    /// The step did useful work; call `step()` again.
    Progress,
    /// The step found a shard claimed by another writer (or lost a CAS)
    /// and made no progress; yield to whoever holds it, then retry.
    Contended,
}

/// How one provision request concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvisionOutcome {
    /// The request was accepted: the connection is active on the
    /// committed route (retrievable via [`ConcurrentEngine::path_of`]
    /// while active), summarized here.
    Accepted {
        /// Handle for releasing the connection.
        id: ConnectionId,
        /// Hops on the committed route.
        hops: usize,
        /// Wavelength conversions on the committed route.
        conversions: usize,
        /// The committed route's cost.
        cost: Cost,
    },
    /// The request was blocked, with its cause classification.
    Blocked {
        /// Topology- vs capacity-blocked; see the module docs.
        cause: BlockCause,
    },
}

/// One torn connection's fate in a [`FailLinkTxn`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestorationOutcome {
    /// The connection torn down by the cut.
    pub torn: ConnectionId,
    /// The restored connection's id and path, or `None` when lost.
    pub restored: Option<(ConnectionId, Semilightpath)>,
    /// The blocked-cause classification when the restoration was lost
    /// (always `Some` iff `restored` is `None`).
    pub cause: Option<BlockCause>,
}

/// The sharded provisioning engine. Cheaply cloneable; all clones share
/// the same state. Each thread works through its own
/// [`ConcurrentHandle`] (see [`ConcurrentEngine::handle`]).
#[derive(Debug, Clone)]
pub struct ConcurrentEngine {
    shared: Arc<Shared>,
}

impl ConcurrentEngine {
    /// Creates an engine over `base` with every resource free, using
    /// `num_shards` wavelength shards (clamped to `1..=k`; `0` picks
    /// `min(k, 8)`). More shards admit more disjoint writers; a single
    /// shard degenerates to one global seqlock.
    pub fn new(base: &WdmNetwork, num_shards: usize) -> Self {
        Self::with_race_injection(base, num_shards, RaceInjection::None)
    }

    /// [`ConcurrentEngine::new`] with a deliberate protocol corruption —
    /// conformance-harness use only (see [`RaceInjection`]).
    pub fn with_race_injection(base: &WdmNetwork, num_shards: usize, race: RaceInjection) -> Self {
        let k = base.k().max(1);
        let num_shards = if num_shards == 0 {
            k.min(8)
        } else {
            num_shards.min(k)
        };
        let state = ResidualState::new(base);
        let total_resources = base
            .graph()
            .links()
            .map(|(e, _)| base.wavelengths_on(e).iter().count())
            .sum();
        ConcurrentEngine {
            shared: Arc::new(Shared {
                base: base.clone(),
                state,
                shards: (0..num_shards).map(|_| AtomicU64::new(0)).collect(),
                active: Mutex::new(HashMap::new()),
                next_id: AtomicU64::new(0),
                accepted: AtomicU64::new(0),
                blocked: AtomicU64::new(0),
                blocked_no_path: AtomicU64::new(0),
                blocked_capacity: AtomicU64::new(0),
                released: AtomicU64::new(0),
                conflicts: AtomicU64::new(0),
                memo_epoch: AtomicU64::new(0),
                failed: Mutex::new(Vec::new()),
                memo: Mutex::new(HashMap::new()),
                total_resources,
                race,
                tracer: OnceLock::new(),
                metrics: OnceLock::new(),
            }),
        }
    }

    /// Attaches a flight recorder: every operation from now on records a
    /// per-request trace under a [`TraceId`] that is either supplied by
    /// the caller (the daemon threads wire `trace_id`s through
    /// [`ConcurrentHandle::provision_outcome`] and
    /// [`ConcurrentHandle::release_traced`]) or allocated from the
    /// recorder. A provision records the routing query as a span, one
    /// instant per shard claim, the validation verdict, every conflict
    /// retry, one instant per mask flip, the blocked cause, and a root
    /// span carrying the outcome; releases, fibre cuts and repairs
    /// record their flips under a root span of their own. This is what
    /// makes seqlock conflict churn visible *per request* instead of
    /// only as the aggregate [`conflicts`](Self::conflicts) counter.
    ///
    /// Write-once: the first recorder wins and later calls are ignored
    /// (transactions read the cell lock-free mid-flight, so swapping
    /// recorders underneath them is not supported). Unattached engines
    /// pay one branch per transaction.
    pub fn attach_tracer(&self, recorder: &Arc<FlightRecorder>) {
        let _ = self.shared.tracer.set(Arc::clone(recorder));
    }

    /// The attached flight recorder, if any.
    pub fn tracer(&self) -> Option<&Arc<FlightRecorder>> {
        self.shared.tracer.get()
    }

    /// Attaches a metrics registry: from now on every operation reports
    /// into `registry`'s shared instruments (see the crate docs for the
    /// series and their invariants). Gauges are seeded from the current
    /// state (exact at quiescence), so attaching mid-run is coherent.
    /// Write-once, like [`attach_tracer`](Self::attach_tracer): the
    /// first registry wins. Detached engines pay one branch per
    /// operation; attached ones a few relaxed atomics.
    pub fn attach_metrics(&self, registry: &MetricsRegistry) {
        let shared = &self.shared;
        if shared.metrics.get().is_some() {
            return;
        }
        let m = EngineMetrics::resolve(registry, shared.base.link_count());
        m.active.set(gauge_len(self.active_count()));
        let mut occupied = 0i64;
        for (e, _) in shared.base.graph().links() {
            let busy = shared
                .base
                .wavelengths_on(e)
                .iter()
                .filter(|&(w, _)| shared.state.is_busy(e, w))
                .count();
            m.link_occupancy[e.index()].set(gauge_len(busy));
            occupied += gauge_len(busy);
        }
        m.occupied.set(occupied);
        let _ = shared.metrics.set(m);
    }

    /// A per-thread handle bundling this engine with its own search
    /// scratch and transaction buffers.
    pub fn handle(&self) -> ConcurrentHandle {
        let shards = self.num_shards();
        ConcurrentHandle {
            engine: self.clone(),
            scratch: self.handle_scratch(),
            bufs: TxnBuffers {
                versions: Vec::with_capacity(shards),
                touched: Vec::with_capacity(shards),
            },
        }
    }

    /// A bare per-thread [`SearchScratch`] sized for this engine, for
    /// callers that drive transactions directly (the conformance
    /// harness's simulated threads).
    pub fn handle_scratch(&self) -> SearchScratch {
        SearchScratch::for_state(&self.shared.state)
    }

    /// Busy (link, λ) resources right now (racy peek; exact at
    /// quiescence).
    pub fn busy_count(&self) -> usize {
        self.shared.state.busy_count()
    }

    /// The base network the engine routes on.
    pub fn base(&self) -> &WdmNetwork {
        &self.shared.base
    }

    /// Number of wavelength shards.
    pub fn num_shards(&self) -> usize {
        self.shared.shards.len()
    }

    /// Totals so far: `(accepted, blocked, released)`. Fibre-cut
    /// restorations count as accepted or blocked requests and cut
    /// teardowns as releases.
    pub fn totals(&self) -> (u64, u64, u64) {
        (
            self.shared.accepted.load(RELAXED),
            self.shared.blocked.load(RELAXED),
            self.shared.released.load(RELAXED),
        )
    }

    /// Blocked totals split by cause: `(no_path, capacity)`. The two
    /// always sum to the blocked total; see the module docs for the
    /// classification.
    pub fn blocked_by_cause(&self) -> (u64, u64) {
        (
            self.shared.blocked_no_path.load(RELAXED),
            self.shared.blocked_capacity.load(RELAXED),
        )
    }

    /// Optimistic commits that failed validation and retried. Zero in
    /// any single-threaded run; under contention each conflict is one
    /// wasted route computation.
    pub fn conflicts(&self) -> u64 {
        self.shared.conflicts.load(RELAXED)
    }

    /// Number of currently active connections.
    pub fn active_count(&self) -> usize {
        lock(&self.shared.active).len()
    }

    /// The path of an active connection (cloned out of the table).
    pub fn path_of(&self, id: ConnectionId) -> Option<Semilightpath> {
        lock(&self.shared.active).get(&id).map(|c| c.path.clone())
    }

    /// Ids of the active connections, in unspecified order (copied out).
    pub fn active_connections(&self) -> Vec<ConnectionId> {
        lock(&self.shared.active).keys().copied().collect()
    }

    /// Fraction of base (link, wavelength) resources currently busy,
    /// cut markers included.
    pub fn utilization(&self) -> f64 {
        if self.shared.total_resources == 0 {
            0.0
        } else {
            self.shared.state.busy_count() as f64 / self.shared.total_resources as f64
        }
    }

    /// Whether `(link, λ)` is currently masked busy (racy peek; the
    /// conformance harness reads it only at quiescent points).
    pub fn is_busy(&self, link: LinkId, lambda: Wavelength) -> bool {
        self.shared.state.is_busy(link, lambda)
    }

    /// Links currently failed and not yet repaired, sorted by id
    /// (copied out; exact at quiescence, racy mid-cut like every other
    /// aggregate peek).
    pub fn failed_links(&self) -> Vec<LinkId> {
        lock(&self.shared.failed).clone()
    }

    fn shared(&self) -> &Shared {
        &self.shared
    }
}

/// Scratch vectors a provision or release fills per request: shard
/// versions and the shard set its path touches. A handle keeps one set
/// and lends it to every transaction it drives, so steady-state
/// requests allocate nothing here.
#[derive(Debug, Default)]
struct TxnBuffers {
    /// Per shard: the version read before routing (provision) or the
    /// even version a claim advanced from (release).
    versions: Vec<u64>,
    /// Sorted, deduplicated shards the path touches.
    touched: Vec<usize>,
}

impl TxnBuffers {
    /// Both buffers emptied, `versions` sized for `shards` shards.
    fn reset(self, shards: usize) -> (Vec<u64>, Vec<usize>) {
        let TxnBuffers {
            mut versions,
            mut touched,
        } = self;
        versions.clear();
        versions.resize(shards, 0);
        touched.clear();
        (versions, touched)
    }
}

/// A per-thread handle: the engine plus this thread's [`SearchScratch`]
/// and transaction buffers. Its blocking methods are the one set of
/// retry drivers: they step a transaction to completion, yielding on
/// contention (the host has few cores; a spinning waiter on the
/// holder's core is pure waste).
#[derive(Debug)]
pub struct ConcurrentHandle {
    engine: ConcurrentEngine,
    scratch: SearchScratch,
    bufs: TxnBuffers,
}

impl ConcurrentHandle {
    /// The engine this handle works on.
    pub fn engine(&self) -> &ConcurrentEngine {
        &self.engine
    }

    /// Routes and, on success, locks `s → t` under `policy`.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Blocked`] when no route exists at the commit
    ///   instant.
    pub fn provision(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<ConnectionId, RwaError> {
        self.provision_bounded(s, t, policy, u64::MAX)
    }

    /// [`provision`](Self::provision) with a bounded retry budget: the
    /// transaction is abandoned once it has absorbed `max_conflicts`
    /// validation conflicts (or, with a budget of zero, on its first
    /// contended step of any kind).
    ///
    /// Retry exhaustion is **not** a blocked verdict. A blocked commit
    /// proves an occupancy state that rejected the request existed at
    /// the validation instant; an exhausted budget proves only that the
    /// engine was busy — the request was never decided, engine totals
    /// are untouched, and the caller may retry it verbatim. Long-lived
    /// callers that must not stall behind a hot engine (the
    /// control-plane daemon) use a budget and surface the distinction
    /// to their clients.
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Blocked`] when no route exists at the commit
    ///   instant;
    /// * [`RwaError::Contended`] when the retry budget is exhausted
    ///   before any verdict commits.
    pub fn provision_bounded(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        max_conflicts: u64,
    ) -> Result<ConnectionId, RwaError> {
        match self.provision_outcome(s, t, policy, None, max_conflicts)? {
            ProvisionOutcome::Accepted { id, .. } => Ok(id),
            ProvisionOutcome::Blocked { .. } => Err(RwaError::Blocked { s, t }),
        }
    }

    /// The provision driver behind [`provision`](Self::provision) and
    /// [`provision_bounded`](Self::provision_bounded), returning the
    /// full outcome (route summary or blocked cause). With a recorder
    /// attached, the request's trace records under `wire` (or a fresh
    /// id when `None`); `max_conflicts` is the retry budget
    /// (`u64::MAX` retries until decided).
    ///
    /// # Errors
    ///
    /// * [`RwaError::NodeOutOfRange`] for invalid endpoints;
    /// * [`RwaError::Contended`] when the retry budget is exhausted
    ///   before any verdict commits.
    pub fn provision_outcome(
        &mut self,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        wire: Option<TraceId>,
        max_conflicts: u64,
    ) -> Result<ProvisionOutcome, RwaError> {
        let bufs = std::mem::take(&mut self.bufs);
        let mut txn = ProvisionTxn::start(self.engine.shared(), s, t, policy, wire, bufs)?;
        let result = loop {
            match txn.step(&self.engine, &mut self.scratch) {
                Step::Done(outcome) => break Ok(outcome),
                Step::Progress => {}
                Step::Contended => {
                    // A contended step never leaves shard claims behind,
                    // so abandoning here is clean (see
                    // [`ProvisionTxn::conflicts`]).
                    if txn.conflicts() >= max_conflicts {
                        txn.trace_abandon();
                        break Err(RwaError::Contended {
                            s,
                            t,
                            conflicts: txn.conflicts(),
                        });
                    }
                    std::thread::yield_now();
                }
            }
        };
        self.bufs = TxnBuffers {
            versions: txn.versions,
            touched: txn.touched,
        };
        result
    }

    /// Releases an active connection, freeing its resources.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release(&mut self, id: ConnectionId) -> Result<(), RwaError> {
        self.release_traced(id, None)
    }

    /// [`release`](Self::release) with an explicit wire trace id: with
    /// a recorder attached, the release records under `wire` (or a
    /// fresh id when `None`). A release of an unknown connection still
    /// records a root span, with the `failed` verdict.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release_traced(
        &mut self,
        id: ConnectionId,
        wire: Option<TraceId>,
    ) -> Result<(), RwaError> {
        let bufs = std::mem::take(&mut self.bufs);
        let mut txn = ReleaseTxn::start(self.engine.shared(), id, wire, bufs);
        let result = loop {
            match txn.step(&self.engine) {
                Step::Done(r) => break r,
                Step::Progress => {}
                Step::Contended => std::thread::yield_now(),
            }
        };
        self.bufs = TxnBuffers {
            versions: txn.versions,
            touched: txn.touched,
        };
        result
    }

    /// Simulates a fibre cut with restoration: tears down every
    /// connection crossing `link`, restores each on the residual network
    /// with the cut excluded, and returns the outcomes in connection-id
    /// order (`Some(new_id)` when restored, `None` when lost). The cut
    /// is **persistent**: the link's wavelengths stay marked busy — and
    /// count as occupied in
    /// [`utilization`](ConcurrentEngine::utilization) — until
    /// [`restore_link`](Self::restore_link) repairs it. Failing an
    /// already-failed link is an idempotent no-op with no outcomes.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
    ) -> Vec<(ConnectionId, Option<ConnectionId>)> {
        let mut txn = FailLinkTxn::new(&self.engine, link, policy);
        loop {
            match txn.step(&self.engine, &mut self.scratch) {
                Step::Done(outcomes) => {
                    return outcomes
                        .into_iter()
                        .map(|o| (o.torn, o.restored.map(|(id, _)| id)))
                        .collect()
                }
                Step::Progress => {}
                Step::Contended => std::thread::yield_now(),
            }
        }
    }

    /// Repairs a fibre previously cut by [`fail_link`](Self::fail_link):
    /// returns `true` when the link was failed and is now restored,
    /// `false` for the no-op repair of a healthy link (a blind unmark
    /// would free resources held by active connections). Existing
    /// connections are untouched either way.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId) -> bool {
        let mut txn = RestoreLinkTxn::new(&self.engine, link);
        loop {
            match txn.step(&self.engine) {
                Step::Done(restored) => return restored,
                Step::Progress => {}
                Step::Contended => std::thread::yield_now(),
            }
        }
    }

    /// Replaces the conversion policy at `node` — an exclusive
    /// operation, valid only while this handle is the engine's sole
    /// owner (the private engine of a
    /// [`ProvisioningEngine`](crate::ProvisioningEngine)).
    ///
    /// On change the base network's policy is swapped, the routing state
    /// is rebuilt from it with every busy bit — cut markers included —
    /// replayed, so occupancy survives bit-for-bit, and the memo epoch
    /// advances: verdicts probed under the old conversion layout are
    /// never trusted again. Active connections are grandfathered.
    /// Returns `Ok(false)` for a no-op (the node already had exactly
    /// this policy).
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] if `node` is not a node of the base
    /// network.
    pub(crate) fn set_converter_policy(
        &mut self,
        node: NodeId,
        policy: ConversionPolicy,
    ) -> Result<bool, RwaError> {
        let Some(shared) = Arc::get_mut(&mut self.engine.shared) else {
            unreachable!("set_converter_policy runs only on a handle that owns its engine")
        };
        if node.index() >= shared.base.node_count() {
            return Err(RwaError::NodeOutOfRange(node));
        }
        if *shared.base.conversion_at(node) == policy {
            return Ok(false);
        }
        shared.base.set_conversion_at(node, policy);
        // Conversion gadgets are baked into the auxiliary graph at
        // construction, so the state is rebuilt and the busy bits
        // replayed.
        let mut state = ResidualState::new(&shared.base);
        for (e, _) in shared.base.graph().links() {
            for (w, _) in shared.base.wavelengths_on(e).iter() {
                if shared.state.is_busy(e, w) {
                    state.set_busy(e, w, true);
                }
            }
        }
        shared.state = state;
        *shared.memo_epoch.get_mut() += 1;
        self.scratch = SearchScratch::for_state(&shared.state);
        Ok(true)
    }
}

/// Provision transaction phases.
#[derive(Debug)]
enum ProvisionPhase {
    ReadVersions,
    Route,
    Claim,
    Validate,
    Flip,
    Publish,
    CommitBlocked,
    Done,
}

/// A stepped provision transaction; see the module docs for the
/// protocol. Create with [`ProvisionTxn::new`], drive with
/// [`ProvisionTxn::step`].
#[derive(Debug)]
pub struct ProvisionTxn {
    s: NodeId,
    t: NodeId,
    policy: Policy,
    /// Every shard's version at [`ProvisionPhase::ReadVersions`].
    versions: Vec<u64>,
    /// The shards the routed path touches, sorted.
    touched: Vec<usize>,
    path: Option<Semilightpath>,
    claimed: usize,
    flipped: usize,
    /// Validation conflicts this transaction has absorbed (each one a
    /// wasted route computation); the bounded-retry drivers read it to
    /// decide when to give up.
    conflicts: u64,
    phase: ProvisionPhase,
    /// Per-request trace state when the engine has a recorder attached.
    trace: Option<TxnTrace>,
    /// Start stamp when the engine has metrics attached.
    started: Option<Instant>,
}

impl ProvisionTxn {
    /// Starts a provision transaction, validating endpoints up front.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints.
    pub fn new(
        engine: &ConcurrentEngine,
        s: NodeId,
        t: NodeId,
        policy: Policy,
    ) -> Result<Self, RwaError> {
        Self::new_traced(engine, s, t, policy, None)
    }

    /// [`new`](Self::new) with an explicit wire trace id: when the
    /// engine has a recorder attached, the transaction's trace records
    /// under `wire` (or a freshly allocated id when `None`). Without a
    /// recorder, `wire` is ignored.
    ///
    /// # Errors
    ///
    /// [`RwaError::NodeOutOfRange`] for invalid endpoints.
    pub fn new_traced(
        engine: &ConcurrentEngine,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        wire: Option<TraceId>,
    ) -> Result<Self, RwaError> {
        Self::start(engine.shared(), s, t, policy, wire, TxnBuffers::default())
    }

    /// [`new_traced`](Self::new_traced) on lent buffers.
    fn start(
        shared: &Shared,
        s: NodeId,
        t: NodeId,
        policy: Policy,
        wire: Option<TraceId>,
        bufs: TxnBuffers,
    ) -> Result<Self, RwaError> {
        for v in [s, t] {
            if v.index() >= shared.base.node_count() {
                return Err(RwaError::NodeOutOfRange(v));
            }
        }
        let (versions, touched) = bufs.reset(shared.shards.len());
        Ok(ProvisionTxn {
            s,
            t,
            policy,
            versions,
            touched,
            path: None,
            claimed: 0,
            flipped: 0,
            conflicts: 0,
            phase: ProvisionPhase::ReadVersions,
            trace: shared.start_trace(wire),
            started: shared.started(),
        })
    }

    /// Records the abandoned-root span for a transaction its driver is
    /// giving up on (retry budget exhausted): the trace ends with the
    /// `contended` verdict — always kept by tail sampling — so the
    /// request's wasted route attempts stay visible. No-op untraced.
    /// The driver must only call this after a [`Step::Contended`], when
    /// the transaction holds no shard claims.
    pub fn trace_abandon(&self) {
        self.finish_trace(RootVerdict::Contended);
    }

    /// Validation conflicts absorbed so far. After any
    /// [`Step::Contended`] the transaction holds no shard claims, so a
    /// driver that decides this count has exhausted its budget can
    /// simply stop stepping and drop the transaction — reporting
    /// [`RwaError::Contended`], never a fabricated blocked verdict.
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }

    fn finish_trace(&self, verdict: RootVerdict) {
        if let Some(tr) = &self.trace {
            tr.finish(
                TraceEventKind::Provision,
                verdict,
                self.s.index() as u64,
                self.t.index() as u64,
            );
        }
    }

    /// Counts one validation conflict and restarts the optimistic loop.
    fn note_conflict(&mut self, shared: &Shared) {
        shared.conflicts.fetch_add(1, RELAXED);
        self.conflicts += 1;
        if let Some(tr) = &self.trace {
            tr.instant(TraceEventKind::ShardRetry, self.conflicts, 0);
        }
        self.phase = ProvisionPhase::ReadVersions;
    }

    /// Rolls claimed shards back to their pre-claim versions (no bits
    /// were flipped yet, so restoring the even value is exact) and
    /// restarts the optimistic loop.
    fn rollback_and_retry(&mut self, shared: &Shared) {
        for &sh in &self.touched[..self.claimed] {
            shared.shards[sh].store(self.versions[sh], RELEASE);
        }
        self.claimed = 0;
        self.path = None;
        self.touched.clear();
        self.note_conflict(shared);
    }

    /// Whether every shard outside the claimed set still holds the
    /// version read before routing.
    fn versions_unchanged(&self, shared: &Shared) -> bool {
        // Order the route's relaxed mask loads before the validating
        // version loads (see wdm_obs::ordering).
        fence_acquire();
        shared.race != RaceInjection::ForceValidationConflict
            && shared
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| !self.touched.contains(i))
                .all(|(i, shard)| shard.load(RELAXED) == self.versions[i])
    }

    /// Advances the transaction by one step. Call until [`Step::Done`];
    /// [`Step::Contended`] steps made no progress (another writer holds
    /// a needed shard) and should be retried after yielding.
    pub fn step(
        &mut self,
        engine: &ConcurrentEngine,
        scratch: &mut SearchScratch,
    ) -> Step<ProvisionOutcome> {
        let shared = engine.shared();
        match self.phase {
            ProvisionPhase::ReadVersions => {
                for (i, shard) in shared.shards.iter().enumerate() {
                    let v = shard.load(ACQUIRE);
                    if v % 2 == 1 {
                        return Step::Contended;
                    }
                    self.versions[i] = v;
                }
                self.phase = ProvisionPhase::Route;
                Step::Progress
            }
            ProvisionPhase::Route => {
                self.route(shared, scratch);
                if shared.race == RaceInjection::SkipShardLock
                    && matches!(self.phase, ProvisionPhase::CommitBlocked)
                {
                    // Injected race: commit the blocked verdict on the
                    // racy read, in the routing step itself.
                    return self.commit_blocked(shared, scratch);
                }
                Step::Progress
            }
            ProvisionPhase::Claim => {
                if self.claimed == self.touched.len() {
                    self.phase = ProvisionPhase::Validate;
                    return Step::Progress;
                }
                let sh = self.touched[self.claimed];
                let v = self.versions[sh];
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claimed += 1;
                        if let Some(tr) = &self.trace {
                            tr.instant(TraceEventKind::ShardClaim, sh as u64, v);
                        }
                        Step::Progress
                    }
                    Err(_) => {
                        self.rollback_and_retry(shared);
                        Step::Contended
                    }
                }
            }
            ProvisionPhase::Validate => {
                if self.versions_unchanged(shared) {
                    if let Some(tr) = &self.trace {
                        tr.instant(TraceEventKind::ShardValidate, 1, 0);
                    }
                    self.phase = ProvisionPhase::Flip;
                    Step::Progress
                } else {
                    self.rollback_and_retry(shared);
                    Step::Contended
                }
            }
            ProvisionPhase::Flip => {
                let Some(path) = self.path.as_ref() else {
                    unreachable!("flip phase always holds a path")
                };
                let hop = path.hops()[self.flipped];
                let outcome = shared.acquire(hop.link, hop.wavelength, self.trace.as_ref());
                // With the shards claimed and validated the bit must be
                // free; only the injected race can lose it (and ignores
                // the loss — that is the bug the harness must catch).
                debug_assert!(
                    shared.race == RaceInjection::SkipShardLock
                        || outcome == AcquireOutcome::Acquired,
                    "owned shard lost a bit at ({}, {})",
                    hop.link,
                    hop.wavelength
                );
                self.flipped += 1;
                if self.flipped == path.hops().len() {
                    self.phase = ProvisionPhase::Publish;
                }
                Step::Progress
            }
            ProvisionPhase::Publish => {
                let Some(path) = self.path.take() else {
                    unreachable!("publish phase always holds a path")
                };
                let (hops, conversions, cost) = (path.len(), path.conversion_count(), path.cost());
                let id = ConnectionId::from_raw(shared.next_id.fetch_add(1, RELAXED));
                let active = {
                    let mut active = lock(&shared.active);
                    active.insert(id, Connection { path });
                    active.len()
                };
                if shared.race != RaceInjection::SkipShardLock {
                    for &sh in &self.touched {
                        shared.shards[sh].store(self.versions[sh] + 2, RELEASE);
                    }
                }
                shared.note_accepted(active, self.started);
                self.finish_trace(RootVerdict::Ok);
                self.phase = ProvisionPhase::Done;
                Step::Done(ProvisionOutcome::Accepted {
                    id,
                    hops,
                    conversions,
                    cost,
                })
            }
            ProvisionPhase::CommitBlocked => self.commit_blocked(shared, scratch),
            ProvisionPhase::Done => unreachable!("stepped a finished transaction"),
        }
    }

    /// One routing attempt: the masked search on the shared state, then
    /// the commit plan for what it found — claim the touched shards, or
    /// commit a blocked verdict. Every request's route runs here.
    // wdm-lint: hot-path
    fn route(&mut self, shared: &Shared, scratch: &mut SearchScratch) {
        let route_start = self.trace.as_ref().map(|tr| tr.writer.now_ns());
        let path = self
            .policy
            .route_shared(&shared.state, scratch, self.s, self.t);
        shared.flush_search(scratch);
        if let (Some(tr), Some(t0)) = (&self.trace, route_start) {
            tr.writer.span(
                tr.id,
                TraceEventKind::Route,
                t0,
                0,
                self.s.index() as u64,
                self.t.index() as u64,
            );
        }
        match path {
            Some(p) if !p.is_empty() => {
                self.touched = shared.touched_shards(&p, std::mem::take(&mut self.touched));
                self.path = Some(p);
                self.claimed = 0;
                self.phase = if shared.race == RaceInjection::SkipShardLock {
                    // Injected race: commit on the racy read.
                    ProvisionPhase::Flip
                } else {
                    ProvisionPhase::Claim
                };
            }
            // Empty paths (s == t) block: they carry nothing.
            _ => self.phase = ProvisionPhase::CommitBlocked,
        }
    }

    /// Commits a blocked verdict once every shard version is unchanged
    /// since routing (skipped under the injected race), classifying its
    /// cause.
    fn commit_blocked(
        &mut self,
        shared: &Shared,
        scratch: &mut SearchScratch,
    ) -> Step<ProvisionOutcome> {
        if shared.race != RaceInjection::SkipShardLock && !self.versions_unchanged(shared) {
            self.note_conflict(shared);
            return Step::Contended;
        }
        let cause = shared.classify(scratch, self.s, self.t, self.policy);
        shared.note_blocked(cause, self.started);
        if let Some(tr) = &self.trace {
            tr.instant(TraceEventKind::Blocked, cause_code(cause), 0);
        }
        self.finish_trace(RootVerdict::Blocked);
        self.phase = ProvisionPhase::Done;
        Step::Done(ProvisionOutcome::Blocked { cause })
    }
}

/// Release transaction phases.
#[derive(Debug)]
enum ReleasePhase {
    Lookup,
    Claim,
    Commit,
    Flip,
    Publish,
    Done,
}

/// A stepped release transaction: peeks the connection's path, claims
/// the shards the path touches, then — *under the claim* — removes the
/// connection from the active map and clears its bits. Releases never
/// conflict logically (the resources are owned), only contend on shard
/// claims.
///
/// The map removal must happen while the shards are held: a `fail_link`
/// holds every shard from its first claim through its publish, so
/// committing the removal under our own claim guarantees the release
/// linearizes entirely before or entirely after any cut. (An earlier
/// draft removed the entry during lookup, *before* claiming; the
/// conformance harness caught the resulting history — a cut and a
/// release both reporting they freed the same connection.) If the
/// connection is gone by the time we hold the shards, it was torn by a
/// concurrent cut: roll the claims back untouched and report
/// [`RwaError::UnknownConnection`].
#[derive(Debug)]
pub struct ReleaseTxn {
    id: ConnectionId,
    /// The removed connection's path, from commit on.
    path: Option<Semilightpath>,
    /// The shards of the path, sorted.
    touched: Vec<usize>,
    /// Per shard: the even version its claim advanced from.
    versions: Vec<u64>,
    /// Active connections left right after the removal.
    active_after: usize,
    claimed: usize,
    flipped: usize,
    phase: ReleasePhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl ReleaseTxn {
    /// Starts a release transaction for `id`.
    pub fn new(engine: &ConcurrentEngine, id: ConnectionId) -> Self {
        Self::start(engine.shared(), id, None, TxnBuffers::default())
    }

    /// [`new`](Self::new) on lent buffers, traced under `wire` (or a
    /// fresh id) when the engine has a recorder attached.
    fn start(shared: &Shared, id: ConnectionId, wire: Option<TraceId>, bufs: TxnBuffers) -> Self {
        let (versions, touched) = bufs.reset(shared.shards.len());
        ReleaseTxn {
            id,
            path: None,
            touched,
            versions,
            active_after: 0,
            claimed: 0,
            flipped: 0,
            phase: ReleasePhase::Lookup,
            trace: shared.start_trace(wire),
            started: shared.started(),
        }
    }

    fn finish(&mut self, result: Result<(), RwaError>) -> Step<Result<(), RwaError>> {
        if let Some(tr) = &self.trace {
            let verdict = if result.is_ok() {
                RootVerdict::Ok
            } else {
                RootVerdict::Failed
            };
            tr.finish(TraceEventKind::Release, verdict, self.id.as_u64(), 0);
        }
        self.phase = ReleasePhase::Done;
        Step::Done(result)
    }

    /// Advances the transaction by one step.
    pub fn step(&mut self, engine: &ConcurrentEngine) -> Step<Result<(), RwaError>> {
        let shared = engine.shared();
        match self.phase {
            ReleasePhase::Lookup => {
                let found = match lock(&shared.active).get(&self.id) {
                    Some(c) => {
                        self.touched =
                            shared.touched_shards(&c.path, std::mem::take(&mut self.touched));
                        true
                    }
                    None => false,
                };
                if found {
                    self.phase = ReleasePhase::Claim;
                    Step::Progress
                } else {
                    self.finish(Err(RwaError::UnknownConnection(self.id)))
                }
            }
            ReleasePhase::Claim => {
                if self.claimed == self.touched.len() {
                    self.phase = ReleasePhase::Commit;
                    return Step::Progress;
                }
                let sh = self.touched[self.claimed];
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.versions[sh] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            ReleasePhase::Commit => {
                // Ids are never reused, so a connection still present
                // under our claim is the one whose shards we hold.
                let removed = {
                    let mut active = lock(&shared.active);
                    active.remove(&self.id).map(|c| (c.path, active.len()))
                };
                match removed {
                    Some((path, active)) => {
                        self.path = Some(path);
                        self.active_after = active;
                        self.phase = ReleasePhase::Flip;
                        Step::Progress
                    }
                    None => {
                        // Torn down by a cut that committed between our
                        // peek and our claim. Nothing was flipped:
                        // restore the claimed versions untouched.
                        for &sh in &self.touched[..self.claimed] {
                            shared.shards[sh].store(self.versions[sh], RELEASE);
                        }
                        self.finish(Err(RwaError::UnknownConnection(self.id)))
                    }
                }
            }
            ReleasePhase::Flip => {
                let Some(path) = self.path.as_ref() else {
                    unreachable!("flip phase always holds a path")
                };
                let hop = path.hops()[self.flipped];
                let freed = shared.free(hop.link, hop.wavelength, self.trace.as_ref());
                debug_assert!(freed, "released a hop the base does not carry");
                self.flipped += 1;
                if self.flipped == path.hops().len() {
                    self.phase = ReleasePhase::Publish;
                }
                Step::Progress
            }
            ReleasePhase::Publish => {
                for &sh in &self.touched {
                    shared.shards[sh].store(self.versions[sh] + 2, RELEASE);
                }
                shared.note_released(self.active_after, self.started);
                self.finish(Ok(()))
            }
            ReleasePhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

/// Fail-link transaction phases.
#[derive(Debug)]
enum FailLinkPhase {
    ClaimAll,
    Snapshot,
    Teardown,
    MarkCut,
    Restore,
    PublishAll,
    Done,
}

/// A stepped fibre-cut transaction. Claims **every** shard (ascending —
/// the same global order provisions and releases use, so claim cycles
/// cannot form), then runs the teardown → mark → restore sequence
/// exclusively. The cut is persistent: the link's wavelengths stay
/// marked busy and the link stays in the failed set until a
/// [`RestoreLinkTxn`] repairs it; the memo epoch advances with every
/// such regime change so blocked-cause verdicts probed under one
/// failed-link set are never reused under another. Teardowns count as
/// releases and restorations as requests. Cutting an already-failed
/// link is an idempotent no-op (no teardown, no epoch churn, empty
/// outcomes).
#[derive(Debug)]
pub struct FailLinkTxn {
    link: LinkId,
    policy: Policy,
    claim_base: Vec<u64>,
    claimed: usize,
    affected: Vec<(ConnectionId, Semilightpath)>,
    torn: usize,
    restored: usize,
    outcomes: Vec<RestorationOutcome>,
    phase: FailLinkPhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl FailLinkTxn {
    /// Starts a fail-link transaction for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn new(engine: &ConcurrentEngine, link: LinkId, policy: Policy) -> Self {
        let shared = engine.shared();
        assert!(
            link.index() < shared.base.link_count(),
            "link {link} out of range"
        );
        FailLinkTxn {
            link,
            policy,
            claim_base: vec![0; shared.shards.len()],
            claimed: 0,
            affected: Vec::new(),
            torn: 0,
            restored: 0,
            outcomes: Vec::new(),
            phase: FailLinkPhase::ClaimAll,
            trace: shared.start_trace(None),
            started: shared.started(),
        }
    }

    /// Advances the transaction by one step.
    pub fn step(
        &mut self,
        engine: &ConcurrentEngine,
        scratch: &mut SearchScratch,
    ) -> Step<Vec<RestorationOutcome>> {
        let shared = engine.shared();
        let trace = self.trace.as_ref();
        match self.phase {
            FailLinkPhase::ClaimAll => {
                if self.claimed == shared.shards.len() {
                    self.phase = FailLinkPhase::Snapshot;
                    return Step::Progress;
                }
                let sh = self.claimed;
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claim_base[sh] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            FailLinkPhase::Snapshot => {
                // Exclusive from here on.
                {
                    let mut failed = lock(&shared.failed);
                    if failed.contains(&self.link) {
                        // Already cut: nothing crosses a failed fibre,
                        // so there is nothing to tear down and the
                        // regime does not change — no epoch churn.
                        drop(failed);
                        self.phase = FailLinkPhase::PublishAll;
                        return Step::Progress;
                    }
                    failed.push(self.link);
                    failed.sort();
                }
                // The failed set is updated *before* the epoch advances:
                // a classifier that acquires the new epoch is guaranteed
                // (release/acquire on memo_epoch) to also see the new
                // set, so no fresh-epoch entry can be probed against the
                // old regime.
                shared.memo_epoch.fetch_add(1, RELEASE);
                let active = lock(&shared.active);
                let mut affected: Vec<(ConnectionId, Semilightpath)> = active
                    .iter()
                    .filter(|(_, c)| c.path.hops().iter().any(|h| h.link == self.link))
                    .map(|(&id, c)| (id, c.path.clone()))
                    .collect();
                drop(active);
                affected.sort_by_key(|&(id, _)| id);
                self.affected = affected;
                self.phase = FailLinkPhase::Teardown;
                Step::Progress
            }
            FailLinkPhase::Teardown => {
                if self.torn == self.affected.len() {
                    self.phase = FailLinkPhase::MarkCut;
                    return Step::Progress;
                }
                let started = shared.started();
                let (id, path) = &self.affected[self.torn];
                let active = {
                    let mut active = lock(&shared.active);
                    active.remove(id);
                    active.len()
                };
                for hop in path.hops() {
                    let freed = shared.free(hop.link, hop.wavelength, trace);
                    debug_assert!(freed, "active path hop missing from base");
                }
                shared.note_released(active, started);
                self.torn += 1;
                Step::Progress
            }
            FailLinkPhase::MarkCut => {
                // After the teardown no connection holds any of the cut
                // link's wavelengths, so every carried λ acquires; the
                // markers stay until a RestoreLinkTxn clears them.
                for lambda in 0..shared.base.k() {
                    let lam = Wavelength::new(lambda);
                    let got = shared.acquire(self.link, lam, trace);
                    debug_assert_ne!(
                        got,
                        AcquireOutcome::Busy,
                        "cut link ({}, {lam}) still held after teardown",
                        self.link
                    );
                }
                self.phase = FailLinkPhase::Restore;
                Step::Progress
            }
            FailLinkPhase::Restore => {
                if self.restored == self.affected.len() {
                    self.phase = FailLinkPhase::PublishAll;
                    return Step::Progress;
                }
                let started = shared.started();
                let (torn, old_path) = &self.affected[self.restored];
                let torn = *torn;
                let (Some(s), Some(t)) =
                    (old_path.source(&shared.base), old_path.target(&shared.base))
                else {
                    unreachable!("active paths are non-empty")
                };
                let route_start = trace.map(|tr| tr.writer.now_ns());
                let routed = self.policy.route_shared(&shared.state, scratch, s, t);
                shared.flush_search(scratch);
                if let (Some(tr), Some(t0)) = (trace, route_start) {
                    tr.writer.span(
                        tr.id,
                        TraceEventKind::Route,
                        t0,
                        0,
                        s.index() as u64,
                        t.index() as u64,
                    );
                }
                let outcome = match routed {
                    Some(path) if !path.is_empty() => {
                        for hop in path.hops() {
                            let got = shared.acquire(hop.link, hop.wavelength, trace);
                            debug_assert_eq!(got, AcquireOutcome::Acquired);
                        }
                        let id = ConnectionId::from_raw(shared.next_id.fetch_add(1, RELAXED));
                        let active = {
                            let mut active = lock(&shared.active);
                            active.insert(id, Connection { path: path.clone() });
                            active.len()
                        };
                        shared.note_accepted(active, started);
                        RestorationOutcome {
                            torn,
                            restored: Some((id, path)),
                            cause: None,
                        }
                    }
                    _ => {
                        let cause = shared.classify(scratch, s, t, self.policy);
                        shared.note_blocked(cause, started);
                        if let Some(tr) = trace {
                            tr.instant(TraceEventKind::Blocked, cause_code(cause), 0);
                        }
                        RestorationOutcome {
                            torn,
                            restored: None,
                            cause: Some(cause),
                        }
                    }
                };
                self.outcomes.push(outcome);
                self.restored += 1;
                Step::Progress
            }
            FailLinkPhase::PublishAll => {
                for (sh, shard) in shared.shards.iter().enumerate() {
                    shard.store(self.claim_base[sh] + 2, RELEASE);
                }
                if let (Some(m), Some(t0)) = (shared.metrics.get(), self.started) {
                    m.fail_link_latency.observe(ns_since(t0));
                }
                if let Some(tr) = trace {
                    tr.finish(
                        TraceEventKind::FailLink,
                        RootVerdict::Ok,
                        self.link.index() as u64,
                        self.outcomes.len() as u64,
                    );
                }
                self.phase = FailLinkPhase::Done;
                Step::Done(std::mem::take(&mut self.outcomes))
            }
            FailLinkPhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

/// Restore-link transaction phases.
#[derive(Debug)]
enum RestorePhase {
    ClaimAll,
    Apply,
    PublishAll,
    Done,
}

/// A stepped fibre-repair transaction — the involution of
/// [`FailLinkTxn`]'s cut marking. Claims every shard (same ascending
/// order), then, exclusively: if the link is failed, clears the cut's
/// blanket busy markers, removes it from the failed set, and advances
/// the memo epoch; if it is not failed, does nothing (a blind unmark
/// would free wavelengths held by active connections). Resolves to
/// `true` iff the link was failed and is now repaired. Existing
/// connections are untouched either way — restoration re-routing
/// happens at cut time, not at repair time.
#[derive(Debug)]
pub struct RestoreLinkTxn {
    link: LinkId,
    claim_base: Vec<u64>,
    claimed: usize,
    restored: bool,
    phase: RestorePhase,
    trace: Option<TxnTrace>,
    started: Option<Instant>,
}

impl RestoreLinkTxn {
    /// Starts a restore-link transaction for `link`.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn new(engine: &ConcurrentEngine, link: LinkId) -> Self {
        let shared = engine.shared();
        assert!(
            link.index() < shared.base.link_count(),
            "link {link} out of range"
        );
        RestoreLinkTxn {
            link,
            claim_base: vec![0; shared.shards.len()],
            claimed: 0,
            restored: false,
            phase: RestorePhase::ClaimAll,
            trace: shared.start_trace(None),
            started: shared.started(),
        }
    }

    /// Advances the transaction by one step.
    pub fn step(&mut self, engine: &ConcurrentEngine) -> Step<bool> {
        let shared = engine.shared();
        match self.phase {
            RestorePhase::ClaimAll => {
                if self.claimed == shared.shards.len() {
                    self.phase = RestorePhase::Apply;
                    return Step::Progress;
                }
                let sh = self.claimed;
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1 {
                    return Step::Contended;
                }
                match shared.shards[sh].compare_exchange(v, v + 1, ACQ_REL, ACQUIRE) {
                    Ok(_) => {
                        self.claim_base[sh] = v;
                        self.claimed += 1;
                        Step::Progress
                    }
                    Err(_) => Step::Contended,
                }
            }
            RestorePhase::Apply => {
                let removed = {
                    let mut failed = lock(&shared.failed);
                    match failed.binary_search(&self.link) {
                        Ok(pos) => {
                            failed.remove(pos);
                            true
                        }
                        Err(_) => false,
                    }
                };
                if removed {
                    // Exact involution of MarkCut: only the cut's own
                    // markers exist on this link (its connections were
                    // torn at cut time and every later route excluded
                    // it), so releasing every carried λ un-flips
                    // precisely the bits the cut flipped.
                    for lambda in 0..shared.base.k() {
                        shared.free(self.link, Wavelength::new(lambda), self.trace.as_ref());
                    }
                    // Set first, then epoch — same publication order as
                    // the cut, for the same memo-correctness reason.
                    shared.memo_epoch.fetch_add(1, RELEASE);
                    self.restored = true;
                }
                self.phase = RestorePhase::PublishAll;
                Step::Progress
            }
            RestorePhase::PublishAll => {
                for (sh, shard) in shared.shards.iter().enumerate() {
                    shard.store(self.claim_base[sh] + 2, RELEASE);
                }
                if let (Some(m), Some(t0)) = (shared.metrics.get(), self.started) {
                    m.restore_link_latency.observe(ns_since(t0));
                }
                if let Some(tr) = &self.trace {
                    tr.finish(
                        TraceEventKind::FailLink,
                        RootVerdict::Ok,
                        self.link.index() as u64,
                        0,
                    );
                }
                self.phase = RestorePhase::Done;
                Step::Done(self.restored)
            }
            RestorePhase::Done => unreachable!("stepped a finished transaction"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wdm_core::{ConversionPolicy, Cost};
    use wdm_graph::DiGraph;

    fn base() -> WdmNetwork {
        let g = DiGraph::from_links(4, [(0, 1), (1, 2), (2, 3)]);
        WdmNetwork::builder(g, 2)
            .link_wavelengths(0, [(0, 10), (1, 12)])
            .link_wavelengths(1, [(0, 10), (1, 12)])
            .link_wavelengths(2, [(0, 10), (1, 12)])
            .uniform_conversion(ConversionPolicy::Uniform(Cost::new(1)))
            .build()
            .expect("valid")
    }

    #[test]
    fn threads_never_share_a_resource() {
        // 4 real threads hammer provision/release; afterwards the busy
        // count must equal exactly the hops of still-active paths and
        // no two active paths may share a (link, λ).
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let mut held: Vec<Vec<ConnectionId>> = Vec::new();
        std::thread::scope(|scope| {
            let mut joins = Vec::new();
            for worker in 0..4 {
                let engine = conc.clone();
                joins.push(scope.spawn(move || {
                    let mut h = engine.handle();
                    let mut mine = Vec::new();
                    for round in 0..50 {
                        let (s, t) = [(0, 3), (0, 2), (1, 3)][(worker + round) % 3];
                        if let Ok(id) = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal)
                        {
                            if round % 2 == 0 {
                                h.release(id).expect("own connection");
                            } else {
                                mine.push(id);
                            }
                        }
                    }
                    mine
                }));
            }
            for j in joins {
                held.push(j.join().expect("worker panicked"));
            }
        });
        let active: Vec<ConnectionId> = held.into_iter().flatten().collect();
        assert_eq!(conc.active_count(), active.len());
        let mut used = std::collections::HashSet::new();
        let mut hops = 0usize;
        for &id in &active {
            let path = conc.path_of(id).expect("active");
            for h in path.hops() {
                assert!(
                    used.insert((h.link, h.wavelength)),
                    "two active paths share ({}, {})",
                    h.link,
                    h.wavelength
                );
                assert!(conc.is_busy(h.link, h.wavelength));
                hops += 1;
            }
        }
        assert_eq!(conc.shared().state.busy_count(), hops);
        let (accepted, _, released) = conc.totals();
        assert_eq!(accepted - released, active.len() as u64);
        // Drain and verify the engine returns to empty.
        let mut h = conc.handle();
        for id in active {
            h.release(id).expect("active");
        }
        assert_eq!(conc.shared().state.busy_count(), 0);
        assert_eq!(conc.utilization(), 0.0);
    }

    #[test]
    fn single_threaded_run_matches_sequential_engine() {
        // Same script through one handle on a default-shard engine and
        // the `ProvisioningEngine` wrapper (one private shard):
        // identical ids, paths, totals, cause splits and utilization —
        // and zero conflicts. The shard count must not show.
        let net = base();
        let conc = ConcurrentEngine::new(&net, 0);
        assert!(conc.num_shards() > 1);
        let mut h = conc.handle();
        let mut seq = crate::ProvisioningEngine::new(&net);
        let mut ids = Vec::new();
        for (s, t) in [(0, 3), (0, 2), (3, 0), (1, 3), (0, 3), (2, 2)] {
            let a = h.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
            let b = seq.provision(NodeId::new(s), NodeId::new(t), Policy::Optimal);
            assert_eq!(a, b, "{s}->{t}");
            if let Ok(id) = a {
                assert_eq!(conc.path_of(id), seq.path_of(id), "{s}->{t} path");
                ids.push(id);
            }
        }
        assert_eq!(conc.totals(), seq.totals());
        assert_eq!(conc.blocked_by_cause(), seq.blocked_by_cause());
        assert!((conc.utilization() - seq.utilization()).abs() < 1e-12);
        assert_eq!(conc.conflicts(), 0);
        h.release(ids[0]).expect("active");
        seq.release(ids[0]).expect("active");
        assert_eq!(conc.totals(), seq.totals());
        assert_eq!(
            h.release(ids[0]),
            Err(RwaError::UnknownConnection(ids[0])),
            "double release"
        );
    }

    #[test]
    fn shard_count_is_clamped() {
        let net = base();
        assert_eq!(ConcurrentEngine::new(&net, 0).num_shards(), 2);
        assert_eq!(ConcurrentEngine::new(&net, 1).num_shards(), 1);
        assert_eq!(ConcurrentEngine::new(&net, 64).num_shards(), 2);
    }

    /// The retry-exhaustion audit: when the bounded
    /// optimistic loop gives up, the caller must see a *contention*
    /// outcome — distinct from `Blocked { cause }` — and no engine
    /// totals may move, because no verdict ever committed.
    #[test]
    fn retry_exhaustion_is_contended_not_blocked() {
        let net = base();
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let mut h = conc.handle();
        let budget = 3;
        let got = h.provision_bounded(0.into(), 3.into(), Policy::Optimal, budget);
        match got {
            Err(RwaError::Contended { s, t, conflicts }) => {
                assert_eq!((s, t), (0.into(), 3.into()));
                assert!(conflicts >= budget, "gave up early: {conflicts} < {budget}");
            }
            other => panic!("expected Contended, got {other:?}"),
        }
        // Undecided means unaccounted: no accepted, no blocked (either
        // cause), no released — and no resources held.
        assert_eq!(conc.totals(), (0, 0, 0));
        assert_eq!(conc.blocked_by_cause(), (0, 0));
        assert_eq!(conc.active_count(), 0);
        assert_eq!(conc.busy_count(), 0);
        // The absorbed conflicts are visible in the engine-wide counter.
        assert_eq!(conc.conflicts(), budget);
        // The blocked-verdict path (s == t routes empty and must commit
        // through CommitBlocked) conflicts forever under the injection
        // too, so it must also exhaust as Contended rather than
        // fabricate a cause.
        let got = h.provision_bounded(2.into(), 2.into(), Policy::Optimal, 2);
        assert!(
            matches!(got, Err(RwaError::Contended { .. })),
            "blocked-verdict path must also exhaust as Contended: {got:?}"
        );
        assert_eq!(conc.blocked_by_cause(), (0, 0));
    }

    #[test]
    fn bounded_provision_behaves_normally_without_contention() {
        // With the audited protocol and a single thread the bounded
        // driver is byte-for-byte the unbounded one: accepts, blocks
        // with a real verdict, and never reports contention.
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let mut h = conc.handle();
        let a = h
            .provision_bounded(0.into(), 3.into(), Policy::Optimal, 0)
            .expect("routes");
        let _b = h
            .provision_bounded(0.into(), 3.into(), Policy::Optimal, 0)
            .expect("second wavelength");
        assert_eq!(
            h.provision_bounded(0.into(), 3.into(), Policy::Optimal, 0),
            Err(RwaError::Blocked {
                s: 0.into(),
                t: 3.into()
            })
        );
        assert_eq!(conc.conflicts(), 0);
        assert_eq!(conc.totals(), (2, 1, 0));
        h.release(a).expect("active");
    }

    #[test]
    fn out_of_range_endpoints_fail_fast() {
        let net = base();
        let conc = ConcurrentEngine::new(&net, 0);
        let mut h = conc.handle();
        assert!(matches!(
            h.provision(0.into(), 9.into(), Policy::Optimal),
            Err(RwaError::NodeOutOfRange(_))
        ));
        assert_eq!(conc.totals(), (0, 0, 0));
    }

    #[test]
    fn tracing_makes_seqlock_phases_visible_per_request() {
        use wdm_obs::trace::{FlightRecorder, TraceEventKind, TraceId};
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let recorder = FlightRecorder::new(1, 256);
        conc.attach_tracer(&recorder);
        let mut scratch = conc.handle_scratch();
        let mut txn = ProvisionTxn::new_traced(
            &conc,
            0.into(),
            3.into(),
            Policy::Optimal,
            Some(TraceId::from_u64(500)),
        )
        .expect("endpoints valid");
        loop {
            match txn.step(&conc, &mut scratch) {
                Step::Done(ProvisionOutcome::Accepted { .. }) => break,
                Step::Done(other) => panic!("unexpected outcome {other:?}"),
                Step::Progress => {}
                Step::Contended => panic!("uncontended single-threaded run"),
            }
        }
        let snap = recorder.snapshot();
        let of_500: Vec<_> = snap.records.iter().filter(|r| r.trace_id == 500).collect();
        let root = of_500
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span");
        assert_eq!(root.flags, wdm_obs::trace::RootVerdict::Ok.code());
        assert!(of_500.iter().any(|r| r.kind == TraceEventKind::Route));
        let claims: Vec<_> = of_500
            .iter()
            .filter(|r| r.kind == TraceEventKind::ShardClaim)
            .collect();
        assert!(!claims.is_empty(), "claims recorded per shard");
        assert!(of_500
            .iter()
            .any(|r| r.kind == TraceEventKind::ShardValidate));
        // Claimed shard versions were even (pre-claim values).
        for c in &claims {
            assert_eq!(c.b % 2, 0);
        }
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn tracing_records_conflict_retries_and_contended_abandonment() {
        use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind};
        let net = base();
        let conc =
            ConcurrentEngine::with_race_injection(&net, 2, RaceInjection::ForceValidationConflict);
        let recorder = FlightRecorder::new(1, 512);
        conc.attach_tracer(&recorder);
        let mut h = conc.handle();
        let budget = 3;
        let got = h.provision_bounded(0.into(), 3.into(), Policy::Optimal, budget);
        assert!(matches!(got, Err(RwaError::Contended { .. })));
        let snap = recorder.snapshot();
        // Every absorbed conflict is visible as a ShardRetry instant on
        // one trace, and the abandoned request closes with a contended
        // root span.
        let root = snap
            .records
            .iter()
            .find(|r| r.kind == TraceEventKind::Provision)
            .expect("root span");
        assert_eq!(root.flags, RootVerdict::Contended.code());
        let retries: Vec<_> = snap
            .records
            .iter()
            .filter(|r| r.kind == TraceEventKind::ShardRetry && r.trace_id == root.trace_id)
            .collect();
        assert_eq!(retries.len() as u64, budget, "one instant per conflict");
        // Retry ordinals count up from 1.
        let mut ordinals: Vec<u64> = retries.iter().map(|r| r.a).collect();
        ordinals.sort_unstable();
        assert_eq!(ordinals, vec![1, 2, 3]);
        // One Route span per attempt: each attempt routes, claims, and
        // dies in validation; the budget check abandons *before* a
        // further routing pass, so attempts == conflicts == budget.
        let routes = snap
            .records
            .iter()
            .filter(|r| r.kind == TraceEventKind::Route && r.trace_id == root.trace_id)
            .count();
        assert_eq!(routes as u64, budget);
    }

    #[test]
    fn traced_release_records_its_flips_under_the_wire_id() {
        use wdm_obs::trace::{FlightRecorder, RootVerdict, TraceEventKind, TraceId};
        let net = base();
        let conc = ConcurrentEngine::new(&net, 2);
        let recorder = FlightRecorder::new(1, 256);
        conc.attach_tracer(&recorder);
        let mut h = conc.handle();
        let id = h
            .provision(0.into(), 3.into(), Policy::Optimal)
            .expect("routes");
        h.release_traced(id, Some(TraceId::from_u64(77)))
            .expect("active");
        assert_eq!(
            h.release_traced(id, Some(TraceId::from_u64(78))),
            Err(RwaError::UnknownConnection(id))
        );
        let snap = recorder.snapshot();
        let of = |tid: u64, kind: TraceEventKind| {
            snap.records
                .iter()
                .filter(|r| r.trace_id == tid && r.kind == kind)
                .count()
        };
        assert_eq!(of(77, TraceEventKind::Release), 1);
        assert_eq!(
            of(77, TraceEventKind::MaskFlip),
            3,
            "one flip per freed hop"
        );
        let failed = snap
            .records
            .iter()
            .find(|r| r.trace_id == 78 && r.kind == TraceEventKind::Release)
            .expect("failed release root");
        assert_eq!(failed.flags, RootVerdict::Failed.code());
    }
}
