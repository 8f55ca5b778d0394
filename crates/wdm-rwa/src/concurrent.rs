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
//! # Interleaving points
//!
//! Each operation is one straight-line method on [`ConcurrentHandle`]:
//! [`provision_outcome`](ConcurrentHandle::provision_outcome),
//! [`release_traced`](ConcurrentHandle::release_traced),
//! [`fail_link`](ConcurrentHandle::fail_link) and
//! [`restore_link`](ConcurrentHandle::restore_link). Between two units
//! of shared-state work it calls the handle's pause hook, saying whether
//! it just made progress or found another writer in its way (an odd
//! shard, a lost CAS, a failed validation). The hook of a
//! [`ConcurrentEngine::handle`] does nothing on progress and yields the
//! thread on contention. The `wdm-conformance` scheduler builds its
//! handles with [`ConcurrentEngine::interleaved_handle`] instead: there
//! the hook hands one seeded baton between simulated threads, so exactly
//! one transaction runs between two pauses and every history replays
//! from its seed. No mutex guard is ever held across a pause. The
//! points are:
//!
//! * provision: after reading the versions, after routing, after each
//!   shard claim, once more after the last claim (the window in which
//!   another writer can commit before validation), after validation,
//!   and after each mask flip;
//! * release: after the lookup, after each shard claim and once more
//!   after the last, after removing the connection, after each flip;
//! * fail_link and restore_link: after each shard claim and once more
//!   after the last; then a cut pauses after its snapshot, after each
//!   teardown and once after the sweep, after marking the cut, after
//!   each restoration and once after that sweep, while a repair pauses
//!   once after applying.
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
use std::fmt;
use std::hash::{BuildHasherDefault, DefaultHasher};
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
    /// Active connections. Locked only between two interleaving
    /// points, never across one. The engine assigns the keys, so no
    /// client chooses what is inserted, and a fixed-key hasher makes the
    /// map's growth (and so its allocations) repeat from run to run.
    active: Mutex<HashMap<ConnectionId, Connection, BuildHasherDefault<DefaultHasher>>>,
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
    /// only by cuts and repairs while they hold every shard; read by
    /// blocked-cause classification for the duration of one probe.
    failed: Mutex<Vec<LinkId>>,
    /// The blocked-cause memo. Locked only to copy one entry out or put
    /// one in, never across a probe. Clients choose its keys, so it keeps
    /// the randomly seeded hasher.
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

    /// One routing query: the masked search on the shared state, its
    /// search work drained into the counters and, under `trace`, a
    /// `Route` span. `None` when nothing routes — empty paths (s == t)
    /// included: they carry nothing. Every request's route runs here.
    // wdm-lint: hot-path
    fn route(
        &self,
        scratch: &mut SearchScratch,
        policy: Policy,
        s: NodeId,
        t: NodeId,
        trace: Option<&TxnTrace>,
    ) -> Option<Semilightpath> {
        let route_start = trace.map(|tr| tr.writer.now_ns());
        let path = policy.route_shared(&self.state, scratch, s, t);
        self.flush_search(scratch);
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
        path.filter(|p| !p.is_empty())
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
                    if converts {
                        self.state.reachable_when_free(scratch, s, t, &failed)
                    } else {
                        self.state
                            .reachable_when_free_single_wavelength(scratch, s, t, &failed)
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

    /// Whether every shard outside `claimed` still holds the version in
    /// `versions` (read before routing).
    fn unchanged_since(&self, versions: &[u64], claimed: &[usize]) -> bool {
        // Order the route's relaxed mask loads before the validating
        // version loads (see wdm_obs::ordering).
        fence_acquire();
        self.race != RaceInjection::ForceValidationConflict
            && self
                .shards
                .iter()
                .enumerate()
                .filter(|(i, _)| !claimed.contains(i))
                .all(|(i, shard)| shard.load(RELAXED) == versions[i])
    }

    /// Puts the `claimed` shards back at their pre-claim versions. Exact
    /// only while no bit has been flipped under the claim.
    fn roll_back(&self, claimed: &[usize], versions: &[u64]) {
        for &sh in claimed {
            self.shards[sh].store(versions[sh], RELEASE);
        }
    }

    /// Counts a provision's validation conflict, its `conflicts`-th.
    fn note_conflict(&self, conflicts: u64, trace: Option<&TxnTrace>) {
        self.conflicts.fetch_add(1, RELAXED);
        if let Some(tr) = trace {
            tr.instant(TraceEventKind::ShardRetry, conflicts, 0);
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
        let got = self.state.try_acquire(link, lambda);
        if got == AcquireOutcome::Acquired {
            self.note_flip(link, lambda, 1, trace);
        }
        got
    }

    /// Frees an owned `(link, λ)` and accounts the flip; `false` when
    /// the base does not carry the resource (nothing changed).
    fn free(&self, link: LinkId, lambda: Wavelength, trace: Option<&TxnTrace>) -> bool {
        let freed = self.state.release(link, lambda);
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

/// One torn connection's fate in a fibre cut
/// ([`ConcurrentHandle::fail_link`]).
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
                active: Mutex::new(HashMap::default()),
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
    /// the caller (the daemon threads wire `trace_id`s through the
    /// `wire` argument of every [`ConcurrentHandle`] operation) or
    /// allocated from the recorder. A provision records the routing
    /// query as a span, one instant per shard claim, the validation
    /// verdict, every conflict retry, one instant per mask flip, the
    /// blocked cause, and a root span carrying the outcome; releases,
    /// fibre cuts and repairs record their flips under a root span of
    /// their own. This is what makes seqlock conflict churn visible
    /// *per request* instead of only as the aggregate
    /// [`conflicts`](Self::conflicts) counter.
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
    /// scratch and shard buffers. It yields the thread whenever a
    /// transaction finds another writer in its way.
    pub fn handle(&self) -> ConcurrentHandle {
        self.handle_with(Pause(None))
    }

    /// A handle whose transactions call `pause` at every interleaving
    /// point (see the module docs) instead of yielding on contention;
    /// the argument is `true` when the transaction just found another
    /// writer in its way. Conformance-harness use only, like
    /// [`with_race_injection`](Self::with_race_injection): it is the
    /// seam a deterministic scheduler substitutes to decide which
    /// simulated thread runs next.
    pub fn interleaved_handle(&self, pause: Box<dyn FnMut(bool) + Send>) -> ConcurrentHandle {
        self.handle_with(Pause(Some(pause)))
    }

    fn handle_with(&self, pause: Pause) -> ConcurrentHandle {
        let shards = self.num_shards();
        ConcurrentHandle {
            engine: self.clone(),
            scratch: SearchScratch::for_state(&self.shared.state),
            versions: vec![0; shards],
            touched: Vec::with_capacity(shards),
            pause,
        }
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
}

/// The hook a handle's transactions call at every interleaving point:
/// `None` yields the thread on contention and does nothing on progress,
/// `Some` is a conformance scheduler's handoff.
struct Pause(Option<Box<dyn FnMut(bool) + Send>>);

impl Pause {
    /// The transaction did shared-state work since its last pause.
    fn progress(&mut self) {
        if let Some(hook) = &mut self.0 {
            hook(false);
        }
    }

    /// The transaction found another writer in its way and holds no
    /// claim it could be waiting on; yield to whoever does.
    fn contended(&mut self) {
        match &mut self.0 {
            Some(hook) => hook(true),
            None => std::thread::yield_now(),
        }
    }
}

impl fmt::Debug for Pause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.is_some() {
            "Pause(hook)"
        } else {
            "Pause(yield)"
        })
    }
}

/// A per-thread handle: the engine plus this thread's [`SearchScratch`],
/// the shard buffers its transactions reuse (so steady-state requests
/// allocate nothing here), and its pause hook. Its methods are the
/// engine's transactions.
#[derive(Debug)]
pub struct ConcurrentHandle {
    engine: ConcurrentEngine,
    scratch: SearchScratch,
    /// Per shard: the version read before routing (provision) or the
    /// even version a claim advanced from (release, cut, repair).
    versions: Vec<u64>,
    /// The sorted, deduplicated shards the current path touches.
    touched: Vec<usize>,
    pause: Pause,
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
    /// validation conflicts (or, with a budget of zero, at its first
    /// contended point of any kind).
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

    /// The provision transaction behind [`provision`](Self::provision)
    /// and [`provision_bounded`](Self::provision_bounded), returning the
    /// full outcome (route summary or blocked cause). With a recorder
    /// attached, the request's trace records under `wire` (or a fresh
    /// id when `None`); `max_conflicts` is the retry budget
    /// (`u64::MAX` retries until decided), checked at every contended
    /// point. An abandoned request holds no claims and closes its trace
    /// with the `contended` root verdict, which tail sampling always
    /// keeps.
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
        let shared = &*self.engine.shared;
        for v in [s, t] {
            if v.index() >= shared.base.node_count() {
                return Err(RwaError::NodeOutOfRange(v));
            }
        }
        let trace = shared.start_trace(wire);
        let started = shared.started();
        let finish = |verdict: RootVerdict| {
            if let Some(tr) = &trace {
                let (a, b) = (s.index() as u64, t.index() as u64);
                tr.finish(TraceEventKind::Provision, verdict, a, b);
            }
        };
        // Under the injected race routes commit on the racy read: no
        // claim, no validation.
        let locked = shared.race != RaceInjection::SkipShardLock;
        let mut conflicts = 0;
        let verdict = loop {
            // One optimistic attempt; `None` when it met another writer,
            // in which case it holds no claims.
            let attempt = 'attempt: {
                for (sh, shard) in shared.shards.iter().enumerate() {
                    let v = shard.load(ACQUIRE);
                    if v % 2 == 1 {
                        break 'attempt None;
                    }
                    self.versions[sh] = v;
                }
                self.pause.progress();
                let routed = shared.route(&mut self.scratch, policy, s, t, trace.as_ref());
                let Some(path) = routed else {
                    if locked {
                        self.pause.progress();
                        if !shared.unchanged_since(&self.versions, &[]) {
                            conflicts += 1;
                            shared.note_conflict(conflicts, trace.as_ref());
                            break 'attempt None;
                        }
                    }
                    break 'attempt Some(Err(shared.classify(&mut self.scratch, s, t, policy)));
                };
                self.pause.progress();
                if locked {
                    self.touched = shared.touched_shards(&path, std::mem::take(&mut self.touched));
                    for (claimed, &sh) in self.touched.iter().enumerate() {
                        let v = self.versions[sh];
                        if shared.shards[sh]
                            .compare_exchange(v, v + 1, ACQ_REL, ACQUIRE)
                            .is_err()
                        {
                            shared.roll_back(&self.touched[..claimed], &self.versions);
                            conflicts += 1;
                            shared.note_conflict(conflicts, trace.as_ref());
                            break 'attempt None;
                        }
                        if let Some(tr) = &trace {
                            tr.instant(TraceEventKind::ShardClaim, sh as u64, v);
                        }
                        self.pause.progress();
                    }
                    self.pause.progress();
                    if !shared.unchanged_since(&self.versions, &self.touched) {
                        shared.roll_back(&self.touched, &self.versions);
                        conflicts += 1;
                        shared.note_conflict(conflicts, trace.as_ref());
                        break 'attempt None;
                    }
                    if let Some(tr) = &trace {
                        tr.instant(TraceEventKind::ShardValidate, 1, 0);
                    }
                    self.pause.progress();
                }
                Some(Ok(path))
            };
            if let Some(verdict) = attempt {
                break verdict;
            }
            if conflicts >= max_conflicts {
                finish(RootVerdict::Contended);
                return Err(RwaError::Contended { s, t, conflicts });
            }
            self.pause.contended();
        };
        let path = match verdict {
            Ok(path) => path,
            Err(cause) => {
                shared.note_blocked(cause, started);
                if let Some(tr) = &trace {
                    tr.instant(TraceEventKind::Blocked, cause_code(cause), 0);
                }
                finish(RootVerdict::Blocked);
                return Ok(ProvisionOutcome::Blocked { cause });
            }
        };
        for hop in path.hops() {
            let got = shared.acquire(hop.link, hop.wavelength, trace.as_ref());
            // With the shards claimed and validated the bit must be
            // free; only the injected race can lose it (and ignores the
            // loss — that is the bug the harness must catch).
            debug_assert!(
                !locked || got == AcquireOutcome::Acquired,
                "owned shard lost a bit at ({}, {})",
                hop.link,
                hop.wavelength
            );
            self.pause.progress();
        }
        let (hops, conversions, cost) = (path.len(), path.conversion_count(), path.cost());
        let id = ConnectionId::from_raw(shared.next_id.fetch_add(1, RELAXED));
        let active = {
            let mut active = lock(&shared.active);
            active.insert(id, Connection { path });
            active.len()
        };
        if locked {
            for &sh in &self.touched {
                shared.shards[sh].store(self.versions[sh] + 2, RELEASE);
            }
        }
        shared.note_accepted(active, started);
        finish(RootVerdict::Ok);
        Ok(ProvisionOutcome::Accepted {
            id,
            hops,
            conversions,
            cost,
        })
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
    /// The transaction peeks the connection's path, claims the shards
    /// the path touches, and only then removes the connection from the
    /// active map and clears its bits. Releases never conflict
    /// logically (the resources are owned), they only wait on shard
    /// claims.
    ///
    /// # Errors
    ///
    /// [`RwaError::UnknownConnection`] if `id` is not active.
    pub fn release_traced(
        &mut self,
        id: ConnectionId,
        wire: Option<TraceId>,
    ) -> Result<(), RwaError> {
        let shared = &*self.engine.shared;
        let trace = shared.start_trace(wire);
        let started = shared.started();
        let finish = |result: Result<(), RwaError>| {
            if let Some(tr) = &trace {
                let verdict = if result.is_ok() {
                    RootVerdict::Ok
                } else {
                    RootVerdict::Failed
                };
                tr.finish(TraceEventKind::Release, verdict, id.as_u64(), 0);
            }
            result
        };
        let found = match lock(&shared.active).get(&id) {
            Some(c) => {
                self.touched = shared.touched_shards(&c.path, std::mem::take(&mut self.touched));
                true
            }
            None => false,
        };
        if !found {
            return finish(Err(RwaError::UnknownConnection(id)));
        }
        self.pause.progress();
        for &sh in &self.touched {
            loop {
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1
                    || shared.shards[sh]
                        .compare_exchange(v, v + 1, ACQ_REL, ACQUIRE)
                        .is_err()
                {
                    self.pause.contended();
                } else {
                    self.versions[sh] = v;
                    break;
                }
            }
            self.pause.progress();
        }
        self.pause.progress();
        // The removal must happen under the claim: a cut holds every
        // shard from its first claim through its publish, so removing
        // the entry while we hold our shards makes the release
        // linearize entirely before or entirely after any cut. Removing
        // it before claiming lets a cut and a release both report
        // freeing the same connection. Ids are never reused, so an
        // entry still present is the one whose shards we hold.
        let removed = {
            let mut active = lock(&shared.active);
            active.remove(&id).map(|c| (c.path, active.len()))
        };
        let Some((path, active)) = removed else {
            // Torn down by a cut that committed between our peek and
            // our claim. Nothing was flipped: restore the claimed
            // versions untouched.
            shared.roll_back(&self.touched, &self.versions);
            return finish(Err(RwaError::UnknownConnection(id)));
        };
        self.pause.progress();
        for hop in path.hops() {
            let freed = shared.free(hop.link, hop.wavelength, trace.as_ref());
            debug_assert!(freed, "released a hop the base does not carry");
            self.pause.progress();
        }
        for &sh in &self.touched {
            shared.shards[sh].store(self.versions[sh] + 2, RELEASE);
        }
        shared.note_released(active, started);
        finish(Ok(()))
    }

    /// Simulates a fibre cut with restoration: tears down every
    /// connection crossing `link`, restores each on the residual network
    /// with the cut excluded, and returns the outcomes in connection-id
    /// order (teardowns count as releases, restorations as requests).
    /// The cut is **persistent**: the link's wavelengths stay marked
    /// busy — and count as occupied in
    /// [`utilization`](ConcurrentEngine::utilization) — and the link
    /// stays in the failed set until
    /// [`restore_link`](Self::restore_link) repairs it; the memo epoch
    /// advances with every such regime change, so blocked-cause
    /// verdicts probed under one failed-link set are never reused under
    /// another. Failing an already-failed link is an idempotent no-op
    /// with no outcomes. With a recorder attached, the cut records
    /// under `wire` (or a fresh id when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn fail_link(
        &mut self,
        link: LinkId,
        policy: Policy,
        wire: Option<TraceId>,
    ) -> Vec<RestorationOutcome> {
        assert!(
            link.index() < self.engine.base().link_count(),
            "link {link} out of range"
        );
        let trace = self.engine.shared.start_trace(wire);
        let started = self.engine.shared.started();
        let outcomes = self.exclusive(|h| h.cut(link, policy, trace.as_ref()));
        if let (Some(m), Some(t0)) = (self.engine.shared.metrics.get(), started) {
            m.fail_link_latency.observe(ns_since(t0));
        }
        if let Some(tr) = &trace {
            let (a, b) = (link.index() as u64, outcomes.len() as u64);
            tr.finish(TraceEventKind::FailLink, RootVerdict::Ok, a, b);
        }
        outcomes
    }

    /// The body of [`fail_link`](Self::fail_link), run holding every
    /// shard: record the cut, tear down the connections crossing it,
    /// mark its wavelengths busy, and restore the torn connections.
    fn cut(
        &mut self,
        link: LinkId,
        policy: Policy,
        trace: Option<&TxnTrace>,
    ) -> Vec<RestorationOutcome> {
        let shared = &*self.engine.shared;
        let newly_cut = {
            let mut failed = lock(&shared.failed);
            match failed.binary_search(&link) {
                Ok(_) => false,
                Err(pos) => {
                    failed.insert(pos, link);
                    true
                }
            }
        };
        if !newly_cut {
            // Nothing crosses a failed fibre, so there is nothing to
            // tear down and the regime does not change — no epoch churn.
            self.pause.progress();
            return Vec::new();
        }
        // The failed set is updated *before* the epoch advances: a
        // classifier that acquires the new epoch is guaranteed
        // (release/acquire on memo_epoch) to also see the new set, so no
        // fresh-epoch entry can be probed against the old regime.
        shared.memo_epoch.fetch_add(1, RELEASE);
        let mut affected: Vec<(ConnectionId, Semilightpath)> = lock(&shared.active)
            .iter()
            .filter(|(_, c)| c.path.hops().iter().any(|h| h.link == link))
            .map(|(&id, c)| (id, c.path.clone()))
            .collect();
        affected.sort_by_key(|&(id, _)| id);
        self.pause.progress();
        for (id, path) in &affected {
            let started = shared.started();
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
            self.pause.progress();
        }
        self.pause.progress();
        // After the teardown no connection holds any of the cut link's
        // wavelengths, so every carried λ acquires; the markers stay
        // until a repair clears them.
        for lambda in 0..shared.base.k() {
            let lam = Wavelength::new(lambda);
            let got = shared.acquire(link, lam, trace);
            debug_assert_ne!(
                got,
                AcquireOutcome::Busy,
                "cut link ({link}, {lam}) still held after teardown"
            );
        }
        self.pause.progress();
        let mut outcomes = Vec::with_capacity(affected.len());
        for (torn, old_path) in affected {
            let started = shared.started();
            let (Some(s), Some(t)) = (old_path.source(&shared.base), old_path.target(&shared.base))
            else {
                unreachable!("active paths are non-empty")
            };
            let restored = shared.route(&mut self.scratch, policy, s, t, trace);
            outcomes.push(match restored {
                Some(path) => {
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
                None => {
                    let cause = shared.classify(&mut self.scratch, s, t, policy);
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
            });
            self.pause.progress();
        }
        self.pause.progress();
        outcomes
    }

    /// Repairs a fibre previously cut by [`fail_link`](Self::fail_link)
    /// — the involution of the cut's marking. Returns `true` when the
    /// link was failed and is now restored: its blanket busy markers are
    /// cleared, it leaves the failed set, and the memo epoch advances.
    /// Repairing a healthy link is a reported no-op (`false`; a blind
    /// unmark would free resources held by active connections).
    /// Existing connections are untouched either way — restoration
    /// re-routing happens at cut time, not at repair time. With a
    /// recorder attached, the repair records under `wire` (or a fresh
    /// id when `None`).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range.
    pub fn restore_link(&mut self, link: LinkId, wire: Option<TraceId>) -> bool {
        assert!(
            link.index() < self.engine.base().link_count(),
            "link {link} out of range"
        );
        let trace = self.engine.shared.start_trace(wire);
        let started = self.engine.shared.started();
        let restored = self.exclusive(|h| {
            let shared = &*h.engine.shared;
            let removed = {
                let mut failed = lock(&shared.failed);
                match failed.binary_search(&link) {
                    Ok(pos) => {
                        failed.remove(pos);
                        true
                    }
                    Err(_) => false,
                }
            };
            if removed {
                // Only the cut's own markers exist on this link (its
                // connections were torn at cut time and every later
                // route excluded it), so freeing every carried λ
                // un-flips precisely the bits the cut flipped.
                for lambda in 0..shared.base.k() {
                    shared.free(link, Wavelength::new(lambda), trace.as_ref());
                }
                // Set first, then epoch — same publication order as the
                // cut, for the same memo-correctness reason.
                shared.memo_epoch.fetch_add(1, RELEASE);
            }
            h.pause.progress();
            removed
        });
        if let (Some(m), Some(t0)) = (self.engine.shared.metrics.get(), started) {
            m.restore_link_latency.observe(ns_since(t0));
        }
        if let Some(tr) = &trace {
            let a = link.index() as u64;
            tr.finish(TraceEventKind::RestoreLink, RootVerdict::Ok, a, 0);
        }
        restored
    }

    /// Runs `apply` holding every shard. The claims ascend — the global
    /// order provisions and releases use, so claim cycles cannot form —
    /// with a pause after each and once more after the last; the shards
    /// are published once `apply` returns.
    fn exclusive<T>(&mut self, apply: impl FnOnce(&mut Self) -> T) -> T {
        let shared = Arc::clone(&self.engine.shared);
        for sh in 0..shared.shards.len() {
            loop {
                let v = shared.shards[sh].load(ACQUIRE);
                if v % 2 == 1
                    || shared.shards[sh]
                        .compare_exchange(v, v + 1, ACQ_REL, ACQUIRE)
                        .is_err()
                {
                    self.pause.contended();
                } else {
                    self.versions[sh] = v;
                    break;
                }
            }
            self.pause.progress();
        }
        self.pause.progress();
        let out = apply(self);
        for (sh, shard) in shared.shards.iter().enumerate() {
            shard.store(self.versions[sh] + 2, RELEASE);
        }
        out
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
        // construction, so the state is rebuilt; busy bits and filled
        // lower bounds carry over.
        shared.state.rebuild_conversions(&shared.base);
        *shared.memo_epoch.get_mut() += 1;
        self.scratch = SearchScratch::for_state(&shared.state);
        Ok(true)
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
        assert_eq!(conc.shared.state.busy_count(), hops);
        let (accepted, _, released) = conc.totals();
        assert_eq!(accepted - released, active.len() as u64);
        // Drain and verify the engine returns to empty.
        let mut h = conc.handle();
        for id in active {
            h.release(id).expect("active");
        }
        assert_eq!(conc.shared.state.busy_count(), 0);
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
        // The blocked-verdict path (s == t routes empty and must pass
        // the blocked commit's validation) conflicts forever under the
        // injection too, so it must also exhaust as Contended rather
        // than fabricate a cause.
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
        let mut h = conc.handle();
        let outcome = h
            .provision_outcome(
                0.into(),
                3.into(),
                Policy::Optimal,
                Some(TraceId::from_u64(500)),
                u64::MAX,
            )
            .expect("endpoints valid");
        assert!(
            matches!(outcome, ProvisionOutcome::Accepted { .. }),
            "unexpected outcome {outcome:?}"
        );
        assert_eq!(conc.conflicts(), 0, "uncontended single-threaded run");
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
