//! Request-scoped structured tracing: trace IDs, typed events, and the
//! in-memory **flight recorder**.
//!
//! wdm-lint: protocol: seqlock
//!
//! Aggregates (counters, histograms) answer "how is the system doing";
//! they cannot answer "why did *this* request block" or "which shards
//! did *this* transaction retry on". This module adds the per-request
//! layer: every operation carries a [`TraceId`] (a `u64`, either taken
//! from the wire or allocated here), emits typed [`TraceRecord`]s —
//! route start/end, mask flips, shard claim/validate/retry,
//! blocked-cause, admission — and the records land in a bounded
//! lock-free ring buffer, the [`FlightRecorder`], that can be
//! snapshotted at any time and exported as a Chrome `trace_event` JSON
//! (see [`export`]) or a human-readable text tree.
//!
//! # Recording discipline
//!
//! The recorder follows the same contract as the metrics layer:
//!
//! * **Disabled costs one branch.** Producers hold an
//!   `Option<TraceWriter>`; detached producers pay a single `None`
//!   check per operation and touch nothing else.
//! * **Enabled costs no allocation.** A record is a fixed block of
//!   seven `u64` words written with relaxed atomic stores under a
//!   per-slot seqlock claim — no heap, no locks, no syscalls. The
//!   write functions are `// wdm-lint: hot-path` annotated, so the
//!   static-analysis gate holds them to it.
//! * **Bounded by construction.** The ring has a fixed capacity per
//!   segment; when it wraps, the *oldest* record is overwritten and a
//!   saturating drop counter advances. A 1M-request soak records the
//!   recent past, never an unbounded history.
//!
//! # Ring-buffer protocol
//!
//! The recorder is split into *segments* (one per expected writer
//! thread; writers are assigned round-robin). Each slot in a segment
//! carries its own seqlock word, reusing the audited protocol from
//! [`crate::ordering`]: a writer claims the slot by CAS-ing the
//! sequence from even to odd ([`ACQ_REL`]), stores the payload words
//! [`RELAXED`], and publishes with an even store ([`RELEASE`]); a
//! reader loads the sequence ([`ACQUIRE`]), reads the payload, issues
//! [`fence_acquire`], and re-loads the sequence — any change means the
//! read was torn and the slot is skipped. Two writers racing for the
//! same slot (only possible once a segment is shared by more threads
//! than segments exist) resolve by the loser *dropping* its record and
//! counting it, never by blocking.
//!
//! # Tail sampling
//!
//! With [`TailSampling`] attached, the snapshot keeps only the traces
//! worth keeping: every blocked or contended request, plus the
//! slowest-N accepted ones. The full ring still absorbs every record
//! (cheap); sampling is applied at snapshot/export time from a small
//! bookkeeping table fed by [`FlightRecorder::note_root`].

use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use crate::ordering::{fence_acquire, ACQUIRE, ACQ_REL, RELAXED, RELEASE};

pub mod export;

pub use export::{
    render_chrome_trace, render_text_tree, validate_chrome_trace, write_chrome_trace,
    write_text_tree, ChromeTraceSummary,
};

/// A request-scoped trace identifier.
///
/// IDs are plain `u64`s so they travel over the wire protocol
/// unchanged: a client may supply its own (`trace_id` request field)
/// and correlate the echoed reply with the exported trace, or the
/// recorder allocates one (monotonically from 1) for requests that
/// arrive untagged. `0` is never allocated, so it can serve as an
/// "untraced" sentinel in contexts that need one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw wire identifier.
    pub fn from_u64(raw: u64) -> TraceId {
        TraceId(raw)
    }

    /// The raw identifier, as it appears on the wire and in exports.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

/// The typed event vocabulary.
///
/// Every record carries one kind; `a` and `b` are kind-specific
/// payload words (documented per variant). Spans (`dur > 0` semantics)
/// and instants share the vocabulary — [`TraceRecord::is_span`] is
/// decided by the emitting call, not the kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceEventKind {
    /// Root span of one provision request. `a` = source node, `b` =
    /// destination node; flags carry the [`RootVerdict`].
    Provision = 1,
    /// The routing query (masked Dijkstra / shared-state route).
    /// `a` = source, `b` = destination.
    Route = 2,
    /// One busy-bit flip committing a hop. `a` = link index, `b` =
    /// wavelength index.
    MaskFlip = 3,
    /// Blocked-cause verdict for a blocked request. `a` = cause code
    /// (0 = no_path, 1 = capacity).
    Blocked = 4,
    /// Root span of one release. `a` = raw connection id; flags carry
    /// the [`RootVerdict`] (`Failed` for unknown connections).
    Release = 5,
    /// Root span of one fail-link restoration sweep. `a` = link index,
    /// `b` = affected connection count.
    FailLink = 6,
    /// A seqlock shard claim succeeded. `a` = shard index, `b` = the
    /// even version the CAS advanced from.
    ShardClaim = 7,
    /// Post-claim validation of the untouched shards. `a` = 1 (the
    /// failing case retries and emits [`TraceEventKind::ShardRetry`]).
    ShardValidate = 8,
    /// A validation conflict rolled the transaction back to re-route.
    /// `a` = conflicts absorbed by this transaction so far.
    ShardRetry = 9,
    /// Admission control rejected the request (`overloaded`). `a` =
    /// in-flight requests observed, `b` = the admission limit.
    Admission = 10,
    /// Root span of one fibre repair. `a` = link index.
    RestoreLink = 11,
}

impl TraceEventKind {
    /// Stable on-ring code for this kind.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes a ring code; `None` for corrupt/unknown codes.
    pub fn from_code(code: u8) -> Option<TraceEventKind> {
        Some(match code {
            1 => TraceEventKind::Provision,
            2 => TraceEventKind::Route,
            3 => TraceEventKind::MaskFlip,
            4 => TraceEventKind::Blocked,
            5 => TraceEventKind::Release,
            6 => TraceEventKind::FailLink,
            7 => TraceEventKind::ShardClaim,
            8 => TraceEventKind::ShardValidate,
            9 => TraceEventKind::ShardRetry,
            10 => TraceEventKind::Admission,
            11 => TraceEventKind::RestoreLink,
            _ => return None,
        })
    }

    /// The export name (Chrome trace `name`, text-tree label).
    pub fn label(self) -> &'static str {
        match self {
            TraceEventKind::Provision => "provision",
            TraceEventKind::Route => "route",
            TraceEventKind::MaskFlip => "mask-flip",
            TraceEventKind::Blocked => "blocked",
            TraceEventKind::Release => "release",
            TraceEventKind::FailLink => "fail-link",
            TraceEventKind::ShardClaim => "shard-claim",
            TraceEventKind::ShardValidate => "shard-validate",
            TraceEventKind::ShardRetry => "shard-retry",
            TraceEventKind::Admission => "admission",
            TraceEventKind::RestoreLink => "restore-link",
        }
    }
}

/// How a root span (provision/release) ended; stored in the record
/// flags so tail sampling and exports can tell outcomes apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RootVerdict {
    /// The request committed.
    Ok,
    /// The request was blocked (no path / no capacity).
    Blocked,
    /// The request exhausted its conflict-retry budget undecided.
    Contended,
    /// The operation failed (e.g. release of an unknown connection).
    Failed,
}

impl RootVerdict {
    /// Stable flags code.
    pub fn code(self) -> u8 {
        match self {
            RootVerdict::Ok => 0,
            RootVerdict::Blocked => 1,
            RootVerdict::Contended => 2,
            RootVerdict::Failed => 3,
        }
    }

    /// Decodes a flags code (unknown codes read as `Failed`).
    pub fn from_code(code: u8) -> RootVerdict {
        match code {
            0 => RootVerdict::Ok,
            1 => RootVerdict::Blocked,
            2 => RootVerdict::Contended,
            _ => RootVerdict::Failed,
        }
    }

    /// The export label.
    pub fn label(self) -> &'static str {
        match self {
            RootVerdict::Ok => "ok",
            RootVerdict::Blocked => "blocked",
            RootVerdict::Contended => "contended",
            RootVerdict::Failed => "failed",
        }
    }
}

/// One decoded record from the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace this record belongs to.
    pub trace_id: u64,
    /// Start time in nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Span duration in nanoseconds; `0` for instant events.
    pub dur_ns: u64,
    /// The typed event.
    pub kind: TraceEventKind,
    /// Kind-specific flags (root spans: the [`RootVerdict`] code).
    pub flags: u8,
    /// First kind-specific payload word (see [`TraceEventKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// The segment (≈ writer thread) that recorded this; exported as
    /// the Chrome trace `tid` so per-writer tracks render separately.
    pub tid: u32,
}

impl TraceRecord {
    /// Whether this record is a span (has duration) rather than an
    /// instant event. Spans with sub-nanosecond measured duration are
    /// normalized to 1 ns at emission so they stay spans.
    pub fn is_span(&self) -> bool {
        self.dur_ns > 0
    }
}

/// Payload words per slot (trace_id, ts, dur, meta, a, b).
const PAYLOAD_WORDS: usize = 6;

/// One seqlock-guarded record slot.
struct Slot {
    /// Seqlock word: even = stable, odd = a writer owns the slot, `0`
    /// = never written.
    seq: AtomicU64,
    words: [AtomicU64; PAYLOAD_WORDS],
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One writer segment of the ring.
struct Segment {
    slots: Box<[Slot]>,
    /// Tickets handed to writers; slot = ticket % capacity.
    head: AtomicU64,
    /// Records successfully published into this segment.
    written: AtomicU64,
    /// Records lost to drop-oldest overwrites.
    overwritten: AtomicU64,
    /// Records dropped because another writer owned the slot.
    contended: AtomicU64,
}

impl Segment {
    fn new(capacity: usize) -> Segment {
        Segment {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            written: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }
}

/// Tail-sampling policy: which completed traces a snapshot keeps.
///
/// Blocked and contended traces are always kept (they are the ones a
/// debugging session is looking for); accepted traces are kept only if
/// they rank among the `slowest` N seen so far. The bookkeeping for
/// "always keep" is itself bounded (`flagged_cap`, drop-oldest) so a
/// soak with millions of blocked requests cannot grow it without
/// bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailSampling {
    /// Keep the N slowest accepted traces.
    pub slowest: usize,
    /// Bound on the remembered blocked/contended trace ids
    /// (drop-oldest beyond it).
    pub flagged_cap: usize,
}

impl TailSampling {
    /// Keep the `n` slowest accepted traces plus (up to `4n`, at least
    /// 256) blocked/contended ones.
    pub fn keep_slowest(n: usize) -> TailSampling {
        TailSampling {
            slowest: n,
            flagged_cap: (n.saturating_mul(4)).max(256),
        }
    }
}

/// Sampling bookkeeping: fed by [`FlightRecorder::note_root`], read at
/// snapshot time.
struct Kept {
    /// Blocked/contended trace ids, oldest first.
    flagged: VecDeque<u64>,
    /// Min-heap of `(dur_ns, trace_id)` for the slowest-N accepted
    /// traces (the root is the *fastest* kept trace, evicted first).
    slowest: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

/// A consistent copy of the ring plus its loss accounting.
#[derive(Debug, Clone)]
pub struct TraceSnapshot {
    /// Decoded records, sorted by start time.
    pub records: Vec<TraceRecord>,
    /// Records ever published to the ring (saturating).
    pub recorded: u64,
    /// Records lost: drop-oldest overwrites plus same-slot writer
    /// collisions (saturating).
    pub dropped: u64,
}

/// The bounded in-memory flight recorder.
///
/// Create one with [`FlightRecorder::new`] (or
/// [`FlightRecorder::with_sampling`]), hand [`TraceWriter`]s to
/// producers, and snapshot at any time — concurrent writers are never
/// blocked by a snapshot, and a snapshot never observes a torn record.
///
/// # Memory bound
///
/// `segments * capacity * 56` bytes of slots (7 words each) plus a few
/// counters; independent of how many records have ever been written.
///
/// # Examples
///
/// ```
/// use wdm_obs::trace::{FlightRecorder, TraceEventKind};
///
/// let recorder = FlightRecorder::new(2, 64);
/// let writer = recorder.writer();
/// let id = recorder.next_trace_id();
/// let t0 = writer.now_ns();
/// writer.instant(id, TraceEventKind::MaskFlip, 3, 1);
/// writer.span(id, TraceEventKind::Route, t0, 0, 0, 5);
/// let snap = recorder.snapshot();
/// assert_eq!(snap.records.len(), 2);
/// assert_eq!(snap.dropped, 0);
/// ```
pub struct FlightRecorder {
    epoch: Instant,
    segments: Vec<Segment>,
    next_writer: AtomicUsize,
    next_trace: AtomicU64,
    sampling: Option<TailSampling>,
    kept: Mutex<Kept>,
}

/// Locks a mutex, recovering from poisoning (the bookkeeping is a pair
/// of bounded collections; every update leaves them consistent).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("segments", &self.segments.len())
            .field(
                "capacity_per_segment",
                &self.segments.first().map_or(0, |s| s.slots.len()),
            )
            .field("sampling", &self.sampling)
            .finish_non_exhaustive()
    }
}

impl FlightRecorder {
    /// A recorder with `segments` writer segments of `capacity` records
    /// each (both clamped to at least 1), keeping every trace.
    pub fn new(segments: usize, capacity: usize) -> Arc<FlightRecorder> {
        Self::build(segments, capacity, None)
    }

    /// A recorder that tail-samples its snapshots: blocked/contended
    /// traces and the slowest-N accepted ones survive, the rest are
    /// filtered at export time.
    pub fn with_sampling(
        segments: usize,
        capacity: usize,
        sampling: TailSampling,
    ) -> Arc<FlightRecorder> {
        Self::build(segments, capacity, Some(sampling))
    }

    fn build(
        segments: usize,
        capacity: usize,
        sampling: Option<TailSampling>,
    ) -> Arc<FlightRecorder> {
        let segments = segments.max(1);
        let capacity = capacity.max(1);
        Arc::new(FlightRecorder {
            epoch: Instant::now(),
            segments: (0..segments).map(|_| Segment::new(capacity)).collect(),
            next_writer: AtomicUsize::new(0),
            next_trace: AtomicU64::new(1),
            sampling,
            kept: Mutex::new(Kept {
                flagged: VecDeque::new(),
                slowest: BinaryHeap::new(),
            }),
        })
    }

    /// Nanoseconds since the recorder's epoch (saturating).
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Allocates a fresh trace id (monotonic from 1; never 0).
    pub fn next_trace_id(&self) -> TraceId {
        TraceId(self.next_trace.fetch_add(1, RELAXED))
    }

    /// A writer handle bound to the next segment round-robin. Cheap
    /// (one `Arc` clone); hand one to each producer thread.
    pub fn writer(self: &Arc<Self>) -> TraceWriter {
        let seg = self.next_writer.fetch_add(1, RELAXED) % self.segments.len();
        let Ok(segment) = u32::try_from(seg) else {
            unreachable!("segment count fits in u32")
        };
        TraceWriter {
            recorder: Arc::clone(self),
            segment,
        }
    }

    /// Records ever published (saturating over segments).
    pub fn recorded_count(&self) -> u64 {
        self.segments
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.written.load(RELAXED)))
    }

    /// Records lost so far: drop-oldest overwrites plus same-slot
    /// writer collisions (saturating).
    pub fn drop_count(&self) -> u64 {
        self.segments.iter().fold(0u64, |acc, s| {
            acc.saturating_add(s.overwritten.load(RELAXED))
                .saturating_add(s.contended.load(RELAXED))
        })
    }

    /// The tail-sampling policy, if one is attached.
    pub fn sampling(&self) -> Option<TailSampling> {
        self.sampling
    }

    /// Feeds the tail sampler one finished root span. No-op without
    /// sampling. Writers call this once per request — off the
    /// per-event path, so the mutex here never touches event recording.
    pub fn note_root(&self, trace: TraceId, dur_ns: u64, verdict: RootVerdict) {
        let Some(policy) = self.sampling else {
            return;
        };
        let mut kept = lock(&self.kept);
        match verdict {
            RootVerdict::Ok => {
                if policy.slowest == 0 {
                    return;
                }
                kept.slowest
                    .push(std::cmp::Reverse((dur_ns, trace.as_u64())));
                while kept.slowest.len() > policy.slowest {
                    kept.slowest.pop();
                }
            }
            _ => {
                kept.flagged.push_back(trace.as_u64());
                while kept.flagged.len() > policy.flagged_cap {
                    kept.flagged.pop_front();
                }
            }
        }
    }

    /// The trace ids the sampler currently keeps (`None` = keep all).
    fn kept_ids(&self) -> Option<HashSet<u64>> {
        self.sampling?;
        let kept = lock(&self.kept);
        let mut ids: HashSet<u64> = kept.flagged.iter().copied().collect();
        ids.extend(kept.slowest.iter().map(|r| r.0 .1));
        Some(ids)
    }

    /// A consistent snapshot of the ring, sorted by start time and
    /// filtered by the tail sampler (when one is attached). Torn slots
    /// (a writer was mid-record) are skipped, never mis-read.
    pub fn snapshot(&self) -> TraceSnapshot {
        let keep = self.kept_ids();
        let mut records = Vec::new();
        for (seg_idx, seg) in self.segments.iter().enumerate() {
            let Ok(tid) = u32::try_from(seg_idx) else {
                unreachable!("segment count fits in u32")
            };
            for slot in seg.slots.iter() {
                let s1 = slot.seq.load(ACQUIRE);
                if s1 == 0 || s1 % 2 == 1 {
                    continue;
                }
                let words: [u64; PAYLOAD_WORDS] =
                    std::array::from_fn(|i| slot.words[i].load(RELAXED));
                fence_acquire();
                if slot.seq.load(RELAXED) != s1 {
                    continue; // torn: a writer republished underneath us
                }
                let meta = words[3];
                let Some(kind) = TraceEventKind::from_code((meta & 0xff) as u8) else {
                    continue;
                };
                let record = TraceRecord {
                    trace_id: words[0],
                    ts_ns: words[1],
                    dur_ns: words[2],
                    kind,
                    flags: ((meta >> 8) & 0xff) as u8,
                    a: words[4],
                    b: words[5],
                    tid,
                };
                if let Some(keep) = &keep {
                    if !keep.contains(&record.trace_id) {
                        continue;
                    }
                }
                records.push(record);
            }
        }
        records.sort_by_key(|r| (r.ts_ns, r.trace_id, r.kind.code()));
        TraceSnapshot {
            records,
            recorded: self.recorded_count(),
            dropped: self.drop_count(),
        }
    }
}

/// A producer handle: writes records into one segment of a
/// [`FlightRecorder`].
///
/// Cloneable and cheap to create; give each thread its own (sharing
/// one across threads is safe but loses records to slot collisions
/// instead of blocking — collisions are counted as drops).
#[derive(Debug, Clone)]
pub struct TraceWriter {
    recorder: Arc<FlightRecorder>,
    segment: u32,
}

impl TraceWriter {
    /// The recorder this writer feeds.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Nanoseconds since the recorder epoch — the `start_ns` input of
    /// [`TraceWriter::span`].
    // wdm-lint: hot-path
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.recorder.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an instant event.
    // wdm-lint: hot-path
    pub fn instant(&self, trace: TraceId, kind: TraceEventKind, a: u64, b: u64) {
        let ts = self.now_ns();
        self.record_raw(trace.0, ts, 0, kind.code() as u64, a, b);
    }

    /// Records a span that started at `start_ns` (from
    /// [`TraceWriter::now_ns`]) and ends now. Returns the measured
    /// duration in nanoseconds (clamped to ≥ 1 so the record stays a
    /// span).
    // wdm-lint: hot-path
    pub fn span(
        &self,
        trace: TraceId,
        kind: TraceEventKind,
        start_ns: u64,
        flags: u8,
        a: u64,
        b: u64,
    ) -> u64 {
        let dur = self.now_ns().saturating_sub(start_ns).max(1);
        let meta = kind.code() as u64 | ((flags as u64) << 8);
        self.record_raw(trace.0, start_ns, dur, meta, a, b);
        dur
    }

    /// The slot write: claim by CAS (even → odd), store payload,
    /// publish (odd → next even). Lock-free: a lost claim drops the
    /// record and advances the drop counter instead of waiting.
    // wdm-lint: hot-path
    fn record_raw(&self, trace: u64, ts: u64, dur: u64, meta: u64, a: u64, b: u64) {
        let seg = &self.recorder.segments[self.segment as usize];
        let ticket = seg.head.fetch_add(1, RELAXED);
        let cap = seg.slots.len() as u64;
        let slot = &seg.slots[(ticket % cap) as usize];
        let cur = slot.seq.load(RELAXED);
        if cur % 2 == 1
            || slot
                .seq
                .compare_exchange(cur, cur + 1, ACQ_REL, ACQUIRE)
                .is_err()
        {
            let _ = seg
                .contended
                .fetch_update(RELAXED, RELAXED, |c| Some(c.saturating_add(1)));
            return;
        }
        if cur != 0 {
            // The slot held a published record: this write is a
            // drop-oldest overwrite.
            let _ = seg
                .overwritten
                .fetch_update(RELAXED, RELAXED, |c| Some(c.saturating_add(1)));
        }
        slot.words[0].store(trace, RELAXED);
        slot.words[1].store(ts, RELAXED);
        slot.words[2].store(dur, RELAXED);
        slot.words[3].store(meta, RELAXED);
        slot.words[4].store(a, RELAXED);
        slot.words[5].store(b, RELAXED);
        slot.seq.store(cur + 2, RELEASE);
        let _ = seg
            .written
            .fetch_update(RELAXED, RELAXED, |c| Some(c.saturating_add(1)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_a_snapshot() {
        let rec = FlightRecorder::new(1, 16);
        let w = rec.writer();
        let id = rec.next_trace_id();
        assert_eq!(id.as_u64(), 1);
        let t0 = w.now_ns();
        w.instant(id, TraceEventKind::MaskFlip, 7, 2);
        let dur = w.span(id, TraceEventKind::Route, t0, 0, 3, 9);
        assert!(dur >= 1);
        let snap = rec.snapshot();
        assert_eq!(snap.recorded, 2);
        assert_eq!(snap.dropped, 0);
        assert_eq!(snap.records.len(), 2);
        // Sorted by start time: the span started before the instant.
        assert_eq!(snap.records[0].kind, TraceEventKind::Route);
        assert!(snap.records[0].is_span());
        assert_eq!((snap.records[0].a, snap.records[0].b), (3, 9));
        assert_eq!(snap.records[1].kind, TraceEventKind::MaskFlip);
        assert!(!snap.records[1].is_span());
        assert_eq!(snap.records[1].trace_id, 1);
    }

    #[test]
    fn ring_wrap_drops_oldest_and_counts() {
        let rec = FlightRecorder::new(1, 8);
        let w = rec.writer();
        for i in 0..20u64 {
            w.instant(TraceId::from_u64(100 + i), TraceEventKind::MaskFlip, i, 0);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 8, "ring retains exactly its capacity");
        assert_eq!(snap.recorded, 20);
        assert_eq!(snap.dropped, 12, "12 overwrites of the oldest records");
        // The survivors are the newest 12..20.
        let ids: Vec<u64> = snap.records.iter().map(|r| r.a).collect();
        assert_eq!(ids, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let rec = FlightRecorder::new(1, 4);
        let a = rec.next_trace_id();
        let b = rec.next_trace_id();
        assert_ne!(a, b);
        assert!(a.as_u64() > 0 && b.as_u64() > 0);
    }

    #[test]
    fn concurrent_writers_never_tear_records() {
        let rec = FlightRecorder::new(4, 256);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let w = rec.writer();
                scope.spawn(move || {
                    for i in 0..500u64 {
                        // Payload words that self-identify: a == b
                        // must hold for every decoded record.
                        let v = t * 1000 + i;
                        w.instant(TraceId::from_u64(t + 1), TraceEventKind::ShardClaim, v, v);
                    }
                });
            }
        });
        let snap = rec.snapshot();
        // Every write either published or was counted as a collision
        // drop; nothing is silently lost.
        let contended: u64 = rec.segments.iter().map(|s| s.contended.load(RELAXED)).sum();
        assert_eq!(snap.recorded + contended, 2000);
        for r in &snap.records {
            assert_eq!(r.a, r.b, "torn record: {r:?}");
        }
    }

    #[test]
    fn sampling_keeps_blocked_and_slowest() {
        let rec = FlightRecorder::with_sampling(1, 64, TailSampling::keep_slowest(2));
        let w = rec.writer();
        // Five accepted traces with increasing duration, one blocked.
        for (id, dur) in [(1u64, 10u64), (2, 50), (3, 30), (4, 99), (5, 20)] {
            w.instant(TraceId::from_u64(id), TraceEventKind::MaskFlip, id, 0);
            rec.note_root(TraceId::from_u64(id), dur, RootVerdict::Ok);
        }
        w.instant(TraceId::from_u64(77), TraceEventKind::Blocked, 0, 0);
        rec.note_root(TraceId::from_u64(77), 5, RootVerdict::Blocked);
        let snap = rec.snapshot();
        let mut kept: Vec<u64> = snap.records.iter().map(|r| r.trace_id).collect();
        kept.sort_unstable();
        kept.dedup();
        // Slowest two accepted (ids 2 and 4) plus the blocked one.
        assert_eq!(kept, vec![2, 4, 77]);
        // The ring itself still recorded everything.
        assert_eq!(snap.recorded, 6);
    }

    #[test]
    fn sampling_flagged_set_is_bounded() {
        let rec = FlightRecorder::with_sampling(
            1,
            8,
            TailSampling {
                slowest: 1,
                flagged_cap: 4,
            },
        );
        for id in 0..100u64 {
            rec.note_root(TraceId::from_u64(id + 1), 1, RootVerdict::Contended);
        }
        let kept = rec.kept_ids().expect("sampling attached");
        assert_eq!(kept.len(), 4, "flagged set must drop oldest beyond cap");
        assert!(kept.contains(&100));
        assert!(!kept.contains(&1));
    }

    #[test]
    fn verdict_codes_round_trip() {
        for v in [
            RootVerdict::Ok,
            RootVerdict::Blocked,
            RootVerdict::Contended,
            RootVerdict::Failed,
        ] {
            assert_eq!(RootVerdict::from_code(v.code()), v);
        }
        for code in 1u8..=11 {
            let kind = TraceEventKind::from_code(code).expect("valid code");
            assert_eq!(kind.code(), code);
            assert!(!kind.label().is_empty());
        }
        assert_eq!(TraceEventKind::from_code(0), None);
        assert_eq!(TraceEventKind::from_code(99), None);
    }

    #[test]
    fn zero_sized_recorder_is_clamped_not_broken() {
        let rec = FlightRecorder::new(0, 0);
        let w = rec.writer();
        w.instant(TraceId::from_u64(1), TraceEventKind::Admission, 1, 1);
        w.instant(TraceId::from_u64(2), TraceEventKind::Admission, 2, 2);
        let snap = rec.snapshot();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.dropped, 1);
    }
}
