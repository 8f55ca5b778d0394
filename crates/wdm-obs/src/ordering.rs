// wdm-lint: audited-orderings
//! The one audited home for atomic memory-ordering choices in the
//! workspace.
//!
//! Every atomic call site outside this module imports a named constant
//! from here instead of writing `Ordering::…` inline, so the argument
//! for each ordering is made once — below — where the `wdm-lint` L4
//! rule can hold the whole workspace to it. Call sites that need an
//! ordering *not* audited here must write an explicit `Ordering::` with
//! their own justification comment, which L4 will demand.
//!
//! # [`RELAXED`] — independent instrument cells
//!
//! * Instruments (counters, gauges, histogram cells) are *independent*
//!   monotonic values. No reader infers anything about one atomic from
//!   the value of another, so no acquire/release pairing is needed to
//!   order them.
//! * Exported snapshots are advisory. A scrape may observe counts that
//!   are exact for already-published events and slightly stale for
//!   in-flight ones; that is the documented contract of the registry.
//! * Cross-thread *publication* of the instruments themselves happens
//!   through `Arc`/`&'static` creation, whose synchronization is
//!   provided by the surrounding structures, not by the instrument
//!   atomics.
//!
//! [`RELAXED`] is also correct for the *data words* of the concurrent
//! edge-mask (`wdm_core::csr::EdgeMask`): every consistency decision
//! about mask contents is made through the sharded seqlock version
//! counters, never from the bit values alone, so the bit loads and RMWs
//! themselves need no ordering (see the seqlock audit below for the
//! fences that make the protocol sound).
//!
//! # [`ACQUIRE`] / [`RELEASE`] / [`ACQ_REL`] — seqlock version counters
//!
//! The concurrent provisioning engine validates optimistic reads with
//! per-shard version counters (odd = writer in critical section). The
//! protocol is the classic seqlock:
//!
//! * A **reader** loads every relevant version with [`ACQUIRE`] before
//!   reading mask bits — the mask loads cannot float above it — then
//!   issues [`fence_acquire`] and re-loads the versions; unchanged even
//!   values prove the bits formed a consistent snapshot. The fence
//!   orders the relaxed bit loads *before* the validating version
//!   re-load, which a plain `ACQUIRE` load alone would not.
//! * A **writer** claims a shard by CAS-ing its version from even `v`
//!   to odd `v + 1` with [`ACQ_REL`]: the acquire half sees every prior
//!   writer's bit flips, the release half keeps the claim from sinking
//!   below earlier operations. Its bit RMWs may then be [`RELAXED`]
//!   (exclusivity is established), and the final `store(v + 2)` uses
//!   [`RELEASE`] so the flips are visible to any reader whose
//!   validating load observes the new version.
//!
//! Failure orderings of the claim CAS are [`ACQUIRE`] — a failed claim
//! is followed by a retry that re-reads state published by the winner.
//!
//! # [`ACQUIRE`] / [`RELEASE`] — fill-once tables behind a ready flag
//!
//! The goal-directed search's lower-bound rows
//! (`wdm_core::residual`) are filled lazily, by whichever search first
//! needs one, and read by every search after it:
//!
//! * A **filler** stores the row's cells [`RELAXED`], then sets the
//!   row's ready flag with [`RELEASE`], so every cell store happens
//!   before the flag.
//! * A **reader** loads the flag with [`ACQUIRE`]; seeing it set, its
//!   [`RELAXED`] cell loads see the whole row.
//! * Two fillers racing on one row compute it from the same immutable
//!   graph and store identical values, so a reader that overlaps the
//!   second filler still reads the same numbers. No CAS is needed.

use std::sync::atomic::{fence, Ordering};

/// Relaxed ordering for independent metric cells and for seqlock-guarded
/// mask words (see module docs for the full audit).
pub const RELAXED: Ordering = Ordering::Relaxed;

/// Acquire ordering for seqlock version reads and CAS failure paths
/// (see module docs).
pub const ACQUIRE: Ordering = Ordering::Acquire;

/// Release ordering for seqlock version publication stores (see module
/// docs).
pub const RELEASE: Ordering = Ordering::Release;

/// Acquire-release ordering for seqlock claim CAS successes (see module
/// docs).
pub const ACQ_REL: Ordering = Ordering::AcqRel;

/// An acquire fence: orders preceding relaxed loads before subsequent
/// loads. Used by seqlock readers between reading guarded data and
/// re-loading the version counters that validate it (see module docs).
pub fn fence_acquire() {
    fence(ACQUIRE);
}
