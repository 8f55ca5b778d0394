//! Conformance of the provisioning engine against an independent spec.
//!
//! The engine ([`wdm_rwa::ConcurrentEngine`], and the single-caller
//! [`wdm_rwa::ProvisioningEngine`] wrapped around it) claims two things:
//! a serial run makes exactly the decisions of a naive reference that
//! rebuilds its routing structure per request, and every history of
//! concurrent `provision` / `release` / `fail_link` / `restore_link`
//! calls is **linearizable** — equivalent to *some* serial execution of
//! the same operations on that reference, one that respects real time
//! (an operation that finished before another started must come first).
//! This crate is the gate for both claims, in three parts:
//!
//! 1. [`spec`] — the reference: [`SpecEngine`], a test-only engine that
//!    keeps a plain busy matrix and rebuilds a
//!    [`wdm_core::ResidualState`] on every request. It shares no
//!    code with the engine's transactions; the engine-vs-spec property
//!    suite (`tests/provisioning_conformance.rs`) drives both through
//!    random serial interleavings and requires identical ids, hops,
//!    totals and blocked causes.
//!
//! 2. [`scheduler`] — a deterministic, seeded interleaver. Every
//!    engine operation calls a pause hook at each of its interleaving
//!    points ([`wdm_rwa::concurrent`]); the scheduler runs each of N
//!    simulated threads on its own OS thread with a handle whose hook
//!    hands one baton back, and chooses with a seeded RNG which
//!    in-flight transaction runs to its next pause. Identical seed →
//!    identical interleaving → identical [`History`], including
//!    genuinely racy windows (a transaction mid-commit while another
//!    routes). The same machinery drives the deliberately broken engine
//!    ([`wdm_rwa::RaceInjection`]) to prove the checker catches real
//!    races.
//! 3. [`checker`] — a Wing–Gong style search. Given the recorded
//!    history, it enumerates candidate serial orders consistent with
//!    the real-time partial order, replaying each through a fresh
//!    [`SpecEngine`] and pruning with a memo of visited
//!    (linearized-set, spec-state) configurations. The history passes
//!    iff some order reproduces every observed response exactly —
//!    accept/block verdicts, hop-for-hop paths, blocked-cause splits,
//!    and restoration outcomes.
//!
//! Engine and spec resolve equal-cost ties identically (the same
//! wavelength scan on the same mask state), and the engine allocates
//! connection ids at commit time under global validation, so the commit
//! order itself is always a witness: the checker needs to *find* it,
//! never to approximate path equality.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
/// Operation/response records and history collection.
pub mod history;
/// The deterministic concurrent-schedule driver.
pub mod scheduler;
/// The rebuild-per-request reference spec.
pub mod spec;

pub use checker::{check_history, CheckConfig, Verdict};
pub use history::{History, OpKind, OpRecord, OpResponse};
pub use scheduler::{run_workload, WorkloadConfig};
pub use spec::SpecEngine;
