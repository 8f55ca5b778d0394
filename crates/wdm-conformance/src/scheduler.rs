//! Deterministic seeded interleaving of engine transactions.
//!
//! Each simulated thread is a scoped OS thread that owns one engine
//! handle built with [`ConcurrentEngine::interleaved_handle`]: at every
//! interleaving point of a transaction (see [`wdm_rwa::concurrent`])
//! the handle reports back to the scheduler and blocks until it is
//! resumed. The scheduler holds the one baton. Each step it picks, with
//! a seeded RNG, one simulated thread and lets it run to its next pause,
//! so exactly one transaction executes at a time, every pause is a
//! potential context switch — including the windows that matter, such
//! as one transaction mid-claim while another routes on the racy mask —
//! and the whole interleaving replays exactly from the seed.
//!
//! The scheduler records each operation's invocation and response step
//! stamps plus its observed response into a [`History`] for the
//! [`checker`](crate::checker).
//!
//! [`ConcurrentEngine::interleaved_handle`]: wdm_rwa::ConcurrentEngine::interleaved_handle

use crate::history::{History, OpKind, OpRecord, OpResponse};
use rand::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use wdm_core::WdmNetwork;
use wdm_graph::{LinkId, NodeId};
use wdm_rwa::concurrent::ProvisionOutcome;
use wdm_rwa::{ConcurrentEngine, ConcurrentHandle, ConnectionId, Policy, RaceInjection, RwaError};

/// Workload shape for one scheduled run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Simulated threads (each runs its own transaction at a time).
    pub threads: usize,
    /// Operations issued per simulated thread.
    pub ops_per_thread: usize,
    /// RNG seed: same seed, same interleaving, same history.
    pub seed: u64,
    /// Wavelength shards for the engine (`0` = engine default).
    pub shards: usize,
    /// Protocol corruption to inject ([`RaceInjection::None`] for the
    /// real engine).
    pub race: RaceInjection,
    /// Routing policy for provisions and restorations.
    pub policy: Policy,
    /// Probability that a thread with releasable connections available
    /// issues a release instead of a provision.
    pub release_bias: f64,
    /// Probability that an op slot becomes a `fail_link` (keep small;
    /// cuts serialize the whole engine).
    pub fail_link_bias: f64,
    /// Probability that an op slot becomes a `restore_link`. Cuts
    /// persist until repaired, so without repairs a long history on a
    /// small network degenerates to all-blocked.
    pub restore_link_bias: f64,
}

impl WorkloadConfig {
    /// A mixed provision/release/fail_link workload at the given size.
    pub fn mixed(threads: usize, ops_per_thread: usize, seed: u64) -> Self {
        WorkloadConfig {
            threads,
            ops_per_thread,
            seed,
            shards: 0,
            race: RaceInjection::None,
            policy: Policy::Optimal,
            release_bias: 0.35,
            fail_link_bias: 0.03,
            restore_link_bias: 0.03,
        }
    }
}

/// What a simulated thread reports when it hands the baton back.
enum Report {
    /// The running operation reached an interleaving point.
    Paused,
    /// The running operation returned this response.
    Done(OpResponse),
}

/// An invoked operation: what it is, its invocation stamp, and whether
/// its thread has started running it.
struct InFlight {
    op: OpKind,
    invoked_at: u64,
    started: bool,
}

/// The scheduler's end of one simulated thread.
struct SimThread {
    /// Hands the thread a new operation (and the baton).
    start: Sender<OpKind>,
    /// Hands the baton back to the thread's paused operation.
    resume: Sender<()>,
    reports: Receiver<Report>,
    in_flight: Option<InFlight>,
    remaining: usize,
}

impl SimThread {
    /// Spawns a simulated thread on `scope`, running operations on its
    /// own interleaved handle of `engine`.
    fn spawn<'scope>(
        scope: &'scope std::thread::Scope<'scope, '_>,
        engine: &ConcurrentEngine,
        ops: usize,
    ) -> Self {
        let (start, ops_rx) = channel::<OpKind>();
        let (resume, resume_rx) = channel::<()>();
        let (reports_tx, reports) = channel();
        let paused = reports_tx.clone();
        let mut handle = engine.interleaved_handle(Box::new(move |_contended| {
            // A scheduler that stopped (a failed assertion) drops its
            // ends: unwind out of the transaction instead of running on
            // without the baton.
            if paused.send(Report::Paused).is_err() || resume_rx.recv().is_err() {
                std::panic::resume_unwind(Box::new("scheduler stopped"));
            }
        }));
        scope.spawn(move || {
            for op in ops_rx {
                let response = perform(&mut handle, &op);
                if reports_tx.send(Report::Done(response)).is_err() {
                    return;
                }
            }
        });
        SimThread {
            start,
            resume,
            reports,
            in_flight: None,
            remaining: ops,
        }
    }
}

/// Runs one operation to completion on `handle`.
fn perform(handle: &mut ConcurrentHandle, op: &OpKind) -> OpResponse {
    match *op {
        OpKind::Provision { s, t, policy } => {
            match handle.provision_outcome(s, t, policy, None, u64::MAX) {
                Ok(ProvisionOutcome::Accepted { id, .. }) => {
                    // This thread still holds the baton, so the
                    // connection is still active on its committed route.
                    let Some(path) = handle.engine().path_of(id) else {
                        unreachable!("a just-committed connection is active")
                    };
                    OpResponse::Provisioned { id, path }
                }
                Ok(ProvisionOutcome::Blocked { cause }) => OpResponse::Blocked { cause },
                Err(e) => {
                    unreachable!("in-range endpoints with unbounded retries cannot fail: {e}")
                }
            }
        }
        OpKind::Release { id } => match handle.release(id) {
            Ok(()) => OpResponse::Released,
            Err(RwaError::UnknownConnection(_)) => OpResponse::ReleaseUnknown,
            Err(e) => unreachable!("release cannot fail with {e}"),
        },
        OpKind::FailLink { link, policy } => OpResponse::FailedLink {
            outcomes: handle.fail_link(link, policy, None),
        },
        OpKind::RestoreLink { link } => OpResponse::LinkRestored {
            restored: handle.restore_link(link, None),
        },
    }
}

/// Runs `cfg` against a fresh engine over `net` and returns the
/// recorded history. Deterministic in `(net, cfg)`.
///
/// # Panics
///
/// Panics, with the seed in the message, if the interleaving exceeds a
/// generous step budget (which would mean the engine livelocked) or a
/// simulated thread panics. The other simulated threads are unwound
/// either way, so a failing run ends instead of hanging.
pub fn run_workload(net: &WdmNetwork, cfg: &WorkloadConfig) -> History {
    let engine = ConcurrentEngine::with_race_injection(net, cfg.shards, cfg.race);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let pairs = all_pairs(net);
    assert!(!pairs.is_empty(), "network needs at least two nodes");
    let links = net.link_count();
    assert!(links > 0, "network needs at least one link");

    // Connections eligible for release: committed and not yet picked.
    let mut pool: Vec<ConnectionId> = Vec::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut step: u64 = 0;
    let total_ops = cfg.threads.max(1) * cfg.ops_per_thread;
    let budget: u64 = (total_ops as u64 + 1) * 100_000;

    std::thread::scope(|scope| {
        let mut threads: Vec<SimThread> = (0..cfg.threads.max(1))
            .map(|_| SimThread::spawn(scope, &engine, cfg.ops_per_thread))
            .collect();
        loop {
            let runnable: Vec<usize> = threads
                .iter()
                .enumerate()
                .filter(|(_, th)| th.in_flight.is_some() || th.remaining > 0)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                break;
            }
            let ti = runnable[rng.gen_range(0..runnable.len())];
            step += 1;
            assert!(
                step < budget,
                "scheduler exceeded {budget} steps (seed {}): engine livelocked?",
                cfg.seed
            );
            let th = &mut threads[ti];
            let Some(mut in_flight) = th.in_flight.take() else {
                // The invocation step: pick the operation, run nothing.
                th.remaining -= 1;
                th.in_flight = Some(InFlight {
                    op: next_op(&mut rng, cfg, &pairs, links, &mut pool),
                    invoked_at: step,
                    started: false,
                });
                continue;
            };
            // A send only fails if the thread is gone, which the report
            // below turns into the failure.
            if in_flight.started {
                let _ = th.resume.send(());
            } else {
                in_flight.started = true;
                let _ = th.start.send(in_flight.op.clone());
            }
            let report = th.reports.recv();
            assert!(
                report.is_ok(),
                "simulated thread {ti} panicked (seed {})",
                cfg.seed
            );
            let Ok(Report::Done(response)) = report else {
                th.in_flight = Some(in_flight);
                continue;
            };
            match &response {
                OpResponse::Provisioned { id, .. } => pool.push(*id),
                // Torn connections leave the pool; restorations join it.
                OpResponse::FailedLink { outcomes } => {
                    for o in outcomes {
                        pool.retain(|&id| id != o.torn);
                        if let Some((new_id, _)) = &o.restored {
                            pool.push(*new_id);
                        }
                    }
                }
                _ => {}
            }
            records.push(OpRecord {
                op: in_flight.op,
                thread: ti,
                invoked_at: in_flight.invoked_at,
                responded_at: step,
                response,
            });
        }
    });

    History {
        records,
        final_busy_count: engine.busy_count(),
        final_active: engine.active_count(),
        totals: engine.totals(),
        blocked_by_cause: engine.blocked_by_cause(),
        conflicts: engine.conflicts(),
        seed: cfg.seed,
    }
}

/// Draws the next operation for a simulated thread.
fn next_op(
    rng: &mut SmallRng,
    cfg: &WorkloadConfig,
    pairs: &[(NodeId, NodeId)],
    links: usize,
    pool: &mut Vec<ConnectionId>,
) -> OpKind {
    if rng.gen_bool(cfg.fail_link_bias) {
        let link = LinkId::new(rng.gen_range(0..links));
        OpKind::FailLink {
            link,
            policy: cfg.policy,
        }
    } else if rng.gen_bool(cfg.restore_link_bias) {
        let link = LinkId::new(rng.gen_range(0..links));
        OpKind::RestoreLink { link }
    } else if !pool.is_empty() && rng.gen_bool(cfg.release_bias) {
        let id = pool.swap_remove(rng.gen_range(0..pool.len()));
        OpKind::Release { id }
    } else {
        let (s, t) = pairs[rng.gen_range(0..pairs.len())];
        OpKind::Provision {
            s,
            t,
            policy: cfg.policy,
        }
    }
}

/// Every ordered node pair — including unroutable ones, so histories
/// exercise both blocked causes.
fn all_pairs(net: &WdmNetwork) -> Vec<(NodeId, NodeId)> {
    let n = net.node_count();
    let mut pairs = Vec::with_capacity(n * n.saturating_sub(1));
    for s in 0..n {
        for t in 0..n {
            if s != t {
                pairs.push((NodeId::new(s), NodeId::new(t)));
            }
        }
    }
    pairs
}
