//! Deterministic seeded interleaving of concurrent-engine transactions.
//!
//! The concurrent engine's operations are stepped state machines, so a
//! single real thread can simulate `N` logical threads: keep one
//! in-flight transaction per simulated thread and repeatedly pick —
//! with a seeded RNG — which one advances by one step. Every step
//! boundary is a potential context switch, including the windows that
//! matter (one transaction mid-claim while another routes on the racy
//! mask), and the whole interleaving replays exactly from the seed.
//!
//! The scheduler records each operation's invocation and response step
//! stamps plus its observed response into a [`History`] for the
//! [`checker`](crate::checker).

use crate::history::{History, OpKind, OpRecord, OpResponse};
use rand::prelude::*;
use wdm_core::{SearchScratch, WdmNetwork};
use wdm_graph::{LinkId, NodeId};
use wdm_rwa::concurrent::{
    FailLinkTxn, ProvisionOutcome, ProvisionTxn, ReleaseTxn, RestoreLinkTxn, Step,
};
use wdm_rwa::{ConcurrentEngine, ConnectionId, Policy, RaceInjection, RwaError};

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

/// One simulated thread's in-flight transaction.
enum Slot {
    Idle,
    Provision(Box<ProvisionTxn>, OpKind, u64),
    Release(ReleaseTxn, OpKind, u64),
    FailLink(Box<FailLinkTxn>, OpKind, u64),
    RestoreLink(RestoreLinkTxn, OpKind, u64),
}

struct SimThread {
    slot: Slot,
    remaining: usize,
    scratch: SearchScratch,
}

/// Runs `cfg` against a fresh engine over `net` and returns the
/// recorded history. Deterministic in `(net, cfg)`.
///
/// # Panics
///
/// Panics if the interleaving exceeds a generous step budget (which
/// would mean the engine livelocked) — the panic message includes the
/// seed.
pub fn run_workload(net: &WdmNetwork, cfg: &WorkloadConfig) -> History {
    let engine = ConcurrentEngine::with_race_injection(net, cfg.shards, cfg.race);
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let pairs = all_pairs(net);
    assert!(!pairs.is_empty(), "network needs at least two nodes");
    let links = net.link_count();
    assert!(links > 0, "network needs at least one link");

    let mut threads: Vec<SimThread> = (0..cfg.threads.max(1))
        .map(|_| SimThread {
            slot: Slot::Idle,
            remaining: cfg.ops_per_thread,
            scratch: engine.handle_scratch(),
        })
        .collect();
    // Connections eligible for release: committed and not yet picked.
    let mut pool: Vec<ConnectionId> = Vec::new();
    let mut records: Vec<OpRecord> = Vec::new();
    let mut step: u64 = 0;
    let total_ops = cfg.threads.max(1) * cfg.ops_per_thread;
    let budget: u64 = (total_ops as u64 + 1) * 100_000;

    loop {
        let runnable: Vec<usize> = threads
            .iter()
            .enumerate()
            .filter(|(_, th)| !matches!(th.slot, Slot::Idle) || th.remaining > 0)
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
        match &mut th.slot {
            Slot::Idle => {
                th.remaining -= 1;
                let invoked_at = step;
                if rng.gen_bool(cfg.fail_link_bias) {
                    let link = LinkId::new(rng.gen_range(0..links));
                    let op = OpKind::FailLink {
                        link,
                        policy: cfg.policy,
                    };
                    let txn = FailLinkTxn::new(&engine, link, cfg.policy);
                    th.slot = Slot::FailLink(Box::new(txn), op, invoked_at);
                } else if rng.gen_bool(cfg.restore_link_bias) {
                    let link = LinkId::new(rng.gen_range(0..links));
                    let op = OpKind::RestoreLink { link };
                    let txn = RestoreLinkTxn::new(&engine, link);
                    th.slot = Slot::RestoreLink(txn, op, invoked_at);
                } else if !pool.is_empty() && rng.gen_bool(cfg.release_bias) {
                    let id = pool.swap_remove(rng.gen_range(0..pool.len()));
                    let op = OpKind::Release { id };
                    th.slot = Slot::Release(ReleaseTxn::new(&engine, id), op, invoked_at);
                } else {
                    let &(s, t) = &pairs[rng.gen_range(0..pairs.len())];
                    let op = OpKind::Provision {
                        s,
                        t,
                        policy: cfg.policy,
                    };
                    let Ok(txn) = ProvisionTxn::new(&engine, s, t, cfg.policy) else {
                        unreachable!("generated endpoints are in range")
                    };
                    th.slot = Slot::Provision(Box::new(txn), op, invoked_at);
                }
            }
            Slot::Provision(txn, op, invoked_at) => match txn.step(&engine, &mut th.scratch) {
                Step::Done(outcome) => {
                    let response = match outcome {
                        ProvisionOutcome::Accepted { id, .. } => {
                            // No other step ran since the commit, so the
                            // connection is still active on its route.
                            let Some(path) = engine.path_of(id) else {
                                unreachable!("a just-committed connection is active")
                            };
                            pool.push(id);
                            OpResponse::Provisioned { id, path }
                        }
                        ProvisionOutcome::Blocked { cause } => OpResponse::Blocked { cause },
                    };
                    records.push(OpRecord {
                        op: op.clone(),
                        thread: ti,
                        invoked_at: *invoked_at,
                        responded_at: step,
                        response,
                    });
                    th.slot = Slot::Idle;
                }
                Step::Progress | Step::Contended => {}
            },
            Slot::Release(txn, op, invoked_at) => match txn.step(&engine) {
                Step::Done(result) => {
                    let response = match result {
                        Ok(()) => OpResponse::Released,
                        Err(RwaError::UnknownConnection(_)) => OpResponse::ReleaseUnknown,
                        Err(e) => unreachable!("release cannot fail with {e}"),
                    };
                    records.push(OpRecord {
                        op: op.clone(),
                        thread: ti,
                        invoked_at: *invoked_at,
                        responded_at: step,
                        response,
                    });
                    th.slot = Slot::Idle;
                }
                Step::Progress | Step::Contended => {}
            },
            Slot::FailLink(txn, op, invoked_at) => {
                match txn.step(&engine, &mut th.scratch) {
                    Step::Done(outcomes) => {
                        // Torn connections leave the pool; restorations
                        // join it.
                        for o in &outcomes {
                            pool.retain(|&id| id != o.torn);
                            if let Some((new_id, _)) = &o.restored {
                                pool.push(*new_id);
                            }
                        }
                        records.push(OpRecord {
                            op: op.clone(),
                            thread: ti,
                            invoked_at: *invoked_at,
                            responded_at: step,
                            response: OpResponse::FailedLink { outcomes },
                        });
                        th.slot = Slot::Idle;
                    }
                    Step::Progress | Step::Contended => {}
                }
            }
            Slot::RestoreLink(txn, op, invoked_at) => match txn.step(&engine) {
                Step::Done(restored) => {
                    records.push(OpRecord {
                        op: op.clone(),
                        thread: ti,
                        invoked_at: *invoked_at,
                        responded_at: step,
                        response: OpResponse::LinkRestored { restored },
                    });
                    th.slot = Slot::Idle;
                }
                Step::Progress | Step::Contended => {}
            },
        }
    }

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
