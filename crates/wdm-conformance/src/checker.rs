//! Wing–Gong style linearizability checking by reference replay.
//!
//! Given a recorded concurrent [`History`], the checker searches for a
//! serial order of its operations that (a) respects real time — an
//! operation whose response preceded another's invocation stays before
//! it — and (b) reproduces every observed response *exactly* when
//! replayed through a fresh [`SpecEngine`]: accept/block verdicts,
//! hop-for-hop paths, blocked-cause counts, and fibre-cut restoration
//! outcomes.
//!
//! Exact matching is sound here because engine and spec run the same
//! deterministic wavelength scan: the concurrent engine only commits a path
//! after validating that *every* shard version is unchanged since its
//! route, so its commit order is itself a serial execution the
//! reference reproduces bit-for-bit. The checker merely has to find
//! that order (or any other equivalent one) — and fails loudly when,
//! e.g., an injected race lets two transactions commit overlapping
//! paths no serial execution could produce.
//!
//! The search is depth-first over eligible next-operations with the
//! classic Wing–Gong memoization: a (linearized-set, reference-state)
//! configuration is never explored twice. Connection ids differ between
//! the two engines (each allocates its own), so the replay threads an
//! id mapping through and compares operations structurally.

use crate::history::{History, OpKind, OpRecord, OpResponse};
use crate::spec::SpecEngine;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use wdm_core::WdmNetwork;
use wdm_rwa::{BlockCause, ConnectionId, RwaError};

/// Checker tuning.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Abort after this many replay attempts (guards pathological
    /// histories; aborts are reported, never silently passed).
    pub max_replays: u64,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            max_replays: 2_000_000,
        }
    }
}

/// The checker's answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A witness serial order exists; `witness` holds record indices in
    /// linearization order.
    Linearizable {
        /// Indices into `history.records` in serial order.
        witness: Vec<usize>,
    },
    /// No real-time-consistent serial order reproduces the responses.
    NotLinearizable {
        /// Length of the longest linearizable prefix found.
        longest_prefix: usize,
        /// Total operations in the history.
        total: usize,
    },
    /// The search exceeded [`CheckConfig::max_replays`].
    Aborted {
        /// Replays spent before giving up.
        replays: u64,
    },
}

/// Searches for a linearization of `history` over `net`.
pub fn check_history(net: &WdmNetwork, history: &History, cfg: &CheckConfig) -> Verdict {
    let records = &history.records;
    let n = records.len();
    if n == 0 {
        return Verdict::Linearizable {
            witness: Vec::new(),
        };
    }
    let mut search = Search {
        records,
        memo: HashSet::new(),
        replays: 0,
        max_replays: cfg.max_replays,
        best_prefix: 0,
        witness: Vec::with_capacity(n),
    };
    let engine = SpecEngine::new(net);
    let mut done = vec![false; n];
    match search.dfs(&engine, &mut done, 0, &HashMap::new()) {
        Outcome::Found => Verdict::Linearizable {
            witness: search.witness,
        },
        Outcome::Exhausted => Verdict::NotLinearizable {
            longest_prefix: search.best_prefix,
            total: n,
        },
        Outcome::Budget => Verdict::Aborted {
            replays: search.replays,
        },
    }
}

enum Outcome {
    Found,
    Exhausted,
    Budget,
}

struct Search<'a> {
    records: &'a [OpRecord],
    /// Visited (linearized-set, reference-state) configurations.
    memo: HashSet<(Vec<u64>, u64)>,
    replays: u64,
    max_replays: u64,
    best_prefix: usize,
    witness: Vec<usize>,
}

impl<'a> Search<'a> {
    fn dfs(
        &mut self,
        engine: &SpecEngine,
        done: &mut Vec<bool>,
        done_count: usize,
        idmap: &HashMap<ConnectionId, ConnectionId>,
    ) -> Outcome {
        self.best_prefix = self.best_prefix.max(done_count);
        if done_count == self.records.len() {
            return Outcome::Found;
        }
        // An op is eligible iff it was invoked no later than every
        // still-pending response: nothing pending strictly preceded it
        // in real time.
        let Some(min_resp) = self
            .records
            .iter()
            .zip(done.iter())
            .filter(|(_, &d)| !d)
            .map(|(r, _)| r.responded_at)
            .min()
        else {
            unreachable!("not all done")
        };
        for i in 0..self.records.len() {
            if done[i] || self.records[i].invoked_at > min_resp {
                continue;
            }
            if self.replays >= self.max_replays {
                return Outcome::Budget;
            }
            self.replays += 1;
            let mut candidate = engine.clone();
            let mut map = idmap.clone();
            if !replay(&mut candidate, &mut map, &self.records[i]) {
                continue;
            }
            done[i] = true;
            let key = (done_words(done), fingerprint(&candidate, &map));
            if self.memo.insert(key) {
                self.witness.push(i);
                match self.dfs(&candidate, done, done_count + 1, &map) {
                    Outcome::Found => return Outcome::Found,
                    Outcome::Budget => return Outcome::Budget,
                    Outcome::Exhausted => {
                        self.witness.pop();
                    }
                }
            }
            done[i] = false;
        }
        Outcome::Exhausted
    }
}

/// Packs the done-set into words for the memo key.
fn done_words(done: &[bool]) -> Vec<u64> {
    let mut words = vec![0u64; done.len().div_ceil(64)];
    for (i, &d) in done.iter().enumerate() {
        if d {
            words[i / 64] |= (d as u64) << (i % 64);
        }
    }
    words
}

/// A state fingerprint for memoization: the active connections as the
/// *concurrent* engine named them, with their paths, plus the set of
/// currently-cut links. Two replay states with equal fingerprints
/// behave identically on every remaining op (busy bits are a function
/// of the active paths and persistent cut markers; counters don't
/// steer routing). Omitting the failed set would be unsound: the same
/// active paths with different links cut route — and block — very
/// differently.
fn fingerprint(engine: &SpecEngine, idmap: &HashMap<ConnectionId, ConnectionId>) -> u64 {
    let mut entries: Vec<(ConnectionId, Vec<(usize, usize)>)> = idmap
        .iter()
        .filter_map(|(&conc, &serial)| {
            engine.path_of(serial).map(|p| {
                (
                    conc,
                    p.hops()
                        .iter()
                        .map(|h| (h.link.index(), h.wavelength.index()))
                        .collect(),
                )
            })
        })
        .collect();
    entries.sort();
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    entries.hash(&mut hasher);
    engine.failed_links().hash(&mut hasher);
    hasher.finish()
}

/// Replays one record on the spec; `true` iff the reference
/// reproduces the observed response exactly.
fn replay(
    engine: &mut SpecEngine,
    idmap: &mut HashMap<ConnectionId, ConnectionId>,
    rec: &OpRecord,
) -> bool {
    match (&rec.op, &rec.response) {
        (OpKind::Provision { s, t, policy }, OpResponse::Provisioned { id, path }) => {
            match engine.provision(*s, *t, *policy) {
                Ok(serial) => {
                    if engine.path_of(serial) == Some(path) {
                        idmap.insert(*id, serial);
                        true
                    } else {
                        false
                    }
                }
                Err(_) => false,
            }
        }
        (OpKind::Provision { s, t, policy }, OpResponse::Blocked { cause }) => {
            let before = engine.blocked_by_cause();
            if !matches!(
                engine.provision(*s, *t, *policy),
                Err(RwaError::Blocked { .. })
            ) {
                return false;
            }
            cause_delta_matches(before, engine.blocked_by_cause(), &[*cause])
        }
        (OpKind::Release { id }, OpResponse::Released) => match idmap.get(id) {
            Some(&serial) => engine.release(serial).is_ok(),
            None => false,
        },
        (OpKind::Release { id }, OpResponse::ReleaseUnknown) => match idmap.get(id) {
            // Torn down by an already-linearized fail_link.
            Some(&serial) => matches!(engine.release(serial), Err(RwaError::UnknownConnection(_))),
            None => false,
        },
        (OpKind::FailLink { link, policy }, OpResponse::FailedLink { outcomes }) => {
            let before = engine.blocked_by_cause();
            let serial_out = engine.fail_link(*link, *policy);
            if serial_out.len() != outcomes.len() {
                return false;
            }
            let mut lost_causes = Vec::new();
            for (observed, (serial_old, serial_new)) in outcomes.iter().zip(&serial_out) {
                if idmap.get(&observed.torn) != Some(serial_old) {
                    return false;
                }
                match (&observed.restored, serial_new) {
                    (Some((conc_new, path)), Some(serial_new)) => {
                        if engine.path_of(*serial_new) != Some(path) {
                            return false;
                        }
                        idmap.insert(*conc_new, *serial_new);
                    }
                    (None, None) => {
                        let Some(cause) = observed.cause else {
                            unreachable!("lost restorations carry a cause")
                        };
                        lost_causes.push(cause);
                    }
                    _ => return false,
                }
            }
            cause_delta_matches(before, engine.blocked_by_cause(), &lost_causes)
        }
        (OpKind::RestoreLink { link }, OpResponse::LinkRestored { restored }) => {
            engine.restore_link(*link) == *restored
        }
        _ => unreachable!("op/response kinds always pair up"),
    }
}

/// Whether the spec's blocked-cause counters moved by exactly the
/// observed causes.
fn cause_delta_matches(before: (u64, u64), after: (u64, u64), observed: &[BlockCause]) -> bool {
    let want_no_path = observed
        .iter()
        .filter(|c| matches!(c, BlockCause::NoPath))
        .count() as u64;
    let want_capacity = observed.len() as u64 - want_no_path;
    after.0 - before.0 == want_no_path && after.1 - before.1 == want_capacity
}
