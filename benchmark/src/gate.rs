//! The correctness gate run after every timed phase.
//!
//! Three checks: the daemon's `seq` values are exactly `1..=N`; every
//! reply is a valid answer to its request; and replaying the session in
//! `seq` order through an offline `EngineBackend` reproduces every reply
//! byte for byte. The single engine assigns `seq` under its mutex, so
//! `seq` order is the order the engine executed in.

use crate::client::{Record, Session};
use crate::layers::{Backend, Net};
use crate::reply::{self, Summary};
use crate::workload::Op;

/// Problems beyond this many are counted, not listed.
const MAX_LISTED: usize = 8;

/// Checks that `seqs`, in any order, are exactly `1..=N`.
pub fn check_seqs(mut seqs: Vec<u64>) -> Result<(), String> {
    seqs.sort_unstable();
    for (expected, s) in (1..).zip(seqs) {
        if s < expected {
            return Err(format!("seq {s} appears twice"));
        }
        if s > expected {
            return Err(format!("seq {expected} is missing (next is {s})"));
        }
    }
    Ok(())
}

/// Runs all three checks over a session whose records are in `seq`
/// order (see [`Session::merge`]) and returns the problems found.
/// `visit` sees every record whose reply is valid, with its summary.
pub fn verify(
    net: &Net,
    session: &Session,
    mut visit: impl FnMut(&Record, &Summary),
) -> Vec<String> {
    let mut problems = Vec::new();
    let mut note = |p: String| problems.push(p);
    if let Err(e) = check_seqs(
        session
            .records
            .iter()
            .filter(|r| r.seq != 0)
            .map(|r| r.seq)
            .collect(),
    ) {
        note(format!("seq gate: {e}"));
    }
    let mut cut_seen = false;
    let mut replay = Backend::new(net);
    let mut frame = String::new();
    for r in &session.records {
        let text = session.reply(r);
        match reply::check(&r.op, text) {
            Ok(s) => {
                if s.unknown_release && !cut_seen {
                    note(format!(
                        "seq {}: release of a live id answered unknown_connection",
                        r.seq
                    ));
                }
                visit(r, &s);
            }
            Err(e) => note(format!("seq {}: invalid reply ({e}): {text}", r.seq)),
        }
        cut_seen |= matches!(r.op, Op::FailLink { .. });
        if r.seq != 0 {
            frame.clear();
            r.op.write_frame(&mut frame);
            let expected = replay.execute_line(&frame);
            if expected != text {
                note(format!(
                    "seq {}: replay differs\n  daemon: {text}\n  replay: {expected}",
                    r.seq
                ));
            }
        }
    }
    if problems.len() > MAX_LISTED {
        let more = problems.len() - MAX_LISTED;
        problems.truncate(MAX_LISTED);
        problems.push(format!("... and {more} more"));
    }
    problems
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::workload::{find, Stream};

    const NSFNET: &str = include_str!("../instances/nsfnet_k8.wdm");

    #[test]
    fn seq_gaps_and_duplicates_are_caught() {
        assert!(check_seqs(vec![3, 1, 2]).is_ok());
        assert!(check_seqs(vec![]).is_ok());
        assert!(check_seqs(vec![1, 3])
            .unwrap_err()
            .contains("seq 2 is missing"));
        assert!(check_seqs(vec![1, 2, 2]).unwrap_err().contains("twice"));
        assert!(check_seqs(vec![2, 3])
            .unwrap_err()
            .contains("seq 1 is missing"));
    }

    /// A session recorded from an in-process backend standing in for
    /// the daemon, with two interleaved clients.
    fn recorded_session(net: &Net) -> Session {
        let w = find("mixed_churn").unwrap();
        let mut daemon = Backend::new(net);
        let mut streams: Vec<Stream> = (0..2)
            .map(|c| Stream::new(w, 11, c, net.nodes(), net.links()))
            .collect();
        let mut parts = vec![Session::default(), Session::default()];
        for i in 0..600 {
            let c = i % 2;
            let op = streams[c].next_op();
            let text = daemon.execute_line(&op.frame());
            let sum = reply::check(&op, &text).unwrap();
            streams[c].adopt(sum.ids.iter().copied());
            parts[c].push(op, sum.seq.unwrap(), Duration::ZERO, Duration::ZERO, &text);
        }
        Session::merge(parts)
    }

    #[test]
    fn a_faithful_session_passes() {
        let net = Net::parse(NSFNET).unwrap();
        let mut visited = 0;
        let problems = verify(&net, &recorded_session(&net), |_, _| visited += 1);
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(visited, 600);
    }

    #[test]
    fn one_corrupted_reply_fails_the_gate() {
        let net = Net::parse(NSFNET).unwrap();
        let mut session = recorded_session(&net);
        let victim = session
            .records
            .iter()
            .position(|r| session.reply(r).contains("\"cost\":"))
            .unwrap();
        let r = session.records[victim].clone();
        let text = session.reply(&r).replacen("\"cost\":", "\"cost\":9", 1);
        session.records.remove(victim);
        session.push(r.op, r.seq, r.sent, r.rtt, &text);
        session.records.sort_by_key(|r| r.seq);
        let problems = verify(&net, &session, |_, _| {});
        assert!(
            problems.iter().any(|p| p.contains("replay differs")),
            "{problems:?}"
        );
    }

    #[test]
    fn a_dropped_reply_fails_the_seq_gate() {
        let net = Net::parse(NSFNET).unwrap();
        let mut session = recorded_session(&net);
        session.records.remove(100);
        let problems = verify(&net, &session, |_, _| {});
        assert!(
            problems.iter().any(|p| p.contains("seq 101 is missing")),
            "{problems:?}"
        );
    }
}
