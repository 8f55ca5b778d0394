//! Client-side reply validation.
//!
//! Replies are flat JSON objects with a fixed key order (a batch nests
//! one flat array), so a key scan suffices and keeps the client's own
//! CPU cost, which shares the host with the daemon, low.

use crate::workload::{Op, BATCH};

/// What one valid reply says.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// `None` for replies that consume no `seq` (`overloaded`,
    /// `malformed`).
    pub seq: Option<u64>,
    /// Connections the engine created (accepted provisions, batch
    /// accepts, restorations).
    pub created: u32,
    /// The ids the client now owns, in reply order.
    pub ids: Vec<u64>,
    /// Provision attempts (a batch counts each pair).
    pub attempts: u32,
    pub blocked: u32,
    /// Summed cost of accepted provisions.
    pub cost_sum: u64,
    /// `malformed`, `overloaded`, `internal` or `contended`.
    pub failure: bool,
    /// A release answered `unknown_connection`.
    pub unknown_release: bool,
}

/// The raw text of `"key":value`'s value: a quoted string keeps its
/// quotes; anything else runs to the next `,`, `}` or `]`.
fn raw<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let bytes = text.as_bytes();
    let mut from = 0;
    while let Some(pos) = text[from..].find(key) {
        let at = from + pos;
        let end = at + key.len();
        if at > 0 && bytes[at - 1] == b'"' && text[end..].starts_with("\":") {
            let rest = &text[end + 2..];
            let len = if let Some(inner) = rest.strip_prefix('"') {
                inner.find('"')? + 2
            } else {
                rest.find([',', '}', ']']).unwrap_or(rest.len())
            };
            return Some(&rest[..len]);
        }
        from = at + 1;
    }
    None
}

fn num(text: &str, key: &str) -> Option<u64> {
    raw(text, key)?.parse().ok()
}

fn string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    raw(text, key)?.strip_prefix('"')?.strip_suffix('"')
}

fn boolean(text: &str, key: &str) -> Option<bool> {
    match raw(text, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

fn need<T>(v: Option<T>, what: &str) -> Result<T, String> {
    v.ok_or_else(|| format!("missing or mistyped `{what}`"))
}

fn wire_op(op: &Op) -> &'static str {
    match op {
        Op::Provision { .. } => "provision",
        Op::Release { .. } => "release",
        Op::FailLink { .. } => "fail-link",
        Op::RestoreLink { .. } => "restore-link",
        Op::Batch(_) => "batch",
        Op::Stats => "stats",
    }
}

/// An accepted path's fields; returns `(id, cost)`.
fn accepted_path(text: &str) -> Result<(u64, u64), String> {
    let id = need(num(text, "id"), "id")?;
    let cost = need(num(text, "cost"), "cost")?;
    let hops = need(num(text, "hops"), "hops")?;
    need(num(text, "conversions"), "conversions")?;
    if hops == 0 {
        return Err("accepted path with no hops".into());
    }
    Ok((id, cost))
}

/// Checks that `reply` is a well-formed answer to `op` and summarizes
/// it. Failure-class replies are valid answers with `failure` set.
pub fn check(op: &Op, reply: &str) -> Result<Summary, String> {
    if !(reply.starts_with("{\"ok\":") && reply.ends_with('}')) {
        return Err("not a reply object".into());
    }
    let ok = need(boolean(reply, "ok"), "ok")?;
    let mut sum = Summary {
        seq: num(reply, "seq"),
        ..Summary::default()
    };
    if !ok {
        let error = need(string(reply, "error"), "error")?;
        if matches!(error, "malformed" | "overloaded" | "internal" | "contended") {
            sum.failure = true;
            return Ok(sum);
        }
    }
    if string(reply, "op") != Some(wire_op(op)) {
        return Err(format!("reply is not for op `{}`", wire_op(op)));
    }
    if sum.seq.is_none() {
        return Err("missing `seq`".into());
    }
    match op {
        Op::Provision { .. } => {
            sum.attempts = 1;
            if ok {
                let (id, cost) = accepted_path(reply)?;
                sum.created = 1;
                sum.ids.push(id);
                sum.cost_sum = cost;
            } else {
                if string(reply, "error") != Some("blocked") {
                    return Err("provision failed other than `blocked`".into());
                }
                if !matches!(string(reply, "cause"), Some("no_path" | "capacity")) {
                    return Err("blocked provision without a cause".into());
                }
                sum.blocked = 1;
            }
        }
        Op::Release { id } => {
            if num(reply, "id") != Some(*id) {
                return Err("release reply names another id".into());
            }
            if !ok {
                if string(reply, "error") != Some("unknown_connection") {
                    return Err("release failed other than `unknown_connection`".into());
                }
                sum.unknown_release = true;
            }
        }
        Op::FailLink { link } => {
            if !ok || num(reply, "link") != Some(u64::from(*link)) {
                return Err("fail-link not acknowledged for its link".into());
            }
            need(num(reply, "lost"), "lost")?;
            sum.created = need(num(reply, "restored"), "restored")? as u32;
        }
        Op::RestoreLink { link } => {
            if !ok || num(reply, "link") != Some(u64::from(*link)) {
                return Err("restore-link not acknowledged for its link".into());
            }
            if boolean(reply, "restored") != Some(true) {
                return Err("restore-link of a cut link restored nothing".into());
            }
        }
        Op::Batch(_) => {
            if !ok || num(reply, "size") != Some(BATCH as u64) {
                return Err("batch not acknowledged with its size".into());
            }
            let accepted = need(num(reply, "accepted"), "accepted")?;
            let start = need(reply.find("\"results\":[{"), "results")? + 12;
            let inner = need(reply[start..].strip_suffix("}]}"), "results")?;
            let mut elements = 0;
            for element in inner.split("},{") {
                elements += 1;
                if need(boolean(element, "ok"), "ok")? {
                    let (id, cost) = accepted_path(element)?;
                    sum.ids.push(id);
                    sum.cost_sum += cost;
                } else if string(element, "error") != Some("blocked") {
                    return Err("batch element failed other than `blocked`".into());
                } else {
                    sum.blocked += 1;
                }
            }
            if elements != BATCH || sum.ids.len() as u64 != accepted {
                return Err("batch results disagree with its counts".into());
            }
            sum.attempts = BATCH as u32;
            sum.created = sum.ids.len() as u32;
        }
        Op::Stats => {
            if !ok {
                return Err("stats refused".into());
            }
            for key in ["accepted", "blocked", "released", "active"] {
                need(num(reply, key), key)?;
            }
        }
    }
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_the_daemon_reply_shapes() {
        let p = Op::Provision { s: 0, t: 3 };
        let s = check(
            &p,
            r#"{"ok":true,"op":"provision","seq":4,"id":2,"cost":57,"hops":2,"conversions":1}"#,
        )
        .unwrap();
        assert_eq!(
            (s.seq, s.ids.clone(), s.cost_sum, s.attempts),
            (Some(4), vec![2], 57, 1)
        );
        let s = check(
            &p,
            r#"{"ok":false,"op":"provision","seq":5,"error":"blocked","cause":"capacity"}"#,
        )
        .unwrap();
        assert_eq!((s.blocked, s.created), (1, 0));
        let s = check(
            &Op::Release { id: 9 },
            r#"{"ok":false,"op":"release","seq":6,"error":"unknown_connection","id":9}"#,
        )
        .unwrap();
        assert!(s.unknown_release);
        let s = check(
            &Op::FailLink { link: 3 },
            r#"{"ok":true,"op":"fail-link","seq":7,"link":3,"restored":2,"lost":1}"#,
        )
        .unwrap();
        assert_eq!(s.created, 2);
        let results = [
            r#"{"ok":true,"id":1,"cost":5,"hops":1,"conversions":0}"#,
            r#"{"ok":false,"error":"blocked"}"#,
        ]
        .repeat(4)
        .join(",");
        let s = check(
            &Op::Batch(Box::new([(0, 1); BATCH])),
            &format!(
                r#"{{"ok":true,"op":"batch","seq":8,"size":8,"accepted":4,"results":[{results}]}}"#
            ),
        )
        .unwrap();
        assert_eq!(
            (s.attempts, s.blocked, s.created, s.cost_sum),
            (8, 4, 4, 20)
        );
        let s = check(&p, r#"{"ok":false,"error":"overloaded"}"#).unwrap();
        assert!(s.failure && s.seq.is_none());
    }

    #[test]
    fn rejects_wrong_or_broken_replies() {
        let p = Op::Provision { s: 0, t: 3 };
        for bad in [
            "",
            r#"{"ok":true,"op":"release","seq":1,"id":2}"#,
            r#"{"ok":true,"op":"provision","id":2,"cost":5,"hops":1,"conversions":0}"#,
            r#"{"ok":true,"op":"provision","seq":1,"id":2,"cost":5,"hops":0,"conversions":0}"#,
            r#"{"ok":false,"op":"provision","seq":1,"error":"blocked"}"#,
            r#"{"ok":false,"op":"provision","seq":1,"error":"node_out_of_range","node":99}"#,
        ] {
            assert!(check(&p, bad).is_err(), "{bad}");
        }
        assert!(check(
            &Op::Release { id: 1 },
            r#"{"ok":true,"op":"release","seq":2,"id":7}"#
        )
        .is_err());
        assert!(check(
            &Op::RestoreLink { link: 1 },
            r#"{"ok":true,"op":"restore-link","seq":2,"link":1,"restored":false}"#
        )
        .is_err());
    }
}
