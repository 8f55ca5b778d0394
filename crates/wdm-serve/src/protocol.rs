//! Wire-protocol requests: parsing (via [`wdm_obs::json`]) and the JSON
//! string-escaping helper used by every reply renderer.
//!
//! A frame is one line of JSON. Parsing is strict about shape — a
//! missing or mistyped field is a malformed frame, answered with a
//! typed error and a closed connection (the stream may be desynced) —
//! but tolerant about extras: unknown keys are ignored so clients can
//! tag requests.
//!
//! One tag is understood rather than ignored: an optional integer
//! `trace_id` names the request in the daemon's flight recorder and is
//! echoed verbatim in the reply, so a client can correlate its wire
//! replies with the spans in an exported Chrome trace. A `trace_id`
//! that is present but not a non-negative integer is a malformed frame
//! (silently dropping a mistyped correlation id would break the very
//! correlation it exists for).

use wdm_obs::json::{self, Value};
use wdm_rwa::Policy;

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Route and lock one `s → t` request.
    Provision {
        /// Source node index.
        s: usize,
        /// Destination node index.
        t: usize,
        /// Per-request policy override (`None` uses the server default).
        policy: Option<Policy>,
    },
    /// Release an active connection by raw id.
    Release {
        /// The raw connection id from a provision reply.
        id: u64,
    },
    /// Simulate a fibre cut with restoration.
    FailLink {
        /// Link index to cut.
        link: usize,
    },
    /// Repair a cut fibre (exact involution of `fail-link`).
    RestoreLink {
        /// Link index to restore.
        link: usize,
    },
    /// Provision a batch of `(s, t)` pairs, one after another in order.
    Batch {
        /// The request pairs, in order.
        pairs: Vec<(usize, usize)>,
        /// Per-batch policy override (`None` uses the server default).
        policy: Option<Policy>,
    },
    /// Report engine totals and utilization.
    Stats,
    /// Report flight-recorder totals (records kept, records dropped).
    Trace,
    /// Graceful shutdown: stop accepting, finish in-flight, exit.
    Drain,
}

/// One parsed wire frame: the request plus its optional `trace_id` tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The operation to execute.
    pub req: Request,
    /// Client-chosen trace id, echoed in the reply and used (when the
    /// daemon has a flight recorder) to label the request's spans.
    pub trace_id: Option<u64>,
}

/// Parses one request line. The error string is a human-readable
/// diagnostic suitable for the `detail` field of a `malformed` reply.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_frame(line).map(|f| f.req)
}

/// Parses one request line into a [`Frame`], including the optional
/// `trace_id` tag.
pub fn parse_frame(line: &str) -> Result<Frame, String> {
    let value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
    let trace_id = match value.get("trace_id") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or_else(|| "`trace_id` must be a non-negative integer".to_string())?,
        ),
    };
    parse_op(&value).map(|req| Frame { req, trace_id })
}

/// Parses the `op` field and its operands out of a frame object.
fn parse_op(value: &Value) -> Result<Request, String> {
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing string field `op`".to_string())?;
    match op {
        "provision" => Ok(Request::Provision {
            s: usize_field(value, "s")?,
            t: usize_field(value, "t")?,
            policy: policy_field(value)?,
        }),
        "release" => Ok(Request::Release {
            id: u64_field(value, "id")?,
        }),
        "fail-link" => Ok(Request::FailLink {
            link: usize_field(value, "link")?,
        }),
        "restore-link" => Ok(Request::RestoreLink {
            link: usize_field(value, "link")?,
        }),
        "batch" => {
            let pairs = value
                .get("pairs")
                .and_then(Value::as_array)
                .ok_or_else(|| "missing array field `pairs`".to_string())?;
            let mut parsed = Vec::with_capacity(pairs.len());
            for (i, pair) in pairs.iter().enumerate() {
                let err = || format!("`pairs[{i}]` must be a [s, t] pair of node indices");
                let items = pair.as_array().ok_or_else(err)?;
                if items.len() != 2 {
                    return Err(err());
                }
                let s = items[0].as_u64().ok_or_else(err)?;
                let t = items[1].as_u64().ok_or_else(err)?;
                parsed.push((clamp_index(s), clamp_index(t)));
            }
            Ok(Request::Batch {
                pairs: parsed,
                policy: policy_field(value)?,
            })
        }
        "stats" => Ok(Request::Stats),
        "trace" => Ok(Request::Trace),
        "drain" => Ok(Request::Drain),
        other => Err(format!("unknown op `{other}`")),
    }
}

/// Extracts a non-negative integer field as a node/link index.
fn usize_field(value: &Value, key: &str) -> Result<usize, String> {
    u64_field(value, key).map(clamp_index)
}

/// Extracts a non-negative integer field.
fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    value
        .get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing non-negative integer field `{key}`"))
}

/// Saturates an id from the wire into `usize`. Engines validate ranges
/// themselves, so an oversized index only needs to stay oversized.
fn clamp_index(raw: u64) -> usize {
    usize::try_from(raw).unwrap_or(usize::MAX)
}

/// Extracts the optional `policy` field.
fn policy_field(value: &Value) -> Result<Option<Policy>, String> {
    match value.get("policy") {
        None => Ok(None),
        Some(p) => match p.as_str() {
            Some("optimal") => Ok(Some(Policy::Optimal)),
            Some("lightpath") => Ok(Some(Policy::LightpathOnly)),
            Some("first-fit") => Ok(Some(Policy::FirstFit)),
            _ => Err("bad `policy` (want optimal|lightpath|first-fit)".to_string()),
        },
    }
}

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut escaped = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            '\r' => escaped.push_str("\\r"),
            '\t' => escaped.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = std::fmt::Write::write_fmt(
                    &mut escaped,
                    format_args!("\\u{:04x}", u32::from(c)),
                );
            }
            c => escaped.push(c),
        }
    }
    escaped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op() {
        assert_eq!(
            parse_request(r#"{"op":"provision","s":0,"t":3}"#),
            Ok(Request::Provision {
                s: 0,
                t: 3,
                policy: None
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"provision","s":1,"t":2,"policy":"first-fit"}"#),
            Ok(Request::Provision {
                s: 1,
                t: 2,
                policy: Some(Policy::FirstFit)
            })
        );
        assert_eq!(
            parse_request(r#"{"op":"release","id":7}"#),
            Ok(Request::Release { id: 7 })
        );
        assert_eq!(
            parse_request(r#"{"op":"fail-link","link":2}"#),
            Ok(Request::FailLink { link: 2 })
        );
        assert_eq!(
            parse_request(r#"{"op":"restore-link","link":2}"#),
            Ok(Request::RestoreLink { link: 2 })
        );
        assert_eq!(
            parse_request(r#"{"op":"batch","pairs":[[0,3],[1,2]]}"#),
            Ok(Request::Batch {
                pairs: vec![(0, 3), (1, 2)],
                policy: None
            })
        );
        assert_eq!(parse_request(r#"{"op":"stats"}"#), Ok(Request::Stats));
        assert_eq!(parse_request(r#"{"op":"trace"}"#), Ok(Request::Trace));
        assert_eq!(parse_request(r#"{"op":"drain"}"#), Ok(Request::Drain));
    }

    #[test]
    fn frames_carry_optional_trace_ids() {
        assert_eq!(
            parse_frame(r#"{"op":"stats"}"#),
            Ok(Frame {
                req: Request::Stats,
                trace_id: None
            })
        );
        assert_eq!(
            parse_frame(r#"{"op":"provision","s":0,"t":3,"trace_id":42}"#),
            Ok(Frame {
                req: Request::Provision {
                    s: 0,
                    t: 3,
                    policy: None
                },
                trace_id: Some(42)
            })
        );
        // Present but mistyped is malformed, not silently dropped.
        for bad in [
            r#"{"op":"stats","trace_id":"7"}"#,
            r#"{"op":"stats","trace_id":-1}"#,
            r#"{"op":"stats","trace_id":true}"#,
        ] {
            assert!(parse_frame(bad).is_err(), "{bad} should be malformed");
        }
    }

    #[test]
    fn rejects_malformed_frames() {
        for bad in [
            "not json",
            "{}",
            r#"{"op":"provision","s":0}"#,
            r#"{"op":"provision","s":-1,"t":2}"#,
            r#"{"op":"provision","s":0,"t":1,"policy":"magic"}"#,
            r#"{"op":"release"}"#,
            r#"{"op":"batch","pairs":[[0]]}"#,
            r#"{"op":"batch","pairs":"no"}"#,
            r#"{"op":"teleport"}"#,
            r#"{"op":7}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad} should be malformed");
        }
    }

    #[test]
    fn ignores_unknown_keys() {
        assert_eq!(
            parse_request(r#"{"op":"stats","tag":"client-42"}"#),
            Ok(Request::Stats)
        );
    }

    #[test]
    fn escapes_json_strings() {
        assert_eq!(escape_json("plain"), "plain");
        assert_eq!(escape_json("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape_json("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }
}
