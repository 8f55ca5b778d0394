//! Exporters for [`TraceSnapshot`]: Chrome `trace_event` JSON (loads
//! in `chrome://tracing` and Perfetto) and a human-readable text tree,
//! plus the schema validator CI uses to round-trip captured traces.
//!
//! The Chrome format used here is the stable subset of the
//! `trace_event` spec: a top-level `{"traceEvents": [...]}` array of
//! complete events (`"ph":"X"`, microsecond `ts` + `dur`) and instant
//! events (`"ph":"i"`, thread scope). Complete events on the same
//! `tid` nest automatically by time containment, which is exactly how
//! the recorder's span records relate — no explicit parent ids needed.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

use super::{TraceEventKind, TraceRecord, TraceSnapshot};
use crate::fsutil::write_atomic;
use crate::json::{self, Value};

/// One kind-specific argument for export (`args` in Chrome JSON,
/// `key=value` in the text tree).
enum ArgValue {
    U64(u64),
    Label(&'static str),
}

/// The kind-specific arguments of a record, in render order.
fn record_args(r: &TraceRecord) -> Vec<(&'static str, ArgValue)> {
    use ArgValue::{Label, U64};
    match r.kind {
        TraceEventKind::Provision => vec![
            ("s", U64(r.a)),
            ("t", U64(r.b)),
            (
                "verdict",
                Label(super::RootVerdict::from_code(r.flags).label()),
            ),
        ],
        TraceEventKind::Route => vec![("s", U64(r.a)), ("t", U64(r.b))],
        TraceEventKind::MaskFlip => vec![("link", U64(r.a)), ("wavelength", U64(r.b))],
        TraceEventKind::Blocked => vec![(
            "cause",
            Label(match r.a {
                0 => "no_path",
                1 => "capacity",
                _ => "unknown",
            }),
        )],
        TraceEventKind::Release => vec![
            ("id", U64(r.a)),
            (
                "verdict",
                Label(super::RootVerdict::from_code(r.flags).label()),
            ),
        ],
        TraceEventKind::FailLink => vec![("link", U64(r.a)), ("affected", U64(r.b))],
        TraceEventKind::ShardClaim => vec![("shard", U64(r.a)), ("version", U64(r.b))],
        TraceEventKind::ShardValidate => vec![("ok", U64(r.a))],
        TraceEventKind::ShardRetry => vec![("conflicts", U64(r.a))],
        TraceEventKind::Admission => vec![("inflight", U64(r.a)), ("max", U64(r.b))],
        TraceEventKind::RestoreLink => vec![("link", U64(r.a))],
    }
}

/// Renders nanoseconds as microseconds with fixed 3-decimal precision
/// (`12345` ns → `"12.345"`), avoiding float formatting drift.
fn fmt_us(ns: u64) -> String {
    let mut out = String::new();
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
    out
}

/// Renders a snapshot as single-line Chrome `trace_event` JSON.
///
/// Spans become `"ph":"X"` complete events (they nest by time
/// containment per `tid`); instants become thread-scoped `"ph":"i"`
/// events. Every event carries `args.trace_id` so a captured trace can
/// be matched against wire replies byte-for-byte.
pub fn render_chrome_trace(snapshot: &TraceSnapshot) -> String {
    let mut out = String::with_capacity(64 + snapshot.records.len() * 128);
    out.push_str("{\"traceEvents\":[");
    for (i, r) in snapshot.records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"wdm\",\"ph\":\"{}\",\"ts\":{}",
            r.kind.label(),
            if r.is_span() { 'X' } else { 'i' },
            fmt_us(r.ts_ns)
        );
        if r.is_span() {
            let _ = write!(out, ",\"dur\":{}", fmt_us(r.dur_ns));
        } else {
            out.push_str(",\"s\":\"t\"");
        }
        let _ = write!(out, ",\"pid\":1,\"tid\":{}", r.tid);
        let _ = write!(out, ",\"args\":{{\"trace_id\":{}", r.trace_id);
        for (key, value) in record_args(r) {
            match value {
                ArgValue::U64(v) => {
                    let _ = write!(out, ",\"{key}\":{v}");
                }
                ArgValue::Label(v) => {
                    let _ = write!(out, ",\"{key}\":\"{v}\"");
                }
            }
        }
        out.push_str("}}");
    }
    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"recorded\":{},\"dropped\":{}}}}}",
        snapshot.recorded, snapshot.dropped
    );
    out
}

/// Renders a snapshot as a human-readable tree: one block per trace,
/// spans indented by time containment, instants pinned to their
/// parent span.
pub fn render_text_tree(snapshot: &TraceSnapshot) -> String {
    let mut by_trace: BTreeMap<u64, Vec<&TraceRecord>> = BTreeMap::new();
    for r in &snapshot.records {
        by_trace.entry(r.trace_id).or_default().push(r);
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "flight recorder: {} trace(s), {} record(s) shown, {} recorded, {} dropped",
        by_trace.len(),
        snapshot.records.len(),
        snapshot.recorded,
        snapshot.dropped
    );
    for (trace_id, records) in &by_trace {
        let t0 = records.iter().map(|r| r.ts_ns).min().unwrap_or(0);
        let _ = writeln!(out, "trace {trace_id}");
        // Records arrive sorted by ts; nest via a stack of open span
        // end-times.
        let mut open: Vec<u64> = Vec::new();
        for r in records {
            while let Some(&end) = open.last() {
                if r.ts_ns >= end {
                    open.pop();
                } else {
                    break;
                }
            }
            let indent = "  ".repeat(open.len() + 1);
            let _ = write!(
                out,
                "{indent}+{}us {}",
                fmt_us(r.ts_ns - t0),
                r.kind.label()
            );
            if r.is_span() {
                let _ = write!(out, " [{}us]", fmt_us(r.dur_ns));
            }
            for (key, value) in record_args(r) {
                match value {
                    ArgValue::U64(v) => {
                        let _ = write!(out, " {key}={v}");
                    }
                    ArgValue::Label(v) => {
                        let _ = write!(out, " {key}={v}");
                    }
                }
            }
            out.push('\n');
            if r.is_span() {
                open.push(r.ts_ns.saturating_add(r.dur_ns));
            }
        }
    }
    out
}

/// What [`validate_chrome_trace`] learned about a valid trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChromeTraceSummary {
    /// Number of events in `traceEvents`.
    pub events: usize,
    /// Every distinct `args.trace_id` seen.
    pub trace_ids: BTreeSet<u64>,
}

/// Validates Chrome `trace_event` JSON produced by
/// [`render_chrome_trace`] (or anything schema-compatible): top-level
/// `traceEvents` array, each event an object with a string `name`,
/// `ph` of `"X"` or `"i"`, numeric `ts`/`pid`/`tid`, a `dur` on every
/// `"X"` event, and a non-negative integer `args.trace_id`.
///
/// Returns a summary of the accepted file, or a message naming the
/// first offending event.
pub fn validate_chrome_trace(text: &str) -> Result<ChromeTraceSummary, String> {
    let value = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = value
        .get("traceEvents")
        .ok_or_else(|| "missing top-level \"traceEvents\"".to_string())?
        .as_array()
        .ok_or_else(|| "\"traceEvents\" is not an array".to_string())?;
    let mut trace_ids = BTreeSet::new();
    for (i, event) in events.iter().enumerate() {
        let fail = |what: &str| format!("event {i}: {what}");
        if !matches!(event, Value::Object(_)) {
            return Err(fail("not an object"));
        }
        let name = event
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string \"name\""))?;
        if name.is_empty() {
            return Err(fail("empty \"name\""));
        }
        let ph = event
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string \"ph\""))?;
        if ph != "X" && ph != "i" {
            return Err(fail("\"ph\" must be \"X\" or \"i\""));
        }
        for key in ["ts", "pid", "tid"] {
            if event.get(key).and_then(Value::as_f64).is_none() {
                return Err(fail(&format!("missing numeric \"{key}\"")));
            }
        }
        if ph == "X" && event.get("dur").and_then(Value::as_f64).is_none() {
            return Err(fail("complete event missing numeric \"dur\""));
        }
        let trace_id = event
            .get("args")
            .and_then(|args| args.get("trace_id"))
            .and_then(Value::as_u64)
            .ok_or_else(|| fail("missing integer \"args.trace_id\""))?;
        trace_ids.insert(trace_id);
    }
    Ok(ChromeTraceSummary {
        events: events.len(),
        trace_ids,
    })
}

/// Renders and atomically writes Chrome trace JSON to `path`.
pub fn write_chrome_trace(path: &Path, snapshot: &TraceSnapshot) -> io::Result<()> {
    write_atomic(path, render_chrome_trace(snapshot).as_bytes())
}

/// Renders and atomically writes the text tree to `path`.
pub fn write_text_tree(path: &Path, snapshot: &TraceSnapshot) -> io::Result<()> {
    write_atomic(path, render_text_tree(snapshot).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::super::{FlightRecorder, RootVerdict, TraceEventKind};
    use super::*;

    fn sample_snapshot() -> TraceSnapshot {
        let rec = FlightRecorder::new(1, 64);
        let w = rec.writer();
        let id = rec.next_trace_id();
        let t0 = w.now_ns();
        let r0 = w.now_ns();
        w.instant(id, TraceEventKind::MaskFlip, 4, 1);
        w.span(id, TraceEventKind::Route, r0, 0, 2, 9);
        w.span(
            id,
            TraceEventKind::Provision,
            t0,
            RootVerdict::Ok.code(),
            2,
            9,
        );
        let other = rec.next_trace_id();
        let b0 = w.now_ns();
        w.instant(other, TraceEventKind::Blocked, 1, 0);
        w.span(
            other,
            TraceEventKind::Provision,
            b0,
            RootVerdict::Blocked.code(),
            5,
            6,
        );
        rec.snapshot()
    }

    #[test]
    fn chrome_export_round_trips_the_validator() {
        let snap = sample_snapshot();
        let jsonl = render_chrome_trace(&snap);
        assert!(!jsonl.contains('\n'), "export is single-line");
        let summary = validate_chrome_trace(&jsonl).expect("schema-valid");
        assert_eq!(summary.events, 5);
        assert_eq!(
            summary.trace_ids.iter().copied().collect::<Vec<u64>>(),
            vec![1, 2]
        );
    }

    #[test]
    fn chrome_export_has_expected_event_shapes() {
        let snap = sample_snapshot();
        let jsonl = render_chrome_trace(&snap);
        assert!(jsonl.contains("\"name\":\"provision\""));
        assert!(jsonl.contains("\"verdict\":\"ok\""));
        assert!(jsonl.contains("\"verdict\":\"blocked\""));
        assert!(jsonl.contains("\"cause\":\"capacity\""));
        assert!(jsonl.contains("\"ph\":\"X\""));
        assert!(jsonl.contains("\"ph\":\"i\""));
        assert!(jsonl.contains("\"dropped\":0"));
    }

    #[test]
    fn validator_rejects_malformed_inputs() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\":3}").is_err());
        let missing_dur = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"ts\":1,\"pid\":1,\"tid\":0,\"args\":{\"trace_id\":1}}]}";
        let err = validate_chrome_trace(missing_dur).expect_err("X without dur");
        assert!(err.contains("dur"), "{err}");
        let bad_ph = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"B\",\"ts\":1,\"pid\":1,\"tid\":0,\"args\":{\"trace_id\":1}}]}";
        assert!(validate_chrome_trace(bad_ph).is_err());
        let no_trace_id = "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0,\"args\":{}}]}";
        let err = validate_chrome_trace(no_trace_id).expect_err("missing trace_id");
        assert!(err.contains("trace_id"), "{err}");
        let empty = "{\"traceEvents\":[]}";
        let summary = validate_chrome_trace(empty).expect("empty file is valid");
        assert_eq!(summary.events, 0);
    }

    #[test]
    fn text_tree_nests_spans_by_containment() {
        let snap = sample_snapshot();
        let tree = render_text_tree(&snap);
        assert!(tree.contains("trace 1"));
        assert!(tree.contains("trace 2"));
        assert!(tree.contains("provision"));
        // The route span nests one level under the provision root.
        let provision_line = tree
            .lines()
            .find(|l| l.contains("provision") && l.contains("verdict=ok"))
            .expect("provision line");
        let route_line = tree
            .lines()
            .find(|l| l.contains(" route "))
            .expect("route line");
        let depth = |l: &str| l.len() - l.trim_start().len();
        assert!(depth(route_line) > depth(provision_line));
        assert!(tree.contains("cause=capacity"));
    }

    #[test]
    fn fmt_us_is_exact() {
        assert_eq!(fmt_us(0), "0.000");
        assert_eq!(fmt_us(999), "0.999");
        assert_eq!(fmt_us(1_000), "1.000");
        assert_eq!(fmt_us(12_345_678), "12345.678");
    }

    #[test]
    fn files_are_written_atomically() {
        let dir = std::env::temp_dir().join(format!("wdm-trace-export-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let snap = sample_snapshot();
        let chrome = dir.join("trace.json");
        write_chrome_trace(&chrome, &snap).expect("write chrome");
        let text = dir.join("trace.txt");
        write_text_tree(&text, &snap).expect("write text");
        let read_back = std::fs::read_to_string(&chrome).expect("read");
        assert!(validate_chrome_trace(&read_back).is_ok());
        assert!(std::fs::read_to_string(&text)
            .expect("read text")
            .contains("flight recorder"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
