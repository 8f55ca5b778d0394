//! Robustness of the frame path: any request line, however broken or
//! hostile, must neither panic the frame parser nor the backend, and
//! every reply must be one line of JSON.
//!
//! Inputs are token soup (JSON punctuation, the protocol's keys and
//! values, numbers at the edges of the types they parse into),
//! arbitrary strings up to 64 KiB (also as the `op` of a frame, which
//! the `malformed` reply echoes), 1 MiB of `[`, and 100,000-digit
//! numbers. Each line goes through [`parse_frame`] and through
//! [`EngineBackend::execute_line`] on the default and the sharded
//! backend over `examples/nsfnet_k3.wdm`. `WDM_TEST_SEED` replays one
//! case stream.

use proptest::prelude::*;
use wdm_core::textfmt::from_text;
use wdm_obs::json;
use wdm_rwa::{Policy, RoutingMode};
use wdm_serve::protocol::parse_frame;
use wdm_serve::EngineBackend;

/// JSON punctuation, the protocol's keys and values, and numbers at the
/// edges of the types they parse into.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    " ",
    "\"",
    "\\",
    "\"op\"",
    "\"provision\"",
    "\"release\"",
    "\"fail-link\"",
    "\"restore-link\"",
    "\"batch\"",
    "\"stats\"",
    "\"trace\"",
    "\"drain\"",
    "\"s\"",
    "\"t\"",
    "\"id\"",
    "\"link\"",
    "\"pairs\"",
    "\"policy\"",
    "\"optimal\"",
    "\"lightpath\"",
    "\"first-fit\"",
    "\"trace_id\"",
    "0",
    "1",
    "13",
    "14",
    "-1",
    "1.5",
    "1e309",
    "-0",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "false",
    "null",
    "\"\\u0000\"",
    "\"\\ud800\"",
    "\"\\n\"",
    "\t",
    "\n",
    "λ",
];

/// A fresh default and sharded backend over `examples/nsfnet_k3.wdm`.
fn backends() -> [EngineBackend; 2] {
    let net = from_text(include_str!("../../../examples/nsfnet_k3.wdm")).expect("example parses");
    [
        EngineBackend::single(&net, RoutingMode::Masked, Policy::Optimal),
        EngineBackend::sharded(&net, 0, 8, Policy::Optimal),
    ]
}

/// `text` as a JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from('"');
    for c in text.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Feeds `line` to the frame parser and to each backend, and checks that
/// every reply is one line of JSON.
fn check_line(backends: &[EngineBackend], line: &str) -> Result<(), TestCaseError> {
    let _ = parse_frame(line);
    for backend in backends {
        let reply = backend.execute_line(&mut backend.new_ctx(), line);
        prop_assert!(
            !reply.contains(['\n', '\r']),
            "reply spans lines: {reply:?}"
        );
        if let Err(e) = json::parse(&reply) {
            return Err(TestCaseError::fail(format!(
                "reply is not JSON ({e}): {reply:?}"
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequences of protocol tokens: frames that break the grammar, the
    /// escapes and the number formats at every position.
    #[test]
    fn token_soup_gets_one_line_json_replies(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..2000),
    ) {
        let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
        check_line(&backends(), &line)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary text up to 64 KiB, as a line and as the `op` of a
    /// frame, whose reply echoes it.
    #[test]
    fn arbitrary_strings_get_one_line_json_replies(text in ".{0,65536}") {
        let backends = backends();
        check_line(&backends, &text)?;
        check_line(&backends, &format!(r#"{{"op":{}}}"#, json_string(&text)))?;
    }
}

#[test]
fn huge_frames_get_one_line_json_replies() {
    let digits = "7".repeat(100_000);
    let lines = [
        "[".repeat(1 << 20),
        digits.clone(),
        format!("-{digits}"),
        format!("0.{digits}"),
        format!("1e{digits}"),
        format!(r#"{{"op":"provision","s":{digits},"t":1}}"#),
        format!(r#"{{"op":"release","id":{digits}}}"#),
        format!(r#"{{"op":"stats","trace_id":{digits}}}"#),
        format!(r#"{{"op":"batch","pairs":[[0,{digits}]]}}"#),
    ];
    let backends = backends();
    for line in &lines {
        if let Err(e) = check_line(&backends, line) {
            panic!("{e}");
        }
    }
}
