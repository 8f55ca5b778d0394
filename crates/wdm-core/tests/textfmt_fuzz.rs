//! Robustness of the `.wdm` parser: arbitrary input must never panic —
//! it either parses to a valid network or returns a structured error
//! that renders, and whatever parses round-trips through `to_text`.
//!
//! Inputs are arbitrary text up to 64 KiB (bare and behind a valid
//! header), and instances whose numeric fields are in range, at the
//! edges of the types they parse into, past the parser's size limits or
//! 20 digits long — `n` and `k` lines repeated, and `k` past a limit
//! before a `matrix` line included. `n` is never both in range and
//! large: a valid `n` builds an `n`-node graph. `WDM_TEST_SEED` replays
//! one case stream.

use proptest::prelude::*;
use wdm_core::textfmt::{from_text, to_text, MAX_MATRIX_CELLS, SIZE_LIMIT};

/// Parses `text`: an error must render, and a network must survive a
/// `to_text` → `from_text` round trip unchanged.
fn check(text: &str) -> Result<(), TestCaseError> {
    match from_text(text) {
        Ok(net) => {
            let again = from_text(&to_text(&net));
            prop_assert_eq!(again.as_ref(), Ok(&net), "round trip of {:?}", text);
        }
        Err(e) => {
            prop_assert!(!e.to_string().is_empty());
        }
    }
    Ok(())
}

/// A number token: small, at the edges of `u32`/`u64`, past `u64` (20
/// digits), or not a number at all.
fn number() -> impl Strategy<Value = String> {
    prop_oneof![
        (0u64..25).prop_map(|v| v.to_string()),
        Just(u64::from(u32::MAX).to_string()),
        Just((u64::from(u32::MAX) + 1).to_string()),
        Just((u64::MAX - 1).to_string()),
        Just(u64::MAX.to_string()),
        (0u64..u64::MAX).prop_map(|v| format!("{:020}", u128::from(v) * 10 + 99_999)),
        Just("99999999999999999999".to_string()),
        Just("-1".to_string()),
        Just("1e3".to_string()),
    ]
}

/// An `n`: small, or past [`SIZE_LIMIT`] (never a large valid count).
fn node_count() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => (0usize..20).prop_map(|v| v.to_string()),
        1 => Just((SIZE_LIMIT + 1).to_string()),
        1 => Just(u64::MAX.to_string()),
        1 => Just("99999999999999999999".to_string()),
    ]
}

/// A `k`: small, past the matrix cap, at or past [`SIZE_LIMIT`], or
/// past `u32` or `u64`.
fn wavelength_count() -> impl Strategy<Value = String> {
    let past_cap = (1..)
        .find(|k: &usize| k * k > MAX_MATRIX_CELLS)
        .expect("a k past the cap");
    prop_oneof![
        4 => (0usize..20).prop_map(|v| v.to_string()),
        1 => Just(past_cap.to_string()),
        1 => Just(SIZE_LIMIT.to_string()),
        1 => Just((SIZE_LIMIT + 1).to_string()),
        1 => Just((u64::from(u32::MAX) + 1).to_string()),
        1 => Just("99999999999999999999".to_string()),
    ]
}

/// One body line: a directive with numeric fields from [`number`].
fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        (number(), number(), number(), number())
            .prop_map(|(u, v, l, c)| format!("link {u} {v} {l}:{c}")),
        (number(), number(), number(), number(), number())
            .prop_map(|(u, v, l, c, d)| format!("link {u} {v} {l}:{c},{d}:{c}")),
        number().prop_map(|v| format!("conv {v} free")),
        (number(), number()).prop_map(|(v, c)| format!("conv {v} uniform {c}")),
        (number(), number(), number(), number())
            .prop_map(|(v, r, b, s)| format!("conv {v} banded {r} {b} {s}")),
        (number(), number(), number(), number())
            .prop_map(|(v, p, q, c)| format!("conv {v} matrix {p}>{q}:{c}")),
        number().prop_map(|v| format!("conv {v} matrix -")),
        node_count().prop_map(|n| format!("n {n}")),
        wavelength_count().prop_map(|k| format!("k {k}")),
        Just("link".to_string()),
        Just("conv 0 banded".to_string()),
        Just("garbage directive".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary text up to 64 KiB, bare and behind a valid header.
    #[test]
    fn arbitrary_text_never_panics(input in ".{0,65536}") {
        check(&input)?;
        check(&format!("wdm v1\n{input}"))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Structured-looking instances with hostile numbers never panic.
    #[test]
    fn corrupted_instances_never_panic(
        n in node_count(),
        k in wavelength_count(),
        lines in prop::collection::vec(line(), 0..12),
    ) {
        check(&format!("wdm v1\nn {n}\nk {k}\n{}", lines.join("\n")))?;
    }

    /// Huge size declarations are rejected, not allocated.
    #[test]
    fn huge_sizes_are_rejected(n in (1usize << 27)..usize::MAX / 2) {
        let text = format!("wdm v1\nn {n}\nk 1\n");
        prop_assert!(from_text(&text).is_err());
    }
}
