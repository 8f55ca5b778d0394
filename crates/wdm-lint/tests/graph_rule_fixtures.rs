//! Fixture tests for the tier-2 call-graph rules L6–L9: each rule gets
//! a minimal fixture asserting the exact `file:line:col` span, plus the
//! mutation pairs the design doc calls out (clean twin passes, mutated
//! twin fires).

use wdm_lint::{scan_graph_rules, Finding, ItemIndex, Rule, Severity};

/// Indexes `(rel-path, source)` fixtures and runs L6–L9.
fn scan(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    let index = ItemIndex::build(&owned);
    scan_graph_rules(&index)
}

/// Exact spans of one rule's findings: `(file, line, col, severity)`.
fn spans_of(findings: &[Finding], rule: Rule) -> Vec<(String, usize, usize, Severity)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.file.clone(), f.line, f.col, f.severity))
        .collect()
}

// ---------------------------------------------------------------------------
// L6 — transitive panic reachability.

const L6_HELPER_PANICS: &str = "\
/// Helper in a non-deny crate that can panic.
pub fn l6_helper(x: u32) -> u32 {
    if x > 7 {
        panic!(\"boom {x}\")
    } else {
        x
    }
}
";

const L6_HELPER_CLEAN: &str = "\
/// Helper in a non-deny crate that cannot panic.
pub fn l6_helper(x: u32) -> u32 {
    x.min(7)
}
";

const L6_CALLER: &str = "\
/// Entry point in a deny-tier crate.
pub fn l6_entry(x: u32) -> u32 {
    l6_helper(x)
}
";

/// Mutation pair: wrapping a `panic!` one helper deep — in a crate L1/L6
/// do not scope — must surface as an L6 frontier edge at the call site
/// in the deny-tier caller.
#[test]
fn l6_panic_one_helper_deep_fires_at_call_edge() {
    let findings = scan(&[
        ("crates/wdm-obs/src/l6_helper.rs", L6_HELPER_PANICS),
        ("crates/wdm-core/src/l6_caller.rs", L6_CALLER),
    ]);
    assert_eq!(
        spans_of(&findings, Rule::PanicReach),
        vec![(
            "crates/wdm-core/src/l6_caller.rs".to_string(),
            3,
            5,
            Severity::Deny
        )]
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == Rule::PanicReach)
        .unwrap()
        .message;
    assert!(msg.contains("l6_entry"), "witness names the caller: {msg}");
    assert!(msg.contains("panic"), "witness names the sink: {msg}");
}

#[test]
fn l6_clean_helper_produces_no_findings() {
    let findings = scan(&[
        ("crates/wdm-obs/src/l6_helper.rs", L6_HELPER_CLEAN),
        ("crates/wdm-core/src/l6_caller.rs", L6_CALLER),
    ]);
    assert_eq!(findings, Vec::new());
}

#[test]
fn l6_unguarded_arithmetic_indexing_is_a_direct_sink() {
    let src = "\
/// Derived-index lookup with no guarding assert.
pub fn pick(v: &[u32], i: usize) -> u32 {
    v[i + 1]
}
";
    let findings = scan(&[("crates/wdm-core/src/l6_index.rs", src)]);
    assert_eq!(
        spans_of(&findings, Rule::PanicReach),
        vec![(
            "crates/wdm-core/src/l6_index.rs".to_string(),
            3,
            6,
            Severity::Deny
        )]
    );
}

#[test]
fn l6_single_line_allow_suppresses_the_edge() {
    let caller = "\
/// Entry point with an audited edge.
pub fn l6_entry(x: u32) -> u32 {
    // wdm-lint: allow(panic_reach) — audited: x is clamped to 7 upstream
    l6_helper(x)
}
";
    let findings = scan(&[
        ("crates/wdm-obs/src/l6_helper.rs", L6_HELPER_PANICS),
        ("crates/wdm-core/src/l6_caller.rs", caller),
    ]);
    assert_eq!(spans_of(&findings, Rule::PanicReach), Vec::new());
}

// ---------------------------------------------------------------------------
// L7 — transitive allocation reachability from hot paths.

const L7_CALLEE_ALLOCS: &str = "\
/// Builds a scratch vec (allocates).
fn build_scratch() -> Vec<u32> {
    Vec::new()
}

/// Hot entry that delegates to the builder.
// wdm-lint: hot-path
pub fn hot_entry() -> Vec<u32> {
    build_scratch()
}
";

const L7_CALLEE_CLEAN: &str = "\
/// Builds a scratch vec with sanctioned preallocation.
fn build_scratch() -> Vec<u32> {
    Vec::with_capacity(8)
}

/// Hot entry that delegates to the builder.
// wdm-lint: hot-path
pub fn hot_entry() -> Vec<u32> {
    build_scratch()
}
";

/// Mutation pair: inserting a `Vec::new` into a hot-path *callee* —
/// where L2's per-function scan cannot see it — must fire L7 on the
/// edge from the hot function.
#[test]
fn l7_alloc_in_hot_callee_fires_at_call_edge() {
    let findings = scan(&[("crates/wdm-core/src/l7_hot.rs", L7_CALLEE_ALLOCS)]);
    assert_eq!(
        spans_of(&findings, Rule::AllocReach),
        vec![(
            "crates/wdm-core/src/l7_hot.rs".to_string(),
            9,
            5,
            Severity::Deny
        )]
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == Rule::AllocReach)
        .unwrap()
        .message;
    assert!(msg.contains("hot_entry"), "names the hot fn: {msg}");
    assert!(msg.contains("Vec::new"), "witness reaches the sink: {msg}");
}

#[test]
fn l7_preallocating_callee_produces_no_findings() {
    let findings = scan(&[("crates/wdm-core/src/l7_hot.rs", L7_CALLEE_CLEAN)]);
    assert_eq!(findings, Vec::new());
}

// ---------------------------------------------------------------------------
// L8 — lossy `as` narrowing outside checked sites.

#[test]
fn l8_narrowing_and_reasonless_annotation_fire_exact_spans() {
    let src = "\
/// Narrowing cast: flagged.
pub fn narrow(x: u64) -> u32 {
    x as u32
}

/// Masked cast within range: exempt.
pub fn masked(x: u64) -> u8 {
    (x & 0xff) as u8
}

/// Reasoned annotation: exempt.
pub fn annotated(x: u64) -> u32 {
    // wdm-lint: cast-checked: the caller clamps x below 2^32
    x as u32
}

/// Reason-less annotation: itself a finding.
pub fn reasonless(x: u64) -> u16 {
    // wdm-lint: cast-checked
    x as u16
}
";
    let findings = scan(&[("crates/wdm-core/src/l8_casts.rs", src)]);
    let file = "crates/wdm-core/src/l8_casts.rs".to_string();
    assert_eq!(
        spans_of(&findings, Rule::LossyCast),
        vec![
            (file.clone(), 3, 7, Severity::Deny),
            (file, 20, 7, Severity::Deny),
        ]
    );
    assert!(
        findings
            .iter()
            .any(|f| f.line == 20 && f.message.contains("lacks a reason")),
        "the annotated-without-reason site gets the dedicated message"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.line == 3 && f.message.contains("try_from")),
        "the plain narrowing site points at the try_from fix"
    );
}

#[test]
fn l8_widening_and_literal_casts_are_exempt() {
    let src = "\
/// Widening is value-preserving.
pub fn widen(x: u32) -> u64 {
    x as u64
}

/// A fitting literal is provably in range.
pub fn lit() -> u8 {
    200 as u8
}
";
    let findings = scan(&[("crates/wdm-core/src/l8_ok.rs", src)]);
    assert_eq!(findings, Vec::new());
}

// ---------------------------------------------------------------------------
// L9 — seqlock / shard-claim protocol conformance.

const L9_FILE: &str = "crates/wdm-rwa/src/concurrent.rs";

const L9_WRITER_ASCENDING: &str = "\
//! wdm-lint: protocol: seqlock
/// Claims two shards in ascending order, then publishes.
pub fn claim_two(shards: &[Seq], v: u64) {
    shards[0].compare_exchange(v, v + 1);
    shards[1].compare_exchange(v, v + 1);
    shards[0].store(v + 2, RELEASE);
}
";

const L9_WRITER_REORDERED: &str = "\
//! wdm-lint: protocol: seqlock
/// Claims two shards in descending order — a deadlock recipe.
pub fn claim_two(shards: &[Seq], v: u64) {
    shards[1].compare_exchange(v, v + 1);
    shards[0].compare_exchange(v, v + 1);
    shards[0].store(v + 2, RELEASE);
}
";

#[test]
fn l9_ascending_literal_claims_pass() {
    let findings = scan(&[(L9_FILE, L9_WRITER_ASCENDING)]);
    assert_eq!(spans_of(&findings, Rule::ProtocolOrder), Vec::new());
}

/// Mutation: reordering two shard claims must fire L9 on the
/// out-of-order CAS.
#[test]
fn l9_reordered_shard_claims_fire() {
    let findings = scan(&[(L9_FILE, L9_WRITER_REORDERED)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 5, 15, Severity::Deny)]
    );
    let msg = &findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message;
    assert!(
        msg.contains("index 0 after index 1"),
        "names both indices: {msg}"
    );
}

const L9_LOOP_ASCENDING: &str = "\
//! wdm-lint: protocol: seqlock
/// Claims every shard walking upward.
pub fn claim_all(shards: &[Seq], v: u64) {
    for sh in 0..shards.len() {
        shards[sh].compare_exchange(v, v + 1);
    }
}
";

const L9_LOOP_DESCENDING: &str = "\
//! wdm-lint: protocol: seqlock
/// Claims every shard walking downward.
pub fn claim_all(shards: &[Seq], v: u64) {
    for sh in (0..shards.len()).rev() {
        shards[sh].compare_exchange(v, v + 1);
    }
}
";

#[test]
fn l9_ascending_claim_loop_passes() {
    let findings = scan(&[(L9_FILE, L9_LOOP_ASCENDING)]);
    assert_eq!(spans_of(&findings, Rule::ProtocolOrder), Vec::new());
}

/// Mutation: descending a claim loop (`.rev()`) must fire L9 on the
/// loop header.
#[test]
fn l9_descending_claim_loop_fires() {
    let findings = scan(&[(L9_FILE, L9_LOOP_DESCENDING)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 4, 5, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("iterates in reverse"));
}

const L9_LOOP_UNSORTED: &str = "\
//! wdm-lint: protocol: seqlock
/// Claims the shards in whatever order the caller passed.
pub fn claim_in_order(shards: &[Seq], order: &[usize], v: u64) {
    for sh in order.iter().copied() {
        shards[sh].compare_exchange(v, v + 1);
    }
}
";

const L9_LOOP_SORTED: &str = "\
//! wdm-lint: protocol: seqlock
/// The shards a request touches, ascending.
fn sorted_order(wanted: &[usize]) -> Vec<usize> {
    let mut out = wanted.to_vec();
    out.sort_unstable();
    out
}
/// Claims the shards a request touches, walking them upward.
pub fn claim_in_order(shards: &[Seq], wanted: &[usize], v: u64) {
    let order = sorted_order(wanted);
    for sh in order.iter().copied() {
        shards[sh].compare_exchange(v, v + 1);
    }
}
";

/// Mutation: a claim loop over a caller-supplied order (no sorted
/// provenance) must fire L9 on the loop header.
#[test]
fn l9_claim_loop_over_unsorted_vec_fires() {
    let findings = scan(&[(L9_FILE, L9_LOOP_UNSORTED)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 4, 5, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("walks `order`, which has no sorted provenance"));
}

/// Mutation: a range passed through a call can come back in any order,
/// so only a range the loop walks itself counts.
#[test]
fn l9_claim_loop_over_a_call_result_fires() {
    let src = "\
//! wdm-lint: protocol: seqlock
/// Claims the shards in whatever order `shuffled` returns.
pub fn claim_shuffled(shards: &[Seq], v: u64) {
    for sh in shuffled(0..shards.len()) {
        shards[sh].compare_exchange(v, v + 1);
    }
}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 4, 5, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("walks neither a range nor a vec"));
}

/// The sorted twin: the same loop over a vec assigned from a sorting fn
/// passes.
#[test]
fn l9_claim_loop_over_sorted_vec_passes() {
    let findings = scan(&[(L9_FILE, L9_LOOP_SORTED)]);
    assert_eq!(spans_of(&findings, Rule::ProtocolOrder), Vec::new());
}

#[test]
fn l9_publish_without_claim_fires() {
    let src = "\
//! wdm-lint: protocol: seqlock
/// Publishes an even sequence without ever claiming.
pub fn publish_unclaimed(seq: &Seq, v: u64) {
    seq.store(v + 2, RELEASE);
}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 4, 9, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("without a prior claim CAS"));
}

#[test]
fn l9_reader_without_revalidation_fires_at_fence() {
    let src = "\
//! wdm-lint: protocol: seqlock
/// Reads once and never rechecks the sequence.
pub fn read_once(seq: &Seq) -> u64 {
    let v = seq.load(ACQUIRE);
    fence_acquire();
    v
}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 5, 5, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("never revalidates"));
}

#[test]
fn l9_revalidating_reader_passes() {
    let src = "\
//! wdm-lint: protocol: seqlock
/// Reads, fences, and revalidates the sequence.
pub fn read_validated(seq: &Seq) -> bool {
    let v = seq.load(ACQUIRE);
    fence_acquire();
    let again = seq.load(ACQUIRE);
    v == again
}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(spans_of(&findings, Rule::ProtocolOrder), Vec::new());
}

#[test]
fn l9_oddness_test_that_drops_the_value_fires() {
    let src = "\
//! wdm-lint: protocol: seqlock
/// Tests oddness but never feeds the value to a CAS or recheck.
pub fn odd_probe(seq: &Seq) -> bool {
    let v = seq.load(RELAXED);
    v % 2 == 1
}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 5, 5, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("never flows into the claim CAS"));
}

#[test]
fn l9_protocol_file_without_marker_fires_at_file_head() {
    let src = "\
//! A protocol file that forgot its marker.
pub fn noop() {}
";
    let findings = scan(&[(L9_FILE, src)]);
    assert_eq!(
        spans_of(&findings, Rule::ProtocolOrder),
        vec![(L9_FILE.to_string(), 1, 1, Severity::Deny)]
    );
    assert!(findings
        .iter()
        .find(|f| f.rule == Rule::ProtocolOrder)
        .unwrap()
        .message
        .contains("lacks the `// wdm-lint: protocol: seqlock` marker"));
}
