//! Per-rule fixture tests for the source engine.
//!
//! Each fixture under `tests/fixtures/` intentionally violates exactly
//! one rule; the assertions pin the rule, severity, and the exact
//! `line:col` span of every finding. The `fixtures/` directory is
//! excluded from workspace scans by `collect_rs_files`, so these files
//! never fail the real `--deny all` gate. The `l1_*`/`l2_*` fixtures
//! keep their names from the retired rules L1 and L2, whose findings L6
//! and L7 now make at the same spans.

use wdm_lint::{scan_sources, Finding, ItemIndex, Rule, Severity};

/// Runs every source rule over `(workspace-relative path, text)` files.
fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect();
    scan_sources(&ItemIndex::build(&owned))
}

/// Runs every source rule over one file.
fn lint_file(rel: &str, src: &str) -> Vec<Finding> {
    lint(&[(rel, src)])
}

/// (rule, severity, line, col) of each finding, in emission order.
fn spans(findings: &[Finding]) -> Vec<(Rule, Severity, usize, usize)> {
    findings
        .iter()
        .map(|f| (f.rule, f.severity, f.line, f.col))
        .collect()
}

#[test]
fn l1_fixture_flags_unwrap_and_panic_with_exact_spans() {
    let src = include_str!("fixtures/l1_unwrap.rs");
    let findings = lint_file("crates/wdm-core/src/l1_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::PanicReach, Severity::Deny, 5, 16),
            (Rule::PanicReach, Severity::Deny, 10, 5),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains(".unwrap()"));
    assert!(findings[1].message.contains("panic!"));
}

#[test]
fn l1_is_warning_in_cli_and_silent_outside_scoped_crates() {
    let src = include_str!("fixtures/l1_unwrap.rs");
    let cli = lint_file("crates/wdm-cli/src/l1_fixture.rs", src);
    assert_eq!(
        spans(&cli),
        vec![
            (Rule::PanicReach, Severity::Warning, 5, 16),
            (Rule::PanicReach, Severity::Warning, 10, 5),
        ]
    );
    // wdm-obs is not in L6 scope at all.
    let obs = lint_file("crates/wdm-obs/src/l1_fixture.rs", src);
    assert!(obs.iter().all(|f| f.rule != Rule::PanicReach), "{obs:?}");
}

#[test]
fn l2_fixture_flags_allocations_in_hot_path_with_exact_spans() {
    let src = include_str!("fixtures/l2_hot_alloc.rs");
    let findings = lint_file("crates/wdm-core/src/l2_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::AllocReach, Severity::Deny, 6, 18),
            (Rule::AllocReach, Severity::Deny, 7, 17),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("to_vec"));
    assert!(findings[0].message.contains("hot_sum"));
    assert!(findings[1].message.contains("Box::new"));
}

#[test]
fn l3_fixture_flags_unsafe_without_safety_comment() {
    let src = include_str!("fixtures/l3_unsafe.rs");
    let findings = lint_file("crates/wdm-core/src/l3_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![(Rule::UnsafeNeedsSafety, Severity::Deny, 5, 5)],
        "{findings:?}"
    );
    // The same code with a SAFETY comment passes.
    let fixed = src.replace(
        "    unsafe",
        "    // SAFETY: fixture pointer is valid by contract.\n    unsafe",
    );
    assert!(lint_file("crates/wdm-core/src/l3_fixture.rs", &fixed).is_empty());
}

#[test]
fn l4_fixture_flags_bare_ordering_with_exact_span() {
    let src = include_str!("fixtures/l4_ordering.rs");
    let findings = lint_file("crates/wdm-obs/src/l4_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![(Rule::OrderingJustification, Severity::Deny, 6, 18)],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("Ordering::Relaxed"));
    // An audited module is exempt wholesale.
    let audited = format!("// wdm-lint: audited-orderings\n{src}");
    assert!(lint_file("crates/wdm-obs/src/l4_fixture.rs", &audited).is_empty());
}

#[test]
fn l5_fixture_flags_undocumented_public_items_with_exact_spans() {
    let src = include_str!("fixtures/l5_missing_docs.rs");
    let findings = lint_file("crates/wdm-core/src/l5_fixture.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::MissingDocs, Severity::Deny, 3, 1),
            (Rule::MissingDocs, Severity::Deny, 7, 1),
            (Rule::MissingDocs, Severity::Deny, 8, 5),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains("undocumented"));
    assert!(findings[1].message.contains("Bare"));
    assert!(findings[2].message.contains("field"));
}

#[test]
fn allow_comment_suppresses_the_named_rule() {
    let src = "/// Docs.\n\
               pub fn f(v: &[u32]) -> u32 {\n\
               \x20   // wdm-lint: allow(panic_reach)\n\
               \x20   *v.first().unwrap()\n\
               }\n";
    assert!(lint_file("crates/wdm-core/src/allowed.rs", src).is_empty());
    // The suppression names only L6; a different rule still fires.
    let findings = lint_file(
        "crates/wdm-core/src/allowed.rs",
        &src.replace("panic_reach", "missing_docs"),
    );
    assert_eq!(
        spans(&findings),
        vec![(Rule::PanicReach, Severity::Deny, 4, 16)]
    );
}

#[test]
fn l6_flags_panics_in_const_and_static_initializers() {
    let src = include_str!("fixtures/l6_item_initializers.rs");
    let findings = lint_file("crates/wdm-core/src/l6_items.rs", src);
    assert_eq!(
        spans(&findings),
        vec![
            (Rule::PanicReach, Severity::Deny, 4, 29),
            (Rule::PanicReach, Severity::Deny, 6, 41),
        ],
        "{findings:?}"
    );
    assert!(findings[0].message.contains(".unwrap()"));
    assert!(findings[1].message.contains(".expect()"));
}

/// A file's `//!` docs document the file's module, not its first item.
#[test]
fn l5_inner_docs_do_not_document_the_next_item() {
    let findings = lint_file(
        "crates/wdm-core/src/l5_inner.rs",
        "//! Crate docs.\npub fn f() {}\n",
    );
    assert_eq!(
        spans(&findings),
        vec![(Rule::MissingDocs, Severity::Deny, 2, 1)],
        "{findings:?}"
    );
}

#[test]
fn l5_accepts_inner_module_docs_for_a_mod_declaration() {
    let lib = "//! Crate docs.\n\n/// Documented.\npub fn f() {}\n\npub mod m;\n";
    let documented = lint(&[
        ("crates/wdm-core/src/lib.rs", lib),
        ("crates/wdm-core/src/m.rs", "//! Module docs.\n"),
    ]);
    assert_eq!(documented, Vec::new());
    // `m/mod.rs` counts the same as `m.rs`.
    let nested = lint(&[
        ("crates/wdm-core/src/lib.rs", lib),
        ("crates/wdm-core/src/m/mod.rs", "//! Module docs.\n"),
    ]);
    assert_eq!(nested, Vec::new());
    // No docs anywhere: the declaration is the finding.
    let bare = lint(&[
        ("crates/wdm-core/src/lib.rs", lib),
        ("crates/wdm-core/src/m.rs", "// Not a doc comment.\n"),
    ]);
    assert_eq!(
        spans(&bare),
        vec![(Rule::MissingDocs, Severity::Deny, 6, 1)],
        "{bare:?}"
    );
    assert!(bare[0].message.contains("`m`"));
}
