//! The shared finding model: what both analysis engines report.

use std::fmt::{self, Write as _};
use std::path::Path;
use wdm_obs::json::escape_into;

/// Which rule produced a finding.
///
/// `L*` rules come from the source engine ([`crate::source`]), `M*` rules
/// from the model verifier ([`crate::model`]). The slug (see
/// [`Rule::slug`]) is what suppression comments name:
/// `// wdm-lint: allow(panic_reach) — reason`. L1 and L2 retired into
/// L6 and L7; their codes are not reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Rule {
    /// L3 — every `unsafe` token needs an immediately preceding
    /// `// SAFETY:` comment.
    UnsafeNeedsSafety,
    /// L4 — every `Ordering::` use needs a justification comment or must
    /// live in a `// wdm-lint: audited-orderings` module.
    OrderingJustification,
    /// L5 — public items need doc comments.
    MissingDocs,
    /// L6 — non-test library code in deny-tier crates must not contain
    /// or *reach* a panic primitive (`unwrap`/`expect`/`panic!`/bare
    /// `unreachable!()`/unguarded arithmetic indexing) through any call
    /// chain in the workspace call graph.
    PanicReach,
    /// L7 — `// wdm-lint: hot-path` functions must not allocate, in
    /// their own body or through any call chain.
    AllocReach,
    /// L8 — lossy `as` casts (integer narrowing, sign loss, float→int)
    /// outside `// wdm-lint: cast-checked: <reason>` sites.
    LossyCast,
    /// L9 — seqlock/shard-claim protocol conformance in
    /// `// wdm-lint: protocol: seqlock` files: claims ascend, snapshots
    /// validate before publishes, publishes follow claims, seqlock reads
    /// revalidate.
    ProtocolOrder,
    /// M1 — Theorem 1 node-count formula violated.
    Theorem1NodeCount,
    /// M2 — Theorem 1 edge-count formula violated.
    Theorem1EdgeCount,
    /// M3 — a conversion gadget `G_v` is not bipartite `X_v → Y_v`, or a
    /// diagonal `c_v(λ, λ)` edge has non-zero cost, or a gadget edge cost
    /// disagrees with the conversion policy.
    GadgetShape,
    /// M4 — a traversal edge disagrees with the base multigraph
    /// (endpoints, wavelength, cost, or multiplicity).
    TraversalShape,
    /// M5 — a super-source/sink tap arc is not zero-cost, or a terminal
    /// has edges on the wrong side.
    TerminalShape,
    /// M6 — an EdgeMask/CSR cross-index is out of bounds, points at the
    /// wrong edge, or a busy flip is not an involution with release.
    MaskIndex,
    /// M7 — the Restriction 1/2 gate (`restrictions.rs` fast-path
    /// preconditions) disagrees with an independent recomputation.
    RestrictionGate,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 14] = [
        Rule::UnsafeNeedsSafety,
        Rule::OrderingJustification,
        Rule::MissingDocs,
        Rule::PanicReach,
        Rule::AllocReach,
        Rule::LossyCast,
        Rule::ProtocolOrder,
        Rule::Theorem1NodeCount,
        Rule::Theorem1EdgeCount,
        Rule::GadgetShape,
        Rule::TraversalShape,
        Rule::TerminalShape,
        Rule::MaskIndex,
        Rule::RestrictionGate,
    ];

    /// Stable machine name, used in JSON output and suppression comments.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "unsafe_needs_safety",
            Rule::OrderingJustification => "ordering_justification",
            Rule::MissingDocs => "missing_docs",
            Rule::PanicReach => "panic_reach",
            Rule::AllocReach => "alloc_reach",
            Rule::LossyCast => "lossy_cast",
            Rule::ProtocolOrder => "protocol_order",
            Rule::Theorem1NodeCount => "theorem1_node_count",
            Rule::Theorem1EdgeCount => "theorem1_edge_count",
            Rule::GadgetShape => "gadget_shape",
            Rule::TraversalShape => "traversal_shape",
            Rule::TerminalShape => "terminal_shape",
            Rule::MaskIndex => "mask_index",
            Rule::RestrictionGate => "restriction_gate",
        }
    }

    /// Short display code (`L3`..`L9`, `M1`..`M7`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "L3",
            Rule::OrderingJustification => "L4",
            Rule::MissingDocs => "L5",
            Rule::PanicReach => "L6",
            Rule::AllocReach => "L7",
            Rule::LossyCast => "L8",
            Rule::ProtocolOrder => "L9",
            Rule::Theorem1NodeCount => "M1",
            Rule::Theorem1EdgeCount => "M2",
            Rule::GadgetShape => "M3",
            Rule::TraversalShape => "M4",
            Rule::TerminalShape => "M5",
            Rule::MaskIndex => "M6",
            Rule::RestrictionGate => "M7",
        }
    }

    /// Looks a rule up by its [`slug`](Self::slug).
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.slug() == slug)
    }

    /// One-line rule description, used in the SARIF rules table.
    pub fn description(self) -> &'static str {
        match self {
            Rule::UnsafeNeedsSafety => "every `unsafe` needs a preceding // SAFETY: comment",
            Rule::OrderingJustification => {
                "atomic Ordering uses need justification or an audited module"
            }
            Rule::MissingDocs => "public items need doc comments",
            Rule::PanicReach => {
                "deny-tier library code must not contain or reach a panic primitive"
            }
            Rule::AllocReach => "hot-path functions must not allocate, directly or via any call",
            Rule::LossyCast => "lossy `as` casts need try_from or a cast-checked justification",
            Rule::ProtocolOrder => "seqlock/shard-claim protocol order in protocol-marked files",
            Rule::Theorem1NodeCount => "Theorem 1 node-count closed form",
            Rule::Theorem1EdgeCount => "Theorem 1 edge-count closed form",
            Rule::GadgetShape => "conversion gadget bipartite shape and costs",
            Rule::TraversalShape => "traversal edges match the base multigraph",
            Rule::TerminalShape => "super-source/sink taps are zero-cost and one-sided",
            Rule::MaskIndex => "EdgeMask/CSR cross-index integrity and busy-flip involution",
            Rule::RestrictionGate => "Restriction 1/2 gates match independent recomputation",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.code(), self.slug())
    }
}

/// How severe a finding is for the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported but never fails the run (report-only scopes, e.g. L6
    /// extended over `wdm-cli`).
    Warning,
    /// Fails the run under `--deny`.
    Deny,
}

impl Severity {
    /// Stable machine name.
    pub fn slug(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Deny => "deny",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: Rule,
    /// Whether the finding fails a `--deny` run.
    pub severity: Severity,
    /// Source file (source engine) or instance label (model engine).
    pub file: String,
    /// 1-based line (0 for model findings).
    pub line: usize,
    /// 1-based column (0 for model findings).
    pub col: usize,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// A deny-severity source finding at `file:line:col`.
    pub fn source(rule: Rule, file: &str, line: usize, col: usize, message: String) -> Self {
        Finding {
            rule,
            severity: Severity::Deny,
            file: file.to_string(),
            line,
            col,
            message,
        }
    }

    /// A deny-severity model finding against `instance`.
    pub fn model(rule: Rule, instance: &str, message: String) -> Self {
        Finding {
            rule,
            severity: Severity::Deny,
            file: instance.to_string(),
            line: 0,
            col: 0,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}: {}",
                self.severity.slug(),
                self.rule.code(),
                self.file,
                self.message
            )
        } else {
            write!(
                f,
                "{}: [{}] {}:{}:{}: {}",
                self.severity.slug(),
                self.rule.code(),
                self.file,
                self.line,
                self.col,
                self.message
            )
        }
    }
}

/// Sorts findings by file, line, column and rule code, dropping repeats
/// of one rule at one span (a nested fn's sink is also its parent's).
pub(crate) fn sort_findings(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule.code()).cmp(&(
            b.file.as_str(),
            b.line,
            b.col,
            b.rule.code(),
        ))
    });
    findings.dedup_by(|a, b| (&a.file, a.line, a.col, a.rule) == (&b.file, b.line, b.col, b.rule));
}

/// Renders findings as a machine-readable JSON document:
/// `{"findings": [...], "deny_count": N, "warning_count": N}`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        let _ = write!(
            out,
            "    {{\"rule\": \"{}\", \"code\": \"{}\", \"severity\": \"{}\", \"file\": \"",
            f.rule.slug(),
            f.rule.code(),
            f.severity.slug()
        );
        escape_into(&mut out, &f.file);
        let _ = write!(
            out,
            "\", \"line\": {}, \"col\": {}, \"message\": \"",
            f.line, f.col
        );
        escape_into(&mut out, &f.message);
        let _ = writeln!(out, "\"}}{sep}");
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;
    let _ = write!(
        out,
        "  ],\n  \"deny_count\": {deny},\n  \"warning_count\": {warn}\n}}\n"
    );
    out
}

/// Renders findings as a SARIF 2.1.0 document (one run, one driver),
/// suitable for CI upload. Model findings (no source span) anchor at
/// line 1 of their instance label.
pub fn render_sarif(findings: &[Finding]) -> String {
    let mut rules_used: Vec<Rule> = Vec::new();
    for f in findings {
        if !rules_used.contains(&f.rule) {
            rules_used.push(f.rule);
        }
    }
    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"wdm-lint\",\n          \"rules\": [\n",
    );
    for (i, rule) in rules_used.iter().enumerate() {
        let sep = if i + 1 == rules_used.len() { "" } else { "," };
        let _ = write!(
            out,
            "            {{\"id\": \"{}\", \"name\": \"{}\", \"shortDescription\": {{\"text\": \"",
            rule.code(),
            rule.slug()
        );
        escape_into(&mut out, rule.description());
        let _ = writeln!(out, "\"}}}}{sep}");
    }
    out.push_str("          ]\n        }\n      },\n      \"results\": [\n");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i + 1 == findings.len() { "" } else { "," };
        let level = match f.severity {
            Severity::Warning => "warning",
            Severity::Deny => "error",
        };
        let _ = write!(
            out,
            "        {{\"ruleId\": \"{}\", \"level\": \"{level}\", \"message\": {{\"text\": \"",
            f.rule.code()
        );
        escape_into(&mut out, &f.message);
        out.push_str(
            "\"}, \"locations\": [{\"physicalLocation\": {\"artifactLocation\": {\"uri\": \"",
        );
        escape_into(&mut out, &f.file);
        let _ = writeln!(
            out,
            "\"}}, \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}{sep}",
            f.line.max(1),
            f.col.max(1)
        );
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

/// Renders findings as human-readable text, one per line, with a
/// trailing summary.
pub fn render_text(findings: &[Finding], root: &Path) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = writeln!(out, "{f}");
    }
    let deny = findings
        .iter()
        .filter(|f| f.severity == Severity::Deny)
        .count();
    let warn = findings.len() - deny;
    let _ = writeln!(
        out,
        "wdm-lint: {deny} deny, {warn} warning finding(s) under {}",
        root.display()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs_round_trip() {
        for rule in Rule::ALL {
            assert_eq!(Rule::from_slug(rule.slug()), Some(rule));
        }
        assert_eq!(Rule::from_slug("nope"), None);
    }

    #[test]
    fn json_escapes_and_counts() {
        let findings = vec![
            Finding::source(Rule::PanicReach, "a \"b\".rs", 3, 7, "uses\nunwrap".into()),
            Finding {
                severity: Severity::Warning,
                ..Finding::model(Rule::MaskIndex, "inst", "bad".into())
            },
        ];
        let json = render_json(&findings);
        assert!(json.contains("\\\"b\\\""));
        assert!(json.contains("uses\\nunwrap"));
        assert!(json.contains("\"deny_count\": 1"));
        assert!(json.contains("\"warning_count\": 1"));
    }

    #[test]
    fn display_forms() {
        let f = Finding::source(Rule::PanicReach, "x.rs", 3, 7, "m".into());
        assert_eq!(f.to_string(), "deny: [L6] x.rs:3:7: m");
        let m = Finding::model(Rule::GadgetShape, "chain", "bad".into());
        assert_eq!(m.to_string(), "deny: [M3] chain: bad");
    }
}
