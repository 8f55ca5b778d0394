//! Token rules L3–L5, the workspace file set, and the one entry point
//! that runs every source rule.
//!
//! Every rule reads the workspace through one [`ItemIndex`]: each `.rs`
//! file under `crates/` is read and lexed once, by
//! [`crate::lexer`], into a [`FileIndex`] holding its tokens, test
//! regions and suppressions. The token rules here scan those tokens,
//! comments included — which is the point: the repo's invariants live in
//! annotations (`// wdm-lint: hot-path`), audit trails (`// SAFETY:`),
//! and justification prose that rustc has no opinion about. The
//! call-graph rules L6–L9 ([`crate::rules_v2`]) run over the same index.
//!
//! # Suppression syntax
//!
//! `// wdm-lint: allow(rule[, rule…]) — reason` suppresses the named
//! rules on the comment's own line, the line it ends on, and the next
//! line. Rule names are the [`Rule::slug`] values; a `wdm_lint::` prefix
//! is accepted for symmetry with attribute syntax. A file containing
//! `// wdm-lint: audited-orderings` is an audited module: every
//! `Ordering::` use in it is considered justified (L4).

use crate::findings::{sort_findings, Finding, Rule};
use crate::graph::{FileIndex, ItemIndex};
use crate::lexer::{match_brace, next_code, Token, TokenKind};
use crate::rules_v2::scan_graph_rules;
use std::path::{Path, PathBuf};

/// Crates whose `Ordering::` uses need justification (L4). `wdm-core`
/// joined when `EdgeMask` went atomic for the sharded concurrent
/// engine: its words are flipped from multiple threads, so every
/// ordering there must come from the audited module too.
/// `wdm-serve` joined with the inflight gate and shutdown flag;
/// `wdm-campaign` with the work-stealing job counter.
const L4_CRATES: &[&str] = &[
    "wdm-core",
    "wdm-obs",
    "wdm-rwa",
    "wdm-serve",
    "wdm-campaign",
];
/// Crates whose public items require doc comments (L5). `wdm-campaign`
/// is held to the same bar as the engine crates it drives.
/// `wdm-lint` and `wdm-conformance` document themselves to the same bar.
const L5_CRATES: &[&str] = &[
    "wdm-core",
    "wdm-rwa",
    "wdm-serve",
    "wdm-campaign",
    "wdm-lint",
    "wdm-conformance",
];

/// Atomic memory-ordering variants; `cmp::Ordering` variants
/// (`Less`/`Equal`/`Greater`) are deliberately not listed.
const ATOMIC_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Where a file sits in the workspace, as far as rule scoping cares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileScope {
    /// The crate the file belongs to (directory name under `crates/`),
    /// or empty when the path is not of that shape.
    pub crate_name: String,
    /// Whether the file is under the crate's `src/` tree.
    pub in_src: bool,
}

impl FileScope {
    /// Derives the scope from a workspace-relative path like
    /// `crates/wdm-core/src/csr.rs`.
    pub fn from_rel_path(rel: &str) -> Self {
        let mut parts = rel.split(['/', '\\']);
        let (crate_name, in_src) = match (parts.next(), parts.next(), parts.next()) {
            (Some("crates"), Some(name), Some(region)) => (name.to_string(), region == "src"),
            _ => (String::new(), false),
        };
        FileScope { crate_name, in_src }
    }
}

/// Runs every source rule (L3–L9) over an indexed workspace; findings
/// come sorted by file, line, column and rule.
pub fn scan_sources(index: &ItemIndex) -> Vec<Finding> {
    let mut out = scan_graph_rules(index);
    for file in &index.files {
        rule_l3(file, &mut out);
        rule_l4(file, &mut out);
        rule_l5(index, file, &mut out);
    }
    sort_findings(&mut out);
    out
}

/// Reports `rule` at token `t` unless an allow comment covers its line.
fn emit(out: &mut Vec<Finding>, file: &FileIndex, rule: Rule, t: &Token, message: String) {
    if !file.is_allowed(rule.slug(), t.line) {
        out.push(Finding::source(rule, &file.rel, t.line, t.col, message));
    }
}

/// L3 — `unsafe` must be immediately preceded by a `// SAFETY:`
/// comment (possibly with attributes or visibility in between).
fn rule_l3(file: &FileIndex, out: &mut Vec<Finding>) {
    for (i, t) in file.tokens.iter().enumerate() {
        if t.is_ident("unsafe") && !has_preceding_safety_comment(&file.tokens, i) {
            emit(
                out,
                file,
                Rule::UnsafeNeedsSafety,
                t,
                "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
            );
        }
    }
}

fn has_preceding_safety_comment(tokens: &[Token], unsafe_idx: usize) -> bool {
    let mut i = unsafe_idx;
    loop {
        let Some(prev) = i.checked_sub(1) else {
            return false;
        };
        i = prev;
        let t = &tokens[i];
        match t.kind {
            TokenKind::LineComment | TokenKind::BlockComment => {
                // A contiguous run of comments counts as one audit
                // block; any line of it may carry the SAFETY tag.
                let mut j = i;
                loop {
                    if tokens[j].text.contains("SAFETY:") {
                        return true;
                    }
                    match j.checked_sub(1) {
                        Some(k) if tokens[k].is_comment() => j = k,
                        _ => return false,
                    }
                }
            }
            TokenKind::Ident
                if matches!(
                    t.text.as_str(),
                    "pub" | "crate" | "super" | "self" | "in" | "const" | "async" | "extern"
                ) =>
            {
                continue;
            }
            TokenKind::Punct if t.text == "(" || t.text == ")" => continue,
            TokenKind::Literal if t.text.starts_with('"') => continue, // extern ABI
            TokenKind::Punct if t.text == "]" => {
                // Skip a whole `#[...]` / `#![...]` attribute.
                let Some(start) = attribute_start(tokens, i) else {
                    return false;
                };
                i = start;
            }
            _ => return false,
        }
    }
}

/// The `#` opening the `#[...]` / `#![...]` attribute that the `]` at
/// `close` ends, if that bracket closes an attribute.
fn attribute_start(tokens: &[Token], close: usize) -> Option<usize> {
    let mut depth = 0usize;
    let open = (0..=close).rev().find(|&i| {
        match tokens[i].text.as_str() {
            "]" => depth += 1,
            "[" => depth -= 1,
            _ => {}
        }
        depth == 0
    })?;
    let before = |i: usize, c: char| i.checked_sub(1).filter(|&p| tokens[p].is_punct(c));
    before(before(open, '!').unwrap_or(open), '#')
}

/// L4 — atomic `Ordering::` uses need a justification comment on the
/// same or previous line, unless the file is an audited module.
fn rule_l4(file: &FileIndex, out: &mut Vec<Finding>) {
    let scope = &file.scope;
    if !L4_CRATES.contains(&scope.crate_name.as_str()) || !scope.in_src || file.audited_orderings {
        return;
    }
    let toks = &file.tokens;
    // `(first line, last line)` of every comment.
    let comments: Vec<(usize, usize)> = toks
        .iter()
        .filter(|t| t.is_comment())
        .map(|t| (t.line, t.line + t.text.matches('\n').count()))
        .collect();
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("Ordering") || file.in_test[i] {
            continue;
        }
        let Some(c1) = next_code(toks, i) else {
            continue;
        };
        let Some(c2) = next_code(toks, c1) else {
            continue;
        };
        let Some(v) = next_code(toks, c2) else {
            continue;
        };
        if !(toks[c1].is_punct(':') && toks[c2].is_punct(':')) {
            continue;
        }
        let variant = &toks[v];
        if variant.kind != TokenKind::Ident || !ATOMIC_ORDERINGS.contains(&variant.text.as_str()) {
            continue;
        }
        let justified = comments
            .iter()
            .any(|&(start, end)| start <= t.line && end + 1 >= t.line);
        if !justified {
            emit(
                out,
                file,
                Rule::OrderingJustification,
                t,
                format!(
                    "`Ordering::{}` without a justification comment; explain the \
                     ordering choice or use a named constant from the audited module",
                    variant.text
                ),
            );
        }
    }
}

/// L5 — public items need doc comments. A `pub mod m;` declaration is
/// documented by `//!` docs opening the module's own file.
fn rule_l5(index: &ItemIndex, file: &FileIndex, out: &mut Vec<Finding>) {
    let scope = &file.scope;
    if !L5_CRATES.contains(&scope.crate_name.as_str()) || !scope.in_src {
        return;
    }
    let toks = &file.tokens;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("pub") || file.in_test[i] {
            continue;
        }
        let Some(mut j) = next_code(toks, i) else {
            continue;
        };
        // `pub(crate)` / `pub(super)` / `pub(in …)` are not public API.
        if toks[j].is_punct('(') {
            continue;
        }
        // Classify the item; `pub use` re-exports inherit their
        // target's docs, and a bare type in a tuple struct
        // (`pub u32`) documents at the struct level.
        let follower = &toks[j];
        let item_keywords = [
            "fn", "struct", "enum", "trait", "mod", "static", "type", "union", "const", "unsafe",
            "async", "extern", "macro",
        ];
        if follower.is_ident("use") {
            continue;
        } else if follower.kind == TokenKind::Ident
            && item_keywords.contains(&follower.text.as_str())
        {
            // Scan past modifiers to the item name.
            while let Some(n) = next_code(toks, j) {
                j = n;
                let tk = &toks[j];
                if tk.kind == TokenKind::Ident && !item_keywords.contains(&tk.text.as_str()) {
                    break;
                }
                if tk.kind == TokenKind::Literal {
                    continue; // extern "C"
                }
                if tk.kind != TokenKind::Ident {
                    break;
                }
            }
        } else if follower.kind != TokenKind::Ident
            || !next_code(toks, j).is_some_and(|n| toks[n].is_punct(':'))
        {
            // Neither an item nor a named field (`pub name: Type`).
            continue;
        }
        let name = &toks[j].text;
        let module_decl =
            follower.is_ident("mod") && next_code(toks, j).is_some_and(|n| toks[n].is_punct(';'));
        if has_preceding_doc_comment(toks, i)
            || (module_decl && module_file_has_inner_docs(index, &file.rel, name))
        {
            continue;
        }
        emit(
            out,
            file,
            Rule::MissingDocs,
            t,
            format!("public item `{name}` lacks a doc comment"),
        );
    }
}

/// Whether the tokens before `pub` at `idx` include an outer doc
/// comment or `#[doc …]` attribute (walking back over attributes and
/// other comments). Inner docs (`//!`, `#![doc …]`) document the
/// enclosing module, not the item.
fn has_preceding_doc_comment(tokens: &[Token], idx: usize) -> bool {
    let mut i = idx;
    loop {
        let Some(prev) = i.checked_sub(1) else {
            return false;
        };
        i = prev;
        let t = &tokens[i];
        if t.is_outer_doc_comment() {
            return true;
        }
        if t.is_comment() {
            continue;
        }
        if !t.is_punct(']') {
            return false;
        }
        let Some(start) = attribute_start(tokens, i) else {
            return false;
        };
        let inner = tokens.get(start + 1).is_some_and(|t| t.is_punct('!'));
        if !inner && tokens[start..i].iter().any(|t| t.is_ident("doc")) {
            return true;
        }
        i = start;
    }
}

/// Whether the file of module `name`, declared as `mod name;` in the
/// file at `decl_rel`, is indexed and opens with `//!` docs. Beside a
/// crate root or `mod.rs` the module is `name.rs` or `name/mod.rs`;
/// under any other file `f.rs` it is `f/name.rs` or `f/name/mod.rs`.
fn module_file_has_inner_docs(index: &ItemIndex, decl_rel: &str, name: &str) -> bool {
    let (dir, file_name) = decl_rel.rsplit_once('/').unwrap_or(("", decl_rel));
    let stem = file_name.trim_end_matches(".rs");
    let base = if matches!(stem, "lib" | "main" | "mod") {
        dir.to_string()
    } else {
        format!("{dir}/{stem}")
    };
    let candidates = [format!("{base}/{name}.rs"), format!("{base}/{name}/mod.rs")];
    index.files.iter().any(|f| {
        candidates.contains(&f.rel)
            && f.tokens
                .first()
                .is_some_and(|t| t.text.starts_with("//!") || t.text.starts_with("/*!"))
    })
}

/// Marks the token ranges covered by `#[test]` functions and
/// `#[cfg(test)]` items (typically the `mod tests` block).
pub(crate) fn compute_test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; tokens.len()];
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct('#') && i + 1 < tokens.len() && tokens[i + 1].is_punct('[') {
            let (attr_end, is_test) = scan_attribute(tokens, i + 1);
            if is_test {
                if let Some(region_end) = item_end_after(tokens, attr_end) {
                    for slot in in_test.iter_mut().take(region_end).skip(i) {
                        *slot = true;
                    }
                    i = attr_end;
                    continue;
                }
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    in_test
}

/// Scans an attribute starting at its `[`; returns (index past `]`,
/// whether the attribute marks test code). `#[cfg(not(test))]` does not.
pub(crate) fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    let mut i = open;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                i += 1;
                break;
            }
        } else if t.kind == TokenKind::Ident {
            idents.push(&t.text);
        }
        i += 1;
    }
    let mut is_test = false;
    for (pos, id) in idents.iter().enumerate() {
        if *id != "test" {
            continue;
        }
        if pos == 0 {
            is_test = true; // bare #[test]
            break;
        }
        // cfg(test), cfg(all(test, …)) — but not cfg(not(test)).
        let negated = idents[..pos].last() == Some(&"not");
        if idents.contains(&"cfg") && !negated {
            is_test = true;
            break;
        }
    }
    (i, is_test)
}

/// Given the index just past an item's attributes, returns the index just
/// past the item (its matched `{…}` block or terminating `;`).
fn item_end_after(tokens: &[Token], mut i: usize) -> Option<usize> {
    // Skip any further attributes.
    while i + 1 < tokens.len() && tokens[i].is_punct('#') && tokens[i + 1].is_punct('[') {
        let (end, _) = scan_attribute(tokens, i + 1);
        i = end;
    }
    // Find the body's `{` (or a `;` for braceless items).
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct(';') {
            return Some(i + 1);
        }
        if t.is_punct('{') {
            break;
        }
        i += 1;
    }
    let close = match_brace(tokens, i);
    (close < tokens.len()).then_some(close + 1)
}

/// Recursively collects the workspace's `.rs` files under `root/crates`,
/// skipping `target/` and `fixtures/` trees, sorted for determinism.
pub fn collect_rs_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let mut stack = vec![crates];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => continue,
            Err(err) => return Err(err),
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name != "target" && name != "fixtures" {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::findings::Severity;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        scan_sources(&ItemIndex::build(&[(rel.to_string(), src.to_string())]))
    }

    const CORE: &str = "crates/wdm-core/src/x.rs";

    #[test]
    fn scope_derivation() {
        let s = FileScope::from_rel_path("crates/wdm-core/src/csr.rs");
        assert_eq!(s.crate_name, "wdm-core");
        assert!(s.in_src);
        let t = FileScope::from_rel_path("crates/wdm-core/tests/conformance.rs");
        assert!(!t.in_src);
        assert_eq!(FileScope::from_rel_path("README.md").crate_name, "");
    }

    #[test]
    fn l1_flags_unwrap_expect_panic() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.expect(\"msg\") }\n\
                   fn h() { panic!(\"boom\"); }\n";
        let found = lint(CORE, src);
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.rule == Rule::PanicReach));
    }

    #[test]
    fn l1_ignores_unwrap_or_and_tests_and_strings() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\n\
                   fn g() { let _ = \"don't .unwrap() me\"; }\n\
                   #[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint(CORE, src).is_empty());
    }

    #[test]
    fn l1_warns_not_denies_in_cli() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let found = lint("crates/wdm-cli/src/lib.rs", src);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Warning);
        // And not at all outside the configured crates.
        assert!(lint("crates/wdm-bench/src/lib.rs", src).is_empty());
    }

    #[test]
    fn l1_suppression_comment() {
        let src = "fn f(x: Option<u8>) -> u8 {\n\
                   // wdm-lint: allow(panic_reach) — checked by caller\n\
                   x.unwrap()\n}\n";
        assert!(lint(CORE, src).is_empty());
        let attr_style = "fn f(x: Option<u8>) -> u8 {\n\
                   // wdm-lint: allow(wdm_lint::panic_reach)\n\
                   x.unwrap()\n}\n";
        assert!(lint(CORE, attr_style).is_empty());
    }

    #[test]
    fn l2_flags_allocations_only_in_hot_fns() {
        let src = "\
// wdm-lint: hot-path
fn hot(&mut self) {
    let v = Vec::new();
    let b = Box::new(1);
    let c = self.buf.clone();
    let t = self.buf.to_vec();
    let s = format!(\"x\");
    let l = vec![1];
    let k: Vec<u8> = it.collect();
}

fn cold(&mut self) {
    let v: Vec<u8> = Vec::new();
}
";
        let found = lint(CORE, src);
        let l2: Vec<&Finding> = found
            .iter()
            .filter(|f| f.rule == Rule::AllocReach)
            .collect();
        assert_eq!(l2.len(), 7, "{l2:?}");
        assert!(l2.iter().all(|f| f.message.contains("`hot`")));
    }

    #[test]
    fn l3_requires_safety_comment() {
        let bad = "unsafe fn f() {}\n";
        let found = lint("crates/wdm-bench/src/lib.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::UnsafeNeedsSafety);

        let good = "// SAFETY: no invariants; delegates to the allocator.\nunsafe fn f() {}\n";
        assert!(lint("crates/wdm-bench/src/lib.rs", good).is_empty());

        let with_attr = "// SAFETY: fine.\n#[inline]\npub unsafe fn f() {}\n";
        assert!(lint("crates/wdm-bench/src/lib.rs", with_attr).is_empty());

        let multi = "// SAFETY: part one,\n// continued here.\nunsafe impl Send for X {}\n";
        assert!(lint("crates/wdm-bench/src/lib.rs", multi).is_empty());
    }

    #[test]
    fn l4_requires_justification_outside_audited_module() {
        let bad = "fn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        let found = lint("crates/wdm-obs/src/metric.rs", bad);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].rule, Rule::OrderingJustification);

        let justified =
            "fn f(c: &AtomicU64) {\n    // ordering: independent counter, no cross-thread edges.\n    c.load(Ordering::Relaxed);\n}\n";
        assert!(lint("crates/wdm-obs/src/metric.rs", justified).is_empty());

        let audited =
            "// wdm-lint: audited-orderings\nfn f(c: &AtomicU64) { c.load(Ordering::Relaxed); }\n";
        assert!(lint("crates/wdm-obs/src/metric.rs", audited).is_empty());

        // cmp::Ordering variants are not atomic orderings.
        let cmp = "fn f() -> Ordering { Ordering::Less }\n";
        assert!(lint("crates/wdm-obs/src/metric.rs", cmp).is_empty());

        // wdm-core is in scope since EdgeMask went atomic: a bare
        // ordering in the mask hot path must be flagged there too.
        let core_found = lint(CORE, bad);
        assert_eq!(core_found.len(), 1);
        assert_eq!(core_found[0].rule, Rule::OrderingJustification);

        // Out-of-scope crate.
        assert!(lint("crates/wdm-graph/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn l5_requires_docs_on_public_items() {
        let bad = "pub fn undocumented() {}\npub struct AlsoBad;\n";
        let found = lint(CORE, bad);
        assert_eq!(found.len(), 2);
        assert!(found.iter().all(|f| f.rule == Rule::MissingDocs));
        assert!(found[0].message.contains("`undocumented`"));
        assert!(found[1].message.contains("`AlsoBad`"));

        let good = "/// Documented.\npub fn fine() {}\n\
                    /// A struct.\npub struct S {\n    /// A field.\n    pub x: u8,\n}\n\
                    pub(crate) fn internal() {}\n\
                    pub use other::Thing;\n";
        assert!(lint(CORE, good).is_empty());

        let attr_between = "/// Doc.\n#[derive(Debug)]\npub struct T;\n";
        assert!(lint(CORE, attr_between).is_empty());

        let undocumented_field = "/// S.\npub struct S {\n    pub x: u8,\n}\n";
        let found = lint(CORE, undocumented_field);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`x`"));
    }

    #[test]
    fn findings_carry_exact_spans() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    x.unwrap()\n}\n";
        let found = lint(CORE, src);
        assert_eq!(found.len(), 1);
        assert_eq!((found[0].line, found[0].col), (2, 7));
    }

    #[test]
    fn nested_fn_sink_is_reported_once() {
        let src = "fn outer() {\n    fn inner(x: Option<u8>) -> u8 { x.unwrap() }\n}\n";
        let found = lint(CORE, src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!((found[0].line, found[0].col), (2, 39));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint(CORE, src).len(), 1);
    }
}
