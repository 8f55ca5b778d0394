//! Engine 1 — token-level source lints over the workspace.
//!
//! The rules are repo-specific (see [`crate::findings::Rule`] L1–L5) and
//! run over the token stream produced by [`crate::lexer`], so they see
//! comments — which is the point: the repo's invariants live in
//! annotations (`// wdm-lint: hot-path`), audit trails (`// SAFETY:`),
//! and justification prose that rustc has no opinion about.
//!
//! # Suppression syntax
//!
//! `// wdm-lint: allow(rule[, rule…]) — reason` suppresses the named
//! rules on the comment's own line and the next line. Rule names are the
//! [`Rule::slug`] values; a `wdm_lint::` prefix is accepted for symmetry
//! with attribute syntax. A file containing
//! `// wdm-lint: audited-orderings` is an audited module: every
//! `Ordering::` use in it is considered justified (L4).

use crate::findings::{Finding, Rule, Severity};
use crate::lexer::{match_brace, next_code, prev_code, tokenize, Token, TokenKind};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

/// Crates whose library code must be panic-free (L1, deny).
/// `wdm-serve` joined when the control-plane daemon landed: a panic in
/// a connection worker would tear down a long-lived server over one bad
/// request, so every error there must be a typed reply instead.
/// `wdm-campaign` joined with the Monte-Carlo harness: a panic in one
/// worker would poison the campaign's result slots and lose the whole
/// sweep, so fallible paths must carry typed errors, not `.unwrap()`.
/// `wdm-lint` and `wdm-conformance` dogfood the bar they enforce.
const L1_DENY_CRATES: &[&str] = &[
    "wdm-core",
    "wdm-rwa",
    "heaps",
    "wdm-serve",
    "wdm-campaign",
    "wdm-lint",
    "wdm-conformance",
];
/// Crates where L1 reports but never fails the run.
const L1_WARN_CRATES: &[&str] = &["wdm-cli"];
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

/// Analyzes one file's source text; `rel` is the workspace-relative path
/// used for scoping and reporting.
pub fn analyze_file(rel: &str, content: &str) -> Vec<Finding> {
    let scope = FileScope::from_rel_path(rel);
    let tokens = tokenize(content);
    let ctx = FileContext::new(rel, &scope, &tokens);
    let mut findings = Vec::new();
    ctx.rule_l1(&mut findings);
    ctx.rule_l2(&mut findings);
    ctx.rule_l3(&mut findings);
    ctx.rule_l4(&mut findings);
    ctx.rule_l5(&mut findings);
    findings
}

/// Pre-computed per-file analysis state shared by all rules.
struct FileContext<'a> {
    rel: &'a str,
    scope: &'a FileScope,
    tokens: &'a [Token],
    /// For each token index, whether it lies inside `#[cfg(test)]` /
    /// `#[test]` code.
    in_test: Vec<bool>,
    /// `(line → rules)` suppressed by `wdm-lint: allow(…)` comments.
    suppressed: HashMap<usize, HashSet<Rule>>,
    /// Whether the file carries the `wdm-lint: audited-orderings` marker.
    audited_orderings: bool,
    /// `(start_line, end_line)` of every comment token.
    comment_spans: Vec<(usize, usize)>,
    /// Token ranges `[start, end)` of `// wdm-lint: hot-path` function
    /// bodies, with the function name.
    hot_regions: Vec<(usize, usize, String)>,
}

impl<'a> FileContext<'a> {
    fn new(rel: &'a str, scope: &'a FileScope, tokens: &'a [Token]) -> Self {
        let mut suppressed: HashMap<usize, HashSet<Rule>> = HashMap::new();
        let mut audited_orderings = false;
        let mut comment_spans = Vec::with_capacity(tokens.len());
        for t in tokens {
            let end_line = t.line + t.text.matches('\n').count();
            comment_spans.push(if t.is_comment() {
                (t.line, end_line)
            } else {
                (0, 0)
            });
            if !t.is_comment() {
                continue;
            }
            if t.text.contains("wdm-lint: audited-orderings") {
                audited_orderings = true;
            }
            if let Some(rules) = parse_allow(&t.text) {
                for line in [t.line, end_line, end_line + 1] {
                    suppressed.entry(line).or_default().extend(rules.iter());
                }
            }
        }
        let in_test = compute_test_regions(tokens);
        let hot_regions = compute_hot_regions(tokens);
        FileContext {
            rel,
            scope,
            tokens,
            in_test,
            suppressed,
            audited_orderings,
            comment_spans,
            hot_regions,
        }
    }

    fn is_suppressed(&self, rule: Rule, line: usize) -> bool {
        self.suppressed
            .get(&line)
            .is_some_and(|set| set.contains(&rule))
    }

    fn emit(&self, out: &mut Vec<Finding>, rule: Rule, severity: Severity, t: &Token, msg: String) {
        if self.is_suppressed(rule, t.line) {
            return;
        }
        out.push(Finding {
            rule,
            severity,
            file: self.rel.to_string(),
            line: t.line,
            col: t.col,
            message: msg,
        });
    }

    /// True when the code tokens starting at `i` (comments skipped) spell
    /// out `pattern`, matching idents by text and puncts by text.
    fn code_seq_matches(&self, mut i: usize, pattern: &[&str]) -> bool {
        for (step, want) in pattern.iter().enumerate() {
            if step > 0 {
                match next_code(self.tokens, i) {
                    Some(j) => i = j,
                    None => return false,
                }
            }
            if self.tokens[i].text != *want {
                return false;
            }
        }
        true
    }

    /// L1 — no `unwrap`/`expect`/`panic!` in non-test library code.
    fn rule_l1(&self, out: &mut Vec<Finding>) {
        let crate_name = self.scope.crate_name.as_str();
        let severity = if L1_DENY_CRATES.contains(&crate_name) {
            Severity::Deny
        } else if L1_WARN_CRATES.contains(&crate_name) {
            Severity::Warning
        } else {
            return;
        };
        if !self.scope.in_src {
            return;
        }
        for (i, t) in self.tokens.iter().enumerate() {
            if t.kind != TokenKind::Ident || self.in_test[i] {
                continue;
            }
            if (t.text == "unwrap" || t.text == "expect")
                && prev_code(self.tokens, i).is_some_and(|p| self.tokens[p].is_punct('.'))
                && next_code(self.tokens, i).is_some_and(|n| self.tokens[n].is_punct('('))
            {
                self.emit(
                    out,
                    Rule::NoUnwrap,
                    severity,
                    t,
                    format!(
                        "`.{}()` in non-test `{}` code; return a typed error \
                         (`wdm_core::error`) or assert the invariant explicitly",
                        t.text, crate_name
                    ),
                );
            }
            if t.text == "panic"
                && next_code(self.tokens, i).is_some_and(|n| self.tokens[n].is_punct('!'))
            {
                self.emit(
                    out,
                    Rule::NoUnwrap,
                    severity,
                    t,
                    format!(
                        "`panic!` in non-test `{crate_name}` code; return a typed error \
                         or use `assert!`/`unreachable!` with the invariant spelled out"
                    ),
                );
            }
        }
    }

    /// L2 — no allocating calls inside `// wdm-lint: hot-path` functions.
    ///
    /// The check is intraprocedural: it covers the annotated function's
    /// own body, not its callees.
    fn rule_l2(&self, out: &mut Vec<Finding>) {
        for &(start, end, ref fn_name) in &self.hot_regions {
            for i in start..end.min(self.tokens.len()) {
                let t = &self.tokens[i];
                if t.kind != TokenKind::Ident {
                    continue;
                }
                let prev_dot =
                    prev_code(self.tokens, i).is_some_and(|p| self.tokens[p].is_punct('.'));
                let next_paren =
                    next_code(self.tokens, i).is_some_and(|n| self.tokens[n].is_punct('('));
                let next_bang =
                    next_code(self.tokens, i).is_some_and(|n| self.tokens[n].is_punct('!'));
                let hit = match t.text.as_str() {
                    "Vec" | "Box" => self.code_seq_matches(i, &[&t.text, ":", ":", "new"]),
                    "to_vec" | "clone" => prev_dot && next_paren,
                    "collect" => prev_dot,
                    "format" | "vec" => next_bang,
                    _ => false,
                };
                if hit {
                    let shown = match t.text.as_str() {
                        "Vec" => "Vec::new".to_string(),
                        "Box" => "Box::new".to_string(),
                        "format" => "format!".to_string(),
                        "vec" => "vec!".to_string(),
                        other => format!(".{other}()"),
                    };
                    self.emit(
                        out,
                        Rule::HotPathAlloc,
                        Severity::Deny,
                        t,
                        format!("allocating call `{shown}` inside hot-path function `{fn_name}`"),
                    );
                }
            }
        }
    }

    /// L3 — `unsafe` must be immediately preceded by a `// SAFETY:`
    /// comment (possibly with attributes or visibility in between).
    fn rule_l3(&self, out: &mut Vec<Finding>) {
        for (i, t) in self.tokens.iter().enumerate() {
            if !t.is_ident("unsafe") {
                continue;
            }
            if !self.has_preceding_safety_comment(i) {
                self.emit(
                    out,
                    Rule::UnsafeNeedsSafety,
                    Severity::Deny,
                    t,
                    "`unsafe` without an immediately preceding `// SAFETY:` comment".to_string(),
                );
            }
        }
    }

    fn has_preceding_safety_comment(&self, unsafe_idx: usize) -> bool {
        let mut i = unsafe_idx;
        loop {
            let Some(prev) = i.checked_sub(1) else {
                return false;
            };
            i = prev;
            let t = &self.tokens[i];
            match t.kind {
                TokenKind::LineComment | TokenKind::BlockComment => {
                    // A contiguous run of comments counts as one audit
                    // block; any line of it may carry the SAFETY tag.
                    let mut j = i;
                    loop {
                        if self.tokens[j].text.contains("SAFETY:") {
                            return true;
                        }
                        match j.checked_sub(1) {
                            Some(k) if self.tokens[k].is_comment() => j = k,
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
                    let mut depth = 1usize;
                    while depth > 0 {
                        let Some(prev) = i.checked_sub(1) else {
                            return false;
                        };
                        i = prev;
                        match self.tokens[i].text.as_str() {
                            "]" => depth += 1,
                            "[" => depth -= 1,
                            _ => {}
                        }
                    }
                    if i > 0 && self.tokens[i - 1].is_punct('!') {
                        i -= 1;
                    }
                    if i > 0 && self.tokens[i - 1].is_punct('#') {
                        i -= 1;
                        continue;
                    }
                    return false;
                }
                _ => return false,
            }
        }
    }

    /// L4 — atomic `Ordering::` uses need a justification comment on the
    /// same or previous line, unless the file is an audited module.
    fn rule_l4(&self, out: &mut Vec<Finding>) {
        if !L4_CRATES.contains(&self.scope.crate_name.as_str()) || !self.scope.in_src {
            return;
        }
        if self.audited_orderings {
            return;
        }
        for (i, t) in self.tokens.iter().enumerate() {
            if !t.is_ident("Ordering") || self.in_test[i] {
                continue;
            }
            let Some(c1) = next_code(self.tokens, i) else {
                continue;
            };
            let Some(c2) = next_code(self.tokens, c1) else {
                continue;
            };
            let Some(v) = next_code(self.tokens, c2) else {
                continue;
            };
            if !(self.tokens[c1].is_punct(':') && self.tokens[c2].is_punct(':')) {
                continue;
            }
            let variant = &self.tokens[v];
            if variant.kind != TokenKind::Ident
                || !ATOMIC_ORDERINGS.contains(&variant.text.as_str())
            {
                continue;
            }
            if !self.has_adjacent_comment(t.line) {
                self.emit(
                    out,
                    Rule::OrderingJustification,
                    Severity::Deny,
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

    /// Whether some comment touches `line` or the line above it.
    fn has_adjacent_comment(&self, line: usize) -> bool {
        self.comment_spans
            .iter()
            .any(|&(start, end)| start != 0 && start <= line && end + 1 >= line)
    }

    /// L5 — public items need doc comments.
    fn rule_l5(&self, out: &mut Vec<Finding>) {
        if !L5_CRATES.contains(&self.scope.crate_name.as_str()) || !self.scope.in_src {
            return;
        }
        for (i, t) in self.tokens.iter().enumerate() {
            if !t.is_ident("pub") || self.in_test[i] {
                continue;
            }
            let Some(mut j) = next_code(self.tokens, i) else {
                continue;
            };
            // `pub(crate)` / `pub(super)` / `pub(in …)` are not public API.
            if self.tokens[j].is_punct('(') {
                continue;
            }
            // Classify the item; `pub use` re-exports inherit their
            // target's docs, and a bare type in a tuple struct
            // (`pub u32`) documents at the struct level.
            let follower = &self.tokens[j];
            let item_keywords = [
                "fn", "struct", "enum", "trait", "mod", "static", "type", "union", "const",
                "unsafe", "async", "extern", "macro",
            ];
            let name;
            if follower.is_ident("use") {
                continue;
            } else if follower.kind == TokenKind::Ident
                && item_keywords.contains(&follower.text.as_str())
            {
                // Scan past modifiers to the item name.
                while let Some(n) = next_code(self.tokens, j) {
                    j = n;
                    let tk = &self.tokens[j];
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
                name = self.tokens[j].text.clone();
            } else if follower.kind == TokenKind::Ident
                && next_code(self.tokens, j).is_some_and(|n| self.tokens[n].is_punct(':'))
            {
                // `pub name: Type` — a named struct field.
                name = follower.text.clone();
            } else {
                continue;
            }
            if !self.has_preceding_doc_comment(i) {
                self.emit(
                    out,
                    Rule::MissingDocs,
                    Severity::Deny,
                    t,
                    format!("public item `{name}` lacks a doc comment"),
                );
            }
        }
    }

    /// Whether the tokens before `pub` at `idx` include a doc comment
    /// (walking back over attributes and plain comments).
    fn has_preceding_doc_comment(&self, idx: usize) -> bool {
        let mut i = idx;
        loop {
            let Some(prev) = i.checked_sub(1) else {
                return false;
            };
            i = prev;
            let t = &self.tokens[i];
            if t.is_doc_comment() {
                return true;
            }
            if t.is_comment() {
                continue;
            }
            if t.is_punct(']') {
                let mut depth = 1usize;
                let mut saw_doc_attr = false;
                while depth > 0 {
                    let Some(prev) = i.checked_sub(1) else {
                        return false;
                    };
                    i = prev;
                    match self.tokens[i].text.as_str() {
                        "]" => depth += 1,
                        "[" => depth -= 1,
                        "doc" => saw_doc_attr = true,
                        _ => {}
                    }
                }
                if saw_doc_attr {
                    return true;
                }
                if i > 0 && (self.tokens[i - 1].is_punct('#') || self.tokens[i - 1].is_punct('!')) {
                    i -= 1;
                    if i > 0 && self.tokens[i - 1].is_punct('#') {
                        i -= 1;
                    }
                    continue;
                }
                return false;
            }
            return false;
        }
    }
}

/// Parses `wdm-lint: allow(a, wdm_lint::b)` out of a comment, returning
/// the named rules (unknown names are ignored).
fn parse_allow(comment: &str) -> Option<Vec<Rule>> {
    let at = comment.find("wdm-lint: allow(")?;
    let inner = &comment[at + "wdm-lint: allow(".len()..];
    let close = inner.find(')')?;
    let rules = inner[..close]
        .split(',')
        .filter_map(|raw| {
            let name = raw.trim().trim_start_matches("wdm_lint::");
            Rule::from_slug(name)
        })
        .collect();
    Some(rules)
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

/// Finds `// wdm-lint: hot-path` annotations and the `[start, end)` token
/// range of the following function's body.
fn compute_hot_regions(tokens: &[Token]) -> Vec<(usize, usize, String)> {
    let mut regions = Vec::new();
    for (i, t) in tokens.iter().enumerate() {
        // Only a plain `// wdm-lint: hot-path` comment annotates — doc
        // comments that merely *mention* the marker don't.
        let is_marker = t.kind == TokenKind::LineComment
            && !t.is_doc_comment()
            && t.text
                .trim_start_matches('/')
                .trim_start()
                .starts_with("wdm-lint: hot-path");
        if !is_marker {
            continue;
        }
        // Next `fn` token, then its name and body braces.
        let Some(fn_idx) = tokens
            .iter()
            .enumerate()
            .skip(i + 1)
            .find(|(_, t)| t.is_ident("fn"))
            .map(|(j, _)| j)
        else {
            continue;
        };
        let name = tokens
            .get(fn_idx + 1)
            .map(|t| t.text.clone())
            .unwrap_or_default();
        let mut j = fn_idx;
        while j < tokens.len() && !tokens[j].is_punct('{') {
            j += 1;
        }
        regions.push((j, match_brace(tokens, j) + 1, name));
    }
    regions
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

/// Runs the source lints over every workspace `.rs` file under `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for path in collect_rs_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let content = std::fs::read_to_string(&path)?;
        findings.extend(analyze_file(&rel, &content));
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel: &str, src: &str) -> Vec<Finding> {
        analyze_file(rel, src)
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
        assert!(found.iter().all(|f| f.rule == Rule::NoUnwrap));
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
                   // wdm-lint: allow(no_unwrap) — checked by caller\n\
                   x.unwrap()\n}\n";
        assert!(lint(CORE, src).is_empty());
        let attr_style = "fn f(x: Option<u8>) -> u8 {\n\
                   // wdm-lint: allow(wdm_lint::no_unwrap)\n\
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
            .filter(|f| f.rule == Rule::HotPathAlloc)
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
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(lint(CORE, src).len(), 1);
    }
}
