//! The call-graph rules **L6–L9**.
//!
//! * **L6** `panic_reach` — library code in deny-tier crates must not
//!   contain or *reach* a panicking construct through any call chain.
//!   Direct sinks (in a fn body or an item initializer) are reported
//!   where they stand; calls out of the tier into code that can panic
//!   are reported at the call, since the PR-7 wire-index panic lived one
//!   call deep in a non-deny crate, exactly where a per-function lint
//!   cannot see. Edge findings carry the witness chain down to the sink.
//! * **L7** `alloc_reach` — `// wdm-lint: hot-path` functions must not
//!   allocate, directly or through any call chain.
//! * **L8** `lossy_cast` — narrowing `as` casts are flagged unless the
//!   value is provably in range (mask, fitting literal, widening) or
//!   the site carries a reasoned `// wdm-lint: cast-checked: <why>`
//!   annotation; wire/index boundaries must use `try_from` with a
//!   typed error instead.
//! * **L9** `protocol_order` — seqlock/shard-claim protocol conformance
//!   in files marked `// wdm-lint: protocol: seqlock`: shard claims
//!   must be provably ascending (a loop over a range or over a vec with
//!   sorted provenance, a sorted vec indexed by a monotone counter, or
//!   the counter itself; never a descending loop), an even→odd→even publish
//!   (`store(v + 2)`) requires a prior claim CAS (`v → v + 1`), pure
//!   seqlock readers must revalidate the sequence after the acquire
//!   fence, and oddness-tested sequence reads must flow into the claim
//!   CAS or a revalidation.

use crate::dataflow::{
    alloc_sinks, call_panic_sinks, panic_sinks, reach_sinks, witness_chain, CallGraph,
};
use crate::findings::{sort_findings, Finding, Rule, Severity};
use crate::graph::{CallKind, FileIndex, FnDef, ItemIndex};
use crate::lexer::{next_code, prev_code, Token, TokenKind};

/// Crates whose library code must be transitively panic-free (deny).
/// `wdm-serve` joined when the control-plane daemon landed: a panic in
/// a connection worker would tear down a long-lived server over one bad
/// request, so every error there must be a typed reply instead.
/// `wdm-campaign` joined with the Monte-Carlo harness: a panic in one
/// worker would poison the campaign's result slots and lose the whole
/// sweep, so fallible paths must carry typed errors, not `.unwrap()`.
/// `wdm-lint` and `wdm-conformance` dogfood the bar they enforce.
pub const L6_DENY_CRATES: [&str; 7] = [
    "wdm-core",
    "wdm-rwa",
    "heaps",
    "wdm-serve",
    "wdm-campaign",
    "wdm-lint",
    "wdm-conformance",
];
/// Crates where L6 findings are warnings (CLI surface may abort).
pub const L6_WARN_CRATES: [&str; 1] = ["wdm-cli"];
/// Files that implement the seqlock protocol and must carry the
/// `// wdm-lint: protocol: seqlock` marker.
pub const L9_PROTOCOL_FILES: [&str; 2] = [
    "crates/wdm-rwa/src/concurrent.rs",
    "crates/wdm-obs/src/trace/mod.rs",
];

/// Runs L6–L9 over an indexed workspace.
pub fn scan_graph_rules(index: &ItemIndex) -> Vec<Finding> {
    let graph = CallGraph::build(index);
    let mut out = Vec::new();
    rule_l6(index, &graph, &mut out);
    rule_l7(index, &graph, &mut out);
    rule_l8(index, &mut out);
    rule_l9(index, &mut out);
    sort_findings(&mut out);
    out
}

/// L6's severity for non-test `src/` code of `crate_name`, if in scope.
fn l6_severity(crate_name: &str, in_src: bool) -> Option<Severity> {
    if !in_src {
        None
    } else if L6_DENY_CRATES.contains(&crate_name) {
        Some(Severity::Deny)
    } else if L6_WARN_CRATES.contains(&crate_name) {
        Some(Severity::Warning)
    } else {
        None
    }
}

fn l6_scope(f: &FnDef) -> Option<Severity> {
    l6_severity(&f.crate_name, f.in_src).filter(|_| !f.is_test)
}

/// L6 — direct and transitive panic reachability for deny-tier crates.
fn rule_l6(index: &ItemIndex, graph: &CallGraph, out: &mut Vec<Finding>) {
    let direct: Vec<_> = index.fns.iter().map(|f| panic_sinks(index, f)).collect();
    let reach = reach_sinks(index, graph, &direct, "panic_reach");
    for file in &index.files {
        let Some(severity) = l6_severity(&file.scope.crate_name, file.scope.in_src) else {
            continue;
        };
        for sink in call_panic_sinks(file, &file.item_calls) {
            out.push(Finding {
                rule: Rule::PanicReach,
                severity,
                file: file.rel.clone(),
                line: sink.line,
                col: sink.col,
                message: format!(
                    "{} in an item initializer; compute the value without panicking",
                    sink.what
                ),
            });
        }
    }
    for f in &index.fns {
        let Some(severity) = l6_scope(f) else {
            continue;
        };
        let file = index.file_of(f);
        for sink in &direct[f.id] {
            out.push(Finding {
                rule: Rule::PanicReach,
                severity,
                file: file.rel.clone(),
                line: sink.line,
                col: sink.col,
                message: format!(
                    "{} in `{}`; state the invariant with an `assert!`-family guard or return a typed error",
                    sink.what,
                    f.qualified_name()
                ),
            });
        }
        // Frontier edges: calls out of the deny tier into code that
        // reaches a panic. Edges between in-scope fns are not reported
        // here — the callee carries its own finding at the true frontier.
        for &(ci, callee_id) in &graph.edges[f.id] {
            let callee = &index.fns[callee_id];
            if reach[callee_id].is_none() || l6_scope(callee).is_some() {
                continue;
            }
            let call = &f.calls[ci];
            if file.is_allowed("panic_reach", call.line) {
                continue;
            }
            let chain = witness_chain(index, &reach, callee_id);
            out.push(Finding {
                rule: Rule::PanicReach,
                severity,
                file: file.rel.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "`{}` can reach a panic: {}; make the callee infallible or justify with `// wdm-lint: allow(panic_reach) — <why>`",
                    f.qualified_name(),
                    chain
                ),
            });
        }
    }
}

/// L7 — transitive allocation reachability from hot-path functions.
fn rule_l7(index: &ItemIndex, graph: &CallGraph, out: &mut Vec<Finding>) {
    let direct: Vec<_> = index.fns.iter().map(|f| alloc_sinks(index, f)).collect();
    let reach = reach_sinks(index, graph, &direct, "alloc_reach");
    for f in &index.fns {
        if !f.is_hot || f.is_test {
            continue;
        }
        let file = index.file_of(f);
        for sink in &direct[f.id] {
            out.push(Finding {
                rule: Rule::AllocReach,
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: sink.line,
                col: sink.col,
                message: format!(
                    "allocating call {} inside hot-path function `{}`",
                    sink.what,
                    f.qualified_name()
                ),
            });
        }
        // Edges into allocating callees; hot callees report their own
        // edges, so each frontier is named exactly once.
        for &(ci, callee_id) in &graph.edges[f.id] {
            let callee = &index.fns[callee_id];
            if reach[callee_id].is_none() || callee.is_hot {
                continue;
            }
            let call = &f.calls[ci];
            if file.is_allowed("alloc_reach", call.line) {
                continue;
            }
            let chain = witness_chain(index, &reach, callee_id);
            out.push(Finding {
                rule: Rule::AllocReach,
                severity: Severity::Deny,
                file: file.rel.clone(),
                line: call.line,
                col: call.col,
                message: format!(
                    "hot-path `{}` can reach an allocation: {}; preallocate in the caller or mark the callee `// wdm-lint: hot-path`",
                    f.qualified_name(),
                    chain
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// L8 — lossy `as` casts.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct IntType {
    bits: u32,
    signed: bool,
    float: bool,
}

fn numeric_type(name: &str) -> Option<IntType> {
    let (bits, signed, float) = match name {
        "u8" => (8, false, false),
        "u16" => (16, false, false),
        "u32" => (32, false, false),
        "u64" | "usize" => (64, false, false),
        "u128" => (128, false, false),
        "i8" => (8, true, false),
        "i16" => (16, true, false),
        "i32" => (32, true, false),
        "i64" | "isize" => (64, true, false),
        "i128" => (128, true, false),
        "f32" => (32, true, true),
        "f64" => (64, true, true),
        _ => return None,
    };
    Some(IntType {
        bits,
        signed,
        float,
    })
}

/// Whether every value of `src` survives `as dst` unchanged.
fn value_preserving(src: IntType, dst: IntType) -> bool {
    if dst.float {
        // Int → float: exact up to the mantissa; not in scope for a
        // wire/index lint.
        return true;
    }
    if src.float {
        return false;
    }
    match (src.signed, dst.signed) {
        (false, false) | (true, true) => src.bits <= dst.bits,
        (false, true) => src.bits < dst.bits,
        (true, false) => false,
    }
}

/// Result types of well-known std calls, keyed by method name.
fn std_return_type(name: &str) -> Option<&'static str> {
    Some(match name {
        "len" | "capacity" => "usize",
        "leading_zeros" | "trailing_zeros" | "count_ones" | "count_zeros" => "u32",
        "trailing_ones" | "leading_ones" => "u32",
        "ceil" | "floor" | "round" | "sqrt" | "powi" | "powf" | "ln" | "exp" => "f64",
        _ => return None,
    })
}

/// Parses an integer literal's value (handles `0x`/`0o`/`0b`, `_`
/// separators, and type suffixes). `None` for floats/strings.
fn literal_value(text: &str) -> Option<u128> {
    let joined = text.replace('_', "");
    if joined.contains('.') || joined.starts_with('"') || joined.starts_with('\'') {
        return None;
    }
    let t = strip_suffix(&joined);
    if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        return u128::from_str_radix(hex, 16).ok();
    }
    if let Some(oct) = t.strip_prefix("0o") {
        return u128::from_str_radix(oct, 8).ok();
    }
    if let Some(bin) = t.strip_prefix("0b") {
        return u128::from_str_radix(bin, 2).ok();
    }
    t.parse::<u128>().ok()
}

/// Strips a trailing type suffix (`u32`, `usize`, `i8` …) from an
/// integer literal.
fn strip_suffix(t: &str) -> &str {
    for s in [
        "usize", "isize", "u128", "i128", "u64", "i64", "u32", "i32", "u16", "i16", "u8", "i8",
    ] {
        if let Some(stripped) = t.strip_suffix(s) {
            if !stripped.is_empty() {
                return stripped;
            }
        }
    }
    t
}

fn type_max(t: IntType) -> u128 {
    if t.bits >= 128 {
        u128::MAX
    } else if t.signed {
        (1u128 << (t.bits - 1)) - 1
    } else {
        (1u128 << t.bits) - 1
    }
}

/// L8 — flag narrowing `as` casts outside checked sites.
fn rule_l8(index: &ItemIndex, out: &mut Vec<Finding>) {
    for f in &index.fns {
        if f.is_test || !f.in_src || f.body.1 == 0 {
            continue;
        }
        let file = index.file_of(f);
        let toks = &file.tokens;
        let (start, end) = f.body;
        let end = end.min(toks.len());
        for i in start..end {
            if !toks[i].is_ident("as") {
                continue;
            }
            let Some(tgt_idx) = next_code(toks, i).filter(|&j| j < end) else {
                continue;
            };
            let Some(target) = numeric_type(&toks[tgt_idx].text) else {
                continue;
            };
            if target.float {
                continue;
            }
            let line = toks[i].line;
            // Reasoned cast-checked annotation exempts; a reason-less
            // one is itself a finding.
            match file.cast_checked.get(&line) {
                Some(true) => continue,
                Some(false) => {
                    if !file.is_allowed("lossy_cast", line) {
                        out.push(Finding {
                            rule: Rule::LossyCast,
                            severity: Severity::Deny,
                            file: file.rel.clone(),
                            line,
                            col: toks[i].col,
                            message: format!(
                                "`wdm-lint: cast-checked` on `as {}` in `{}` lacks a reason; write `// wdm-lint: cast-checked: <why the value fits>`",
                                toks[tgt_idx].text,
                                f.qualified_name()
                            ),
                        });
                    }
                    continue;
                }
                None => {}
            }
            let source = cast_source(index, f, toks, i, start);
            let verdict = match source {
                CastSource::Masked(mask) if mask <= type_max(target) => None,
                CastSource::Masked(_) => {
                    Some("masked, but the mask exceeds the target range".to_string())
                }
                CastSource::Literal(v) if v <= type_max(target) => None,
                CastSource::Literal(v) => Some(format!("literal {v} does not fit")),
                CastSource::Enum => None, // repr read, not arithmetic narrowing
                CastSource::Known(src) if value_preserving(src, target) => None,
                CastSource::Known(src) => Some(format!("{} source does not fit", type_name(src))),
                // Unknown source: flag for small targets; trust 64-bit
                // targets (widening in practice; the engine documents
                // 64-bit indices).
                CastSource::Unknown if target.bits >= 64 => None,
                CastSource::Unknown => Some("source type is not provably in range".to_string()),
            };
            if let Some(why) = verdict {
                if file.is_allowed("lossy_cast", line) {
                    continue;
                }
                out.push(Finding {
                    rule: Rule::LossyCast,
                    severity: Severity::Deny,
                    file: file.rel.clone(),
                    line,
                    col: toks[i].col,
                    message: format!(
                        "lossy `as {}` cast in `{}` ({why}); use `{}::try_from` with a typed error or annotate `// wdm-lint: cast-checked: <why>`",
                        toks[tgt_idx].text,
                        f.qualified_name(),
                        toks[tgt_idx].text
                    ),
                });
            }
        }
    }
}

fn type_name(t: IntType) -> &'static str {
    match (t.bits, t.signed, t.float) {
        (32, true, true) => "f32",
        (64, true, true) => "f64",
        (8, false, _) => "u8",
        (16, false, _) => "u16",
        (32, false, _) => "u32",
        (64, false, _) => "u64/usize",
        (128, false, _) => "u128",
        (8, true, _) => "i8",
        (16, true, _) => "i16",
        (32, true, _) => "i32",
        (64, true, _) => "i64/isize",
        _ => "i128",
    }
}

enum CastSource {
    Known(IntType),
    Literal(u128),
    Masked(u128),
    Enum,
    Unknown,
}

/// Infers the source of the cast whose `as` sits at `as_idx`.
fn cast_source(
    index: &ItemIndex,
    f: &FnDef,
    toks: &[Token],
    as_idx: usize,
    body_start: usize,
) -> CastSource {
    // Mask exemption: `… & LIT as T` / `(… & LIT) as T`.
    let mut k = as_idx;
    let mut steps = 0;
    while k > body_start && steps < 8 {
        let Some(p) = prev_code(toks, k) else { break };
        if toks[p].is_punct('&') {
            if let Some(n) = next_code(toks, p).filter(|&j| j < as_idx) {
                if toks[n].kind == TokenKind::Literal {
                    if let Some(v) = literal_value(&toks[n].text) {
                        return CastSource::Masked(v);
                    }
                }
            }
        }
        k = p;
        steps += 1;
    }
    let Some(p) = prev_code(toks, as_idx) else {
        return CastSource::Unknown;
    };
    let pt = &toks[p];
    if pt.kind == TokenKind::Literal {
        if let Some(v) = literal_value(&pt.text) {
            return CastSource::Literal(v);
        }
        return CastSource::Unknown;
    }
    if pt.kind == TokenKind::Ident {
        if pt.text == "self" {
            // `self as u8` — an enum reading its repr.
            if f.impl_type
                .as_ref()
                .and_then(|t| index.types.get(t))
                .is_some_and(|t| t.is_enum)
            {
                return CastSource::Enum;
            }
            return CastSource::Unknown;
        }
        // `self.field as T`?
        let field_of_self = prev_code(toks, p)
            .filter(|&d| toks[d].is_punct('.'))
            .and_then(|d| prev_code(toks, d))
            .is_some_and(|s| toks[s].is_ident("self"));
        let ty = if field_of_self {
            f.impl_type
                .as_ref()
                .and_then(|t| index.types.get(t))
                .and_then(|t| t.fields.get(&pt.text))
                .cloned()
        } else if prev_code(toks, p).is_some_and(|d| toks[d].is_punct('.')) {
            None // deeper chain — unknown
        } else {
            index.local_type(f, &pt.text)
        };
        return match ty {
            Some(t) if index.types.get(&t).is_some_and(|d| d.is_enum) => CastSource::Enum,
            Some(t) if t == "char" => CastSource::Known(IntType {
                bits: 21,
                signed: false,
                float: false,
            }),
            Some(t) => numeric_type(&t).map_or(CastSource::Unknown, CastSource::Known),
            None => CastSource::Unknown,
        };
    }
    if pt.is_punct(')') {
        // Find the matching `(`; the token before it names the call (or
        // the parens just group an expression).
        let mut depth = 1usize;
        let mut q = p;
        while q > body_start && depth > 0 {
            q -= 1;
            if toks[q].is_punct(')') {
                depth += 1;
            } else if toks[q].is_punct('(') {
                depth -= 1;
            }
        }
        if let Some(name_idx) = prev_code(toks, q) {
            if toks[name_idx].kind == TokenKind::Ident {
                let name = &toks[name_idx].text;
                if let Some(std_ret) = std_return_type(name) {
                    return numeric_type(std_ret).map_or(CastSource::Unknown, CastSource::Known);
                }
                // A workspace fn with an unambiguous numeric return.
                let named = index.fns_named(name);
                if named.len() == 1 {
                    if let Some(t) = numeric_type(&index.fns[named[0]].ret) {
                        return CastSource::Known(t);
                    }
                }
            }
        }
        return CastSource::Unknown;
    }
    CastSource::Unknown
}

// ---------------------------------------------------------------------------
// L9 — seqlock / shard-claim protocol conformance.

/// L9 — protocol conformance in `// wdm-lint: protocol: seqlock` files.
fn rule_l9(index: &ItemIndex, out: &mut Vec<Finding>) {
    // The two files that implement the protocol must be marked; the rule
    // is scoped by marker so fixtures and future protocol files opt in.
    for known in L9_PROTOCOL_FILES {
        if let Some(file) = index.files.iter().find(|fi| fi.rel == known) {
            if !file.protocol_seqlock {
                out.push(Finding {
                    rule: Rule::ProtocolOrder,
                    severity: Severity::Deny,
                    file: file.rel.clone(),
                    line: 1,
                    col: 1,
                    message: format!(
                        "`{known}` implements the seqlock protocol but lacks the `// wdm-lint: protocol: seqlock` marker"
                    ),
                });
            }
        }
    }
    for f in &index.fns {
        if f.is_test || f.body.1 == 0 {
            continue;
        }
        let file = index.file_of(f);
        if !file.protocol_seqlock {
            continue;
        }
        check_claim_order(index, f, file, out);
        check_publish_has_claim(f, file, out);
        check_reader_revalidates(f, file, out);
        check_odd_test_flows(f, file, out);
    }
}

fn emit_l9(out: &mut Vec<Finding>, file: &FileIndex, line: usize, col: usize, message: String) {
    if file.is_allowed("protocol_order", line) {
        return;
    }
    out.push(Finding {
        rule: Rule::ProtocolOrder,
        severity: Severity::Deny,
        file: file.rel.clone(),
        line,
        col,
        message,
    });
}

/// The index expression of the array element a CAS is performed on:
/// `… shards[sh].compare_exchange(…)` → the tokens inside `[ … ]`.
fn cas_index_tokens(toks: &[Token], cas_idx: usize) -> Option<&[Token]> {
    // cas_idx is the `compare_exchange` ident; before it `.`, before
    // that `]` if the receiver is an indexed element.
    let dot = prev_code(toks, cas_idx)?;
    if !toks[dot].is_punct('.') {
        return None;
    }
    let close = prev_code(toks, dot)?;
    if !toks[close].is_punct(']') {
        return None;
    }
    let mut depth = 1usize;
    let mut q = close;
    while q > 0 && depth > 0 {
        q -= 1;
        if toks[q].is_punct(']') {
            depth += 1;
        } else if toks[q].is_punct('[') {
            depth -= 1;
        }
    }
    toks.get(q + 1..close)
}

/// Check A — shard claims ascend.
fn check_claim_order(index: &ItemIndex, f: &FnDef, file: &FileIndex, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let cas_sites: Vec<_> = f
        .calls
        .iter()
        .filter(|c| c.name == "compare_exchange" && matches!(c.kind, CallKind::Method(_)))
        .collect();
    let mut last_literal: Option<(u128, usize)> = None;
    for cas in &cas_sites {
        // Descending claim loop: a CAS inside `for … in ….rev() { … }`.
        if let Some((hdr_line, hdr_col)) = enclosing_rev_loop(toks, f.body.0, cas.token_idx) {
            emit_l9(
                out,
                file,
                hdr_line,
                hdr_col,
                format!(
                    "claim loop in `{}` iterates in reverse; shard claims must ascend to stay deadlock-free",
                    f.qualified_name()
                ),
            );
            continue;
        }
        let Some(idx_toks) = cas_index_tokens(toks, cas.token_idx) else {
            continue; // not an indexed claim (e.g. a single global seq)
        };
        let code: Vec<&Token> = idx_toks.iter().filter(|t| !t.is_comment()).collect();
        match code.as_slice() {
            [t] if t.kind == TokenKind::Literal => {
                let v = literal_value(&t.text).unwrap_or(0);
                if let Some((prev, prev_line)) = last_literal {
                    if v <= prev {
                        emit_l9(
                            out,
                            file,
                            cas.line,
                            cas.col,
                            format!(
                                "shard claim on index {v} after index {prev} (line {prev_line}) in `{}`; claims must strictly ascend",
                                f.qualified_name()
                            ),
                        );
                    }
                }
                last_literal = Some((v, cas.line));
            }
            [t] if t.kind == TokenKind::Ident => {
                check_ident_claim_provenance(index, f, file, toks, &t.text, cas, out);
            }
            _ => {
                // Compound index (`self.touched[self.claimed]` inlined,
                // arithmetic …): not provably ascending unless it is the
                // sorted-vec-by-counter shape handled via the `let`.
                emit_l9(
                    out,
                    file,
                    cas.line,
                    cas.col,
                    format!(
                        "claim index in `{}` is a compound expression; bind it with `let sh = …` from a sorted source so ascension is checkable",
                        f.qualified_name()
                    ),
                );
            }
        }
    }
}

/// Provenance of an ident claim index `sh`: a monotone counter
/// (`let sh = self.claimed;` with `claimed += 1`), a sorted vec indexed
/// by such a counter (`let sh = self.touched[self.claimed];` where
/// `touched` is assigned from a sorting callee), or the variable of a
/// loop over a range or over such a sorted vec.
fn check_ident_claim_provenance(
    index: &ItemIndex,
    f: &FnDef,
    file: &FileIndex,
    toks: &[Token],
    name: &str,
    cas: &crate::graph::CallSite,
    out: &mut Vec<Finding>,
) {
    let (start, end) = f.body;
    let end = end.min(toks.len());
    // A loop variable ascends when its loop walks a range, or a vec
    // with sorted provenance (elements of a sorted vec, or its indices).
    if let Some((for_idx, walk)) = enclosing_loop_walk(toks, start, cas.token_idx, name) {
        let why = match walk {
            LoopWalk::Range => return,
            LoopWalk::Vec(vec) if vec_has_sorted_provenance(index, file, &vec) => return,
            LoopWalk::Vec(vec) => format!(
                "walks `{vec}`, which has no sorted provenance (no assignment from a sorting fn)"
            ),
            LoopWalk::Other => "walks neither a range nor a vec".to_string(),
        };
        emit_l9(
            out,
            file,
            toks[for_idx].line,
            toks[for_idx].col,
            format!(
                "claim loop in `{}` {why}; shard claims must be provably ascending",
                f.qualified_name()
            ),
        );
        return;
    }
    // `let name = …;` before the CAS.
    let mut rhs: Option<&[Token]> = None;
    for i in start..cas.token_idx.saturating_sub(2) {
        if let Some([kw, id, eq]) = toks.get(i..i + 3) {
            if kw.is_ident("let")
                && id.kind == TokenKind::Ident
                && id.text == *name
                && eq.is_punct('=')
            {
                let semi = (i + 3..end).find(|&j| toks[j].is_punct(';')).unwrap_or(end);
                rhs = toks.get(i + 3..semi);
            }
        }
    }
    let Some(rhs) = rhs else {
        emit_l9(
            out,
            file,
            cas.line,
            cas.col,
            format!(
                "claim index `{name}` in `{}` has no visible definition; claims must be provably ascending",
                f.qualified_name()
            ),
        );
        return;
    };
    let code: Vec<&Token> = rhs.iter().filter(|t| !t.is_comment()).collect();
    // `self . counter`
    if let [s, d, c] = code.as_slice() {
        if s.is_ident("self") && d.is_punct('.') && c.kind == TokenKind::Ident {
            if counter_increments(toks, start, end, &c.text) {
                return;
            }
            emit_l9(
                out,
                file,
                cas.line,
                cas.col,
                format!(
                    "claim index `{name} = self.{}` in `{}` is never incremented; claims must walk shard ids upward",
                    c.text,
                    f.qualified_name()
                ),
            );
            return;
        }
    }
    // `self . vec [ … ]` — sorted provenance of `vec`.
    if code.len() >= 5
        && code[0].is_ident("self")
        && code[1].is_punct('.')
        && code[2].kind == TokenKind::Ident
        && code[3].is_punct('[')
    {
        let vec_name = &code[2].text;
        if vec_has_sorted_provenance(index, file, vec_name) {
            return;
        }
        emit_l9(
            out,
            file,
            cas.line,
            cas.col,
            format!(
                "claim index `{name}` comes from `self.{vec_name}` in `{}`, which has no sorted provenance (no assignment from a sorting fn)",
                f.qualified_name()
            ),
        );
        return;
    }
    emit_l9(
        out,
        file,
        cas.line,
        cas.col,
        format!(
            "claim index `{name}` in `{}` is not provably ascending (expected a monotone counter, a sorted vec walk, or an ascending loop)",
            f.qualified_name()
        ),
    );
}

/// Whether `counter += 1` (tokens `counter + = 1`) occurs in the body.
fn counter_increments(toks: &[Token], start: usize, end: usize, counter: &str) -> bool {
    toks.get(start..end).is_some_and(|body| {
        body.windows(4).any(|w| {
            matches!(w, [c, plus, eq, _] if c.kind == TokenKind::Ident
                && c.text == counter
                && plus.is_punct('+')
                && eq.is_punct('='))
        })
    })
}

/// Whether some assignment `vec = …` in the file calls a fn whose body
/// sorts (contains `sort_unstable`/`sort`).
fn vec_has_sorted_provenance(index: &ItemIndex, file: &FileIndex, vec_name: &str) -> bool {
    let toks = &file.tokens;
    for i in 0..toks.len().saturating_sub(2) {
        if !(toks[i].kind == TokenKind::Ident && toks[i].text == *vec_name) {
            continue;
        }
        let Some(n) = next_code(toks, i) else {
            continue;
        };
        if !toks[n].is_punct('=') || toks.get(n + 1).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        // RHS up to `;`: find a called ident and check its body sorts.
        let semi = (n + 1..toks.len())
            .find(|&j| toks[j].is_punct(';'))
            .unwrap_or(toks.len());
        for j in n + 1..semi {
            if toks[j].kind == TokenKind::Ident {
                let is_call = next_code(toks, j).is_some_and(|k| k < semi && toks[k].is_punct('('));
                if !is_call {
                    continue;
                }
                for &cand in index.fns_named(&toks[j].text) {
                    let cf = &index.fns[cand];
                    let cfile = index.file_of(cf);
                    let (bs, be) = cf.body;
                    if cfile.tokens[bs..be.min(cfile.tokens.len())]
                        .iter()
                        .any(|t| t.is_ident("sort_unstable") || t.is_ident("sort"))
                    {
                        return true;
                    }
                }
            }
        }
    }
    false
}

/// If the token at `pos` sits inside a `for` loop whose header calls
/// `.rev(`, returns the header's (line, col).
fn enclosing_rev_loop(toks: &[Token], body_start: usize, pos: usize) -> Option<(usize, usize)> {
    let mut i = body_start;
    while i < pos {
        if toks[i].is_ident("for") {
            // Header runs to the loop `{` (brackets/parens can nest).
            let mut j = i + 1;
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth = depth.saturating_sub(1),
                    "{" if depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            let header_has_rev = toks[i..j].iter().any(|t| t.is_ident("rev"));
            if header_has_rev {
                // Loop body: matching brace from `j`.
                let mut bd = 0usize;
                let mut k = j;
                while k < toks.len() {
                    if toks[k].is_punct('{') {
                        bd += 1;
                    } else if toks[k].is_punct('}') {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                if pos > j && pos < k {
                    return Some((toks[i].line, toks[i].col));
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    None
}

/// What a `for` loop walks, judged from the tokens of its iterated
/// expression.
enum LoopWalk {
    /// A range (`a..b`, `(a..b).step_by(k)`): ascending by construction.
    Range,
    /// A vec, named by the last path segment before the first method
    /// call: `&self.touched`, `order.iter().copied()`.
    Vec(String),
    /// Anything else (a call result, a chain of adaptors on one).
    Other,
}

/// The innermost `for` loop enclosing `pos` whose pattern binds `name`:
/// the index of its `for` token and what it walks.
fn enclosing_loop_walk(
    toks: &[Token],
    body_start: usize,
    pos: usize,
    name: &str,
) -> Option<(usize, LoopWalk)> {
    let mut found = None;
    for i in body_start..pos {
        if !toks[i].is_ident("for") {
            continue;
        }
        let Some(in_idx) = (i + 1..pos).find(|&j| toks[j].is_ident("in")) else {
            continue;
        };
        if !toks
            .get(i + 1..in_idx)
            .is_some_and(|pattern| pattern.iter().any(|t| t.is_ident(name)))
        {
            continue;
        }
        // The header runs to the loop `{` (brackets/parens can nest),
        // the body to its matching `}`.
        let mut open = in_idx + 1;
        let mut depth = 0usize;
        while open < toks.len() {
            match toks[open].text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth = depth.saturating_sub(1),
                "{" if depth == 0 => break,
                _ => {}
            }
            open += 1;
        }
        let mut close = open;
        let mut braces = 0usize;
        while close < toks.len() {
            if toks[close].is_punct('{') {
                braces += 1;
            } else if toks[close].is_punct('}') {
                braces = braces.saturating_sub(1);
                if braces == 0 {
                    break;
                }
            }
            close += 1;
        }
        if pos > open && pos < close {
            found = Some((i, loop_walk(&toks[in_idx + 1..open])));
        }
    }
    found
}

/// Classifies a loop header's iterated expression. A `..` counts as the
/// walked range only at the top level or inside a leading `( … )` group
/// (`(a..b).step_by(k)`), never inside a call's arguments or an index.
fn loop_walk(header: &[Token]) -> LoopWalk {
    let code: Vec<&Token> = header.iter().filter(|t| !t.is_comment()).collect();
    let mut depth = 0usize;
    let mut in_leading_group = code.first().is_some_and(|t| t.is_punct('('));
    for w in code.windows(2) {
        match w[0].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    in_leading_group = false;
                }
            }
            "." if w[1].is_punct('.') && (depth == 0 || (depth == 1 && in_leading_group)) => {
                return LoopWalk::Range;
            }
            _ => {}
        }
    }
    let mut rest = code
        .iter()
        .skip_while(|t| t.is_punct('&') || t.is_ident("mut"))
        .peekable();
    let mut vec: Option<&str> = None;
    while let Some(t) = rest.next() {
        if t.kind != TokenKind::Ident {
            break;
        }
        if rest.peek().is_some_and(|n| n.is_punct('(')) {
            break;
        }
        vec = Some(&t.text);
        if rest.next_if(|n| n.is_punct('.')).is_none() {
            break;
        }
    }
    match vec {
        Some(v) if v != "self" => LoopWalk::Vec(v.to_string()),
        _ => LoopWalk::Other,
    }
}

/// Top-level comma-split of a call's argument tokens; `open` is the
/// index of the `(`.
fn call_args(toks: &[Token], open: usize) -> Vec<Vec<String>> {
    let mut args: Vec<Vec<String>> = vec![Vec::new()];
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        let t = &toks[i];
        let mut push_text = false;
        match t.text.as_str() {
            "(" | "[" | "{" => {
                depth += 1;
                push_text = depth > 1;
            }
            ")" | "]" | "}" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    break;
                }
                push_text = true;
            }
            "," if depth == 1 => args.push(Vec::new()),
            _ => push_text = depth >= 1 && !t.is_comment(),
        }
        if push_text {
            if let Some(last) = args.last_mut() {
                last.push(t.text.clone());
            }
        }
        i += 1;
    }
    args
}

/// Whether a call site at `name_idx` is a publish — `.store(EXPR + 2, …)`.
fn is_publish_store(toks: &[Token], name_idx: usize) -> bool {
    let Some(open) = next_code(toks, name_idx) else {
        return false;
    };
    if !toks[open].is_punct('(') {
        return false;
    }
    let args = call_args(toks, open);
    args.first()
        .is_some_and(|a| a.len() >= 2 && a[a.len() - 2] == "+" && a[a.len() - 1] == "2")
}

/// Whether a CAS at `name_idx` claims even→odd: second arg = first + 1.
fn is_claim_cas(toks: &[Token], name_idx: usize) -> bool {
    let Some(open) = next_code(toks, name_idx) else {
        return false;
    };
    if !toks[open].is_punct('(') {
        return false;
    }
    let args = call_args(toks, open);
    if args.len() < 2 {
        return false;
    }
    let mut expect = args[0].clone();
    expect.push("+".to_string());
    expect.push("1".to_string());
    args[1] == expect
}

/// Check B — an even publish (`store(v + 2)`) requires a prior claim
/// CAS (`v → v + 1`) in the same function.
fn check_publish_has_claim(f: &FnDef, file: &FileIndex, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let publishes: Vec<_> = f
        .calls
        .iter()
        .filter(|c| c.name == "store" && is_publish_store(toks, c.token_idx))
        .collect();
    if publishes.is_empty() {
        return;
    }
    let first_claim = f
        .calls
        .iter()
        .filter(|c| c.name == "compare_exchange" && is_claim_cas(toks, c.token_idx))
        .map(|c| c.token_idx)
        .min();
    for p in publishes {
        let claimed_before = first_claim.is_some_and(|c| c < p.token_idx);
        if !claimed_before {
            emit_l9(
                out,
                file,
                p.line,
                p.col,
                format!(
                    "publish `store(… + 2)` in `{}` without a prior claim CAS (`v → v + 1`); writers must claim before publishing",
                    f.qualified_name()
                ),
            );
        }
    }
}

/// Check C — a pure seqlock reader (acquire load + `fence_acquire`, no
/// claim CAS, no publish) must revalidate the sequence after the fence.
fn check_reader_revalidates(f: &FnDef, file: &FileIndex, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let fence = f
        .calls
        .iter()
        .find(|c| c.name == "fence_acquire")
        .map(|c| c.token_idx);
    let Some(fence_idx) = fence else { return };
    let has_acquire_load = f.calls.iter().any(|c| {
        c.name == "load" && {
            let open = next_code(toks, c.token_idx);
            open.is_some_and(|o| {
                toks[o].is_punct('(')
                    && call_args(toks, o)
                        .first()
                        .is_some_and(|a| a.iter().any(|w| w == "ACQUIRE"))
            })
        }
    });
    let is_writer = f.calls.iter().any(|c| {
        c.name == "compare_exchange" || (c.name == "store" && is_publish_store(toks, c.token_idx))
    });
    if !has_acquire_load || is_writer {
        return;
    }
    // A comparison (`==`/`!=`) adjacent to a `.load(` after the fence.
    let (_, end) = f.body;
    let end = end.min(toks.len());
    let revalidates = (fence_idx..end).any(|i| {
        (toks[i].is_punct('=') || toks[i].is_punct('!'))
            && toks.get(i + 1).is_some_and(|t| t.is_punct('='))
            && window_has_ident(toks, i, 12, "load")
    });
    if !revalidates {
        let fence_tok = &toks[fence_idx];
        emit_l9(
            out,
            file,
            fence_tok.line,
            fence_tok.col,
            format!(
                "seqlock reader `{}` never revalidates the sequence after `fence_acquire`; torn reads would go undetected",
                f.qualified_name()
            ),
        );
    }
}

/// Check D — a local that is oddness-tested (`x % 2 == 1`) after a load
/// must flow into a claim CAS, a revalidating comparison, or a saved
/// slot (`arr[i] = x`).
fn check_odd_test_flows(f: &FnDef, file: &FileIndex, out: &mut Vec<Finding>) {
    let toks = &file.tokens;
    let (start, end) = f.body;
    let end = end.min(toks.len());
    let mut i = start;
    while i + 4 < end {
        // `IDENT % 2 == 1`
        let shape = matches!(toks.get(i..i + 5), Some([v, pct, two, eq1, eq2])
            if v.kind == TokenKind::Ident
                && pct.is_punct('%')
                && two.kind == TokenKind::Literal
                && two.text == "2"
                && eq1.is_punct('=')
                && eq2.is_punct('='));
        if !shape {
            i += 1;
            continue;
        }
        let name = toks[i].text.clone();
        let test_idx = i;
        let flows = (test_idx..end).any(|j| {
            if !(toks[j].kind == TokenKind::Ident && toks[j].text == name) || j == test_idx {
                return false;
            }
            // CAS argument, comparison operand, or saved into a slot.
            window_has_ident(toks, j, 16, "compare_exchange")
                || adjacent_comparison(toks, j)
                || prev_code(toks, j).is_some_and(|p| {
                    toks[p].is_punct('=')
                        && prev_code(toks, p).is_some_and(|pp| toks[pp].is_punct(']'))
                })
        });
        if !flows {
            emit_l9(
                out,
                file,
                toks[i].line,
                toks[i].col,
                format!(
                    "oddness-tested sequence `{name}` in `{}` never flows into the claim CAS or a revalidation; the writer race is unguarded",
                    f.qualified_name()
                ),
            );
        }
        i += 5;
    }
}

/// Whether any token within `±radius` of `center` is the ident `name`.
fn window_has_ident(toks: &[Token], center: usize, radius: usize, name: &str) -> bool {
    let lo = center.saturating_sub(radius);
    let hi = (center + radius).min(toks.len());
    toks[lo..hi].iter().any(|t| t.is_ident(name))
}

/// Whether the ident at `i` sits directly beside a `==`/`!=`.
fn adjacent_comparison(toks: &[Token], i: usize) -> bool {
    let is_comparison = |pair: Option<&[Token]>| match pair {
        Some([a, b]) => (a.is_punct('=') || a.is_punct('!')) && b.is_punct('='),
        _ => false,
    };
    is_comparison(i.checked_sub(2).and_then(|s| toks.get(s..i)))
        || is_comparison(toks.get(i + 1..i + 3))
}
