//! Engine 3, layer 2 — dataflow over the workspace call graph.
//!
//! Consumes the [`crate::graph::ItemIndex`] and computes the two
//! reachability facts the L6/L7 rules report on:
//!
//! * **panic reachability** — which functions can reach a panicking
//!   construct (`.unwrap()`, `.expect()`, `panic!`, bare
//!   `unreachable!()`, `todo!`/`unimplemented!`, or arithmetic indexing
//!   without a guarding assertion) through any call chain;
//! * **allocation reachability** — which functions can reach an
//!   allocating call (the same token set rule L2 checks per-function:
//!   `Vec::new`, `Box::new`, `.to_vec()`, `.clone()`, `.collect`,
//!   `format!`, `vec!`).
//!
//! Both analyses close over workspace code only: calls that resolve to
//! nothing (std, vendored shims) are opaque leaves. Messaged
//! `unreachable!("…")` and the `assert!` family are audited invariants,
//! not sinks — the lint enforces that panics are *documented decisions*,
//! not accidents. Test code neither contributes sinks nor receives
//! findings.
//!
//! Suppression is per call edge: a `// wdm-lint: allow(panic_reach)` (or
//! `allow(alloc_reach)`) comment on a call site's line removes that edge
//! from the corresponding propagation, so the justification sits exactly
//! where responsibility is being accepted.

use crate::graph::{CallKind, FnDef, ItemIndex};
use crate::lexer::{Token, TokenKind};

/// One direct sink inside a function body.
#[derive(Debug, Clone)]
pub struct Sink {
    /// Human description, e.g. `` `.unwrap()` `` or `` `panic!` ``.
    pub what: String,
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
}

/// Why a function reaches a sink: either it contains one, or a call
/// edge leads to a function that does.
#[derive(Debug, Clone)]
pub enum Witness {
    /// The function contains the sink itself.
    Direct(Sink),
    /// A call site in this function's body reaches the sink.
    Via {
        /// Callee fn id (index into [`ItemIndex::fns`]).
        callee: usize,
        /// Callee name as written at the call site.
        call_name: String,
        /// 1-based line of the call.
        line: usize,
        /// 1-based column of the call.
        col: usize,
    },
}

/// The resolved call graph: for each fn, its outgoing resolved edges.
pub struct CallGraph {
    /// `edges[caller][k] = (index into caller.calls, callee fn id)`.
    pub edges: Vec<Vec<(usize, usize)>>,
}

impl CallGraph {
    /// Resolves every call site of every fn in `index`.
    pub fn build(index: &ItemIndex) -> CallGraph {
        let mut edges = Vec::with_capacity(index.fns.len());
        for f in &index.fns {
            let mut out = Vec::new();
            for (ci, call) in f.calls.iter().enumerate() {
                for callee in index.resolve(f, call) {
                    if callee != f.id {
                        out.push((ci, callee));
                    }
                }
            }
            edges.push(out);
        }
        CallGraph { edges }
    }
}

/// Computes, for every fn, whether it reaches a sink — `direct[i]` being
/// each fn's own sinks — excluding call edges suppressed by
/// `allow(suppress_slug)` on the call line. Returns one optional witness
/// per fn; chains are reconstructed with [`witness_chain`].
pub fn reach_sinks(
    index: &ItemIndex,
    graph: &CallGraph,
    direct: &[Vec<Sink>],
    suppress_slug: &str,
) -> Vec<Option<Witness>> {
    let n = index.fns.len();
    let mut reach: Vec<Option<Witness>> = vec![None; n];
    // Reverse edges: for each callee, the (caller, call idx) pairs.
    let mut rev: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
    for (caller, outs) in graph.edges.iter().enumerate() {
        for &(ci, callee) in outs {
            rev[callee].push((caller, ci));
        }
    }
    let mut work: Vec<usize> = Vec::new();
    for (i, sinks) in direct.iter().enumerate() {
        if let Some(s) = sinks.first() {
            reach[i] = Some(Witness::Direct(s.clone()));
            work.push(i);
        }
    }
    while let Some(cur) = work.pop() {
        for &(caller, ci) in &rev[cur] {
            if reach[caller].is_some() {
                continue;
            }
            let cf = &index.fns[caller];
            let call = &cf.calls[ci];
            let file = &index.files[index.fn_file[caller]];
            if file.is_allowed(suppress_slug, call.line) {
                continue;
            }
            reach[caller] = Some(Witness::Via {
                callee: cur,
                call_name: call.name.clone(),
                line: call.line,
                col: call.col,
            });
            work.push(caller);
        }
    }
    reach
}

/// Renders the call chain from `fn_id` down to its sink, e.g.
/// `route_step → claim_shard → `.unwrap()` (concurrent.rs:858)`.
pub fn witness_chain(index: &ItemIndex, reach: &[Option<Witness>], fn_id: usize) -> String {
    let mut parts = vec![index.fns[fn_id].qualified_name()];
    let mut cur = fn_id;
    let mut hops = 0;
    loop {
        match &reach[cur] {
            Some(Witness::Via { callee, .. }) if hops < 12 => {
                parts.push(index.fns[*callee].qualified_name());
                cur = *callee;
                hops += 1;
            }
            Some(Witness::Direct(sink)) => {
                let file = &index.files[index.fn_file[cur]];
                let short = file.rel.rsplit('/').next().unwrap_or(&file.rel);
                parts.push(format!("{} ({short}:{})", sink.what, sink.line));
                break;
            }
            _ => break,
        }
    }
    parts.join(" -> ")
}

/// The `assert!` family — audited invariants, and guards for L6's
/// arithmetic-indexing check.
fn is_assert_macro(name: &str) -> bool {
    matches!(
        name,
        "assert"
            | "assert_eq"
            | "assert_ne"
            | "debug_assert"
            | "debug_assert_eq"
            | "debug_assert_ne"
    )
}

/// Direct panic sinks of `f` (empty for test fns).
pub fn panic_sinks(index: &ItemIndex, f: &FnDef) -> Vec<Sink> {
    if f.is_test {
        return Vec::new();
    }
    let file = &index.files[index.fn_file[f.id]];
    let toks = &file.tokens;
    let mut sinks = Vec::new();
    for call in &f.calls {
        let sink = match (&call.kind, call.name.as_str()) {
            (CallKind::Method(_), "unwrap") => Some("`.unwrap()`"),
            (CallKind::Method(_), "expect") => Some("`.expect()`"),
            (CallKind::Macro, "panic") => Some("`panic!`"),
            (CallKind::Macro, "todo") => Some("`todo!`"),
            (CallKind::Macro, "unimplemented") => Some("`unimplemented!`"),
            (CallKind::Macro, "unreachable") => {
                // Bare `unreachable!()` is an undocumented dead end; a
                // messaged one is an audited invariant.
                if macro_is_bare(toks, call.token_idx) {
                    Some("bare `unreachable!()`")
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some(what) = sink {
            if !file.is_allowed("panic_reach", call.line) {
                sinks.push(Sink {
                    what: what.to_string(),
                    line: call.line,
                    col: call.col,
                });
            }
        }
    }
    sinks.extend(unguarded_index_sinks(f, file, toks));
    sinks
}

/// Whether the macro invocation at `bang_name_idx` has an empty argument
/// list (`unreachable!()`).
fn macro_is_bare(toks: &[Token], name_idx: usize) -> bool {
    let mut i = name_idx + 1;
    while i < toks.len() && toks[i].is_comment() {
        i += 1;
    }
    if i >= toks.len() || !toks[i].is_punct('!') {
        return false;
    }
    i += 1;
    while i < toks.len() && toks[i].is_comment() {
        i += 1;
    }
    let open = match toks.get(i) {
        Some(t) if t.is_punct('(') => '(',
        Some(t) if t.is_punct('[') => '[',
        Some(t) if t.is_punct('{') => '{',
        _ => return false,
    };
    let close = match open {
        '(' => ')',
        '[' => ']',
        _ => '}',
    };
    let mut j = i + 1;
    while j < toks.len() && toks[j].is_comment() {
        j += 1;
    }
    toks.get(j).is_some_and(|t| t.is_punct(close))
}

/// Arithmetic indexing without a guarding assertion: `a[i + k]`-style
/// expressions panic out of bounds, and unlike plain `a[i]` the index is
/// *derived*, so the bound is an arithmetic invariant the function must
/// state. An `assert!`-family call earlier in the body, or a self-
/// clamping index (`% len`, `.min(…)`, `& mask`), discharges it.
fn unguarded_index_sinks(f: &FnDef, file: &crate::graph::FileIndex, toks: &[Token]) -> Vec<Sink> {
    let (start, end) = f.body;
    let end = end.min(toks.len());
    let mut sinks = Vec::new();
    // Guard positions: an assert-family macro, or a bounds comparison
    // against a length (`i + 1 < tokens.len()` and friends). Indexing
    // after a guard is considered covered by the stated invariant.
    let mut guards: Vec<usize> = f
        .calls
        .iter()
        .filter(|c| c.kind == CallKind::Macro && is_assert_macro(&c.name))
        .map(|c| c.token_idx)
        .collect();
    for k in start..end {
        if toks[k].kind == TokenKind::Ident && (toks[k].text == "len" || toks[k].text == "min") {
            // A `len`/`min` ident participating in a comparison nearby
            // establishes a bound.
            let lo = k.saturating_sub(8).max(start);
            let hi = (k + 8).min(end);
            if toks[lo..hi]
                .iter()
                .any(|t| t.is_punct('<') || t.is_punct('>'))
            {
                guards.push(k);
            }
        }
    }
    let first_guard = guards.iter().copied().min();
    let mut i = start;
    while i < end {
        if !toks[i].is_punct('[') {
            i += 1;
            continue;
        }
        // Indexing only: `[` must follow an ident, `)`, or `]`.
        let postfix = toks[..i]
            .iter()
            .rposition(|t| !t.is_comment())
            .is_some_and(|p| {
                toks[p].kind == TokenKind::Ident && !is_expr_breaker(&toks[p].text)
                    || toks[p].is_punct(')')
                    || toks[p].is_punct(']')
            });
        if !postfix {
            i += 1;
            continue;
        }
        // Scan the bracket's contents at top level.
        let mut depth = 1usize;
        let mut j = i + 1;
        let mut has_arith = false;
        let mut clamped = false;
        let mut is_literal_only = true;
        while j < end && depth > 0 {
            let t = &toks[j];
            match t.text.as_str() {
                "[" | "(" => depth += 1,
                "]" | ")" => depth -= 1,
                "+" | "*" if depth == 1 => has_arith = true,
                "-" if depth == 1 => {
                    // `..x - 1` style still derived arithmetic.
                    has_arith = true;
                }
                "%" | "&" => clamped = true,
                "," if depth == 1 => {
                    // `,` at top level means array literal, not indexing.
                    has_arith = false;
                    break;
                }
                "min" | "clamp" => clamped = true,
                _ => {}
            }
            // Literals and SCREAMING_CASE consts are compile-time bounds
            // (`buckets[BUCKET_COUNT - 1]` on a const-sized array), not
            // derived runtime arithmetic.
            let const_like = t.kind == TokenKind::Literal
                || (t.kind == TokenKind::Ident
                    && t.text.chars().any(|c| c.is_ascii_uppercase())
                    && t.text
                        .chars()
                        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_'));
            let operator = t.is_punct(']') || t.is_punct('+') || t.is_punct('-') || t.is_punct('*');
            if !t.is_comment() && !const_like && !operator {
                is_literal_only = false;
            }
            j += 1;
        }
        if has_arith && !clamped && !is_literal_only && first_guard.is_none_or(|a| a > i) {
            let t = &toks[i];
            if !file.is_allowed("panic_reach", t.line) {
                sinks.push(Sink {
                    what: "arithmetic indexing without a guarding assert".to_string(),
                    line: t.line,
                    col: t.col,
                });
            }
        }
        i += 1;
    }
    sinks
}

/// Idents that end an expression before `[` (so the bracket starts an
/// array literal / pattern, not an indexing).
fn is_expr_breaker(text: &str) -> bool {
    matches!(
        text,
        "return"
            | "in"
            | "if"
            | "while"
            | "match"
            | "else"
            | "let"
            | "mut"
            | "move"
            | "box"
            | "break"
    )
}

/// Direct allocation sinks of `f` — the same token set as rule L2
/// (empty for test fns).
pub fn alloc_sinks(index: &ItemIndex, f: &FnDef) -> Vec<Sink> {
    if f.is_test {
        return Vec::new();
    }
    let file = &index.files[index.fn_file[f.id]];
    let mut sinks = Vec::new();
    for call in &f.calls {
        let what = match (&call.kind, call.name.as_str()) {
            (CallKind::Path(q), "new") if q == "Vec" || q == "Box" => Some(format!("`{q}::new`")),
            (CallKind::Method(_), "to_vec" | "clone" | "collect") => {
                Some(format!("`.{}()`", call.name))
            }
            (CallKind::Macro, "format" | "vec") => Some(format!("`{}!`", call.name)),
            _ => None,
        };
        if let Some(what) = what {
            if !file.is_allowed("alloc_reach", call.line) {
                sinks.push(Sink {
                    what,
                    line: call.line,
                    col: call.col,
                });
            }
        }
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ItemIndex;

    fn index(src: &str) -> ItemIndex {
        ItemIndex::build(&[("crates/wdm-core/src/x.rs".to_string(), src.to_string())])
    }

    fn reach_of(src: &str) -> (ItemIndex, Vec<Option<Witness>>) {
        let idx = index(src);
        let graph = CallGraph::build(&idx);
        let direct: Vec<Vec<Sink>> = idx.fns.iter().map(|f| panic_sinks(&idx, f)).collect();
        let reach = reach_sinks(&idx, &graph, &direct, "panic_reach");
        (idx, reach)
    }

    #[test]
    fn transitive_panic_reaches_through_two_hops() {
        let (idx, reach) = reach_of(
            "fn top() { mid(); }\n\
             fn mid() { bottom(); }\n\
             fn bottom() { panic!(\"boom\"); }\n",
        );
        let top = idx.fns.iter().find(|f| f.name == "top").expect("top").id;
        assert!(reach[top].is_some());
        let chain = witness_chain(&idx, &reach, top);
        assert!(chain.contains("mid"), "{chain}");
        assert!(chain.contains("`panic!`"), "{chain}");
    }

    #[test]
    fn messaged_unreachable_is_not_a_sink() {
        let (idx, reach) = reach_of(
            "fn audited() { let Some(x) = maybe() else { unreachable!(\"invariant: caller checked\") }; }\n\
             fn bare() { unreachable!() }\n",
        );
        let audited = idx.fns.iter().find(|f| f.name == "audited").expect("a").id;
        let bare = idx.fns.iter().find(|f| f.name == "bare").expect("b").id;
        assert!(reach[audited].is_none());
        assert!(reach[bare].is_some());
    }

    #[test]
    fn edge_suppression_stops_propagation() {
        let (idx, reach) = reach_of(
            "fn top() {\n\
                 // wdm-lint: allow(panic_reach) — fallible only under OOM\n\
                 mid();\n\
             }\n\
             fn mid() { panic!(\"x\"); }\n",
        );
        let top = idx.fns.iter().find(|f| f.name == "top").expect("top").id;
        let mid = idx.fns.iter().find(|f| f.name == "mid").expect("mid").id;
        assert!(reach[top].is_none(), "suppressed edge must not propagate");
        assert!(reach[mid].is_some(), "sink itself remains visible");
    }

    #[test]
    fn arithmetic_indexing_flags_only_unguarded() {
        let (idx, reach) = reach_of(
            "fn unguarded(a: &[u32], i: usize) -> u32 { a[i * 2 + 1] }\n\
             fn guarded(a: &[u32], i: usize) -> u32 {\n\
                 assert!(i * 2 + 1 < a.len());\n\
                 a[i * 2 + 1]\n\
             }\n\
             fn clamped(a: &[u32], i: usize) -> u32 { a[(i * 2 + 1) % a.len()] }\n\
             fn plain(a: &[u32], i: usize) -> u32 { a[i] }\n",
        );
        let by = |n: &str| idx.fns.iter().find(|f| f.name == n).expect(n).id;
        assert!(reach[by("unguarded")].is_some());
        assert!(reach[by("guarded")].is_none());
        assert!(reach[by("clamped")].is_none());
        assert!(reach[by("plain")].is_none());
    }

    #[test]
    fn test_fns_contribute_no_sinks() {
        let (idx, reach) = reach_of(
            "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { maybe().unwrap(); }\n}\n",
        );
        assert!(idx.fns.iter().all(|f| reach[f.id].is_none()));
    }

    #[test]
    fn alloc_reachability_from_hot_seed() {
        let idx = index(
            "// wdm-lint: hot-path\n\
             fn hot(&mut self) { helper(); }\n\
             fn helper() { scratch(); }\n\
             fn scratch() { let v = Vec::new(); drop(v); }\n",
        );
        let graph = CallGraph::build(&idx);
        let direct: Vec<Vec<Sink>> = idx.fns.iter().map(|f| alloc_sinks(&idx, f)).collect();
        let reach = reach_sinks(&idx, &graph, &direct, "alloc_reach");
        let hot = idx.fns.iter().find(|f| f.name == "hot").expect("hot").id;
        assert!(reach[hot].is_some());
        let chain = witness_chain(&idx, &reach, hot);
        assert!(chain.contains("`Vec::new`"), "{chain}");
    }
}
